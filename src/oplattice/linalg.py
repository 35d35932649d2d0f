"""Validated complex matrices, the Hermitian eigensolver, the package's
tolerance policy, and its one JSON codec.

Conventions used across the package:
  * operators are dense complex numpy arrays,
  * every threshold is one of the names below (README lists their gates),
  * eigenvalues come out ascending with a deterministic eigenvector phase.
"""
from __future__ import annotations

import json
import math

import numpy as np

# --- tolerance policy -------------------------------------------------------
# A gate holds a defect of X against tol * max(1, s) for the scale s of X it
# names (a norm, the spread, the largest entry), or against tol itself on a
# unit-scale object: a projector, state, unitary or unit-modulus number.

# identities of input as given; the default of every tol keyword and --tol
DEFAULT_TOL = 1e-10
# identities among products of validated operators or numbers
PRODUCT_TOL = 1e-9
# results carried through a solve: eigensolve, SVD, least squares, finite
# differences; also the eigenvalue cluster width (s = the spread)
SOLVER_TOL = 1e-8
# a fit's residual against the data it was fitted to
FIT_TOL = 1e-6
# rank cutoff: a singular value or Gram eigenvalue counts when above this
# times the largest one, floored at 1 where the gate says so
RANK_RTOL = 1e-10
# the same for the commutant solver's kernels and generator spans
NULLSPACE_RTOL = 1e-9
# absolute: an order-one quantity (probability, unit-vector component,
# sample time, uncertainty product) within this of a bound is at it
ABS_FLOOR = 1e-12


class NotSquare(ValueError):
    pass


class NotHermitian(ValueError):
    def __init__(self, defect):
        super().__init__(f"Hermiticity defect {defect:.3e} exceeds tolerance")
        self.defect = float(defect)


class NotUnitary(ValueError):
    def __init__(self, defect):
        super().__init__(f"unitarity defect {defect:.3e} exceeds tolerance")
        self.defect = float(defect)


class ToleranceFailure(Exception):
    """Marker base: the computation ran but a numerical budget failed, as
    opposed to bad input. Each subclass also keeps its ValueError or
    RuntimeError base."""


class ConvergenceFailure(ToleranceFailure, RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


def as_matrix(data, ndim=2) -> np.ndarray:
    """Coerce to a 2-d complex array (ndim=3: a stack), rejecting NaN/Inf."""
    M = np.asarray(data, dtype=complex)
    if M.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M


def frobenius(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def _fro_batch(stack):
    """Frobenius norm of every matrix in a (..., n, n) stack."""
    return np.sqrt((np.abs(stack) ** 2).sum(axis=(-2, -1)))


def require_square(M: np.ndarray) -> np.ndarray:
    if M.shape[-2] != M.shape[-1]:
        raise NotSquare(f"matrix is {M.shape[-2]}x{M.shape[-1]}")
    return M


def require_same_dim(*dims):
    first = dims[0]
    for d in dims[1:]:
        if d != first:
            raise DimensionMismatch(f"dimensions differ: {dims}")
    return first


def operator_norm(M) -> float:
    """Largest singular value."""
    M = as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def hermitian_part(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A/2 + A*/2 of a square A with ||A - A*||_F <= tol * max(1, ||A||_F),
    else NotHermitian. The norms are taken on A over the power of two at its
    largest real or imaginary part (at least 2^-1022): exactly, and clear of
    the overflow that would make both sides inf. A is halved before the sum
    so that near-overflow input stays finite."""
    M = require_square(as_matrix(matrix))
    top = max(np.abs(M.real).max(initial=0.0), np.abs(M.imag).max(initial=0.0))
    scale = math.ldexp(1.0, max(math.frexp(top)[1] - 1, -1022))
    S = M * (1.0 / scale)
    defect = frobenius(S - S.conj().T)
    if not (defect <= tol * frobenius(S) or defect * scale <= tol):
        raise NotHermitian(defect * scale)
    return M / 2.0 + M.conj().T / 2.0


class HermitianOperator:
    """A square matrix accepted as self-adjoint.

    The stored form is hermitian_part(A), the symmetrization A/2 + A*/2,
    halved before the sum so that finite input near overflow stays finite;
    inputs whose defect ||A - A*||_F exceeds tol * max(1, ||A||_F) are
    rejected instead of being silently repaired. The first
    spectral_decompose at the default cluster_tol keeps its factor here
    (O(n^2), read-only) and later ones build their measure on it.
    """

    __slots__ = ("matrix", "dim", "_spectral")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        self.matrix = hermitian_part(matrix, tol)
        self.matrix.setflags(write=False)
        self.dim = self.matrix.shape[0]
        self._spectral = None

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def _hermitian(A) -> HermitianOperator:
    """A if it is already admitted, else A admitted at DEFAULT_TOL."""
    return A if isinstance(A, HermitianOperator) else HermitianOperator(A)


def require_unitary(M: np.ndarray) -> np.ndarray:
    """Return M, a matrix or a (..., n, n) stack, once every matrix in it has
    max(||M^*M - I||_F, ||MM^* - I||_F) <= DEFAULT_TOL * max(1, sqrt(n))."""
    n = M.shape[-1]
    eye = np.eye(n)
    Mh = np.swapaxes(M, -1, -2).conj()
    defect = np.maximum(_fro_batch(Mh @ M - eye), _fro_batch(M @ Mh - eye))
    worst = float(defect.max(initial=0.0))
    if not worst <= DEFAULT_TOL * max(1.0, float(np.sqrt(n))):  # NaN fails too
        raise NotUnitary(worst)
    return M


class UnitaryOperator:
    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        self.matrix = require_unitary(require_square(as_matrix(matrix)))
        self.matrix.setflags(write=False)
        self.dim = self.matrix.shape[0]

    def __repr__(self):
        return f"UnitaryOperator(dim={self.dim})"


def range_basis(P: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning range(P), from the 0/1 eigensplit."""
    w, v = np.linalg.eigh(P)
    return v[:, w > 0.5]


class EigenSystem:
    """Ascending real eigenvalues with orthonormal, phase-fixed eigenvectors."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=complex)


def _phase_fix_columns(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    live = np.abs(V) > ABS_FLOOR
    cols = np.flatnonzero(live.any(axis=0))
    if cols.size:
        a = V[live[:, cols].argmax(axis=0), cols]
        # bit-equal to scaling each column alone by the scalar
        # a.conj() / abs(a); np.abs on an array, or an in-place broadcast
        # product, can differ from that in the last bit
        V[:, cols] = (V.T[cols] * (a.conj() / np.hypot(a.real, a.imag))[:, None]).T
    return V


def eig_hermitian(A: HermitianOperator) -> EigenSystem:
    """Eigendecomposition of a validated Hermitian operator.

    Eigenvalues ascending; each eigenvector's first nonzero component is made
    real positive so repeated runs agree entrywise.
    """
    try:
        w, V = np.linalg.eigh(A.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenSystem(w, _phase_fix_columns(V))


# ---------------------------------------------------------------------------
# The one JSON codec: a matrix is {"cols": n, "data": [[re, im], ...], "rows":
# m}, row-major, each double bit-exact. Matrices stay arrays until dumps writes
# each data block as one %-format, not pair by pair through json's encoder.

def _block(brackets, body, pad):
    """The JSON texts in body as an indented array or object at pad."""
    if not body:
        return brackets
    inner = pad + "  "
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(body)
            + f"\n{pad}{brackets[1]}")


def dumps(obj) -> str:
    """obj as JSON text in the report layout (2-space indent, sorted keys,
    ASCII only, NaN/Infinity for non-finite scalars). Keys become str; a 2-d
    array is a matrix, any other array a list, a complex scalar [re, im]."""
    return _dumps(obj, "")


def _dumps(obj, pad):  # the lines after the first indented by pad
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        M, inner = as_matrix(obj), pad + "  "
        pair = _block("[]", ["%r", "%r"], inner + "  ")
        data = _block("[]", [pair] * M.size, inner) % tuple(
            M.ravel().view(np.float64).tolist())
        return _block("{}", [f'"cols": {M.shape[1]}', f'"data": {data}',
                             f'"rows": {M.shape[0]}'], pad)
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, dict):
        keyed = sorted({str(k): v for k, v in obj.items()}.items())
        return _block("{}", [f"{json.dumps(k)}: {_dumps(v, pad + '  ')}"
                             for k, v in keyed], pad)
    if isinstance(obj, (list, tuple)):
        return _block("[]", [_dumps(v, pad + "  ") for v in obj], pad)
    return json.dumps(obj)


def _complex_pairs(data) -> np.ndarray:
    """Nested [re, im] number pairs as a complex array of one axis fewer. The
    pairs are viewed as complex, not added up, so every bit is kept, the
    sign of a zero included. An integer beyond 64 bits is read as a float."""
    arr = np.asarray(data)
    if arr.dtype.kind == "O" and all(isinstance(x, (int, float))
                                     for x in arr.flat):
        arr = arr.astype(float)
    if arr.dtype.kind not in "biuf" or arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("expected nested [re, im] pairs of numbers")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def matrix_from_json(obj) -> np.ndarray:
    """The matrix, bare or wrapped as projector_to_json writes it."""
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = _complex_pairs(data) if rows * cols else np.zeros(0, dtype=complex)
    return as_matrix(flat.reshape(rows, cols))

