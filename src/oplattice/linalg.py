"""Validated complex matrices and the Hermitian eigensolver.

Conventions used across the package:
  * operators are dense complex numpy arrays,
  * tolerances are relative, Frobenius-scaled, default 1e-10,
  * eigenvalues come out ascending with a deterministic eigenvector phase.
"""
from __future__ import annotations

import json

import numpy as np

DEFAULT_TOL = 1e-10

# floor below which an eigenvector component does not anchor the phase fix
_PHASE_FLOOR = 1e-12


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


class ConvergenceFailure(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/Inf entries."""
    M = np.asarray(data, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("matrix contains non-finite entries")
    return M


def frobenius(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def _fro_batch(stack):
    """Frobenius norm of every matrix in a (..., n, n) stack."""
    return np.sqrt((np.abs(stack) ** 2).sum(axis=(-2, -1)))


def require_square(M: np.ndarray) -> np.ndarray:
    if M.shape[0] != M.shape[1]:
        raise NotSquare(f"matrix is {M.shape[0]}x{M.shape[1]}")
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


class HermitianOperator:
    """A square matrix accepted as self-adjoint.

    The stored form is the symmetrization A/2 + A*/2, halved before the sum
    so that finite input near overflow stays finite; inputs whose defect
    ||A - A*||_F exceeds tol * max(1, ||A||_F) are rejected instead of being
    silently repaired.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix, tol: float | None = None):
        tol = DEFAULT_TOL if tol is None else float(tol)
        M = require_square(as_matrix(matrix))
        defect = frobenius(M - M.conj().T)
        if defect > tol * max(1.0, frobenius(M)):
            raise NotHermitian(defect)
        self.matrix = M / 2.0 + M.conj().T / 2.0
        self.matrix.setflags(write=False)
        self.dim = M.shape[0]

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def require_unitary(M: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Return M, a matrix or a (..., n, n) stack, once every matrix in it has
    max(||M^*M - I||_F, ||MM^* - I||_F) <= tol * max(1, sqrt(n))."""
    tol = DEFAULT_TOL if tol is None else float(tol)
    n = M.shape[-1]
    eye = np.eye(n)
    Mh = np.swapaxes(M, -1, -2).conj()
    defect = np.maximum(_fro_batch(Mh @ M - eye), _fro_batch(M @ Mh - eye))
    worst = float(defect.max(initial=0.0))
    if not worst <= tol * max(1.0, float(np.sqrt(n))):  # NaN fails too
        raise NotUnitary(worst)
    return M


class UnitaryOperator:
    __slots__ = ("matrix", "dim")

    def __init__(self, matrix, tol: float | None = None):
        self.matrix = require_unitary(require_square(as_matrix(matrix)), tol)
        self.matrix.setflags(write=False)
        self.dim = self.matrix.shape[0]

    def __repr__(self):
        return f"UnitaryOperator(dim={self.dim})"


class EigenSystem:
    """Ascending real eigenvalues with orthonormal, phase-fixed eigenvectors."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=complex)


def _phase_fix_columns(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    live = np.abs(V) > _PHASE_FLOOR
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
# JSON matrix format, shared by every module:
# {"rows": m, "cols": n, "data": [[re, im], ...]} row-major.
# Python floats are IEEE-754 doubles and json round-trips them bit-exactly.

def matrix_to_json(M) -> dict:
    M = as_matrix(M)
    rows, cols = M.shape
    data = [[float(z.real), float(z.imag)] for z in M.reshape(-1)]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return as_matrix(flat.reshape(rows, cols))


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
