"""Validated complex matrices, the Hermitian eigensolver, the package's
tolerance policy, and its one JSON codec.

Conventions used across the package:
  * operators are dense complex numpy arrays, and a family of them is one
    read-only complex (k, n, n) stack, admitted by as_stack and measured by
    _fro_batch,
  * every threshold is one of the names below (README lists their gates),
  * eigenvalues come out ascending with a deterministic eigenvector phase.
"""
from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np
import orjson

# --- tolerance policy -------------------------------------------------------
# A gate holds a defect of X against tol * max(1, s) for the scale s of X it
# names (a norm, the spread, the largest entry), or against tol itself on a
# unit-scale object: a projector, state, unitary or unit-modulus number.
# A gate admits defect <= bound, so a NaN defect is refused: each tolerance
# refusal calls _gate, except lattice._ranks, which decides a stack at once.

# identities of input as given; the default of every tol keyword and --tol
DEFAULT_TOL = 1e-10
# identities among products of validated operators or numbers
PRODUCT_TOL = 1e-9
# results carried through a solve: eigensolve, SVD, least squares, linear
# solves; also the eigenvalue cluster width (s = the spread)
SOLVER_TOL = 1e-8
# a fit's residual against the data it was fitted to
FIT_TOL = 1e-6
# rank cutoff: a singular value or Gram eigenvalue counts when above this
# times the largest one, floored at 1 where the gate says so
RANK_RTOL = 1e-10
# the same for the commutant solver's kernels and generator spans
NULLSPACE_RTOL = 1e-9
# commutant ties two eigenblocks by a block of its W above this times the
# largest: clear of the mixing of blocks SOLVER_TOL apart, ~n eps / SOLVER_TOL
INTERTWINER_RTOL = 1e-4
# absolute: an order-one quantity (probability, unit-vector component,
# sample time, uncertainty product) within this of a bound is at it
ABS_FLOOR = 1e-12


class Refusal:
    """Mixin, before the exception base: the one constructor of a refusal.
    Its message is template formatted with the values, defect and bound; the
    values are kept under the names in fields, defect and bound as floats."""

    template, fields = "", ()

    def __init__(self, *values, defect, bound):
        super().__init__(self.template.format(*values, defect=defect,
                                              bound=bound))
        self.__dict__.update(zip(self.fields, values))
        self.defect, self.bound = float(defect), float(bound)


def _gate(defect, bound, refuse, *values):
    """Admit defect <= bound, else raise refuse(*values, defect=defect,
    bound=bound): a NaN defect or bound refuses; admission formats nothing."""
    if not defect <= bound:
        raise refuse(*values, defect=defect, bound=bound)


class NotSquare(ValueError):
    pass


class NotHermitian(Refusal, ValueError):
    template = "Hermiticity defect {defect:.3e} exceeds tolerance"


class NotUnitary(Refusal, ValueError):
    template = "unitarity defect {defect:.3e} exceeds tolerance"


class ToleranceFailure(Exception):
    """Marker base: the computation ran but a numerical budget failed, as
    opposed to bad input. Each subclass also keeps its ValueError or
    RuntimeError base."""


class ConvergenceFailure(ToleranceFailure, RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting NaN/Inf."""
    M = np.asarray(data, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M


def frobenius(M) -> float:
    """np.linalg.norm(M, "fro") bit for bit, by vdot, which warns of no
    overflow; a sum that overflows on finite entries, or is below 2^-500 with
    an entry nonzero, is taken again over the power of two 2^e at its largest
    part, subnormal too: np.ldexp by -e on the float view is exact, and the
    norm is multiplied back by 2^e."""
    x = np.asarray(M).ravel(order="K")
    c = x.dtype.kind == "c"
    re, im = (x.real, x.imag) if c else (x.astype(float, copy=False), x[:0])
    r = math.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
    if r == math.inf and np.isfinite(x).all() or r < 2.0 ** -500 and x.any():
        top = max(np.abs(re).max(), np.abs(im).max(initial=0.0))
        e = math.frexp(top)[1] - 1
        y = np.ldexp(x.astype(complex, copy=False).view(float) if c else re, -e)
        r = frobenius(y.view(complex) if c else y) * 2.0 ** e
    return r


@np.errstate(over="raise", under="raise")
def _fro_batch(S):
    """frobenius() of each C-ordered matrix of a complex (..., m, n) stack,
    bit for bit: the dot products of its real and imaginary parts at stride
    2, one matmul; if a square or a sum over- or underflows, frobenius() of
    each matrix whose norm came out inf or below 2^-500."""
    x = S.reshape(S.shape[:-2] + (S.shape[-2] * S.shape[-1], 1))
    x = x.view(float).mT
    try:
        sq = x[..., None, :] @ x[..., None]
        return np.sqrt(sq[..., 0, 0, 0] + sq[..., 1, 0, 0])
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            sq = x[..., None, :] @ x[..., None]
            r = np.sqrt(sq[..., 0, 0, 0] + sq[..., 1, 0, 0])
            M = S.reshape(-1, *S.shape[-2:])  # frobenius() keeps a zero M at 0
            return np.reshape([v if 2.0 ** -500 <= v < np.inf else frobenius(X)
                               for X, v in zip(M, r.flat)], r.shape)


def _read_only(a):
    a.setflags(write=False)
    return a


# Entries per slice of a stack check: the temporaries stay a few MB at any
# stack length, and a frame of n <= 16 is checked in one slice.
_CHECK_SLICE = 1 << 16


def _matrix_units(n):
    """The read-only (n^2, n, n) stack of the matrix units E_ij."""
    return _read_only(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


def _products(left, right):
    """A_i B_j for every A_i of the (m, n, n) stack left and B_j of right, in
    one GEMM, flattened as the rows i len(right) + j of an (m r, n^2) array."""
    m, n, _ = left.shape
    r = len(right)
    P = left.reshape(m * n, n) @ right.transpose(1, 0, 2).reshape(n, r * n)
    return P.reshape(m, n, r, n).transpose(0, 2, 1, 3).reshape(m * r, n * n)


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


def as_stack(mats, *dims) -> np.ndarray:
    """A family of matrices as a new read-only complex (k, n, n) stack, so the
    caller's arrays stay theirs: each matrix through as_matrix and
    require_square, its one dimension n through require_same_dim, also
    against each of dims. An empty family needs a dimension. A 3-d array is
    checked whole: its matrices share one shape, so the first one's checks
    and one finiteness test of the copy raise what the loop would."""
    if isinstance(mats, np.ndarray) and mats.ndim == 3 and len(mats):
        require_square(as_matrix(mats[0]))
        mats = np.array(mats, dtype=complex)
        as_matrix(mats.reshape(len(mats), -1))
        sizes = [mats.shape[1]]
    else:
        mats = [require_square(as_matrix(M)) for M in mats]
        if not mats and not dims:
            raise ValueError("an empty family and no dimension given")
        sizes = dict.fromkeys(len(M) for M in mats)  # each size once, in order
    n = require_same_dim(*sizes, *dims)
    return _read_only(np.asarray(mats, dtype=complex).reshape(-1, n, n))


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
    the overflow that would make both sides inf; ||A||_F only where the
    defect alone fails. A is halved before the sum so that near-overflow
    input stays finite."""
    M = require_square(as_matrix(matrix))
    top = np.abs(M.ravel().view(float)).max(initial=0.0)
    scale = math.ldexp(1.0, max(math.frexp(top)[1] - 1, -1022))
    S = M * (1.0 / scale)
    defect = frobenius(S - S.conj().T) * scale
    if not defect <= tol:  # then tol * max(1, ||A||_F) decides
        _gate(defect, max(tol, tol * frobenius(S) * scale), NotHermitian)
    return M / 2.0 + M.conj().T / 2.0


def _hermitian_parts(M, tol):
    """hermitian_part of each matrix of a stack that as_stack admitted: the
    defects on the same scales, all in one pass, and a matrix whose defect
    alone fails decided by hermitian_part, so that the first one refused
    raises the NotHermitian it raises alone."""
    top = np.abs(M.reshape(len(M), -1).view(float)).max(axis=1, initial=0.0)
    scale = np.ldexp(1.0, np.maximum(np.frexp(top)[1] - 1, -1022))
    S = M * (1.0 / scale)[:, None, None]
    for a in np.flatnonzero(_fro_batch(S - S.conj().mT) * scale > tol):
        hermitian_part(M[a], tol)
    return M / 2.0 + M.conj().mT / 2.0


class HermitianOperator:
    """A square matrix accepted as self-adjoint.

    The stored form is hermitian_part(A), the symmetrization A/2 + A*/2,
    halved before the sum so that finite input near overflow stays finite;
    inputs whose defect ||A - A*||_F exceeds tol * max(1, ||A||_F) are
    rejected instead of being silently repaired. The first decomposition
    at the default cluster_tol, alone or in a family's stack, keeps its
    factor here (O(n^2), read-only) and later ones build their measure on
    it.
    """

    __slots__ = ("matrix", "dim", "_spectral")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        self.matrix = _read_only(hermitian_part(matrix, tol))
        self.dim, self._spectral = len(self.matrix), None

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def _hermitian(A) -> HermitianOperator:
    """A if it is already admitted, else A admitted at DEFAULT_TOL."""
    return A if isinstance(A, HermitianOperator) else HermitianOperator(A)


def _admitted(M) -> HermitianOperator:
    """The operator of M, Hermitian to the last bit, without admitting it
    again: hermitian_part would give M back."""
    A = HermitianOperator.__new__(HermitianOperator)
    A.matrix, A.dim, A._spectral = _read_only(M), len(M), None
    return A


def _hermitians(ops) -> list:
    """The operators of a family of one dimension, in order: admitted ones as
    they are, the others admitted at DEFAULT_TOL, one alone by
    hermitian_part, more as one stack by _hermitian_parts."""
    ops = list(ops)
    raw = [a for a, A in enumerate(ops)
           if not isinstance(A, HermitianOperator)]
    if len(raw) == 1:
        ops[raw[0]] = HermitianOperator(ops[raw[0]])
    elif raw:
        parts = _hermitian_parts(as_stack(ops[a] for a in raw), DEFAULT_TOL)
        for a, M in zip(raw, parts):
            ops[a] = _admitted(M)
    if len(ops) > 1:
        require_same_dim(*(A.dim for A in ops))
    return ops


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u), u the unit roundoff 2^-53."""
    return m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)


def _unitarity_tol(n):
    """require_unitary's threshold on ||M^*M - I||_F at dimension n."""
    return DEFAULT_TOL * max(1.0, math.sqrt(n))


def require_unitary(M: np.ndarray) -> np.ndarray:
    """Return M, a matrix or a (..., n, n) stack, once every matrix in it has
    ||M^*M - I||_F <= DEFAULT_TOL * max(1, sqrt(n)). For square M this is
    also ||MM^* - I||_F: with M = U S W^*, M^*M - I = W(S^2 - I)W^* and
    MM^* - I = U(S^2 - I)U^* both have the norm ||S^2 - I||_F over M's
    singular values, so the second product would decide nothing."""
    n = M.shape[-1]
    defect = _fro_batch(M.conj().mT @ M - np.eye(n))
    _gate(float(defect.max(initial=0.0)), _unitarity_tol(n), NotUnitary)
    return M


class UnitaryOperator:
    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        self.matrix = require_unitary(require_square(as_matrix(matrix)))
        self.matrix.setflags(write=False)
        self.dim = self.matrix.shape[0]

    @classmethod
    def _certified(cls, U):  # a square U certified unitary, not checked again
        op = cls.__new__(cls)
        op.matrix, op.dim = _read_only(U), len(U)
        return op

    def __repr__(self):
        return f"UnitaryOperator(dim={self.dim})"


class EigenSystem:
    """Ascending real eigenvalues with orthonormal, phase-fixed eigenvectors."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=complex)


def _phase_fix_columns(V: np.ndarray) -> np.ndarray:
    """V, a matrix or a (k, n, n) stack, with the first entry above
    ABS_FLOOR in modulus of each column made real positive."""
    S = V.reshape(-1, *V.shape[-2:])
    k, _, n = S.shape
    a = S[:, 0]  # each column's first entry, if all are above the floor
    if not (np.abs(a) > ABS_FLOOR).all():
        a = S[np.arange(k)[:, None], (np.abs(S) > ABS_FLOOR).argmax(axis=1),
              np.arange(n)]
    # a dead column (|a| at the floor) is scaled by exactly 1; each live one
    # is bit-equal to scaling it alone by the scalar a.conj() / abs(a), as
    # long as the product runs row by row of V.T and comes back C-ordered
    # (np.abs of a complex array is not abs bit for bit; hypot is)
    size = np.hypot(a.real, a.imag)
    s = a.conj() / np.maximum(size, ABS_FLOOR)
    s[size <= ABS_FLOOR] = 1.0
    return np.ascontiguousarray((S.mT * s[:, :, None]).mT).reshape(V.shape)


def eig_hermitian(A) -> EigenSystem:
    """Eigendecomposition of a validated Hermitian operator, or of each of a
    list of validated ones of one dimension by one batched eigh: (k, n)
    eigenvalues and (k, n, n) eigenvectors.

    Eigenvalues ascending; each eigenvector's first nonzero component is made
    real positive so repeated runs agree entrywise.
    """
    M = (A.matrix if isinstance(A, HermitianOperator)
         else np.array([B.matrix for B in A]))
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenSystem(w, _phase_fix_columns(V))


# ---------------------------------------------------------------------------
# The one JSON codec: a matrix is {"cols": n, "data": [[re, im], ...], "rows":
# m}, row-major, each double bit-exact. dumps writes the bytes json.dumps(...,
# indent=2, sort_keys=True) writes for the plain data, by two rules:
#   * one pass, one join: every piece of text goes on one list, joined once,
#     and a matrix's "data" block is one %-format of a template built once per
#     entry count and indent, so the atoms of a measure share one;
#   * one encoder call per matrix: orjson writes its doubles, split on commas.
#     orjson (Ryu) and repr (Gay's dtoa) both write the shortest correctly
#     rounded digits, so their texts differ only in notation: repr switches
#     to an exponent, written e-05 and e+16 where orjson writes 0.00001 and
#     1e16, below |x| = 1e-4 and from 1e16 on. Those entries, zeros aside,
#     are written again by repr.

# [lo, hi): the |x| whose orjson text is repr's
_REPR_NOTATION = (1e-4, 1e16)


@functools.lru_cache(maxsize=4)
def _data_template(count, nl):
    """The "data" array of count [re, im] pairs with its lines after the first
    at nl, a %s for each double."""
    if not count:
        return "[]"
    inner, pad = nl + "  ", nl + "    "
    pair = f"[{pad}%s,{pad}%s{inner}]"
    return f"[{inner}" + f",{inner}".join([pair] * count) + f"{nl}]"


def _texts(M):
    """repr of each double of the finite C-ordered complex matrix M,
    row-major: orjson's texts, and repr's where the notations differ."""
    x = M.view(np.float64).ravel()
    if not x.size:
        return []
    body = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    texts = body.decode().split(",")
    lo, hi = _REPR_NOTATION
    size = np.abs(x)
    redo = np.flatnonzero(((size < lo) | ~(size < hi)) & (x != 0))
    for k, v in zip(redo.tolist(), x[redo].tolist()):
        texts[k] = repr(v)
    return texts


def dumps(obj) -> str:
    """obj as JSON text in the report layout (2-space indent, sorted keys,
    ASCII only, NaN/Infinity for non-finite scalars), byte for byte what
    json.dumps(..., indent=2, sort_keys=True) writes for the plain data. Keys
    become str; a 2-d array is a matrix, any other array a list, a complex
    scalar [re, im]. One pass over obj, one join; a matrix's data block is
    one template %-format of the texts of one orjson call."""
    return "".join(_pieces(obj))


def _pieces(obj, nl="\n", out=None) -> list:
    """The texts dumps joins, in order, appended to out (nl before each later
    line): a writer can write them one by one and never hold them twice."""
    out = [] if out is None else out
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        M, inner = np.ascontiguousarray(as_matrix(obj)), nl + "  "
        out += (f'{{{inner}"cols": {M.shape[1]},{inner}"data": ',
                _data_template(M.size, inner) % tuple(_texts(M)),
                f',{inner}"rows": {M.shape[0]}{nl}}}')
        return out
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, dict):
        keyed = sorted({str(k): v for k, v in obj.items()}.items())
        text, items = "{}", [(json.dumps(k) + ": ", v) for k, v in keyed]
    elif isinstance(obj, (list, tuple)):
        text, items = "[]", [("", v) for v in obj]
    else:
        text, items = json.dumps(obj), []
    if not items:  # a scalar, or an empty container
        out.append(text)
        return out
    inner, sep = nl + "  ", text[0]
    for key, v in items:
        out.append(sep + inner + key)
        _pieces(v, inner, out)
        sep = ","
    out.append(nl + text[1])
    return out


def _complex_pairs(data) -> np.ndarray:
    """Nested [re, im] JSON number pairs as a complex array of one axis fewer.
    The pairs are viewed as complex, not added up, so every bit is kept, the
    sign of a zero included. An integer beyond 64 bits is read as a float.
    Each entry must be an int or a float: numpy would read a boolean among
    numbers as 0 or 1, and a numeric string as a number. A flat list of
    pairs, a matrix's data, is flattened once and converted in one call."""
    if (type(data) is list and set(map(type, data)) == {list}
            and set(map(len, data)) == {2}):
        leaves = list(itertools.chain.from_iterable(data))
        if set(map(type, leaves)) <= {int, float}:
            return np.array(leaves, dtype=float).view(complex)
    return _nested_pairs(data)


def _nested_pairs(data) -> np.ndarray:
    """_complex_pairs of any nesting, its shape found by numpy."""
    arr = np.asarray(data)
    leaves = data
    for _ in range(arr.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if (arr.ndim < 1 or arr.shape[-1] != 2
            or not set(map(type, leaves)) <= {int, float}):
        raise ValueError("expected nested [re, im] pairs of numbers")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def matrix_from_json(obj) -> np.ndarray:
    """The matrix, bare or wrapped as projector_to_json writes it; rows and
    cols must be JSON integers, not booleans, floats or strings."""
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    rows, cols = obj["rows"], obj["cols"]
    if not all(type(v) is int and v >= 0 for v in (rows, cols)):
        raise ValueError(f"rows {rows!r} and cols {cols!r} must be "
                         "non-negative integers")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = _complex_pairs(data) if rows * cols else np.zeros(0, dtype=complex)
    return as_matrix(flat.reshape(rows, cols))
