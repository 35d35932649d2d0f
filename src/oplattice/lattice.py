"""The lattice of orthogonal projectors.

Meet and join of subspaces, orthocomplement, the commutation predicate with
its three-part decomposition certificate, the orthomodular identity, and the
alternating-product meet. The lattice is orthomodular but not distributive;
the classical formulas P*Q and P+Q-PQ survive only on commuting pairs.
"""
from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    as_matrix,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    range_basis,
    require_square,
)

_SPAN_RTOL = 1e-10


class NotProjector(ValueError):
    def __init__(self, defect):
        super().__init__(f"projector invariants violated (defect {defect:.3e})")
        self.defect = float(defect)


class NotComparable(ValueError):
    pass


class MaxIterExceeded(RuntimeError):
    def __init__(self, iterations, residual):
        super().__init__(
            f"alternating product did not settle after {iterations} steps "
            f"(residual vs exact meet {residual:.3e})"
        )
        self.iterations = int(iterations)
        self.residual = float(residual)


# Entries per slice of a stack check: the temporaries stay a few MB at any
# stack length, and a frame of n <= 16 is checked in one slice.
_CHECK_SLICE = 1 << 16


def _fro_rows(S):
    """frobenius() of each matrix of a (k, n, n) stack, bit for bit: the same
    dot products of the real and imaginary parts (_fro_batch sums otherwise)."""
    re, im = S.real.reshape(len(S), -1), S.imag.reshape(len(S), -1)
    sq = re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None]
    return np.sqrt(sq.reshape(len(S)))


def _ranks(stack, tol):
    """Ranks of a (k, n, n) stack of projectors. Raises NotProjector with the
    defect of the first matrix whose largest Hermiticity, idempotency or
    trace-gap defect exceeds tol or is NaN."""
    tol = DEFAULT_TOL if tol is None else float(tol)
    step = max(1, _CHECK_SLICE // max(1, stack.shape[-1] ** 2))
    ranks = []
    for lo in range(0, len(stack), step):
        S = stack[lo:lo + step]
        tr = S.trace(axis1=1, axis2=2).real
        rounded = np.rint(tr)
        herm = _fro_rows(S - S.conj().transpose(0, 2, 1))
        idem = _fro_rows(S @ S - S)
        defect = np.maximum(np.maximum(herm, idem), np.abs(tr - rounded))
        ok = defect <= tol
        if not ok.all():
            raise NotProjector(defect[ok.argmin()])
        ranks += rounded.astype(int).tolist()
    return ranks


class Projector:
    """Validated orthogonal projector: P = P* = P^2, integer trace."""

    __slots__ = ("dim", "matrix", "rank")

    def __init__(self, matrix, tol=None):
        P = require_square(as_matrix(matrix))
        self._admit(P, _ranks(P[None], tol)[0])

    def _admit(self, P, rank):
        P.setflags(write=False)
        self.matrix, self.dim, self.rank = P, P.shape[0], rank
        return self

    def __repr__(self):
        return f"Projector(dim={self.dim}, rank={self.rank})"


def _projectors(stack, tol=None) -> list:
    """Projectors of a complex (k, n, n) stack, checked as one stack: the first
    matrix that Projector refuses raises the same NotProjector. The stack is
    made read-only and each projector's matrix is a view of it."""
    ranks = _ranks(stack, tol)
    stack.setflags(write=False)
    return [Projector.__new__(Projector)._admit(M, r) for M, r in zip(stack, ranks)]


def span_projector(vectors, tol=None) -> Projector:
    """Projector onto the span of a vector or a sequence of vectors."""
    arr = np.asarray(vectors, dtype=complex)
    cols = arr[:, None] if arr.ndim == 1 else arr.T
    return Projector(_union_span_projector([cols], cols.shape[0]), tol=tol)


def zero_projector(dim) -> Projector:
    return Projector(np.zeros((dim, dim)))


def identity_projector(dim) -> Projector:
    return Projector(np.eye(dim))


def _same_dim(P, Q):
    if P.dim != Q.dim:
        raise DimensionMismatch(f"projector dims differ: {P.dim} vs {Q.dim}")
    return P.dim


def neg(P: Projector) -> Projector:
    """Orthocomplement I - P."""
    return Projector(np.eye(P.dim) - P.matrix)


def _union_span_projector(bases, dim):
    cols = np.hstack([b for b in bases if b.size]) if any(
        b.size for b in bases
    ) else np.zeros((dim, 0))
    if cols.shape[1] == 0:
        return np.zeros((dim, dim), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > _SPAN_RTOL * max(1.0, float(s[0]))
    basis = u[:, keep]
    return basis @ basis.conj().T


def meet(P: Projector, Q: Projector, tol=None) -> Projector:
    """Projector onto range(P) intersect range(Q).

    Nullspace method: the intersection is the orthocomplement of
    span(range(I-P) union range(I-Q)), which needs no iteration.
    """
    dim = _same_dim(P, Q)
    union = _union_span_projector(
        [range_basis(neg(P).matrix), range_basis(neg(Q).matrix)], dim
    )
    return Projector(np.eye(dim) - union, tol=tol)


def join(P: Projector, Q: Projector, tol=None) -> Projector:
    """Projector onto range(P) + range(Q)."""
    dim = _same_dim(P, Q)
    return Projector(
        _union_span_projector([range_basis(P.matrix), range_basis(Q.matrix)],
                              dim), tol=tol
    )


def jauch_meet(P: Projector, Q: Projector, tol=None, max_iter=200000,
               norm_log=None) -> Projector:
    """Meet as the limit of the alternating products (PQ)^n P.

    Iterates until the step difference falls below tol and the iterate agrees
    with the exact meet within 10*tol; the raw iterate is returned, keeping
    this route numerically independent of meet(). Convergence is linear with
    ratio cos^2 of the smallest nonzero principal angle, so small angles are
    slow; max_iter guards against a hopeless budget.

    When norm_log is a list, the operator norm of each iterate is appended,
    one entry per multiplication.
    """
    tol = DEFAULT_TOL if tol is None else float(tol)
    _same_dim(P, Q)
    target = meet(P, Q).matrix
    PQ = P.matrix @ Q.matrix
    M = P.matrix
    for _ in range(int(max_iter)):
        M_next = PQ @ M
        step = frobenius(M_next - M)
        M = M_next
        if norm_log is not None:
            norm_log.append(operator_norm(M))
        if step <= tol and frobenius(M - target) <= 10 * tol:
            return Projector(M, tol=100 * tol)
    raise MaxIterExceeded(max_iter, frobenius(M - target))


def is_below(P: Projector, Q: Projector, tol=None) -> bool:
    """Range inclusion P <= Q, tested as QP = P."""
    tol = DEFAULT_TOL if tol is None else float(tol)
    _same_dim(P, Q)
    return frobenius(Q.matrix @ P.matrix - P.matrix) <= tol


def commuting_decomposition(P: Projector, Q: Projector, tol=None):
    """For commuting P, Q: the three pairwise-orthogonal parts
    (P minus the overlap, Q minus the overlap, the overlap PQ)."""
    tol = DEFAULT_TOL if tol is None else float(tol)
    _same_dim(P, Q)
    overlap = P.matrix @ Q.matrix
    c3, c1, c2 = _projectors(np.array(
        [overlap, P.matrix - overlap, Q.matrix - Q.matrix @ P.matrix]), 100 * tol)
    return c1, c2, c3


def commutes(P: Projector, Q: Projector, tol=None) -> bool:
    """PQ = QP within tol. A true result is certified by producing the
    three-part decomposition and checking its pairwise orthogonality."""
    tol = DEFAULT_TOL if tol is None else float(tol)
    _same_dim(P, Q)
    if frobenius(P.matrix @ Q.matrix - Q.matrix @ P.matrix) > tol:
        return False
    parts = commuting_decomposition(P, Q, tol)
    for a in range(3):
        for b in range(a + 1, 3):
            cross = operator_norm(parts[a].matrix @ parts[b].matrix)
            if cross > 100 * tol:
                raise ArithmeticError(
                    "commuting decomposition lost orthogonality "
                    f"(defect {cross:.3e})"
                )
    return True


def orthomodular_check(P: Projector, Q: Projector, tol=None) -> bool:
    """For P <= Q, verify Q = P v (~P ^ Q)."""
    tol = DEFAULT_TOL if tol is None else float(tol)
    if not is_below(P, Q, tol):
        raise NotComparable("orthomodularity is only stated for P <= Q")
    rebuilt = join(P, meet(neg(P), Q))
    return frobenius(rebuilt.matrix - Q.matrix) <= max(tol, 1e-12)


def projector_to_json(P: Projector) -> dict:
    out = matrix_to_json(P.matrix)
    out["rank"] = P.rank
    return out


def projector_from_json(obj, tol=None) -> Projector:
    P = Projector(matrix_from_json(obj), tol=tol)
    if "rank" in obj and int(obj["rank"]) != P.rank:
        raise ValueError(
            f"declared rank {obj['rank']} but trace says {P.rank}"
        )
    return P
