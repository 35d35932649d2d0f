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
    RANK_RTOL,
    Refusal,
    ToleranceFailure,
    _CHECK_SLICE,
    _fro_batch,
    _gate,
    as_matrix,
    frobenius,
    matrix_from_json,
    operator_norm,
    require_same_dim,
    require_square,
)


class NotProjector(Refusal, ValueError):
    template = "projector invariants violated (defect {defect:.3e})"


class LostOrthogonality(Refusal, ArithmeticError):
    template = "commuting decomposition lost orthogonality (defect {defect:.3e})"


class NotComparable(ValueError):
    pass


class MaxIterExceeded(ToleranceFailure, RuntimeError):
    def __init__(self, iterations, residual):
        super().__init__(
            f"alternating product did not settle after {iterations} steps "
            f"(residual vs exact meet {residual:.3e})"
        )
        self.iterations = int(iterations)
        self.residual = float(residual)


def _ranks(stack, tol):
    """Ranks of a (k, n, n) stack of projectors. Raises NotProjector with the
    defect of the first matrix whose largest Hermiticity, idempotency or
    trace-gap defect exceeds tol or is NaN."""
    step = max(1, _CHECK_SLICE // max(1, stack.shape[-1] ** 2))
    ranks = []
    for lo in range(0, len(stack), step):
        S = stack[lo:lo + step]
        tr = S.trace(axis1=1, axis2=2).real
        rounded = np.rint(tr)
        D = np.concatenate([S - S.conj().transpose(0, 2, 1), S @ S - S])
        herm, idem = _fro_batch(D).reshape(2, -1)
        defect = np.maximum(np.maximum(herm, idem), np.abs(tr - rounded))
        ok = defect <= tol
        if not ok.all():
            raise NotProjector(defect=defect[ok.argmin()], bound=tol)
        ranks += rounded.astype(int).tolist()
    return ranks


class Projector:
    """Validated orthogonal projector: P = P* = P^2, integer trace. It keeps
    the orthonormal bases of range(P) and range(I - P) that meet and join
    take, both from one eigh of P on first use (read-only)."""

    __slots__ = ("dim", "matrix", "rank", "_bases")

    def __init__(self, matrix, tol=DEFAULT_TOL):
        P = require_square(as_matrix(matrix))
        self._admit(P, _ranks(P[None], tol)[0])

    def _admit(self, P, rank):
        P.setflags(write=False)
        self.matrix, self.dim, self.rank = P, P.shape[0], rank
        self._bases = None
        return self

    def __repr__(self):
        return f"Projector(dim={self.dim}, rank={self.rank})"


def _projector(P, tol=DEFAULT_TOL) -> Projector:
    """P if it is already admitted, else P admitted at tol."""
    return P if isinstance(P, Projector) else Projector(P, tol)


def _projectors(stack, tol=DEFAULT_TOL) -> list:
    """Projectors of a complex (k, n, n) stack, checked as one stack: the first
    matrix that Projector refuses raises the same NotProjector. The stack is
    made read-only and each projector's matrix is a view of it."""
    ranks = _ranks(stack, tol)
    stack.setflags(write=False)
    return [Projector.__new__(Projector)._admit(M, r) for M, r in zip(stack, ranks)]


def span_projector(vectors) -> Projector:
    """Projector onto the span of a vector or a sequence of vectors."""
    arr = np.asarray(vectors, dtype=complex)
    cols = arr[:, None] if arr.ndim == 1 else arr.T
    return Projector(_union_span_projector([cols], cols.shape[0]))


def zero_projector(dim) -> Projector:
    return Projector(np.zeros((dim, dim)))


def identity_projector(dim) -> Projector:
    return Projector(np.eye(dim))


def neg(P: Projector) -> Projector:
    """Orthocomplement I - P. Its Hermiticity, idempotency and trace defects
    are P's, so it carries P's admission, at the caller's tol, with rank
    n - r, and is not checked again."""
    return Projector.__new__(Projector)._admit(np.eye(P.dim) - P.matrix,
                                               P.dim - P.rank)


def _basis(P: Projector, complement: bool) -> np.ndarray:
    """Orthonormal basis of range(P), or of range(I - P) if complement: the
    eigenvectors of one eigh of P with eigenvalue above 1/2, or the rest.
    Both are kept with P; neg(P) takes the eigh of its own matrix."""
    if P._bases is None:
        w, v = np.linalg.eigh(P.matrix)
        P._bases = v[:, w > 0.5], v[:, w <= 0.5]
        for B in P._bases:
            B.setflags(write=False)
    return P._bases[complement]


def _union_span_projector(bases, dim):
    cols = np.hstack(bases)
    if cols.shape[1] == 0:
        return np.zeros((dim, dim), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > RANK_RTOL * max(1.0, float(s[0]))
    basis = u[:, keep]
    return basis @ basis.conj().T


def meet(P: Projector, Q: Projector) -> Projector:
    """Projector onto range(P) intersect range(Q).

    Nullspace method: the intersection is the orthocomplement of
    span(range(I-P) union range(I-Q)), which needs no iteration.
    """
    dim = require_same_dim(P.dim, Q.dim)
    union = _union_span_projector([_basis(P, True), _basis(Q, True)], dim)
    return Projector(np.eye(dim) - union)


def join(P: Projector, Q: Projector) -> Projector:
    """Projector onto range(P) + range(Q)."""
    dim = require_same_dim(P.dim, Q.dim)
    return Projector(_union_span_projector([_basis(P, False), _basis(Q, False)], dim))


def jauch_meet(P: Projector, Q: Projector, tol=DEFAULT_TOL, max_iter=200000,
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
    require_same_dim(P.dim, Q.dim)
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


def is_below(P: Projector, Q: Projector) -> bool:
    """Range inclusion P <= Q, tested as QP = P."""
    require_same_dim(P.dim, Q.dim)
    return frobenius(Q.matrix @ P.matrix - P.matrix) <= DEFAULT_TOL


def commuting_decomposition(P: Projector, Q: Projector, tol=DEFAULT_TOL):
    """For commuting P, Q: the three pairwise-orthogonal parts
    (P minus the overlap, Q minus the overlap, the overlap PQ)."""
    require_same_dim(P.dim, Q.dim)
    overlap = P.matrix @ Q.matrix
    c3, c1, c2 = _projectors(np.array(
        [overlap, P.matrix - overlap, Q.matrix - Q.matrix @ P.matrix]), 100 * tol)
    return c1, c2, c3


def commutes(P: Projector, Q: Projector, tol=DEFAULT_TOL) -> bool:
    """PQ = QP within tol. A true result is certified by producing the
    three-part decomposition and checking its pairwise orthogonality."""
    require_same_dim(P.dim, Q.dim)
    if not frobenius(P.matrix @ Q.matrix - Q.matrix @ P.matrix) <= tol:
        return False
    parts = commuting_decomposition(P, Q, tol)
    for a in range(3):
        for b in range(a + 1, 3):
            _gate(operator_norm(parts[a].matrix @ parts[b].matrix), 100 * tol,
                  LostOrthogonality)
    return True


def orthomodular_check(P: Projector, Q: Projector) -> bool:
    """For P <= Q, verify Q = P v (~P ^ Q)."""
    if not is_below(P, Q):
        raise NotComparable("orthomodularity is only stated for P <= Q")
    rebuilt = join(P, meet(neg(P), Q))
    return frobenius(rebuilt.matrix - Q.matrix) <= DEFAULT_TOL


def projector_to_json(P: Projector) -> dict:
    """{"matrix": P, "rank": r}, P an array; a valid command-line input."""
    return {"matrix": P.matrix, "rank": P.rank}


def projector_from_json(obj) -> Projector:
    P = Projector(matrix_from_json(obj))
    if "rank" in obj and int(obj["rank"]) != P.rank:
        raise ValueError(f"declared rank {obj['rank']} but trace says {P.rank}")
    return P
