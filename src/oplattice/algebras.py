"""Finite-dimensional *-algebras of matrices: commutants, double commutants,
centers, and the splitting of a system into superselection sectors ruled by
a family of commuting central charges.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    as_matrix,
    frobenius,
    require_square,
    require_same_dim,
)
from .spectral import JOINT_COMMUTE_TOL, joint_pvm, pvm_commute, spectral_decompose

_NULLSPACE_RTOL = 1e-9


class NotClosedUnderProducts(ValueError):
    def __init__(self, defect):
        super().__init__(
            f"span is not closed under multiplication (defect {defect:.3e})"
        )
        self.defect = float(defect)


class NonCommutingCharges(ValueError):
    def __init__(self, i, j):
        super().__init__(f"charges {i} and {j} do not commute")
        self.indices = (int(i), int(j))


class NonCentralCharge(ValueError):
    def __init__(self, index, defect):
        super().__init__(
            f"charge {index} fails to commute with the observables "
            f"(defect {defect:.3e})"
        )
        self.index = int(index)
        self.defect = float(defect)


def _as_generator_list(generators, dim=None):
    mats = [require_square(as_matrix(G)) for G in generators]
    if mats:
        require_same_dim(*(M.shape[0] for M in mats))
        if dim is not None and mats[0].shape[0] != dim:
            raise DimensionMismatch(
                f"generators are {mats[0].shape[0]}x{mats[0].shape[0]}, "
                f"expected dim {dim}"
            )
    elif dim is None:
        raise ValueError("no generators and no dimension given")
    return mats


def _matrix_units(n):
    return list(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


def _kernel(L):
    """Orthonormal rows x with L @ x = 0, for L with at least as many rows as
    columns: a tall L is first reduced to its QR factor R, then the rows of
    vh past the numerical rank are read off one SVD. Those rows span the
    null space of conj(L), so they come back conjugated."""
    if L.shape[0] > 2 * L.shape[1]:
        L = np.linalg.qr(L, mode="r")
    _, s, vh = np.linalg.svd(L, full_matrices=False)
    # callers scale L's columns to O(1), so genuine constraints sit well
    # above the eps-level noise of a numerically commuting pair
    cutoff = _NULLSPACE_RTOL * max(1.0, *s[:1])
    return vh[np.sum(s > cutoff):].conj()


def commutant(generators, dim=None) -> list:
    """Orthonormal basis (Frobenius inner product) of everything commuting
    with the generators and their adjoints.

    Stacks the Sylvester maps X -> GX - XG as Kronecker blocks and takes
    their common kernel. With no generators the commutant is all of M_n,
    returned as the matrix-unit basis.
    """
    mats = _as_generator_list(generators, dim)
    if not mats:
        return _matrix_units(dim)
    n = mats[0].shape[0]
    eye = np.eye(n)
    blocks = []
    for G in mats:
        scale = frobenius(G)
        if scale == 0.0:
            continue  # the zero matrix constrains nothing
        G = G / scale
        blocks.append(np.kron(G, eye) - np.kron(eye, G.T))
        H = G.conj().T
        if frobenius(H - G) > 0.0:
            blocks.append(np.kron(H, eye) - np.kron(eye, H.T))
    if not blocks:
        return _matrix_units(n)
    return [x.reshape(n, n) for x in _kernel(np.vstack(blocks))]


def double_commutant(generators, dim=None) -> list:
    """Basis of the algebra the generators actually generate: the commutant
    of their commutant. This is the smallest *-algebra with unit containing
    them, so it doubles as a closure operation."""
    mats = _as_generator_list(generators, dim)
    n = mats[0].shape[0] if mats else dim
    return commutant(commutant(mats, n), n)


def _span_residual(span, X):
    """Frobenius distance of each matrix in X, one or a (k, n, n) stack, from
    the span of the orthonormal rows of span (flattened matrices)."""
    v = X.reshape(-1, span.shape[1])
    return np.linalg.norm(v - (v @ span.conj().T) @ span, axis=1)


class MatrixStarAlgebra:
    """A concrete *-algebra: the span of a basis that is verified to be
    closed under adjoints and products and to contain the identity. _span
    holds an orthonormal basis of that span, one flattened matrix per row."""

    __slots__ = ("dim", "basis", "_span")

    def __init__(self, basis, tol=None):
        tol = DEFAULT_TOL if tol is None else float(tol)
        mats = [require_square(as_matrix(B)) for B in basis]
        if not mats:
            raise ValueError("empty basis")
        require_same_dim(*(M.shape[0] for M in mats))
        n = mats[0].shape[0]
        k = len(mats)
        stack = np.array(mats)

        _, s, span = np.linalg.svd(stack.reshape(k, -1), full_matrices=False)
        if np.sum(s > _NULLSPACE_RTOL * s[0]) < k:
            raise ValueError("basis matrices are linearly dependent")

        scale = max(1.0, max(frobenius(M) for M in mats))
        if _span_residual(span, np.eye(n))[0] > tol * np.sqrt(n):
            raise ValueError("algebra does not contain the identity")
        worst = _span_residual(span, stack.conj().transpose(0, 2, 1)).max()
        if worst > tol * scale:
            raise NotClosedUnderProducts(worst)
        if k < n * n:
            # k = n^2 means the span is everything, products included.
            worst = max(_span_residual(span, A @ stack).max() for A in stack)
            if worst > tol * scale * scale:
                raise NotClosedUnderProducts(worst)

        self.dim = n
        self.basis = mats
        self._span = span

    @classmethod
    def generated_by(cls, generators, dim=None):
        return cls(double_commutant(generators, dim))

    def contains(self, X, tol=1e-8) -> bool:
        X = require_square(as_matrix(X))
        if X.shape[0] != self.dim:
            raise DimensionMismatch(
                f"element dim {X.shape[0]} vs algebra dim {self.dim}"
            )
        resid = _span_residual(self._span, X)[0]
        return float(resid) <= tol * max(1.0, frobenius(X))

    def linear_dimension(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return (
            f"MatrixStarAlgebra(dim={self.dim}, "
            f"linear_dimension={len(self.basis)})"
        )


def center(algebra: MatrixStarAlgebra) -> list:
    """Frobenius-orthonormal basis of the elements commuting with the whole
    algebra, the intersection of A with its commutant, computed inside A:
    over the orthonormal basis E of A, X = sum_i c_i E_i is central exactly
    when c lies in the kernel of c -> ([X, E_j])_j."""
    n = algebra.dim
    E = algebra._span.reshape(-1, n, n)
    k = len(E)
    # every product in one GEMM: P[i, a, j, b] = (E_i E_j)[a, b]
    P = E.reshape(k * n, n) @ E.transpose(1, 0, 2).reshape(n, k * n)
    P = P.reshape(k, n, k, n)
    # row (j, a, b) of L, column i: [E_i, E_j][a, b]
    L = (P.transpose(2, 1, 3, 0) - P.transpose(0, 1, 3, 2)).reshape(-1, k)
    return list(np.tensordot(_kernel(L), E, axes=1))


def is_factor(algebra: MatrixStarAlgebra) -> bool:
    """Trivial center, i.e. multiples of the identity only."""
    return len(center(algebra)) == 1


Sector = namedtuple(
    "Sector",
    ["label", "projector", "rank", "restricted_basis",
     "irreducible", "charge_values"],
)

SuperselectionReport = namedtuple(
    "SuperselectionReport", ["sectors", "joint", "offdiag_defect"]
)


def superselection_sectors(charges, observables, tol=None) -> SuperselectionReport:
    """Split the Hilbert space by the joint eigenvalues of commuting central
    charges, and restrict the observable algebra to each block.

    Each charge must commute with every other charge and with every
    observable. Each sector carries the compressed observable algebra and an
    irreducibility verdict (commutant trivial inside the block).
    """
    tol = DEFAULT_TOL if tol is None else float(tol)
    charge_mats = [require_square(as_matrix(Q)) for Q in charges]
    obs_mats = [require_square(as_matrix(G)) for G in observables]
    if not charge_mats:
        raise ValueError("no charges given")
    require_same_dim(*(M.shape[0] for M in charge_mats + obs_mats))

    pvms = [spectral_decompose(Q) for Q in charge_mats]
    for i in range(len(pvms)):
        for j in range(i + 1, len(pvms)):
            if not pvm_commute(pvms[i], pvms[j], tol=JOINT_COMMUTE_TOL):
                raise NonCommutingCharges(i, j)
    for idx, Q in enumerate(charge_mats):
        defect = max(
            (frobenius(Q @ G - G @ Q) for G in obs_mats), default=0.0
        )
        if defect > max(tol, 1e-8) * max(1.0, frobenius(Q)):
            raise NonCentralCharge(idx, defect)

    joint = joint_pvm(charge_mats)

    offdiag = 0.0
    sectors = []
    for label, P in joint.atoms:
        w, v = np.linalg.eigh(P)
        B = v[:, w > 0.5]  # isometry onto the sector
        rank = B.shape[1]
        compressed = [B.conj().T @ G @ B for G in obs_mats]
        for G in obs_mats:
            offdiag = max(offdiag, frobenius(P @ G @ (np.eye(P.shape[0]) - P)))
        prime = commutant(compressed, rank)
        values = []
        for Q in charge_mats:
            QB = B.conj().T @ Q @ B
            q = float(QB.trace().real) / rank
            values.append(q)
        key = label if isinstance(label, tuple) else (label,)
        sectors.append(Sector(
            label=key,
            projector=P,
            rank=rank,
            restricted_basis=commutant(prime, rank),
            irreducible=(len(prime) == 1),
            charge_values=tuple(values),
        ))
    return SuperselectionReport(sectors, joint, float(offdiag))


def decohere_across_sectors(rho, report: SuperselectionReport):
    """Kill the coherences between sectors: rho -> sum_k P_k rho P_k.
    Exactly the states the sector-respecting observables can tell apart."""
    R = require_square(as_matrix(rho))
    out = np.zeros_like(R)
    for sector in report.sectors:
        P = sector.projector
        out += P @ R @ P
    return out
