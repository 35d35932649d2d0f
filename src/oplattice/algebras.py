"""Finite-dimensional *-algebras of matrices: commutants read in the
eigenblocks of one generic element, double commutants, centers A ∩ A', and
superselection sectors ruled by a family of commuting central charges.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NULLSPACE_RTOL,
    SOLVER_TOL,
    _CHECK_SLICE,
    _admitted,
    _fro_batch,
    _matrix_units,
    _products,
    _read_only,
    as_matrix,
    as_stack,
    frobenius,
    require_square,
    require_same_dim,
)
from .spectral import NonCommuting, _decompose_stack, joint_pvm

_WEIGHT_SEED = 1729  # commutant's generic element, fixed: bit-stable results
_QR_ROWS = 1024  # chunk height of _kernel's blocked QR


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


def _kernel(L, certify=False):
    """Orthonormal rows x with L @ x = 0 (L at least as tall as wide): the
    conjugated rows of vh past the numerical rank of one SVD of L, or of its
    QR factor R if L is tall (blocked, from two _QR_ROWS-row chunks each 4x
    as tall as wide). Callers scale L's columns to O(1), so genuine constraints
    sit well above the eps-level noise of a commuting pair. With certify, also
    c = 3 ||L x^T||_F / s_keep (0 if no s is kept; else inf): ||L xy|| <=
    ||Lx|| ||y||_2 + ||x||_2 ||Ly|| puts xy, if in L's domain, within c of x."""
    R = L
    if L.shape[0] > 2 * L.shape[1]:
        if L.shape[0] >= 2 * _QR_ROWS >= 8 * L.shape[1]:
            R = np.concatenate([np.linalg.qr(L[i:i + _QR_ROWS], mode="r")
                                for i in range(0, len(L), _QR_ROWS)])
        R = np.linalg.qr(R, mode="r")
    _, s, vh = np.linalg.svd(R, full_matrices=False)
    r = np.sum(s > NULLSPACE_RTOL * max(1.0, *s[:1]))
    x = vh[r:].conj()
    return x, ((3 * frobenius(L @ x.T) / s[r - 1] if r else 0.0)
               if certify else np.inf)


def commutant(generators, dim=None) -> np.ndarray:
    """Orthonormal basis (Frobenius inner product), a read-only (k, n, n)
    stack, of everything commuting with the generators and their adjoints.

    h = W + W^* for W = sum_i c_i G_i, fixed pseudo-random c_i, is in the
    generated *-algebra, so every X commuting with it is V (+)_a X_a V^* for
    h's eigenblocks V_a (merged eigenvalues only enlarge a block). _kernel
    solves [G~, X~] = 0, G~ = V^* B V over an orthonormal basis B of
    span{G, G^*} (one SVD, NULLSPACE_RTOL cutoff), for the block entries.
    Generators within NULLSPACE_RTOL of a multiple of I constrain nothing;
    with none left the commutant is M_n, as the matrix-unit basis."""
    return _commutant(generators, dim)[0]


def _commutant(generators, dim, certify=False):
    """commutant's basis, and beta = (1 + e)(c + e) + 2 n^2 eps >= its product
    defect: e = ||V^*V - I||_F off the factor gate's Gram, 2 n^2 eps for
    rounding; inf if not certify. h skips admission: its (i, j) and (j, i)
    entries add the same two numbers, so hermitian_part(h) is h."""
    S = as_stack(generators, *(() if dim is None else (dim,)))
    n = S.shape[1]
    norms = _fro_batch(S)
    keep = _fro_batch(S - (S.trace(axis1=1, axis2=2) / n)[:, None, None]
                      * np.eye(n)) > NULLSPACE_RTOL * norms
    G = S[keep] / norms[keep, None, None]
    if not len(G):
        return _matrix_units(n), 0.0
    c = np.random.default_rng(_WEIGHT_SEED).uniform(0.5, 1.0, (len(G), 2))
    W = np.tensordot(c @ [1.0, 1.0j], G, axes=1)
    pvm, gram = _decompose_stack([_admitted(W + W.conj().T)])[0]
    V = pvm._factor[0]
    owner = np.repeat(np.arange(len(pvm)), pvm.ranks)
    _, s, B = np.linalg.svd(np.concatenate([G, G.conj().transpose(0, 2, 1)])
                            .reshape(2 * len(G), -1), full_matrices=False)
    B = B[:np.sum(s > NULLSPACE_RTOL * s[0])].reshape(-1, n, n)
    Gt = V.conj().T @ B @ V
    # unknown u is X~[cs_u, ds_u]; column u of L holds [G~, E_u]
    cs, ds = np.nonzero(owner[:, None] == owner)
    u = np.arange(len(cs))
    L = np.zeros((len(Gt), n, n, len(u)), dtype=complex)
    L[:, :, ds, u] = Gt[:, :, cs]
    L[:, cs, :, u] -= Gt[:, ds, :].transpose(1, 0, 2)
    x, gap = _kernel(L.reshape(-1, len(u)), certify)
    Xt = np.zeros((len(x), n, n), dtype=complex)
    Xt[:, cs, ds] = x
    e = frobenius(gram)
    beta = (1 + e) * (gap + e) + 2 * n * n * np.finfo(float).eps
    return _read_only(V @ Xt @ V.conj().T), beta


def double_commutant(generators, dim=None) -> np.ndarray:
    """Basis of the algebra the generators actually generate: the commutant
    of their commutant. This is the smallest *-algebra with unit containing
    them, so it doubles as a closure operation."""
    return commutant(commutant(generators, dim), dim)


def _span_residual(span, X, comp=None):
    """Frobenius distance of each matrix in X, one or a (k, n, n) stack, from
    the span of the orthonormal rows of span (flattened matrices): the norm
    of v - (v S^*) S, or of v comp when comp, the conjugate transpose of the
    complement's orthonormal rows, is given."""
    v = X.reshape(-1, span.shape[1])
    return _fro_batch((v - (v @ span.conj().T) @ span if comp is None
                       else v @ comp)[:, None])


class MatrixStarAlgebra:
    """A concrete *-algebra: the span of a basis checked to contain the
    identity and to be closed under adjoints and, by the product gate or by
    generated_by's certificate, products. basis is a read-only (k, n, n)
    stack, _span an orthonormal basis of it (flattened rows), _prime its kept
    commutant. The gate forms A_i A_j one GEMM per slice of m left by r right
    factors (r = k unless one left factor passes _CHECK_SLICE entries), each
    residual on the span's smaller side: the n^2 - k complement rows if
    3k > n^2, else v - (v S^*) S (2k rows)."""

    __slots__ = ("dim", "basis", "_span", "_prime")

    def __init__(self, basis):
        self._admit(as_stack(basis))

    def _admit(self, stack, certified=False):
        """The gates on a read-only complex (k, n, n) stack, less the product
        gate for a basis certified closed."""
        k, n, _ = stack.shape
        span, comp = stack.reshape(k, -1), None
        if not certified:
            full = 3 * k > n * n
            _, s, vh = np.linalg.svd(span, full_matrices=full)
            if np.sum(s > NULLSPACE_RTOL * s[0]) < k:
                raise ValueError("basis matrices are linearly dependent")
            span, comp = vh[:k].copy(), vh[k:].conj().T if full else None
        scale = max(1.0, _fro_batch(stack).max())
        if _span_residual(span, np.eye(n), comp)[0] > DEFAULT_TOL * np.sqrt(n):
            raise ValueError("algebra does not contain the identity")
        worst = _span_residual(span, stack.conj().transpose(0, 2, 1), comp).max()
        if worst > DEFAULT_TOL * scale:
            raise NotClosedUnderProducts(worst)
        if not certified and k < n * n:
            # k = n^2 means the span is everything, products included
            r = min(k, max(1, _CHECK_SLICE // (n * n)))
            m = max(1, _CHECK_SLICE // (r * n * n))
            worst = max(_span_residual(
                span, _products(stack[lo:lo + m], stack[j:j + r]), comp).max()
                for lo in range(0, k, m) for j in range(0, k, r))
            if worst > DEFAULT_TOL * scale * scale:
                raise NotClosedUnderProducts(worst)

        self.dim, self.basis, self._span, self._prime = n, stack, span, None

    @classmethod
    def generated_by(cls, generators, dim=None):
        """The algebra A the generators generate, the commutant of their
        commutant A', which it keeps for center and is_factor. A's basis is
        orthonormal, so it is its own span; it skips the product gate when
        _commutant's beta bounds the defect within DEFAULT_TOL (scale 1)."""
        prime = commutant(generators, dim)
        basis, beta = _commutant(prime, dim, certify=True)
        algebra = cls.__new__(cls)
        algebra._admit(basis, certified=beta <= DEFAULT_TOL)
        algebra._prime = prime
        return algebra

    def contains(self, X) -> bool:
        """Span distance within SOLVER_TOL * max(1, ||X||_F), above the
        null-space solver's noise in the basis."""
        X = require_square(as_matrix(X))
        require_same_dim(X.shape[0], self.dim)
        resid = _span_residual(self._span, X)[0]
        return float(resid) <= SOLVER_TOL * max(1.0, frobenius(X))

    def linear_dimension(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return (
            f"MatrixStarAlgebra(dim={self.dim}, "
            f"linear_dimension={len(self.basis)})"
        )


def center(algebra: MatrixStarAlgebra) -> np.ndarray:
    """Frobenius-orthonormal basis, a read-only (k, n, n) stack, of the
    center A ∩ A': X = sum_j c_j C_j over the orthonormal basis C_j of A' is
    central exactly when c is in the kernel of c -> (X off A's span). A' is
    the one the algebra keeps, or the commutant of A's basis, computed here
    once and kept."""
    n, span = algebra.dim, algebra._span
    if algebra._prime is None:
        algebra._prime = commutant(span.reshape(-1, n, n))
    prime = algebra._prime.reshape(-1, n * n)
    x = _kernel((prime - (prime @ span.conj().T) @ span).T)[0]
    return _read_only((x @ prime).reshape(-1, n, n))


def is_factor(algebra: MatrixStarAlgebra) -> bool:
    """Trivial center, i.e. multiples of the identity only; center's kernel
    step on the commutant the algebra keeps."""
    return len(center(algebra)) == 1


Sector = namedtuple(
    "Sector",
    ["label", "projector", "rank", "restricted_basis",
     "irreducible", "charge_values"],
)

SuperselectionReport = namedtuple(
    "SuperselectionReport", ["sectors", "joint", "offdiag_defect"]
)


def superselection_sectors(charges, observables,
                           tol=DEFAULT_TOL) -> SuperselectionReport:
    """Split the Hilbert space by the joint eigenvalues of commuting central
    charges, and restrict the observable algebra to each block.

    Each charge must commute with every other charge and with every
    observable. Each sector carries the compressed observable algebra and an
    irreducibility verdict (commutant trivial inside the block). [Q, G] is
    held to max(tol, SOLVER_TOL) * max(1, ||Q||_F): it keeps two products'
    rounding.
    """
    charge_mats = as_stack(charges)
    obs = as_stack(observables, charge_mats.shape[1])

    try:
        joint = joint_pvm(charge_mats)
    except NonCommuting as exc:
        raise NonCommutingCharges(*exc.pair) from exc
    for idx, Q in enumerate(charge_mats):
        defect = float(_fro_batch(Q @ obs - obs @ Q).max(initial=0.0))
        if defect > max(tol, SOLVER_TOL) * max(1.0, frobenius(Q)):
            raise NonCentralCharge(idx, defect)

    offdiag = 0.0
    sectors = []
    for (label, P), (_, B) in zip(joint.atoms, joint.blocks):
        rank = B.shape[1]  # B: isometry onto the sector
        BG = B.conj().T @ obs
        compressed = BG @ B
        # ||P G (I - P)||_F for P = B B^*
        leak = _fro_batch(BG - compressed @ B.conj().T).max(initial=0.0)
        offdiag = max(offdiag, float(leak))
        prime = commutant(compressed, rank)
        values = tuple(float((B.conj().T @ Q @ B).trace().real) / rank
                       for Q in charge_mats)
        sectors.append(Sector(
            label=label,
            projector=P,
            rank=rank,
            restricted_basis=commutant(prime, rank),
            irreducible=(len(prime) == 1),
            charge_values=values,
        ))
    return SuperselectionReport(sectors, joint, float(offdiag))


def decohere_across_sectors(rho, report: SuperselectionReport):
    """Kill the coherences between sectors: rho -> sum_k P_k rho P_k.
    Exactly the states the sector-respecting observables can tell apart."""
    R = require_square(as_matrix(rho))
    return sum((s.projector @ R @ s.projector for s in report.sectors),
               np.zeros_like(R))
