"""Finite-dimensional *-algebras of matrices: commutants read in the
eigenblocks of one generic element, double commutants, centers A ∩ A', and
superselection sectors ruled by a family of commuting central charges.
"""
from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    INTERTWINER_RTOL,
    NULLSPACE_RTOL,
    SOLVER_TOL,
    _CHECK_SLICE,
    Refusal,
    _admitted,
    _fro_batch,
    _gate,
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


class NotClosedUnderProducts(Refusal, ValueError):
    template = "span is not closed under multiplication (defect {defect:.3e})"


class MissingIdentity(Refusal, ValueError):
    template = "algebra does not contain the identity"


class NonCommutingCharges(Refusal, ValueError):
    template, fields = "charges {0[0]} and {0[1]} do not commute", ("indices",)


class NonCentralCharge(Refusal, ValueError):
    template = ("charge {0} fails to commute with the observables "
                "(defect {defect:.3e})")
    fields = ("index",)


def _kernel(L):
    """Orthonormal rows x with L @ x = 0 (L at least as tall as wide): the
    conjugated rows of vh past the numerical rank of one SVD of L, or of its
    QR factor R if L is tall. Callers scale L's columns to O(1), so genuine
    constraints sit well above the eps-level noise of a commuting pair.
    ||L||_F <= NULLSPACE_RTOL keeps every unknown, with no QR or SVD: x = I."""
    if frobenius(L) <= NULLSPACE_RTOL:
        return np.eye(L.shape[1], dtype=complex)
    R = np.linalg.qr(L, mode="r") if L.shape[0] > 2 * L.shape[1] else L
    _, s, vh = np.linalg.svd(R, full_matrices=False)
    return vh[np.sum(s > NULLSPACE_RTOL * max(1.0, *s[:1])):].conj()


@functools.lru_cache(maxsize=32)
def _weights(k):  # commutant's c_i for k generators, drawn once per k
    c = np.random.default_rng(_WEIGHT_SEED).uniform(0.5, 1.0, (k, 2))
    return _read_only(c @ [1.0, 1.0j])


def commutant(generators, dim=None) -> np.ndarray:
    """Orthonormal basis (Frobenius inner product), a read-only (k, n, n)
    stack, of everything commuting with the generators and their adjoints.

    h = W + W^* for W = sum_i c_i G_i, fixed pseudo-random c_i, is in the
    generated *-algebra, so every X commuting with it is V (+)_a X_a V^* for
    h's eigenblocks V_a (merged eigenvalues only enlarge a block), blocks tied
    by W sharing one X_a (_forest). _kernel solves [G~, X~] = 0, G~ = V^* B V
    over an orthonormal basis B of span{G, G^*} (one SVD, NULLSPACE_RTOL
    cutoff). Generators within NULLSPACE_RTOL of a multiple of I constrain
    nothing; with none left the commutant is M_n, as the matrix-unit basis."""
    return _commutant(generators, dim)[0]


def _forest(W, V, starts, ranks):
    """(pos, owner, V'): each untied block r of h's factor V (starts, ranks)
    ties each later untied block b of its size s for which ||M_rb||_F, M =
    V^*WV, passes INTERTWINER_RTOL times the largest block norm and U = M_rb
    sqrt(s) / ||M_rb||_F is unitary within DEFAULT_TOL: M_rb X_b = X_r M_rb,
    so V'_b = V_b U^* shares X_r; a missed tie only adds unknowns. Index i is
    in block owner[i], at pos[i] of its root's."""
    M = V.conj().T @ W @ V
    N2 = np.add.reduceat(np.add.reduceat(np.abs(M) ** 2, starts, 0), starts, 1)
    near = (N2 > INTERTWINER_RTOL ** 2 * N2.max()) & (ranks[:, None] == ranks)
    root, V = np.arange(len(ranks)), V.copy()
    for r in np.flatnonzero(np.triu(near, 1).any(axis=1)).tolist():
        if root[r] != r:
            continue
        b = r + 1 + np.flatnonzero(near[r, r + 1:] & (root[r + 1:] > r))
        s, cols = ranks[r], starts[b, None] + np.arange(ranks[r])
        U = M[starts[r]:starts[r] + s, cols].transpose(1, 0, 2)
        U /= np.sqrt(N2[r, b] / s)[:, None, None]
        clean = _fro_batch(U.conj().mT @ U - np.eye(s)) <= DEFAULT_TOL
        b, cols, U = b[clean], cols[clean], U[clean]
        V[:, cols] = (V[:, cols].transpose(1, 0, 2)
                      @ U.conj().mT).transpose(1, 0, 2)
        root[b] = r
    owner = np.repeat(np.arange(len(ranks)), ranks)
    return starts[root[owner]] + np.arange(len(V)) - starts[owner], owner, V


def _commutant(generators, dim):
    """commutant's basis, and its tied form (V', pos, owner) if the kernel
    kept every tied unknown, else None. h skips admission:
    hermitian_part(W + W^*) is W + W^* bit for bit."""
    S = as_stack(generators, *(() if dim is None else (dim,)))
    n = S.shape[1]
    norms = _fro_batch(S)
    keep = _fro_batch(S - (S.trace(axis1=1, axis2=2) / n)[:, None, None]
                      * np.eye(n)) > NULLSPACE_RTOL * norms
    _, e = np.frexp(norms[keep])  # over 2^e first: 1/norm may overflow
    G = (np.ldexp(S[keep].view(float), -e[:, None, None]).view(complex)
         / np.ldexp(norms[keep], -e)[:, None, None])
    if not len(G):  # M_n: one tree of one block, all n columns
        tied = (np.eye(n, dtype=complex), np.arange(n), np.zeros(n, int))
        return _matrix_units(n), tied
    W = np.tensordot(_weights(len(G)), G, axes=1)
    pvm = _decompose_stack([_admitted(W + W.conj().T)])[0]
    pos, owner, V = _forest(W, *pvm._factor)
    _, s, B = np.linalg.svd(np.concatenate([G, G.conj().transpose(0, 2, 1)])
                            .reshape(2 * len(G), -1), full_matrices=False)
    B = B[:np.sum(s > NULLSPACE_RTOL * s[0])].reshape(-1, n, n)
    Gt = V.conj().T @ B @ V
    # X~[cs, ds] = w Y[u], Y a tree's shared block: L[:, u] = [G~, sum w E]
    cs, ds = np.nonzero(owner[:, None] == owner)
    _, u, size = np.unique(pos[cs] * n + pos[ds], return_inverse=True,
                           return_counts=True)
    w = 1.0 / np.sqrt(size[u])
    L = np.zeros((len(Gt), n, n, len(size)), dtype=complex)
    L[:, :, ds, u] = Gt[:, :, cs] * w
    L[:, cs, :, u] -= Gt[:, ds, :].transpose(1, 0, 2) * w[:, None, None]
    x = _kernel(L.reshape(-1, len(size)))
    Xt = np.zeros((len(x), n, n), dtype=complex)
    Xt[:, cs, ds] = x[:, u] * w
    return (_read_only(V @ Xt @ V.conj().T),
            (V, pos, owner) if len(x) == len(size) else None)


def _bicommutant(generators, dim):
    """(A', A'', beta >= the product defect of A''). A'' is read off the first
    solve's tied form (V', pos, owner), A' = V'((+)_trees I_t (x) M_s)V'^*
    (_tied_algebra), or is the second solve's, on A', with that solve's tied
    form. With E = V'^*V' - I, X_ab X_cd = delta_bc X_ad / sqrt(s) + C_a E_bc
    C_d^* / s, ||C_a||_2^2 = ||I + E_aa||_2 <= 1 + e and e = ||E||_F give beta
    = (1 + e) e + 2 n^2 eps. With no tied form, beta is inf: A'' goes to the
    product gate."""
    prime, tied = _commutant(generators, dim)
    basis, tied = ((_tied_algebra(*tied), tied) if tied is not None
                   else _commutant(prime, dim))
    if tied is None:
        return prime, basis, np.inf
    V, n = tied[0], len(tied[0])
    e = frobenius(V.conj().T @ V - np.eye(n))
    return prime, basis, (1 + e) * e + 2 * n * n * np.finfo(float).eps


def _tied_algebra(V, pos, owner):
    """A'' = V'((+)_trees M_t (x) I_s)V'^*: X_ab = C_a C_b^* / sqrt(s) for
    blocks a, b of a tree, C_a block a's s columns of V', one batched product
    per (t, s) group; M_n (one tree, s = 1) is the matrix units."""
    n, t, s = len(V), np.bincount(pos)[pos], np.bincount(owner)[owner]
    if t[0] == n:
        return _matrix_units(n)
    order, parts = np.lexsort((owner, pos, s, t)), []
    for tt, ss in sorted(set(zip(t.tolist(), s.tolist()))):
        cols = order[(t[order] == tt) & (s[order] == ss)].reshape(-1, ss, tt)
        C = V[:, cols].transpose(1, 3, 0, 2)  # [tree, block, row, offset]
        parts.append((C[:, :, None] @ C[:, None].conj().mT / np.sqrt(ss))
                     .reshape(-1, n, n))
    return _read_only(np.concatenate(parts))


def double_commutant(generators, dim=None) -> np.ndarray:
    """Basis of the algebra the generators actually generate: the commutant
    of their commutant (_bicommutant). This is the smallest *-algebra with
    unit containing them, so it doubles as a closure operation."""
    return _bicommutant(generators, dim)[1]


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
    stack, _span an orthonormal basis of it (flattened rows), _prime and
    _center its kept commutant and center. The gate forms A_i A_j one GEMM
    per slice of m left by r right factors (r = k unless one left factor
    passes _CHECK_SLICE entries), each residual on the span's smaller side:
    the n^2 - k complement rows if 3k > n^2, else v - (v S^*) S (2k
    rows)."""

    __slots__ = ("dim", "basis", "_span", "_prime", "_center")

    def __init__(self, basis):
        self._admit(as_stack(basis))

    def _admit(self, stack, certified=False):
        """The gates on a read-only complex (k, n, n) stack, less the product
        gate for a basis certified closed. The identity, adjoint and product
        gates run only while k < n^2: a span of n^2 independent matrices is
        M_n, which holds I, every adjoint and every product."""
        k, n, _ = stack.shape
        span, comp = stack.reshape(k, -1), None
        if not certified:
            full = 3 * k > n * n
            _, s, vh = np.linalg.svd(span, full_matrices=full)
            if np.sum(s > NULLSPACE_RTOL * s[0]) < k:
                raise ValueError("basis matrices are linearly dependent")
            span, comp = vh[:k].copy(), vh[k:].conj().T if full else None
        if k < n * n:  # k = n^2 means the span is everything
            scale = max(1.0, _fro_batch(stack).max())
            _gate(_span_residual(span, np.eye(n), comp)[0],
                  DEFAULT_TOL * np.sqrt(n), MissingIdentity)
            _gate(_span_residual(span, stack.conj().mT, comp).max(),
                  DEFAULT_TOL * scale, NotClosedUnderProducts)
        if not certified and k < n * n:
            r = min(k, max(1, _CHECK_SLICE // (n * n)))
            m = max(1, _CHECK_SLICE // (r * n * n))
            worst = np.max([_span_residual(
                span, _products(stack[lo:lo + m], stack[j:j + r]), comp).max()
                for lo in range(0, k, m) for j in range(0, k, r)])
            _gate(worst, DEFAULT_TOL * scale * scale, NotClosedUnderProducts)

        self.dim, self.basis, self._span = n, stack, span
        self._prime = self._center = None

    @classmethod
    def generated_by(cls, generators, dim=None):
        """The algebra A the generators generate, the commutant of their
        commutant A', which it keeps for center and is_factor (_bicommutant).
        A's basis is orthonormal, so it is its own span; it skips the product
        gate when the tied form's beta is within DEFAULT_TOL (scale 1)."""
        prime, basis, beta = _bicommutant(generators, dim)
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
    once and kept; the center is computed once and kept too, and a later
    call returns the same array."""
    if algebra._center is None:
        n, span = algebra.dim, algebra._span
        if algebra._prime is None:
            algebra._prime = commutant(span.reshape(-1, n, n))
        prime = algebra._prime.reshape(-1, n * n)
        x = _kernel((prime - (prime @ span.conj().T) @ span).T)
        algebra._center = _read_only((x @ prime).reshape(-1, n, n))
    return algebra._center


def is_factor(algebra: MatrixStarAlgebra) -> bool:
    """Trivial center, i.e. multiples of the identity only: the center the
    algebra keeps, computed first if no call to center has."""
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
        raise NonCommutingCharges(exc.pair, defect=exc.defect,
                                  bound=exc.bound) from exc
    for idx, Q in enumerate(charge_mats):
        _gate(float(_fro_batch(Q @ obs - obs @ Q).max(initial=0.0)),
              max(tol, SOLVER_TOL) * max(1.0, frobenius(Q)), NonCentralCharge,
              idx)

    offdiag = 0.0
    sectors = []
    for (label, P), (_, B) in zip(joint.atoms, joint.blocks):
        rank = B.shape[1]  # B: isometry onto the sector
        BG = B.conj().T @ obs
        compressed = BG @ B
        # ||P G (I - P)||_F for P = B B^*
        leak = _fro_batch(BG - compressed @ B.conj().T).max(initial=0.0)
        offdiag = max(offdiag, float(leak))
        prime, algebra, _ = _bicommutant(compressed, rank)
        values = tuple(float((B.conj().T @ Q @ B).trace().real) / rank
                       for Q in charge_mats)
        sectors.append(Sector(
            label=label,
            projector=P,
            rank=rank,
            restricted_basis=algebra,
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
