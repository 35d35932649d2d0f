"""Density operators and measurement: Born probabilities, expectation and
deviation, collapse, sequential chains, tomographic state recovery, and a
witness that no state is two-valued on the projector lattice.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial

import numpy as np

from .lattice import Projector, _projector, _projectors
from .linalg import (
    ABS_FLOOR,
    DEFAULT_TOL,
    FIT_TOL,
    RANK_RTOL,
    HermitianOperator,
    ToleranceFailure,
    _hermitian,
    eig_hermitian,
    frobenius,
    hermitian_part,
    require_same_dim,
)


class ZeroProbability(ToleranceFailure, ValueError):
    def __init__(self, probability):
        super().__init__(
            f"event probability {probability:.3e} is below the floor; "
            "conditioning on it is undefined"
        )
        self.probability = float(probability)


class UnderdeterminedFrame(ValueError):
    def __init__(self, rank, needed):
        super().__init__(
            f"projector frame spans only {rank} of the {needed} real "
            "dimensions of the Hermitian matrices"
        )
        self.rank = int(rank)
        self.needed = int(needed)


class InconsistentAssignments(ToleranceFailure, ValueError):
    def __init__(self, residual):
        super().__init__(
            f"no density operator reproduces the assignments "
            f"(residual {residual:.3e})"
        )
        self.residual = float(residual)


class WitnessNotFound(ToleranceFailure, RuntimeError):
    def __init__(self, best_probability):
        super().__init__(
            "witness search budget exhausted; best candidate probability "
            f"{best_probability:.3e}"
        )
        self.best_probability = float(best_probability)


class PureStateVector:
    """Unit vector with the global phase fixed: the first component larger
    than ABS_FLOOR in modulus is made real positive, so ray equality is plain
    vector equality."""

    __slots__ = ("dim", "amplitudes")

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > DEFAULT_TOL:
            raise ValueError(
                f"vector norm {norm} is not 1 within {DEFAULT_TOL}")
        v = v / norm
        idx = np.flatnonzero(np.abs(v) > ABS_FLOOR)
        lead = v[idx[0]]
        v = v * (lead.conj() / abs(lead))
        self.amplitudes = v
        self.amplitudes.setflags(write=False)
        self.dim = v.size

    @classmethod
    def normalized(cls, vector):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / norm)

    def __repr__(self):
        return f"PureStateVector(dim={self.dim})"


class DensityState:
    """Positive unit-trace operator."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix, tol=DEFAULT_TOL):
        M = hermitian_part(matrix, tol)
        eigmin = float(np.linalg.eigvalsh(M)[0])
        if eigmin < -tol:
            raise ValueError(f"density matrix has eigenvalue {eigmin:.3e} < 0")
        tr = float(M.trace().real)
        if abs(tr - 1.0) > tol:
            raise ValueError(f"density matrix trace {tr} is not 1")
        self.matrix = M
        self.matrix.setflags(write=False)
        self.dim = M.shape[0]

    @classmethod
    def from_vector(cls, psi):
        if not isinstance(psi, PureStateVector):
            psi = PureStateVector(psi)
        v = psi.amplitudes
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim) / dim)

    def __repr__(self):
        return f"DensityState(dim={self.dim})"


def _density(rho) -> DensityState:
    """rho if it is already admitted, else rho admitted at DEFAULT_TOL."""
    return rho if isinstance(rho, DensityState) else DensityState(rho)


def _matched(rho, admitted):
    """The matrices of rho, admitted by _density, and of an admitted
    operator, once their dims agree."""
    rho = _density(rho)
    require_same_dim(rho.dim, admitted.dim)
    return rho.matrix, admitted.matrix


def born_probability(rho: DensityState, P, tol=DEFAULT_TOL) -> float:
    """tr(rho P), clamped to [0, 1] after checking it is within tol of it;
    a raw P is admitted as a Projector at tol."""
    R, M = _matched(rho, _projector(P, tol))
    p = float((R @ M).trace().real)
    if p < -tol or p > 1.0 + tol:
        raise ValueError(f"probability {p} outside [0,1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def expectation(rho: DensityState, A) -> float:
    R, M = _matched(rho, _hermitian(A))
    return float((R @ M).trace().real)


def std_deviation(rho: DensityState, A) -> float:
    """sqrt(<A^2> - <A>^2); the radicand is clamped to 0 when within
    -DEFAULT_TOL."""
    R, M = _matched(rho, _hermitian(A))
    mean = float((R @ M).trace().real)
    second = float((R @ M @ M).trace().real)
    radicand = second - mean * mean
    if radicand < -DEFAULT_TOL:
        raise ValueError(f"variance came out {radicand:.3e} < 0")
    return float(np.sqrt(max(radicand, 0.0)))


def luders_collapse(rho: DensityState, P) -> DensityState:
    """Post-measurement state P rho P / tr(rho P)."""
    R, M = _matched(rho, _projector(P))
    p = float((R @ M).trace().real)
    if p <= ABS_FLOOR:
        raise ZeroProbability(p)
    return DensityState(M @ R @ M.conj().T / p)


SequentialProbability = namedtuple(
    "SequentialProbability", ["value", "reversed_value"]
)


def _chain_probability(rho, mats):
    acc = mats[0]
    for M in mats[1:]:
        acc = M @ acc
    p = float((acc @ rho.matrix @ acc.conj().T).trace().real)
    return min(max(p, 0.0), 1.0)


def sequential_probability(rho: DensityState, chain) -> SequentialProbability:
    """Probability of a chain of outcomes measured first-to-last:
    tr(Pn ... P1 rho P1 ... Pn). The reversed-order value rides along, since
    for non-commuting chains the order matters."""
    rho = _density(rho)
    mats = [_matched(rho, _projector(P))[1] for P in chain]
    if not mats:
        raise ValueError("empty measurement chain")
    return SequentialProbability(
        _chain_probability(rho, mats),
        _chain_probability(rho, mats[::-1]),
    )


def conditional_probability(rho: DensityState, target, given) -> float:
    """Probability of target right after given succeeded: the two-step
    sequential probability divided by the probability of the condition."""
    rho, given, target = _density(rho), _projector(given), _projector(target)
    p_given = born_probability(rho, given)
    if p_given <= ABS_FLOOR:
        raise ZeroProbability(p_given)
    joint = sequential_probability(rho, [given, target]).value
    return joint / p_given


def transition_probability(psi: PureStateVector, phi: PureStateVector) -> float:
    require_same_dim(psi.dim, phi.dim)
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)


def is_pure(rho: DensityState) -> bool:
    """Extremality test rho^2 = rho."""
    R = _density(rho).matrix
    return frobenius(R @ R - R) <= DEFAULT_TOL


def purity(rho: DensityState) -> float:
    R = _density(rho).matrix
    return float((R @ R).trace().real)


# --- tomography -----------------------------------------------------------

# the pairs (j, k), j < k, of an n x n upper triangle in row-major order
_upper_pairs = lru_cache(maxsize=64)(partial(np.triu_indices, k=1))


def tomography_frame(dim) -> list:
    """The standard informationally complete rank-1 family: basis rays e_j,
    then (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2 for j < k. Exactly dim^2
    projectors, in a fixed deterministic order, checked as one stack."""
    eye = np.eye(dim)
    j, k = _upper_pairs(dim)
    rays = np.concatenate([eye, (eye[j] + eye[k]) / np.sqrt(2.0),
                           (eye[j] + 1j * eye[k]) / np.sqrt(2.0)])
    return _projectors(rays[:, :, None] * rays.conj()[:, None, :])


def _herm_coordinates(stack):
    """Design matrix of a (k, n, n) stack: row r holds the real coefficients
    with tr(T P_r) = row . theta, where theta is the real parametrization of
    Hermitian T: diagonal entries, then Re and Im of the upper triangle."""
    n = stack.shape[-1]
    j, k = _upper_pairs(n)
    return np.hstack([stack[:, range(n), range(n)].real,
                      2.0 * stack[:, k, j].real, -2.0 * stack[:, k, j].imag])


def _herm_from_coordinates(theta, n):
    j, k = _upper_pairs(n)
    T = np.diag(np.asarray(theta[:n], dtype=complex))
    T[j, k] = theta[n:n + j.size] + 1j * theta[n + j.size:]
    T[k, j] = T[j, k].conj()
    return T


GleasonFit = namedtuple(
    "GleasonFit", ["state", "residual", "frame_rank", "dim_two_warning"]
)


def gleason_fit(assignments) -> GleasonFit:
    """Recover the density operator behind projector-probability assignments.

    Linear least squares on the n^2 real parameters of a Hermitian matrix,
    then projection to the positive unit-trace set by eigenvalue clipping.
    The frame must be informationally complete (design-matrix rank n^2).
    The probability assignment on rays determines the state only from
    dimension 3 up, so dimension 2 is flagged in the result.
    """
    pairs = [(_projector(P), float(p)) for P, p in assignments]
    if not pairs:
        raise ValueError("no assignments given")
    n = require_same_dim(*(P.dim for P, _ in pairs))
    stack = np.array([P.matrix for P, _ in pairs])
    needed = n * n
    design = _herm_coordinates(stack)
    probs = np.array([p for _, p in pairs])
    theta, _, _, sing = np.linalg.lstsq(design, probs, rcond=None)
    rank = int(np.sum(sing > RANK_RTOL * max(1.0, n)))
    if rank < needed:
        raise UnderdeterminedFrame(rank, needed)
    T = _herm_from_coordinates(theta, n)

    w, v = np.linalg.eigh(T)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= ABS_FLOOR:
        raise InconsistentAssignments(1.0)
    T = (v * (w / total)) @ v.conj().T

    residual = float(np.abs(
        np.trace(T @ stack, axis1=1, axis2=2).real - probs).max())
    if residual > FIT_TOL:
        raise InconsistentAssignments(residual)
    return GleasonFit(DensityState(T), residual, rank, n == 2)


def kochen_specker_witness(rho: DensityState, delta=0.01, seed=42,
                           max_tries=500) -> Projector:
    """A rank-1 projector P with delta <= tr(rho P) <= 1 - delta, certifying
    that the state is not a two-valued (0/1) assignment.

    Deterministic first candidate: the normalized sum of the top and bottom
    eigenvectors; falls back to a seeded random search over the eigenbasis.
    """
    rho = _density(rho)
    if rho.dim < 3:
        raise ValueError("two-valuedness is only excluded from dimension 3 up")
    es = eig_hermitian(HermitianOperator(rho.matrix))
    V = es.eigenvectors

    def probe(u):
        u = u / np.linalg.norm(u)
        P = Projector(np.outer(u, u.conj()))
        return P, float((rho.matrix @ P.matrix).trace().real)

    P, p = probe(V[:, -1] + V[:, 0])
    if delta <= p <= 1.0 - delta:
        return P

    rng = np.random.default_rng(seed)
    best_gap, best_p = None, p
    for _ in range(int(max_tries)):
        coeff = rng.standard_normal(rho.dim) + 1j * rng.standard_normal(rho.dim)
        P, p = probe(V @ coeff)
        if delta <= p <= 1.0 - delta:
            return P
        gap = max(delta - p, p - (1.0 - delta))
        if best_gap is None or gap < best_gap:
            best_gap, best_p = gap, p
    raise WitnessNotFound(best_p)
