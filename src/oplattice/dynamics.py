"""One-parameter unitary groups and their generators, Heisenberg evolution,
the three-way constant-of-motion equivalence, time-ordered evolution for
time-dependent generators, unitary/antiunitary symmetry operators, and
projective-representation multipliers.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .linalg import (
    ABS_FLOOR,
    FIT_TOL,
    PRODUCT_TOL,
    SOLVER_TOL,
    HermitianOperator,
    Refusal,
    ToleranceFailure,
    UnitaryOperator,
    _fro_batch,
    _gate,
    _hermitian,
    _hermitians,
    as_matrix,
    as_stack,
    frobenius,
    require_same_dim,
    require_unitary,
)
from .spectral import _decompose_stack, atom_sum
from .states import DensityState, _density

MAX_DYSON_ORDER = 12

# Incommensurate times, so a periodic generator cannot fake commutation by
# hitting a revival at every grid point.
DEFAULT_NOETHER_GRID = (0.1, 0.37, 1.0)


class InconsistentGroup(Refusal, ToleranceFailure, ValueError):
    template = ("samples are not consistent with a one-parameter group "
                "(defect {defect:.3e})")


class NotHermitianResult(Refusal, ToleranceFailure, ValueError):
    template = "recovered generator is not Hermitian (defect {defect:.3e})"


class EquivalenceViolation(ToleranceFailure, RuntimeError):
    """The three conservation conditions must agree; disagreement means the
    tolerance budget failed, never a counterexample."""

    def __init__(self, details):
        super().__init__(f"equivalent conditions disagree: {details}")
        self.details = details


class OrderTooLarge(ValueError):
    def __init__(self, order):
        super().__init__(
            f"series order {order} exceeds the supported maximum "
            f"{MAX_DYSON_ORDER}"
        )
        self.order = int(order)


class QuadratureTooCoarse(ValueError):
    def __init__(self, nodes, needed):
        super().__init__(
            f"{nodes} quadrature nodes, need at least {needed} for this "
            "order and generator size"
        )
        self.nodes = int(nodes)
        self.needed = int(needed)


class NotACocycle(Refusal, ToleranceFailure, ValueError):
    template = ("multiplier identity fails on ({0[0]!r}, {0[1]!r}, {0[2]!r}) "
                "with defect {defect:.3e}")
    fields = ("triple",)


class NotUnitModulus(Refusal, ValueError):
    template = "multiplier for ({0!r}, {1!r}) has modulus {2}"


class NotProjective(Refusal, ValueError):
    template = ("operators are not projective on ({0!r}, {1!r}): "
                "defect {defect:.3e}")


def _evolve(ops, times, hbar):
    """exp(-i t H / hbar) for each operator H of a family and each t of its
    entry of times, in order, as one stack: the family decomposed as one
    stack (_decompose_stack), then V exp(-i t Lambda / hbar) V^* on each
    eigenvector factor V, all by one atom_sum."""
    V, d = [], []
    for pvm, t in zip(_decompose_stack(ops), times):
        t = np.asarray(t, dtype=float).reshape(-1)
        phase = np.exp(np.multiply.outer(-1j * t, pvm._labels) / hbar)
        d.append(np.repeat(phase, pvm._factor[2], axis=-1))
        V += [pvm._factor[0]] * len(t)
    return atom_sum(np.reshape(V, (-1, pvm.dim, pvm.dim)), np.concatenate(d))


def evolve_unitary(H, t, hbar=1.0) -> UnitaryOperator:
    """exp(-i t H / hbar) at one time t, unitary to machine precision: one
    eigendecomposition of H and one n x n product on its eigenvector factor."""
    if np.ndim(t):
        raise ValueError(f"t must be one time, got shape {np.shape(t)}")
    return UnitaryOperator(_evolve([H], [t], hbar)[0])


def _commutators(Us, Vs):
    """VU - UV for every pair from two stacks, as one stack."""
    U, V = Us[:, None], Vs[None, :]
    return (V @ U - U @ V).reshape(-1, *Us.shape[1:])


def generator_from_group(samples, hbar=1.0) -> HermitianOperator:
    """Recover H from samples (t, U_t) of U_t = exp(-i t H / hbar).

    Uses the central difference i*hbar*(U_t - U_{-t})/(2t) at the smallest
    sampled pair, Richardson-extrapolated against the half-step pair when
    the stencil contains one. The group law (within SOLVER_TOL) and a full
    reconstruction of the samples (within FIT_TOL) are verified before the
    result is returned.
    """
    table = {float(t): U.matrix if isinstance(U, UnitaryOperator) else U
             for t, U in samples}
    if not table:
        raise ValueError("no samples given")
    stack = as_stack(table.values())
    table = dict(zip(table, stack))
    eye = np.eye(stack.shape[1])

    if 0.0 in table:
        _gate(frobenius(table[0.0] - eye), SOLVER_TOL, InconsistentGroup)

    pos = sorted(t for t in table if t > 0 and -t in table)
    if not pos:
        raise ValueError("samples must bracket 0 with at least one +/-t pair")

    def central(t):
        return 1j * hbar * (table[t] - table[-t]) / (2.0 * t)

    t_full = None
    for t in pos:
        if t / 2.0 in table and -t / 2.0 in table:
            t_full = t
            break
    if t_full is not None:
        # group-law consistency of the stencil itself
        half = table[t_full / 2.0]
        _gate(frobenius(half @ half - table[t_full]), SOLVER_TOL,
              InconsistentGroup)
        D = (4.0 * central(t_full / 2.0) - central(t_full)) / 3.0
    else:
        D = central(pos[0])

    _gate(frobenius(D - D.conj().T), SOLVER_TOL * max(1.0, frobenius(D)),
          NotHermitianResult)
    H = HermitianOperator(D, tol=np.inf)

    recon = require_unitary(_evolve([H], [list(table)], hbar))
    _gate(float(_fro_batch(recon - stack).max()), FIT_TOL, InconsistentGroup)
    return H


def heisenberg_observable(A, H, t, hbar=1.0) -> HermitianOperator:
    """A_t = U_t^{-1} A U_t. The spectrum is untouched."""
    A, H = _hermitians([A, H])
    U = evolve_unitary(H, t, hbar).matrix
    return HermitianOperator(U.conj().T @ A.matrix @ U)


NoetherReport = namedtuple(
    "NoetherReport",
    ["constant_of_motion", "dynamical_symmetry", "h_invariance", "defects"],
)


def noether_check(A, H, t_grid=None, s_grid=None, tol=PRODUCT_TOL,
                  hbar=1.0) -> NoetherReport:
    """Evaluate the three equivalent faces of conservation on finite grids:
    invariance of A under the H-evolution, commutation of the two unitary
    groups, and invariance of H under the A-evolution, held to tol times
    max(1, ||A||_F), 1 and max(1, ||H||_F). The flags must agree; a split
    verdict raises: the equivalence is a theorem, only the tolerance fails."""
    A, H = _hermitians([A, H])
    t_grid = DEFAULT_NOETHER_GRID if t_grid is None else tuple(t_grid)
    s_grid = DEFAULT_NOETHER_GRID if s_grid is None else tuple(s_grid)
    if not t_grid or not s_grid:
        raise ValueError("grids must be nonempty")

    U = require_unitary(_evolve([H, A], [t_grid, s_grid], hbar))
    T, Uh = len(t_grid), U.conj().mT
    Us, Vs = U[:T], U[T:]
    d = _fro_batch(np.concatenate([Uh[:T] @ A.matrix @ Us - A.matrix,
                                   _commutators(Us, Vs),
                                   Vs @ H.matrix @ Uh[T:] - H.matrix]))
    d_const, d_comm, d_inv = np.maximum.reduceat(
        d, [0, T, T + T * len(Vs)]).tolist()

    flags = (d_const <= tol * max(1.0, frobenius(A.matrix)), d_comm <= tol,
             d_inv <= tol * max(1.0, frobenius(H.matrix)))
    defects = {
        "constant_of_motion": d_const,
        "dynamical_symmetry": d_comm,
        "h_invariance": d_inv,
    }
    if len(set(flags)) != 1:
        raise EquivalenceViolation({"flags": flags, "defects": defects,
                                    "tol": tol})
    return NoetherReport(*flags, defects)


def commuting_via_groups(A, B, grid=None, tol=PRODUCT_TOL, hbar=1.0) -> bool:
    """Group-level compatibility test: exp(-itA) and exp(-isB) commute for
    every (t, s) in the grid. Agrees with the spectral-measure test."""
    grid = DEFAULT_NOETHER_GRID if grid is None else tuple(grid)
    U = require_unitary(_evolve([A, B], [grid, grid], hbar))
    worst = _fro_batch(_commutators(U[:len(grid)], U[len(grid):]))
    return float(worst.max(initial=0.0)) <= tol


# --- time-dependent generators --------------------------------------------

def _prepare_grid(samples, t1, t2):
    """(times, generators) from t1 to t2: the samples strictly inside, and
    the samples' linear interpolant at each end. The samples are admitted
    as one stack."""
    samples = list(samples)
    ops = _hermitians(H for _, H in samples)
    pairs = sorted(zip((float(t) for t, _ in samples), ops),
                   key=lambda p: p[0])
    if len(pairs) < 2:
        raise ValueError("need at least two time samples")
    taus = np.array([t for t, _ in pairs])
    if np.any(np.diff(taus) <= 0):
        raise ValueError("sample times must be distinct")
    if t1 > t2:
        raise ValueError(f"t1 {t1} exceeds t2 {t2}")
    if t1 < taus[0] - ABS_FLOOR or t2 > taus[-1] + ABS_FLOOR:
        raise ValueError("samples do not cover the requested interval")
    stack = np.array([A.matrix for _, A in pairs])

    def at(t):
        j = int(np.clip(np.searchsorted(taus, t), 1, len(taus) - 1))
        lo, hi = taus[j - 1], taus[j]
        lam = 0.0 if hi == lo else (t - lo) / (hi - lo)
        return (1.0 - lam) * stack[j - 1] + lam * stack[j]

    inner = (t1 + ABS_FLOOR < taus) & (taus < t2 - ABS_FLOOR)
    return (np.concatenate([[t1], taus[inner], [t2]]),
            np.concatenate([[at(t1)], stack[inner], [at(t2)]]))


def _quadrature_gate(times, stack, order):
    """The node count against (order + 1) * max(1, the integral of ||H(t)||_2
    by trapezoid), the norms from one batched SVD. order does nothing else."""
    if not (1 <= int(order) <= MAX_DYSON_ORDER):
        raise OrderTooLarge(order)
    norms = np.linalg.svd(stack, compute_uv=False).max(axis=-1, initial=0.0)
    budget = float(np.trapezoid(norms, times))
    needed = int(np.ceil((order + 1) * max(1.0, budget)))
    if len(times) < needed:
        raise QuadratureTooCoarse(len(times), needed)


def dyson_evolve(H_samples, t1, t2, order=8, hbar=1.0) -> UnitaryOperator:
    """Ordered evolution for a sampled time-dependent generator.

    Product integral over the sample subintervals: each step exponentiates
    the endpoint average of H exactly, later times composing on the left.
    Unitary by construction; the truncated series lives in dyson_series as
    the independent cross-check. The step generators are decomposed as one
    stack and their exponentials formed by one batched product under one
    unitarity gate; the product runs step by step. order only sets the
    node-count gate (_quadrature_gate): two orders that both pass it give
    the same U, bit for bit.
    """
    times, stack = _prepare_grid(H_samples, float(t1), float(t2))
    _quadrature_gate(times, stack, order)
    steps = _evolve((stack[:-1] + stack[1:]) / 2.0, np.diff(times), hbar)
    U = np.eye(stack.shape[1], dtype=complex)
    for step in require_unitary(steps):
        U = step @ U
    return UnitaryOperator(U)


def dyson_series(H_samples, t1, t2, order=8, hbar=1.0) -> np.ndarray:
    """Truncated time-ordered series, nested integrals done by cumulative
    trapezoid on the sample grid. Not exactly unitary; that is the point of
    keeping it separate from the product integral."""
    times, stack = _prepare_grid(H_samples, float(t1), float(t2))
    _quadrature_gate(times, stack, order)
    m, n = stack.shape[:2]

    total = np.eye(n, dtype=complex)
    phi = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
    for _ in range(int(order)):
        integrand = (-1j / hbar) * np.einsum("tij,tjk->tik", stack, phi)
        nxt = np.zeros_like(phi)
        widths = np.diff(times)
        steps = 0.5 * widths[:, None, None] * (integrand[1:] + integrand[:-1])
        nxt[1:] = np.cumsum(steps, axis=0)
        phi = nxt
        total = total + phi[-1]
    return total


# --- symmetry operators ----------------------------------------------------

class SymmetryOperator:
    """Wigner symmetry in canonical form: a unitary matrix plus a flag, the
    antiunitary case acting as x -> U conj(x)."""

    __slots__ = ("dim", "matrix", "antiunitary")

    def __init__(self, matrix, antiunitary=False):
        U = UnitaryOperator(matrix)
        self.matrix = U.matrix
        self.dim = U.dim
        self.antiunitary = bool(antiunitary)

    def apply(self, vector):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        require_same_dim(v.size, self.dim)
        return self.matrix @ (v.conj() if self.antiunitary else v)

    def compose(self, other):
        """self after other. Conjugation slides past the second factor when
        the first is antiunitary."""
        require_same_dim(self.dim, other.dim)
        inner = other.matrix.conj() if self.antiunitary else other.matrix
        return SymmetryOperator(
            self.matrix @ inner,
            antiunitary=self.antiunitary != other.antiunitary,
        )

    def inverse(self):
        if self.antiunitary:
            return SymmetryOperator(self.matrix.T, antiunitary=True)
        return SymmetryOperator(self.matrix.conj().T)

    def __repr__(self):
        kind = "antiunitary" if self.antiunitary else "unitary"
        return f"SymmetryOperator(dim={self.dim}, {kind})"


def wigner_apply(V: SymmetryOperator, rho: DensityState) -> DensityState:
    """State transport rho -> V rho V^{-1}."""
    rho = _density(rho)
    require_same_dim(V.dim, rho.dim)
    R = rho.matrix.conj() if V.antiunitary else rho.matrix
    return DensityState(V.matrix @ R @ V.matrix.conj().T)


def wigner_apply_observable(V: SymmetryOperator, A) -> HermitianOperator:
    """Observable transport A -> V A V^{-1}; pairs with wigner_apply so that
    expectations are preserved."""
    A = _hermitian(A)
    require_same_dim(V.dim, A.dim)
    M = A.matrix.conj() if V.antiunitary else A.matrix
    return HermitianOperator(V.matrix @ M @ V.matrix.conj().T)


def spectrum_reversal_gap(H) -> float:
    """How far sigma(H) is from being symmetric under negation: the largest
    gap between the sorted spectrum and the sorted negated spectrum. Any
    unitary T with T H T^{-1} = -H needs this to vanish, so a positive gap
    certifies no such T exists (and time reversal must be antiunitary)."""
    w = np.linalg.eigvalsh(_hermitian(H).matrix)
    return float(np.max(np.abs(w + w[::-1])))


# --- projective multipliers -------------------------------------------------

class MultiplierTable:
    """Unit-modulus factors attached to ordered pairs of group elements."""

    __slots__ = ("elements", "omega")

    def __init__(self, elements, omega):
        self.elements = list(elements)
        table = {}
        for g in self.elements:
            for h in self.elements:
                try:
                    z = complex(omega[(g, h)])
                except KeyError:
                    raise ValueError(f"multiplier missing for ({g!r}, {h!r})")
                _gate(abs(abs(z) - 1.0), PRODUCT_TOL, NotUnitModulus, g, h,
                      abs(z))
                table[(g, h)] = z
        self.omega = table

    def __call__(self, g, h):
        return self.omega[(g, h)]


def cocycle_check(table: MultiplierTable, group_mult) -> bool:
    """Associativity constraint on the multipliers, over every triple:
    omega(g1,g2) omega(g1 g2, g3) = omega(g1, g2 g3) omega(g2, g3).
    When an identity element is present the equal-normalization consequence
    omega(g, e) = omega(e, g) is checked as well."""
    els = table.elements
    for g1 in els:
        for g2 in els:
            for g3 in els:
                lhs = table(g1, g2) * table(group_mult(g1, g2), g3)
                rhs = table(g1, group_mult(g2, g3)) * table(g2, g3)
                _gate(abs(lhs - rhs), PRODUCT_TOL, NotACocycle, (g1, g2, g3))
    identity = next((e for e in els if all(
        group_mult(g, e) == g and group_mult(e, g) == g for g in els)), None)
    if identity is not None:
        for g in els:
            _gate(abs(table(g, identity) - table(identity, g)), PRODUCT_TOL,
                  NotACocycle, (g, identity, identity))
    return True


def multipliers_from_operators(elements, group_mult,
                               operators) -> MultiplierTable:
    """Read the multipliers off a concrete projective family:
    U_g U_h = omega(g,h) U_{gh}. Each pair is verified to actually satisfy
    the relation with the extracted phase."""
    stack = as_stack(operators[g] for g in elements)
    mats, dim = dict(zip(elements, stack)), stack.shape[1]
    omega = {}
    for g in elements:
        for h in elements:
            prod = mats[g] @ mats[h]
            target = mats[group_mult(g, h)]
            z = complex(np.trace(prod @ np.linalg.inv(target))) / dim
            z = z / abs(z)
            _gate(frobenius(prod - z * target),
                  SOLVER_TOL * max(1.0, frobenius(target)), NotProjective, g, h)
            omega[(g, h)] = z
    return MultiplierTable(elements, omega)


def phase_fix_one_parameter(samples):
    """Heuristic gauge fixing for a sampled one-parameter projective family:
    fit a single slope c to the unwrapped determinant phases and return the
    rephased family exp(-i c r) V_r together with c. Least squares on
    log-phases; no claim of canonicity."""
    pairs = sorted(((float(r), as_matrix(V)) for r, V in samples),
                   key=lambda p: p[0])
    if len(pairs) < 2:
        raise ValueError("need at least two samples to fit a phase slope")
    rs = np.array([r for r, _ in pairs])
    dim = pairs[0][1].shape[0]
    phases = np.unwrap([float(np.angle(np.linalg.det(V))) for _, V in pairs])
    slope = np.polynomial.polynomial.polyfit(rs, phases, 1)[1]
    c = float(slope) / dim
    fixed = [(r, np.exp(-1j * c * r) * V) for r, V in pairs]
    return c, fixed


# --- spin fixture -----------------------------------------------------------

def su2_fixture(hbar=1.0):
    """Spin one-half generators and their sanity report.

    Returns ([S_x, S_y, S_z], report) with the cyclic commutation residuals,
    the component spectra, a group-law residual for the one-parameter
    subgroups, and the quadratic invariant sum S_x^2 + S_y^2 + S_z^2 with
    its eigendecomposition (a multiple of the identity here).
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    S = [HermitianOperator(hbar / 2.0 * m) for m in (sx, sy, sz)]

    residuals = []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = S[a].matrix @ S[b].matrix - S[b].matrix @ S[a].matrix
        residuals.append(frobenius(comm - 1j * hbar * S[c].matrix))

    spectra = [sorted(np.linalg.eigvalsh(Sk.matrix).tolist()) for Sk in S]

    group_defect = 0.0
    thetas = np.array([0.3, 0.7, 1.1])
    for Sk in S:
        U = require_unitary(_evolve([Sk], [thetas], hbar))
        sums = np.add.outer(thetas, thetas)
        W = require_unitary(_evolve([Sk], [sums], hbar)).reshape(3, 3, 2, 2)
        defect = _fro_batch(U[:, None] @ U[None, :] - W).max()
        group_defect = max(group_defect, float(defect))

    quad = sum(Sk.matrix @ Sk.matrix for Sk in S)
    w, V = np.linalg.eigh(quad)
    report = {
        "commutator_residuals": residuals,
        "spectra": spectra,
        "group_law_defect": group_defect,
        "quadratic_invariant": quad,
        "quadratic_eigenvalues": w,
        "quadratic_eigenvectors": V,
        "expected_invariant_value": 3.0 * hbar * hbar / 4.0,
    }
    return S, report
