"""One-parameter groups, conservation checks, time-ordered products,
symmetry operators, and multiplier bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oplattice.cli
import oplattice.dynamics
import oplattice.linalg
import oplattice.spectral
from oplattice import (
    BranchCut,
    DensityState,
    EquivalenceViolation,
    HermitianOperator,
    InconsistentGroup,
    MultiplierTable,
    NotACocycle,
    NotUnitary,
    OrderTooLarge,
    PureStateVector,
    QuadratureTooCoarse,
    SymmetryOperator,
    born_probability,
    cocycle_check,
    commuting_via_groups,
    dyson_evolve,
    dyson_series,
    evolve_unitary,
    frobenius,
    func_calculus,
    generator_from_group,
    heisenberg_observable,
    joint_pvm,
    multipliers_from_operators,
    noether_check,
    operator_norm,
    phase_fix_one_parameter,
    pvm_commute,
    spectral_decompose,
    spectrum_reversal_gap,
    su2_fixture,
    transition_probability,
    wigner_apply,
    wigner_apply_observable,
)
from oplattice.dynamics import _evolve, _unitarity_bound
from oplattice.linalg import (
    DEFAULT_TOL,
    SOLVER_TOL,
    _fro_batch,
    _unitarity_tol,
    dumps,
)
from oplattice.spectral import _decompose_stack, _factor_residuals

from oracles import (expm_oracle, generator_by_central_difference,
                     spin_precession_x)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_evolution_of_sigma_z_is_diagonal_phases():
    U = evolve_unitary(SZ, 0.4).matrix
    np.testing.assert_allclose(
        U, np.diag([np.exp(-0.4j), np.exp(0.4j)]), atol=1e-14)
    U2 = evolve_unitary(SZ, 0.4, hbar=2.0).matrix
    np.testing.assert_allclose(
        U2, np.diag([np.exp(-0.2j), np.exp(0.2j)]), atol=1e-14)


def test_evolution_matches_expm_and_group_law():
    rng = np.random.default_rng(19)
    for _ in range(10):
        H = random_hermitian(rng, int(rng.integers(2, 7)))
        t, s = rng.uniform(-2, 2, size=2)
        Ut = evolve_unitary(H, t).matrix
        assert frobenius(Ut - expm_oracle(-1j * t * H)) <= 1e-10
        Us = evolve_unitary(H, s).matrix
        Uts = evolve_unitary(H, t + s).matrix
        assert frobenius(Ut @ Us - Uts) <= 1e-10


def test_generator_recovery_from_default_stencil():
    rng = np.random.default_rng(43)
    H = random_hermitian(rng, 5)
    H *= 10.0 / operator_norm(H)
    samples = [(t, evolve_unitary(H, t).matrix)
               for t in (1e-3, 5e-4, -5e-4, -1e-3)]
    got = generator_from_group(samples)
    assert frobenius(got.matrix - H) <= 1e-6


def test_generator_recovery_rejects_corrupted_sample():
    H = SZ
    samples = {t: evolve_unitary(H, t).matrix
               for t in (1e-3, 5e-4, -5e-4, -1e-3)}
    samples[1e-3] = samples[1e-3] @ expm_oracle(-0.1j * SZ)
    with pytest.raises(InconsistentGroup):
        generator_from_group(samples.items())
    with pytest.raises(ValueError):
        generator_from_group([(1e-3, evolve_unitary(H, 1e-3).matrix)])


@settings(max_examples=40, deadline=None)
@example(n=32, k=-200, log_phi=-6.0, by_expm=False, hbar=1.0, seed=0)
@example(n=32, k=200, log_phi=-6.0, by_expm=True, hbar=3.0, seed=1)
@example(n=32, k=0, log_phi=float(np.log10(3.0)), by_expm=False, hbar=1.0,
         seed=2)
@given(n=st.integers(1, 32), k=st.integers(-200, 200),
       log_phi=st.floats(-6.0, float(np.log10(3.0))), by_expm=st.booleans(),
       hbar=st.sampled_from([1.0, 0.25, 3.0]), seed=st.integers(0, 2**32 - 1))
def test_generator_is_the_logarithm_of_exact_samples(n, k, log_phi, by_expm,
                                                     hbar, seed):
    """Complex H with ||H||_2 near 2^k and phi = t ||H||_2 / hbar = 10^log_phi,
    sampled exactly, by eigh or by expm: the pair (+/-t), the set (+/-t,
    +/-t/2, 0) and, while phi <= 1e-2, (+/-t, +/-1e5 t) are admitted, and H
    comes back within the docstring's rounding bound."""
    M = random_hermitian(np.random.default_rng(seed), n)
    M = M / np.linalg.norm(M, 2) * 2.0 ** k
    phi = 10.0 ** log_phi
    t = phi * hbar / np.linalg.norm(M, 2)
    w, V = np.linalg.eigh(M)

    def sample(s):
        if by_expm:
            return s, expm_oracle((-1j * s / hbar) * M)
        return s, (V * np.exp((-1j * s / hbar) * w)) @ V.conj().T

    sets = [(t, -t), (t, -t, t / 2, -t / 2, 0.0)]
    if phi <= 1e-2:
        sets.append((t, -t, 1e5 * t, -1e5 * t))
    bound = 2.0 ** -48 * n * (hbar / t) / math.cos(phi / 2.0) ** 2
    for times in sets:
        got = generator_from_group(map(sample, times), hbar).matrix
        assert frobenius(got - M) <= bound


def test_small_exact_pair_of_sigma_z_is_admitted():
    U = np.diag(np.exp([-0.03j, 0.03j]))
    got = generator_from_group([(0.03, U), (-0.03, U.conj())])
    assert frobenius(got.matrix - SZ) <= 1e-14


def test_generator_matches_the_central_difference_at_small_times():
    rng = np.random.default_rng(47)
    for n, phi in ((2, 1e-3), (5, 1e-4), (12, 1e-3), (12, 3e-5)):
        H = random_hermitian(rng, n)
        H /= operator_norm(H)
        samples = [(t, evolve_unitary(H, t).matrix)
                   for t in (phi, phi / 2, -phi / 2, -phi)]
        got = generator_from_group(samples).matrix
        assert frobenius(got - generator_by_central_difference(
            samples)) <= 1e-9


def test_generator_refuses_samples_of_no_single_group():
    rng = np.random.default_rng(53)
    H, K = random_hermitian(rng, 4), random_hermitian(rng, 4)

    def U(A, t):
        return evolve_unitary(A, t).matrix

    cases = [
        # two generators
        [(0.1, U(H, 0.1)), (-0.1, U(H, -0.1)), (0.05, U(K, 0.05))],
        # one time relabelled
        [(0.1, U(H, 0.1)), (-0.1, U(H, -0.1)), (0.4, U(H, 0.5))],
        # a repeated time with a contradicting matrix, either one first
        [(0.01, np.eye(4)), (0.01, U(H, 0.01)), (-0.01, U(H, -0.01))],
        [(0.01, U(H, 0.01)), (0.01, np.eye(4)), (-0.01, U(H, -0.01))],
    ]
    for samples in cases:
        with pytest.raises(InconsistentGroup) as exc:
            generator_from_group(samples)
        assert not isinstance(exc.value, BranchCut)


def test_generator_refuses_a_sample_on_the_branch_cut():
    W = np.linalg.qr(np.random.default_rng(59).standard_normal(
        (3, 6)).view(complex))[0]
    assert issubclass(BranchCut, InconsistentGroup)
    for last in (np.pi, np.pi - 1e-9):
        U = (W * np.exp(1j * np.array([0.2, 1.0, last]))) @ W.conj().T
        with pytest.raises(BranchCut, match="logarithm is not unique") as exc:
            generator_from_group([(1.0, U), (-1.0, U.conj().T)])
        assert exc.value.defect > 1e8
    # -I exactly: I + U is singular
    with pytest.raises(BranchCut) as exc:
        generator_from_group([(1.0, -I2), (-1.0, -I2)])
    assert exc.value.defect == math.inf


def test_heisenberg_picture_precession_matches_closed_form():
    for t in (0.0, 0.3, 1.1, 2.5):
        got = heisenberg_observable(SX, SZ, t).matrix
        assert frobenius(got - spin_precession_x(t)) <= 1e-12


def test_heisenberg_picture_preserves_spectrum_and_fixes_h():
    rng = np.random.default_rng(47)
    H = random_hermitian(rng, 4)
    A = random_hermitian(rng, 4)
    At = heisenberg_observable(A, H, 0.9).matrix
    np.testing.assert_allclose(
        np.linalg.eigvalsh(At), np.linalg.eigvalsh(A), atol=1e-10)
    Ht = heisenberg_observable(H, H, 1.7).matrix
    assert frobenius(Ht - H) <= 1e-10


def test_conservation_flags_all_true_for_function_of_h():
    rng = np.random.default_rng(53)
    H = random_hermitian(rng, 5)
    A = H @ H - 0.3 * H + 0.7 * np.eye(5)
    rep = noether_check(A, H)
    assert rep.constant_of_motion and rep.dynamical_symmetry and rep.h_invariance
    assert max(rep.defects.values()) <= 1e-9


def test_conservation_flags_all_false_for_pauli_pair():
    rep = noether_check(SX, SZ)
    assert not (rep.constant_of_motion or rep.dynamical_symmetry
                or rep.h_invariance)
    assert min(rep.defects.values()) > 1e-3


def test_split_verdict_raises():
    # a tolerance placed inside the spread of the three defects, each over
    # the scale it is held to, forces a split
    rng = np.random.default_rng(59)
    H = random_hermitian(rng, 4)
    A = H @ H + 1e-7 * random_hermitian(rng, 4)
    rep_defects = noether_check(A, H, tol=np.inf).defects
    vals = sorted([
        rep_defects["constant_of_motion"] / max(1.0, frobenius(A)),
        rep_defects["dynamical_symmetry"],
        rep_defects["h_invariance"] / max(1.0, frobenius(H))])
    if vals[0] < vals[-1]:  # generic; split the flags between the extremes
        with pytest.raises(EquivalenceViolation):
            noether_check(A, H, tol=(vals[0] + vals[-1]) / 2.0)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 60), scale_h=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_noether_verdict_does_not_depend_on_units(k, scale_h, seed):
    """A or H times s = 2^k (exact): a conserved pair passes all three faces
    and a non-conserved A fails all three, at every scale. The constant of
    motion and H-invariance defects grow with ||A|| and ||H||; held to an
    absolute tol, 1e6 H^2 and H split the verdict."""
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, 4)
    s = 2.0 ** k
    for A, conserved in ((H @ H, True), (random_hermitian(rng, 4), False)):
        rep = (noether_check(A, s * H) if scale_h
               else noether_check(s * A, H))
        flags = (rep.constant_of_motion, rep.dynamical_symmetry,
                 rep.h_invariance)
        assert flags == (conserved,) * 3, rep.defects


@pytest.mark.parametrize("k", [200, 530, 600, 1000])
@pytest.mark.parametrize("scale_h", [False, True])
def test_noether_verdict_holds_where_squared_entries_overflow(k, scale_h):
    """A or H times 2^k, where the squares of the entries pass the largest
    double: each defect is a finite norm, taken again on its matrix over
    a power of two, with no warning. A conserved pair passes every face
    and a non-conserved A fails every face; before, the inf defect of a
    non-conserved 2^530 A passed its inf threshold and split the verdict."""
    rng = np.random.default_rng(k)
    H = random_hermitian(rng, 4)
    s = 2.0 ** k
    for A, conserved in ((H @ H, True), (random_hermitian(rng, 4), False)):
        rep = (noether_check(A, s * H) if scale_h
               else noether_check(s * A, H))
        flags = (rep.constant_of_motion, rep.dynamical_symmetry,
                 rep.h_invariance)
        assert flags == (conserved,) * 3, rep.defects
        assert all(np.isfinite(d) for d in rep.defects.values())


def test_noether_passes_a_conserved_pair_whose_residuals_are_subnormal():
    """A = H^2 and H, both times 2^-1000: the inputs are normal, but the
    defects are norms of subnormal residuals, taken over a subnormal power
    of two. Every face passes with a finite defect and no warning."""
    H = random_hermitian(np.random.default_rng(7), 4)
    s = 2.0 ** -1000
    rep = noether_check(s * H @ H, s * H)
    assert (rep.constant_of_motion, rep.dynamical_symmetry,
            rep.h_invariance) == (True,) * 3, rep.defects
    assert all(np.isfinite(d) for d in rep.defects.values())


def test_group_commutation_matches_spectral_test():
    rng = np.random.default_rng(61)
    A = random_hermitian(rng, 4)
    B = A @ A - 2.0 * A
    assert commuting_via_groups(A, B)
    assert pvm_commute(spectral_decompose(A), spectral_decompose(B))
    assert not commuting_via_groups(SX, SZ)


def _count_decompositions(monkeypatch):
    calls = []
    solve = oplattice.spectral.eig_hermitian

    def counted(A):  # one entry per operator, a list counting each
        calls.extend(A if isinstance(A, list) else [A])
        return solve(A)

    monkeypatch.setattr(oplattice.spectral, "eig_hermitian", counted)
    return calls


def test_group_checks_decompose_each_operator_once(monkeypatch):
    rng = np.random.default_rng(71)
    H = random_hermitian(rng, 5)
    A = H @ H
    samples = [(t, evolve_unitary(H, t).matrix)
               for t in (1e-3, 5e-4, -5e-4, -1e-3)]
    calls = _count_decompositions(monkeypatch)
    for run, distinct in ((lambda: noether_check(A, H), 2),
                          (lambda: noether_check(SX, SZ), 2),
                          (lambda: commuting_via_groups(A, H), 2),
                          (lambda: commuting_via_groups(SX, SZ), 2),
                          (lambda: generator_from_group(samples), 1),
                          (lambda: su2_fixture(), 3)):
        calls.clear()
        run()
        assert len(calls) == distinct


def test_admitted_operators_are_decomposed_once(monkeypatch):
    rng = np.random.default_rng(73)
    H = random_hermitian(rng, 5)
    mats = (H, random_hermitian(rng, 5), H @ H - 2.0 * H)
    calls = _count_decompositions(monkeypatch)
    for run, distinct in (
            (lambda H, A, K: (evolve_unitary(H, 0.3),
                              evolve_unitary(H, 0.15)), 1),
            (lambda H, A, K: (heisenberg_observable(A, H, 0.3),
                              heisenberg_observable(A, H, 0.3)), 1),
            (lambda H, A, K: (spectral_decompose(H),
                              func_calculus(H, np.exp)), 1),
            (lambda H, A, K: (spectral_decompose(H), joint_pvm([H, K])), 2),
            # another cluster_tol decomposes afresh and keeps nothing
            (lambda H, A, K: (spectral_decompose(H),
                              spectral_decompose(H, cluster_tol=0.0),
                              spectral_decompose(H, cluster_tol=0.0),
                              spectral_decompose(H)), 3)):
        calls.clear()
        run(*(HermitianOperator(M) for M in mats))
        assert len(calls) == distinct


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 24), scale=st.floats(1e-3, 30.0),
       t=st.floats(-3.0, 3.0), s=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_evolution_of_complex_generators_matches_expm_and_group_law(
        n, scale, t, s, seed):
    M = scale * random_hermitian(np.random.default_rng(seed), n)
    H = HermitianOperator(M)
    Ut, Us, Uts = (evolve_unitary(H, x).matrix for x in (t, s, t + s))
    # eigenvalues carry about eps * ||M|| error, which t turns into phase
    norm = operator_norm(M)
    assert frobenius(Ut - expm_oracle(-1j * t * M)) <= 1e-14 * n * max(
        1.0, abs(t) * norm)
    assert frobenius(Ut @ Us - Uts) <= 1e-14 * n * max(
        1.0, (abs(t) + abs(s)) * norm)
    # H kept its factor; a freshly admitted copy gives the same bits
    for x, U in ((t, Ut), (s, Us), (t + s, Uts)):
        assert np.array_equal(U, evolve_unitary(HermitianOperator(M), x).matrix)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_group_grids_keep_the_unitarity_gate():
    # exp(-i t H) overflows to NaN at t = 1e308; the gate refuses it
    H = 2.0 * SZ
    with pytest.raises(NotUnitary):
        noether_check(SX, H, t_grid=(0.1, 1e308))
    with pytest.raises(NotUnitary):
        commuting_via_groups(SX, H, grid=(1e308,))


def _evolve_as_before(ops, times, hbar):
    """(stack, phases): _evolve's stack as it was formed before its
    certificate, each factor repeated per time and one product over the
    whole stack, and each operator's phases."""
    V, d, phases = [], [], []
    for pvm, t in zip(_decompose_stack(ops), times):
        t = np.asarray(t, dtype=float).reshape(-1)
        phases.append(np.exp(np.multiply.outer(-1j * t, pvm._labels) / hbar))
        d.append(np.repeat(phases[-1], pvm._factor[2], axis=-1))
        V += [pvm._factor[0]] * len(t)
    V, d = np.reshape(V, (-1, pvm.dim, pvm.dim)), np.concatenate(d)
    return (V * d[..., None, :]) @ V.conj().mT, phases


@st.composite
def _families(draw):
    """(ops, times, hbar): one or two complex Hermitian 2^k U diag(w) U^* of
    one dimension n <= 64, |k| <= 200, with generic levels in [-1, 1] or
    levels clustered within SOLVER_TOL times the spread; one to three times
    of modulus 1e-6 to 1e6 per operator, and hbar != 1."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops, times = [], []
    for _ in range(draw(st.integers(1, 2))):
        w = rng.uniform(-1.0, 1.0, n)
        if draw(st.booleans()):
            w = rng.choice(w[:max(1, n // 3)], n) + rng.uniform(
                -0.4, 0.4, n) * SOLVER_TOL * np.ptp(w)
        U = np.linalg.qr(rng.standard_normal((n, 2 * n)).view(complex))[0]
        k = draw(st.integers(-200, 200))
        ops.append(HermitianOperator(2.0 ** k * (U * w) @ U.conj().T))
        times.append([s * 10.0 ** x for s, x in draw(st.lists(st.tuples(
            st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)),
            min_size=1, max_size=3))])
    hbar = draw(st.floats(1e-3, 1e3).filter(lambda h: h != 1.0))
    return ops, times, hbar


@settings(max_examples=60, deadline=None)
@given(family=_families())
def test_certificate_bounds_every_evolved_unitary(family):
    """_evolve's certificate, read off the factors' completeness and the
    phases, bounds the dense ||U^*U - I||_F of every U it returns and admits
    each within require_unitary's threshold; U keeps its bits."""
    ops, times, hbar = family
    U = _evolve(ops, times, hbar)
    before, phases = _evolve_as_before(ops, times, hbar)
    assert U.tobytes() == before.tobytes()
    n = U.shape[-1]
    e = max(pvm._residuals["completeness"] for pvm in _decompose_stack(ops))
    f = sum(float(np.abs(np.abs(d) - 1.0).max()) for d in phases)
    bound = _unitarity_bound(e, f, n)
    dense = _fro_batch(U.conj().mT @ U - np.eye(n))
    assert dense.max() <= bound <= _unitarity_tol(n)


_PHASES_NOT_FINITE = [(np.inf, 1.0), (-np.inf, 1.0), (np.nan, 1.0),
                      (1e308, 1.0), (-1e308, 1.0), (1e300, 1e-10),
                      (1.0, np.nan), (1.0, 1e-308), (1.0, 0.0)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("t, hbar", _PHASES_NOT_FINITE)
def test_a_phase_that_is_not_finite_is_refused_as_before(t, hbar):
    """A t or hbar that is not finite, or that overflows the phase, makes
    the phases NaN; the certificate then vouches for nothing, and each call
    refuses with the exception and text of the dense check it made before."""
    H = 2.0 * SZ
    with pytest.raises(ValueError) as exc:
        evolve_unitary(H, t, hbar)
    assert (type(exc.value), str(exc.value)) == (
        ValueError, "matrix contains non-finite entries")
    for call in (lambda: noether_check(SX, H, t_grid=(0.1, t), hbar=hbar),
                 lambda: commuting_via_groups(SX, H, grid=(t,), hbar=hbar)):
        with pytest.raises(NotUnitary) as exc:
            call()
        assert str(exc.value) == "unitarity defect nan exceeds tolerance"


@pytest.mark.parametrize("hbar", [np.inf, -np.inf])
def test_an_infinite_hbar_is_admitted_as_before(hbar):
    """-i t lambda / hbar is 0 at an infinite hbar: every phase is 1."""
    assert np.allclose(evolve_unitary(SX, 0.5, hbar).matrix, I2, atol=1e-15)
    assert all(noether_check(SX, SZ, hbar=hbar)[:3])
    assert commuting_via_groups(SX, SZ, hbar=hbar)


def test_a_factor_past_the_certificate_goes_to_the_dense_check():
    """A kept factor scaled by 1 + 3e-11 passes the factor gate (||V^*V -
    I||_F = 8.5e-11) while its unitaries miss require_unitary's threshold
    (||U^*U - I||_F = 1.7e-10 > 1.41e-10): the certificate does not admit
    them, and the dense check refuses them."""
    H = HermitianOperator(random_hermitian(np.random.default_rng(89), 2))
    spectral_decompose(H)  # H keeps its factor
    labels, (V, starts, ranks), _ = H._spectral
    V = V * (1.0 + 3e-11)
    report = _factor_residuals(V[None].copy(), [starts])[0]
    assert report["completeness"] <= DEFAULT_TOL
    H._spectral = labels, (V, starts, ranks), report
    for call in (lambda: evolve_unitary(H, 0.3),
                 lambda: noether_check(SX, H),
                 lambda: commuting_via_groups(SX, H)):
        with pytest.raises(NotUnitary):
            call()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_certified_unitaries_do_not_reach_the_dense_check(monkeypatch,
                                                          tmp_path):
    """require_unitary, recorded wherever it is called, is not reached by
    the group computations on generic input, the CLI's evolve included;
    dyson_evolve checks its final product alone, and an overflowing phase
    still goes to the dense check."""
    reached, check = [], oplattice.linalg.require_unitary

    def recorded(M):
        reached.append(M.shape)
        return check(M)

    for module in (oplattice.linalg, oplattice.dynamics):
        monkeypatch.setattr(module, "require_unitary", recorded)
    rng = np.random.default_rng(97)
    H = random_hermitian(rng, 5)
    A = H @ H
    samples = [(t, evolve_unitary(H, t))
               for t in (1e-3, 5e-4, 0.0, -5e-4, -1e-3)]
    heisenberg_observable(A, H, 0.3)
    assert all(noether_check(A, H)[:3]) and commuting_via_groups(A, H)
    generator_from_group(samples)
    su2_fixture()
    path = tmp_path / "h.json"
    path.write_text(dumps(H))
    assert oplattice.cli.run(["evolve", "--hamiltonian", str(path), "--t",
                              "0.4", "--out", str(tmp_path / "u.json")]) == 0
    assert reached == []
    taus = np.linspace(0.0, 1.0, 40)
    dyson_evolve([(t, 0.3 * SZ + np.sin(2.0 * t) * SX) for t in taus],
                 0.1, 0.9)
    assert reached == [(2, 2)]
    with pytest.raises(NotUnitary):
        noether_check(SX, 2.0 * SZ, t_grid=(0.1, 1e308))
    assert reached == [(2, 2), (5, 2, 2)]


def test_time_ordered_commuting_family_closed_form():
    # H(tau) = (1 + tau^2/2) sz integrates to (7/6) sz over [0, 1]
    taus = np.linspace(0.0, 1.0, 401)
    samples = [(t, (1 + t * t / 2) * SZ) for t in taus]
    U = dyson_evolve(samples, 0.0, 1.0, order=8)
    ref = evolve_unitary(SZ, 7.0 / 6.0).matrix
    assert frobenius(U.matrix - ref) <= 1e-6


def test_time_ordered_constant_generator_reduces_to_exponential():
    rng = np.random.default_rng(67)
    H = random_hermitian(rng, 3)
    tgrid = np.linspace(0.2, 1.4, 51)
    U = dyson_evolve([(t, H) for t in tgrid], 0.2, 1.4, order=8)
    assert frobenius(U.matrix - evolve_unitary(H, 1.2).matrix) <= 1e-12


def noncommuting_drive(nodes=101, hi=0.45):
    taus = np.linspace(0.0, hi, nodes)
    return [(t, SZ + t * SX) for t in taus], hi


def test_series_self_convergence_on_noncommuting_drive():
    samples, hi = noncommuting_drive()
    S8 = dyson_series(samples, 0.0, hi, order=8)
    S10 = dyson_series(samples, 0.0, hi, order=10)
    assert frobenius(S8 - S10) <= 1e-8


def test_series_tracks_product_integral():
    samples, hi = noncommuting_drive()
    S8 = dyson_series(samples, 0.0, hi, order=8)
    U = dyson_evolve(samples, 0.0, hi, order=8)
    assert frobenius(U.matrix - S8) <= 2e-5
    assert frobenius(U.matrix.conj().T @ U.matrix - I2) <= 1e-12


def test_time_ordered_input_gates():
    samples, hi = noncommuting_drive()
    with pytest.raises(OrderTooLarge):
        dyson_evolve(samples, 0.0, hi, order=13)
    with pytest.raises(OrderTooLarge):
        dyson_series(samples, 0.0, hi, order=0)
    with pytest.raises(ValueError):
        dyson_evolve(samples, 0.0, 2.0 * hi, order=8)  # outside the samples
    with pytest.raises(ValueError):
        dyson_evolve(samples, hi, 0.0, order=8)  # reversed interval
    sparse = [(t, 10.0 * SZ) for t in np.linspace(0.0, 1.0, 5)]
    with pytest.raises(QuadratureTooCoarse):
        dyson_evolve(sparse, 0.0, 1.0, order=8)


def test_time_ordered_evolution_refuses_non_finite_times(monkeypatch):
    """A NaN or infinite t1, t2 or sample time is named before any SVD."""
    samples, hi = noncommuting_drive()

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD reached")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    late = samples[:-1] + [(np.inf, samples[-1][1])]
    for run in (dyson_evolve, dyson_series):
        for name, args in (("t1", (samples, np.nan, hi)),
                           ("t2", (samples, 0.0, np.inf)),
                           ("sample time", (late, 0.0, hi))):
            with pytest.raises(ValueError, match=f"^{name} .* is not finite"):
                run(*args)


def test_symmetry_composition_and_inverse():
    K = SymmetryOperator(I2, antiunitary=True)
    R = SymmetryOperator(evolve_unitary(SZ, 0.8).matrix)
    KR = K.compose(R)
    assert KR.antiunitary
    KK = K.compose(K)
    assert not KK.antiunitary
    assert frobenius(KK.matrix - I2) <= 1e-14
    for V in (K, R, KR):
        VI = V.compose(V.inverse())
        assert not VI.antiunitary if V is KK else True
        assert frobenius(VI.matrix - I2) <= 1e-12
    v = np.array([1.0 + 2.0j, -0.5j])
    np.testing.assert_allclose(K.apply(K.apply(v)), v, atol=1e-14)


def test_wigner_symmetries_preserve_transition_probabilities():
    rng = np.random.default_rng(71)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    psi = PureStateVector.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    phi = PureStateVector.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    before = transition_probability(psi, phi)
    for anti in (False, True):
        V = SymmetryOperator(q, antiunitary=anti)
        psi2 = PureStateVector.normalized(V.apply(psi.amplitudes))
        phi2 = PureStateVector.normalized(V.apply(phi.amplitudes))
        assert abs(transition_probability(psi2, phi2) - before) <= 1e-12


def test_wigner_transport_of_states_and_observables_is_consistent():
    rng = np.random.default_rng(73)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = DensityState((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
    P = spectral_decompose(random_hermitian(rng, 3)).atoms[0][1]
    from oplattice import Projector
    for anti in (False, True):
        V = SymmetryOperator(q, antiunitary=anti)
        rho2 = wigner_apply(V, rho)
        P2 = wigner_apply_observable(V, P).matrix
        p_before = born_probability(rho, Projector(P))
        p_after = born_probability(rho2, Projector(P2))
        assert abs(p_before - p_after) <= 1e-12


def test_time_reversal_conjugation_signs_on_spin():
    K = SymmetryOperator(I2, antiunitary=True)
    assert frobenius(wigner_apply_observable(K, SY).matrix + SY) <= 1e-14
    assert frobenius(wigner_apply_observable(K, SZ).matrix - SZ) <= 1e-14
    assert frobenius(wigner_apply_observable(K, SX).matrix - SX) <= 1e-14


def test_time_reversal_flips_real_evolution():
    # for a real generator, K exp(-itH) = exp(+itH) K
    K = SymmetryOperator(I2, antiunitary=True)
    H = SX  # real symmetric
    t = 0.6
    Ut = SymmetryOperator(evolve_unitary(H, t).matrix)
    U_back = SymmetryOperator(evolve_unitary(H, -t).matrix)
    lhs = K.compose(Ut)
    rhs = U_back.compose(K)
    assert lhs.antiunitary and rhs.antiunitary
    assert frobenius(lhs.matrix - rhs.matrix) <= 1e-12


def test_spectrum_reversal_gap_detects_unpaired_spectrum():
    assert spectrum_reversal_gap(SZ) <= 1e-14
    gap = spectrum_reversal_gap(np.diag([0.0, 1.0, 2.0]).astype(complex))
    assert abs(gap - 2.0) <= 1e-14


def z2_mult(g, h):
    return g if h == "e" else ("e" if g == h else "g")


def test_multiplier_extraction_from_projective_spin_family():
    ops = {"e": I2, "g": 1j * SX}
    table = multipliers_from_operators(["e", "g"], z2_mult, ops)
    assert abs(table("g", "g") - (-1.0)) <= 1e-12
    assert abs(table("e", "g") - 1.0) <= 1e-12
    assert cocycle_check(table, z2_mult)


def test_flat_multipliers_pass_and_perturbed_fail():
    flat = {(g, h): 1.0 for g in ("e", "g") for h in ("e", "g")}
    assert cocycle_check(MultiplierTable(["e", "g"], flat), z2_mult)
    bad = dict(flat)
    bad[("e", "g")] = np.exp(0.1j)
    with pytest.raises(NotACocycle):
        cocycle_check(MultiplierTable(["e", "g"], bad), z2_mult)
    with pytest.raises(ValueError):
        MultiplierTable(["e", "g"], {(g, h): 2.0 for g in "eg" for h in "eg"})


def test_phase_slope_is_recovered_and_gauge_removed():
    A = np.diag([0.3, -0.3]).astype(complex)
    rs = np.linspace(0.0, 2.0, 21)
    samples = [(r, np.exp(0.17j * r) * evolve_unitary(A, r).matrix)
               for r in rs]
    c, fixed = phase_fix_one_parameter(samples)
    assert abs(c - 0.17) <= 1e-9
    table = {r: V for r, V in fixed}
    assert frobenius(table[0.5] @ table[1.0] - table[1.5]) <= 1e-12


def test_spin_half_fixture_report():
    for hbar in (1.0, 2.0):
        S, rep = su2_fixture(hbar)
        assert max(rep["commutator_residuals"]) <= 1e-12
        for spectrum in rep["spectra"]:
            np.testing.assert_allclose(spectrum, [-hbar / 2, hbar / 2],
                                       atol=1e-12)
        assert rep["group_law_defect"] <= 1e-12
        expect = rep["expected_invariant_value"]
        assert abs(expect - 0.75 * hbar * hbar) <= 1e-15
        assert frobenius(rep["quadratic_invariant"] - expect * I2) <= 1e-12
        np.testing.assert_allclose(rep["quadratic_eigenvalues"],
                                   [expect, expect], atol=1e-12)


@pytest.mark.parametrize("orders", [(1, 8), (2, 12)])
def test_dyson_order_only_gates_the_node_count(orders):
    """order sets only the quadrature gate: two orders that both pass it
    give the same U, bit for bit, on a complex 2 x 2 drive over 40 nodes."""
    taus = np.linspace(0.0, 1.0, 40)
    samples = [(t, 0.3 * SZ + np.sin(2.0 * t) * SX + 0.2 * t * SY)
               for t in taus]
    lo, hi = (dyson_evolve(samples, 0.1, 0.9, order=k).matrix for k in orders)
    assert np.array_equal(lo, hi)
    with pytest.raises(QuadratureTooCoarse):
        dyson_evolve(samples[::13], 0.1, 0.9, order=12)


def test_evolution_takes_one_time():
    """evolve_unitary and heisenberg_observable evolve to one time: an array
    of times, empty or not, is refused, never read as its first entry."""
    for t in ([0.1, 0.2], [], np.array([[0.3]])):
        with pytest.raises(ValueError, match="one time"):
            evolve_unitary(SZ, t)
        with pytest.raises(ValueError, match="one time"):
            heisenberg_observable(SX, SZ, t)
    assert np.array_equal(evolve_unitary(SZ, np.array(0.3)).matrix,
                          evolve_unitary(SZ, 0.3).matrix)


def test_group_commutation_on_an_empty_grid_is_vacuous():
    assert commuting_via_groups(SX, SZ, grid=())
