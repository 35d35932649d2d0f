"""States, Born rule, collapse chains, state recovery, and band witnesses."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplattice import (
    DensityState,
    HermitianOperator,
    InconsistentAssignments,
    NotHermitian,
    NotProjector,
    Projector,
    PureStateVector,
    UnderdeterminedFrame,
    WitnessNotFound,
    ZeroProbability,
    born_probability,
    conditional_probability,
    expectation,
    frobenius,
    gleason_fit,
    is_pure,
    kochen_specker_witness,
    luders_collapse,
    purity,
    sequential_probability,
    std_deviation,
    tomography_frame,
    transition_probability,
)
from oplattice.states import _herm_coordinates, _herm_from_coordinates

from oracles import (
    herm_coordinate_row_loop,
    herm_from_coordinates_loop,
    phase_fix_columns_loop,
    tomography_frame_loop,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

Z_UP = DensityState(np.diag([1.0, 0.0]))
P_ZUP = Projector(np.diag([1.0, 0.0]))
P_XUP = Projector(np.full((2, 2), 0.5))


def random_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T + 1e-3 * np.eye(n)
    return DensityState(m / np.trace(m).real)


def test_pure_state_normalizes_and_fixes_phase():
    psi = PureStateVector.normalized([2.0j, 0.0])
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12
    assert psi.amplitudes[0].real > 0 and abs(psi.amplitudes[0].imag) <= 1e-12
    with pytest.raises(ValueError):
        PureStateVector([1.0, 1.0])  # not unit norm


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), lead=st.integers(0, 7),
       floor=st.sampled_from([0.0, 1e-13, 1e-12]), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_pure_state_phase_is_the_eigenvector_phase_rule(n, lead, floor, real,
                                                         seed):
    """The amplitudes are those of one column through the loop phase fix,
    bit for bit: complex or real vectors whose leading entries are zero or
    at the ABS_FLOOR anchor cut."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + (0.0 if real else 1j) * rng.standard_normal(n)
    v = v.astype(complex)
    v[:min(lead, n - 1)] = floor
    v = v / np.linalg.norm(v)
    got = PureStateVector(v).amplitudes
    want = phase_fix_columns_loop((v / np.linalg.norm(v))[:, None])[:, 0]
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_density_validation():
    with pytest.raises(ValueError):
        DensityState(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        DensityState(np.diag([0.6, 0.6]))
    rho = DensityState.from_vector(PureStateVector.normalized([1.0, 1.0]))
    assert frobenius(rho.matrix - P_XUP.matrix) <= 1e-12
    mm = DensityState.maximally_mixed(3)
    assert frobenius(mm.matrix - np.eye(3) / 3) <= 1e-15


def test_born_rule_on_spin_fixture():
    assert abs(born_probability(Z_UP, P_XUP) - 0.5) <= 1e-12
    assert abs(born_probability(Z_UP, P_ZUP) - 1.0) <= 1e-12


def test_expectation_and_spread():
    x_up = DensityState(P_XUP.matrix.copy())
    assert abs(expectation(x_up, SZ)) <= 1e-12
    assert abs(std_deviation(x_up, SZ) - 1.0) <= 1e-12
    assert abs(std_deviation(Z_UP, SZ)) <= 1e-7


def test_raw_arrays_are_admitted_as_the_operators_they_stand_for():
    """A raw observable is admitted as a HermitianOperator and a raw event as
    a Projector, so a non-Hermitian array or a non-projector is refused here
    as it is in dynamics, and an admissible one counts as its operator."""
    skew = SZ + 0.5j * SX
    for read in (expectation, std_deviation):
        with pytest.raises(NotHermitian):
            read(Z_UP, skew)
        assert read(Z_UP, SX) == read(Z_UP, HermitianOperator(SX))
    half = np.diag([1.0, 0.5])
    for measure in (born_probability, luders_collapse,
                    lambda rho, P: sequential_probability(rho, [P_XUP, P])):
        with pytest.raises(NotProjector):
            measure(Z_UP, half)
    with pytest.raises(NotProjector):
        gleason_fit([(half, 1.0)])
    assert born_probability(Z_UP, P_XUP.matrix) == born_probability(Z_UP,
                                                                    P_XUP)


def test_collapse_moves_z_up_onto_x_axis():
    post = luders_collapse(Z_UP, P_XUP)
    assert frobenius(post.matrix - P_XUP.matrix) <= 1e-12
    with pytest.raises(ZeroProbability):
        luders_collapse(Z_UP, Projector(np.diag([0.0, 1.0])))


def test_sequential_probability_depends_on_order():
    seq = sequential_probability(Z_UP, [P_XUP, P_ZUP])
    assert abs(seq.value - 0.25) <= 1e-12
    assert abs(seq.reversed_value - 0.5) <= 1e-12


def test_conditional_probability_and_zero_guard():
    # after seeing the x outcome, the z outcome is an even coin again
    p = conditional_probability(Z_UP, P_ZUP, P_XUP)
    assert abs(p - 0.5) <= 1e-12
    with pytest.raises(ZeroProbability):
        conditional_probability(Z_UP, P_XUP, Projector(np.diag([0.0, 1.0])))


def test_transition_probability_pairs():
    z = PureStateVector.normalized([1.0, 0.0])
    x = PureStateVector.normalized([1.0, 1.0])
    z_dn = PureStateVector.normalized([0.0, 1.0])
    assert abs(transition_probability(z, x) - 0.5) <= 1e-12
    assert transition_probability(z, z_dn) <= 1e-24


def test_purity_of_ninety_ten_mixture():
    rho = DensityState(np.diag([0.9, 0.1]))
    assert abs(purity(rho) - 0.82) <= 1e-12
    assert not is_pure(rho)
    assert is_pure(Z_UP)


def test_tomography_frame_is_informationally_complete():
    rng = np.random.default_rng(61)
    for n in (3, 4, 5):
        frame = tomography_frame(n)
        assert len(frame) == n * n
        rho = random_density(rng, n)
        fit = gleason_fit([(P, born_probability(rho, P)) for P in frame])
        assert fit.residual <= 1e-10
        assert frobenius(fit.state.matrix - rho.matrix) <= 1e-8
        assert fit.frame_rank == n * n
        assert not fit.dim_two_warning


@pytest.mark.parametrize("n", range(1, 13))
def test_frame_and_design_match_the_loops(n):
    rng = np.random.default_rng(n)
    frame = tomography_frame(n)
    loops = tomography_frame_loop(n)
    assert len(frame) == len(loops) == n * n
    for P, M in zip(frame, loops):
        assert np.array_equal(P.matrix, M) and P.rank == 1
    # the frame, then general complex matrices, whose imaginary parts all count
    general = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    for stack in (np.array([P.matrix for P in frame]), general):
        rows = [herm_coordinate_row_loop(M) for M in stack]
        assert np.array_equal(_herm_coordinates(stack), np.array(rows))
    theta = rng.standard_normal(n * n)
    assert np.array_equal(_herm_from_coordinates(theta, n),
                          herm_from_coordinates_loop(theta, n))


def test_frame_matrices_are_read_only():
    for P in tomography_frame(3):
        assert not P.matrix.flags.writeable
        with pytest.raises(ValueError):
            P.matrix[0, 0] = 0.0


def test_frame_check_memory_stays_near_the_frame_itself():
    # the n^2 matrices themselves take 16 n^4 bytes; the check is sliced
    n = 32
    tracemalloc.start()
    try:
        tomography_frame(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * n ** 4


def _orthonormal_columns(rng, n, r):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0][:, :r]


def _random_state(rng, n, rank, spread=0.0):
    """A complex density matrix of the given rank, its weights spread over
    `spread` decades."""
    basis = _orthonormal_columns(rng, n, rank)
    w = 10.0 ** (-spread * rng.uniform(size=rank))
    return DensityState((basis * (w / w.sum())) @ basis.conj().T)


def _random_projector(rng, n):
    basis = _orthonormal_columns(rng, n, int(rng.integers(1, n + 1)))
    return Projector(basis @ basis.conj().T)


@settings(max_examples=40, deadline=None)
@given(shape=st.integers(2, 16).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       spread=st.sampled_from([0.0, 4.0, 8.0]), seed=st.integers(0, 2**32 - 1))
def test_gleason_fit_recovers_random_complex_states(shape, spread, seed):
    n, rank = shape
    rho = _random_state(np.random.default_rng(seed), n, rank, spread)
    frame = tomography_frame(n)
    fit = gleason_fit([(P, born_probability(rho, P)) for P in frame])
    assert frobenius(fit.state.matrix - rho.matrix) <= 1e-8
    assert fit.residual <= 1e-10
    assert fit.frame_rank == n * n
    assert fit.dim_two_warning == (n == 2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), rank=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_luders_collapse_matches_the_direct_product(n, rank, seed):
    rng = np.random.default_rng(seed)
    rho = _random_state(rng, n, min(rank, n))
    P = _random_projector(rng, n)
    p = float(np.trace(rho.matrix @ P.matrix).real)
    assume(p > 1e-3)  # below it, rounding in either route is amplified by 1/p
    direct = P.matrix @ rho.matrix @ P.matrix / p
    assert frobenius(luders_collapse(rho, P).matrix - direct) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), length=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_sequential_probability_matches_direct_products(n, length, seed):
    rng = np.random.default_rng(seed)
    rho = _random_state(rng, n, int(rng.integers(1, n + 1)))
    chain = [_random_projector(rng, n) for _ in range(length)]

    def direct(order):
        state = rho.matrix
        for P in order:
            state = P.matrix @ state @ P.matrix
        return float(np.trace(state).real)

    seq = sequential_probability(rho, chain)
    assert abs(seq.value - direct(chain)) <= 1e-12
    assert abs(seq.reversed_value - direct(chain[::-1])) <= 1e-12


def test_gleason_fit_flags_dim_two():
    frame = tomography_frame(2)
    rho = DensityState(np.diag([0.7, 0.3]))
    fit = gleason_fit([(P, born_probability(rho, P)) for P in frame])
    assert fit.dim_two_warning
    assert frobenius(fit.state.matrix - rho.matrix) <= 1e-8


def test_gleason_fit_rejects_deficient_frame():
    frame = tomography_frame(3)[:-1]
    rho = DensityState.maximally_mixed(3)
    with pytest.raises(UnderdeterminedFrame) as info:
        gleason_fit([(P, born_probability(rho, P)) for P in frame])
    assert info.value.rank == 8


def test_gleason_fit_rejects_contradictory_assignments():
    frame = tomography_frame(3)
    rho = DensityState.maximally_mixed(3)
    pairs = [(P, born_probability(rho, P)) for P in frame]
    # same projector listed twice with incompatible frequencies
    pairs.append((frame[0], pairs[0][1] + 0.01))
    with pytest.raises(InconsistentAssignments):
        gleason_fit(pairs)


def test_band_witness_exists_for_random_states():
    rng = np.random.default_rng(71)
    for n in (3, 4, 5, 6):
        rho = random_density(rng, n)
        P = kochen_specker_witness(rho, delta=0.01)
        assert P.rank == 1
        assert 0.01 <= born_probability(rho, P) <= 0.99


def test_band_witness_rejects_dim_two():
    with pytest.raises(ValueError):
        kochen_specker_witness(Z_UP)


@pytest.mark.parametrize("n", [3, 4])
def test_density_arguments_may_be_raw_arrays(n):
    """Every function that takes a density admits a raw array as
    DensityState would: np.eye(n) / n gives what the admitted state gives,
    and a raw array with a negative eigenvalue raises ValueError."""
    from oplattice import SymmetryOperator, wigner_apply
    rng = np.random.default_rng(n)
    P = Projector(np.diag([1.0] + [0.0] * (n - 1)))
    Q = Projector(np.full((n, n), 1.0 / n))
    A = HermitianOperator(np.diag(np.arange(n, dtype=float)))
    V = SymmetryOperator(np.linalg.qr(rng.standard_normal((n, n)))[0])
    calls = {
        "born_probability": lambda rho: born_probability(rho, P),
        "expectation": lambda rho: expectation(rho, A),
        "std_deviation": lambda rho: std_deviation(rho, A),
        "luders_collapse": lambda rho: luders_collapse(rho, P).matrix,
        "sequential_probability": lambda rho: sequential_probability(
            rho, [P, Q]),
        "conditional_probability": lambda rho: conditional_probability(
            rho, Q, P),
        "is_pure": is_pure,
        "purity": purity,
        "kochen_specker_witness": lambda rho: kochen_specker_witness(
            rho).matrix,
        "wigner_apply": lambda rho: wigner_apply(V, rho).matrix,
    }
    raw = np.eye(n) / n
    bad = np.diag([1.5, -0.5] + [0.0] * (n - 2))
    for name, call in calls.items():
        want, got = call(DensityState(raw)), call(raw)
        assert np.array_equal(got, want), name
        with pytest.raises(ValueError):
            call(bad)
