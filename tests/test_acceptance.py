"""End-to-end acceptance battery: one test per shipped guarantee.

Each test states its tolerance inline and is independent of the others, so
a red line here points directly at the guarantee that broke. Budgets are
wall-clock on commodity hardware; the random sweeps use fixed seeds.
"""

import json
import math
import time

import numpy as np

from oplattice import (
    DensityState,
    HermitianOperator,
    MatrixStarAlgebra,
    Projector,
    algebra_from_matrices,
    born_probability,
    build_truncated_pair,
    center,
    commutant,
    commuting_via_groups,
    double_commutant,
    dyson_evolve,
    dyson_series,
    evolve_unitary,
    frobenius,
    generator_from_group,
    gleason_fit,
    gns_construct,
    heisenberg_uncertainty,
    is_factor,
    is_pure,
    is_pure_state,
    jauch_meet,
    kochen_specker_witness,
    meet,
    mixed_to_vector_paradox_demo,
    noether_check,
    operator_norm,
    pvm_commute,
    span_projector,
    spectral_decompose,
    state_from_density,
    su2_fixture,
    superselection_sectors,
    tomography_frame,
    verify_gns,
)
from oplattice.cli import run as cli_run

from oracles import span_gap, word_closure_basis

# sample times of a central difference and its half-step Richardson pair
DEFAULT_STENCIL = (1e-3, 5e-4, -5e-4, -1e-3)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, n):
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (W + W.conj().T) / 2.0


def random_projector(rng, n, r):
    W = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    Q, _ = np.linalg.qr(W)
    return Projector(Q @ Q.conj().T)


def random_density(rng, n):
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = W @ W.conj().T
    return DensityState(M / M.trace().real)


def matrix_units(n):
    units = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            units.append(E)
    return units


def test_spectral_roundtrip_on_1000_random_hermitians_within_budget():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    rec = comp = orth = 0.0
    for k in range(1000):
        n = 2 + k % 63
        A = random_hermitian(rng, n)
        pvm = spectral_decompose(A)
        labels = np.array(pvm.labels)
        stack = np.stack([P for _, P in pvm.atoms])
        recon = np.einsum("a,aij->ij", labels, stack)
        rec = max(rec, frobenius(A - recon) / frobenius(A))
        comp = max(comp, frobenius(stack.sum(axis=0) - np.eye(n)))
        m = len(stack)
        traces = np.einsum("aii->a", stack).real
        if np.abs(traces - 1.0).max() <= 1e-8:
            # all atoms rank 1: the biggest diagonal entry of u u* locates a
            # safe column to read the unit vector from, up to phase
            diags = stack.reshape(m, -1)[:, ::n + 1].real
            j = diags.argmax(axis=1)
            rows = np.arange(m)
            V = (stack[rows, :, j] / np.sqrt(diags[rows, j])[:, None]).T
            G = V.conj().T @ V
            np.fill_diagonal(G, 0.0)
            orth = max(orth, float(np.abs(G).max()))
        else:
            for a in range(m - 1):
                prods = stack[a][None] @ stack[a + 1:]
                worst = np.sqrt((np.abs(prods) ** 2).sum(axis=(1, 2))).max()
                orth = max(orth, float(worst))
    elapsed = time.perf_counter() - t0
    assert rec <= 1e-10
    assert comp <= 1e-10
    assert orth <= 1e-10
    assert elapsed < 5.0, f"spectral sweep took {elapsed:.2f}s"


def test_spin_half_components_have_half_hbar_spectra_and_cyclic_commutators():
    for hbar in (1.0, 2.0):
        S, _ = su2_fixture(hbar)
        for Sk in S:
            labels = sorted(spectral_decompose(Sk).labels)
            assert abs(labels[0] + hbar / 2.0) <= 1e-12
            assert abs(labels[1] - hbar / 2.0) <= 1e-12
            assert len(labels) == 2
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = S[a].matrix @ S[b].matrix - S[b].matrix @ S[a].matrix
            assert frobenius(comm - 1j * hbar * S[c].matrix) <= 1e-12


def test_distributivity_counterexample_demo_is_exact_and_bit_for_bit(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_run(["demo", "--name", "c2-distributivity",
                    "--out", str(first)]) == 0
    assert cli_run(["demo", "--name", "c2-distributivity",
                    "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["lhs_equals_p1_defect"] <= 1e-12
    assert report["rhs_equals_zero_defect"] <= 1e-12
    assert report["distributive"] is False


def test_iterated_meet_matches_exact_meet_on_500_pairs_and_cosine_law():
    rng = np.random.default_rng(2026)
    for k in range(500):
        n = 2 + k % 15
        P = random_projector(rng, n, int(rng.integers(1, n)))
        Q = random_projector(rng, n, int(rng.integers(1, n)))
        iterated = jauch_meet(P, Q, tol=1e-8)
        assert frobenius(iterated.matrix - meet(P, Q).matrix) <= 1e-7

    theta = 0.7
    P = span_projector([np.array([1.0, 0.0])])
    Q = span_projector([np.array([np.cos(theta), np.sin(theta)])])
    log = []
    got = jauch_meet(P, Q, tol=1e-10, norm_log=log)
    assert got.rank == 0
    assert log
    for k, val in enumerate(log, start=1):
        assert abs(val - np.cos(theta) ** (2 * k)) <= 1e-10


def test_state_recovery_from_frame_and_two_valuedness_witness():
    rng = np.random.default_rng(2026)
    frames = {n: tomography_frame(n) for n in range(3, 9)}
    for k in range(200):
        n = 3 + k % 6
        rho = random_density(rng, n)
        assignments = [(P, born_probability(rho, P)) for P in frames[n]]
        fit = gleason_fit(assignments)
        assert fit.frame_rank == n * n
        assert not fit.dim_two_warning
        assert frobenius(fit.state.matrix - rho.matrix) <= 1e-8

    for k in range(100):
        n = 3 + k % 4
        rho = random_density(rng, n)
        P = kochen_specker_witness(rho)
        p = born_probability(rho, P)
        assert 0.01 <= p <= 0.99


def test_commutant_dimension_laws_and_word_closure_agreement():
    for n in (2, 3, 4):
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=1)
        grade = np.diag(np.arange(n, dtype=float)).astype(complex)
        assert len(commutant([shift, grade])) == 1
        diag_basis = [np.diag(row).astype(complex) for row in np.eye(n)]
        assert len(commutant(diag_basis)) == n

    rng = np.random.default_rng(2026)
    top = [np.zeros((5, 5), dtype=complex) for _ in range(2)]
    top[0][:2, :2] = SX
    top[1][:2, :2] = SZ
    bottom = [np.zeros((5, 5), dtype=complex) for _ in range(2)]
    for B in bottom:
        B[2:, 2:] = random_hermitian(rng, 3)
    block_alg = MatrixStarAlgebra.generated_by(top + bottom)
    assert len(center(block_alg)) == 2
    assert not is_factor(block_alg)

    for k in range(100):
        n = 2 + k % 7
        gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(1 + k % 3)]
        dc = double_commutant(gens)
        words = word_closure_basis(gens, n)
        assert len(dc) == len(words)
        assert span_gap(dc, words) <= 1e-8


def test_electric_charge_toy_splits_into_two_irreducible_sectors():
    charge = np.kron(I2, SZ)
    observables = [np.kron(SX, I2), np.kron(SZ, I2), np.kron(I2, SZ)]
    report = superselection_sectors([charge], observables)
    assert len(report.sectors) == 2
    assert report.offdiag_defect <= 1e-12
    values = set()
    for sec in report.sectors:
        assert sec.rank == 2
        assert sec.irreducible
        q = sec.charge_values[0]
        values.add(round(q))
        assert abs(q - round(q)) <= 1e-9
        # the compressed charge is a scalar, not merely scalar on average
        P = sec.projector
        assert frobenius(P @ charge @ P - q * P) <= 1e-12
    assert values == {1, -1}


def test_conservation_three_faces_agree_on_500_random_pairs():
    rng = np.random.default_rng(2026)
    for k in range(250):
        n = 2 + k % 7
        H = random_hermitian(rng, n)
        c = rng.standard_normal(3)
        A = c[0] * np.eye(n) + c[1] * H + c[2] * (H @ H)
        report = noether_check(A, H, tol=1e-9)
        assert report.constant_of_motion
        assert report.dynamical_symmetry
        assert report.h_invariance
    for k in range(250):
        n = 2 + k % 7
        H = random_hermitian(rng, n)
        A = random_hermitian(rng, n)
        # a split verdict raises inside noether_check, so returning at all
        # certifies agreement of the three faces
        report = noether_check(A, H, tol=1e-9)
        assert (report.constant_of_motion == report.dynamical_symmetry
                == report.h_invariance)


def test_generator_recovery_at_norm_ten_and_group_law():
    rng = np.random.default_rng(2026)
    for k in range(50):
        n = 2 + k % 5
        H = random_hermitian(rng, n)
        scale = 10.0 if k % 5 == 0 else rng.uniform(0.5, 10.0)
        H *= scale / operator_norm(H)
        samples = [(t, evolve_unitary(H, t).matrix) for t in DEFAULT_STENCIL]
        got = generator_from_group(samples)
        assert frobenius(got.matrix - H) <= 1e-6
    for k in range(50):
        n = 2 + k % 7
        H = random_hermitian(rng, n)
        t, s = rng.uniform(-2.0, 2.0, size=2)
        Ut = evolve_unitary(H, t).matrix
        Us = evolve_unitary(H, s).matrix
        Uts = evolve_unitary(H, t + s).matrix
        assert frobenius(Ut @ Us - Uts) <= 1e-10


def test_time_ordered_evolution_three_clauses():
    taus = np.linspace(0.0, 1.0, 401)
    commuting = [(t, (1.0 + t * t / 2.0) * SZ) for t in taus]
    exact = evolve_unitary(HermitianOperator(SZ), 7.0 / 6.0).matrix
    got = dyson_evolve(commuting, 0.0, 1.0, order=8).matrix
    assert frobenius(got - exact) <= 1e-6

    H = 0.6 * SX + 0.5 * SZ
    T = 1.2
    nodes = np.linspace(0.0, T, 401)
    constant = [(t, H) for t in nodes]
    exact = evolve_unitary(HermitianOperator(H), T).matrix
    product = dyson_evolve(constant, 0.0, T).matrix
    assert frobenius(product - exact) <= 1e-10
    series = dyson_series(constant, 0.0, T, order=8)
    x = operator_norm(H) * T
    tail = x ** 9 / math.factorial(9) * math.exp(x)
    assert frobenius(series - exact) <= 2.0 * tail + 1e-9

    drive = np.linspace(0.0, 0.45, 101)
    noncommuting = [(t, SZ + t * SX) for t in drive]
    lo = dyson_series(noncommuting, 0.0, 0.45, order=8)
    hi = dyson_series(noncommuting, 0.0, 0.45, order=10)
    assert frobenius(lo - hi) <= 1e-8


def test_truncated_pair_corner_commutator_and_uncertainty_floor():
    for n in range(2, 65):
        pair = build_truncated_pair(n)
        C = pair.commutator()
        assert abs(pair.commutator_defect() - n) <= 1e-10
        assert abs(C.trace()) <= 1e-12
    for hbar in (1.0, 2.0):
        pair = build_truncated_pair(16, hbar=hbar)
        assert abs(pair.commutator_defect() - hbar * 16) <= 1e-10
        ground = heisenberg_uncertainty(pair, pair.ground_state())
        assert abs(ground.product - hbar / 2.0) <= 1e-10
        first = heisenberg_uncertainty(pair, pair.fock_state(1))
        assert abs(first.product - 3.0 * hbar / 2.0) <= 1e-10


def test_reconstruction_dimension_law_purity_and_paradox():
    for n in (2, 3, 4):
        mats = matrix_units(n)
        alg = algebra_from_matrices(mats)
        for r in range(1, n + 1):
            eigs = np.arange(1.0, r + 1.0)
            eigs /= eigs.sum()
            rho = DensityState(np.diag(np.concatenate([eigs,
                                                       np.zeros(n - r)])))
            omega = state_from_density(alg, mats, rho)
            triple = gns_construct(alg, omega)
            assert triple.rep_dim == n * r
            check = verify_gns(triple, alg, omega)
            assert check["ok"], check["violation"]
            assert check["residuals"]["expectation"] <= 1e-10

    rng = np.random.default_rng(2026)
    fixtures = []
    for n in (2, 3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        fixtures.append((n, DensityState(np.outer(v, v.conj()))))
        fixtures.append((n, random_density(rng, n)))
        fixtures.append((n, DensityState(np.eye(n) / n)))
    for n, rho in fixtures:
        mats = matrix_units(n)
        alg = algebra_from_matrices(mats)
        omega = state_from_density(alg, mats, rho)
        assert is_pure_state(alg, omega) == is_pure(rho)

    paradox = mixed_to_vector_paradox_demo(DensityState(np.eye(2) / 2.0))
    assert paradox["rep_dim"] == 4
    assert paradox["commutant_dimension"] == 4
    assert not paradox["state_is_pure"]
    assert abs(paradox["cyclic_vector_norm"] - 1.0) <= 1e-10


def test_spectral_and_group_commutation_verdicts_agree_on_200_pairs():
    rng = np.random.default_rng(2026)
    for k in range(200):
        n = 2 + k % 7
        A = random_hermitian(rng, n)
        if k % 2 == 0:
            c = rng.standard_normal(3)
            B = c[0] * np.eye(n) + c[1] * A + c[2] * (A @ A)
        else:
            B = random_hermitian(rng, n)
        spectral = pvm_commute(spectral_decompose(A), spectral_decompose(B),
                               tol=1e-9)
        grouped = commuting_via_groups(A, B, tol=1e-9)
        assert spectral == grouped
        if k % 2 == 0:
            assert spectral
