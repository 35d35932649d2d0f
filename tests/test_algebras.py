"""Commutants, generated *-algebras, centers, and superselection splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplattice import (
    DensityState,
    MatrixStarAlgebra,
    NonCentralCharge,
    NonCommutingCharges,
    NotClosedUnderProducts,
    center,
    commutant,
    decohere_across_sectors,
    double_commutant,
    frobenius,
    is_factor,
    spectral_decompose,
    superselection_sectors,
)

from oracles import center_oracle, span_gap, word_closure_basis

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def random_mats(rng, n, k):
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(k)]


def pauli_and_hermitian_blocks():
    """Generators of M_2 + M_3 on C^5, the Paulis on the top block and two
    random Hermitians on the bottom one: the block fixture of
    test_center_separates_factor_from_block_sum."""
    blocks = []
    for M in (SX, SZ):
        top = np.zeros((5, 5), dtype=complex)
        top[:2, :2] = M
        blocks.append(top)
    for M in random_mats(np.random.default_rng(5), 3, 2):
        bot = np.zeros((5, 5), dtype=complex)
        bot[2:, 2:] = M + M.conj().T
        blocks.append(bot)
    return blocks


def haar_unitary(rng, n, real=False):
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def spectrum_with_repeats(rng, n):
    """n eigenvalues in [-1, 1] taking d distinct levels, 2 <= d <= n <= 8,
    at least 0.1 apart; returns (eigenvalues, d). Spectra that reach |4|
    at n = 8 put word_closure_basis, which spans unnormalized words,
    about 1e-6 off the true span, so the oracle comparisons keep to
    [-1, 1]; the test of one Hermitian, which has the exact answer,
    rescales them."""
    d = int(rng.integers(2, n + 1))
    levels = np.cumsum(rng.uniform(0.1, 0.25, d)) - 1.0
    return levels[np.concatenate([np.arange(d), rng.integers(0, d, n - d)])], d


def two_block_pair(rng, n, k, real=False, hermitian=True):
    """Two generators, each block diagonal with blocks of sizes k and n - k,
    in a Haar-random basis."""
    U = haar_unitary(rng, n, real)
    gens = []
    for _ in range(2):
        G = np.zeros((n, n), dtype=complex)
        for lo, hi in ((0, k), (k, n)):
            B = random_mats(rng, hi - lo, 1)[0]
            if real:
                B = B.real
            G[lo:hi, lo:hi] = B + B.conj().T if hermitian else B
        gens.append(U @ G @ U.conj().T)
    return gens


def complex_family(name, rng, n):
    """Complex generators whose span is not closed under conjugation."""
    U = haar_unitary(rng, n)
    if name == "hermitian":
        return [(U * spectrum_with_repeats(rng, n)[0]) @ U.conj().T]
    if name == "commuting_pair":
        return [(U * spectrum_with_repeats(rng, n)[0]) @ U.conj().T
                for _ in range(2)]
    if name == "two_blocks":
        return two_block_pair(rng, n, int(rng.integers(1, n)),
                              hermitian=False)
    return random_mats(rng, n, 2)  # a non-normal pair


_complex_cases = given(
    name=st.sampled_from(
        ["hermitian", "commuting_pair", "two_blocks", "nonnormal_pair"]),
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)


def test_commutant_of_irreducible_generators_is_scalars():
    assert len(commutant([SX, SZ])) == 1
    prime = commutant([SX, SZ])[0]
    assert frobenius(prime @ SX - SX @ prime) <= 1e-10


def test_commutant_of_nondegenerate_diagonal_is_all_diagonals():
    for n in (2, 3, 5):
        D = np.diag(np.arange(1.0, n + 1.0)).astype(complex)
        prime = commutant([D])
        assert len(prime) == n
        for M in prime:
            off = M - np.diag(np.diag(M))
            assert frobenius(off) <= 1e-9


def test_commutant_of_scalars_is_everything():
    # regression: a scalar generator must not poison the nullspace cutoff
    for n in (2, 4):
        assert len(commutant([np.eye(n, dtype=complex)])) == n * n
        assert len(double_commutant([np.eye(n, dtype=complex)])) == 1
    assert len(double_commutant([SX, SZ, I2])) == 4


def test_double_commutant_matches_word_closure():
    rng = np.random.default_rng(83)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        gens = random_mats(rng, n, int(rng.integers(1, 4)))
        dc = double_commutant(gens)
        words = word_closure_basis(gens, n)
        assert len(dc) == len(words)
        assert span_gap(dc, words) <= 1e-8


def test_generated_algebra_membership():
    alg = MatrixStarAlgebra.generated_by([SZ])
    assert alg.linear_dimension() == 2
    assert alg.contains(np.diag([3.0, 7.0]).astype(complex))
    assert not alg.contains(SX)


def test_star_algebra_validation():
    with pytest.raises(ValueError):
        MatrixStarAlgebra([I2, 2.0 * I2])  # dependent spanning set
    with pytest.raises(ValueError):
        MatrixStarAlgebra([SX])  # identity missing
    E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotClosedUnderProducts):
        MatrixStarAlgebra([I2, E01])  # adjoint escapes the span


def test_center_separates_factor_from_block_sum():
    full = MatrixStarAlgebra.generated_by([SX, SZ])
    assert full.linear_dimension() == 4
    assert len(center(full)) == 1
    assert is_factor(full)

    blocks = []
    for M in (SX, SZ):
        top = np.zeros((5, 5), dtype=complex)
        top[:2, :2] = M
        blocks.append(top)
    for M in random_mats(np.random.default_rng(5), 3, 2):
        bot = np.zeros((5, 5), dtype=complex)
        bot[2:, 2:] = M + M.conj().T
        blocks.append(bot)
    two_blocks = MatrixStarAlgebra.generated_by(blocks)
    assert two_blocks.linear_dimension() == 13
    assert len(center(two_blocks)) == 2
    assert not is_factor(two_blocks)


def test_superselection_splits_charge_eigenspaces():
    charge = np.kron(I2, SZ)
    observables = [np.kron(SX, I2), np.kron(SZ, I2), np.kron(I2, SZ)]
    report = superselection_sectors([charge], observables)
    assert len(report.sectors) == 2
    assert report.offdiag_defect <= 1e-12
    values = set()
    for sec in report.sectors:
        assert sec.rank == 2
        assert sec.irreducible
        assert len(sec.restricted_basis) == 4
        values.add(round(sec.charge_values[0]))
    assert values == {-1, 1}


def test_superselection_rejects_bad_charges():
    with pytest.raises(NonCommutingCharges):
        superselection_sectors([SX, SZ], [I2])
    with pytest.raises(NonCentralCharge):
        superselection_sectors([SZ], [SX])


def test_decoherence_kills_cross_sector_terms():
    charge = np.kron(I2, SZ)
    observables = [np.kron(SX, I2), np.kron(SZ, I2), np.kron(I2, SZ)]
    report = superselection_sectors([charge], observables)
    v = np.zeros(4, dtype=complex)
    v[0] = v[1] = 1.0 / np.sqrt(2.0)  # coherent across the two sectors
    rho = np.outer(v, v.conj())
    sigma = decohere_across_sectors(rho, report)
    assert abs(np.trace(sigma).real - 1.0) <= 1e-12
    for sec in report.sectors:
        P = sec.projector
        inside = P @ rho @ P
        assert frobenius(P @ sigma @ P - inside) <= 1e-12
    off = sigma.copy()
    for sec in report.sectors:
        P = sec.projector
        off -= P @ sigma @ P
    assert frobenius(off) <= 1e-12
    DensityState(sigma)  # still a valid state


@settings(max_examples=40, deadline=None)
@_complex_cases
def test_commutant_and_closure_of_complex_generators(name, n, seed):
    gens = complex_family(name, np.random.default_rng(seed), n)
    for X in commutant(gens):
        for G in gens:
            for g in (G, G.conj().T):
                bound = 1e-10 * frobenius(G) * frobenius(X)
                assert frobenius(g @ X - X @ g) <= bound
    dc = double_commutant(gens)
    words = word_closure_basis(gens, n)
    assert len(dc) == len(words)
    assert span_gap(dc, words) <= 1e-8
    alg = MatrixStarAlgebra(dc)
    centre = center(alg)
    want = center_oracle(words, n)
    assert len(centre) == len(want)
    assert span_gap(centre, want) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_algebra_of_one_complex_hermitian_is_abelian(n, seed):
    rng = np.random.default_rng(seed)
    w, distinct = spectrum_with_repeats(rng, n)
    w = w * 10.0 ** rng.uniform(-3.0, 3.0)
    U = haar_unitary(rng, n)
    H = (U * w) @ U.conj().T
    alg = MatrixStarAlgebra.generated_by([H])
    assert alg.linear_dimension() == distinct
    eigenprojectors = [U[:, w == x] @ U[:, w == x].conj().T
                       for x in np.unique(w)]
    assert span_gap(alg.basis, eigenprojectors) <= 1e-8
    assert len(center(alg)) == distinct
    assert not is_factor(alg)
    assert alg.contains(H)
    assert not alg.contains(H.conj())
    atoms = spectral_decompose(H).atoms
    assert len(atoms) == distinct
    assert len(center(MatrixStarAlgebra([P for _, P in atoms]))) == distinct


def _benchmark_shapes():
    """The generated-algebra families of perfbench/workloads.py, each with
    its center dimension, the Pauli pair and the block fixture of
    test_center_separates_factor_from_block_sum."""
    rng = np.random.default_rng(29)
    cases = [(random_mats(rng, n, 2), 1) for n in (3, 6)]
    for real in (True, False):
        for n in (4, 8):
            U = haar_unitary(rng, n, real)
            w = np.sort(rng.uniform(-1.0, 1.0, n)) + 1e-6 * np.arange(n)
            cases.append(([(U * w) @ U.conj().T], n))
        for n in (6, 9):
            cases.append((two_block_pair(rng, n, n // 3, real), 2))
    cases += [([SX, SZ], 1), (pauli_and_hermitian_blocks(), 2)]
    return cases


def test_center_matches_oracle_and_is_orthonormal():
    for gens, dim_z in _benchmark_shapes():
        alg = MatrixStarAlgebra.generated_by(gens)
        n = alg.dim
        centre = center(alg)
        want = center_oracle(alg.basis, n)
        assert len(centre) == len(want) == dim_z
        assert span_gap(centre, want) <= 1e-8
        flat = np.array([Z.reshape(-1) for Z in centre])
        gram = flat.conj() @ flat.T
        assert frobenius(gram - np.eye(len(centre))) <= 1e-10
