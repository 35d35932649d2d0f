"""Commutants, generated *-algebras, centers, and superselection splitting."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplattice import (
    DEFAULT_TOL,
    ConvergenceFailure,
    DensityState,
    MatrixStarAlgebra,
    NonCentralCharge,
    NonCommutingCharges,
    NotClosedUnderProducts,
    algebra_from_matrices,
    center,
    commutant,
    decohere_across_sectors,
    double_commutant,
    dumps,
    frobenius,
    is_factor,
    spectral_decompose,
    superselection_sectors,
)
from oplattice import algebras, cli
from oplattice.algebras import (
    MissingIdentity,
    _bicommutant,
    _kernel,
    _weights,
)
from oplattice.linalg import NULLSPACE_RTOL, _fro_batch, hermitian_part

from oracles import (
    center_oracle,
    closure_defect_oracle,
    commutant_oracle,
    joint_atoms_dense,
    span_gap,
    word_closure_basis,
)

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


def spectrum_with_repeats(rng, n, clustered=False):
    """n eigenvalues taking d distinct levels, 2 <= d <= n <= 8, at least
    0.1 apart in [-1, 1] and then rescaled by 10^+-3; returns
    (eigenvalues, d). With clustered, d >= 3 levels have one gap of 1e-3 of
    the spread."""
    d = int(rng.integers(min(3, n) if clustered else 2, n + 1))
    gaps = rng.uniform(0.1, 0.25, d)
    if clustered and d > 2:
        j = int(rng.integers(1, d))
        gaps[j] = 0.0
        gaps[j] = 1e-3 * gaps[1:].sum() / (1.0 - 1e-3)
    levels = np.cumsum(gaps) - 1.0
    levels = levels * 10.0 ** rng.uniform(-3.0, 3.0)
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


def test_star_algebra_validation(monkeypatch):
    """Below k = n^2 every gate runs, on C^2 and in a Haar basis of C^3: a
    dependent spanning set, a basis without I (MissingIdentity), one whose
    adjoint escapes its span (refused before any product is formed) and
    one with a product outside it (refused by the product gate)."""
    with pytest.raises(ValueError):
        MatrixStarAlgebra([I2, 2.0 * I2])  # dependent spanning set
    E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    U = haar_unitary(np.random.default_rng(37), 3)
    units = U @ np.eye(9, dtype=complex).reshape(9, 3, 3) @ U.conj().T
    eye = units[[0, 4, 8]].sum(axis=0)
    cases = [  # basis, refusal, whether products are formed before it
        ([SX], MissingIdentity, False),
        (units[[0, 4]], MissingIdentity, False),
        ([I2, E01], NotClosedUnderProducts, False),
        ([eye, units[1]], NotClosedUnderProducts, False),
        ([I2, SX, SZ], NotClosedUnderProducts, True),
        ([eye, units[1] + units[3], units[5] + units[7]],
         NotClosedUnderProducts, True),
    ]
    calls = _count_products(monkeypatch)
    for basis, refusal, products in cases:
        with pytest.raises(refusal):
            MatrixStarAlgebra(basis)
        assert bool(calls) == products, basis
        calls.clear()


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
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       clustered=st.booleans())
def test_algebra_of_one_complex_hermitian_is_abelian(n, seed, clustered):
    # clustered levels are where word_closure_basis loses a direction, so
    # the check is against the constructed eigenprojectors
    rng = np.random.default_rng(seed)
    w, distinct = spectrum_with_repeats(rng, n, clustered)
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


def _generic_element(gens):
    """h = W + W^* of one commutant call and _commutant's decomposition of
    it, caught on their way into spectral._decompose_stack."""
    seen, decompose = [], algebras._decompose_stack

    def spy(ops, *args):
        (h,) = ops
        seen.append((h.matrix, decompose(ops, *args)[0]))
        return [seen[-1][1]]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebras, "_decompose_stack", spy)
        commutant(gens)
    assert len(seen) == 1
    return seen[0]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["hermitian", "clustered", "commuting_pair",
                             "two_blocks", "nonnormal_pair"]),
       n=st.integers(2, 8), scalars=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_generic_element_skips_admission_and_decomposes_as_admitted(
        name, n, scalars, seed):
    """h is Hermitian to the last bit, so admitting it would change nothing:
    hermitian_part(h) is h, and spectral_decompose(h) gives the labels and
    factor _commutant reads, bit for bit. The generators are admitted as one
    C-ordered stack, so Fortran-ordered copies, or an iterator over them,
    give the same basis bits."""
    rng = np.random.default_rng(seed)
    if name == "clustered":
        U = haar_unitary(rng, n)
        gens = [(U * spectrum_with_repeats(rng, n, clustered=True)[0])
                @ U.conj().T]
    else:
        gens = complex_family(name, rng, n)
    if scalars:
        gens = [np.zeros((n, n)), 3.0 * np.eye(n)] + gens + [0.7j * np.eye(n)]
    h, got = _generic_element(gens)
    assert np.array_equal(h, h.conj().T)
    assert np.array_equal(hermitian_part(h), h)
    want = spectral_decompose(h)
    assert got.labels == want.labels
    for a, b in zip(got._factor, want._factor):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    basis = commutant(gens)
    for again in (commutant([np.asfortranarray(G) for G in gens]),
                  commutant(iter(gens))):
        assert len(basis) == len(again)
        assert all(np.array_equal(X, Y) for X, Y in zip(basis, again))


def test_commutant_maps_an_eigensolver_failure_to_exit_3(tmp_path,
                                                         monkeypatch):
    """commutant's generic element goes through the shared decomposition
    step: LAPACK's LinAlgError becomes ConvergenceFailure, a tolerance
    failure, so `oplattice commutant` exits 3."""
    def failing(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceFailure):
        commutant([SX, SZ])
    path = tmp_path / "gens.json"
    path.write_text(dumps({"generators": [SX, SZ]}))
    assert cli.run(["commutant", "--in", str(path)]) == 3


def test_commutant_refuses_bent_eigenvectors(monkeypatch):
    """The factor gate runs on commutant's generic element: eigenvectors
    bent by 1e-6, orthonormal no more, are refused as they would be by
    spectral_decompose."""
    solve = np.linalg.eigh

    def bent(M):
        w, V = solve(M)
        V = V.copy()
        V[..., 0] += 1e-6 * V[..., 1]
        return w, V

    gens = random_mats(np.random.default_rng(43), 5, 2)
    monkeypatch.setattr(np.linalg, "eigh", bent)
    for call in (lambda: commutant(gens),
                 lambda: spectral_decompose(gens[0] + gens[0].conj().T)):
        with pytest.raises(ValueError, match="invariants violated"):
            call()


def commutant_case(name, rng, n):
    """(generators, commutant dimension) of one named family at dimension
    about n, in a Haar-random basis where one is used."""
    if name == "multiplicity":
        n = 2 * (n // 2)
    elif name == "gaps":
        n = max(n, 4)
    U = haar_unitary(rng, n)
    if name == "pair":
        return random_mats(rng, n, 2), 1
    if name == "hermitian":
        w, _ = spectrum_with_repeats(rng, n)
        return [(U * w) @ U.conj().T], sum(np.sum(w == x) ** 2 for x in set(w))
    if name == "two_blocks":
        return two_block_pair(rng, n, int(rng.integers(1, n)),
                              hermitian=False), 2
    if name == "multiplicity":
        # M_2 (x) I_m: a generic h has two m-fold eigenvalues
        m = n // 2
        return [U @ np.kron(A, np.eye(m)) @ U.conj().T
                for A in random_mats(rng, 2, 2)], m * m
    if name == "nilpotent":
        N = np.triu(random_mats(rng, n, 1)[0], 1)
        return [U @ N @ U.conj().T], 1
    if name == "gaps":
        # levels 1e-12 apart commute at the cutoff, levels 1e-6 apart do not
        w = np.cumsum(rng.uniform(0.1, 0.25, n))
        w[1], w[3] = w[0] + 1e-12 * w[-1], w[2] + 1e-6 * w[-1]
        return [(U * w) @ U.conj().T], n + 2
    return [], n * n  # scalars alone


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["pair", "hermitian", "two_blocks", "multiplicity",
                             "nilpotent", "gaps", "scalars"]),
       n=st.integers(2, 8), scalars=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_commutant_matches_kronecker_oracle(name, n, scalars, seed):
    rng = np.random.default_rng(seed)
    gens, dim_c = commutant_case(name, rng, n)
    n = gens[0].shape[0] if gens else n
    if scalars or not gens:  # the zero matrix and multiples of I
        U = haar_unitary(rng, n)
        gens = gens + [np.zeros((n, n)), 3.0 * np.eye(n),
                       U @ (0.7j * np.eye(n)) @ U.conj().T]
    prime = commutant(gens)
    want = commutant_oracle(gens, n)
    assert len(prime) == len(want) == dim_c
    assert span_gap(prime, want) <= 1e-8
    again = commutant(gens)
    assert len(again) == len(prime)
    assert all(np.array_equal(X, Y) for X, Y in zip(prime, again))


def test_commutant_of_two_complex_generators_at_n64_is_scalars():
    gens = random_mats(np.random.default_rng(64), 64, 2)
    commutant(random_mats(np.random.default_rng(0), 8, 2))  # warm up BLAS
    elapsed = []  # best of three, so that a burst of load elsewhere passes
    for _ in range(3):
        t0 = time.perf_counter()
        prime = commutant(gens)
        elapsed.append(time.perf_counter() - t0)
    assert len(prime) == 1
    X = prime[0]
    assert frobenius(X - np.trace(X) / 64 * np.eye(64)) <= 1e-10
    assert min(elapsed) <= 1.0


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
    """For the algebra generated_by builds, which keeps the commutant it
    computed, and for the same basis as a new algebra, whose center
    computes the commutant and keeps it."""
    for gens, dim_z in _benchmark_shapes():
        alg = MatrixStarAlgebra.generated_by(gens)
        assert span_gap(alg._prime, commutant(alg.basis)) <= 1e-8
        want = center_oracle(alg.basis, alg.dim)
        direct = MatrixStarAlgebra(alg.basis)
        for algebra in (alg, direct):
            centre = center(algebra)
            assert len(centre) == len(want) == dim_z
            assert span_gap(centre, want) <= 1e-8
            assert is_factor(algebra) == (dim_z == 1)
            flat = np.array([Z.reshape(-1) for Z in centre])
            gram = flat.conj() @ flat.T
            assert frobenius(gram - np.eye(len(centre))) <= 1e-10
        assert span_gap(direct._prime, alg._prime) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 3), m=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_commutant_of_adjoint_closed_sets_matches_oracle(d, m, seed):
    """Sets whose span is closed under adjoints: the matrix units of M_d
    tensored with I_m, as a GNS representation of M_d has them, in a
    Haar-random basis (commutant I_d (x) M_m), and the basis of the algebra
    they generate."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(rng, d * m)
    units = [U @ np.kron(E, np.eye(m)) @ U.conj().T
             for E in np.eye(d * d).reshape(d * d, d, d)]
    prime = commutant(units)
    want = commutant_oracle(units, d * m)
    assert len(prime) == len(want) == m * m
    assert span_gap(prime, want) <= 1e-8
    basis = MatrixStarAlgebra.generated_by(units).basis
    assert len(basis) == d * d
    prime = commutant(basis)
    want = commutant_oracle(basis, d * m)
    assert len(prime) == len(want) == m * m
    assert span_gap(prime, want) <= 1e-8


def test_closure_gate_refuses_a_product_in_the_last_slice(monkeypatch):
    """D1, D2 and X = diag(1, 2, 3, 0) in a Haar basis: every product is in
    their span but X X, the last pair; the full diagonal algebra, with X X
    added, passes. Slices of one, two and all products agree."""
    U = haar_unitary(np.random.default_rng(11), 4)
    D1, D2, X = (U * w @ U.conj().T for w in
                 ([1, 1, 1, 0], [0, 0, 0, 1], [1, 2, 3, 0]))
    defects = []
    for pairs in (1, 2, 9):
        monkeypatch.setattr("oplattice.algebras._CHECK_SLICE", pairs * 16)
        with pytest.raises(NotClosedUnderProducts) as info:
            MatrixStarAlgebra([D1, D2, X])
        defects.append(info.value.defect)
        assert MatrixStarAlgebra([D1, D2, X, X @ X]).linear_dimension() == 4
    assert defects[0] > 0.1
    np.testing.assert_allclose(defects, defects[0], rtol=1e-12)


def block_algebra_basis(rng, blocks):
    """Basis of U ((+)_i M_d_i (x) I_m_i) U^* for blocks [(d_i, m_i), ...]
    and a Haar U: every block's matrix units, each times a real factor in
    [0.5, 2], with the identity in place of the first diagonal unit.
    Returns the stack and the index of a Hermitian non-identity element."""
    n = sum(d * m for d, m in blocks)
    units, hermitian, lo = [], [], 0
    for d, m in blocks:
        for a, b in np.ndindex(d, d):
            E = np.zeros((n, n), dtype=complex)
            E[lo:lo + d * m, lo:lo + d * m] = np.kron(
                np.eye(d)[:, [a]] @ np.eye(d)[[b]], np.eye(m))
            hermitian.append(a == b)
            units.append(E * rng.uniform(0.5, 2.0))
        lo += d * m
    units[0] = np.eye(n)
    U = haar_unitary(rng, n)
    return U @ np.array(units) @ U.conj().T, hermitian.index(True, 1)


# blocks [(d_i, m_i), ...] with 3k <= n^2 (every m_i >= 2) and with
# 3k > n^2 (two multiplicity-free blocks), for k = sum d_i^2
_CLOSURE_BLOCKS = {
    "span": st.lists(st.tuples(st.integers(1, 2), st.integers(2, 3)),
                     min_size=1, max_size=2),
    "complement": st.lists(st.tuples(st.integers(1, 4), st.just(1)),
                           min_size=2, max_size=2),
}


@pytest.mark.parametrize("side", ["span", "complement"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), eps=st.floats(1e-6, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_closure_gate_matches_the_pairwise_oracle(side, data, eps, seed):
    """Closed bases are admitted; one Hermitian element plus eps times a
    random Hermitian is refused with the oracle's defect. k above n^2 / 3
    reads residuals on the complement, at or below it on the span. Left
    out: the scalars, and n = 2, where span{I, X} is closed for every X
    (Cayley-Hamilton)."""
    blocks = data.draw(_CLOSURE_BLOCKS[side])
    n = sum(d * m for d, m in blocks)
    k = sum(d * d for d, _ in blocks)
    assume(k > 1 and n > 2)
    assert (3 * k > n * n) == (side == "complement") and k < n * n
    rng = np.random.default_rng(seed)
    stack, h = block_algebra_basis(rng, blocks)
    assert MatrixStarAlgebra(stack).linear_dimension() == k
    H = random_mats(rng, n, 1)[0]
    stack[h] += eps * (H + H.conj().T)
    with pytest.raises(NotClosedUnderProducts) as info:
        MatrixStarAlgebra(stack)
    np.testing.assert_allclose(info.value.defect,
                               closure_defect_oracle(stack), rtol=1e-6)


def test_closure_gate_on_the_complement_side_is_exact():
    """span{I, sx, sz} in C^2, k = 3 > 4 / 3: sz sx = i sy is orthogonal to
    the span, so the defect is ||i sy||_F = sqrt(2)."""
    with pytest.raises(NotClosedUnderProducts) as info:
        MatrixStarAlgebra([I2, SX, SZ])
    assert abs(info.value.defect - np.sqrt(2.0)) <= 1e-12


def _count_products(monkeypatch):
    """Patch algebras._products to record the number of products of every
    call; returns the record."""
    calls, products = [], algebras._products

    def counted(left, right):
        calls.append(len(left) * len(right))
        return products(left, right)
    monkeypatch.setattr("oplattice.algebras._products", counted)
    return calls


@pytest.mark.parametrize("side", ["span", "complement"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_generated_algebra_certificate_bounds_the_closure_defect(
        side, data, seed):
    """Two random elements of U ((+)_i M_d_i (x) I_m_i) U^*, complex Haar U,
    generate it, on each side of 3k = n^2. Its double commutant is read off
    the tied eigenblocks, with one kernel solve, and spans what the second
    solve finds; the certificate beta bounds the pairwise oracle's defect
    and admits it; the certified span is orthonormal, and contains and
    center agree with the algebra the constructor admits from the same
    basis."""
    blocks = data.draw(_CLOSURE_BLOCKS[side])
    n = sum(d * m for d, m in blocks)
    k = sum(d * d for d, _ in blocks)
    assume(k > 1)
    rng = np.random.default_rng(seed)
    stack, _ = block_algebra_basis(rng, blocks)
    weights = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
    gens = list(np.tensordot(weights[:2], stack, axes=1))
    with pytest.MonkeyPatch.context() as patch:
        calls = _kernel_domains(patch)
        _, basis, beta = _bicommutant(gens, None)
    assert len(calls) == 1 and len(basis) == k
    assert span_gap(basis, commutant(commutant(gens))) <= 1e-8
    assert closure_defect_oracle(np.array(basis)) <= beta <= DEFAULT_TOL
    alg = MatrixStarAlgebra.generated_by(gens)
    assert alg.linear_dimension() == k
    np.testing.assert_array_equal(alg.basis, basis)
    assert frobenius(alg._span.conj() @ alg._span.T - np.eye(k)) <= 1e-12
    direct = MatrixStarAlgebra(alg.basis)
    members = list(np.tensordot(weights[2:], stack, axes=1))
    others = random_mats(rng, n, 3)
    verdicts = [True] * 3 + [False] * 3
    assert [alg.contains(X) for X in members + others] == verdicts
    assert [direct.contains(X) for X in members + others] == verdicts
    centre, want = center(alg), center(direct)
    assert len(centre) == len(want) == len(blocks)
    assert span_gap(centre, want) <= 1e-8


def test_generated_by_admits_two_blocks_without_products(monkeypatch):
    """The two-block family, real and complex: generated_by forms no
    product, the constructor on the same basis does."""
    rng = np.random.default_rng(17)
    calls = _count_products(monkeypatch)
    for real in (True, False):
        for n, k in ((5, 2), (9, 3), (12, 6)):
            alg = MatrixStarAlgebra.generated_by(
                two_block_pair(rng, n, k, real))
            assert alg.linear_dimension() == k * k + (n - k) ** 2
            assert calls == []
            MatrixStarAlgebra(alg.basis)
            assert sum(calls) == len(alg.basis) ** 2
            calls.clear()


def test_generated_by_falls_back_to_the_product_gate(monkeypatch):
    """With the certificate above tolerance, generated_by runs the product
    gate: it admits the same basis as before, and refuses a span that is
    not closed (span{I, sx, sz}, defect sqrt(2))."""
    gens = two_block_pair(np.random.default_rng(3), 6, 2)
    want = MatrixStarAlgebra.generated_by(gens).basis
    calls = _count_products(monkeypatch)
    monkeypatch.setattr("oplattice.algebras._bicommutant",
                        lambda g, dim: (*_bicommutant(g, dim)[:2],
                                        2 * DEFAULT_TOL))
    alg = MatrixStarAlgebra.generated_by(gens)
    assert sum(calls) == len(want) ** 2
    np.testing.assert_array_equal(alg.basis, want)
    monkeypatch.setattr("oplattice.algebras._bicommutant",
                        lambda g, dim: (np.array([I2]),
                                        np.array([I2, SX, SZ]), 1.0))
    with pytest.raises(NotClosedUnderProducts) as info:
        MatrixStarAlgebra.generated_by([SZ])
    assert abs(info.value.defect - np.sqrt(2.0)) <= 1e-12


def test_a_full_basis_runs_no_span_gate(monkeypatch):
    """k = n^2 independent matrices span M_n, which holds I, every adjoint
    and every product: generated_by of two random complex 8 x 8 generators
    (the certified matrix units) and the constructor on a Haar-rotated
    full basis admit M_n with no _span_residual call; a dependent n^2 basis
    is still refused."""
    rng = np.random.default_rng(31)
    gens = random_mats(rng, 8, 2)
    U = haar_unitary(rng, 3)
    rotated = U @ np.eye(9, dtype=complex).reshape(9, 3, 3) @ U.conj().T
    dependent = [I2, SX, SZ, SX + 2.0 * SZ]

    def refused(*args):
        raise AssertionError("_span_residual called")
    monkeypatch.setattr("oplattice.algebras._span_residual", refused)
    assert MatrixStarAlgebra.generated_by(gens).linear_dimension() == 64
    assert MatrixStarAlgebra(rotated).linear_dimension() == 9
    with pytest.raises(ValueError, match="linearly dependent"):
        MatrixStarAlgebra(dependent)


def test_center_is_computed_once_and_kept():
    """center keeps its result: a second call and is_factor run no further
    _kernel and return or read the same read-only array, for the algebra
    generated_by builds and for the same basis admitted by the constructor,
    whichever of center and is_factor comes first."""
    gens = pauli_and_hermitian_blocks()
    for first in (center, is_factor):
        built = MatrixStarAlgebra.generated_by(gens)
        for alg in (built, MatrixStarAlgebra(built.basis)):
            factor = first(alg)
            with pytest.MonkeyPatch.context() as patch:
                calls = _kernel_domains(patch)
                centre = center(alg)
                assert center(alg) is centre and is_factor(alg) is False
            assert calls == [] and len(centre) == 2
            assert not centre.flags.writeable
            if first is center:
                assert factor is centre


def _untied_forest(W, V, starts, ranks):
    """_forest that ties no two eigenblocks."""
    owner = np.repeat(np.arange(len(ranks)), ranks)
    return np.arange(len(V)), owner, V.copy()


@settings(max_examples=25, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       min_size=1, max_size=3).filter(
                           lambda b: sum(d * m for d, m in b) <= 12),
       untied=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_generated_algebra_is_read_off_the_tied_eigenblocks(
        blocks, untied, seed):
    """Two random elements G of U ((+)_i M_d_i (x) I_m_i) U^*, complex Haar
    U: generated_by, double_commutant and the restricted basis of the one
    sector of the charge I span commutant(commutant(G)) and the word
    closure, of dimension sum d_i^2, with one commutant solve each. With no
    eigenblocks tied, the constraint map of a component with d_i > 1 does
    not vanish, and each falls back to a second solve; when a component also
    has m_i > 1, so does the second solve's, and generated_by admits the
    second solve's basis through the product gate. Left out: k = 1, the
    scalars."""
    n = sum(d * m for d, m in blocks)
    k = sum(d * d for d, _ in blocks)
    assume(k > 1)
    rng = np.random.default_rng(seed)
    stack, _ = block_algebra_basis(rng, blocks)
    weights = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    gens = list(np.tensordot(weights, stack, axes=1))
    solved, words = commutant(commutant(gens)), word_closure_basis(gens, n)
    assert len(solved) == len(words) == k
    calls, solve = [], algebras._commutant

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        if untied:
            patch.setattr(algebras, "_forest", _untied_forest)
        patch.setattr(algebras, "_commutant", counted)
        products = _count_products(patch)
        alg = MatrixStarAlgebra.generated_by(gens)
        report = superselection_sectors([np.eye(n)], gens)
        bases = [alg.basis, double_commutant(gens)]
    (sector,) = report.sectors
    B = report.joint.blocks[0][1]  # the sector's isometry onto C^n
    bases.append(B @ sector.restricted_basis @ B.conj().T)
    solves = 2 if untied and max(d for d, _ in blocks) > 1 else 1
    assert len(calls) == 3 * solves
    gated = solves == 2 and max(m for _, m in blocks) > 1
    assert sum(products) == (k * k if gated else 0)
    for basis in bases:
        assert len(basis) == k
        assert span_gap(basis, solved) <= 1e-8
        assert span_gap(basis, words) <= 1e-8


def test_generated_by_sends_a_bent_basis_through_the_product_gate(
        monkeypatch):
    """A mutant _forest whose turned eigenbasis V' is 1 + 1e-6 times the
    true one: the constraint map still vanishes, so A'' is read off V', but
    e = ||V'^*V' - I||_F puts beta past DEFAULT_TOL, so generated_by runs
    the product gate. The span is that of the true algebra, so the gate
    admits it, and beta still bounds the pairwise oracle's defect."""
    rng = np.random.default_rng(5)
    stack, _ = block_algebra_basis(rng, [(2, 3), (1, 4)])
    weights = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    gens = list(np.tensordot(weights, stack, axes=1))
    want = MatrixStarAlgebra.generated_by(gens).basis
    forest = algebras._forest

    def bent(*args):
        pos, owner, V = forest(*args)
        return pos, owner, V * (1 + 1e-6)
    monkeypatch.setattr(algebras, "_forest", bent)
    _, basis, beta = _bicommutant(gens, None)
    assert DEFAULT_TOL < beta and closure_defect_oracle(basis) <= beta
    calls = _count_products(monkeypatch)
    alg = MatrixStarAlgebra.generated_by(gens)
    assert sum(calls) == 25
    np.testing.assert_array_equal(alg.basis, basis)
    assert span_gap(basis, want) <= 1e-8


def test_a_tall_kernel_goes_through_one_qr(monkeypatch):
    """A 4196 x 16 complex L: five row groups, each adding two independent
    constraints. Its kernel comes from one QR, then the SVD of R: 6 rows,
    each within 1e-12 of L's null space; a group left out would leave two
    more kernel rows."""
    rng = np.random.default_rng(7)
    L = np.concatenate([rng.standard_normal((rows, 2))
                        @ random_mats(rng, 16, 1)[0][:2]
                        for rows in (1024, 1024, 1024, 1024, 100)])
    calls, qr = [], np.linalg.qr

    def counted(A, *args, **kwargs):
        calls.append(A.shape)
        return qr(A, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counted)
    x = _kernel(L)
    assert calls == [L.shape] and len(x) == 6
    assert max(frobenius(L @ row) for row in x) <= 1e-12


def _kernel_domains(patch):
    """Patch algebras._kernel, through the MonkeyPatch patch, to record
    (columns, ||L||_F, kernel rows) of every call; returns the record."""
    calls, kernel = [], algebras._kernel

    def recorded(L):
        x = kernel(L)
        calls.append((L.shape[1], frobenius(L), len(x)))
        return x
    patch.setattr("oplattice.algebras._kernel", recorded)
    return calls


def test_a_zero_constraint_map_keeps_the_whole_domain(monkeypatch):
    """||L||_F at NULLSPACE_RTOL: every unknown is free, with no QR or SVD.
    Twice that keeps one singular value, through the SVD, as before."""
    L = np.zeros((40, 4), dtype=complex)
    L[3, 1] = 2 * NULLSPACE_RTOL
    assert len(_kernel(L)) == 3
    L[3, 1] = NULLSPACE_RTOL

    def refused(*args, **kwargs):
        raise AssertionError("a zero map needs no factorization")
    monkeypatch.setattr(np.linalg, "svd", refused)
    monkeypatch.setattr(np.linalg, "qr", refused)
    np.testing.assert_array_equal(_kernel(L), np.eye(4))


@pytest.mark.parametrize("k", [520, 600, 1000, 1030, 1060])
def test_generators_whose_squares_underflow_keep_their_algebra(k):
    """Two random complex 4 x 4 generators times 2^-k, whose squared entries
    underflow: the commutant is the scalars and the generated algebra is all
    of M_4, as unscaled, also where the entries and norms are subnormal
    (k > 1022), so that 1 / norm overflows. While the entries are normal,
    frobenius is exactly 2^-k times the unscaled norm, _fro_batch gives each
    matrix of a stack those bits, and a zero matrix in the stack reads 0."""
    G = random_mats(np.random.default_rng(11), 4, 2)
    small = [2.0 ** -k * M for M in G]
    assert len(commutant(small)) == 1
    assert MatrixStarAlgebra.generated_by(small).linear_dimension() == 16
    if np.abs(np.stack(small).view(float)).min() < np.finfo(float).tiny:
        return
    want = [2.0 ** -k * frobenius(M) for M in G]
    assert [frobenius(M) for M in small] == want
    stack = np.stack([small[0], np.zeros((4, 4), dtype=complex), small[1]])
    np.testing.assert_array_equal(_fro_batch(stack), [want[0], 0.0, want[1]])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # products
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("k", [0, 300, 520, 600])
def test_a_gate_refuses_a_defect_lost_to_overflow(k):
    """span{I, sx, sz} is not closed (sz sx = i sy), and G, which mixes the
    eigenspaces of the charge diag(1, 1, -1, -1), is not sector-diagonal.
    From 2^520 the products overflow and the defects are NaN; each gate
    refuses a NaN as it refuses a finite defect over its bound."""
    s = 2.0 ** k
    span = [s * I2, s * SX, s * SZ]
    with pytest.raises(NotClosedUnderProducts):
        MatrixStarAlgebra(span)
    with pytest.raises(ValueError, match="does not stay in the span"):
        algebra_from_matrices(span)
    G = np.zeros((4, 4))
    G[0, 2] = G[2, 0] = 1.0
    with pytest.raises(NonCentralCharge):
        superselection_sectors([s * np.diag([1.0, 1, -1, -1])], [s * G])


def test_weights_are_drawn_once_per_count():
    for k in (1, 2, 3, 64):
        fresh = np.random.default_rng(algebras._WEIGHT_SEED).uniform(
            0.5, 1.0, (k, 2)) @ [1.0, 1.0j]
        np.testing.assert_array_equal(_weights(k), fresh)
        assert _weights(k) is _weights(k)
        assert not _weights(k).flags.writeable


@settings(max_examples=30, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                       min_size=1, max_size=3).filter(
                           lambda b: sum(d * m for d, m in b) <= 24),
       near=st.one_of(st.none(), st.floats(1.0, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_commutant_of_a_block_algebra_ties_its_eigenblocks(
        blocks, near, seed):
    """Two random elements of U ((+)_i M_d_i (x) I_m_i) U^*, complex Haar U,
    1-3 components: the commutant has dimension sum m_i^2 and the oracle's
    span. With near, both share 10^near times one Hermitian basis element,
    so h's eigenvalues come in clusters 10^-near of the spread wide; without
    it, W ties the d_i eigenblocks of each component, so the kernel solves
    for sum m_i^2 unknowns. Left out: k = 1, the scalars."""
    n = sum(d * m for d, m in blocks)
    k = sum(d * d for d, _ in blocks)
    assume(k > 1)
    rng = np.random.default_rng(seed)
    stack, h = block_algebra_basis(rng, blocks)
    weights = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    dominant = 0.0 if near is None else 10.0 ** near
    gens = list(np.tensordot(weights, stack, axes=1) + dominant * stack[h])
    with pytest.MonkeyPatch.context() as patch:
        calls = _kernel_domains(patch)
        prime = commutant(gens)
    want = commutant_oracle(gens, n)
    assert len(prime) == len(want) == sum(m * m for _, m in blocks)
    assert span_gap(prime, want) <= 1e-8
    if near is None:
        assert [c[0] for c in calls] in ([], [len(want)])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 3), levels=st.integers(1, 4),
       log_delta=st.one_of(st.none(), st.floats(-5.0, -4.0)),
       seed=st.integers(0, 2**32 - 1))
def test_commutant_of_a_commuting_family_matches_oracle(
        n, k, levels, log_delta, seed):
    """k commuting normal matrices, each with at most levels distinct complex
    eigenvalues in one Haar basis: the constraint map is zero, so every
    block-diagonal unknown is kept. Each plus delta times a random
    Hermitian, delta from 1e-5 to 1e-4, no longer commutes: its constraints
    lie below 1e-3 in norm and must still be kept. (Much smaller delta
    splits a repeated eigenvalue of h by less than its eigenvectors'
    accuracy allows at the NULLSPACE_RTOL cutoff.)"""
    rng = np.random.default_rng(seed)
    U = haar_unitary(rng, n)
    values = rng.standard_normal((k, levels)) + 1j * rng.standard_normal(
        (k, levels))
    gens = [(U * v[rng.integers(0, levels, n)]) @ U.conj().T for v in values]
    if log_delta is not None:
        gens = [G + 10.0 ** log_delta * (H + H.conj().T)
                for G, H in zip(gens, random_mats(rng, n, k))]
    with pytest.MonkeyPatch.context() as patch:
        calls = _kernel_domains(patch)
        prime = commutant(gens)
    want = commutant_oracle(gens, n)
    assert len(prime) == len(want)
    assert span_gap(prime, want) <= 1e-8
    if log_delta is None:
        assert all(norm <= NULLSPACE_RTOL and rows == cols
                   for cols, norm, rows in calls)


def test_word_closure_spans_eigenprojectors_of_spread_spectrum():
    # levels 0.5 .. 4.5: raw powers up to H^7 span 1e-6 off the true span
    w = np.linspace(0.5, 4.5, 8)
    for seed in range(3):
        U = haar_unitary(np.random.default_rng(seed), 8)
        eigenprojectors = [np.outer(u, u.conj()) for u in U.T]
        words = word_closure_basis([(U * w) @ U.conj().T], 8)
        assert len(words) == 8
        assert span_gap(words, eigenprojectors) <= 1e-10


def charge_family(rng, n):
    """Two commuting charges and two observables in a Haar basis. The basis
    splits into sectors of rank at most 4, each with its own pair of charge
    values (either charge alone repeats across sectors). On a sector the two
    observables are random complex blocks, which generate all of M_r, or
    multiples of the identity; the first also leaks 1e-11 across sectors,
    below the centrality gate. Returns the charges, the observables, the
    exact atoms (value, projector) of each charge and, per sector in label
    order, the dimension of its compressed algebra."""
    U = haar_unitary(rng, n)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 5)), n - sum(sizes)))
    side = int(np.ceil(np.sqrt(len(sizes))))
    pairs = [divmod(int(c), side) for c in rng.permutation(side * side)]
    values = np.repeat(np.array(pairs[:len(sizes)], dtype=float), sizes, axis=0)
    obs = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    algebra_dims = {}
    lo = 0
    for pair, r in zip(pairs, sizes):
        full = rng.random() < 0.5
        for G in obs:
            G[lo:lo + r, lo:lo + r] = (random_mats(rng, r, 1)[0] if full
                                       else rng.standard_normal() * np.eye(r))
        algebra_dims[tuple(map(float, pair))] = r * r if full else 1
        lo += r
    sector = np.repeat(np.arange(len(sizes)), sizes)
    obs[0] += 1e-11 * random_mats(rng, n, 1)[0] * (sector[:, None] != sector)
    charges, families = [], []
    for k in range(2):
        charges.append((U * values[:, k]) @ U.conj().T)
        families.append([(v, U[:, values[:, k] == v]
                          @ U[:, values[:, k] == v].conj().T)
                         for v in np.unique(values[:, k])])
    obs = [U @ G @ U.conj().T for G in obs]
    return charges, obs, families, [algebra_dims[k] for k in sorted(algebra_dims)]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_superselection_matches_product_oracle(n, seed):
    charges, obs, families, algebra_dims = charge_family(
        np.random.default_rng(seed), n)
    report = superselection_sectors(charges, obs)
    want = joint_atoms_dense(families)
    assert len(report.sectors) == len(want) == len(algebra_dims)
    offdiag = 0.0
    for sec, (label, P), dim_a in zip(report.sectors, want, algebra_dims):
        rank = round(np.trace(P).real)
        assert sec.rank == rank
        for got, value in ((sec.label, label), (sec.charge_values, label)):
            assert np.abs(np.subtract(got, value)).max() <= 1e-10 * max(
                1.0, np.abs(value).max())
        assert frobenius(sec.projector - P) <= 1e-10 * max(1.0, frobenius(P))
        assert len(sec.restricted_basis) == dim_a
        assert sec.irreducible == (dim_a == rank * rank)
        for G in obs:
            offdiag = max(offdiag, frobenius(P @ G @ (np.eye(n) - P)))
    # the leak is about 1e-11 * n; rounding stays near 1e-16 * ||G||
    scale = max(1.0, *(frobenius(G) for G in obs))
    assert abs(report.offdiag_defect - offdiag) <= 1e-13 * scale
