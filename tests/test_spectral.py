"""Spectral decomposition, functional calculus, and joint diagonalization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oplattice.spectral
from oplattice import (
    EigenSystem,
    HermitianOperator,
    MissingSample,
    NonCommuting,
    ProjectorValuedMeasure,
    frobenius,
    func_calculus,
    joint_pvm,
    marginal_pvm,
    evolve_unitary,
    operator_norm,
    pvm_commute,
    pvm_from_json,
    pvm_residuals,
    pvm_to_json,
    spectral_decompose,
)

from oracles import (
    char_poly_roots,
    commute_defect_dense,
    diag_joint_atoms,
    expm_oracle,
    func_calculus_dense,
    joint_atoms_dense,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_pauli_z_eigenprojectors():
    pvm = spectral_decompose(SZ)
    assert pvm.labels == [-1.0, 1.0]
    np.testing.assert_allclose(pvm.projector_for(-1.0), np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(pvm.projector_for(1.0), np.diag([1.0, 0.0]), atol=1e-14)


def test_roundtrip_and_roots_match_characteristic_polynomial():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8, 12):
        A = random_hermitian(rng, n)
        pvm = spectral_decompose(A)
        back = func_calculus(pvm, lambda lam: lam)
        assert frobenius(back - A) <= 1e-12 * max(1.0, frobenius(A))
        # expand by multiplicity before comparing against the polynomial roots
        expanded = []
        for lam, P in pvm.atoms:
            expanded.extend([lam] * int(round(np.trace(P).real)))
        roots = char_poly_roots(A)
        np.testing.assert_allclose(sorted(expanded), sorted(roots), atol=1e-8)


def test_residual_report_is_tiny_for_honest_input():
    rng = np.random.default_rng(5)
    pvm = spectral_decompose(random_hermitian(rng, 9))
    rep = pvm_residuals(pvm)
    assert rep["hermiticity"] <= 1e-13
    assert rep["idempotency"] <= 1e-12
    assert rep["orthogonality"] <= 1e-12
    assert rep["completeness"] <= 1e-12


def test_near_degenerate_pair_merges_under_default_clustering():
    H = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
    pvm = spectral_decompose(H)
    assert len(pvm) == 2
    lam, P = pvm.atoms[0]
    assert abs(lam - (1.0 + 5e-13)) < 1e-12
    assert abs(np.trace(P).real - 2.0) < 1e-12


def test_zero_cluster_tolerance_keeps_split():
    H = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
    assert len(spectral_decompose(H, cluster_tol=0.0)) == 3


def test_square_function_matches_matrix_product():
    rng = np.random.default_rng(7)
    A = random_hermitian(rng, 6)
    pvm = spectral_decompose(A)
    sq = func_calculus(pvm, lambda lam: lam * lam)
    assert frobenius(sq - A @ A) <= 1e-11 * max(1.0, frobenius(A @ A))


def test_exponential_function_matches_expm():
    rng = np.random.default_rng(13)
    A = random_hermitian(rng, 5)
    pvm = spectral_decompose(A)
    got = func_calculus(pvm, lambda lam: np.exp(-0.7j * lam))
    assert frobenius(got - expm_oracle(-0.7j * A)) <= 1e-10


def test_sampled_function_table_and_missing_label():
    pvm = spectral_decompose(SZ)
    flipped = func_calculus(pvm, {-1.0: 2.0, 1.0: 3.0})
    np.testing.assert_allclose(flipped, np.diag([3.0, 2.0]), atol=1e-14)
    # a key within tolerance of the label is still found
    near = func_calculus(pvm, {-1.0 + 1e-12: 2.0, 1.0: 3.0})
    np.testing.assert_allclose(near, np.diag([3.0, 2.0]), atol=1e-11)
    with pytest.raises(MissingSample):
        func_calculus(pvm, {1.0: 3.0})


def test_non_finite_function_value_is_refused_before_the_product():
    pvm = spectral_decompose(np.diag([1e200, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"f\(1e\+200\) = \(inf\+0j\)"):
            func_calculus(pvm, lambda x: x * x)
        with pytest.raises(ValueError, match=r"f\(-1\.0\)"):
            func_calculus(spectral_decompose(SZ), {-1.0: np.nan, 1.0: 1.0})


def test_joint_atoms_match_diagonal_oracle():
    A = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
    B = np.diag([3.0, 4.0, 3.0, 4.0]).astype(complex)
    joint = joint_pvm([A, B])
    expected = diag_joint_atoms([np.diag(A).real, np.diag(B).real])
    assert len(joint) == len(expected)
    for label, P in joint.atoms:
        key = tuple(round(v) for v in label)
        np.testing.assert_allclose(P, expected[key], atol=1e-12)


def test_joint_pvm_refines_rotated_commuting_pair():
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    A = q @ np.diag([1.0, 1.0, 2.0, 3.0, 3.0]) @ q.conj().T
    B = q @ np.diag([1.0, 2.0, 2.0, 4.0, 5.0]) @ q.conj().T
    joint = joint_pvm([A, B])
    rep = pvm_residuals(joint)
    assert rep["completeness"] <= 1e-10
    # reconstruct each operator from its coordinate of the joint labels
    for k, M in enumerate((A, B)):
        back = sum(lab[k] * P for lab, P in joint.atoms)
        assert frobenius(back - M) <= 1e-8 * frobenius(M)
    marg = marginal_pvm(joint, 0)
    direct = spectral_decompose(A)
    assert len(marg) == len(direct)
    for (la, Pa), (lb, Pb) in zip(marg.atoms, direct.atoms):
        assert abs(la - lb) < 1e-8
        assert frobenius(Pa - Pb) < 1e-7


def test_joint_pvm_rejects_noncommuting_inputs():
    with pytest.raises(NonCommuting):
        joint_pvm([SX, SZ])


def test_pvm_commute_detects_both_cases():
    px = spectral_decompose(SX)
    pz = spectral_decompose(SZ)
    assert not pvm_commute(px, pz)
    rng = np.random.default_rng(31)
    A = random_hermitian(rng, 4)
    assert pvm_commute(spectral_decompose(A), spectral_decompose(A @ A))


def test_constructor_rejects_incomplete_or_relabeled_atoms():
    good = spectral_decompose(SZ)
    with pytest.raises(ValueError):
        ProjectorValuedMeasure(2, [(1.0, np.diag([1.0, 0.0]).astype(complex))])
    with pytest.raises(ValueError):
        ProjectorValuedMeasure(2, [(1.0, a[1]) for a in good.atoms])


def test_decompose_refuses_non_orthonormal_eigenvectors(monkeypatch):
    rng = np.random.default_rng(41)
    generic = random_hermitian(rng, 6)
    degenerate = np.diag([1.0, 1.0, 1.0, 2.0, 3.0]).astype(complex)
    assert np.trace(spectral_decompose(degenerate).atoms[0][1]).real == 3.0
    solve = oplattice.spectral.eig_hermitian

    def skewed(A):
        es = solve(A)
        V = es.eigenvectors.copy()
        V[:, 0] += 1e-6 * V[:, 1]
        return EigenSystem(es.eigenvalues, V)

    monkeypatch.setattr(oplattice.spectral, "eig_hermitian", skewed)
    for H in (generic, degenerate):
        with pytest.raises(ValueError, match="invariants violated"):
            spectral_decompose(H)


def test_json_roundtrip_preserves_atoms_exactly():
    rng = np.random.default_rng(37)
    pvm = spectral_decompose(random_hermitian(rng, 4))
    back = pvm_from_json(pvm_to_json(pvm))
    assert back.labels == pvm.labels
    for (_, P), (_, Q) in zip(back.atoms, pvm.atoms):
        assert np.array_equal(P, Q)


# --- the factored route against the dense one --------------------------------

def _spectrum(kind, n, rng):
    if kind == "ill_scaled":
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
    w = rng.standard_normal(n)
    if kind == "rank3_cluster":
        w[:3] = w[0]
    elif kind.startswith("gap_"):
        # clusters of equally spaced eigenvalues, gap apart: below the
        # default cluster threshold they merge, above it they stay split
        m = max(1, n // 3)
        idx = np.arange(n)
        w = w[idx % m] + float(kind[4:]) * (idx // m)
    return w


def _hermitian_with_spectrum(w, rng):
    n = len(w)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    H = (q * w) @ q.conj().T
    return (H + H.conj().T) / 2


_KINDS = ("generic", "ill_scaled", "rank3_cluster",
          "gap_1e-13", "gap_1e-10", "gap_1e-8", "gap_1e-6")

_FUNCS = {
    "identity": lambda lam: lam,
    "square": lambda lam: lam * lam,
    "phase": lambda lam: np.exp(-0.7j * lam),
    "sign": lambda lam: 1.0 if lam >= 0 else -1.0j,
}

_spectral_cases = given(
    kind=st.sampled_from(_KINDS),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)


def _relative_gap(got, want):
    return frobenius(got - want) / max(1.0, frobenius(want))


@settings(max_examples=40, deadline=None)
@_spectral_cases
def test_factored_func_calculus_matches_dense_route(kind, n, seed):
    rng = np.random.default_rng(seed)
    n = max(n, 3) if kind == "rank3_cluster" else n
    pvm = spectral_decompose(_hermitian_with_spectrum(_spectrum(kind, n, rng), rng))
    labels = pvm.labels
    # the same atoms supplied as matrices, factored by their eigensplit
    given = ProjectorValuedMeasure(pvm.dim, pvm.atoms)
    for f in _FUNCS.values():
        want = func_calculus_dense(pvm.atoms, f)
        for measure in (pvm, given):
            assert _relative_gap(func_calculus(measure, f), want) <= 1e-10
        # sampled form, every key a near miss of its label
        jitter = 1e-11 * rng.uniform(-1, 1, len(labels))
        table = {lab + d * max(1.0, abs(lab)): f(lab)
                 for lab, d in zip(labels, jitter)}
        assert _relative_gap(func_calculus(pvm, table), want) <= 1e-10
    del table[next(iter(table))]
    for measure in (pvm, given):
        with pytest.raises(MissingSample):
            func_calculus(measure, table)


@settings(max_examples=40, deadline=None)
@_spectral_cases
def test_evolution_on_factor_matches_expm(kind, n, seed):
    rng = np.random.default_rng(seed)
    n = max(n, 3) if kind == "rank3_cluster" else n
    w = np.sort(_spectrum(kind, n, rng))
    H = _hermitian_with_spectrum(w, rng)
    t = rng.uniform(-3, 3) / max(1.0, np.abs(w).max())
    pvm = spectral_decompose(H)
    # a merged cluster is evaluated at its mean label
    ranks = [int(round(np.trace(P).real)) for _, P in pvm.atoms]
    shift = np.abs(np.repeat(pvm.labels, ranks) - w).max()
    got = evolve_unitary(H, t).matrix
    bound = 1e-10 + abs(t) * shift * np.sqrt(n)
    assert frobenius(got - expm_oracle(-1j * t * H)) <= bound


def test_func_calculus_leaves_atoms_unbuilt():
    rng = np.random.default_rng(43)
    pvm = spectral_decompose(random_hermitian(rng, 8))
    func_calculus(pvm, np.exp)
    func_calculus(pvm, {lab: 1.0 for lab in pvm.labels})
    assert pvm._atoms is None


# --- combining measures on their factors against the dense atom routes -------

def _commuting_family(rng, n, m):
    """m commuting complex Hermitians in one Haar basis, with the exact
    atoms (label, projector) of each. The basis vectors fall into up to six
    cells, shared degenerate blocks that every operator maps to one of its
    own up to six levels, spaced 0.1 to 1 apart and rescaled by 10^+-3. An
    operator may also spread each level into a cluster 1e-12 of its spread
    wide, which spectral_decompose merges; the label is the cluster mean."""
    U = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    cells = rng.integers(0, rng.integers(1, 7), n)
    ops, families = [], []
    for _ in range(m):
        levels = np.cumsum(rng.uniform(0.1, 1.0, 6)) * 10.0 ** rng.uniform(-3, 3)
        which = rng.integers(0, 6, 6)[cells]
        w = levels[which]
        if rng.random() < 0.5:
            w = w + 1e-12 * (levels[-1] - levels[0]) * rng.uniform(-1, 1, n)
        H = (U * w) @ U.conj().T
        ops.append((H + H.conj().T) / 2)
        families.append([(float(np.mean(w[which == j])),
                          U[:, which == j] @ U[:, which == j].conj().T)
                         for j in np.unique(which)])
    return ops, families


def _close(got, want):
    return abs(got - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), commuting=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_commute_defect_matches_dense_oracle(n, commuting, seed):
    rng = np.random.default_rng(seed)
    ops, families = _commuting_family(rng, n, 2)
    if not commuting:  # the second operator in its own Haar basis
        (ops[1],), (families[1],) = _commuting_family(rng, n, 1)
    p, q = (spectral_decompose(A) for A in ops)
    want = commute_defect_dense(*families)
    assert _close(oplattice.spectral._commute_defect(p, q)[0], want)
    assert pvm_commute(p, q, tol=1e-8) == (want <= 1e-8)
    if want > 1e-8:
        with pytest.raises(NonCommuting) as exc:
            joint_pvm(ops)
        assert _close(exc.value.defect, want)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), m=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_joint_and_marginals_match_product_oracle(n, m, seed):
    ops, families = _commuting_family(np.random.default_rng(seed), n, m)
    joint = joint_pvm(ops)
    want = joint_atoms_dense(families)
    assert len(joint) == len(want)
    for (label, P), (lab, Q) in zip(joint.atoms, want):
        assert all(_close(x, y) for x, y in zip(label, lab))
        assert _relative_gap(P, Q) <= 1e-10
        assert np.array_equal(P, P.conj().T)
    assert joint.labels == sorted(joint.labels)
    for k, family in enumerate(families):
        marginal = marginal_pvm(joint, k)
        assert len(marginal) == len(family)
        for (label, P), (lab, Q) in zip(marginal.atoms, family):
            assert _close(label, lab)
            assert _relative_gap(P, Q) <= 1e-10
