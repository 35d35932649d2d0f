"""Spectral decomposition, functional calculus, and joint diagonalization."""

import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oplattice.spectral
from oplattice import (
    EigenSystem,
    HermitianOperator,
    MissingSample,
    NonCommuting,
    NotHermitian,
    ProjectorValuedMeasure,
    cli,
    dumps,
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
from oplattice.linalg import DEFAULT_TOL, _hermitian_parts, as_stack

from oracles import (
    _atom_residuals,
    char_poly_roots,
    commute_defect_dense,
    completeness_two_products,
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
        V[..., 0] += 1e-6 * V[..., 1]
        return EigenSystem(es.eigenvalues, V)

    monkeypatch.setattr(oplattice.spectral, "eig_hermitian", skewed)
    for H in (generic, degenerate):
        with pytest.raises(ValueError, match="invariants violated"):
            spectral_decompose(H)


def test_json_roundtrip_preserves_atoms_exactly():
    rng = np.random.default_rng(37)
    pvm = spectral_decompose(random_hermitian(rng, 4))
    obj = json.loads(dumps(pvm_to_json(pvm)))
    back = pvm_from_json(obj)
    assert back.labels == pvm.labels
    for (_, P), (_, Q) in zip(back.atoms, pvm.atoms):
        assert np.array_equal(P, Q)
    obj["atoms"][0]["rank"] = 2
    with pytest.raises(ValueError, match="declared rank 2 but trace says 1"):
        pvm_from_json(obj)


@pytest.mark.parametrize("where, key, value, said", [
    ((), "dim", 2.9, r"dim 2.9 and ranks \[1, 1\] must be non-negative"),
    ((), "dim", True, "dim True and"),
    ((), "dim", "2", "dim '2' and"),
    ((), "dim", -2, "dim -2 and"),
    (("atoms", 0), "rank", True, r"ranks \[True, 1\] must be"),
    (("atoms", 0), "rank", 1.0, r"ranks \[1.0, 1\] must be"),
    (("atoms", 0), "label", [True], r"label \[True\] must hold numbers"),
    (("atoms", 0), "label", ["1.0"], r"label \['1.0'\] must hold"),
])
def test_json_fields_of_the_wrong_type_are_refused(where, key, value, said):
    """dim and rank are JSON integers and labels hold numbers: a wrong type
    is refused, not coerced by int() or float()."""
    obj = json.loads(dumps(pvm_to_json(spectral_decompose(np.diag(
        [1.0, -1.0])))))
    node = obj
    for step in where:
        node = node[step]
    node[key] = value
    with pytest.raises(ValueError, match=said):
        pvm_from_json(obj)


def test_given_atoms_are_copied_and_read_only():
    """A later write to the caller's arrays leaves the measure as admitted,
    and its atoms, like those the library builds, refuse writes."""
    P = np.diag([1.0, 0.0]).astype(complex)
    Q = np.eye(2, dtype=complex) - P
    pvm = ProjectorValuedMeasure(2, [(0.0, P), (1.0, Q)])
    P[0, 0] = 5.0
    Q[1, 1] = 7.0
    assert np.array_equal(pvm.atoms[0][1], np.diag([1.0, 0.0]))
    assert np.array_equal(pvm.atoms[1][1], np.diag([0.0, 1.0]))
    assert np.array_equal(pvm_to_json(pvm)["atoms"][0]["projector"],
                          np.diag([1.0, 0.0]))
    assert np.array_equal(func_calculus(pvm, lambda x: x),
                          np.diag([0.0, 1.0]))
    for _, atom in pvm.atoms:
        with pytest.raises(ValueError):
            atom[0, 0] = 0.0


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


# --- the decomposition step's shortcuts against their general form ----------

def _split_by_diff(w, cluster_tol):
    """The cluster split through np.diff with prepend and append, for every
    spectrum: the general form of _clusters."""
    threshold = cluster_tol * max(1.0, float(w[-1] - w[0]))
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > threshold)
    ranks = np.diff(starts, append=len(w))
    labels = [float(w[a]) if r == 1 else float(np.mean(w[a:a + r]))
              for a, r in zip(starts.tolist(), ranks.tolist())]
    return labels, starts, ranks


def _residuals_by_tiling(V, starts):
    """The factor bounds with the Gram tiled by reduceat, whatever the
    ranks: the general form of _factor_residuals. Completeness is the mass
    of the whole Gram defect, ||V^*V - I||_F."""
    tiles = np.abs(V.conj().T @ V - np.eye(V.shape[0])) ** 2
    completeness = float(np.sqrt(tiles.sum()))
    tiles = np.add.reduceat(np.add.reduceat(tiles, starts, axis=0), starts,
                            axis=1)
    fd = float(np.sqrt(np.diagonal(tiles).max()))
    np.fill_diagonal(tiles, 0.0)
    return {
        "hermiticity": 0.0,
        "idempotency": (1.0 + fd) * fd,
        "completeness": completeness,
        "orthogonality": float(np.sqrt(tiles.sum())) + 2.0 * fd,
    }


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-1e3, 1e3),
       gaps=st.lists(st.sampled_from([0.0, 1e-13, 5e-9, 9.9e-9, 1e-8,
                                      1.01e-8, 2e-8, 1e-6, 0.5]),
                     max_size=15),
       scale=st.floats(-4.0, 4.0),
       cluster_tol=st.sampled_from([oplattice.spectral.SOLVER_TOL, 0.0, 1e-6]))
def test_cluster_split_matches_the_diff_split(start, gaps, scale,
                                              cluster_tol):
    """Near-degenerate ascending spectra, with gaps near the cut of
    cluster_tol * max(1, spread): _clusters gives the labels, starts and
    ranks of the np.diff split, bit for bit."""
    w = start + np.concatenate([[0.0], np.cumsum(gaps)]) * 10.0 ** scale
    got = oplattice.spectral._clusters(w, cluster_tol)
    want = _split_by_diff(w, cluster_tol)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), bend=st.sampled_from([0.0, 1e-12, 1e-6]),
       seed=st.integers(0, 2**32 - 1))
def test_rank_one_factor_bounds_match_the_tiling(n, bend, seed):
    """With every atom of rank 1, _factor_residuals skips both reduceat
    tilings: its bounds are the tiled ones bit for bit. A spectrum with a
    merged pair takes the tiling."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V = np.linalg.qr(z)[0]
    V[:, 0] += bend * V[:, -1]
    for starts in (np.arange(n), np.arange(n)[np.arange(n) != 1]):
        (report,) = oplattice.spectral._factor_residuals(V[None], [starts])
        assert report == _residuals_by_tiling(V, starts)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 24), k=st.integers(1, 3),
       bend=st.just(0.0) | st.floats(-12.0, -6.0).map(lambda e: 10.0 ** e),
       merged=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_one_product_completeness_matches_the_two_product_reference(
        n, k, bend, merged, seed):
    """Completeness read off the Gram defect alone, ||V^*V - I||_F, is the
    two-product ||VV^* - I||_F within 2 n^2 eps, on a stack of k complex
    factors, unitary or bent by 1e-12 to 1e-6, split into rank-1 blocks or
    with some merged."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    V = np.linalg.qr(z)[0] + bend * z / np.sqrt(n)
    cut = rng.random(n) < 0.5 if merged else np.ones(n, dtype=bool)
    cut[0] = True
    reports = oplattice.spectral._factor_residuals(
        V, [np.flatnonzero(cut)] * k)
    for report, W in zip(reports, V):
        assert (abs(report["completeness"] - completeness_two_products(W))
                <= 2 * n * n * np.finfo(float).eps)


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


def _bits(pvm):
    """Labels, ranks, residual report and the bytes of every block."""
    return (pvm.labels, pvm.ranks, pvm_residuals(pvm),
            [B.tobytes() for _, B in pvm.blocks])


def test_kept_factor_is_read_only_and_reused_bit_for_bit():
    rng = np.random.default_rng(29)
    w = np.array([-1.0, 0.5, 0.5, 0.5, 2.0, 3.5])
    H = HermitianOperator(_hermitian_with_spectrum(w, rng))
    first = spectral_decompose(H)
    assert first.ranks == [1, 3, 1, 1]
    for _, B in first.blocks:
        with pytest.raises(ValueError):
            B[0, 0] = 0.0
    for _, P in first.atoms:
        with pytest.raises(ValueError):
            P[0, 0] = 0.0
    second = spectral_decompose(H)
    # a new measure over the kept factor: atoms built on one stay with it
    assert second is not first and second._atoms is None
    assert _bits(second) == _bits(first)
    assert _bits(second) == _bits(spectral_decompose(HermitianOperator(H.matrix)))
    assert np.array_equal(func_calculus(second, np.exp), func_calculus(first, np.exp))


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


# --- atoms given as matrices: the factor gate and the JSON layout -----------

# The gate's keys are bounds and the oracle's values measured defects, each
# with rounding of a few n eps: a key may fall short of its defect by this
# much times n.
_ROUNDING = 64 * np.finfo(float).eps


def _unit(rng, n, hermitian):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = X + X.conj().T if hermitian else X
    return X / frobenius(X)


def _perturbed(atoms, how, eps, rng):
    """The atoms moved by eps: each by a Hermitian or a general matrix of
    unit Frobenius norm, or only the first, rotated by exp(i eps K) for a
    Hermitian K of unit norm, which keeps it a projector."""
    n = len(atoms[0][1])
    if how == "rotate":
        W = expm_oracle(1j * eps * _unit(rng, n, True))
        return [(atoms[0][0], W @ atoms[0][1] @ W.conj().T)] + atoms[1:]
    return [(label, P + eps * _unit(rng, n, how == "hermitian"))
            for label, P in atoms]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(_KINDS), n=st.integers(1, 12),
       eps=st.one_of(st.just(0.0), st.floats(1e-14, 1e-6)),
       how=st.sampled_from(["hermitian", "general", "rotate"]),
       seed=st.integers(0, 2**32 - 1))
def test_given_atom_gate_bounds_the_dense_defects(kind, n, eps, how, seed):
    """Given atoms are admitted on their factor: each reported key is at
    least the defect the dense oracle measures, less _ROUNDING n, and every
    draw the oracle puts over tol is refused."""
    rng = np.random.default_rng(seed)
    n = max(n, 3) if kind == "rank3_cluster" else n
    pvm = spectral_decompose(_hermitian_with_spectrum(_spectrum(kind, n, rng), rng))
    atoms = _perturbed(pvm.atoms, how, eps, rng)
    want = _atom_residuals(n, atoms)
    try:
        _, got = oplattice.spectral._given_factor(np.stack([P for _, P in atoms]))
    except ValueError:  # the weighted sum's clusters split: no bounds
        assert max(want.values()) > oplattice.spectral.DEFAULT_TOL
    else:
        for key, value in want.items():
            assert got[key] >= value - _ROUNDING * n, (key, got, want)
    if max(want.values()) > oplattice.spectral.DEFAULT_TOL:
        with pytest.raises(ValueError):
            ProjectorValuedMeasure(n, atoms)


def test_given_rank_one_atoms_are_admitted_fast():
    """128 rank-one atoms at n = 128: one eigh and 128 outer products, where
    the pairwise dense check took seconds."""
    rng = np.random.default_rng(53)
    atoms = spectral_decompose(random_hermitian(rng, 128)).atoms
    t0 = time.perf_counter()
    given = ProjectorValuedMeasure(128, atoms)
    assert time.perf_counter() - t0 < 0.5
    assert given.ranks == [1] * 128
    assert max(pvm_residuals(given).values()) <= 1e-11


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(_KINDS), n=st.integers(1, 24),
       joint=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_written_measure_reads_back_bit_for_bit(kind, n, joint, seed):
    """A measure written by pvm_to_json, or a report of `oplattice
    spectral`, reads back with the same labels, ranks and atoms to the bit,
    and the same function of it to rounding; a second read repeats the
    first bit for bit."""
    rng = np.random.default_rng(seed)
    n = max(n, 3) if kind == "rank3_cluster" else n
    H = _hermitian_with_spectrum(_spectrum(kind, n, rng), rng)
    pvm = (joint_pvm(_commuting_family(rng, n, 2)[0]) if joint
           else spectral_decompose(H))
    texts = [dumps(pvm_to_json(pvm))]
    if not joint:
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "h.json", Path(tmp) / "report.json"
            src.write_text(dumps(H))
            assert cli.run(["spectral", "--in", str(src), "--out", str(out)]) == 0
            texts.append(out.read_text())
    for text in texts:
        back = pvm_from_json(json.loads(text))
        assert back.labels == pvm.labels and back.ranks == pvm.ranks
        for (_, P), (_, Q) in zip(back.atoms, pvm.atoms):
            assert P.tobytes() == Q.tobytes()
        f = (lambda lab: np.exp(-0.7j * sum(lab))) if joint else np.square
        got = func_calculus(back, f)
        assert _relative_gap(got, func_calculus(pvm, f)) <= 1e-10
        again = pvm_from_json(json.loads(text))
        assert got.tobytes() == func_calculus(again, f).tobytes()


def test_projector_for_builds_only_its_own_atom():
    rng = np.random.default_rng(47)
    H = _hermitian_with_spectrum(np.array([-1.0, 0.5, 0.5, 2.0]), rng)
    for a in range(3):  # ranks 1, 2, 1
        pvm = spectral_decompose(H)
        P = pvm.projector_for(pvm.labels[a])
        assert pvm._atoms is None
        assert P.tobytes() == pvm.atoms[a][1].tobytes()
        with pytest.raises(ValueError):
            P[0, 0] = 0.0


# --- a family decomposed as one stack ---------------------------------------

_STACK_KINDS = ("generic", "rank3_cluster", "repeated", "gap_1e-10",
                "gap_9.9e-9", "gap_1e-8", "gap_1.01e-8")


def _stack_member(kind, n, rng):
    """A complex Hermitian of one kind: generic, exactly degenerate (a
    Kronecker product with I_2 or repeated diagonal levels), or clusters of
    levels spaced near the SOLVER_TOL cut."""
    if kind != "repeated":
        return _hermitian_with_spectrum(_spectrum(kind, n, rng), rng)
    if n % 2:
        return np.diag(rng.integers(-2, 3, n).astype(float)).astype(complex)
    return np.kron(np.eye(2), random_hermitian(rng, n // 2))


def _factor_by_hand(M):
    """The measure of M, one 2-d matrix at a time, by the general forms:
    eigh, the column-loop phase fix, the np.diff split and the tiled
    bounds."""
    from oracles import phase_fix_columns_loop
    w, V = np.linalg.eigh(M)
    V = phase_fix_columns_loop(V)
    labels, starts, ranks = _split_by_diff(w, oplattice.spectral.SOLVER_TOL)
    return labels, ranks.tolist(), _residuals_by_tiling(V, starts), V


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(st.sampled_from(_STACK_KINDS), min_size=1, max_size=6),
       n=st.integers(1, 12), admitted=st.integers(0, 63),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_decomposition_matches_each_operator_alone(kinds, n,
                                                           admitted, seed):
    """_decompose_stack on a complex family gives each operator's labels,
    ranks, factor bits and residual report as decomposing it alone does,
    and as the 2-d general forms give them; a member that comes admitted
    passes through, and each keeps its factor."""
    rng = np.random.default_rng(seed)
    mats = [_stack_member(kind, n, rng) for kind in kinds]
    ops = [HermitianOperator(M) if admitted >> a & 1 else M
           for a, M in enumerate(mats)]
    got = oplattice.spectral._decompose_stack(ops)
    assert len(got) == len(mats)
    assert np.array_equal(_hermitian_parts(as_stack(mats), DEFAULT_TOL),
                          [HermitianOperator(M).matrix for M in mats])
    for op, M, pvm in zip(ops, mats, got):
        alone = spectral_decompose(HermitianOperator(M))
        assert _bits(pvm) == _bits(alone)
        labels, ranks, report, V = _factor_by_hand(HermitianOperator(M).matrix)
        assert (pvm.labels, pvm.ranks, pvm_residuals(pvm)) == (labels, ranks,
                                                                 report)
        assert np.array_equal(pvm._factor[0], V)
        if isinstance(op, HermitianOperator):
            assert op._spectral[1] is pvm._factor


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 6), bad=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_stack_with_a_non_hermitian_member_raises_its_first_error(n, k, bad,
                                                                  seed):
    """Admitting a family as one stack raises the NotHermitian that its first
    failing member raises alone: the same defect, the same text."""
    rng = np.random.default_rng(seed)
    mats = [random_hermitian(rng, n) for _ in range(k)]
    failing = bad.draw(st.sets(st.integers(0, k - 1), min_size=1))
    for a in failing:
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats[a] = mats[a] + 10.0 ** rng.uniform(-7, 1) * (X - X.conj().T)
    first = next((a for a, M in enumerate(mats) if _refused(M)), None)
    assume(first is not None)
    alone = _refused(mats[first])
    for call in (oplattice.spectral._decompose_stack,
                 lambda mats: _hermitian_parts(as_stack(mats), DEFAULT_TOL)):
        with pytest.raises(NotHermitian) as exc:
            call(mats)
        assert (exc.value.defect, str(exc.value)) == (alone.defect, str(alone))


def _refused(M):
    """The NotHermitian M raises alone, or None when it is admitted."""
    try:
        HermitianOperator(M)
    except NotHermitian as exc:
        return exc
    return None


@pytest.mark.parametrize("cluster_tol", [float("nan"), -1e-6])
def test_nan_or_negative_cluster_width_is_refused(cluster_tol):
    """gap > NaN is False at every gap, so a NaN width merged the whole
    spectrum into one atom labeled by its mean."""
    with pytest.raises(ValueError, match="cluster_tol"):
        spectral_decompose(np.diag([0.0, 1.0, 2.0, 3.0]), cluster_tol=cluster_tol)
