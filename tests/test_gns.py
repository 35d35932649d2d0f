"""Reconstruction of a cyclic representation from an algebraic state."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplattice import (
    AbstractStarAlgebra,
    AlgebraicState,
    DensityState,
    DegenerateAlgebra,
    InputIsPure,
    NotAState,
    algebra_from_matrices,
    commutant,
    folium_state,
    frobenius,
    gns_construct,
    gns_intertwiner,
    is_pure,
    is_pure_state,
    mixed_to_vector_paradox_demo,
    state_from_density,
    verify_gns,
)

from oplattice import gns
from oplattice.gns import (
    OutsideSpan,
    _associativity,
    _associativity_bound,
    _axiom_residuals,
)
from oplattice.linalg import SOLVER_TOL, _matrix_units, _products

from oracles import (
    axiom_residuals_loop,
    density_values_loop,
    gns_residuals_loop,
    gram_loop,
    gram_rank_bruteforce,
    structure_constants_loop,
)


def matrix_units(n):
    out = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            out.append(E)
    return out


def m2_setup():
    units = matrix_units(2)
    return units, algebra_from_matrices(units)


def test_matrix_unit_structure_constants_pass_axioms():
    units, alg = m2_setup()
    assert alg.n_basis == 4
    # b_0 b_1 = E00 E01 = E01 = b_1
    np.testing.assert_allclose(alg.multiply_coeffs([1, 0, 0, 0], [0, 1, 0, 0]),
                               [0, 1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(alg.star_coeffs([0, 1, 0, 0]),
                               [0, 0, 1, 0], atol=1e-12)


def test_axiom_violations_are_caught():
    units, alg = m2_setup()
    c, s, u = alg.mult.copy(), alg.invol.copy(), alg.unit.copy()
    bad_c = c.copy()
    bad_c[0, 1, 2] += 0.05
    with pytest.raises(DegenerateAlgebra):
        AbstractStarAlgebra(bad_c, s, u)
    with pytest.raises(DegenerateAlgebra):
        AbstractStarAlgebra(c, np.eye(4), u)  # adjoint of E01 is not E01
    with pytest.raises(DegenerateAlgebra):
        AbstractStarAlgebra(c, s, [1, 0, 0, 0])  # E00 is not a unit


def test_state_validation():
    units, alg = m2_setup()
    AlgebraicState(alg, [0.5, 0, 0, 0.5])
    with pytest.raises(NotAState):
        AlgebraicState(alg, [1.0, 0, 0, 1.0])  # unit sent to 2
    with pytest.raises(NotAState):
        AlgebraicState(alg, [2.0, 0, 0, -1.0])  # negative on E11
    with pytest.raises(ValueError):
        AlgebraicState(alg, [1.0, 0, 0])


def test_pure_state_representation_is_two_dimensional():
    units, alg = m2_setup()
    omega = AlgebraicState(alg, [1.0, 0, 0, 0.0])
    triple = gns_construct(alg, omega)
    assert triple.rep_dim == 2
    assert abs(np.linalg.norm(triple.cyclic_vector) - 1.0) <= 1e-12
    check = verify_gns(triple, alg, omega)
    assert check["ok"] and check["violation"] is None
    assert check["residuals"]["expectation"] <= 1e-10
    assert is_pure_state(alg, omega)


def test_tracial_state_representation_is_four_dimensional():
    units, alg = m2_setup()
    omega = AlgebraicState(alg, [0.5, 0, 0, 0.5])
    triple = gns_construct(alg, omega)
    assert triple.rep_dim == 4
    assert verify_gns(triple, alg, omega)["ok"]
    assert not is_pure_state(alg, omega)


def test_representation_dimension_is_dim_times_rank():
    for n in (2, 3, 4):
        units = matrix_units(n)
        alg = algebra_from_matrices(units)
        for r in range(1, n + 1):
            eigs = np.zeros(n)
            eigs[:r] = np.arange(1.0, r + 1.0)
            eigs /= eigs.sum()
            rho = DensityState(np.diag(eigs))
            omega = state_from_density(alg, units, rho)
            triple = gns_construct(alg, omega)
            assert triple.rep_dim == n * r
            assert triple.rep_dim == gram_rank_bruteforce(units, rho.matrix)
            check = verify_gns(triple, alg, omega)
            assert check["ok"], check
            assert check["residuals"]["expectation"] <= 1e-10


def test_purity_judgement_matches_density_side():
    rng = np.random.default_rng(97)
    for n in (2, 3):
        units = matrix_units(n)
        alg = algebra_from_matrices(units)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        pure = DensityState(np.outer(v, v.conj()))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mixed = DensityState((a @ a.conj().T + np.eye(n))
                             / np.trace(a @ a.conj().T + np.eye(n)).real)
        for rho in (pure, mixed):
            omega = state_from_density(alg, units, rho)
            assert is_pure_state(alg, omega) == is_pure(rho)


def test_verify_flags_tampered_cyclic_vector():
    units, alg = m2_setup()
    omega = AlgebraicState(alg, [1.0, 0, 0, 0.0])
    triple = gns_construct(alg, omega)
    psi = triple.cyclic_vector.copy()
    psi[0] += 0.05
    check = verify_gns(triple._replace(cyclic_vector=psi), alg, omega)
    assert not check["ok"]
    assert check["violation"] == "expectation"


def test_intertwiner_connects_rotated_copies():
    units, alg = m2_setup()
    omega = AlgebraicState(alg, [1.0, 0, 0, 0.0])
    t1 = gns_construct(alg, omega)
    theta = 0.6
    W0 = np.array([[np.cos(theta), -np.sin(theta)],
                   [np.sin(theta), np.cos(theta)]], dtype=complex)
    t2 = t1._replace(
        pi_images=[W0 @ M @ W0.conj().T for M in t1.pi_images],
        cyclic_vector=W0 @ t1.cyclic_vector,
    )
    W = gns_intertwiner(t1, t2)
    assert frobenius(W @ W.conj().T - np.eye(2)) <= 1e-9
    for a, b in zip(t1.pi_images, t2.pi_images):
        assert frobenius(W @ a - b @ W) <= 1e-9


def test_intertwiner_refuses_distinct_states():
    units, alg = m2_setup()
    t_pure = gns_construct(alg, AlgebraicState(alg, [1.0, 0, 0, 0.0]))
    t_trace = gns_construct(alg, AlgebraicState(alg, [0.5, 0, 0, 0.5]))
    with pytest.raises(ValueError):
        gns_intertwiner(t_pure, t_trace)  # 2 vs 4 dimensional
    t_other = gns_construct(alg, AlgebraicState(alg, [0.0, 0, 0, 1.0]))
    with pytest.raises(ValueError):
        gns_intertwiner(t_pure, t_other)  # same size, different state


def test_folium_recovers_vector_and_tracial_states():
    units, alg = m2_setup()
    omega = AlgebraicState(alg, [1.0, 0, 0, 0.0])
    triple = gns_construct(alg, omega)
    psi = triple.cyclic_vector
    back = folium_state(triple, np.outer(psi, psi.conj()), alg)
    assert np.max(np.abs(back.values - omega.values)) <= 1e-10
    trace_like = folium_state(triple, np.eye(2) / 2.0, alg)
    np.testing.assert_allclose(trace_like.values, [0.5, 0, 0, 0.5], atol=1e-12)


def test_commutative_algebra_states():
    basis = [np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)]
    alg = algebra_from_matrices(basis)
    mixed = AlgebraicState(alg, [0.3, 0.7])
    assert gns_construct(alg, mixed).rep_dim == 2
    assert not is_pure_state(alg, mixed)
    point = AlgebraicState(alg, [1.0, 0.0])
    assert gns_construct(alg, point).rep_dim == 1
    assert is_pure_state(alg, point)


def test_basis_extraction_rejects_open_spans():
    E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        algebra_from_matrices([np.eye(2, dtype=complex), E01])
    with pytest.raises(ValueError):
        algebra_from_matrices([np.eye(2, dtype=complex),
                               2.0 * np.eye(2, dtype=complex)])


def test_mixed_state_paradox_report():
    rep = mixed_to_vector_paradox_demo(np.eye(2) / 2.0)
    assert rep["rep_dim"] == 4
    assert rep["commutant_dimension"] == 4
    assert not rep["state_is_pure"]
    assert abs(rep["cyclic_vector_norm"] - 1.0) <= 1e-12
    assert rep["expectation_residual"] <= 1e-10

    rep = mixed_to_vector_paradox_demo(np.diag([0.9, 0.1]))
    assert rep["rep_dim"] == 4
    assert not rep["state_is_pure"]

    with pytest.raises(InputIsPure):
        mixed_to_vector_paradox_demo(np.diag([1.0, 0.0]))


def test_paradox_report_fields_are_pinned():
    """Every field of the demo for diag(0.7, 0.3) and for I/2; the two
    floats are held to 1e-15, a few roundings."""
    for rho in (np.diag([0.7, 0.3]), np.eye(2) / 2.0):
        rep = mixed_to_vector_paradox_demo(rho)
        cyclic = rep.pop("cyclic_vector_norm")
        residual = rep.pop("expectation_residual")
        assert rep == {
            "dim": 2, "rep_dim": 4, "commutant_dimension": 4,
            "state_is_pure": False,
            "note": ("the cyclic vector is a unit vector, but purity is "
                     "decided by the commutant on the representation space, "
                     "and it is nontrivial here"),
        }
        assert abs(cyclic - 1.0) <= 1e-15
        assert abs(residual - 1.1102230246251565e-16) <= 1e-15


def test_density_admission_is_shared():
    """A raw matrix and its DensityState give equal results in the three
    entry points that take a density operator; a matrix with a negative
    eigenvalue is refused by each with DensityState's ValueError."""
    units, alg = m2_setup()
    rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    triple = gns_construct(alg, AlgebraicState(alg, [1.0, 0, 0, 0]))
    calls = [
        lambda r: folium_state(triple, r, alg).values,
        lambda r: state_from_density(alg, units, r).values,
        mixed_to_vector_paradox_demo,
    ]
    for call in calls:
        raw, admitted = call(rho), call(DensityState(rho))
        if isinstance(raw, dict):
            assert raw == admitted
        else:
            np.testing.assert_array_equal(raw, admitted)
        with pytest.raises(ValueError, match="density matrix has eigenvalue"):
            call(np.diag([1.2, -0.2]))


@settings(max_examples=20, deadline=None)
@given(dims=st.sampled_from([(1, 1), (2, 0), (2, 1), (3, 0), (2, 2)]),
       seed=st.integers(0, 2**32 - 1))
def test_structure_constants_match_the_pairwise_loop(dims, seed):
    """M_a (+) M_b (b = 0: M_a alone) in a random complex basis: every
    element a combination of the matrix units with Haar-unitary weights
    scaled by [0.5, 2], conjugated by a Haar unitary. The constants match
    one least-squares solve per product pair to 1e-12 of the largest."""
    a, b = dims
    n, k = a + b, a * a + b * b
    rng = np.random.default_rng(seed)
    units = np.zeros((k, n, n), dtype=complex)
    for i, (p, q) in enumerate([(p, q) for p in range(a) for q in range(a)]
                               + [(a + p, a + q) for p in range(b)
                                  for q in range(b)]):
        units[i, p, q] = 1.0
    weights = haar_unitary(rng, k) * rng.uniform(0.5, 2.0, k)
    U = haar_unitary(rng, n)
    mats = list(U @ np.tensordot(weights, units, axes=1) @ U.conj().T)
    got = algebra_from_matrices(mats).mult
    want = structure_constants_loop(mats)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_basis_independence_is_judged_at_every_scale():
    units = matrix_units(2)
    ref = algebra_from_matrices(units)
    for scale in (1e-11, 1.0, 1e6):
        alg = algebra_from_matrices([scale * E for E in units])
        np.testing.assert_allclose(alg.mult, scale * ref.mult, rtol=1e-12,
                                   atol=0.0)
        np.testing.assert_allclose(alg.invol, ref.invol, atol=1e-12)
        np.testing.assert_allclose(alg.unit, ref.unit / scale, rtol=1e-12,
                                   atol=0.0)
        with pytest.raises(ValueError, match="linearly dependent"):
            algebra_from_matrices([scale * np.eye(2), 2.0 * scale * np.eye(2)])


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def scaled_m2(scale):
    """The M_2 matrix units in a fixed random complex basis, times scale."""
    B = haar_unitary(np.random.default_rng(11), 2)
    return [scale * B @ E @ B.conj().T for E in matrix_units(2)]


@pytest.mark.parametrize("scale", [1e-11, 1e-9, 1.0, 1e6])
def test_unit_gates_are_relative_at_every_scale(scale):
    """The unit's coordinates go as 1/scale, and its self-adjointness and
    its value under a state are judged relative to them: the algebra and a
    mixed state are admitted at every scale, while a unit moved by a
    relative 1e-6 toward the anti-self-adjoint i1, or values moved by a
    relative 1e-6 off omega(1) = 1, are refused."""
    units = scaled_m2(scale)
    alg = algebra_from_matrices(units)
    omega = state_from_density(alg, units, np.diag([0.7, 0.3]))
    assert gns_construct(alg, omega).rep_dim == 4
    with pytest.raises(NotAState, match="unit is not sent to 1"):
        AlgebraicState(alg, omega.values * (1.0 + 1e-6))
    bent = alg.unit * (1.0 + 1e-6j)
    what, resid, scale_of_bound = list(_axiom_residuals(alg.mult, alg.invol,
                                                        bent))[-1]
    assert what == "self-adjointness of the unit"
    assert np.abs(resid).max() > SOLVER_TOL * scale_of_bound
    with pytest.raises(DegenerateAlgebra):
        AbstractStarAlgebra(alg.mult, alg.invol, bent)


@pytest.mark.parametrize("scale", [1e-11, 1e-9, 1.0, 1e6])
def test_unit_acting_as_identity_is_judged_without_a_scale(scale):
    """u c - I is dimensionless (u goes as 1/scale, c as scale), so a unit
    moved by a relative 1e-3, still self-adjoint, is refused at every scale
    of the plain M_2 matrix units, while the unmoved unit is admitted."""
    alg = algebra_from_matrices([scale * E for E in matrix_units(2)])
    assert AbstractStarAlgebra(alg.mult, alg.invol, alg.unit).n_basis == 4
    with pytest.raises(DegenerateAlgebra, match="the unit acting as identity"):
        AbstractStarAlgebra(alg.mult, alg.invol, alg.unit * (1.0 + 1e-3))


@pytest.mark.parametrize("scale", [1e-11, 1e-9, 1.0, 1e6])
def test_gns_of_a_scaled_basis_verifies(scale):
    units = scaled_m2(scale)
    alg = algebra_from_matrices(units)
    omega = state_from_density(alg, units, np.diag([0.7, 0.3]))
    check = verify_gns(gns_construct(alg, omega), alg, omega)
    assert check["ok"], check


@pytest.mark.parametrize("bent, scale", [
    (bent, scale) for bent in (0, 1) for scale in (1e-11, 1e-9, 1.0, 1e6)])
def test_verify_gns_refuses_a_bent_image(bent, scale):
    """pi(b_bent), moved by a relative 1e-6 in a fixed random direction, is
    refused at every scale: the homomorphism gate is held to tol s^2 with s
    the largest ||pi(b_i)||_F, not floored at 1, and pi(b_0), on which the
    unit has coordinate 1/scale, also by the dimensionless unit gate."""
    units = scaled_m2(scale)
    alg = algebra_from_matrices(units)
    omega = state_from_density(alg, units, np.diag([0.7, 0.3]))
    triple = gns_construct(alg, omega)
    images = [m.copy() for m in triple.pi_images]
    X = haar_unitary(np.random.default_rng(5), triple.rep_dim)
    images[bent] += 1e-6 * frobenius(images[bent]) * X / frobenius(X)
    check = verify_gns(triple._replace(pi_images=images), alg, omega)
    assert not check["ok"], check


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gns_of_random_rank_r_states(n, data, seed):
    """A rank-r density matrix on M_n, both it and the matrix-unit basis
    in Haar-random complex bases: representation of dimension n r, a
    commutant of dimension r^2, purity exactly at r = 1, and the batched
    residuals equal to the loop routes."""
    r = data.draw(st.integers(1, n), label="r")
    rng = np.random.default_rng(seed)
    U, B = haar_unitary(rng, n), haar_unitary(rng, n)
    units = [B @ E @ B.conj().T for E in matrix_units(n)]
    alg = algebra_from_matrices(units)
    p = rng.uniform(0.1, 1.0, r)
    rho = (U[:, :r] * (p / p.sum())) @ U[:, :r].conj().T
    omega = state_from_density(alg, units, rho)
    np.testing.assert_allclose(omega.values, density_values_loop(units, rho),
                               rtol=0.0, atol=1e-12)
    gram = gram_loop(alg.invol, alg.mult, omega.values)
    np.testing.assert_allclose(omega.gram, (gram + gram.conj().T) / 2.0,
                               rtol=0.0, atol=1e-12)

    triple = gns_construct(alg, omega)
    assert triple.rep_dim == n * r
    check = verify_gns(triple, alg, omega)
    assert check["ok"], check
    # on the triple and on a tampered one, whose residuals are O(1e-2)
    noise = 1e-2 * rng.standard_normal((len(units), n * r, n * r))
    for t in (triple, triple._replace(pi_images=list(
            np.array(triple.pi_images) + noise))):
        got = verify_gns(t, alg, omega)["residuals"]
        want = gns_residuals_loop(t.pi_images, alg.mult, alg.invol,
                                  alg.unit, t.cyclic_vector, omega.values)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12, key
    assert len(commutant(triple.pi_images, triple.rep_dim)) == r * r
    assert is_pure_state(alg, omega) == (r == 1)

    # the algebra and the mutations of test_axiom_violations_are_caught on
    # M_n, which must be refused
    bad_c = alg.mult.copy()
    bad_c[0, 1, 2] += 0.05
    e0 = np.eye(n * n, dtype=complex)[0]
    mutants = [(bad_c, alg.invol, alg.unit),
               (alg.mult, np.eye(n * n, dtype=complex), alg.unit),
               (alg.mult, alg.invol, e0)]
    for c, s, u in [(alg.mult, alg.invol, alg.unit)] + mutants:
        loops, got = axiom_residuals_loop(c, s, u), {}
        for what, resid, _ in _axiom_residuals(c, s, u):  # associativity
            got.setdefault(what, []).append(resid)        # in slices
        assert got.keys() == loops.keys()
        for what, parts in got.items():
            resid = np.concatenate(parts)
            assert np.abs(resid - loops[what]).max() <= 1e-12, what
    for c, s, u in mutants:
        with pytest.raises(DegenerateAlgebra):
            AbstractStarAlgebra(c, s, u)


# --- the expansion certificate of algebra_from_matrices ---------------------

def conditioned_basis(rng, dims, kappa, scale):
    """A basis of (+)_i M_{d_i}, n = sum d_i: the matrix units mixed by a
    k x k matrix with singular values geometric from 1 to 1 / kappa between
    Haar unitaries, conjugated by a Haar unitary, times scale."""
    n = sum(dims)
    starts = np.cumsum((0,) + tuple(dims))[:-1]
    pairs = [(a + p, a + q) for a, d in zip(starts, dims)
             for p in range(d) for q in range(d)]
    units = np.zeros((len(pairs), n, n), dtype=complex)
    for i, pq in enumerate(pairs):
        units[(i,) + pq] = 1.0
    k = len(pairs)
    weights = (haar_unitary(rng, k) * np.geomspace(1.0, 1.0 / kappa, k)
               ) @ haar_unitary(rng, k)
    U = haar_unitary(rng, n)
    return scale * (U @ np.tensordot(weights, units, axes=1) @ U.conj().T)


def expansion(mats):
    """algebra_from_matrices' least-squares expansion written out: the
    stack, its singular values, the products' coefficients (one column per
    pair) with their largest residual entry, and c, s, u."""
    stack = np.array(mats, dtype=complex)
    k, n, _ = stack.shape
    V = stack.reshape(k, -1).T
    U, sv, Wh = np.linalg.svd(V, full_matrices=False)

    def solve(rhs):
        coef = U.conj().T @ rhs
        return Wh.conj().T @ (coef.real / sv[:, None]
                              + 1j * (coef.imag / sv[:, None]))

    rhs = _products(stack, stack).T
    sol = solve(rhs)
    worst = float(np.abs(V @ sol - rhs).max())
    u = solve(np.eye(n, dtype=complex).reshape(-1, 1))[:, 0]
    s = solve(stack.conj().transpose(0, 2, 1).reshape(k, -1).T).T
    return stack, sv, sol, worst, (sol.T.reshape(k, k, k), s, u)


def admission(build, *args):
    try:
        build(*args)
    except DegenerateAlgebra as exc:
        return exc.what
    return None


@settings(max_examples=30, deadline=None)
@given(dims=st.sampled_from([(1,), (2,), (3,), (4,), (5,), (1, 1), (2, 1),
                             (2, 2), (3, 1), (3, 2), (1, 1, 1), (2, 1, 1)]),
       log_kappa=st.floats(0.0, 4.0),
       exponent=st.sampled_from([-200, -37, 0, 41, 200]),
       noise=st.sampled_from([0.0, 1e-12, 1e-9]),
       seed=st.integers(0, 2**32 - 1))
def test_the_expansion_certificate_bounds_the_dense_residual(
        dims, log_kappa, exponent, noise, seed):
    """Complex bases of M_n and of block sums, n <= 5, condition 1 to 1e4,
    scales 2^-200 to 2^200, each matrix moved off the algebra by noise times
    its norm, so that the expansion residual, not rounding alone, drives the
    bound: the certificate is at least the dense associativity residual of
    the batched route and of the einsum loop. Unless the expansion itself is
    refused, algebra_from_matrices admits or refuses as the dense
    constructor does on the same constants, which it returns bit for bit."""
    rng = np.random.default_rng(seed)
    mats = conditioned_basis(rng, dims, 10.0 ** log_kappa, 2.0 ** exponent)
    X = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
    size = np.linalg.norm(mats, axis=(1, 2)) / np.linalg.norm(X, axis=(1, 2))
    mats = mats + noise * size[:, None, None] * X
    stack, sv, sol, worst, (c, s, u) = expansion(mats)
    bound = _associativity_bound(stack, sv, sol, worst)
    assert np.max([np.abs(a).max() for a in _associativity(c)]) <= bound
    assert np.abs(axiom_residuals_loop(c, s, u)["associativity"]).max() \
        <= bound

    try:
        refused = admission(algebra_from_matrices, mats)
    except OutsideSpan:  # a product, an adjoint or the identity is off the
        return           # span: there are no constants to admit
    assert refused == admission(AbstractStarAlgebra, c, s, u)
    if refused is None:
        alg = algebra_from_matrices(mats)
        for got, want in ((alg.mult, c), (alg.invol, s), (alg.unit, u)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3])
def test_the_certificate_carries_the_expansion_residual(delta):
    """Near a *-algebra the associativity defect of the least-squares
    constants is second order in the distance, so rounding alone would
    bound it. The upper-triangular 3 x 3 algebra is not adjoint-closed: moved
    by delta, its defect is first order, and the bound holds only through
    the measured residual. algebra_from_matrices refuses it (OutsideSpan)."""
    rng = np.random.default_rng(29)
    U = haar_unitary(rng, 3)
    upper = np.array([U @ E @ U.conj().T for E in _matrix_units(3)
                      [[0, 1, 2, 4, 5, 8]]])
    X = rng.standard_normal(upper.shape) + 1j * rng.standard_normal(
        upper.shape)
    mats = upper + delta * X / np.linalg.norm(X, axis=(1, 2))[:, None, None]
    stack, sv, sol, worst, (c, s, u) = expansion(mats)
    dense = np.abs(axiom_residuals_loop(c, s, u)["associativity"]).max()
    assert delta / 10 <= dense <= _associativity_bound(stack, sv, sol, worst)
    assert _associativity_bound(stack, sv, sol, 0.0) < dense
    with pytest.raises(OutsideSpan):
        algebra_from_matrices(mats)


def test_an_ill_conditioned_basis_falls_back_to_the_dense_check(monkeypatch):
    """M_5 in a basis of condition 1 is certified with no dense check; at
    condition 3e4 the bound fails its gate (by about 3x), the dense check
    runs once and admits, and the constants equal the expansion's."""
    calls, dense = [], gns._associativity  # k of each dense check
    monkeypatch.setattr("oplattice.gns._associativity",
                        lambda c: calls.append(len(c)) or dense(c))
    rng = np.random.default_rng(23)
    algebra_from_matrices(conditioned_basis(rng, (5,), 1.0, 1.0))
    assert calls == []
    mats = conditioned_basis(rng, (5,), 3e4, 1.0)
    stack, sv, sol, worst, (c, _, _) = expansion(mats)
    assert _associativity_bound(stack, sv, sol, worst) \
        > SOLVER_TOL * max(1.0, np.abs(c).max()) ** 2
    alg = algebra_from_matrices(mats)
    assert calls == [25]
    assert alg.mult.tobytes() == np.ascontiguousarray(c).tobytes()


def test_the_certificate_is_inf_outside_its_range():
    """Below 2^-300 and above 2^300 in ||B||_F the rounding model does not
    cover underflow and overflow: no certificate, the dense check decides."""
    units = np.array(matrix_units(2))
    for scale in (2.0 ** -320, 2.0 ** 320):
        stack, sv, sol, worst, _ = expansion(scale * units)
        assert _associativity_bound(stack, sv, sol, worst) == np.inf
    stack, sv, sol, worst, _ = expansion(units)
    assert _associativity_bound(stack, sv, sol, worst) < SOLVER_TOL


def test_algebra_from_matrices_on_m7_holds_no_k4_array():
    """M_7 (k = 49) in a Haar basis: a traced peak of at most 32 MB, where a
    k^4 associativity residual alone is 92 MB."""
    B = haar_unitary(np.random.default_rng(7), 7)
    mats = B @ _matrix_units(7) @ B.conj().T
    tracemalloc.start()
    try:
        alg = algebra_from_matrices(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.n_basis == 49
    assert peak <= 32 * 2 ** 20, peak


def test_the_dense_check_holds_one_slice_at_a_time():
    """Raw constants of M_5 (k = 25) go through the dense check in slices
    of at most _CHECK_SLICE entries, and a defect in the last left factor
    is refused with its own size."""
    alg = algebra_from_matrices(matrix_units(5))
    sizes = [a.size for a in _associativity(alg.mult)]
    assert sum(sizes) == 25 ** 4 and max(sizes) <= gns._CHECK_SLICE
    assert len(sizes) > 1
    bad = alg.mult.copy()
    bad[24, 24, 0] += 1e-3
    with pytest.raises(DegenerateAlgebra, match="associativity") as info:
        AbstractStarAlgebra(bad, alg.invol, alg.unit)
    assert info.value.defect == np.max(
        np.abs(axiom_residuals_loop(bad, alg.invol, alg.unit)
               ["associativity"]))
    assert alg.mult.flags.c_contiguous


@pytest.mark.parametrize("n, r", [(n, r) for n in range(2, 6)
                                  for r in range(2, n + 1)])
def test_paradox_commutant_from_the_step_units(n, r):
    """The demo's commutant, taken on pi(E_{i,i+1}), i < n - 1, has
    dimension r^2, as does the commutant of all n^2 images."""
    rng = np.random.default_rng(100 * n + r)
    U = haar_unitary(rng, n)
    p = rng.uniform(0.1, 1.0, r)
    rho = (U[:, :r] * (p / p.sum())) @ U[:, :r].conj().T
    rep = mixed_to_vector_paradox_demo(rho)
    units = _matrix_units(n)
    alg = algebra_from_matrices(units)
    triple = gns_construct(alg, state_from_density(alg, units, rho))
    assert rep["commutant_dimension"] == r * r \
        == len(commutant(triple.pi_images, triple.rep_dim))


@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
def test_a_bad_cyclic_vector_is_refused(bad):
    """verify_gns and gns_intertwiner refuse a cyclic vector with a NaN or
    inf entry, or one shorter than rep_dim, with a ValueError naming it,
    and no warning."""
    units, alg = m2_setup()
    omega = AlgebraicState(alg, [0.5, 0, 0, 0.5])
    triple = gns_construct(alg, omega)
    psi = triple.cyclic_vector.copy()
    if bad == "short":
        psi, match = psi[:-1], "dimensions differ"
    else:
        psi[1], match = float(bad), "non-finite"
    broken = triple._replace(cyclic_vector=psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            verify_gns(broken, alg, omega)
        for pair in ((broken, triple), (triple, broken)):
            with pytest.raises(ValueError, match=match):
                gns_intertwiner(*pair)
