"""Truncated canonical pair: corner law, uncertainty floor, hypothesis audit."""

import numpy as np
import pytest

from oplattice import (
    BadDimension,
    DimensionMismatch,
    PureStateVector,
    TailTooLarge,
    TruncatedCanonicalPair,
    build_truncated_pair,
    frobenius,
    heisenberg_uncertainty,
    operator_norm,
    svn_hypotheses_check,
)

from oracles import fock_moments

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def test_two_level_closed_forms():
    pair = build_truncated_pair(2, m=2.0, omega=3.0, hbar=0.5)
    lx = np.sqrt(0.5 / (2 * 2.0 * 3.0))
    lp = np.sqrt(2.0 * 3.0 * 0.5 / 2)
    assert frobenius(pair.X.matrix - lx * SX) <= 1e-15
    assert frobenius(pair.P.matrix - lp * SY) <= 1e-15


def test_commutator_is_canonical_off_the_top_corner():
    for n in (2, 5, 16, 64):
        pair = build_truncated_pair(n)
        C = pair.commutator()
        target = 1j * np.eye(n)
        target[n - 1, n - 1] = 1j * (1 - n)
        assert np.max(np.abs(C - target)) <= 1e-12
        assert abs(pair.commutator_defect() - n) <= 1e-10


def test_corner_defect_scales_with_hbar():
    pair = build_truncated_pair(7, hbar=3.0)
    assert abs(pair.commutator_defect() - 21.0) <= 1e-10


def test_number_operator_spectrum():
    pair = build_truncated_pair(9)
    np.testing.assert_allclose(np.diag(pair.number_operator().matrix).real,
                               np.arange(9.0), atol=1e-13)


def test_hamiltonian_is_ladder_diagonal_except_top_entry():
    n = 8
    pair = build_truncated_pair(n)
    H = pair.hamiltonian().matrix
    ladder = np.diag(np.arange(n) + 0.5)
    D = H - ladder
    D[n - 1, n - 1] = 0.0
    assert np.max(np.abs(D)) <= 1e-13
    assert abs(H[n - 1, n - 1] - (n - 1) / 2.0) <= 1e-12


def test_ground_state_saturates_uncertainty_floor():
    for m, omega, hbar in ((1.0, 1.0, 1.0), (2.0, 0.5, 3.0)):
        pair = build_truncated_pair(24, m=m, omega=omega, hbar=hbar)
        rep = heisenberg_uncertainty(pair, pair.ground_state())
        assert abs(rep.product - hbar / 2.0) <= 1e-10
        assert rep.product + 1e-12 >= rep.bound
        x2, p2 = fock_moments(0, m, omega, hbar)
        assert abs(rep.dx ** 2 - x2) <= 1e-12
        assert abs(rep.dp ** 2 - p2) <= 1e-12


def test_first_excited_product_is_three_halves():
    pair = build_truncated_pair(16)
    rep = heisenberg_uncertainty(pair, pair.fock_state(1))
    assert abs(rep.product - 1.5) <= 1e-10
    x2, p2 = fock_moments(1, 1.0, 1.0, 1.0)
    assert abs(rep.dx ** 2 - x2) <= 1e-12
    assert abs(rep.dp ** 2 - p2) <= 1e-12


def test_states_near_the_top_are_rejected():
    pair = build_truncated_pair(6)
    with pytest.raises(TailTooLarge):
        heisenberg_uncertainty(pair, pair.fock_state(5))
    with pytest.raises(TailTooLarge):
        heisenberg_uncertainty(pair, pair.fock_state(4))


def test_dimension_and_parameter_gates():
    with pytest.raises(BadDimension):
        build_truncated_pair(1)
    with pytest.raises(ValueError):
        build_truncated_pair(4, m=0.0)
    with pytest.raises(ValueError):
        build_truncated_pair(4, omega=-1.0)
    with pytest.raises(ValueError):
        TruncatedCanonicalPair(4, hbar=0.0)


@pytest.mark.parametrize("name, value", [
    ("m", float("nan")), ("omega", float("inf")), ("hbar", -0.0)])
def test_non_finite_or_non_positive_parameters_are_refused_by_name(name,
                                                                   value):
    """NaN and inf pass a check of value <= 0; they used to surface later as
    non-finite matrix entries or an invalid-value warning."""
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         "finite"):
        TruncatedCanonicalPair(4, **{name: value})


def test_hypothesis_audit_for_truncated_pair():
    pair = build_truncated_pair(12)
    rep = svn_hypotheses_check([pair.X], [pair.P])
    assert rep["pairs"] == 1
    assert rep["dim"] == 12
    assert abs(rep["ccr_residuals"][0][0] - 12.0) <= 1e-10
    assert rep["minimum_defect_bound"] == 1.0
    assert rep["trace_residuals"][0] <= 1e-12
    assert rep["commutant_dimension"] == 1
    assert rep["irreducible"]
    assert rep["sum_squares_hermiticity_defect"] <= 1e-12


def test_hypothesis_audit_spin_example():
    # [sx, sy] = 2i sz, so against hbar=2 the residual is |2i| * ||sz - I||
    rep = svn_hypotheses_check([SX], [SY], hbar=2.0)
    assert abs(rep["ccr_residuals"][0][0] - 4.0) <= 1e-12
    assert rep["irreducible"]
    assert rep["minimum_defect_bound"] == 2.0


def test_hypothesis_audit_takes_no_tolerance():
    """No quantity of the audit is compared with a tolerance, so it takes
    none and echoes none; mixed dimensions are refused as a mismatch."""
    pair = build_truncated_pair(4)
    assert "tolerance" not in svn_hypotheses_check([pair.X], [pair.P])
    with pytest.raises(TypeError):
        svn_hypotheses_check([pair.X], [pair.P], tol=1e-9)
    with pytest.raises(DimensionMismatch):
        svn_hypotheses_check([pair.X], [SX])


def test_hypothesis_audit_trivial_for_empty_input():
    rep = svn_hypotheses_check([], [])
    assert rep["pairs"] == 0
    assert rep["dim"] is None
    assert rep["irreducible"] is None
