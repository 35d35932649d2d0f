import json

import numpy as np
import pytest

from oplattice import linalg
from oplattice.linalg import (
    HermitianOperator,
    NotHermitian,
    NotSquare,
    NotUnitary,
    UnitaryOperator,
    eig_hermitian,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    require_unitary,
)

import oracles


def random_hermitian(n, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def test_rejects_non_square():
    with pytest.raises(NotSquare):
        HermitianOperator(np.zeros((2, 3)))


def test_rejects_nan():
    M = np.zeros((2, 2))
    M[0, 0] = np.nan
    with pytest.raises(ValueError):
        linalg.as_matrix(M)


def test_hermitian_defect_frozen_value():
    # ||A - A*||_F for the nilpotent [[0,1],[0,0]] is sqrt(2)
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian) as exc:
        HermitianOperator(A)
    assert exc.value.defect == pytest.approx(1.4142135623730951, abs=1e-15)


def test_accepts_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    H = HermitianOperator(sx)
    assert H.dim == 2
    assert np.array_equal(H.matrix, sx)


def test_accepts_zero_matrix():
    H = HermitianOperator(np.zeros((3, 3)))
    assert H.dim == 3


def test_symmetrization_below_tol():
    A = np.array([[1.0, 1e-13], [0.0, 2.0]])
    H = HermitianOperator(A)
    assert np.allclose(H.matrix, H.matrix.conj().T)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # ||A||_F
def test_symmetrization_of_finite_input_near_overflow_stays_finite():
    # exactly Hermitian, but A + A* overflows on the diagonal
    A = np.array([[-0.0, 1e-300], [1e-300, 1e308]])
    H = HermitianOperator(A)
    assert np.all(np.isfinite(H.matrix))
    assert np.array_equal(H.matrix, A)


def test_unitary_validation():
    theta = 0.37
    U = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    UnitaryOperator(U)
    with pytest.raises(NotUnitary):
        UnitaryOperator(1.01 * U)


def test_unitarity_gate_on_stacks_matches_single_matrix_gate():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    stack = np.linalg.qr(z)[0]
    assert require_unitary(stack) is stack
    # scaling by 1 + eps gives defect 4 eps + O(eps^2) at n = 4, against the
    # threshold 1e-10 * sqrt(4)
    for eps, passes in ((4e-11, True), (6e-11, False)):
        bad = stack.copy()
        bad[1, 2] *= 1.0 + eps
        for gate in (lambda: require_unitary(bad),
                     lambda: UnitaryOperator(bad[1, 2])):
            if passes:
                gate()
            else:
                with pytest.raises(NotUnitary):
                    gate()
    bad[0, 0, 1, 1] = np.nan
    with pytest.raises(NotUnitary):
        require_unitary(bad)


def test_eigh_pauli_z():
    sz = np.diag([1.0, -1.0])
    es = eig_hermitian(HermitianOperator(sz))
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])
    # ascending order puts the -1 eigenvector first
    assert abs(es.eigenvectors[1, 0]) == pytest.approx(1.0)


def test_eigh_matches_companion_roots():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = random_hermitian(8, rng)
        es = eig_hermitian(HermitianOperator(A))
        roots = oracles.char_poly_roots(A)
        assert np.allclose(es.eigenvalues, roots, atol=1e-8)


def test_eigh_reconstructs():
    rng = np.random.default_rng(11)
    A = random_hermitian(6, rng)
    es = eig_hermitian(HermitianOperator(A))
    V, w = es.eigenvectors, es.eigenvalues
    assert np.allclose(V @ np.diag(w) @ V.conj().T, A, atol=1e-12)
    assert np.allclose(V.conj().T @ V, np.eye(6), atol=1e-12)


def test_eigh_phase_deterministic():
    rng = np.random.default_rng(13)
    A = random_hermitian(5, rng)
    e1 = eig_hermitian(HermitianOperator(A))
    e2 = eig_hermitian(HermitianOperator(A.copy()))
    assert np.array_equal(e1.eigenvectors, e2.eigenvectors)
    # first nonzero component of each column is real positive
    for k in range(5):
        col = e1.eigenvectors[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-15)
        assert lead.real > 0


def test_phase_fix_matches_column_loop_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in (1, 2, 5, 17, 40):
        _, V = np.linalg.eigh(random_hermitian(n, rng))
        # general phases, so anchors are off the real axis
        V = V * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        sparse = np.where(rng.random((n, n)) < 0.4, 0.0, V)
        # row 0 below the floor moves the anchor down; a zero column has none
        shifted = V.copy()
        shifted[0, :] *= 1e-13
        shifted[:, -1] = 0.0
        for W in (V, sparse, shifted):
            got = linalg._phase_fix_columns(W)
            assert np.array_equal(got, oracles.phase_fix_columns_loop(W))


def test_operator_norm_against_gram_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert operator_norm(A) == pytest.approx(
            oracles.gram_operator_norm(A), rel=1e-10
        )


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    blob = json.dumps(matrix_to_json(M))
    back = matrix_from_json(json.loads(blob))
    assert back.shape == (3, 4)
    assert np.array_equal(back, M)  # bit-exact, not just close


def test_json_rejects_bad_length():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})
