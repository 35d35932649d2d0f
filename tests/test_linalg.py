import ast
import json
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplattice import linalg
from oplattice.linalg import (
    HermitianOperator,
    NotHermitian,
    NotSquare,
    NotUnitary,
    UnitaryOperator,
    dumps,
    eig_hermitian,
    matrix_from_json,
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
    assert exc.value.bound == 1e-10


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


def test_symmetrization_of_finite_input_near_overflow_stays_finite():
    # exactly Hermitian, but A + A* overflows on the diagonal
    A = np.array([[-0.0, 1e-300], [1e-300, 1e308]])
    H = HermitianOperator(A)
    assert np.all(np.isfinite(H.matrix))
    assert np.array_equal(H.matrix, A)


def test_norms_keep_their_bits_and_rescale_only_an_overflowed_sum():
    """frobenius is np.linalg.norm bit for bit on complex, real and strided
    input. A matrix whose squares overflow is taken again over a power of
    two, exactly and with no warning, and _fro_batch gives each matrix of a
    stack frobenius' bits, an overflowed one's and an inf one's too."""
    X = np.random.default_rng(3).standard_normal((6, 10)).view(complex)
    for M in (X, X.T, X[::2], X.real, np.asfortranarray(X)):
        assert linalg.frobenius(M) == float(np.linalg.norm(M, "fro"))
    big = 2.0 ** 600 * X
    assert linalg.frobenius(big) == 2.0 ** 600 * linalg.frobenius(X)
    assert linalg.frobenius(2.0 ** 600 * X.real) == 2.0 ** 600 * float(
        np.linalg.norm(X.real, "fro"))
    stack = np.stack([X, big, np.full((6, 5), np.inf + 0j)])
    np.testing.assert_array_equal(
        linalg._fro_batch(stack),
        [linalg.frobenius(X), linalg.frobenius(big), np.inf])


@pytest.mark.parametrize("k", [1030, 1060, 1070])
def test_norms_of_subnormal_complex_matrices_are_exact(k):
    """Entries times 2^-k, subnormal, so that 1 / (the power of two at the
    largest part) overflows: frobenius rescales by ldexp, exactly, and
    matches the unscaled norm of the same subnormal data times 2^-k, with no
    warning; _fro_batch gives each matrix of a stack the same bits."""
    X = np.random.default_rng(5).standard_normal((3, 4, 8)).view(complex)
    tiny = np.ldexp(X.view(float), -k).view(complex)
    want = [np.ldexp(np.linalg.norm(np.ldexp(M.view(float), k).view(complex)),
                     -k) for M in tiny]
    assert [linalg.frobenius(M) for M in tiny] == want
    np.testing.assert_array_equal(linalg._fro_batch(tiny), want)


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
    blob = dumps(M)
    back = matrix_from_json(json.loads(blob))
    assert back.shape == (3, 4)
    assert np.array_equal(back, M)  # bit-exact, not just close


def test_json_reads_integers_beyond_64_bits_as_floats():
    blob = ('{"rows": 1, "cols": 2, '
            '"data": [[100000000000000000000, -0.0], [1, 2]]}')
    back = matrix_from_json(json.loads(blob))
    assert np.array_equal(back, [[1e20, 1 + 2j]])
    assert np.signbit(back[0, 0].imag)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1,
                          "data": [[100000000000000000000, "1.0"]]})


def test_json_refuses_booleans_and_non_integer_dimensions():
    ok = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}
    for bad in ({"data": [[True, False]]}, {"data": [[True, 0.5]]},
                {"data": [[100000000000000000000, False]]},
                {"data": np.array([[True, False]])},
                {"rows": True}, {"rows": 1.0}, {"cols": "1"}, {"cols": -1}):
        with pytest.raises(ValueError):
            matrix_from_json({**ok, **bad})
    assert np.array_equal(matrix_from_json(ok), [[1.0]])


def test_matrix_texts_are_repr_over_the_whole_exponent_range():
    """The writer's texts are repr's for 2^17 random bit patterns, each
    finite double equally likely, and at the points where orjson's notation
    and repr's part: 1e-4 and 1e16, the doubles before them, the subnormals'
    ends and the largest double. A later orjson whose float text changed
    fails here."""
    edges = [0.0, 5e-324, np.nextafter(2.0 ** -1022, 0.0), 2.0 ** -1022,
             1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
             np.finfo(float).max]
    bits = np.random.default_rng(41).integers(0, 2 ** 64, 1 << 17,
                                              dtype=np.uint64)
    x = bits.view(float)
    x = np.concatenate([edges, np.negative(edges), x[np.isfinite(x)]])
    M = x[: len(x) // 2 * 2].view(complex).reshape(1, -1)
    assert linalg._texts(M) == list(map(repr, M.view(float).ravel().tolist()))


def test_json_rejects_bad_length():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})


_PAIR_ENTRIES = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]) | st.integers(
    -2 ** 80, 2 ** 80) | st.sampled_from(
    [-0.0, 0, 2 ** 53 + 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1, 2 ** 1023])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_PAIR_ENTRIES, min_size=2, max_size=2), min_size=1,
                max_size=12))
def test_flat_pairs_take_one_conversion_bit_for_bit(data):
    """A flat [[re, im], ...] list of random bit patterns and integers, also
    beyond 64 bits, converts without numpy's shape discovery to the bits the
    general route gives."""
    huge = data + [[10 ** 400, 0.0]]  # beyond a double: both refuse alike
    with mock.patch.object(linalg, "_nested_pairs",
                           side_effect=AssertionError):
        fast = linalg._complex_pairs(data)
        with pytest.raises(OverflowError) as fast_error:
            linalg._complex_pairs(huge)
    assert fast.tobytes() == linalg._nested_pairs(data).tobytes()
    with pytest.raises(OverflowError) as general_error:
        linalg._nested_pairs(huge)
    assert str(fast_error.value) == str(general_error.value)


def test_a_table_of_pair_rows_takes_the_general_route():
    """A 2 x 2 table whose rows have length 2 but hold pairs, not numbers,
    is not a flat list of pairs, and is read, not refused; lists that are
    not pairs of numbers are refused."""
    invol = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    with mock.patch.object(linalg, "_nested_pairs",
                           wraps=linalg._nested_pairs) as general:
        got = linalg._complex_pairs(invol)
    general.assert_called_once_with(invol)
    assert got.dtype == complex and got.tolist() == [[1, 0], [0, 1]]
    for bad in ([[1.0, True]], [["1.0", 0.0]], [[1.0, [0.0]]],
                [[1.0], [2.0]], [[1.0, 2.0, 3.0], [4.0]], [[1.0, 2.0], [3.0]],
                [{"a": 1, "b": 2}], 3):
        with pytest.raises(ValueError):
            linalg._complex_pairs(bad)


def test_thresholds_are_named_only_in_the_linalg_policy_block():
    """A float literal below 1e-3 in the package is a threshold, and each
    lives in one module-level assignment of linalg; anywhere else it would
    be a second, unnamed tolerance policy."""
    stray = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = set()
        if path.name == "linalg.py":
            named = {id(node) for stmt in tree.body
                     if isinstance(stmt, ast.Assign) for node in ast.walk(stmt)}
        stray += [f"{path.name}:{node.lineno} {node.value!r}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, float)
                  and 0.0 < abs(node.value) < 1e-3 and id(node) not in named]
    assert not stray, stray


def test_only_linalg_raises_dimension_mismatch():
    """require_same_dim is the one dimension check: a DimensionMismatch
    built anywhere else in the package would be a second one."""
    stray = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name != "linalg.py":
            stray += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(
                          node.func, "attr", None)) == "DimensionMismatch"]
    assert not stray, stray


def test_only_linalg_spells_the_matrix_layout():
    """dumps and matrix_from_json are the one codec: the layout's keys used
    as a key, a subscript or a dict literal's, anywhere else in the package
    would be a second one."""
    stray = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name != "linalg.py":
            tree = ast.parse(path.read_text())
            keys = [node.slice for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript)]
            keys += [key for node in ast.walk(tree)
                     if isinstance(node, ast.Dict) for key in node.keys]
            stray += [f"{path.name}:{key.lineno} {key.value!r}" for key in keys
                      if isinstance(key, ast.Constant)
                      and key.value in ("rows", "cols", "data")]
    assert not stray, stray


def test_every_dimension_check_raises_dimension_mismatch():
    import oplattice as op
    two, three = np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0])
    P2 = op.Projector(np.diag([1.0, 0.0]))
    P3 = op.Projector(np.diag([1.0, 0.0, 0.0]))
    rho = op.DensityState.maximally_mixed(2)
    V = op.SymmetryOperator(np.eye(3))
    units = list(np.eye(4).reshape(4, 2, 2))
    alg = op.algebra_from_matrices(units)
    omega = op.state_from_density(alg, units, rho)
    triple = op.gns_construct(alg, omega)
    pure = op.gns_construct(alg, op.state_from_density(
        alg, units, np.diag([1.0, 0.0])))
    calls = [
        lambda: op.commutant([two], dim=3),
        lambda: op.commutant([two, three]),
        lambda: op.MatrixStarAlgebra([np.eye(2)]).contains(np.eye(3)),
        lambda: op.heisenberg_observable(two, three, 0.1),
        lambda: op.noether_check(two, three),
        lambda: op.commuting_via_groups(two, three),
        lambda: V.apply([1.0, 0.0]),
        lambda: V.compose(op.SymmetryOperator(np.eye(2))),
        lambda: op.wigner_apply(V, rho),
        lambda: op.wigner_apply_observable(V, two),
        lambda: op.folium_state(triple, rho, alg),
        *(lambda f=f: f(P2, P3) for f in (
            op.meet, op.join, op.jauch_meet, op.is_below, op.commutes,
            op.commuting_decomposition, op.orthomodular_check)),
        *(lambda f=f, A=A: f(rho, A) for f, A in (
            (op.born_probability, P3), (op.expectation, three),
            (op.std_deviation, three), (op.luders_collapse, P3),
            (op.sequential_probability, [P3]))),
        lambda: op.transition_probability(op.PureStateVector([1.0, 0.0]),
                                          op.PureStateVector([1.0, 0, 0])),
        lambda: op.gleason_fit([(P2, 1.0), (P3, 1.0)]),
        lambda: op.svn_hypotheses_check([two], [three]),
        lambda: op.MatrixStarAlgebra([np.eye(2), np.eye(3)]),
        lambda: op.superselection_sectors([two], [three]),
        lambda: op.superselection_sectors([two, three], []),
        lambda: op.algebra_from_matrices([two, three]),
        lambda: op.state_from_density(alg, [np.eye(3)] * 4, rho),
        lambda: op.ProjectorValuedMeasure(
            3, [(0.0, P2.matrix), (1.0, np.diag([0.0, 1.0, 1.0]))]),
        lambda: op.verify_gns(triple._replace(
            pi_images=[*triple.pi_images[:3], np.eye(3)]), alg, omega),
        lambda: op.gns_intertwiner(triple, pure),
        lambda: op.multipliers_from_operators(
            [0, 1], lambda g, h: (g + h) % 2, {0: np.eye(2), 1: three}),
        lambda: op.dyson_evolve([(0.0, two), (1.0, three)], 0.0, 1.0),
        lambda: op.generator_from_group([(0.1, np.eye(2)), (-0.1, np.eye(3))]),
    ]
    for call in calls:
        with pytest.raises(op.DimensionMismatch):
            call()


def test_every_family_is_a_read_only_complex_stack():
    """Each family the library returns is one read-only complex (k, n, n)
    array, and as_stack admits a family into a new one: the caller's arrays
    stay theirs, and an empty family needs its dimension."""
    import oplattice as op
    sx, sz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    gens = [np.kron(sz, np.eye(2))]
    alg = op.MatrixStarAlgebra.generated_by(gens)
    units = list(np.eye(4).reshape(4, 2, 2))
    gns_alg = op.algebra_from_matrices(units)
    omega = op.state_from_density(gns_alg, units, np.diag([0.7, 0.3]))
    report = op.superselection_sectors([np.kron(sz, np.eye(2))],
                                       [np.kron(np.eye(2), sx)])
    families = {
        "commutant": (op.commutant(gens), 8, 4),
        "double_commutant": (op.double_commutant(gens), 2, 4),
        "center": (op.center(alg), 2, 4),
        "basis": (alg.basis, 2, 4),
        "_prime": (alg._prime, 8, 4),
        "restricted_basis": (report.sectors[0].restricted_basis, 2, 2),
        "pi_images": (op.gns_construct(gns_alg, omega).pi_images, 4, 4),
    }
    for name, (F, k, n) in families.items():
        assert type(F) is np.ndarray and F.dtype == complex, name
        assert F.shape == (k, n, n) and not F.flags.writeable, name
    given = [np.eye(2), sx]
    S = linalg.as_stack(given, 2)
    assert S.shape == (2, 2, 2) and S.dtype == complex
    assert not S.flags.writeable and given[0].flags.writeable
    assert not np.shares_memory(S, given[1])
    assert linalg.as_stack([], 3).shape == (0, 3, 3)
    with pytest.raises(ValueError, match="no dimension"):
        linalg.as_stack([])
    with pytest.raises(ValueError, match="2-d"):
        linalg.as_stack([np.eye(2)[0]])
    with pytest.raises(NotSquare):
        linalg.as_stack([np.zeros((2, 3))])


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def test_stack_of_an_array_equals_the_stack_of_its_matrices():
    """as_stack checks a 3-d array whole; the stack and every exception are
    those of the list of its matrices: non-finite (in the first or a later
    matrix, square or not), non-square, wrong dims, and the empty family."""
    rng = np.random.default_rng(18)
    S = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    non_square = rng.standard_normal((4, 2, 3))
    cases = [(S, ()), (S, (3,)), (S, (3, 3)), (S.real, ()),
             (S.transpose(0, 2, 1), ()), (S[:, :2], ()), (non_square, ()),
             (S, (2,)), (S, (3, 4)), (S[:0], ()), (S[:0], (3,))]
    for at in [(0, 1, 2), (3, 0, 0)]:
        for value in [np.nan, np.inf, -np.inf]:
            for bad in (S, non_square):
                bad = bad.copy()
                bad[at] = value
                cases.append((bad, ()))
    raised = set()
    for arr, dims in cases:
        want = _outcome(lambda: linalg.as_stack(list(arr), *dims))
        got = _outcome(lambda: linalg.as_stack(arr, *dims))
        if isinstance(want, np.ndarray):
            assert type(got) is np.ndarray and got.dtype == complex
            assert np.array_equal(got, want) and got.shape == want.shape
            assert not got.flags.writeable and not np.shares_memory(got, arr)
        else:
            assert got == want, (arr.shape, dims)
            raised.add(got[0])
    assert raised == {ValueError, NotSquare, linalg.DimensionMismatch}


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 3), log_delta=st.floats(-14, -6),
       seed=st.integers(0, 2**32 - 1))
def test_unitarity_gate_takes_one_product(n, k, log_delta, seed):
    """On square complex M = Q(I + delta E), ||E||_2 = 1, the gate's one
    product M^*M - I measures within 4 n eps max(1, ||M||_2^2) of the larger
    of both products, ||M^*M - I||_F = ||MM^* - I||_F in exact arithmetic;
    the gate passes exactly when that one defect is within its threshold,
    and otherwise reports it."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    Q = np.linalg.qr(Z)[0]
    E = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    E /= np.linalg.norm(E, 2, axis=(1, 2))[:, None, None]
    M = Q @ (np.eye(n) + 10.0 ** log_delta * E)
    one = np.array([linalg.frobenius(X.conj().T @ X - np.eye(n)) for X in M])
    both = np.maximum(one, [linalg.frobenius(X @ X.conj().T - np.eye(n))
                            for X in M])
    bound = 4 * n * np.finfo(float).eps * np.maximum(
        1.0, np.linalg.norm(M, 2, axis=(1, 2)) ** 2)
    assert (np.abs(one - both) <= bound).all()
    worst = float(one.max())
    if worst <= linalg.DEFAULT_TOL * max(1.0, np.sqrt(n)):
        assert require_unitary(M) is M
    else:
        with pytest.raises(NotUnitary) as exc:
            require_unitary(M)
        assert exc.value.defect == worst


def test_a_stack_is_not_one_operator():
    """A (k, n, n) array is a family, not an operator: each single-operator
    admission refuses it as not 2-d, and the eigensolver takes only admitted
    operators."""
    import oplattice as op
    stack = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0])]).astype(complex)
    for admit in (HermitianOperator, op.DensityState, linalg.hermitian_part,
                  op.spectral_decompose,
                  lambda M: op.expectation(op.DensityState(np.eye(3) / 3), M)):
        with pytest.raises(ValueError, match="2-d"):
            admit(stack)
    with pytest.raises(AttributeError):
        eig_hermitian(stack)


def test_stack_admission_decides_as_each_matrix_alone():
    """The stacked admission takes every defect in one pass and leaves a
    matrix whose defect alone fails to hermitian_part: large matrices that
    pass only relative to ||A||_F are admitted with the bits they get
    alone, and the first one refused raises its own NotHermitian."""
    rng = np.random.default_rng(61)
    H = [random_hermitian(4, rng) for _ in range(3)]
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    skew = X - X.conj().T
    family = [1e6 * H[0] + 1e-6 * skew, H[1], 1e-30 * H[2], np.zeros((4, 4))]
    got = linalg._hermitian_parts(linalg.as_stack(family), 1e-10)
    for G, M in zip(got, family):
        assert np.array_equal(G, HermitianOperator(M).matrix)
    family[1] = H[1] + 1e-3 * skew
    family[2] = 1e6 * H[0] + 1e-3 * skew
    with pytest.raises(NotHermitian) as exc:
        linalg._hermitian_parts(linalg.as_stack(family), 1e-10)
    with pytest.raises(NotHermitian) as alone:
        HermitianOperator(family[1])
    assert str(exc.value) == str(alone.value)


def test_gate_refuses_a_nan_defect_and_a_nan_bound():
    assert linalg._gate(1.0, 1.0, NotHermitian) is None
    for defect, bound in ((np.nan, 1.0), (0.0, np.nan), (2.0, 1.0)):
        with pytest.raises(NotHermitian) as exc:
            linalg._gate(defect, bound, NotHermitian)
        assert (np.isnan(exc.value.defect), np.isnan(exc.value.bound)) == (
            np.isnan(defect), np.isnan(bound))
        assert str(exc.value) == f"Hermiticity defect {defect:.3e} exceeds tolerance"


def _compares_with_a_tolerance(test):
    """Whether an if test compares with a *_TOL name or a tol parameter;
    the *_RTOL rank cutoffs and ABS_FLOOR are not tolerances of a gate."""
    def named(node):
        name = getattr(node, "id", getattr(node, "attr", ""))
        return name == "tol" or name.endswith("_TOL") and not name.endswith(
            "_RTOL")
    return any(isinstance(cmp, ast.Compare) and any(
        named(node) for node in ast.walk(cmp)) for cmp in ast.walk(test))


def test_every_tolerance_refusal_goes_through_the_gate():
    """An if that compares with a tolerance and raises is a gate written by
    hand, whose `defect > bound` lets a NaN through: each goes through
    linalg._gate, which decides `defect <= bound`."""
    stray = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        gate = next((node for node in tree.body
                     if getattr(node, "name", None) == "_gate"), None)
        skip = {id(node) for node in ast.walk(gate)} if gate else set()
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.If) and id(node) not in skip
                  and _compares_with_a_tolerance(node.test)
                  and any(isinstance(inner, ast.Raise)
                          for stmt in node.body for inner in ast.walk(stmt))]
    assert not stray, stray


def _refusal_cases():
    """(class name, a public call it refuses, its defect, its bound)."""
    import oplattice as op
    from oplattice import gns, lattice
    I2, SX, SZ = np.eye(2), np.array([[0, 1], [1, 0.0]]), np.diag([1.0, -1.0])
    E1, E2, r2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.sqrt(2.0)
    one = op.AbstractStarAlgebra([[[1.0]]], [[1.0]], [1.0])
    diagonal = op.algebra_from_matrices([E1, E2])

    def triple(rho):
        state = op.state_from_density(diagonal, [E1, E2], rho)
        return op.gns_construct(diagonal, state)

    def lost_orthogonality():
        # parts that overlap: no commuting pair's decomposition reaches here
        with mock.patch.object(lattice, "commuting_decomposition",
                               lambda P, Q, tol: (P, P, P)):
            op.commutes(op.Projector(E1), op.Projector(E1))

    pair = op.build_truncated_pair(4)
    return [
        ("NotHermitian", lambda: op.HermitianOperator([[0, 1], [0, 0]]),
         r2, 1e-10),
        ("NotUnitary", lambda: op.UnitaryOperator(np.diag([1.0, 2.0])),
         3.0, 1e-10 * r2),
        ("NotClosedUnderProducts", lambda: op.MatrixStarAlgebra([I2, SX, SZ]),
         r2, 2e-10),
        ("MissingIdentity", lambda: op.MatrixStarAlgebra([E1]), 1.0, 1e-10 * r2),
        ("NonCommutingCharges", lambda: op.superselection_sectors([SZ, SX], [I2]),
         np.sqrt(0.5), 1e-8),
        ("NonCentralCharge", lambda: op.superselection_sectors([SZ], [SX]),
         2.0 * r2, 1e-8 * r2),
        ("NonCommuting", lambda: op.joint_pvm([SZ, SX]), np.sqrt(0.5), 1e-8),
        ("NotAPVM", lambda: op.ProjectorValuedMeasure(2, [(0.0, E1), (1.0, E1)]),
         2.0 * r2, 1e-10),
        ("InconsistentGroup", lambda: op.generator_from_group(
            [(0.0, SZ), (1.0, I2), (-1.0, I2)]), 2.0, 1e-8),
        # an eigenvalue -1 + 1e-9i of unit modulus to working precision
        ("BranchCut", lambda: op.generator_from_group(
            [(1.0, np.diag([1.0, -1.0 + 1e-9j])),
             (-1.0, np.diag([1.0, -1.0 - 1e-9j]))]), 1e9, 1e8),
        ("NotHermitianResult", lambda: op.generator_from_group(
            [(1.0, [[1, 1], [0, 1]]), (-1.0, I2)]), np.sqrt(0.5), 1e-8),
        ("NotACocycle", lambda: op.cocycle_check(op.MultiplierTable(
            [0, 1], {(0, 0): 1, (0, 1): 1j, (1, 0): 1, (1, 1): 1}),
            lambda g, h: (g + h) % 2), r2, 1e-9),
        ("NotUnitModulus", lambda: op.MultiplierTable([0], {(0, 0): 2.0}),
         1.0, 1e-9),
        ("NotProjective", lambda: op.multipliers_from_operators(
            [0, 1], lambda g, h: (g + h) % 2, {0: I2, 1: np.diag([1.0, 2.0])}),
         3.0, 1e-8 * r2),
        ("DegenerateAlgebra", lambda: op.AbstractStarAlgebra(
            [[[2.0]]], [[1.0]], [1.0]), 1.0, 1e-8),
        ("NotAState", lambda: op.AlgebraicState(one, [2.0]), 1.0, 2e-8),
        ("NoIntertwiner", lambda: op.gns_intertwiner(triple(E1), triple(E2)),
         1.0, 1e-9),
        ("OutsideSpan", lambda: op.algebra_from_matrices([E1]), 1.0, 1e-8),
        ("NotProjector", lambda: op.Projector(np.diag([1.0, 0.3])), 0.3, 1e-10),
        ("LostOrthogonality", lost_orthogonality, 1.0, 1e-8),
        ("TailTooLarge", lambda: op.heisenberg_uncertainty(
            pair, pair.fock_state(3)), 1.0, 1e-8),
        ("ZeroProbability", lambda: op.luders_collapse(E1, E2), 0.0, 1e-12),
        ("InconsistentAssignments", lambda: op.gleason_fit(
            [(P, 1.0) for P in op.tomography_frame(2)]), 0.5, 1e-6),
        ("NotUnitVector", lambda: op.PureStateVector([1.0, 1.0]),
         r2 - 1.0, 1e-10),
        ("NegativeEigenvalue", lambda: op.DensityState(np.diag([1.5, -0.5])),
         0.5, 1e-10),
        ("NotUnitTrace", lambda: op.DensityState(np.diag([0.5, 0.25])),
         0.25, 1e-10),
        # a negative tol moves the bound below a probability of 1
        ("ProbabilityOutOfRange", lambda: op.born_probability(
            op.DensityState(E1), op.Projector(E1), tol=-0.5), 1.0, 0.5),
        # a state admitted at tol 1 has eigenvalue -0.5, and so <A^2> < <A>^2
        ("NegativeVariance", lambda: op.std_deviation(
            op.DensityState(np.diag([1.5, -0.5]), tol=1.0), SZ), 3.0, 1e-10),
    ]


def _refusal_classes():
    import oplattice
    from oplattice import (algebras, dynamics, gns, lattice, oscillator,
                           spectral, states)
    return {name: cls for module in (linalg, spectral, lattice, states,
                                     algebras, dynamics, oscillator, gns,
                                     oplattice)
            for name, cls in vars(module).items() if isinstance(cls, type)
            and issubclass(cls, linalg.Refusal) and cls is not linalg.Refusal}


def test_every_refusal_class_has_a_case():
    assert sorted(name for name, *_ in _refusal_cases()) == sorted(
        _refusal_classes())


@pytest.mark.parametrize("case", _refusal_cases(), ids=lambda case: case[0])
def test_each_refusal_reports_its_defect_and_bound(case):
    name, call, defect, bound = case
    with pytest.raises(_refusal_classes()[name]) as exc:
        call()
    assert exc.value.defect == pytest.approx(defect, rel=1e-12)
    assert exc.value.bound == pytest.approx(bound, rel=1e-12)
