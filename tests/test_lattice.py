"""Projector lattice: meet, join, ordering, and the alternating-product meet."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplattice import lattice
from oplattice import (
    MaxIterExceeded,
    NotComparable,
    NotProjector,
    Projector,
    commutes,
    commuting_decomposition,
    dumps,
    frobenius,
    identity_projector,
    is_below,
    jauch_meet,
    join,
    matrix_from_json,
    meet,
    neg,
    operator_norm,
    orthomodular_check,
    projector_from_json,
    projector_to_json,
    span_projector,
    zero_projector,
)

from oplattice.lattice import _projectors
from oplattice.linalg import _fro_batch

from oracles import span_projector_oracle


def ray(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return Projector(np.outer(v, v.conj()))


def random_projector(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b = q[:, :r]
    return Projector(b @ b.conj().T)


def test_validation_rejects_non_idempotent_and_non_hermitian():
    with pytest.raises(NotProjector):
        Projector(np.array([[0.5, 0.5], [0.5, 0.5]]) * 1.2)
    with pytest.raises(NotProjector):
        Projector(np.array([[1.0, 0.3], [0.0, 0.0]]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # P @ P
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_idempotency_defect_lost_to_overflow_is_refused():
    # Hermitian with trace 0, but P @ P is inf - inf = NaN off the diagonal
    with pytest.raises(NotProjector) as info:
        Projector(np.array([[1e200, 1e200], [1e200, -1e200]]))
    assert np.isnan(info.value.defect)


def _refused(kind, n):
    """A matrix of the given kind that Projector refuses."""
    M = np.zeros((n, n), dtype=complex)
    M[0, 0] = 1.0
    if kind == "non_hermitian":
        M[0, 1] = 1e-6
    elif kind == "non_idempotent":
        M[0, 0], M[1, 1] = 2.0, -1.0  # Hermitian, trace 1
    elif kind == "fractional_trace":
        M[0, 0] = 0.5
    else:
        M[1, 1] = np.nan
    return M


@pytest.mark.parametrize(
    "kind", ["non_hermitian", "non_idempotent", "fractional_trace", "nan"])
def test_stack_check_refuses_what_projector_refuses(kind, monkeypatch):
    rng = np.random.default_rng(17)
    n = 4
    good = [random_projector(rng, n, r).matrix for r in (0, 1, 2, 3, 4, 2, 1)]
    first = _refused(kind, n)
    later = _refused("non_hermitian" if kind == "nan" else "nan", n)
    later[2, 3] += 0.25  # a defect of its own
    stack = good[:3] + [first] + good[3:5] + [later] + good[5:]
    with pytest.raises(ValueError) as alone:
        Projector(first)
    # one slice, then slices of two matrices so the first refusal is in the second
    for entries in (lattice._CHECK_SLICE, 2 * n * n):
        monkeypatch.setattr(lattice, "_CHECK_SLICE", entries)
        with pytest.raises(NotProjector) as stacked:
            _projectors(np.array(stack))
        if kind == "nan":  # Projector's as_matrix refuses NaN before the check
            assert np.isnan(stacked.value.defect)
        else:
            assert type(alone.value) is NotProjector
            assert stacked.value.defect == alone.value.defect


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 4), fortran=st.booleans(),
       noise=st.sampled_from([0.0, 1e-13, 1e-6]),
       seed=st.integers(0, 2**32 - 1))
def test_stack_defects_are_frobenius_norms_bit_for_bit(n, k, fortran, noise,
                                                       seed):
    """_fro_batch is frobenius() of each C-ordered matrix, bit for bit, on a
    3-d stack, a 4-d one (as dynamics._commutator_defect passes) and a
    non-contiguous one, and a refused matrix reports
    max(||P - P^*||_F, ||P^2 - P||_F, trace gap) with those norms, however
    its entries are laid out in memory."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_projector(rng, n, int(rng.integers(0, n + 1)))
                      .matrix for _ in range(k)])
    stack += noise * (rng.standard_normal(stack.shape)
                      + 1j * rng.standard_normal(stack.shape))
    want = [frobenius(M) for M in stack]
    assert np.array_equal(_fro_batch(stack), want)
    pairs = stack[:, None] @ stack[None, :] - stack[None, :] @ stack[:, None]
    assert np.array_equal(_fro_batch(pairs),
                          [[frobenius(M) for M in row] for row in pairs])
    strided = stack.transpose(0, 2, 1)[::-1]
    assert np.array_equal(_fro_batch(strided), [
        frobenius(np.ascontiguousarray(M)) for M in strided])
    P = np.asfortranarray(stack[0]) if fortran else stack[0]
    tr = np.trace(P).real
    parts = (P - P.conj().T, P @ P - P)
    defect = max(*(frobenius(np.ascontiguousarray(D)) for D in parts),
                 abs(tr - np.rint(tr)))
    with pytest.raises(NotProjector) as info:
        Projector(P, tol=-1.0)
    assert info.value.defect == defect


@pytest.mark.parametrize("entries", [1 << 16, 32])
def test_stack_check_admits_what_projector_admits(entries, monkeypatch):
    rng = np.random.default_rng(19)
    n = 4
    noisy = [random_projector(rng, n, r).matrix + 1e-7 * np.eye(n) / n
             for r in (0, 1, 2, 3, 4, 2)]
    monkeypatch.setattr(lattice, "_CHECK_SLICE", entries)
    stack = np.array(noisy)
    got = _projectors(stack, tol=1e-5)
    with pytest.raises(NotProjector):
        _projectors(np.array(noisy))
    for P, M in zip(got, noisy):
        alone = Projector(M, tol=1e-5)
        assert (P.rank, P.dim) == (alone.rank, alone.dim)
        assert np.array_equal(P.matrix, M) and P.matrix.base is stack
        assert not P.matrix.flags.writeable
    assert not stack.flags.writeable


def test_span_matches_qr_oracle():
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    P = span_projector([cols[:, 0], cols[:, 1]])
    assert frobenius(P.matrix - span_projector_oracle(cols)) <= 1e-12
    assert P.rank == 2


def test_meet_join_on_overlapping_planes():
    e = np.eye(4, dtype=complex)
    P = span_projector([e[:, 0], e[:, 1]])
    Q = span_projector([e[:, 1], e[:, 2]])
    m = meet(P, Q)
    j = join(P, Q)
    assert frobenius(m.matrix - ray(e[:, 1]).matrix) <= 1e-12
    expect_join = span_projector_oracle(e[:, :3])
    assert frobenius(j.matrix - expect_join) <= 1e-12
    assert (m.rank, j.rank) == (1, 3)


def test_de_morgan_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        P = random_projector(rng, n, int(rng.integers(1, n)))
        Q = random_projector(rng, n, int(rng.integers(1, n)))
        lhs = neg(join(P, Q))
        rhs = meet(neg(P), neg(Q))
        assert frobenius(lhs.matrix - rhs.matrix) <= 1e-9


def test_trivial_elements_absorb():
    rng = np.random.default_rng(29)
    P = random_projector(rng, 4, 2)
    one = identity_projector(4)
    zero = zero_projector(4)
    assert frobenius(meet(P, one).matrix - P.matrix) <= 1e-12
    assert frobenius(join(P, zero).matrix - P.matrix) <= 1e-12
    assert is_below(zero, P) and is_below(P, one)


def test_alternating_product_norms_follow_cosine_power_law():
    # rays at angle theta in C^2: after k multiplications the iterate is
    # cos(theta)^(2k) times the first projector, and the meet is zero
    theta = 0.7
    P = ray([1.0, 0.0])
    Q = ray([np.cos(theta), np.sin(theta)])
    log = []
    got = jauch_meet(P, Q, tol=1e-10, norm_log=log)
    assert got.rank == 0
    assert len(log) >= 10
    for k, val in enumerate(log, start=1):
        assert abs(val - np.cos(theta) ** (2 * k)) <= 1e-10


def test_alternating_product_finds_exact_intersection():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    w = [q[:, k] for k in range(8)]
    P = span_projector(w[0:4])
    Q = span_projector([w[0], w[1],
                        (w[4] + w[2]) / np.sqrt(2),
                        (w[5] + w[3]) / np.sqrt(2)])
    direct = meet(P, Q)
    iterated = jauch_meet(P, Q, tol=1e-9)
    assert direct.rank == 2
    assert frobenius(iterated.matrix - direct.matrix) <= 1e-7
    expect = span_projector_oracle(np.column_stack([w[0], w[1]]))
    assert frobenius(direct.matrix - expect) <= 1e-10


def test_alternating_product_gives_up_when_angle_is_tiny():
    P = ray([1.0, 0.0])
    Q = ray([np.cos(1e-4), np.sin(1e-4)])
    with pytest.raises(MaxIterExceeded):
        jauch_meet(P, Q, tol=1e-10, max_iter=10)


def test_order_relation_and_orthomodular_identity():
    e = np.eye(3, dtype=complex)
    P = ray(e[:, 0])
    Q = span_projector([e[:, 0], e[:, 1]])
    assert is_below(P, Q)
    assert not is_below(Q, P)
    assert orthomodular_check(P, Q)
    R = ray([1.0, 1.0, 0.0])
    with pytest.raises(NotComparable):
        orthomodular_check(R, P)


def test_commutes_and_decomposition_split():
    e = np.eye(4, dtype=complex)
    P = span_projector([e[:, 0], e[:, 1]])
    Q = span_projector([e[:, 1], e[:, 2]])
    assert commutes(P, Q)
    c1, c2, c3 = commuting_decomposition(P, Q)
    assert frobenius(c3.matrix - meet(P, Q).matrix) <= 1e-10
    assert frobenius((c1.matrix + c3.matrix) - P.matrix) <= 1e-10
    assert frobenius((c2.matrix + c3.matrix) - Q.matrix) <= 1e-10
    # the certificate parts of a commuting pair are pairwise orthogonal
    assert operator_norm(c1.matrix @ c2.matrix) <= 1e-10


def test_commutes_false_for_tilted_ray():
    P = ray([1.0, 0.0])
    R = ray([1.0, 1.0])
    assert not commutes(P, R)


def test_json_roundtrip_and_declared_rank_check():
    rng = np.random.default_rng(53)
    P = random_projector(rng, 5, 3)
    obj = json.loads(dumps(projector_to_json(P)))
    assert obj["rank"] == 3
    assert np.array_equal(matrix_from_json(obj), P.matrix)  # the wrapper reads
    back = projector_from_json(obj)
    assert frobenius(back.matrix - P.matrix) <= 1e-12
    obj["rank"] = 2
    with pytest.raises(ValueError):
        projector_from_json(obj)
    # int() reads each of these as 1, the rank of this projector
    line = json.loads(dumps(projector_to_json(ray([1.0, 0.0]))))
    assert projector_from_json(line).rank == 1
    for rank in (True, 1.5, "1", -1):
        line["rank"] = rank
        with pytest.raises(ValueError, match="non-negative integer"):
            projector_from_json(line)


def test_orthocomplement_keeps_the_admission_of_its_projector():
    """I - P carries P's defects, so a P admitted at tol 1e-6 but 1e-8 off a
    projector has an orthocomplement and meets under the default tol. The
    bend, along e1 of the basis U, is orthogonal to P ^ Q = span(U e0), so
    the intersection survives it."""
    rng = np.random.default_rng(71)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    bent = U @ np.diag([1.0, 1.0 + 1e-8, 0.0]) @ U.conj().T
    with pytest.raises(NotProjector):
        Projector(bent)
    P = Projector(bent, tol=1e-6)
    Q = Projector(U @ (np.diag([1.0, 0.0, 0.0]) + np.outer(v, v))
                  @ U.conj().T, tol=1e-6)
    notP = neg(P)
    assert notP.rank == 1 and notP.dim == 3
    assert np.array_equal(notP.matrix, np.eye(3) - P.matrix)
    assert not notP.matrix.flags.writeable
    both = meet(P, Q)
    assert both.rank == 1
    assert frobenius(both.matrix - np.outer(U[:, 0], U[:, 0].conj())) <= 1e-12


def test_meet_join_and_jauch_meet_take_one_eigh_per_projector(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda M: calls.append(M) or eigh(M))
    rng = np.random.default_rng(43)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6))
                        + 1j * rng.standard_normal((6, 6)))
    P = span_projector(q[:, :3].T)
    Q = span_projector([q[:, 0], (q[:, 1] + q[:, 3]) / np.sqrt(2), q[:, 4]])
    first = meet(P, Q), join(P, Q), jauch_meet(P, Q)
    # one eigh of P and one of Q give range(P), range(I - P) and Q's two
    assert len(calls) == 2
    assert calls[0] is P.matrix and calls[1] is Q.matrix
    for B in P._bases + Q._bases:
        with pytest.raises(ValueError):
            B[0, 0] = 0.0
    again = meet(P, Q), join(P, Q), jauch_meet(P, Q)
    assert len(calls) == 2
    fresh = [Projector(R.matrix.copy()) for R in (P, Q)]
    for got, want in zip(again, (meet(*fresh), join(*fresh), jauch_meet(*fresh))):
        assert np.array_equal(got.matrix, want.matrix)
    assert first[0].rank == 1 and first[1].rank == 5


def _projector_onto(cols):
    return Projector(cols @ cols.conj().T)


def _oracle(cols):
    n = cols.shape[0]
    return span_projector_oracle(cols) if cols.shape[1] else np.zeros((n, n))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_lattice_of_complex_subspaces_matches_the_oracle(data, n, seed):
    """P and Q share k directions of a Haar basis U, and p more of each meet
    at principal angles in [1e-3, pi/2]; R <= Q is a random subspace of Q."""
    k = data.draw(st.integers(0, n // 3))
    p = data.draw(st.integers(0, (n - k) // 2))
    theta = np.array(data.draw(st.lists(st.floats(1e-3, np.pi / 2),
                                        min_size=p, max_size=p)))
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    Qcols = np.hstack([U[:, :k], U[:, k:k + p] * np.cos(theta)
                       + U[:, k + p:k + 2 * p] * np.sin(theta)])
    W, _ = np.linalg.qr(rng.standard_normal((k + p, k + p))
                        + 1j * rng.standard_normal((k + p, k + p)))
    a = data.draw(st.integers(0, k + p))
    mats = (U[:, :k + p], Qcols, Qcols @ W[:, :a])

    def results(P, Q, R):
        return (meet(P, Q), join(P, Q), neg(join(P, Q)), meet(neg(P), neg(Q)),
                join(R, meet(neg(R), Q)))

    P, Q, R = (_projector_onto(c) for c in mats)
    both, either, lhs, rhs, _ = results(P, Q, R)
    # about eps / theta at the smallest angle: 1e-12 at 1e-3
    assert frobenius(both.matrix - _oracle(U[:, :k])) <= 1e-10
    assert frobenius(either.matrix - _oracle(U[:, :k + 2 * p])) <= 1e-10
    assert frobenius(lhs.matrix - rhs.matrix) <= 1e-10
    assert is_below(R, Q) and orthomodular_check(R, Q)
    # P, Q and R now keep their bases; fresh admissions give the same bits
    for got, want in zip(results(P, Q, R),
                         results(*(_projector_onto(c) for c in mats))):
        assert np.array_equal(got.matrix, want.matrix)
