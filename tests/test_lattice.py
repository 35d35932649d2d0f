"""Projector lattice: meet, join, ordering, and the alternating-product meet."""

import numpy as np
import pytest

from oplattice import lattice
from oplattice import (
    MaxIterExceeded,
    NotComparable,
    NotProjector,
    Projector,
    commutes,
    commuting_decomposition,
    frobenius,
    identity_projector,
    is_below,
    jauch_meet,
    join,
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
    obj = projector_to_json(P)
    assert obj["rank"] == 3
    back = projector_from_json(obj)
    assert frobenius(back.matrix - P.matrix) <= 1e-12
    obj["rank"] = 2
    with pytest.raises(ValueError):
        projector_from_json(obj)
