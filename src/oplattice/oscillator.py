"""Truncated canonical pair in the ladder basis.

Corner truncation of the infinite ladder matrices: the commutation relation
[X, P] = i*hbar*I then fails only in the bottom-right entry, with an exact
closed-form defect that tests can target instead of treating as noise.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .algebras import commutant
from .linalg import (
    ABS_FLOOR,
    SOLVER_TOL,
    HermitianOperator,
    Refusal,
    ToleranceFailure,
    _gate,
    _hermitian,
    frobenius,
    operator_norm,
    require_same_dim,
)
from .states import DensityState, PureStateVector, std_deviation


class BadDimension(ValueError):
    def __init__(self, n):
        super().__init__(f"truncation dimension {n} is below 2")
        self.n = int(n)


class TailTooLarge(Refusal, ToleranceFailure, ValueError):
    template = ("state carries weight {defect:.3e} on the top truncation "
                "levels; moments there are artifacts")
    weight = property(lambda self: self.defect)


class TruncatedCanonicalPair:
    """Position and momentum cut to the lowest N ladder levels.

    With a the real N-level lowering matrix: X = sqrt(hbar/2m omega)(a + aT)
    and P = i sqrt(m omega hbar/2)(aT - a). The commutator equals
    i*hbar*(I - N |top><top|) exactly.
    """

    __slots__ = ("n", "m", "omega", "hbar", "lowering", "X", "P")

    def __init__(self, n, m=1.0, omega=1.0, hbar=1.0):
        n = int(n)
        if n < 2:
            raise BadDimension(n)
        for name, value in (("m", m), ("omega", omega), ("hbar", hbar)):
            if not 0.0 < float(value) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        self.n = n
        self.m = float(m)
        self.omega = float(omega)
        self.hbar = float(hbar)
        a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1)
        self.lowering = a
        lx = np.sqrt(self.hbar / (2.0 * self.m * self.omega))
        lp = np.sqrt(self.m * self.omega * self.hbar / 2.0)
        self.X = HermitianOperator(lx * (a + a.T))
        self.P = HermitianOperator(1j * lp * (a.T - a))

    def commutator(self):
        return self.X.matrix @ self.P.matrix - self.P.matrix @ self.X.matrix

    def commutator_defect(self):
        """Operator norm of [X,P] - i*hbar*I; equals hbar*N for the corner
        truncation."""
        gap = self.commutator() - 1j * self.hbar * np.eye(self.n)
        return operator_norm(gap)

    def number_operator(self):
        return HermitianOperator(np.diag(np.arange(self.n, dtype=float)))

    def hamiltonian(self):
        """P^2/2m + m omega^2 X^2 / 2. Equals hbar*omega*(number + 1/2)
        except on the top two levels, where the truncation bites."""
        K = self.P.matrix @ self.P.matrix / (2.0 * self.m)
        V = self.m * self.omega ** 2 * (self.X.matrix @ self.X.matrix) / 2.0
        return HermitianOperator(K + V)

    def ground_state(self):
        v = np.zeros(self.n)
        v[0] = 1.0
        return PureStateVector(v)

    def fock_state(self, k):
        if not 0 <= int(k) < self.n:
            raise ValueError(f"level {k} outside 0..{self.n - 1}")
        v = np.zeros(self.n)
        v[int(k)] = 1.0
        return PureStateVector(v)

    def __repr__(self):
        return (
            f"TruncatedCanonicalPair(n={self.n}, m={self.m}, "
            f"omega={self.omega}, hbar={self.hbar})"
        )


def build_truncated_pair(n, m=1.0, omega=1.0, hbar=1.0) -> TruncatedCanonicalPair:
    return TruncatedCanonicalPair(n, m, omega, hbar)


UncertaintyReport = namedtuple(
    "UncertaintyReport", ["dx", "dp", "product", "bound", "tail"]
)


def heisenberg_uncertainty(pair: TruncatedCanonicalPair,
                           psi) -> UncertaintyReport:
    """Deviation product against the commutator bound.

    The state must sit away from the truncation edge: weight on the top two
    levels beyond SOLVER_TOL is rejected, since second moments reach two
    levels above the support. The reported bound is hbar/2 corrected by the
    exact corner term, never the bare textbook constant.
    """
    if not isinstance(psi, PureStateVector):
        psi = PureStateVector(psi)
    if psi.dim != pair.n:
        raise ValueError(f"state dim {psi.dim} vs truncation {pair.n}")
    weights = np.abs(psi.amplitudes) ** 2
    tail = float(weights[-2:].sum())
    _gate(tail, SOLVER_TOL, TailTooLarge)
    rho = DensityState.from_vector(psi)
    dx = std_deviation(rho, pair.X)
    dp = std_deviation(rho, pair.P)
    top = float(weights[-1])
    bound = pair.hbar / 2.0 * abs(1.0 - pair.n * top)
    product = dx * dp
    if product + ABS_FLOOR < bound:
        raise ArithmeticError(
            f"deviation product {product} beat its own lower bound {bound}"
        )
    return UncertaintyReport(dx, dp, product, bound, tail)


def svn_hypotheses_check(Q_list, M_list, hbar=1.0) -> dict:
    """Diagnostic report on a candidate canonical family.

    Measures how far the pairs are from the canonical relations (operator
    norm), whether the family acts irreducibly (commutant dimension 1), and
    whether the sum of squares is Hermitian. Also states the unavoidable
    floor: commutators are traceless, i*hbar*I is not, so the relation
    can never hold exactly at finite dimension and the defect is at least
    hbar in operator norm.
    """
    Qs = [_hermitian(Q).matrix for Q in Q_list]
    Ms = [_hermitian(M).matrix for M in M_list]
    if len(Qs) != len(Ms):
        raise ValueError(
            f"need matching lists, got {len(Qs)} and {len(Ms)}"
        )
    report = {
        "pairs": len(Qs),
        "hbar": hbar,
        "finite_dim_note": (
            "commutators are traceless, so the canonical relation cannot "
            "hold exactly at finite dimension"
        ),
        "minimum_defect_bound": float(hbar),
    }
    if not Qs:
        report.update({
            "dim": None,
            "ccr_residuals": [],
            "position_commutators": [],
            "momentum_commutators": [],
            "trace_residuals": [],
            "commutant_dimension": None,
            "irreducible": None,
            "sum_squares_hermiticity_defect": 0.0,
        })
        return report
    n = require_same_dim(*(A.shape[0] for A in Qs + Ms))
    eye = np.eye(n)

    ccr = [[0.0] * len(Ms) for _ in Qs]
    traces = []
    for h, Q in enumerate(Qs):
        for k, M in enumerate(Ms):
            comm = Q @ M - M @ Q
            target = 1j * hbar * eye if h == k else 0.0
            ccr[h][k] = operator_norm(comm - target)
            if h == k:
                traces.append(abs(complex(np.trace(comm))))
    qq = [[operator_norm(A @ B - B @ A) for B in Qs] for A in Qs]
    mm = [[operator_norm(A @ B - B @ A) for B in Ms] for A in Ms]

    prime = commutant(Qs + Ms, n)
    square_sum = sum(Q @ Q for Q in Qs) + sum(M @ M for M in Ms)
    herm_defect = frobenius(square_sum - square_sum.conj().T)

    report.update({
        "dim": n,
        "ccr_residuals": ccr,
        "position_commutators": qq,
        "momentum_commutators": mm,
        "trace_residuals": traces,
        "commutant_dimension": len(prime),
        "irreducible": len(prime) == 1,
        "sum_squares_hermiticity_defect": herm_defect,
    })
    return report
