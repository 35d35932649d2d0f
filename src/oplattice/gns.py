"""Abstract *-algebras given by structure constants, linear functionals on
them, and the cyclic representation a state generates: quotient by the null
space of the Gram matrix, left multiplication pushed through, purity read
off the commutant.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .algebras import commutant
from .linalg import (
    PRODUCT_TOL,
    RANK_RTOL,
    SOLVER_TOL,
    _CHECK_SLICE,
    Refusal,
    _fro_batch,
    _gamma,
    _gate,
    _matrix_units,
    _products,
    _read_only,
    as_stack,
    frobenius,
    require_same_dim,
)
from .states import _density, is_pure


class DegenerateAlgebra(Refusal, ValueError):
    template = "structure constants violate {0} (defect {defect:.3e})"
    fields = ("what",)


class NotAState(Refusal, ValueError):
    template, fields = "not a state: {0} (defect {defect:.3e})", ("reason",)


class NoIntertwiner(Refusal, ValueError):
    template = "no unitary intertwiner within tolerance (defect {defect:.3e})"


class OutsideSpan(Refusal, ValueError):
    template = "{0} does not stay in the span (residual {defect:.3e})"


class InputIsPure(ValueError):
    def __init__(self):
        super().__init__("input state is pure; the demo needs a mixed one")


def _associativity(c):
    """(b_i b_j) b_l - b_i (b_j b_l) at [i, j, l, q] for the structure
    constants c, in slices of left factors b_i of _CHECK_SLICE entries (at
    least one factor each), two GEMMs a slice: no k^4 array is held."""
    k = len(c)
    right = c.reshape(k, -1)                     # [p, (l, q)]
    inner = c.transpose(2, 0, 1).reshape(k, -1)  # [p, (j, l)]
    step = max(1, _CHECK_SLICE // k ** 3)
    for lo in range(0, k, step):
        left = c[lo:lo + step]
        shape = (len(left), k, k, k)
        yield ((left.reshape(-1, k) @ right).reshape(shape)
               - (left.transpose(0, 2, 1).reshape(-1, k) @ inner)
               .reshape(shape).transpose(0, 2, 3, 1))


def _axiom_residuals(c, s, u, certified=False):
    """(axiom, residual array, scale of its bound) for the structure
    constants c, involution s and unit u, in checking order: associativity
    slice by slice (_associativity), left out for constants certified
    associative, then four O(k^3) checks, each one BLAS product. The scales
    are m^2, 1, m with m = max(1, max |c|), then 1 for u c - I, which is
    dimensionless (u goes as 1/scale, c as scale), then max |u| for
    u^* s - u, linear in u: a floor at 1 would blind it on a large basis,
    whose unit has small coordinates."""
    n = u.size
    scale = max(1.0, float(np.abs(c).max()))
    if not certified:
        for assoc in _associativity(c):
            yield "associativity", assoc, scale ** 2
    # (b_i b_j)^* - b_j^* b_i^* at ijq
    anti = c.conj() @ s \
        - np.tensordot(s, np.tensordot(s, c, axes=(1, 0)), axes=(1, 1))
    units = np.stack([np.tensordot(u, c, axes=1),  # 1 b_j and b_i 1
                      np.tensordot(c, u, axes=(1, 0))])
    yield "involution squaring to the identity", s.conj() @ s - np.eye(n), 1.0
    yield "the adjoint of a product", anti, scale
    yield "the unit acting as identity", units - np.eye(n), 1.0
    yield "self-adjointness of the unit", u.conj() @ s - u, \
        float(np.abs(u).max())


def _associativity_bound(stack, sv, sol, worst):
    """A bound on the dense associativity residual max |fl(a)| of the
    structure constants c_ij = sol[:, i k + j] that algebra_from_matrices
    expands from the basis stack B_1..B_k, whose flattened columns V have
    the singular values sv; worst is the largest entry of the computed
    expansion residual fl(V c_ij) - fl(B_i B_j). inf where it does not
    apply.

    With R_ij = V c_ij - vec(B_i B_j) and a_ijl = sum_p c_ijp c_pl -
    sum_p c_jlp c_ip, associativity of matrix products gives, exactly,
        V a_ijl = vec(R_ij B_l - B_i R_jl + sum_p c_ijp R_pl
                      - sum_p c_jlp R_ip),
    so max |a| <= 2 rho (beta + gamma) / sigma_k, for
        rho >= max ||R_ij||_F: n worst / (1 - u) plus the rounding of
            V c_ij and of B_i B_j, 2 sqrt(2) (gamma_{k+2} gamma beta
            + gamma_{n+2} beta^2),
        beta = max ||B_l||_F, gamma = max ||c_ij||_1,
        sigma_k = sv[-1] less its backward error gamma_{16 n^2 k} sqrt(k)
            beta (>= the SVD's, since ||V||_F <= sqrt(k) beta).
    The dense check's own rounding, 4 sqrt(2) gamma_{k+2} gamma max |c|,
    is added, and the sum taken up by 1 + gamma_{n^2+2k+16} for its own
    arithmetic (beta's sums of squares among it). Complex rounding follows Higham, Accuracy and Stability of
    Numerical Algorithms (2nd ed.), sections 3.5-3.6, and each rounding
    term is doubled, which also covers underflow's absolute errors while
    2^-300 <= beta <= 2^300; outside that range the bound is inf."""
    k, n, _ = stack.shape
    beta = float(_fro_batch(stack).max())
    if not 2.0 ** -300 <= beta <= 2.0 ** 300:
        return np.inf
    gamma = float(np.abs(sol).sum(axis=0).max())
    rho = n * worst / (1.0 - 2.0 ** -53) + 2.0 * np.sqrt(2.0) * (
        _gamma(k + 2) * gamma * beta + _gamma(n + 2) * beta * beta)
    sigma = float(sv[-1]) - _gamma(16 * n * n * k) * np.sqrt(k) * beta
    dense = 4.0 * np.sqrt(2.0) * _gamma(k + 2) * gamma * float(
        np.abs(sol).max())
    bound = (2.0 * rho * (beta + gamma) / sigma + dense) \
        * (1.0 + _gamma(n * n + 2 * k + 16))
    return bound if sigma > 0.0 and bound >= 0.0 else np.inf


class AbstractStarAlgebra:
    """Finite-dimensional unital *-algebra in coordinates.

    mult[i, j, k] are the coefficients of b_i b_j on b_k, invol[i, k] those
    of the adjoint of b_i, unit the coordinates of the identity. All algebra
    axioms are verified numerically at construction, each within SOLVER_TOL
    times the scale _axiom_residuals gives it; associativity in slices of
    left factors. algebra_from_matrices admits constants whose associativity
    _associativity_bound certifies without the dense check.
    """

    __slots__ = ("n_basis", "mult", "invol", "unit")

    def __init__(self, mult_tensor, invol_matrix, unit_coeffs):
        c = np.asarray(mult_tensor, dtype=complex)
        s = np.asarray(invol_matrix, dtype=complex)
        u = np.asarray(unit_coeffs, dtype=complex).reshape(-1)
        n = u.size
        if c.shape != (n, n, n) or s.shape != (n, n):
            raise ValueError(
                f"shape mismatch: mult {c.shape}, invol {s.shape}, unit {n}"
            )
        self._admit(c, s, u)

    def _admit(self, c, s, u, certified=False):
        """The axiom gates on complex c, s, u of matching shapes, less
        associativity for constants certified associative; each gate takes
        the largest residual of its axiom, over every slice. mult is kept
        C-ordered."""
        worst = {}
        for what, resid, scale in _axiom_residuals(c, s, u, certified):
            worst.setdefault(what, (scale, []))[1].append(np.abs(resid).max())
        for what, (scale, defects) in worst.items():
            _gate(float(np.max(defects)), SOLVER_TOL * scale,
                  DegenerateAlgebra, what)

        self.n_basis = u.size
        self.mult = np.ascontiguousarray(c)
        self.invol = s
        self.unit = u
        return self

    def multiply_coeffs(self, x, y):
        return np.einsum("i,j,ijk->k", np.asarray(x, dtype=complex),
                         np.asarray(y, dtype=complex), self.mult)

    def star_coeffs(self, x):
        return np.einsum("i,ik->k", np.asarray(x, dtype=complex).conj(),
                         self.invol)

    def __repr__(self):
        return f"AbstractStarAlgebra(n_basis={self.n_basis})"


class AlgebraicState:
    """Normalized positive functional, held as its values on the basis.
    Positivity is the Gram condition: the matrix of values on b_i* b_j must
    be positive semidefinite, within SOLVER_TOL; the unit's value sum_i u_i w_i
    is held to SOLVER_TOL * max(1, sum_i |u_i w_i|), the size of its terms."""

    __slots__ = ("algebra", "values", "gram")

    def __init__(self, algebra: AbstractStarAlgebra, values):
        w = np.asarray(values, dtype=complex).reshape(-1)
        if w.size != algebra.n_basis:
            raise ValueError(
                f"{w.size} values for {algebra.n_basis} basis elements"
            )
        _gate(abs(complex(np.dot(algebra.unit, w)) - 1.0), SOLVER_TOL * max(
            1.0, float(np.abs(algebra.unit * w).sum())), NotAState,
            "the unit is not sent to 1")
        G = algebra.invol @ (algebra.mult @ w)
        _gate(float(np.abs(G - G.conj().T).max()),
              SOLVER_TOL * max(1.0, float(np.abs(G).max())), NotAState,
              "Gram matrix is not Hermitian")
        G = (G + G.conj().T) / 2.0
        _gate(-float(np.linalg.eigvalsh(G)[0]), SOLVER_TOL, NotAState,
              "Gram matrix is not positive")
        self.algebra = algebra
        self.values = w
        self.gram = G

    def __repr__(self):
        return f"AlgebraicState(n_basis={self.algebra.n_basis})"


GNSTriple = namedtuple("GNSTriple", ["rep_dim", "pi_images", "cyclic_vector"])


def gns_construct(alg: AbstractStarAlgebra, omega: AlgebraicState) -> GNSTriple:
    """Cyclic representation of the state.

    The Gram matrix is diagonalized, its numerical null space quotiented
    away, and left multiplication by each basis element is conjugated into
    the orthonormal quotient coordinates, all in one product: pi_images is a
    read-only (n_basis, r, r) stack. The cyclic vector is the image of the
    unit.
    """
    if omega.algebra is not alg:
        omega = AlgebraicState(alg, omega.values)
    w, v = np.linalg.eigh(omega.gram)
    keep = w > RANK_RTOL * max(float(w[-1]), 0.0)
    r = int(np.count_nonzero(keep))
    if r == 0:
        raise NotAState("Gram matrix vanishes", defect=np.abs(w).max(),
                        bound=0.0)
    wk = w[keep]
    vk = v[:, keep]
    into = np.sqrt(wk)[:, None] * vk.conj().T      # coefficients -> quotient
    back = vk * (1.0 / np.sqrt(wk))[None, :]       # right inverse of into
    images = _read_only(into @ alg.mult.transpose(0, 2, 1) @ back)
    cyclic = into @ alg.unit
    return GNSTriple(r, images, cyclic)


def _cyclic(triple: GNSTriple) -> np.ndarray:
    """The triple's cyclic vector as a complex vector, checked as as_stack
    checks the images: finite, and of length rep_dim."""
    psi = np.asarray(triple.cyclic_vector, dtype=complex).reshape(-1)
    if not np.isfinite(psi).all():
        raise ValueError("cyclic vector contains non-finite entries")
    require_same_dim(psi.size, triple.rep_dim)
    return psi


def _orbit_expectation(stack, psi, values):
    """Rows pi(b_i) psi, and max_i |<psi, pi(b_i) psi> - omega(b_i)|."""
    orbit = stack @ psi
    return orbit, max(abs(complex(psi.conj() @ v) - complex(w))
                      for v, w in zip(orbit, values))


def verify_gns(triple: GNSTriple, alg: AbstractStarAlgebra,
               omega: AlgebraicState, tol=PRODUCT_TOL) -> dict:
    """Re-check every property the construction promises, reporting the
    measured residuals and the first violated one.

    Residuals are held to tol times s^2 (homomorphism), s (involution), 1
    (the dimensionless unit) and max(1, max |omega_i|) (expectation), with
    s = max ||pi(b_i)||_F, not floored, so the first two gates are relative
    at every scale of the basis. The cyclic rank counts the orbit's singular
    values above RANK_RTOL times the largest, with no floor.

    Keys: ok, violation (None when ok), residuals, tol.
    """
    stack = as_stack(triple.pi_images, triple.rep_dim)
    psi = _cyclic(triple)
    flat = stack.reshape(len(stack), -1)

    hom = max(  # pi(b_i) pi(b_j) - pi(b_i b_j), one batch per left factor i
        float(_fro_batch(stack[i] @ stack - (c @ flat).reshape(stack.shape))
              .max()) for i, c in enumerate(alg.mult))
    inv = float(_fro_batch(stack.conj().transpose(0, 2, 1) - np.tensordot(
        alg.invol, stack, axes=1)).max())
    unit = frobenius(np.tensordot(alg.unit, stack, axes=1)
                     - np.eye(triple.rep_dim))
    orbit, expect = _orbit_expectation(stack, psi, omega.values)
    sing = np.linalg.svd(orbit.T, compute_uv=False)
    rank = int(np.sum(sing > RANK_RTOL * sing[0]))
    s = float(_fro_batch(stack).max())
    scale = {"homomorphism": s * s, "involution": s, "unit": 1.0,
             "expectation": max(1.0, float(np.abs(omega.values).max()))}
    residuals = {"homomorphism": hom, "involution": inv, "unit": unit,
                 "expectation": expect, "cyclic_rank_gap": triple.rep_dim - rank}
    violation = next((key for key in scale
                      if not residuals[key] <= tol * scale[key]), None)
    if violation is None and rank != triple.rep_dim:
        violation = "cyclicity"
    return {"ok": violation is None, "violation": violation,
            "residuals": residuals, "tol": tol}


def gns_intertwiner(first: GNSTriple, second: GNSTriple) -> np.ndarray:
    """Unitary carrying the first representation onto the second, fixed by
    matching the two orbits of the cyclic vectors. Certified before return;
    triples of different states have none and raise."""
    r = require_same_dim(first.rep_dim, second.rep_dim)
    A, B = as_stack(first.pi_images, r), as_stack(second.pi_images, r)
    c1, c2 = (A @ _cyclic(first)).T, (B @ _cyclic(second)).T
    W = c2 @ np.linalg.pinv(c1)
    defect = np.max([frobenius(W @ W.conj().T - np.eye(r)),
                     frobenius(W @ c1 - c2), _fro_batch(W @ A - B @ W).max()])
    _gate(defect, PRODUCT_TOL * max(1.0, frobenius(c1)), NoIntertwiner)
    return W


def is_pure_state(alg: AbstractStarAlgebra, omega: AlgebraicState) -> bool:
    """Purity through irreducibility: the commutant of the represented
    algebra is trivial exactly for pure states."""
    triple = gns_construct(alg, omega)
    prime = commutant(triple.pi_images, triple.rep_dim)
    return len(prime) == 1


def folium_state(triple: GNSTriple, T, alg: AbstractStarAlgebra) -> AlgebraicState:
    """Pull a density operator on the representation space back to an
    algebraic state: values tr(T pi(b_i))."""
    Tm = _density(T).matrix
    M = as_stack(triple.pi_images, triple.rep_dim, Tm.shape[0])
    return AlgebraicState(alg, np.trace(Tm @ M, axis1=1, axis2=2))


# --- concrete matrix algebras as abstract ones ------------------------------

def algebra_from_matrices(mats) -> AbstractStarAlgebra:
    """Structure constants of a concrete matrix basis, expanded by least
    squares through one SVD of it. The basis must be independent (relative
    cutoff RANK_RTOL), closed under products and adjoints (each expansion
    within SOLVER_TOL * max(1, its largest entry)), and contain the identity;
    failures surface as residuals. Associativity is taken from the products'
    expansion residual (_associativity_bound) when that bound passes the
    gate's SOLVER_TOL m^2, and checked densely otherwise."""
    stack = as_stack(mats)
    k, n, _ = stack.shape
    V = stack.reshape(k, -1).T
    U, sv, Wh = np.linalg.svd(V, full_matrices=False)
    if np.sum(sv > RANK_RTOL * sv[0]) < k:
        raise ValueError("basis matrices are linearly dependent")

    def expand(rhs, what):
        # parts apart: a complex quotient multiplies by a rounded reciprocal
        coef = U.conj().T @ rhs
        sol = Wh.conj().T @ (coef.real / sv[:, None]
                             + 1j * (coef.imag / sv[:, None]))
        worst = float(np.abs(V @ sol - rhs).max())
        _gate(worst, SOLVER_TOL * max(1.0, float(np.abs(rhs).max())),
              OutsideSpan, what)
        return sol, worst

    eye = np.eye(n, dtype=complex).reshape(-1, 1)
    u = expand(eye, "the identity")[0][:, 0]
    adj = stack.conj().transpose(0, 2, 1).reshape(k, -1).T
    s = expand(adj, "an adjoint")[0].T
    sol, worst = expand(_products(stack, stack).T, "a product")
    c = sol.T.reshape(k, k, k)
    gate = SOLVER_TOL * max(1.0, float(np.abs(c).max())) ** 2  # m^2 scale
    return AbstractStarAlgebra.__new__(AbstractStarAlgebra)._admit(
        c, s, u, certified=_associativity_bound(stack, sv, sol, worst) <= gate)


def state_from_density(alg: AbstractStarAlgebra, mats, rho) -> AlgebraicState:
    """The algebraic state a density operator induces on a concrete basis."""
    rho = _density(rho)
    stack = as_stack(mats, rho.dim)
    values = np.tensordot(stack, rho.matrix, axes=([1, 2], [1, 0]))
    return AlgebraicState(alg, values)


def mixed_to_vector_paradox_demo(rho) -> dict:
    """A mixed state becomes a single unit vector in its own representation,
    yet stays mixed: the commutant there is nontrivial, so the vector does
    not mean purity. The report shows both sides, and the expectation
    residual verify_gns would report, computed alone (_orbit_expectation)."""
    rho = _density(rho)
    if is_pure(rho):
        raise InputIsPure()
    mats = _matrix_units(rho.dim)
    alg = algebra_from_matrices(mats)
    omega = state_from_density(alg, mats, rho)
    triple = gns_construct(alg, omega)
    # pi(E_{i,i+1}), i < n - 1, and their adjoints generate pi(M_n): the
    # same commutant from n - 1 generators instead of n^2
    steps = (rho.dim + 1) * np.arange(rho.dim - 1) + 1
    prime = commutant(triple.pi_images[steps], triple.rep_dim)
    return {
        "dim": rho.dim,
        "rep_dim": triple.rep_dim,
        "cyclic_vector_norm": float(np.linalg.norm(triple.cyclic_vector)),
        "commutant_dimension": len(prime),
        "state_is_pure": len(prime) == 1,
        "expectation_residual": _orbit_expectation(
            triple.pi_images, triple.cyclic_vector, omega.values)[1],
        "note": (
            "the cyclic vector is a unit vector, but purity is decided by "
            "the commutant on the representation space, and it is "
            "nontrivial here"
        ),
    }
