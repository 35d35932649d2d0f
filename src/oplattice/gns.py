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
    _fro_batch,
    _matrix_units,
    _products,
    _read_only,
    as_stack,
    frobenius,
    require_same_dim,
)
from .states import _density, is_pure


class DegenerateAlgebra(ValueError):
    def __init__(self, what, defect):
        super().__init__(
            f"structure constants violate {what} (defect {defect:.3e})"
        )
        self.what = what
        self.defect = float(defect)


class NotAState(ValueError):
    def __init__(self, reason, defect):
        super().__init__(f"not a state: {reason} (defect {defect:.3e})")
        self.reason = reason
        self.defect = float(defect)


class InputIsPure(ValueError):
    def __init__(self):
        super().__init__("input state is pure; the demo needs a mixed one")


def _axiom_residuals(c, s, u):
    """(axiom, residual array, scale of its bound) for the structure
    constants c, involution s and unit u, in checking order; each
    contraction is one BLAS product. The scales are m^2, 1, m with
    m = max(1, max |c|), then 1 for u c - I, which is dimensionless (u goes
    as 1/scale, c as scale), then max |u| for u^* s - u, linear in u: a
    floor at 1 would blind it on a large basis, whose unit has small
    coordinates."""
    n = u.size
    scale = max(1.0, float(np.abs(c).max()))
    # (b_i b_j) b_l - b_i (b_j b_l) at ijlq, (b_i b_j)^* - b_j^* b_i^* at ijq
    assoc = (c.reshape(-1, n) @ c.reshape(n, -1)).reshape((n,) * 4) \
        - np.tensordot(c, c, axes=(1, 2)).transpose(0, 2, 3, 1)
    anti = c.conj() @ s \
        - np.tensordot(s, np.tensordot(s, c, axes=(1, 0)), axes=(1, 1))
    units = np.stack([np.tensordot(u, c, axes=1),  # 1 b_j and b_i 1
                      np.tensordot(c, u, axes=(1, 0))])
    return [
        ("associativity", assoc, scale ** 2),
        ("involution squaring to the identity", s.conj() @ s - np.eye(n), 1.0),
        ("the adjoint of a product", anti, scale),
        ("the unit acting as identity", units - np.eye(n), 1.0),
        ("self-adjointness of the unit", u.conj() @ s - u,
         float(np.abs(u).max())),
    ]


class AbstractStarAlgebra:
    """Finite-dimensional unital *-algebra in coordinates.

    mult[i, j, k] are the coefficients of b_i b_j on b_k, invol[i, k] those
    of the adjoint of b_i, unit the coordinates of the identity. All algebra
    axioms are verified numerically at construction, each within SOLVER_TOL
    times the scale _axiom_residuals gives it.
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
        for what, resid, scale in _axiom_residuals(c, s, u):
            defect = float(np.abs(resid).max())
            if not defect <= SOLVER_TOL * scale:
                raise DegenerateAlgebra(what, defect)

        self.n_basis = n
        self.mult = c
        self.invol = s
        self.unit = u

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
        unit_value = complex(np.dot(algebra.unit, w))
        if abs(unit_value - 1.0) > SOLVER_TOL * max(
                1.0, float(np.abs(algebra.unit * w).sum())):
            raise NotAState("the unit is not sent to 1",
                            abs(unit_value - 1.0))
        G = algebra.invol @ (algebra.mult @ w)
        herm = float(np.abs(G - G.conj().T).max())
        if herm > SOLVER_TOL * max(1.0, float(np.abs(G).max())):
            raise NotAState("Gram matrix is not Hermitian", herm)
        G = (G + G.conj().T) / 2.0
        eigmin = float(np.linalg.eigvalsh(G)[0])
        if eigmin < -SOLVER_TOL:
            raise NotAState("Gram matrix is not positive", -eigmin)
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
        raise NotAState("Gram matrix vanishes", float(np.abs(w).max()))
    wk = w[keep]
    vk = v[:, keep]
    into = np.sqrt(wk)[:, None] * vk.conj().T      # coefficients -> quotient
    back = vk * (1.0 / np.sqrt(wk))[None, :]       # right inverse of into
    images = _read_only(into @ alg.mult.transpose(0, 2, 1) @ back)
    cyclic = into @ alg.unit
    return GNSTriple(r, images, cyclic)


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
    psi = np.asarray(triple.cyclic_vector, dtype=complex).reshape(-1)
    n = alg.n_basis

    hom = max(  # pi(b_i) pi(b_j) - pi(b_i b_j), one batch per left factor i
        float(_fro_batch(stack[i] @ stack - np.tensordot(
            alg.mult[i], stack, axes=1)).max()) for i in range(n))
    inv = float(_fro_batch(stack.conj().transpose(0, 2, 1) - np.tensordot(
        alg.invol, stack, axes=1)).max())
    unit = frobenius(np.tensordot(alg.unit, stack, axes=1)
                     - np.eye(triple.rep_dim))
    orbit = stack @ psi  # row i: pi(b_i) psi
    expect = max(abs(complex(psi.conj() @ v) - complex(w))
                 for v, w in zip(orbit, omega.values))
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
    c1, c2 = (A @ first.cyclic_vector).T, (B @ second.cyclic_vector).T
    W = c2 @ np.linalg.pinv(c1)
    defect = max(
        frobenius(W @ W.conj().T - np.eye(r)),
        frobenius(W @ c1 - c2),
        float(_fro_batch(W @ A - B @ W).max()),
    )
    if defect > PRODUCT_TOL * max(1.0, frobenius(c1)):
        raise ValueError(
            f"no unitary intertwiner within tolerance (defect {defect:.3e})"
        )
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
    failures surface as residuals."""
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
        resid = float(np.abs(V @ sol - rhs).max())
        if not resid <= SOLVER_TOL * max(1.0, float(np.abs(rhs).max())):
            raise ValueError(f"{what} does not stay in the span "
                             f"(residual {resid:.3e})")
        return sol

    u = expand(np.eye(n, dtype=complex).reshape(-1, 1), "the identity")[:, 0]
    adj = stack.conj().transpose(0, 2, 1).reshape(k, -1).T
    s = expand(adj, "an adjoint").T
    c = expand(_products(stack, stack).T, "a product").T.reshape(k, k, k)
    return AbstractStarAlgebra(c, s, u)


def state_from_density(alg: AbstractStarAlgebra, mats, rho) -> AlgebraicState:
    """The algebraic state a density operator induces on a concrete basis."""
    rho = _density(rho)
    stack = as_stack(mats, rho.dim)
    values = np.tensordot(stack, rho.matrix, axes=([1, 2], [1, 0]))
    return AlgebraicState(alg, values)


def mixed_to_vector_paradox_demo(rho) -> dict:
    """A mixed state becomes a single unit vector in its own representation,
    yet stays mixed: the commutant there is nontrivial, so the vector does
    not mean purity. The report shows both sides."""
    rho = _density(rho)
    if is_pure(rho):
        raise InputIsPure()
    mats = _matrix_units(rho.dim)
    alg = algebra_from_matrices(mats)
    omega = state_from_density(alg, mats, rho)
    triple = gns_construct(alg, omega)
    prime = commutant(triple.pi_images, triple.rep_dim)
    check = verify_gns(triple, alg, omega)
    return {
        "dim": rho.dim,
        "rep_dim": triple.rep_dim,
        "cyclic_vector_norm": float(np.linalg.norm(triple.cyclic_vector)),
        "commutant_dimension": len(prime),
        "state_is_pure": len(prime) == 1,
        "expectation_residual": check["residuals"]["expectation"],
        "note": (
            "the cyclic vector is a unit vector, but purity is decided by "
            "the commutant on the representation space, and it is "
            "nontrivial here"
        ),
    }
