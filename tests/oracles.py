"""Independent oracle routines used by the test suite.

Everything here deliberately avoids the library's own code paths: different
algorithms, different LAPACK drivers, closed forms where they exist. Tests
compare library output against these, never the other way around.
"""
import json

import numpy as np
import scipy.linalg


def char_poly_coeffs(A):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    recursion (trace-based, no eigensolver involved)."""
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def char_poly_roots(A):
    """Eigenvalues as roots of the characteristic polynomial.

    np.roots goes through a companion matrix and the general (non-Hermitian)
    eigensolver, a different path from eigh.
    """
    return np.sort(np.roots(char_poly_coeffs(A)).real)


def gram_operator_norm(A):
    # largest singular value as sqrt of the top eigenvalue of A*A
    w = np.linalg.eigvalsh(A.conj().T @ A)
    return float(np.sqrt(max(w[-1], 0.0)))


def expm_oracle(M):
    """Scaling-and-squaring matrix exponential (scipy implementation)."""
    return scipy.linalg.expm(M)


def generator_by_central_difference(samples, hbar=1.0):
    """H from samples (t, U_t) of U_t = exp(-i t H / hbar), no eigensolver:
    the central difference i hbar (U_t - U_{-t}) / (2t) at the smallest
    sampled +/-t pair that has its half-step pair too, Richardson-
    extrapolated against it, else at the smallest pair. The truncation
    error grows like (t ||H|| / hbar)^4 ||H|| with the half step, and like
    (t ||H|| / hbar)^2 ||H|| without it."""
    table = {float(t): np.asarray(U, dtype=complex) for t, U in samples}
    pos = sorted(t for t in table if t > 0 and -t in table)

    def central(t):
        return 1j * hbar * (table[t] - table[-t]) / (2.0 * t)

    for t in pos:
        if t / 2.0 in table and -t / 2.0 in table:
            return (4.0 * central(t / 2.0) - central(t)) / 3.0
    return central(pos[0])


def diag_joint_atoms(diagonals):
    """Exhaustive joint-eigenspace oracle for diagonal operators.

    Groups coordinate indices by their tuple of diagonal values and returns
    {value_tuple: projector}.
    """
    n = len(diagonals[0])
    atoms = {}
    for i in range(n):
        key = tuple(float(d[i]) for d in diagonals)
        P = atoms.setdefault(key, np.zeros((n, n), dtype=complex))
        P[i, i] = 1.0
    return atoms


def span_projector_oracle(cols):
    """Projector onto the column space, by QR orthogonalization."""
    q, r = np.linalg.qr(cols)
    keep = np.abs(np.diag(r)) > 1e-10 * max(1.0, np.abs(r).max())
    q = q[:, keep]
    return q @ q.conj().T


def fock_moments(level, m=1.0, omega=1.0, hbar=1.0):
    """Closed-form position/momentum moments of the number eigenstate |n>.

    <X> = <P> = 0, <X^2> = (hbar/2 m omega)(2n+1), <P^2> = (m omega hbar/2)(2n+1).
    """
    x2 = (hbar / (2.0 * m * omega)) * (2 * level + 1)
    p2 = (m * omega * hbar / 2.0) * (2 * level + 1)
    return x2, p2


def spin_precession_x(t):
    """Closed form for exp(i t sz) sx exp(-i t sz) in the Pauli basis:
    cos(2t) sx - sin(2t) sy."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return np.cos(2 * t) * sx - np.sin(2 * t) * sy


def gram_rank_bruteforce(basis_mats, rho):
    """Rank of the Gram matrix G[(i,j)] = tr(rho b_i^* b_j), computed entry by
    entry from literal matrix products. Brute-force reference for the GNS
    quotient dimension."""
    m = len(basis_mats)
    G = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            G[i, j] = np.trace(rho @ basis_mats[i].conj().T @ basis_mats[j])
    return int(np.linalg.matrix_rank(G, tol=1e-10))


def word_closure_basis(generators, dim, rank_tol=1e-10):
    """Orthonormal basis (flattened, Frobenius inner product) of the unital
    *-algebra generated by the given matrices: grow the span with all
    products word by word until no word adds a direction. Burnside caps the
    useful word length at dim**2.

    Each word is normalized and orthogonalized against the span so far
    (Gram-Schmidt, applied twice) before the rank test, and it adds a
    direction when what is left exceeds rank_tol. Raw words grow like the
    spectral radius to the word length, and raw powers of a matrix are as
    ill-conditioned as a Vandermonde matrix, so a relative cutoff on them
    loses short words."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    gens = gens + [g.conj().T for g in gens]
    basis = np.eye(dim, dtype=complex).reshape(1, -1) / np.sqrt(dim)
    frontier = list(basis)
    for _ in range(dim * dim):
        fresh = []
        for w in frontier:
            for g in gens:
                x = (w.reshape(dim, dim) @ g).reshape(-1)
                norm = np.linalg.norm(x)
                if norm == 0.0:
                    continue
                x = x / norm
                for _ in range(2):
                    x = x - basis.T @ (basis.conj() @ x)
                left = np.linalg.norm(x)
                if left > rank_tol:
                    basis = np.vstack([basis, x / left])
                    fresh.append(basis[-1])
        if not fresh:
            break
        frontier = fresh
    return [row.reshape(dim, dim) for row in basis]


def span_gap(mats_a, mats_b):
    """Spectral norm of the difference of the orthogonal projectors onto the
    two operator spans (inside the Frobenius inner-product space). Zero iff
    the spans coincide; equals the sine of the largest principal angle."""

    def span_proj(mats):
        rows = np.array([np.asarray(m, dtype=complex).reshape(-1) for m in mats])
        u, s, vh = np.linalg.svd(rows, full_matrices=False)
        keep = s > 1e-10 * max(1.0, s[0])
        q = vh[keep]
        return q.conj().T @ q

    pa = span_proj(mats_a)
    pb = span_proj(mats_b)
    return float(np.linalg.svd(pa - pb, compute_uv=False)[0])


def phase_fix_columns_loop(V, floor=1e-12):
    """Column-by-column eigenvector phase fix: the first component above
    floor in each column is made real positive, with Python scalar
    arithmetic on one column at a time."""
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        idx = np.flatnonzero(np.abs(col) > floor)
        if idx.size == 0:
            continue
        a = col[idx[0]]
        V[:, k] = col * (a.conj() / abs(a))
    return V


def plain_report(obj):
    """A CLI report coerced to plain JSON data, element by element: a 2-d
    array becomes {"rows", "cols", "data": [[re, im], ...]}, any other array
    a list, a complex scalar [re, im], a numpy scalar a Python one, and
    every key a str."""
    if isinstance(obj, dict):
        return {str(k): plain_report(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_report(x) for x in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            M = np.asarray(obj, dtype=complex)
            return {"rows": M.shape[0], "cols": M.shape[1],
                    "data": [[float(z.real), float(z.imag)]
                             for z in M.reshape(-1)]}
        return [plain_report(x) for x in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    return obj


def report_json_reference(report):
    """The CLI report text through json's indented encoder."""
    return json.dumps(plain_report(report), indent=2, sort_keys=True) + "\n"


def commutant_oracle(generators, n, rtol=1e-9):
    """Basis of the commutant of the generators and their adjoints: the null
    space (scipy.linalg.null_space) of the stacked Kronecker commutator maps
    X -> GX - XG (row-major vec), one per generator and adjoint, each
    generator scaled to unit Frobenius norm and the stack reduced by
    scipy.linalg.qr; no library code. A singular value counts as zero at or
    below rtol * max(1, largest), so a numerically scalar generator
    constrains nothing."""
    eye = np.eye(n)
    rows = [np.zeros((1, n * n))]
    for G in generators:
        G = np.asarray(G, dtype=complex)
        if np.linalg.norm(G) > 0.0:
            for g in (G, G.conj().T):
                g = g / np.linalg.norm(g)
                rows.append(np.kron(g, eye) - np.kron(eye, g.T))
    R = scipy.linalg.qr(np.vstack(rows), mode="r")[0][:n * n]
    top = scipy.linalg.svdvals(R)[0]
    rcond = rtol * max(1.0, top) / top if top > 0.0 else 0.0
    return [z.reshape(n, n) for z in scipy.linalg.null_space(R, rcond).T]


def center_oracle(basis, n, rcond=1e-10):
    """Basis of the center of the *-algebra spanned by basis: the span
    intersected with its commutant. The span comes from scipy.linalg.orth,
    the commutant from scipy.linalg.null_space of the stacked Kronecker
    commutator maps (row-major vec, reduced by scipy.linalg.qr), and the intersection from the null
    space of [A, -C]; no library code. rcond is relative to the largest
    singular value (scipy's default, about eps * size, would count the
    eps-level residuals of a numerical basis as constraints)."""
    rows = [np.asarray(b, dtype=complex) for b in basis]
    A = scipy.linalg.orth(np.array([b.reshape(-1) for b in rows]).T, rcond)
    eye = np.eye(n)
    K = np.vstack([np.kron(b, eye) - np.kron(eye, b.T) for b in rows])
    # K is tall; its R factor has the same null space and a small full SVD
    C = scipy.linalg.null_space(scipy.linalg.qr(K, mode="r")[0][:n * n], rcond)
    Z = scipy.linalg.null_space(np.hstack([A, -C]), rcond)
    return [(A @ z[:A.shape[1]]).reshape(n, n) for z in Z.T]


# --- dense spectral-measure routes: atoms as lists of (label, n x n matrix) ---

def _atom_residuals(dim, atoms):
    """The invariant defects of a dense atom list, measured on the atoms
    themselves: the largest ||P - P^*||_F and ||P^2 - P||_F, ||sum P - I||_F,
    and the largest ||P_a P_b||_F over every pair a < b."""
    stack = np.stack([P for _, P in atoms])
    fro = lambda S: np.sqrt((np.abs(S) ** 2).sum(axis=(-2, -1)))
    ortho = 0.0
    for a in range(len(atoms) - 1):
        ortho = max(ortho, float(fro(stack[a][None] @ stack[a + 1:]).max()))
    return {
        "hermiticity": float(fro(stack - stack.conj().transpose(0, 2, 1)).max()),
        "idempotency": float(fro(stack @ stack - stack).max()),
        "completeness": float(np.linalg.norm(stack.sum(axis=0) - np.eye(dim))),
        "orthogonality": ortho,
    }


def completeness_two_products(V):
    """||VV^* - I||_F of a spectral factor V, by a product of its own: the
    completeness defect as the factor gate formed it beside V^*V - I."""
    return float(np.linalg.norm(V @ V.conj().T - np.eye(len(V))))


def func_calculus_dense(atoms, f):
    """sum_a f(a) P_a, one dense projector at a time."""
    out = np.zeros_like(np.asarray(atoms[0][1], dtype=complex))
    for label, P in atoms:
        out += complex(f(label)) * P
    return out


def commute_defect_dense(atoms_p, atoms_q):
    """Largest ||PQ - QP||_F over every pair of dense atoms."""
    return max(float(np.linalg.norm(P @ Q - Q @ P))
               for _, P in atoms_p for _, Q in atoms_q)


def joint_atoms_dense(families):
    """Joint measure of commuting dense atom lists: every product of one
    projector per family, labeled by the tuple of their labels; products of
    trace below 1/2 are dropped and the rest sorted by label."""
    dim = len(families[0][0][1])
    atoms = [((), np.eye(dim, dtype=complex))]
    for family in families:
        atoms = [(label + (float(lab),), M @ P)
                 for label, M in atoms for lab, P in family
                 if np.trace(M @ P).real >= 0.5]
    return sorted(atoms, key=lambda atom: atom[0])


# --- tomography loops: one frame member, one design row, one entry at a time ---

def tomography_frame_loop(n):
    """The rays e_j, then (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2 for
    j < k, each as its own outer product."""
    eye = np.eye(n)
    frame = [np.outer(eye[j], eye[j]) for j in range(n)]
    for phase in (1.0, 1j):
        for j in range(n):
            for k in range(j + 1, n):
                v = (eye[j] + phase * eye[k]) / np.sqrt(2.0)
                frame.append(np.outer(v, v.conj()))
    return frame


def herm_coordinate_row_loop(P):
    """Real coefficients r with tr(T P) = r . theta, theta the diagonal of a
    Hermitian T, then Re and Im of its upper triangle, entry by entry."""
    n = P.shape[0]
    row = [P[j, j].real for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            row.append(2.0 * P[k, j].real)
    for j in range(n):
        for k in range(j + 1, n):
            row.append(-2.0 * P[k, j].imag)
    return row


def herm_from_coordinates_loop(theta, n):
    """The Hermitian T of the coordinates theta, entry by entry."""
    T = np.zeros((n, n), dtype=complex)
    for j in range(n):
        T[j, j] = theta[j]
    pos = n
    for j in range(n):
        for k in range(j + 1, n):
            T[j, k] += theta[pos]
            T[k, j] += theta[pos]
            pos += 1
    for j in range(n):
        for k in range(j + 1, n):
            T[j, k] += 1j * theta[pos]
            T[k, j] += -1j * theta[pos]
            pos += 1
    return T


# --- GNS loops: plain einsum sums and one product pair at a time ---

def axiom_residuals_loop(c, s, u):
    """Residual arrays of the *-algebra axioms for structure constants c,
    involution s and unit u, by axiom name, each an unoptimized einsum sum
    over the defining indices."""
    eye = np.eye(u.size)
    return {
        "associativity": np.einsum("ijp,plq->ijlq", c, c)
        - np.einsum("jlp,ipq->ijlq", c, c),
        "involution squaring to the identity":
            np.einsum("ij,jk->ik", s.conj(), s) - eye,
        "the adjoint of a product": np.einsum("ijk,kq->ijq", c.conj(), s)
        - np.einsum("jk,il,klq->ijq", s, s, c),
        "the unit acting as identity": np.stack(
            [np.einsum("i,ijq->jq", u, c) - eye,
             np.einsum("j,ijq->iq", u, c) - eye]),
        "self-adjointness of the unit": np.einsum("i,ik->k", u.conj(), s) - u,
    }


def gram_loop(invol, mult, values):
    """Gram matrix of a functional, entry (i, j) its value on b_i^* b_j."""
    return np.einsum("ik,kjp,p->ij", invol, mult, values)


def density_values_loop(mats, rho):
    """tr(rho M) for each matrix M, one trace at a time."""
    return np.array([np.trace(rho @ M) for M in mats])


def gns_homomorphism_loop(images, mult):
    """The largest Frobenius norm of pi(b_i) pi(b_j) - pi(b_i b_j), one pair
    (i, j) at a time, pi(b_i b_j) = sum_l c_ijl pi(b_l) by einsum."""
    stack = np.stack(images)
    k = len(images)
    return max(np.linalg.norm(images[i] @ images[j]
                              - np.einsum("k,kab->ab", mult[i, j], stack))
               for i in range(k) for j in range(k))


def gns_residuals_loop(images, mult, invol, unit, psi, values):
    """The residuals verify_gns reports, one pair of images at a time: the
    largest Frobenius norm of pi(b_i) pi(b_j) - pi(b_i b_j)
    (gns_homomorphism_loop) and of pi(b_i)^* - pi(b_i^*), that of pi(1) - I,
    and the largest |<psi, pi(b_i) psi> - omega(b_i)|."""
    stack = np.stack(images)
    k = len(images)
    return {
        "homomorphism": gns_homomorphism_loop(images, mult),
        "involution": max(
            np.linalg.norm(images[i].conj().T
                           - np.einsum("k,kab->ab", invol[i], stack))
            for i in range(k)),
        "unit": np.linalg.norm(np.einsum("i,iab->ab", unit, stack)
                               - np.eye(len(psi))),
        "expectation": max(abs(psi.conj() @ images[i] @ psi - values[i])
                           for i in range(k)),
    }


# --- closure and structure constants, one product pair at a time ---

def closure_defect_oracle(stack):
    """Largest Frobenius distance of a product A_i A_j of the (k, n, n) stack
    from its span, pair by pair: each product is projected on an orthonormal
    basis of the span from a QR factorization of the flattened basis."""
    k = len(stack)
    q = np.linalg.qr(np.asarray(stack, dtype=complex).reshape(k, -1).T)[0]
    worst = 0.0
    for i in range(k):
        for j in range(k):
            v = (stack[i] @ stack[j]).reshape(-1)
            worst = max(worst, float(np.linalg.norm(v - q @ (q.conj().T @ v))))
    return worst


def structure_constants_loop(mats):
    """c[i, j] with A_i A_j = sum_l c[i, j, l] A_l, one least-squares solve
    per pair (LAPACK gelsd through lstsq)."""
    k = len(mats)
    V = np.array([np.asarray(M, dtype=complex).reshape(-1) for M in mats]).T
    c = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            rhs = (mats[i] @ mats[j]).reshape(-1)
            c[i, j] = np.linalg.lstsq(V, rhs, rcond=None)[0]
    return c
