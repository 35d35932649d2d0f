"""Seeded input generators shared by the workloads.

Everything here is plain numpy; nothing calls into oplattice, so the library
only ever receives finished matrices.
"""
import numpy as np


def bit_reversed(count):
    """Permutation of range(count), count a power of two, in bit-reversed
    order: every prefix of it is spread evenly over the range."""
    bits = count.bit_length() - 1
    if 1 << bits != count:
        raise ValueError(f"count {count} is not a power of two")
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
            for i in range(count)]


def stratified_sizes(lo, hi, count):
    """count integer sizes spread over [lo, hi]: the midpoints of count equal
    strata (count a power of two), largest first and then in bit-reversed
    order, so that any prefix of the list covers the range evenly.

    The sizes do not depend on the seed, which draws only the matrices: a
    run's cost grows like n^3 to n^6, so sizes redrawn per seed would make
    run-to-run differences mostly a matter of integer rounding. The first
    size is pinned at hi, so every run contains the range's top size and
    peak memory compares like with like.
    """
    order = [count - 1 - k for k in bit_reversed(count)]
    sizes = [min(hi, lo + int((s + 0.5) / count * (hi - lo + 1)))
             for s in order]
    sizes[0] = hi
    return sizes


def haar_unitary(rng, n, real=False):
    if real:
        W = rng.standard_normal((n, n))
    else:
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(W)
    d = np.diag(R)
    return (Q * (d / np.abs(d))).astype(complex)


def hermitian_from(U, w):
    return (U * np.asarray(w, dtype=float)) @ U.conj().T


def generic_spectrum(rng, n):
    """n eigenvalues in about [-1, 1], at least 1e-6 apart, so no two of
    them fall inside the library's eigenvalue-merging threshold."""
    return np.sort(rng.uniform(-1.0, 1.0, n)) + 1e-6 * np.arange(n)


def degenerate_spectrum(rng, n):
    """(levels, multiplicities): about n/3 distinct levels at least 0.05
    apart, at least one of them repeated when n >= 2."""
    m = max(1, n // 3)
    levels = np.sort(rng.uniform(-1.0, 1.0, m)) + 0.05 * np.arange(m)
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False)) \
        if m > 1 else np.array([], dtype=int)
    mult = np.diff(np.concatenate([[0], cuts, [n]])).astype(int)
    return levels, mult


def random_hermitian(rng, n, real=False):
    W = rng.standard_normal((n, n))
    if not real:
        W = W + 1j * rng.standard_normal((n, n))
    return ((W + W.conj().T) / 2.0).astype(complex)


def random_density(rng, n, rank=None):
    rank = n if rank is None else rank
    W = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    M = W @ W.conj().T
    return M / M.trace().real


def projector_onto(cols):
    return cols @ cols.conj().T


def block_diagonal(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def frame_projectors(n):
    """The informationally complete rank-1 frame: e_j, (e_j + e_k)/sqrt2,
    (e_j + i e_k)/sqrt2 for j < k, built independently of the library."""
    eye = np.eye(n)
    vecs = [eye[j] for j in range(n)]
    vecs += [(eye[j] + eye[k]) / np.sqrt(2.0)
             for j in range(n) for k in range(j + 1, n)]
    vecs += [(eye[j] + 1j * eye[k]) / np.sqrt(2.0)
             for j in range(n) for k in range(j + 1, n)]
    return [np.outer(v, np.conj(v)).astype(complex) for v in vecs]


def matrix_units(n):
    out = []
    for j in range(n):
        for k in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[j, k] = 1.0
            out.append(E)
    return out


def matrix_json(M):
    """The shared matrix JSON form {"rows", "cols", "data": [[re, im]]}."""
    M = np.asarray(M, dtype=complex)
    return {"rows": M.shape[0], "cols": M.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in M.reshape(-1)]}


def matrix_from(obj):
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])
