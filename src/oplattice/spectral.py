"""Projector-valued measures and the discrete functional calculus.

A Hermitian operator is carried to its PVM: (eigenvalue label, orthogonal
projector) atoms, pairwise orthogonal and summing to the identity, held as
one matrix V whose column blocks V_a span the atoms, P_a = V_a V_a^*. Then
f(A) = V f(Lambda) V^*, and a commuting family gets a joint PVM, labeled by
tuples, whose blocks split the first operator's along the others'.
"""
from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PRODUCT_TOL,
    SOLVER_TOL,
    HermitianOperator,
    _fro_batch,
    _hermitian,
    as_matrix,
    eig_hermitian,
    frobenius,
    matrix_from_json,
    require_same_dim,
    require_square,
)


class NonCommuting(ValueError):
    def __init__(self, i, j, defect):
        super().__init__(
            f"spectral measures of operators {i} and {j} do not commute "
            f"(defect {defect:.3e})"
        )
        self.pair = (i, j)
        self.defect = float(defect)


class MissingSample(KeyError):
    def __init__(self, label):
        super().__init__(f"no sample supplied for spectral label {label!r}")
        self.label = label


def _as_tuple(label):
    if isinstance(label, tuple):
        return tuple(float(x) for x in label)
    return (float(label),)


def _stack(blocks):
    """The factor (V, starts, ranks) of a list of column blocks."""
    ranks = np.array([B.shape[1] for B in blocks])
    return np.hstack(blocks), np.cumsum(ranks) - ranks, ranks


def _factor_residuals(V, starts):
    """Bounds for the atoms P_a = V_a V_a^* of the column blocks V_a of V, and
    the Gram defect G = V^*V - I: with fd the largest ||V_a^* V_a - I||_F and
    off the mass of G outside the diagonal blocks, ||P_a P_b||_F <= off + 2 fd
    for every pair and ||P_a^2 - P_a||_F <= (1 + fd) fd for every atom. Atoms
    are built Hermitian to the last bit (see ProjectorValuedMeasure)."""
    eye = np.eye(V.shape[0])
    gram = V.conj().T @ V - eye
    tiles = np.abs(gram) ** 2
    if len(starts) < V.shape[1]:  # else each tile is one entry
        tiles = np.add.reduceat(np.add.reduceat(tiles, starts, axis=0), starts, axis=1)
    fd = float(np.sqrt(np.diagonal(tiles).max()))
    np.fill_diagonal(tiles, 0.0)
    return {
        "hermiticity": 0.0,
        "idempotency": (1.0 + fd) * fd,
        "completeness": frobenius(V @ V.conj().T - eye),
        "orthogonality": float(np.sqrt(tiles.sum())) + 2.0 * fd,
    }, gram


def _clusters(w, cluster_tol):
    """(labels, starts, ranks) of the ascending w split where a gap exceeds
    cluster_tol * max(1, spread) (see spectral_decompose)."""
    cut = w[1:] - w[:-1] > cluster_tol * max(1.0, float(w[-1] - w[0]))
    if cut.all():
        return w.tolist(), np.arange(len(w)), np.ones(len(w), dtype=int)
    bounds = np.flatnonzero(np.concatenate(([True], cut, [True])))
    starts, ranks = bounds[:-1], bounds[1:] - bounds[:-1]
    return [float(w[a]) if r == 1 else float(np.mean(w[a:a + r]))
            for a, r in zip(starts.tolist(), ranks.tolist())], starts, ranks


def _decompose(A, cluster_tol=SOLVER_TOL):
    """(measure, V^*V - I) of a HermitianOperator A, through eig_hermitian,
    _clusters and the factor gate; A is not admitted again here."""
    es = eig_hermitian(A)
    labels, starts, ranks = _clusters(es.eigenvalues, cluster_tol)
    return ProjectorValuedMeasure._from_factor(labels, es.eigenvectors, starts, ranks)


def _atoms_of(factor, part=slice(None)):
    """The read-only stack of atoms V_a V_a^* over the blocks [part] of
    factor, Hermitian by construction: rank-1 ones by one einsum (u_i u_j^*
    and u_j u_i^* are conjugates), the others as (BB^* + (BB^*)^*)/2."""
    V, starts, ranks = factor[0], factor[1][part], factor[2][part]
    one = ranks == 1
    cols = V[:, starts[one]]
    stack = np.einsum("ia,ja->aij", cols, cols.conj())
    if not one.all():
        outers, stack = stack, np.empty((len(ranks), len(V), len(V)), V.dtype)
        stack[one] = outers
        for a in np.flatnonzero(~one):
            P = V[:, starts[a]:starts[a] + ranks[a]]
            P = P @ P.conj().T
            stack[a] = (P + P.conj().T) / 2
    stack.setflags(write=False)
    return stack


def _given_factor(stack):
    """(factor, bounds) of the (k, n, n) stack of given atoms P_a: V from one
    eigh of sum_a a P_a, whose k clusters must have the atoms' traces as
    ranks, and the factor's bounds widened by the fits E_a = P_a - Q_a, Q_a =
    V_a V_a^*: with f = max ||E_a||_F and q = 1 + idempotency >= ||Q_a||_2,
    by 2f, (2q + 1 + f) f, ||sum_a E_a||_F and (2q + f) f, in key order."""
    k, dim = stack.shape[:2]
    # its Hermitian part: how far the atoms are from it shows in the fits
    weighted = np.tensordot(np.arange(float(k)), stack, axes=1)
    factor = _decompose(HermitianOperator(weighted, tol=math.inf))[0]
    ranks = factor._factor[2]
    traces = np.rint(stack.trace(axis1=1, axis2=2).real)
    if len(ranks) != k or (ranks != traces).any():
        raise ValueError(f"atom traces {traces.tolist()} are not the "
                         f"ranks {ranks.tolist()} of a partition of {dim}")
    E = stack - _atoms_of(factor._factor)
    bounds, f = factor._residuals, float(_fro_batch(E).max())
    q = 1.0 + bounds["idempotency"]
    return factor._factor, {
        "hermiticity": bounds["hermiticity"] + 2.0 * f,
        "idempotency": bounds["idempotency"] + (2.0 * q + 1.0 + f) * f,
        "completeness": bounds["completeness"] + frobenius(E.sum(axis=0)),
        "orthogonality": bounds["orthogonality"] + (2.0 * q + f) * f,
    }


class ProjectorValuedMeasure:
    """Finite PVM: atoms (label, projector), held as the factor
    (V, starts, ranks), P_a = V_a V_a^* for the column block V_a of V.

    Labels are floats for a single operator and tuples of floats for joint
    measures. Construction verifies every invariant: each atom Hermitian
    and idempotent, atoms pairwise orthogonal, the sum equal to the
    identity, labels pairwise distinct.

    Every measure is checked on V: the Gram defect V^*V - I bounds
    idempotency and orthogonality, and VV^* - I is the completeness defect.
    A measure the library builds has its atoms built on first use of `atoms`
    (see _atoms_of). Atoms given as matrices are kept as read-only copies,
    and the bounds are widened by their fits to V (see _given_factor).
    """

    __slots__ = ("dim", "_labels", "_atoms", "_factor", "_residuals")

    def __init__(self, dim, atoms):
        dim, atoms = int(dim), list(atoms)
        mats = [require_square(as_matrix(P)) for _, P in atoms]
        require_same_dim(dim, *(P.shape[0] for P in mats))
        if not mats:
            raise ValueError("a PVM needs at least one atom")
        stack = np.stack(mats)  # a copy: the caller's arrays stay theirs
        stack.setflags(write=False)
        self._factor, report = _given_factor(stack)
        self._admit(dim, [label for label, _ in atoms], report, DEFAULT_TOL)
        self._atoms = list(zip(self._labels, stack))

    @classmethod
    def _from_factor(cls, labels, V, starts, ranks, tol=DEFAULT_TOL):
        """The measure over a factor that passes the gate at tol, and V^*V - I."""
        pvm, (report, gram) = cls.__new__(cls), _factor_residuals(V, starts)
        pvm._admit(V.shape[0], labels, report, tol)
        for part in (V, starts, ranks):
            part.setflags(write=False)
        pvm._atoms, pvm._factor = None, (V, starts, ranks)
        return pvm, gram

    def _admit(self, dim, labels, report, tol):
        if not all(v <= tol for v in report.values()):  # NaN fails too
            raise ValueError(f"PVM invariants violated ({report})")
        if len(set(map(_as_tuple, labels))) != len(labels):
            raise ValueError("PVM labels are not pairwise distinct")
        self.dim, self._labels, self._residuals = dim, labels, report

    @property
    def atoms(self):
        if self._atoms is None:
            self._atoms = list(zip(self._labels, _atoms_of(self._factor)))
        return self._atoms

    @property
    def blocks(self):
        """(label, V_a) per atom: orthonormal columns with P_a = V_a V_a^*."""
        V, starts, ranks = self._factor
        return [(label, V[:, a:a + r])
                for label, a, r in zip(self._labels, starts, ranks)]

    @property
    def ranks(self):
        """The rank of each atom, in label order."""
        return self._factor[2].tolist()

    @property
    def labels(self):
        return list(self._labels)

    def projector_for(self, label):
        """The atom labeled label, built alone while `atoms` is not built."""
        target = _as_tuple(label)
        for a, lab in enumerate(self._labels):
            if _as_tuple(lab) == target:
                return (self._atoms[a][1] if self._atoms
                        else _atoms_of(self._factor, slice(a, a + 1))[0])
        raise KeyError(f"no atom labeled {label!r}")

    def __len__(self):
        return len(self._labels)

    def __repr__(self):
        return f"ProjectorValuedMeasure(dim={self.dim}, atoms={len(self)})"


def pvm_residuals(pvm) -> dict:
    """The invariant defects construction admitted: bounds read off V, for
    atoms given as matrices widened by their fits to V."""
    return dict(pvm._residuals)


def spectral_decompose(A, cluster_tol=SOLVER_TOL) -> ProjectorValuedMeasure:
    """PVM of a Hermitian operator.

    Eigenvalues closer than cluster_tol * max(1, spectral spread) are merged
    into a single atom (single linkage on the sorted values), whose label is
    the mean of the merged eigenvalues and whose projector is the sum of the
    corresponding rank-1 projectors. At the default cluster_tol an admitted
    operator is decomposed once (see HermitianOperator); each call returns a
    new measure over its factor, so atoms built on one are not kept.
    """
    A = _hermitian(A)
    keep = cluster_tol == SOLVER_TOL
    if keep and A._spectral is not None:
        pvm = ProjectorValuedMeasure.__new__(ProjectorValuedMeasure)
        pvm.dim, pvm._atoms = A.dim, None
        pvm._labels, pvm._factor, pvm._residuals = A._spectral
        return pvm
    pvm = _decompose(A, cluster_tol)[0]
    if keep:
        A._spectral = pvm._labels, pvm._factor, pvm._residuals
    return pvm


def _lookup_sample(mapping, label):
    if label in mapping:
        return mapping[label]
    # cluster labels are means, so give exact-key misses a little slack
    want = np.array(_as_tuple(label))
    scale = max(1.0, float(np.abs(want).max()))
    best_key, best_gap = None, None
    for key in mapping:
        have = np.array(_as_tuple(key))
        if have.shape != want.shape:
            continue
        gap = float(np.abs(have - want).max())
        if best_gap is None or gap < best_gap:
            best_key, best_gap = key, gap
    if best_gap is not None and best_gap <= PRODUCT_TOL * scale:
        return mapping[best_key]
    raise MissingSample(label)


def atom_sum(pvm, values):
    """sum_a values[a] P_a = V diag(values) V^*, each atom's value repeated
    over its block; leading axes of values give a stack."""
    V, _, ranks = pvm._factor
    return (V * np.repeat(values, ranks, axis=-1)[..., None, :]) @ V.conj().T


def func_calculus(pvm, f) -> np.ndarray:
    """Evaluate f on the spectrum: sum_a f(a) P_a = V f(Lambda) V^*, one
    n x n product; `atoms` is not built.

    f may be a mapping from labels to values (the discrete sampled form) or
    a callable evaluated at each label. A Hermitian operator is accepted in
    place of a PVM and decomposed with the default clustering. A value that
    is not finite raises ValueError naming its label, before any product.
    """
    if isinstance(pvm, HermitianOperator) or isinstance(pvm, np.ndarray):
        pvm = spectral_decompose(pvm)
    sample = (lambda lab: _lookup_sample(f, lab)) if isinstance(f, Mapping) else f
    values = np.array([complex(sample(lab)) for lab in pvm._labels])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"f({pvm._labels[bad[0]]!r}) = {values[bad[0]]} is not finite")
    return atom_sum(pvm, values)


def _commute_defect(p, q):
    """(d, M): d the largest ||[P_a, Q_b]||_F over the atoms of p and q, read
    off their Gram matrix M = V_p^* V_q. [P_a, Q_b] is the sum over c != a of
    the orthogonal tiles P_a Q_b P_c and -P_c Q_b P_a, each of norm
    ||M_ab M_cb^*||_F; a sum, not a difference of O(1) norms, resolves 1e-8."""
    M = p._factor[0].conj().T @ q._factor[0]
    (_, ps, _), (_, qs, qr) = p._factor, q._factor
    worst = 0.0
    for b, r in zip(qs, qr):
        tiles = np.abs(M[:, b:b + r] @ M[:, b:b + r].conj().T) ** 2
        tiles = np.add.reduceat(np.add.reduceat(tiles, ps, axis=0), ps, axis=1)
        np.fill_diagonal(tiles, 0.0)
        worst = max(worst, float(tiles.sum(axis=1).max()))
    return float(np.sqrt(2.0 * worst)), M


def pvm_commute(p, q, tol=DEFAULT_TOL) -> bool:
    """True when every atom of p commutes with every atom of q within tol."""
    require_same_dim(p.dim, q.dim)
    return _commute_defect(p, q)[0] <= tol


def joint_pvm(ops) -> ProjectorValuedMeasure:
    """Joint PVM of a commuting family, atoms labeled by eigenvalue tuples
    in lexicographic order.

    The spectral measures are checked to commute pair by pair, each on its
    Gram matrix M, within SOLVER_TOL: eigenprojectors of independently
    diagonalized operators carry solver noise above DEFAULT_TOL. Then each
    later operator j splits every block, held as coefficients C in a block
    V_a of the first operator: the left singular vectors of C^* M_ab
    (M = V_1^* V_j) with singular values above 1/2 span its part inside
    eigenspace b of operator j.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("joint_pvm needs at least one operator")
    pvms = [spectral_decompose(op) for op in ops]
    require_same_dim(*(p.dim for p in pvms))
    grams = []
    for i in range(len(pvms)):
        for j in range(i + 1, len(pvms)):
            defect, M = _commute_defect(pvms[i], pvms[j])
            if defect > SOLVER_TOL:
                raise NonCommuting(i, j, defect)
            if i == 0:
                grams.append(M)

    V, starts, ranks = pvms[0]._factor
    blocks = [((lab,), a, np.eye(r))
              for lab, a, r in zip(pvms[0]._labels, starts, ranks)]
    for q, M in zip(pvms[1:], grams):
        _, qs, qr = q._factor
        grown = []
        for label, a, C in blocks:
            T = C.conj().T @ M[a:a + len(C)]
            # a singular value above 1/2 needs tile mass above 1/4
            mass = np.add.reduceat((np.abs(T) ** 2).sum(axis=0), qs)
            for b in np.flatnonzero(mass > 0.25):
                u, s, _ = np.linalg.svd(T[:, qs[b]:qs[b] + qr[b]],
                                        full_matrices=False)
                if s[0] > 0.5:
                    grown.append((label + (q._labels[b],), a, C @ u[:, s > 0.5]))
        blocks = grown
    return ProjectorValuedMeasure._from_factor(
        [label for label, _, _ in blocks],
        *_stack([V[:, a:a + len(C)] @ C for _, a, C in blocks]),
        tol=SOLVER_TOL)[0]


def marginal_pvm(joint, coordinate) -> ProjectorValuedMeasure:
    """Collapse a joint PVM onto one label coordinate by merging the column
    blocks of the atoms that share it."""
    groups: dict[float, list] = {}
    for label, B in joint.blocks:
        groups.setdefault(float(label[coordinate]), []).append(B)
    keys = sorted(groups)
    return ProjectorValuedMeasure._from_factor(
        keys, *_stack([np.hstack(groups[key]) for key in keys]))[0]


# --- JSON layout, that of `oplattice spectral`: {"dim": n, "atoms": [{"label":
# [..], "projector": P, "rank": r}, ...]}, each P an array for linalg.dumps.

def pvm_to_json(pvm) -> dict:
    return {"dim": pvm.dim, "atoms": [
        {"label": list(_as_tuple(label)), "projector": P, "rank": r}
        for (label, P), r in zip(pvm.atoms, pvm.ranks)]}


def pvm_from_json(obj) -> ProjectorValuedMeasure:
    """The measure in that layout, parsed; other keys, such as a report's
    residuals, are ignored. A declared rank must be the admitted one."""
    labels = [tuple(float(x) for x in atom["label"]) for atom in obj["atoms"]]
    pvm = ProjectorValuedMeasure(int(obj["dim"]), [
        (lab[0] if len(lab) == 1 else lab, matrix_from_json(atom["projector"]))
        for lab, atom in zip(labels, obj["atoms"])])
    for atom, rank in zip(obj["atoms"], pvm.ranks):
        if "rank" in atom and int(atom["rank"]) != rank:
            raise ValueError(f"declared rank {atom['rank']} but trace says {rank}")
    return pvm
