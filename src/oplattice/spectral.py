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
    Refusal,
    _CHECK_SLICE,
    _fro_batch,
    _gate,
    _hermitians,
    as_stack,
    eig_hermitian,
    frobenius,
    matrix_from_json,
    require_same_dim,
)


class NonCommuting(Refusal, ValueError):
    template = ("spectral measures of operators {0[0]} and {0[1]} do not "
                "commute (defect {defect:.3e})")
    fields = ("pair",)


class NotAPVM(Refusal, ValueError):
    template = "PVM invariants violated ({0})"


class MissingSample(KeyError):
    def __init__(self, label):
        super().__init__(f"no sample supplied for spectral label {label!r}")
        self.label = label


def _as_tuple(label):
    if isinstance(label, tuple):
        return tuple(float(x) for x in label)
    return (float(label),)


def _stack(labels, blocks, tol=DEFAULT_TOL):
    """The measure over a list of column blocks, labeled in order, that
    passes the factor gate at tol."""
    ranks = np.array([B.shape[1] for B in blocks])
    return ProjectorValuedMeasure._from_factors(np.hstack(blocks)[None], [(
        labels, np.cumsum(ranks) - ranks, ranks)], tol)[0]


def _factor_residuals(V, starts):
    """Bounds for the atoms P_a = V_a V_a^* of the column blocks V_a of each
    square V of a (k, m, m) stack, split at its own starts, all read off G =
    V^*V - I: with fd the largest ||V_a^* V_a - I||_F and off the mass of G
    outside the diagonal blocks, ||P_a P_b||_F <= off + 2 fd for each pair,
    ||P_a^2 - P_a||_F <= (1 + fd) fd for each atom, and ||sum_a P_a - I||_F =
    ||VV^* - I||_F = ||G||_F, both ||S^2 - I||_F over V's singular values S.
    Atoms are Hermitian to the last bit (see ProjectorValuedMeasure). With
    one column per block, all tiles are read at once; else V is tiled alone."""
    k, m = V.shape[:2]
    tiles = np.abs(V.conj().mT @ V - np.eye(m)) ** 2
    flat = tiles.reshape(k, m * m)
    complete = np.sqrt(flat.sum(axis=1))
    if all(len(s) == m for s in starts):
        fd = flat[:, ::m + 1].max(axis=1)
        flat[:, ::m + 1] = 0.0
        off = flat.sum(axis=1)
    else:
        fd, off = np.empty(k), np.empty(k)
        for a, s in enumerate(starts):
            T = np.add.reduceat(np.add.reduceat(tiles[a], s, axis=0), s, axis=1)
            fd[a] = np.diagonal(T).max()
            np.fill_diagonal(T, 0.0)
            off[a] = T.sum()
    fd = np.sqrt(fd)
    return [{"hermiticity": 0.0, "idempotency": (1.0 + f) * f,
             "completeness": c, "orthogonality": o + 2.0 * f}
            for f, c, o in zip(fd.tolist(), complete.tolist(),
                               np.sqrt(off).tolist())]


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


def _decompose_stack(ops, cluster_tol=SOLVER_TOL):
    """The measures of a family of Hermitian operators of one dimension, in
    order, the ones not admitted yet admitted as one stack (_hermitians), all
    decomposed together: one batched eig_hermitian and factor gate, only the
    cluster split per operator. At the default cluster_tol each keeps its
    factor (see HermitianOperator), and once any operator keeps one already,
    every measure is read off the kept factors."""
    ops, keep = _hermitians(ops), cluster_tol == SOLVER_TOL
    todo = [A for A in ops if not (keep and A._spectral)]
    if todo:
        es = eig_hermitian(todo)
        made = ProjectorValuedMeasure._from_factors(es.eigenvectors, [
            _clusters(w, cluster_tol) for w in es.eigenvalues])
        for A, pvm in zip(todo, made if keep else ()):
            A._spectral = pvm._labels, pvm._factor, pvm._residuals
        if len(todo) == len(ops):
            return made
    kept = []
    for A in ops:
        pvm = ProjectorValuedMeasure.__new__(ProjectorValuedMeasure)
        pvm.dim, pvm._atoms = A.dim, None
        pvm._labels, pvm._factor, pvm._residuals = A._spectral
        kept.append(pvm)
    return kept


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
    by 2f, (2q + 1 + f) f, ||sum_a E_a||_F and (2q + f) f, in key order. The
    fits are taken _CHECK_SLICE entries at a time: no k x n x n array is
    held beside the given stack."""
    k, dim = stack.shape[:2]
    # its Hermitian part: how far the atoms are from it shows in the fits
    weighted = np.tensordot(np.arange(float(k)), stack, axes=1)
    factor = _decompose_stack([HermitianOperator(weighted, tol=math.inf)])[0]
    ranks = factor._factor[2]
    traces = np.rint(stack.trace(axis1=1, axis2=2).real)
    if len(ranks) != k or (ranks != traces).any():
        raise ValueError(f"atom traces {traces.tolist()} are not the "
                         f"ranks {ranks.tolist()} of a partition of {dim}")
    f, total = 0.0, np.zeros((dim, dim), dtype=complex)
    step = max(1, _CHECK_SLICE // max(1, dim * dim))
    for lo in range(0, k, step):
        part = slice(lo, lo + step)
        E = stack[part] - _atoms_of(factor._factor, part)
        f = max(f, float(_fro_batch(E).max()))
        total += E.sum(axis=0)
    bounds = factor._residuals
    q = 1.0 + bounds["idempotency"]
    return factor._factor, {
        "hermiticity": bounds["hermiticity"] + 2.0 * f,
        "idempotency": bounds["idempotency"] + (2.0 * q + 1.0 + f) * f,
        "completeness": bounds["completeness"] + frobenius(total),
        "orthogonality": bounds["orthogonality"] + (2.0 * q + f) * f,
    }


class ProjectorValuedMeasure:
    """Finite PVM: atoms (label, projector), held as the factor
    (V, starts, ranks), P_a = V_a V_a^* for the column block V_a of V.

    Labels are floats for a single operator and tuples of floats for joint
    measures. Construction verifies every invariant: each atom Hermitian
    and idempotent, atoms pairwise orthogonal, the sum equal to the
    identity, labels pairwise distinct.

    Every measure is checked on V by one product, the Gram defect V^*V - I:
    it bounds idempotency, orthogonality and completeness.
    A measure the library builds has its atoms built on first use of `atoms`
    (see _atoms_of). Atoms given as matrices are kept as read-only copies,
    and the bounds are widened by their fits to V (see _given_factor).
    """

    __slots__ = ("dim", "_labels", "_atoms", "_factor", "_residuals")

    def __init__(self, dim, atoms):
        dim, atoms = int(dim), list(atoms)
        stack = as_stack((P for _, P in atoms), dim)
        if not len(stack):
            raise ValueError("a PVM needs at least one atom")
        self._factor, report = _given_factor(stack)
        labels = [label for label, _ in atoms]
        self._admit(dim, labels, map(_as_tuple, labels), report, DEFAULT_TOL)
        self._atoms = list(zip(self._labels, stack))

    @classmethod
    def _from_factors(cls, V, splits, tol=DEFAULT_TOL):
        """The measure over each factor of the stack V, split by its
        (labels, starts, ranks), each passing the gate at tol. The labels are
        floats or tuples of floats, their own keys."""
        reports = _factor_residuals(V, [s for _, s, _ in splits])
        V.setflags(write=False)
        made = []
        for Va, (labels, starts, ranks), report in zip(V, splits, reports):
            pvm = cls.__new__(cls)
            pvm._admit(len(Va), labels, labels, report, tol)
            starts.setflags(write=False)
            ranks.setflags(write=False)
            pvm._atoms, pvm._factor = None, (Va, starts, ranks)
            made.append(pvm)
        return made

    def _admit(self, dim, labels, keys, report, tol):
        """Keep dim, labels and report once the report passes tol and the
        keys, one hashable per label, are pairwise distinct."""
        for v in report.values():
            _gate(v, tol, NotAPVM, report)
        if len(set(keys)) != len(labels):
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
    new measure over its factor, so atoms built on one are not kept. The
    operator goes through the step a family shares, as a stack of one (see
    _decompose_stack). A NaN or negative cluster_tol raises ValueError.
    """
    if not cluster_tol >= 0.0:  # a NaN width would merge every gap
        raise ValueError(f"cluster_tol must be non-negative, got {cluster_tol}")
    return _decompose_stack([A], cluster_tol)[0]


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


def atom_sum(V, values):
    """V diag(values) V^*: sum_a values[a] P_a over a factor V whose block
    values are repeated over their columns; leading axes of V or values
    give a stack."""
    return (V * values[..., None, :]) @ V.conj().mT


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
    V, _, ranks = pvm._factor
    return atom_sum(V, np.repeat(values, ranks))


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
    pvms = _decompose_stack(ops)
    grams = []
    for i in range(len(pvms)):
        for j in range(i + 1, len(pvms)):
            defect, M = _commute_defect(pvms[i], pvms[j])
            _gate(defect, SOLVER_TOL, NonCommuting, (i, j))
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
    return _stack([label for label, _, _ in blocks],
                  [V[:, a:a + len(C)] @ C for _, a, C in blocks], SOLVER_TOL)


def marginal_pvm(joint, coordinate) -> ProjectorValuedMeasure:
    """Collapse a joint PVM onto one label coordinate by merging the column
    blocks of the atoms that share it."""
    groups: dict[float, list] = {}
    for label, B in joint.blocks:
        groups.setdefault(float(label[coordinate]), []).append(B)
    keys = sorted(groups)
    return _stack(keys, [np.hstack(groups[key]) for key in keys])


# --- JSON layout, that of `oplattice spectral`: {"dim": n, "atoms": [{"label":
# [..], "projector": P, "rank": r}, ...]}, each P an array for linalg.dumps.

def pvm_to_json(pvm) -> dict:
    return {"dim": pvm.dim, "atoms": [
        {"label": list(_as_tuple(label)), "projector": P, "rank": r}
        for (label, P), r in zip(pvm.atoms, pvm.ranks)]}


def pvm_from_json(obj) -> ProjectorValuedMeasure:
    """The measure in that layout, parsed; other keys, such as a report's
    residuals, are ignored. dim and ranks are JSON integers, labels hold ints
    and floats, none a boolean. A declared rank must be the admitted one."""
    atoms, dim = obj["atoms"], obj["dim"]
    ranks = [atom["rank"] for atom in atoms if "rank" in atom]
    if not all(type(v) is int and v >= 0 for v in (dim, *ranks)):
        raise ValueError(f"dim {dim!r} and ranks {ranks!r} must be "
                         "non-negative integers")
    labels = [atom["label"] for atom in atoms]
    for label in labels:
        if not all(type(x) in (int, float) for x in label):
            raise ValueError(f"label {label!r} must hold numbers")
    labels = [tuple(map(float, label)) for label in labels]
    pvm = ProjectorValuedMeasure(dim, [
        (lab[0] if len(lab) == 1 else lab, matrix_from_json(atom["projector"]))
        for lab, atom in zip(labels, atoms)])
    for atom, rank in zip(atoms, pvm.ranks):
        if "rank" in atom and atom["rank"] != rank:
            raise ValueError(f"declared rank {atom['rank']} but trace says {rank}")
    return pvm
