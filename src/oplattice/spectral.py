"""Projector-valued measures and the discrete functional calculus.

A Hermitian operator is carried to its PVM: (eigenvalue label, orthogonal
projector) atoms, pairwise orthogonal and summing to the identity, held as
one matrix V whose column blocks V_a span the atoms, P_a = V_a V_a^*. Then
f(A) = V f(Lambda) V^*, and a commuting family gets a joint PVM, labeled by
tuples, whose blocks split the first operator's along the others'.
"""
from __future__ import annotations

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
    matrix_to_json,
    range_basis,
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


def _atom_residuals(dim, atoms):
    """Measured invariant defects of a dense atom list."""
    stack = np.stack([P for _, P in atoms])
    herm = float(_fro_batch(stack - stack.conj().transpose(0, 2, 1)).max())
    complete = frobenius(stack.sum(axis=0) - np.eye(dim))
    idem = float(_fro_batch(stack @ stack - stack).max())
    ortho = 0.0
    for a in range(len(atoms) - 1):
        prods = stack[a][None, :, :] @ stack[a + 1:]
        ortho = max(ortho, float(_fro_batch(prods).max()))
    return {
        "hermiticity": herm,
        "idempotency": idem,
        "completeness": complete,
        "orthogonality": float(ortho),
    }


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


class ProjectorValuedMeasure:
    """Finite PVM: atoms (label, projector), held as the factor
    (V, starts, ranks), P_a = V_a V_a^* for the column block V_a of V.

    Labels are floats for a single operator and tuples of floats for joint
    measures. Construction verifies every invariant: each atom Hermitian
    and idempotent, atoms pairwise orthogonal, the sum equal to the
    identity, labels pairwise distinct.

    Atoms given as matrices are checked densely and kept, as read-only
    copies, as `atoms`; V_a is read off each one's 0/1 eigensplit. A measure
    the library builds is checked on V, with P_a built on first use of
    `atoms`: the Gram defect V^*V - I bounds idempotency and orthogonality,
    and VV^* - I is the completeness defect. Both kinds of atom are
    Hermitian by construction: in u u^* the (i, j) and (j, i) entries are
    conjugates made from the same two real products, and a higher-rank atom
    is (BB^* + (BB^*)^*)/2, whose mirrored entries add the same two numbers.
    """

    __slots__ = ("dim", "_labels", "_atoms", "_factor", "_residuals")

    def __init__(self, dim, atoms):
        dim = int(dim)
        clean = [(label, require_square(as_matrix(P).copy()))
                 for label, P in atoms]
        for _, P in clean:
            P.setflags(write=False)
        require_same_dim(dim, *(P.shape[0] for _, P in clean))
        if not clean:
            raise ValueError("a PVM needs at least one atom")
        self._admit(dim, [lab for lab, _ in clean], _atom_residuals(dim, clean),
                    DEFAULT_TOL)
        self._atoms, self._factor = clean, _stack([range_basis(P) for _, P in clean])
        ranks = self._factor[2]
        if not ranks.all() or ranks.sum() != dim:
            raise ValueError(f"atom ranks {ranks.tolist()} do not partition {dim}")

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
            V, starts, ranks = self._factor
            cols = V[:, starts[ranks == 1]]
            outers = iter(np.einsum("ia,ja->aij", cols, cols.conj()))
            self._atoms = []
            for label, B in self.blocks:
                if B.shape[1] == 1:
                    P = next(outers)
                else:
                    P = B @ B.conj().T
                    P = (P + P.conj().T) / 2
                P.setflags(write=False)
                self._atoms.append((label, P))
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
        target = _as_tuple(label)
        for lab, P in self.atoms:
            if _as_tuple(lab) == target:
                return P
        raise KeyError(f"no atom labeled {label!r}")

    def __len__(self):
        return len(self._labels)

    def __repr__(self):
        return f"ProjectorValuedMeasure(dim={self.dim}, atoms={len(self)})"


def pvm_residuals(pvm) -> dict:
    """The invariant defects construction admitted: measured on atoms given
    as matrices, bounds read off V on a measure the library built."""
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


# --- JSON form: {"dim": n, "atoms": [{"label": [..], "projector": ..}]} ---

def pvm_to_json(pvm) -> dict:
    out = []
    for label, P in pvm.atoms:
        out.append({
            "label": [float(x) for x in _as_tuple(label)],
            "projector": matrix_to_json(P),
        })
    return {"dim": pvm.dim, "atoms": out}


def pvm_from_json(obj) -> ProjectorValuedMeasure:
    atoms = []
    for atom in obj["atoms"]:
        lab = [float(x) for x in atom["label"]]
        label = lab[0] if len(lab) == 1 else tuple(lab)
        atoms.append((label, matrix_from_json(atom["projector"])))
    return ProjectorValuedMeasure(int(obj["dim"]), atoms)
