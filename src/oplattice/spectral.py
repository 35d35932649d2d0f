"""Projector-valued measures and the discrete functional calculus.

A Hermitian operator is carried to its PVM: a finite list of
(eigenvalue label, orthogonal projector) atoms, pairwise orthogonal and
summing to the identity. Functions of the operator are then weighted sums
f(A) = sum_a f(a) P_a, and a commuting family gets a joint PVM whose atoms
are products of the individual spectral projectors, labeled by tuples.
"""
from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    HermitianOperator,
    _fro_batch,
    as_matrix,
    eig_hermitian,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    require_square,
)

DEFAULT_CLUSTER_TOL = 1e-8

# Eigenprojectors of independently diagonalized commuting operators carry
# solver noise well above the base tolerance, so joint constructions get
# their own default.
JOINT_COMMUTE_TOL = 1e-8


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


def _factor_residuals(V, starts, ranks):
    """Bounds for the atoms P_a = V_a V_a^* of the column blocks V_a of V:
    with fd the largest ||V_a^* V_a - I||_F and off the mass of V^*V - I
    outside the diagonal blocks, ||P_a P_b||_F <= off + 2 fd for every pair
    and ||P_a^2 - P_a||_F <= (1 + fd) fd for every atom."""
    eye = np.eye(V.shape[0])
    gram = np.abs(V.conj().T @ V - eye) ** 2
    tiles = np.add.reduceat(np.add.reduceat(gram, starts, axis=0), starts, axis=1)
    fd = float(np.sqrt(np.diagonal(tiles).max()))
    np.fill_diagonal(tiles, 0.0)
    herm = 0.0
    for a, r in zip(starts[ranks > 1], ranks[ranks > 1]):
        P = V[:, a:a + r] @ V[:, a:a + r].conj().T
        herm = max(herm, frobenius(P - P.conj().T))
    return {
        "hermiticity": herm,
        "idempotency": (1.0 + fd) * fd,
        "completeness": frobenius(V @ V.conj().T - eye),
        "orthogonality": float(np.sqrt(tiles.sum())) + 2.0 * fd,
    }


class ProjectorValuedMeasure:
    """Finite PVM: atoms (label, projector).

    Labels are floats for a single operator and tuples of floats for joint
    measures. Construction verifies every invariant: each atom Hermitian
    and idempotent, atoms pairwise orthogonal, the sum equal to the
    identity, labels pairwise distinct.

    spectral_decompose makes a factored measure of eigenvector blocks V_a,
    with P_a = V_a V_a^* built on first use of `atoms`, and checks it on V:
    the Gram defect V^*V - I bounds idempotency and orthogonality, and
    VV^* - I is the completeness defect. A rank-1 atom u u^* is Hermitian by
    construction, its (i, j) and (j, i) entries being conjugates made from
    the same two real products; Hermiticity of higher-rank atoms is measured.
    """

    __slots__ = ("dim", "_labels", "_atoms", "_factor")

    def __init__(self, dim, atoms, tol=None):
        dim = int(dim)
        clean = []
        for label, P in atoms:
            P = require_square(as_matrix(P))
            if P.shape[0] != dim:
                raise DimensionMismatch(
                    f"atom is {P.shape[0]}x{P.shape[0]}, PVM dim is {dim}"
                )
            clean.append((label, P))
        if not clean:
            raise ValueError("a PVM needs at least one atom")
        self._admit(dim, [lab for lab, _ in clean], _atom_residuals(dim, clean), tol)
        self._atoms, self._factor = clean, None

    @classmethod
    def _from_factor(cls, labels, V, starts, ranks):
        pvm = cls.__new__(cls)
        pvm._admit(V.shape[0], labels, _factor_residuals(V, starts, ranks), None)
        pvm._atoms, pvm._factor = None, (V, starts, ranks)
        return pvm

    def _admit(self, dim, labels, report, tol):
        tol = DEFAULT_TOL if tol is None else float(tol)
        if not all(v <= tol for v in report.values()):  # NaN fails too
            raise ValueError(f"PVM invariants violated ({report})")
        if len(set(map(_as_tuple, labels))) != len(labels):
            raise ValueError("PVM labels are not pairwise distinct")
        self.dim, self._labels = dim, labels

    @property
    def atoms(self):
        if self._atoms is None:
            V, starts, ranks = self._factor
            cols = V[:, starts[ranks == 1]]
            outers = iter(np.einsum("ia,ja->aij", cols, cols.conj()))
            blocks = (V[:, a:a + r] for a, r in zip(starts, ranks))
            self._atoms = [
                (label, next(outers) if B.shape[1] == 1 else B @ B.conj().T)
                for label, B in zip(self._labels, blocks)
            ]
        return self._atoms

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
    """Measured invariant defects: Hermiticity, idempotency, completeness,
    pairwise orthogonality. Useful for reports; construction already
    enforced them."""
    return _atom_residuals(pvm.dim, pvm.atoms)


def spectral_decompose(A, cluster_tol=None) -> ProjectorValuedMeasure:
    """PVM of a Hermitian operator.

    Eigenvalues closer than cluster_tol * max(1, spectral spread) are merged
    into a single atom (single linkage on the sorted values), whose label is
    the mean of the merged eigenvalues and whose projector is the sum of the
    corresponding rank-1 projectors.
    """
    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    ctol = DEFAULT_CLUSTER_TOL if cluster_tol is None else float(cluster_tol)
    es = eig_hermitian(A)
    w, V = es.eigenvalues, es.eigenvectors
    threshold = ctol * max(1.0, float(w[-1] - w[0]))
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > threshold)
    ranks = np.diff(starts, append=len(w))
    labels = [float(w[a]) if r == 1 else float(np.mean(w[a:a + r]))
              for a, r in zip(starts.tolist(), ranks.tolist())]
    return ProjectorValuedMeasure._from_factor(labels, V, starts, ranks)


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
    if best_gap is not None and best_gap <= 1e-9 * scale:
        return mapping[best_key]
    raise MissingSample(label)


def _on_factor(pvm, values):
    """V diag(values) V^* for a measure made by spectral_decompose, each atom's
    value repeated over its block; leading axes of values give a stack."""
    V, _, ranks = pvm._factor
    return (V * np.repeat(values, ranks, axis=-1)[..., None, :]) @ V.conj().T


def func_calculus(pvm, f) -> np.ndarray:
    """Evaluate f on the spectrum: sum_a f(a) P_a.

    f may be a mapping from labels to values (the discrete sampled form) or
    a callable evaluated at each label. A Hermitian operator is accepted in
    place of a PVM and decomposed with the default clustering.

    On a measure made by spectral_decompose the cost is one n x n product,
    V f(Lambda) V^*, and `atoms` is not built.
    """
    if isinstance(pvm, HermitianOperator) or isinstance(pvm, np.ndarray):
        pvm = spectral_decompose(pvm)
    sample = (lambda lab: _lookup_sample(f, lab)) if isinstance(f, Mapping) else f
    values = np.array([complex(sample(lab)) for lab in pvm._labels])
    if pvm._factor is not None:
        return _on_factor(pvm, values)
    out = np.zeros((pvm.dim, pvm.dim), dtype=complex)
    for value, (_, P) in zip(values, pvm.atoms):
        out += value * P
    return out


def _pvm_commute_defect(p, q):
    worst = 0.0
    for _, P in p.atoms:
        for _, Q in q.atoms:
            worst = max(worst, frobenius(P @ Q - Q @ P))
    return worst


def pvm_commute(p, q, tol=None) -> bool:
    """True when every atom of p commutes with every atom of q within tol."""
    tol = DEFAULT_TOL if tol is None else float(tol)
    if p.dim != q.dim:
        raise DimensionMismatch(f"PVM dims differ: {p.dim} vs {q.dim}")
    return _pvm_commute_defect(p, q) <= tol


def joint_pvm(ops, cluster_tol=None, tol=None) -> ProjectorValuedMeasure:
    """Joint PVM of a commuting family, atoms labeled by eigenvalue tuples.

    Each joint projector is the product of one spectral projector per
    operator; products of rank 0 (trace below 0.5) are dropped. Pairwise
    commutation of the individual spectral measures is checked first.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("joint_pvm needs at least one operator")
    tol = JOINT_COMMUTE_TOL if tol is None else float(tol)
    pvms = [spectral_decompose(op, cluster_tol) for op in ops]
    dim = pvms[0].dim
    for p in pvms[1:]:
        if p.dim != dim:
            raise DimensionMismatch("operators act on different spaces")
    for i in range(len(pvms)):
        for j in range(i + 1, len(pvms)):
            defect = _pvm_commute_defect(pvms[i], pvms[j])
            if defect > tol:
                raise NonCommuting(i, j, defect)

    atoms = [((), np.eye(dim, dtype=complex))]
    for p in pvms:
        grown = []
        for label, M in atoms:
            for lab, P in p.atoms:
                prod = M @ P
                if prod.trace().real >= 0.5:
                    grown.append((label + (float(lab),), prod))
        atoms = grown
    atoms.sort(key=lambda atom: atom[0])
    return ProjectorValuedMeasure(dim, atoms, tol=max(tol, DEFAULT_TOL))


def marginal_pvm(joint, coordinate, tol=None) -> ProjectorValuedMeasure:
    """Collapse a joint PVM onto one label coordinate by summing atoms."""
    groups: dict[float, np.ndarray] = {}
    for label, P in joint.atoms:
        key = float(label[coordinate])
        groups[key] = groups.get(key, 0) + P
    atoms = sorted(groups.items())
    return ProjectorValuedMeasure(joint.dim, atoms, tol=tol)


# --- JSON form: {"dim": n, "atoms": [{"label": [..], "projector": ..}]} ---

def pvm_to_json(pvm) -> dict:
    out = []
    for label, P in pvm.atoms:
        out.append({
            "label": [float(x) for x in _as_tuple(label)],
            "projector": matrix_to_json(P),
        })
    return {"dim": pvm.dim, "atoms": out}


def pvm_from_json(obj, tol=None) -> ProjectorValuedMeasure:
    atoms = []
    for atom in obj["atoms"]:
        lab = [float(x) for x in atom["label"]]
        label = lab[0] if len(lab) == 1 else tuple(lab)
        atoms.append((label, matrix_from_json(atom["projector"])))
    return ProjectorValuedMeasure(int(obj["dim"]), atoms, tol=tol)
