"""Batch front end.

Every subcommand reads JSON, emits exactly one JSON report and exits by a
fixed taxonomy: 0 success, 2 validation error, 3 numerical-tolerance
failure, 64 unknown subcommand, 65 malformed input. The report layout is a
fixed contract, so identical inputs give identical bytes: 2-space indent,
sorted keys, ASCII only, NaN/Infinity for non-finite scalars, a complex
scalar as [re, im], and every matrix as
{"cols": n, "data": [[re, im], ...], "rows": m} in row-major order.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

import numpy as np

from .algebras import (
    MatrixStarAlgebra,
    center,
    commutant,
    double_commutant,
    is_factor,
    superselection_sectors,
)
from .dynamics import (
    EquivalenceViolation,
    InconsistentGroup,
    NotACocycle,
    NotHermitianResult,
    _evolve_grid,
    dyson_evolve,
    dyson_series,
    noether_check,
    su2_fixture,
)
from .gns import (
    AbstractStarAlgebra,
    AlgebraicState,
    gns_construct,
    verify_gns,
)
from .lattice import (
    MaxIterExceeded,
    Projector,
    commutes,
    jauch_meet,
    join,
    meet,
    neg,
)
from .linalg import (
    ConvergenceFailure,
    HermitianOperator,
    as_matrix,
    frobenius,
    matrix_from_json,
)
from .oscillator import (
    TailTooLarge,
    build_truncated_pair,
    heisenberg_uncertainty,
    svn_hypotheses_check,
)
from .spectral import (
    func_calculus,
    pvm_residuals,
    spectral_decompose,
)
from .states import (
    DensityState,
    InconsistentAssignments,
    WitnessNotFound,
    ZeroProbability,
    born_probability,
    gleason_fit,
    luders_collapse,
    purity,
    sequential_probability,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_UNKNOWN_COMMAND = 64
EXIT_MALFORMED = 65

# Exceptions meaning "the computation ran but a numerical budget failed",
# as opposed to bad input.
TOLERANCE_FAILURES = (
    MaxIterExceeded,
    ConvergenceFailure,
    InconsistentGroup,
    NotHermitianResult,
    EquivalenceViolation,
    NotACocycle,
    InconsistentAssignments,
    WitnessNotFound,
    ZeroProbability,
    TailTooLarge,
)


class MalformedInput(ValueError):
    pass


# --- report writer ----------------------------------------------------------
# json.dumps(..., indent=2) would run json's pure-Python encoder over every
# [re, im] pair. Matrices stay arrays until here instead, and each data block
# is one %-format over the matrix's float64 view.

def _block(brackets, body, pad):
    """The JSON texts in body as an indented array or object at pad."""
    if not body:
        return brackets
    inner = pad + "  "
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(body)
            + f"\n{pad}{brackets[1]}")


def _json(obj, pad=""):
    """obj as JSON text in the report layout, on a line indented by pad.
    Keys become str; a 2-d array is a matrix, any other array a list."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        M, inner = as_matrix(obj), pad + "  "
        pair = _block("[]", ["%r", "%r"], inner + "  ")
        data = _block("[]", [pair] * M.size, inner) % tuple(
            M.ravel().view(np.float64).tolist())
        return _block("{}", [f'"cols": {M.shape[1]}', f'"data": {data}',
                             f'"rows": {M.shape[0]}'], pad)
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, dict):
        keyed = sorted({str(k): v for k, v in obj.items()}.items())
        return _block("{}", [f"{json.dumps(k)}: {_json(v, pad + '  ')}"
                             for k, v in keyed], pad)
    if isinstance(obj, (list, tuple)):
        return _block("[]", [_json(v, pad + "  ") for v in obj], pad)
    return json.dumps(obj)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path}: invalid JSON ({exc})")
    except OSError as exc:
        raise MalformedInput(f"{path}: {exc}")


def _complex_array(data, what):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise MalformedInput(f"{what}: expected nested [re, im] pairs")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise MalformedInput(f"{what}: last axis must hold [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix_of(obj, what):
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    try:
        return matrix_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{what}: {exc}")


def _field(obj, key):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise MalformedInput(f"missing field {key!r}")


def _data_fixture(name):
    root = resources.files("oplattice") / "data"
    path = root / f"{name}.json"
    if not path.is_file():
        known = sorted(p.name[:-5] for p in root.iterdir()
                       if p.name.endswith(".json"))
        raise ValueError(f"unknown demo {name!r}; shipped: {', '.join(known)}")
    return json.loads(path.read_text())


def _algebra_from_json(obj):
    c = _complex_array(_field(obj, "mult"), "mult")
    s = _complex_array(_field(obj, "invol"), "invol")
    u = _complex_array(_field(obj, "unit"), "unit")
    return AbstractStarAlgebra(c, s, u)


# --- handlers ---------------------------------------------------------------

def cmd_spectral(args):
    M = _matrix_of(_load_json(args.infile), args.infile)
    A = HermitianOperator(M, tol=args.tol)
    pvm = spectral_decompose(A)
    rebuilt = func_calculus(pvm, lambda x: x)
    return {
        "dim": pvm.dim,
        "atoms": [{"label": [label], "projector": P,
                   "rank": int(round(float(P.trace().real)))}
                  for label, P in pvm.atoms],
        "residuals": pvm_residuals(pvm),
        "reconstruction_residual": frobenius(rebuilt - A.matrix),
        "tolerance_used": args.tol,
    }


_FUNCTIONS = {
    "identity": lambda x, t: x,
    "square": lambda x, t: x * x,
    "abs": lambda x, t: abs(x),
    "exp-it": lambda x, t: np.exp(-1j * t * x),
}


def cmd_funcalc(args):
    M = _matrix_of(_load_json(args.infile), args.infile)
    pvm = spectral_decompose(HermitianOperator(M, tol=args.tol))
    f = _FUNCTIONS[args.f]
    out = func_calculus(pvm, lambda x: f(x, args.t))
    return {
        "function": args.f,
        "t": args.t,
        "matrix": out,
        "spectrum_map": [
            [float(label), complex(f(float(label), args.t))]
            for label in pvm.labels
        ],
        "tolerance_used": args.tol,
    }


def cmd_lattice(args):
    obj = _load_json(args.infile)
    P = Projector(_matrix_of(_field(obj, "p"), "p"), tol=args.tol)
    Q = Projector(_matrix_of(_field(obj, "q"), "q"), tol=args.tol)
    both = meet(P, Q)
    log = []
    iterated = jauch_meet(P, Q, tol=args.tol, norm_log=log)
    return {
        "meet": both.matrix,
        "join": join(P, Q).matrix,
        "neg_p": neg(P).matrix,
        "neg_q": neg(Q).matrix,
        "commutes": commutes(P, Q, tol=args.tol),
        "jauch_gap": frobenius(iterated.matrix - both.matrix),
        "jauch_multiplications": len(log),
        "tolerance_used": args.tol,
    }


def cmd_measure(args):
    obj = _load_json(args.infile)
    rho = DensityState(_matrix_of(_field(obj, "state"), "state"), tol=args.tol)
    if "chain" in obj:
        chain = [Projector(_matrix_of(m, "chain"), tol=args.tol)
                 for m in obj["chain"]]
        seq = sequential_probability(rho, chain)
        return {
            "value": seq.value,
            "reversed_value": seq.reversed_value,
            "chain_length": len(chain),
            "tolerance_used": args.tol,
        }
    P = Projector(_matrix_of(_field(obj, "projector"), "projector"),
                  tol=args.tol)
    return {
        "probability": born_probability(rho, P, tol=args.tol),
        "tolerance_used": args.tol,
    }


def cmd_collapse(args):
    obj = _load_json(args.infile)
    rho = DensityState(_matrix_of(_field(obj, "state"), "state"), tol=args.tol)
    P = Projector(_matrix_of(_field(obj, "projector"), "projector"),
                  tol=args.tol)
    p = born_probability(rho, P, tol=args.tol)
    post = luders_collapse(rho, P)
    return {
        "probability": p,
        "post_state": post.matrix,
        "post_purity": purity(post),
        "tolerance_used": args.tol,
    }


def cmd_gleason_fit(args):
    obj = _load_json(args.infile)
    rows = _field(obj, "assignments")
    pairs = []
    for row in rows:
        P = Projector(_matrix_of(_field(row, "projector"), "projector"),
                      tol=args.tol)
        pairs.append((P, float(_field(row, "probability"))))
    fit = gleason_fit(pairs)
    return {
        "state": fit.state.matrix,
        "residual": fit.residual,
        "frame_rank": fit.frame_rank,
        "dim_two_warning": fit.dim_two_warning,
        "assignments": len(pairs),
        "tolerance_used": args.tol,
    }


def cmd_commutant(args):
    obj = _load_json(args.infile)
    gens = [_matrix_of(m, "generators") for m in _field(obj, "generators")]
    dim = obj.get("dim")
    prime = commutant(gens, dim)
    bicom = double_commutant(gens, dim)
    alg = MatrixStarAlgebra(bicom)
    return {
        "commutant_dimension": len(prime),
        "double_commutant_dimension": len(bicom),
        "center_dimension": len(center(alg)),
        "is_factor": is_factor(alg),
        "tolerance_used": args.tol,
    }


def _sectors_report(obj, tol):
    charges = [_matrix_of(m, "charges") for m in _field(obj, "charges")]
    observables = [_matrix_of(m, "observables")
                   for m in _field(obj, "observables")]
    rep = superselection_sectors(charges, observables, tol=tol)
    return {
        "sectors": [
            {
                "label": list(s.label),
                "rank": s.rank,
                "irreducible": s.irreducible,
                "algebra_dimension": len(s.restricted_basis),
                "charge_values": list(s.charge_values),
            }
            for s in rep.sectors
        ],
        "offdiagonal_defect": rep.offdiag_defect,
        "tolerance_used": tol,
    }


def cmd_sectors(args):
    return _sectors_report(_load_json(args.infile), args.tol)


def cmd_evolve(args):
    H = HermitianOperator(
        _matrix_of(_load_json(args.hamiltonian), args.hamiltonian),
        tol=args.tol,
    )
    U, half = _evolve_grid(spectral_decompose(H), [args.t, args.t / 2.0],
                           args.hbar)
    return {
        "unitary": U,
        "unitarity_defect": frobenius(U.conj().T @ U - np.eye(len(U))),
        "group_law_defect": frobenius(half @ half - U),
        "t": args.t,
        "hbar": args.hbar,
        "tolerance_used": args.tol,
    }


def cmd_noether(args):
    A = HermitianOperator(_matrix_of(_load_json(args.a), args.a),
                          tol=args.tol)
    H = HermitianOperator(_matrix_of(_load_json(args.h), args.h),
                          tol=args.tol)
    rep = noether_check(A, H, tol=args.tol, hbar=args.hbar)
    return {
        "constant_of_motion": rep.constant_of_motion,
        "dynamical_symmetry": rep.dynamical_symmetry,
        "h_invariance": rep.h_invariance,
        "defects": rep.defects,
        "tolerance_used": args.tol,
    }


def cmd_dyson(args):
    obj = _load_json(args.samples)
    times = _field(obj, "times")
    mats = _field(obj, "matrices")
    if len(times) != len(mats):
        raise MalformedInput(
            f"{len(times)} times for {len(mats)} matrices"
        )
    samples = [
        (float(t), HermitianOperator(_matrix_of(m, "samples"), tol=args.tol))
        for t, m in zip(times, mats)
    ]
    U = dyson_evolve(samples, args.t1, args.t2, args.order, args.hbar)
    series = dyson_series(samples, args.t1, args.t2, args.order, args.hbar)
    return {
        "unitary": U.matrix,
        "unitarity_defect": frobenius(
            U.matrix.conj().T @ U.matrix - np.eye(U.dim)
        ),
        "series_gap": frobenius(U.matrix - series),
        "order": args.order,
        "nodes": len(samples),
        "t1": args.t1,
        "t2": args.t2,
        "tolerance_used": args.tol,
    }


def _ccr_report(n, m, omega, hbar, tol):
    pair = build_truncated_pair(n, m, omega, hbar)
    ground = heisenberg_uncertainty(pair, pair.ground_state())
    first = heisenberg_uncertainty(pair, pair.fock_state(1))
    svn = svn_hypotheses_check([pair.X], [pair.P], tol=tol, hbar=hbar)
    comm = pair.commutator()
    return {
        "n": pair.n,
        "m": pair.m,
        "omega": pair.omega,
        "hbar": pair.hbar,
        "corner_defect": pair.commutator_defect(),
        "expected_corner_defect": pair.hbar * pair.n,
        "commutator_trace": abs(complex(np.trace(comm))),
        "ground_state": ground._asdict(),
        "first_excited": first._asdict(),
        "svn": {
            "ccr_residuals": svn["ccr_residuals"],
            "commutant_dimension": svn["commutant_dimension"],
            "irreducible": svn["irreducible"],
            "minimum_defect_bound": svn["minimum_defect_bound"],
        },
        "tolerance_used": tol,
    }


def cmd_ccr(args):
    return _ccr_report(args.n, args.m, args.omega, args.hbar, args.tol)


def _gns_report(alg, values, tol):
    omega = AlgebraicState(alg, values)
    triple = gns_construct(alg, omega)
    check = verify_gns(triple, alg, omega, tol=max(tol, 1e-9))
    prime = commutant(triple.pi_images, triple.rep_dim)
    return {
        "rep_dim": triple.rep_dim,
        "commutant_dimension": len(prime),
        "pure": len(prime) == 1,
        "verify": check,
        "cyclic_vector_norm": float(np.linalg.norm(triple.cyclic_vector)),
        "tolerance_used": tol,
    }


def cmd_gns(args):
    alg = _algebra_from_json(_load_json(args.algebra))
    values = _complex_array(
        _field(_load_json(args.state), "values"), "values"
    )
    return _gns_report(alg, values, args.tol)


def _demo_c2_distributivity(data, args):
    P1 = Projector(_matrix_of(_field(data, "p1"), "p1"), tol=args.tol)
    P2 = Projector(_matrix_of(_field(data, "p2"), "p2"), tol=args.tol)
    P3 = Projector(_matrix_of(_field(data, "p3"), "p3"), tol=args.tol)
    left = meet(P1, join(P2, P3))
    right = join(meet(P1, P2), meet(P1, P3))
    return {
        "p1": P1.matrix,
        "p2": P2.matrix,
        "p3": P3.matrix,
        "lhs": left.matrix,
        "rhs": right.matrix,
        "lhs_equals_p1_defect": frobenius(left.matrix - P1.matrix),
        "rhs_equals_zero_defect": frobenius(right.matrix),
        "distributive": False,
        "tolerance_used": args.tol,
    }


def _demo_spin_ccr(data, args):
    hbar = float(data.get("hbar", args.hbar))
    S, rep = su2_fixture(hbar)
    quad = rep["quadratic_invariant"]
    expected = rep["expected_invariant_value"]
    return {
        "hbar": hbar,
        "commutator_residuals": rep["commutator_residuals"],
        "spectra": rep["spectra"],
        "group_law_defect": rep["group_law_defect"],
        "quadratic_invariant": quad,
        "invariant_gap": frobenius(quad - expected * np.eye(2)),
        "tolerance_used": args.tol,
    }


def _demo_sectors(data, args):
    return _sectors_report(data, args.tol)


def _demo_gns(data, args):
    alg = _algebra_from_json(_field(data, "algebra"))
    values = _complex_array(_field(_field(data, "state"), "values"), "values")
    return _gns_report(alg, values, args.tol)


def _demo_oscillator(data, args):
    return _ccr_report(
        int(data.get("n", 16)),
        float(data.get("m", 1.0)),
        float(data.get("omega", 1.0)),
        float(data.get("hbar", args.hbar)),
        args.tol,
    )


_DEMOS = {
    "c2-distributivity": _demo_c2_distributivity,
    "spin-ccr": _demo_spin_ccr,
    "electric-charge-sectors": _demo_sectors,
    "gns-m2-pure": _demo_gns,
    "gns-m2-trace": _demo_gns,
    "truncated-oscillator": _demo_oscillator,
}


def cmd_demo(args):
    data = _data_fixture(args.name)
    report = _DEMOS[args.name](data, args)
    report["demo"] = args.name
    return report


HANDLERS = {
    "spectral": cmd_spectral,
    "funcalc": cmd_funcalc,
    "lattice": cmd_lattice,
    "measure": cmd_measure,
    "collapse": cmd_collapse,
    "gleason-fit": cmd_gleason_fit,
    "commutant": cmd_commutant,
    "sectors": cmd_sectors,
    "evolve": cmd_evolve,
    "noether": cmd_noether,
    "dyson": cmd_dyson,
    "ccr": cmd_ccr,
    "gns": cmd_gns,
    "demo": cmd_demo,
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oplattice",
        description="JSON-in, JSON-out desk for the operator-lattice toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default: OPLATTICE_TOL or 1e-10)")
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--out", default=None,
                       help="report path (default: stdout)")

    p = sub.add_parser("spectral")
    common(p)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("funcalc")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--f", choices=sorted(_FUNCTIONS), required=True)
    p.add_argument("--t", type=float, default=1.0)

    for name in ("lattice", "measure", "collapse", "gleason-fit",
                 "commutant", "sectors"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("evolve")
    common(p)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("noether")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--h", required=True)

    p = sub.add_parser("dyson")
    common(p)
    p.add_argument("--samples", required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--order", type=int, default=8)

    p = sub.add_parser("ccr")
    common(p)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)

    p = sub.add_parser("gns")
    common(p)
    p.add_argument("--algebra", required=True)
    p.add_argument("--state", required=True)

    p = sub.add_parser("demo")
    common(p)
    p.add_argument("--name", required=True)

    return parser


def _resolve_tol(args):
    if args.tol is not None:
        return float(args.tol)
    env = os.environ.get("OPLATTICE_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            raise MalformedInput(f"OPLATTICE_TOL={env!r} is not a number")
    return 1e-10


def run(argv) -> int:
    argv = list(argv)
    if not argv:
        print("missing subcommand; known: " + ", ".join(sorted(HANDLERS)),
              file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    head = argv[0]
    if head not in HANDLERS and head not in ("-h", "--help"):
        print(f"unknown subcommand {head!r}; known: "
              + ", ".join(sorted(HANDLERS)), file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        args.tol = _resolve_tol(args)
        if args.tol <= 0:
            raise ValueError(f"tol must be positive, got {args.tol}")
        if args.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {args.hbar}")
        payload = _json(HANDLERS[args.command](args)) + "\n"
    except MalformedInput as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except TOLERANCE_FAILURES as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
