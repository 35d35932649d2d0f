"""Batch front end.

Every subcommand reads JSON, emits exactly one JSON report and exits by a
fixed taxonomy: 0 success, 2 validation error, 3 a `ToleranceFailure` (the
computation ran but a numerical budget failed), 64 unknown subcommand, 65
malformed input. The report layout is a fixed contract, so identical inputs
give identical bytes. One codec writes the reports (`linalg.dumps`: 2-space
indent, sorted keys, ASCII only, NaN/Infinity, [re, im] for a complex
scalar) and reads input matrices, bare or wrapped as `projector_to_json`
writes them (`linalg.matrix_from_json`). `_load_json` reads every input file,
the demo fixtures included, as `json.load` would. `spectral` writes the
`pvm_to_json` layout, which `pvm_from_json` reads back as a measure.

COMMANDS declares each subcommand once, with its handler and its flags.
`demo --name` replays a shipped fixture: `c2-distributivity` and `spin-ccr`
have reports of their own, while `electric-charge-sectors`, `gns-m2-pure`,
`gns-m2-trace` and `truncated-oscillator` run the `sectors`, `gns` and `ccr`
reports on their fixture.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np
import orjson

from .algebras import (
    MatrixStarAlgebra,
    center,
    commutant,
    superselection_sectors,
)
from .dynamics import (
    _evolve,
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
    Projector,
    commutes,
    jauch_meet,
    join,
    meet,
    neg,
)
from .linalg import (
    DEFAULT_TOL,
    PRODUCT_TOL,
    HermitianOperator,
    ToleranceFailure,
    _complex_pairs,
    _pieces,
    frobenius,
    matrix_from_json,
    require_unitary,
)
from .oscillator import (
    build_truncated_pair,
    heisenberg_uncertainty,
    svn_hypotheses_check,
)
from .spectral import (
    func_calculus,
    pvm_residuals,
    pvm_to_json,
    spectral_decompose,
)
from .states import (
    DensityState,
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


class MalformedInput(ValueError):
    pass


# digits as 0, the decimal point kept, any other byte a space
_NUMERALS = bytes(48 if 48 <= c < 58 else c if c == 46 else 32
                  for c in range(256))
_BRACKETS = bytes.maketrans(b"{}", b"[]")
# the ASCII bytes but brackets, quotes and backslash
_PLAIN = bytes(set(range(128)).difference(b'[]{}"\\'))


def _orjson_reads_as_json(raw):
    """Whether orjson.loads(raw), where it succeeds, is json.load's reading
    of the file in text mode: ASCII (no locale decoding), no escape, no run
    of 19 or more digits but after a decimal point (orjson reads an integer
    beyond 64 bits as a float) and at most 63 levels of nesting (json
    recurses once per level up to the recursion limit, orjson without one)."""
    numerals = raw.translate(_NUMERALS)
    if numerals.startswith(b"0" * 19) or b" " + b"0" * 19 in numerals:
        return False
    marks = raw.translate(_BRACKETS, _PLAIN)
    if not marks.isascii() or b"\\" in marks:
        return False
    marks = b"".join(marks.split(b'"')[::2])  # the brackets outside strings
    for _ in range(63):  # each round takes off one level
        marks = marks.replace(b"[]", b"")
    return not marks


def _load_json(path):
    """The JSON document at path as json.load reads the file in text mode,
    decoded by orjson where it reads it alike, by json (NaN, 1e999) else."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if _orjson_reads_as_json(raw):
            try:
                return orjson.loads(raw)
            except orjson.JSONDecodeError:
                pass
        return json.loads(io.TextIOWrapper(io.BytesIO(raw)).read())
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path}: invalid JSON ({exc})")
    except OSError as exc:
        raise MalformedInput(f"{path}: {exc}")


def _complex_array(data, what):
    try:
        return _complex_pairs(data)
    except ValueError as exc:
        raise MalformedInput(f"{what}: {exc}")


def _matrix_of(obj, what):
    try:
        return matrix_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{what}: {exc}")


def _field(obj, key, kind=object):
    """obj[key] of the JSON type kind: list, int or (int, float); no bool."""
    try:
        value = obj[key]
    except (KeyError, TypeError):
        raise MalformedInput(f"missing field {key!r}")
    if not isinstance(value, kind) or kind != object and type(value) is bool:
        raise MalformedInput(f"field {key!r} has type {type(value).__name__}")
    return value


def _admit(kind, obj, key, tol):
    """The matrix at obj[key], admitted as kind at tol."""
    return kind(_matrix_of(_field(obj, key), key), tol=tol)


def _operator(path, tol):
    """The matrix in the JSON file at path, admitted as Hermitian at tol."""
    return HermitianOperator(_matrix_of(_load_json(path), path), tol=tol)


# --- handlers ---------------------------------------------------------------

def cmd_spectral(args):
    A = _operator(args.infile, args.tol)
    pvm = spectral_decompose(A)
    rebuilt = func_calculus(pvm, lambda x: x)
    return {**pvm_to_json(pvm), "residuals": pvm_residuals(pvm),
            "reconstruction_residual": frobenius(rebuilt - A.matrix)}


_FUNCTIONS = {
    "identity": lambda x, t: x,
    "square": lambda x, t: x * x,
    "abs": lambda x, t: abs(x),
    "exp-it": lambda x, t: np.exp(-1j * t * x),
}


def cmd_funcalc(args):
    pvm = spectral_decompose(_operator(args.infile, args.tol))
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
    }


def cmd_lattice(args):
    obj = _load_json(args.infile)
    P = _admit(Projector, obj, "p", args.tol)
    Q = _admit(Projector, obj, "q", args.tol)
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
    }


def cmd_measure(args):
    obj = _load_json(args.infile)
    rho = _admit(DensityState, obj, "state", args.tol)
    if "chain" in obj:
        chain = [Projector(_matrix_of(m, "chain"), tol=args.tol)
                 for m in _field(obj, "chain", list)]
        seq = sequential_probability(rho, chain)
        return {
            "value": seq.value,
            "reversed_value": seq.reversed_value,
            "chain_length": len(chain),
        }
    P = _admit(Projector, obj, "projector", args.tol)
    return {"probability": born_probability(rho, P, tol=args.tol)}


def cmd_collapse(args):
    obj = _load_json(args.infile)
    rho = _admit(DensityState, obj, "state", args.tol)
    P = _admit(Projector, obj, "projector", args.tol)
    p = born_probability(rho, P, tol=args.tol)
    post = luders_collapse(rho, P)
    return {
        "probability": p,
        "post_state": post.matrix,
        "post_purity": purity(post),
    }


def cmd_gleason_fit(args):
    rows = _field(_load_json(args.infile), "assignments", list)
    pairs = [(_admit(Projector, row, "projector", args.tol),
              float(_field(row, "probability", (int, float)))) for row in rows]
    fit = gleason_fit(pairs)
    return {
        "state": fit.state.matrix,
        "residual": fit.residual,
        "frame_rank": fit.frame_rank,
        "dim_two_warning": fit.dim_two_warning,
        "assignments": len(pairs),
    }


def cmd_commutant(args):
    obj = _load_json(args.infile)
    gens = [_matrix_of(m, "generators")
            for m in _field(obj, "generators", list)]
    dim = _field(obj, "dim", int) if "dim" in obj else None
    alg = MatrixStarAlgebra.generated_by(gens, dim)
    centre = center(alg)
    return {
        "commutant_dimension": len(alg._prime),
        "double_commutant_dimension": alg.linear_dimension(),
        "center_dimension": len(centre),
        "is_factor": len(centre) == 1,
    }


def _sectors_report(obj, tol):
    charges = [_matrix_of(m, "charges") for m in _field(obj, "charges", list)]
    observables = [_matrix_of(m, "observables")
                   for m in _field(obj, "observables", list)]
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
    }


def cmd_sectors(args):
    return _sectors_report(_load_json(args.infile), args.tol)


def cmd_evolve(args):
    H = _operator(args.hamiltonian, args.tol)
    U, half = require_unitary(
        _evolve([H], [[args.t, args.t / 2.0]], args.hbar))
    return {
        "unitary": U,
        "unitarity_defect": frobenius(U.conj().T @ U - np.eye(len(U))),
        "group_law_defect": frobenius(half @ half - U),
        "t": args.t,
        "hbar": args.hbar,
    }


def cmd_noether(args):
    A, H = _operator(args.a, args.tol), _operator(args.h, args.tol)
    rep = noether_check(A, H, tol=args.tol, hbar=args.hbar)
    return {
        "constant_of_motion": rep.constant_of_motion,
        "dynamical_symmetry": rep.dynamical_symmetry,
        "h_invariance": rep.h_invariance,
        "defects": rep.defects,
    }


def cmd_dyson(args):
    obj = _load_json(args.samples)
    times = _field(obj, "times", list)
    mats = _field(obj, "matrices", list)
    if len(times) != len(mats):
        raise MalformedInput(f"{len(times)} times for {len(mats)} matrices")
    samples = [(float(_field(times, a, (int, float))),
                HermitianOperator(_matrix_of(m, "samples"), tol=args.tol))
               for a, m in enumerate(mats)]
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
    }


def _ccr_report(obj, tol):
    pair = build_truncated_pair(
        *(_field(obj, k) for k in ("n", "m", "omega", "hbar")))
    ground = heisenberg_uncertainty(pair, pair.ground_state())
    first = heisenberg_uncertainty(pair, pair.fock_state(1))
    svn = svn_hypotheses_check([pair.X], [pair.P], hbar=pair.hbar)
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
    }


def cmd_ccr(args):
    return _ccr_report(vars(args), args.tol)


def _gns_report(obj, tol):
    """The report on {"algebra": {"mult", "invol", "unit"}, "state":
    {"values"}}, each a nested list of [re, im] pairs."""
    alg = _field(obj, "algebra")
    alg = AbstractStarAlgebra(*(_complex_array(_field(alg, k), k)
                                for k in ("mult", "invol", "unit")))
    values = _complex_array(_field(_field(obj, "state"), "values"), "values")
    omega = AlgebraicState(alg, values)
    triple = gns_construct(alg, omega)
    check = verify_gns(triple, alg, omega, tol=max(tol, PRODUCT_TOL))
    prime = commutant(triple.pi_images, triple.rep_dim)
    return {
        "rep_dim": triple.rep_dim,
        "commutant_dimension": len(prime),
        "pure": len(prime) == 1,
        "verify": check,
        "cyclic_vector_norm": float(np.linalg.norm(triple.cyclic_vector)),
    }


def cmd_gns(args):
    return _gns_report({"algebra": _load_json(args.algebra),
                        "state": _load_json(args.state)}, args.tol)


def _c2_distributivity_report(data, tol):
    P1, P2, P3 = (_admit(Projector, data, k, tol) for k in ("p1", "p2", "p3"))
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
    }


def _spin_ccr_report(data, tol):
    hbar = float(data.get("hbar", 1.0))
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
    }


# each shipped fixture, src/oplattice/data/<name>.json, and its report
_DEMOS = {
    "c2-distributivity": _c2_distributivity_report,
    "spin-ccr": _spin_ccr_report,
    "electric-charge-sectors": _sectors_report,
    "gns-m2-pure": _gns_report,
    "gns-m2-trace": _gns_report,
    "truncated-oscillator": _ccr_report,
}


def cmd_demo(args):
    if args.name not in _DEMOS:
        raise ValueError(f"unknown demo {args.name!r}; "
                         f"shipped: {', '.join(sorted(_DEMOS))}")
    path = resources.files("oplattice") / "data" / f"{args.name}.json"
    report = _DEMOS[args.name](_load_json(path), args.tol)
    return dict(report, demo=args.name)


# --- subcommands ------------------------------------------------------------

_IN = {"--in": dict(dest="infile", required=True)}
_HBAR = {"--hbar": dict(type=float, default=1.0)}

# Each subcommand: its handler and the flags it takes beside --tol and
# --out. --hbar goes only where a handler reads it.
COMMANDS = {
    "spectral": (cmd_spectral, _IN),
    "funcalc": (cmd_funcalc, {
        **_IN, "--f": dict(choices=sorted(_FUNCTIONS), required=True),
        "--t": dict(type=float, default=1.0)}),
    "lattice": (cmd_lattice, _IN),
    "measure": (cmd_measure, _IN),
    "collapse": (cmd_collapse, _IN),
    "gleason-fit": (cmd_gleason_fit, _IN),
    "commutant": (cmd_commutant, _IN),
    "sectors": (cmd_sectors, _IN),
    "evolve": (cmd_evolve, {
        **_HBAR, "--hamiltonian": dict(required=True),
        "--t": dict(type=float, required=True)}),
    "noether": (cmd_noether, {
        **_HBAR, "--a": dict(required=True), "--h": dict(required=True)}),
    "dyson": (cmd_dyson, {
        **_HBAR, "--samples": dict(required=True),
        "--t1": dict(type=float, required=True),
        "--t2": dict(type=float, required=True),
        "--order": dict(type=int, default=8)}),
    "ccr": (cmd_ccr, {
        **_HBAR, "--n": dict(type=int, default=16),
        "--m": dict(type=float, default=1.0),
        "--omega": dict(type=float, default=1.0)}),
    "gns": (cmd_gns, {"--algebra": dict(required=True),
                      "--state": dict(required=True)}),
    "demo": (cmd_demo, {"--name": dict(required=True)}),
}

# each report carries the tolerance the run used
HANDLERS = {name: lambda args, handler=handler: dict(handler(args),
                                                     tolerance_used=args.tol)
            for name, (handler, _) in COMMANDS.items()}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oplattice",
        description="JSON-in, JSON-out desk for the operator-lattice toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument(
            "--tol", type=float, default=None,
            help=f"tolerance (default: OPLATTICE_TOL or {DEFAULT_TOL})")
        p.add_argument("--out", default=None,
                       help="report path (default: stdout)")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
    return parser


def _finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _resolve_tol(args):
    if args.tol is not None:
        return args.tol
    env = os.environ.get("OPLATTICE_TOL")
    if not env:
        return DEFAULT_TOL
    try:
        tol = float(env)
    except ValueError:
        raise MalformedInput(f"OPLATTICE_TOL={env!r} is not a number")
    return _finite("OPLATTICE_TOL", tol)


def run(argv) -> int:
    argv = list(argv)
    if not argv or argv[0] not in (*COMMANDS, "-h", "--help"):
        what = (f"unknown subcommand {argv[0]!r}" if argv
                else "missing subcommand")
        print(f"{what}; known: " + ", ".join(sorted(COMMANDS)),
              file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        args.tol = _resolve_tol(args)
        for dest, value in vars(args).items():  # every float flag
            if isinstance(value, float):
                _finite(f"--{dest}", value)
            if dest in ("tol", "hbar") and value <= 0:
                raise ValueError(f"{dest} must be positive, got {value}")
        pieces = _pieces(HANDLERS[args.command](args)) + ["\n"]
    except MalformedInput as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.out:  # dumps' texts one by one: the report is never joined
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return EXIT_OK


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
