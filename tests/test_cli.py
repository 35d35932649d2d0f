"""Command-line surface: JSON in, JSON out, exit-code taxonomy."""

import contextlib
import io
import json
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oplattice
import oplattice.spectral
from oplattice import (
    DensityState,
    HermitianOperator,
    NotHermitian,
    ToleranceFailure,
    cli,
    dumps,
)
from oplattice.cli import run

from oracles import expm_oracle, report_json_reference

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def write_json(path, obj):
    path.write_text(dumps(obj))
    return str(path)


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = run(argv + ["--out", str(out)])
    assert code == 0, f"exit {code} for {argv}"
    return json.loads(out.read_text())


def complexify(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def test_unknown_and_missing_subcommands_exit_64(capsys):
    assert run(["definitely-not-a-command"]) == 64
    assert run([]) == 64
    capsys.readouterr()


def test_malformed_json_exits_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["spectral", "--in", str(bad)]) == 65
    missing = tmp_path / "gone.json"
    assert run(["spectral", "--in", str(missing)]) == 65
    # well-formed JSON with a missing required field
    empty = write_json(tmp_path / "empty.json", {})
    assert run(["lattice", "--in", empty]) == 65
    capsys.readouterr()


def test_input_nested_past_json_recursion_limit_exits_65(tmp_path, capsys):
    """json gives up about 1,000 levels down with a RecursionError: that is
    malformed input, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text('{"rows": 1, "cols": 1, "data": '
                    + "[" * 2000 + "]" * 2000 + "}")
    assert run(["spectral", "--in", str(deep)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err


def test_input_that_does_not_decode_exits_65(tmp_path, capsys):
    """A byte that is not UTF-8 is malformed input, not a validation error."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"\xff": 1}')
    assert run(["spectral", "--in", str(bad)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err


def test_validation_failures_exit_2(tmp_path, capsys):
    skew = write_json(tmp_path / "h.json", SZ + 1j * SX)
    assert run(["spectral", "--in",skew]) == 2
    good = write_json(tmp_path / "g.json", SZ)
    assert run(["evolve", "--hamiltonian", good, "--t", "1.0",
                "--hbar", "-1.0"]) == 2
    assert run(["demo", "--name", "no-such-demo"]) == 2
    capsys.readouterr()


def test_hermiticity_gate_sees_past_norm_overflow(tmp_path, capsys):
    # ||M - M*||_F and tol * ||M||_F both overflow to inf on these; the
    # second is the maximally mixed state plus a huge anti-Hermitian part
    for M in ([[1e308, 1e308], [0.0, 1e308]], [[0.5, 1e308], [-1e308, 0.5]]):
        for cls in (HermitianOperator, DensityState):
            with pytest.raises(NotHermitian):
                cls(np.array(M))
    infile = write_json(tmp_path / "h.json",
                        np.array([[1e308, 1e308], [0.0, 1e308]]))
    assert run(["spectral", "--in", infile]) == 2
    capsys.readouterr()


def test_removed_seed_and_report_flags_are_refused(tmp_path, capsys):
    infile = write_json(tmp_path / "sz.json", SZ)
    assert run(["spectral", "--in", infile, "--seed", "1"]) == 2
    assert run(["ccr", "--n", "4", "--report",
                str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_funcalc_refuses_an_infinite_function_value(tmp_path, capsys):
    infile = write_json(tmp_path / "big.json",
                        np.diag([1e200, 1.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["funcalc", "--in", infile, "--f", "square"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: f(1e+200)")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # ||A||_F
def test_spectral_on_finite_input_near_overflow(tmp_path):
    big = np.array([[-0.0, 1e-300], [1e-300, 1e308]])
    infile = write_json(tmp_path / "big.json", big)
    rep = run_json(tmp_path, ["spectral", "--in", infile])
    assert [a["label"] for a in rep["atoms"]] == [[0.0], [1e308]]


def test_tolerance_failures_exit_3(tmp_path, capsys):
    fixture = write_json(tmp_path / "c.json", {
        "state": np.diag([1.0, 0.0]).astype(complex),
        "projector": np.diag([0.0, 1.0]).astype(complex),
    })
    assert run(["collapse", "--in", fixture]) == 3
    capsys.readouterr()


_TOLERANCE_FAILURES = {
    "MaxIterExceeded", "ConvergenceFailure", "InconsistentGroup", "BranchCut",
    "NotHermitianResult", "EquivalenceViolation", "NotACocycle",
    "InconsistentAssignments", "WitnessNotFound", "ZeroProbability",
    "TailTooLarge"}
_EXPORTED_ERRORS = [value for value in vars(oplattice).values()
                    if isinstance(value, type)
                    and issubclass(value, Exception)]


def test_tolerance_failures_are_exactly_the_numerical_budget_errors():
    marked = {cls.__name__ for cls in _EXPORTED_ERRORS
              if issubclass(cls, ToleranceFailure)
              and cls is not ToleranceFailure}
    assert marked == _TOLERANCE_FAILURES
    for cls in _EXPORTED_ERRORS:
        if cls.__name__ in _TOLERANCE_FAILURES:
            assert issubclass(cls, (ValueError, RuntimeError)), cls


@pytest.mark.parametrize("name, code", [
    *((name, 3) for name in sorted(_TOLERANCE_FAILURES)),
    ("NotHermitian", 2), ("NotProjector", 2), ("NotClosedUnderProducts", 2),
    ("DimensionMismatch", 2)])
def test_each_exception_class_exits_by_the_taxonomy(monkeypatch, capsys,
                                                    name, code):
    cls = getattr(oplattice, name)

    def failing(args):
        raise cls.__new__(cls)

    monkeypatch.setitem(cli.HANDLERS, "ccr", failing)
    assert run(["ccr"]) == code
    prefix = "tolerance failure: " if code == 3 else "error: "
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["--tol", "OPLATTICE_TOL", "--hbar"])
def test_non_finite_tolerance_or_hbar_exits_2_naming_it(tmp_path, monkeypatch,
                                                        capsys, source, value):
    """diag(1, 0.3) is no projector; a tolerance of inf used to admit it."""
    fixture = write_json(tmp_path / "m.json", {
        "state": np.diag([1.0, 0.0]),
        "projector": np.diag([1.0, 0.3])})
    argv = ["measure", "--in", fixture]
    if source == "OPLATTICE_TOL":
        monkeypatch.setenv(source, value)
    else:
        monkeypatch.delenv("OPLATTICE_TOL", raising=False)
        if source == "--hbar":
            argv = ["evolve", "--hamiltonian",
                    write_json(tmp_path / "h.json", SZ),
                    "--t", "1.0"]
        argv.append(f"{source}={value}")
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {source} must be finite, got {float(value)}\n")


# each command's input flag, an input whose fields have the right JSON types,
# and its required flags; a flag given again later overrides them
_VALID_RUN = {
    "measure": ("--in", {"state": np.diag([1.0, 0.0]),
                         "projector": np.diag([1.0, 0.0])}, []),
    "gleason-fit": ("--in", {"assignments": [
        {"projector": np.diag([1.0, 0.0]), "probability": 1.0}]}, []),
    "commutant": ("--in", {"generators": [SZ]}, []),
    "sectors": ("--in", {"charges": [SZ], "observables": [SZ]}, []),
    "dyson": ("--samples", {"times": list(np.linspace(0.0, 1.0, 9)),
                            "matrices": [SZ] * 9},
              ["--t1", "0.0", "--t2", "1.0"]),
    "evolve": ("--hamiltonian", SZ, ["--t", "1.0"]),
    "funcalc": ("--in", SZ, ["--f", "square"]),
    "ccr": (None, None, []),
}


@pytest.mark.parametrize("command, fields, flags, code, said", [
    ("measure", {"chain": 5}, [], 65, "malformed input: "),
    ("gleason-fit", {"assignments": 3}, [], 65, "malformed input: "),
    ("gleason-fit", {"assignments": [{"projector": np.diag([1.0, 0.0]),
                                      "probability": [1]}]},
     [], 65, "malformed input: "),
    ("commutant", {"generators": 3}, [], 65, "malformed input: "),
    ("sectors", {"charges": 1}, [], 65, "malformed input: "),
    ("dyson", {"times": 1}, [], 65, "malformed input: "),
    ("dyson", {"times": [0.0] * 8 + [[1.0]]}, [], 65, "malformed input: "),
    ("evolve", None, ["--t", "nan"], 2, "--t must be finite"),
    ("evolve", None, ["--t", "inf"], 2, "--t must be finite"),
    ("dyson", None, ["--t1", "nan"], 2, "--t1 must be finite"),
    ("dyson", None, ["--t2=-inf"], 2, "--t2 must be finite"),
    ("funcalc", None, ["--t", "nan"], 2, "--t must be finite"),
    ("ccr", None, ["--m", "nan"], 2, "--m must be finite"),
    ("ccr", None, ["--omega", "inf"], 2, "--omega must be finite"),
    ("commutant", {"dim": "x"}, [], 65, "malformed input: "),
    ("commutant", {"dim": [2]}, [], 65, "malformed input: "),
    ("commutant", {"dim": 2.5}, [], 65, "malformed input: "),
    ("commutant", {"dim": True}, [], 65, "malformed input: "),
    ("commutant", {"dim": 3}, [], 2, "dimensions differ"),
    ("gleason-fit", {"assignments": [{"projector": np.diag([1.0, 0.0]),
                                      "probability": True}]},
     [], 65, "malformed input: "),
])
def test_wrong_json_types_and_non_finite_flags_exit_by_the_taxonomy(
        tmp_path, capsys, command, fields, flags, code, said):
    """A JSON field of the wrong type is malformed input (65), not a
    TypeError out of run(); a float flag that is not finite is refused
    naming it (2), before any computation warns or fails on it."""
    flag, valid, required = _VALID_RUN[command]
    argv = [command, *required, *flags]
    if flag:
        obj = {**valid, **fields} if fields else valid
        argv += [flag, write_json(tmp_path / "in.json", obj)]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert said in err and "Traceback" not in err


@pytest.mark.parametrize("matrix", [
    '{"rows": 2, "cols": 2, "data": [[true, false], [false, false], '
    '[false, false], [true, false]]}',
    '{"rows": 1, "cols": 1, "data": [[true, 0.5]]}',
    '{"rows": 1, "cols": 1, "data": [[100000000000000000000, true]]}',
    '{"rows": true, "cols": 1, "data": [[1.0, 0.0]]}',
    '{"rows": 1.5, "cols": 1, "data": [[1.0, 0.0]]}',
    '{"rows": 1, "cols": "1", "data": [[1.0, 0.0]]}',
], ids=["booleans", "boolean-among-floats", "boolean-beside-a-big-integer",
        "rows-true", "rows-float", "cols-string"])
def test_matrix_of_the_wrong_json_types_exits_65(tmp_path, capsys, matrix):
    """numpy reads a JSON boolean as a number and int() a float or a string
    as a dimension: the decoder refuses each as malformed input."""
    infile = tmp_path / "h.json"
    infile.write_text(matrix)
    assert run(["spectral", "--in", str(infile)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "Traceback" not in err


def test_spectral_report_on_sigma_z(tmp_path):
    infile = write_json(tmp_path / "sz.json", SZ)
    rep = run_json(tmp_path, ["spectral", "--in", infile])
    assert rep["dim"] == 2
    assert [a["label"] for a in rep["atoms"]] == [[-1.0], [1.0]]
    assert rep["reconstruction_residual"] <= 1e-12
    assert max(rep["residuals"].values()) <= 1e-12


def test_funcalc_square_gives_identity(tmp_path):
    infile = write_json(tmp_path / "sz.json", SZ)
    rep = run_json(tmp_path, ["funcalc", "--in", infile, "--f", "square"])
    got = complexify(rep["matrix"]["data"]).reshape(2, 2)
    np.testing.assert_allclose(got, np.eye(2), atol=1e-12)


def test_evolve_matches_exponential_oracle(tmp_path):
    infile = write_json(tmp_path / "h.json", SX)
    rep = run_json(tmp_path, ["evolve", "--hamiltonian", infile,
                              "--t", "0.7"])
    got = complexify(rep["matrix" if "matrix" in rep else "unitary"]["data"])
    got = got.reshape(2, 2)
    assert np.abs(got - expm_oracle(-0.7j * SX)).max() <= 1e-10
    assert rep["unitarity_defect"] <= 1e-12
    assert rep["group_law_defect"] <= 1e-12


def test_lattice_report_for_commuting_pair(tmp_path):
    e = np.eye(3, dtype=complex)
    obj = {
        "p": np.diag([1.0, 1.0, 0.0]).astype(complex),
        "q": np.diag([0.0, 1.0, 1.0]).astype(complex),
    }
    infile = write_json(tmp_path / "pq.json", obj)
    rep = run_json(tmp_path, ["lattice", "--in", infile])
    assert rep["commutes"] is True
    meet_mat = complexify(rep["meet"]["data"]).reshape(3, 3)
    np.testing.assert_allclose(meet_mat, np.diag([0.0, 1.0, 0.0]), atol=1e-10)
    assert rep["jauch_gap"] <= 1e-7


def test_lattice_keeps_the_tolerance_it_admitted_at(tmp_path, capsys):
    """P is 1e-8 off a projector along e1, orthogonal to P ^ Q = span(e0):
    refused at the default tol, and at --tol 1e-6 admitted once, its
    orthocomplement and meet included."""
    v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    obj = {
        "p": np.diag([1.0, 1.0 + 1e-8, 0.0]),
        "q": np.diag([1.0, 0.0, 0.0]) + np.outer(v, v),
    }
    infile = write_json(tmp_path / "pq.json", obj)
    assert run(["lattice", "--in", infile]) == 2
    capsys.readouterr()
    rep = run_json(tmp_path, ["lattice", "--in", infile, "--tol", "1e-6"])
    assert rep["commutes"] is False
    meet_mat = complexify(rep["meet"]["data"]).reshape(3, 3)
    np.testing.assert_allclose(meet_mat, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert rep["jauch_gap"] <= 1e-5


def test_measurement_chain_orders_differ(tmp_path):
    obj = {
        "state": np.diag([1.0, 0.0]).astype(complex),
        "chain": [np.full((2, 2), 0.5).astype(complex),
                  np.diag([1.0, 0.0]).astype(complex)],
    }
    infile = write_json(tmp_path / "chain.json", obj)
    rep = run_json(tmp_path, ["measure", "--in", infile])
    assert abs(rep["value"] - 0.25) <= 1e-12
    assert abs(rep["reversed_value"] - 0.5) <= 1e-12
    assert rep["chain_length"] == 2


def test_single_projector_measurement(tmp_path):
    obj = {
        "state": np.diag([1.0, 0.0]).astype(complex),
        "projector": np.full((2, 2), 0.5).astype(complex),
    }
    infile = write_json(tmp_path / "m.json", obj)
    rep = run_json(tmp_path, ["measure", "--in", infile])
    assert abs(rep["probability"] - 0.5) <= 1e-12


def test_collapse_report(tmp_path):
    obj = {
        "state": np.diag([1.0, 0.0]).astype(complex),
        "projector": np.full((2, 2), 0.5).astype(complex),
    }
    infile = write_json(tmp_path / "c.json", obj)
    rep = run_json(tmp_path, ["collapse", "--in", infile])
    assert abs(rep["probability"] - 0.5) <= 1e-12
    assert abs(rep["post_purity"] - 1.0) <= 1e-12
    post = complexify(rep["post_state"]["data"]).reshape(2, 2)
    np.testing.assert_allclose(post, np.full((2, 2), 0.5), atol=1e-12)


def test_gleason_fit_roundtrip_through_cli(tmp_path):
    from oplattice import DensityState, born_probability, tomography_frame
    rho = DensityState(np.diag([0.5, 0.3, 0.2]))
    rows = [{"projector": P.matrix,
             "probability": born_probability(rho, P)}
            for P in tomography_frame(3)]
    infile = write_json(tmp_path / "fit.json", {"assignments": rows})
    rep = run_json(tmp_path, ["gleason-fit", "--in", infile])
    got = complexify(rep["state"]["data"]).reshape(3, 3)
    np.testing.assert_allclose(got, rho.matrix, atol=1e-8)
    assert rep["frame_rank"] == 9
    assert rep["residual"] <= 1e-10
    assert rep["dim_two_warning"] is False


def test_commutant_dimensions_for_pauli_generators(tmp_path):
    obj = {"generators": [SX, SZ]}
    infile = write_json(tmp_path / "gens.json", obj)
    rep = run_json(tmp_path, ["commutant", "--in", infile])
    assert rep["commutant_dimension"] == 1
    assert rep["double_commutant_dimension"] == 4
    assert rep["center_dimension"] == 1
    assert rep["is_factor"] is True
    obj["dim"] = 2
    infile = write_json(tmp_path / "gens.json", obj)
    assert run_json(tmp_path, ["commutant", "--in", infile]) == rep


def test_sectors_through_input_file(tmp_path):
    I2 = np.eye(2, dtype=complex)
    obj = {
        "charges": [np.kron(I2, SZ)],
        "observables": [np.kron(SX, I2),
                        np.kron(SZ, I2),
                        np.kron(I2, SZ)],
    }
    infile = write_json(tmp_path / "sec.json", obj)
    rep = run_json(tmp_path, ["sectors", "--in", infile])
    assert len(rep["sectors"]) == 2
    assert {s["rank"] for s in rep["sectors"]} == {2}
    assert all(s["irreducible"] for s in rep["sectors"])
    assert rep["offdiagonal_defect"] <= 1e-12


def test_noether_flags_through_cli(tmp_path):
    h = write_json(tmp_path / "h.json", SZ)
    a = write_json(tmp_path / "a.json", SZ @ SZ + SZ)
    rep = run_json(tmp_path, ["noether", "--a", a, "--h", h])
    assert rep["constant_of_motion"] and rep["dynamical_symmetry"]
    assert rep["h_invariance"]
    a2 = write_json(tmp_path / "a2.json", SX)
    rep = run_json(tmp_path, ["noether", "--a", a2, "--h", h])
    assert not rep["constant_of_motion"]


def test_dyson_through_cli(tmp_path):
    taus = np.linspace(0.0, 1.0, 201)
    obj = {
        "times": list(taus),
        "matrices": [(1 + t * t / 2) * SZ for t in taus],
    }
    infile = write_json(tmp_path / "samples.json", obj)
    rep = run_json(tmp_path, ["dyson", "--samples", infile,
                              "--t1", "0.0", "--t2", "1.0"])
    got = complexify(rep["unitary"]["data"]).reshape(2, 2)
    ref = expm_oracle(-7j / 6 * SZ)
    assert np.abs(got - ref).max() <= 1e-5
    assert rep["unitarity_defect"] <= 1e-12
    assert rep["series_gap"] <= 1e-3
    assert rep["nodes"] == 201


def test_ccr_report_defaults(tmp_path):
    rep = run_json(tmp_path, ["ccr", "--n", "6"])
    assert rep["n"] == 6
    assert abs(rep["corner_defect"] - 6.0) <= 1e-10
    assert rep["expected_corner_defect"] == 6.0
    assert rep["commutator_trace"] <= 1e-12
    assert abs(rep["ground_state"]["product"] - 0.5) <= 1e-10
    assert abs(rep["first_excited"]["product"] - 1.5) <= 1e-10
    assert rep["svn"]["irreducible"] is True
    assert rep["svn"]["commutant_dimension"] == 1


def test_gns_through_cli_files(tmp_path):
    basis = [np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)]
    mult = np.zeros((2, 2, 2))
    mult[0, 0, 0] = 1.0
    mult[1, 1, 1] = 1.0
    pairs = lambda arr: np.stack([arr, np.zeros_like(arr)], axis=-1).tolist()
    alg_obj = {
        "mult": pairs(mult),
        "invol": pairs(np.eye(2)),
        "unit": pairs(np.array([1.0, 1.0])),
    }
    alg_file = write_json(tmp_path / "alg.json", alg_obj)
    state_file = write_json(tmp_path / "state.json",
                            {"values": pairs(np.array([0.3, 0.7]))})
    rep = run_json(tmp_path, ["gns", "--algebra", alg_file,
                              "--state", state_file])
    assert rep["rep_dim"] == 2
    assert rep["commutant_dimension"] == 2
    assert rep["pure"] is False
    assert rep["verify"]["ok"] is True


def test_pair_reader_keeps_signed_zeros():
    z = cli._complex_array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]], "z")
    assert np.signbit(z.real).tolist() == [True, False, True]
    assert np.signbit(z.imag).tolist() == [True, True, False]
    with pytest.raises(cli.MalformedInput):
        cli._complex_array([[1.0, 2.0, 3.0]], "z")
    with pytest.raises(cli.MalformedInput):
        cli._complex_array([["1.0", "2.0"]], "z")
    big = cli._complex_array(json.loads("[[100000000000000000000, 0]]"), "z")
    assert big.tolist() == [1e20 + 0j]


def test_hbar_is_declared_only_where_it_is_read(tmp_path, capsys):
    sz = write_json(tmp_path / "sz.json", SZ)
    for argv in (["spectral", "--in", sz], ["funcalc", "--in", sz, "--f",
                                            "square"],
                 *([name, "--in", sz] for name in (
                     "lattice", "measure", "collapse", "gleason-fit",
                     "commutant", "sectors")),
                 ["gns", "--algebra", sz, "--state", sz]):
        assert run(argv + ["--hbar", "2.0"]) == 2, argv
    assert run(["demo", "--name", "spin-ccr", "--hbar", "2.0"]) == 2
    out = str(tmp_path / "out.json")
    assert run(["noether", "--a", sz, "--h", sz, "--hbar", "2.0",
                "--out", out]) == 0
    rep = run_json(tmp_path, ["ccr", "--n", "4", "--hbar", "2.0"])
    assert rep["hbar"] == 2.0
    capsys.readouterr()


def test_all_demos_run_clean(tmp_path, capsys):
    for name in ("c2-distributivity", "spin-ccr", "electric-charge-sectors",
                 "gns-m2-pure", "gns-m2-trace", "truncated-oscillator"):
        assert run(["demo", "--name", name]) == 0, name
    capsys.readouterr()


def test_demo_output_is_deterministic(tmp_path):
    """Every shipped demo, then spectral, evolve, lattice and noether on a
    seeded input, run twice over in one process, write the same bytes."""
    rng = np.random.default_rng(83)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = (z + z.conj().T) / 2
    q, _ = np.linalg.qr(z)
    P = q[:, :3] @ q[:, :3].conj().T
    v = np.column_stack([q[:, 0], (q[:, 1] + q[:, 4]) / np.sqrt(2)])
    h = write_json(tmp_path / "h.json", H)
    a = write_json(tmp_path / "a.json", H @ H - H)
    pq = write_json(tmp_path / "pq.json", {"p": P,
                                           "q": v @ v.conj().T})
    commands = [["demo", "--name", name] for name in sorted(cli._DEMOS)] + [
        ["spectral", "--in", h], ["evolve", "--hamiltonian", h, "--t", "0.7"],
        ["lattice", "--in", pq], ["noether", "--a", a, "--h", h]]
    passes = []
    for _ in range(2):
        reports = []
        for argv in commands:
            out = tmp_path / "out.json"
            assert run(argv + ["--out", str(out)]) == 0, argv
            reports.append(out.read_bytes())
        passes.append(reports)
    for argv, first, second in zip(commands, *passes):
        assert first == second, argv


def test_tolerance_resolution_env_and_flag(tmp_path, monkeypatch):
    infile = write_json(tmp_path / "sz.json", SZ)
    rep = run_json(tmp_path, ["spectral", "--in", infile])
    assert rep["tolerance_used"] == 1e-10
    monkeypatch.setenv("OPLATTICE_TOL", "1e-6")
    rep = run_json(tmp_path, ["spectral", "--in", infile])
    assert rep["tolerance_used"] == 1e-6
    rep = run_json(tmp_path, ["spectral", "--in", infile, "--tol", "1e-8"])
    assert rep["tolerance_used"] == 1e-8
    monkeypatch.setenv("OPLATTICE_TOL", "not-a-number")
    assert run(["spectral", "--in", infile]) == 65


def test_stdout_when_no_out_path(tmp_path, capsys):
    infile = write_json(tmp_path / "sz.json", SZ)
    assert run(["spectral", "--in", infile]) == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["dim"] == 2


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.delenv("OPLATTICE_TOL", raising=False)
    assert cli._build_parser() is cli._build_parser()
    sz = write_json(tmp_path / "sz.json", SZ)
    first = tmp_path / "first.json"
    assert run(["spectral", "--in", sz, "--tol", "1e-8",
                "--out", str(first)]) == 0
    assert json.loads(first.read_text())["tolerance_used"] == 1e-8
    first.unlink()
    rep = run_json(tmp_path, ["funcalc", "--in", sz, "--f", "square"])
    assert rep["tolerance_used"] == 1e-10 and rep["t"] == 1.0
    assert run(["spectral", "--in", sz]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance_used"] == 1e-10
    assert not first.exists()
    rep = run_json(tmp_path, ["evolve", "--hamiltonian", sz, "--t", "0.5",
                              "--hbar", "2.0", "--tol", "1e-9"])
    assert (rep["hbar"], rep["tolerance_used"]) == (2.0, 1e-9)
    rep = run_json(tmp_path, ["evolve", "--hamiltonian", sz, "--t", "0.5"])
    assert (rep["hbar"], rep["tolerance_used"]) == (1.0, 1e-10)


def test_evolve_decomposes_the_hamiltonian_once(tmp_path, monkeypatch):
    calls = []
    solve = oplattice.spectral.eig_hermitian

    def counted(A):
        calls.append(A)
        return solve(A)

    monkeypatch.setattr(oplattice.spectral, "eig_hermitian", counted)
    h = write_json(tmp_path / "h.json", SX + 0.5 * SZ)
    rep = run_json(tmp_path, ["evolve", "--hamiltonian", h, "--t", "0.7"])
    assert len(calls) == 1
    assert rep["group_law_defect"] <= 1e-12


# --- report text: the writer against json's indented encoder ---------------

_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1.7976931348623157e308,
     float("nan"), float("inf"), float("-inf")])
# the writer switches from orjson's text to repr's below 1e-4 and from 1e16
# on: each switch point and the double before it, of both signs
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e308, -1e-310, 1e-4, -1e-4, 9.999999999999999e-05,
     -9.999999999999999e-05, 1e16, -1e16, 9999999999999998.0,
     -9999999999999998.0])


# moderate enough that an outer product of two stays finite; subnormal
# products round to signed zeros
_MODERATE = st.floats(-1e150, 1e150) | st.sampled_from(
    [-0.0, 5e-324, -1e-310, 1e-160])


def _complex(draw, shape, elements, fill=None):
    M = np.empty(shape, dtype=complex)
    M.real, M.imag = (draw(hnp.arrays(np.float64, shape, elements=elements,
                                      fill=fill)) for _ in range(2))
    return M


@st.composite
def _hermitian(draw):
    """Hermitian to the last bit, as M/2 + M*/2 or as a rank-1 einsum outer
    product, or that with one to three entries below the diagonal moved by an
    ulp or with signed zeros put in the imaginary parts of an entry and its
    mirror: the matrices a spectral report writes, and near misses."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):  # every entry drawn, not a constant fill
        M = _complex(draw, (n, n), _FINITE, fill=st.nothing())
        H = M / 2 + M.conj().T / 2
    else:
        u = _complex(draw, n, _MODERATE, fill=st.nothing())
        H = np.einsum("i,j->ij", u, u.conj())
    change = draw(st.sampled_from(["none", "ulp", "zero"]))
    if n == 1 or change == "none":
        return H
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(0, i - 1))
        if change == "ulp":
            part = H.imag if draw(st.booleans()) else H.real
            part[i, j] = np.nextafter(part[i, j], 0.0 if part[i, j] else 1.0)
        else:
            H.imag[i, j], H.imag[j, i] = draw(st.sampled_from(
                [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)]))
    return H


@st.composite
def _matrices(draw):
    if draw(st.booleans()):
        return draw(_hermitian())
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    M = _complex(draw, shape, _FINITE)
    return M.real.copy() if draw(st.booleans()) else M


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), _FLOATS,
    st.text(max_size=6), st.complex_numbers(),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(-128, 127).map(np.int8), st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    hnp.arrays(np.float64, st.integers(0, 4), elements=_FLOATS),
    hnp.arrays(np.complex128, st.integers(0, 3)),
    _matrices(),
)
_KEYS = st.one_of(st.text(max_size=6), st.integers(), _FLOATS, st.booleans(),
                  st.none(), st.tuples(st.integers(0, 3)))
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_TREES | _hermitian())
def test_report_writer_matches_indented_json_encoder(tree):
    assert dumps(tree) + "\n" == report_json_reference(tree)


def _report_through_both_routes(tmp_path, argv):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0, argv
    args = cli._build_parser().parse_args(argv)
    args.tol = cli._resolve_tol(args)
    reference = report_json_reference(cli.HANDLERS[args.command](args))
    return out.read_bytes(), reference.encode()


@pytest.mark.parametrize("name", [
    "c2-distributivity", "spin-ccr", "electric-charge-sectors",
    "gns-m2-pure", "gns-m2-trace", "truncated-oscillator"])
def test_demo_reports_match_indented_json_encoder(tmp_path, monkeypatch,
                                                  name):
    monkeypatch.delenv("OPLATTICE_TOL", raising=False)
    got, want = _report_through_both_routes(tmp_path,
                                            ["demo", "--name", name])
    assert got == want


def test_matrix_reports_match_indented_json_encoder(tmp_path, monkeypatch):
    from oplattice import DensityState, born_probability, tomography_frame
    monkeypatch.delenv("OPLATTICE_TOL", raising=False)
    rng = np.random.default_rng(20)
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    Q, _ = np.linalg.qr(X)
    degenerate = Q @ np.diag([-1.0, 2.0, 2.0, 0.5, 2.0]) @ Q.conj().T
    H = write_json(tmp_path / "h.json", (X + X.conj().T) / 2)
    D = write_json(tmp_path / "d.json", degenerate)
    rho = DensityState(np.diag([0.5, 0.3, 0.2]))
    rows = [{"projector": P.matrix,
             "probability": born_probability(rho, P)}
            for P in tomography_frame(3)]
    fit = write_json(tmp_path / "fit.json", {"assignments": rows})
    # eight rank-2 atoms and eight rank-1 ones
    Y = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    U, _ = np.linalg.qr(Y)
    levels = np.repeat(np.arange(16.0), [2] * 8 + [1] * 8)
    mixed = write_json(tmp_path / "mixed.json",
                       U @ np.diag(levels) @ U.conj().T)
    P, R = Q[:, :2] @ Q[:, :2].conj().T, Q[:, 1:4] @ Q[:, 1:4].conj().T
    pr = write_json(tmp_path / "pr.json", {"p": P, "q": R})
    square = degenerate @ degenerate
    collapse = write_json(tmp_path / "c.json", {
        "state": square / np.trace(square).real, "projector": P})
    for argv in (["spectral", "--in", H], ["spectral", "--in", D],
                 ["spectral", "--in", mixed], ["lattice", "--in", pr],
                 ["collapse", "--in", collapse],
                 ["funcalc", "--in", H, "--f", "exp-it", "--t", "0.3"],
                 ["evolve", "--hamiltonian", D, "--t", "-1.5",
                  "--hbar", "0.5"],
                 ["gleason-fit", "--in", fit]):
        got, want = _report_through_both_routes(tmp_path, argv)
        assert got == want, argv


# --- input text: the reader against json's text-mode reader -----------------

def _json_load(path):
    """cli._load_json through json alone, as every input was read before
    orjson: the file in text mode, then json.load; text that does not
    decode or nests too deeply is malformed input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise cli.MalformedInput(f"{path}: invalid JSON ({exc})")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise cli.MalformedInput(f"{path}: {exc}")


def _outcome(f, *args):
    try:
        return "returned", f(*args)
    except Exception as exc:  # RecursionError and warnings included
        return type(exc).__name__, str(exc)


def _same_tree(a, b):
    """Equal at every node and of exactly the same type; floats bit for
    bit, dict keys in the same order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_tree, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(map(_same_tree, a.values(),
                                              b.values()))
    return a == b


def _spectral(path):
    """What `oplattice spectral --in path` returns or raises, and prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _outcome(run, ["spectral", "--in", path])
    return code, out.getvalue(), err.getvalue()


def _assert_reads_as_json(path):
    """_load_json and _json_load agree on the file at path, and so does
    spectral run on it with each: exit code or exception, stdout, stderr."""
    got, want = _outcome(cli._load_json, path), _outcome(_json_load, path)
    assert got[0] == want[0] and _same_tree(got[1], want[1]), (got, want)
    with mock.patch.object(cli, "_load_json", _json_load):
        reference = _spectral(path)
    assert _spectral(path) == reference


_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
_INTS = st.integers(-2 ** 70, 2 ** 70) | st.sampled_from(
    [0, 2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64])


@st.composite
def _matrix_texts(draw):
    """A matrix document of random-bit-pattern doubles (NaN and infinities
    included) and some integers, Hermitian or not, bare or wrapped, written
    by json.dumps, by dumps or with %.Ng, %.Ne or %.Nf for N from 1 to 40."""
    n = draw(st.integers(1, 3))
    entry = _BITS | _INTS if draw(st.booleans()) else _BITS
    if draw(st.booleans()):  # mirrored: entries i > j conjugate those i < j
        upper = {(i, j): [draw(entry), draw(entry) if i < j else 0.0]
                 for i in range(n) for j in range(i, n)}
        data = [upper[i, j] if i <= j else [upper[j, i][0], -upper[j, i][1]]
                for i in range(n) for j in range(n)]
        rows = n
    else:
        rows = draw(st.integers(0, 2))
        data = [[draw(entry), draw(entry)] for _ in range(rows * n)]
    doc = {"rows": rows, "cols": n, "data": data}
    if draw(st.booleans()):
        doc = {"matrix": doc, "rank": draw(_INTS)}
    style = draw(st.sampled_from(["json", "indented", "dumps", "g", "e", "f"]))
    if len(style) == 1:
        digits = draw(st.integers(1, 40))
        text = lambda x: (f"%.{digits}{style}" % x if type(x) is float
                          and math.isfinite(x) else json.dumps(x))
        return json.dumps(doc).replace(json.dumps(data), "[" + ", ".join(
            f"[{text(a)}, {text(b)}]" for a, b in data) + "]")
    return {"json": json.dumps, "dumps": dumps,
            "indented": lambda d: json.dumps(d, indent=2)}[style](doc)


@settings(max_examples=200, deadline=None)
@given(text=_matrix_texts())
def test_input_reader_matches_json_on_random_bit_patterns(tmp_path_factory,
                                                          text):
    path = tmp_path_factory.mktemp("doc") / "m.json"
    path.write_text(text)
    _assert_reads_as_json(str(path))


def _matrix(rows=1, entry="1.0", key=""):
    return f'{{{key}"rows": {rows}, "cols": 1, "data": [[{entry}, 0.0]]}}'


_EDGE_INTS = [s * (2 ** k + d) for s in (1, -1) for k in (63, 64)
              for d in (-1, 0, 1)] + [10 ** 18, -10 ** 18, 10 ** 19, -10 ** 19]
_NAMED_TEXTS = {
    **{f"rows {v}": _matrix(rows=v).encode() for v in _EDGE_INTS},
    **{f"entry {v}": _matrix(entry=v).encode() for v in _EDGE_INTS + [
        "NaN", "-Infinity", "1e999", "-0", "1e-400", "0.0018298840605237062",
        "12345678901234567890.5",
        "0.1000000000000000055511151231257827021181583404541015625",
        "1e0000000000000000000001", "-1.5e-0000000000000000000001"]},
    "BOM": b"\xef\xbb\xbf" + _matrix().encode(),
    "invalid UTF-8": _matrix(key='"\xff": 0, ').encode("latin-1"),
    "lone surrogate": _matrix(key='"\\ud800": 0, ').encode(),
    "escape": _matrix(key='"\\u0072": 0, ').encode(),
    "UTF-8 string": _matrix(key='"\u00e9": 0, ').encode(),
    "brackets in a string": _matrix(key='"]]}[": 0, ').encode(),
    "duplicate keys": _matrix(key='"rows": 2, ').encode(),
    "CR LF": _matrix().replace(", ", ",\r\n").encode() + b"\r",
    "control character": _matrix(key='"a\rb": 0, ').encode(),
    "trailing comma": _matrix(entry="1.0, 0.0],[1.0").encode()[:-2] + b",]}",
    "empty": b"",
    **{f"{d} deep": _matrix(entry="[" * d + "1.0").replace(
        "0.0]]", "0.0]]" + "]" * d).encode() for d in (60, 61, 2000)},
}


@pytest.mark.parametrize("name", list(_NAMED_TEXTS))
def test_input_reader_matches_json_where_orjson_reads_otherwise(tmp_path,
                                                                name):
    path = tmp_path / "m.json"
    path.write_bytes(_NAMED_TEXTS[name])
    _assert_reads_as_json(str(path))


def test_input_reader_takes_json_only_where_orjson_cannot(tmp_path,
                                                          monkeypatch):
    loads = []
    monkeypatch.setattr(cli, "json", mock.Mock(
        wraps=json, JSONDecodeError=json.JSONDecodeError,
        loads=lambda text: loads.append(text) or json.loads(text)))
    path = tmp_path / "m.json"
    for name, fallback in (("entry -0", False), ("60 deep", False),
                           ("brackets in a string", False),
                           ("entry 0.0018298840605237062", False),
                           ("entry 1e0000000000000000000001", True),
                           ("rows 1000000000000000000", True),
                           ("61 deep", True), ("entry NaN", True),
                           ("escape", True), ("UTF-8 string", True)):
        path.write_bytes(_NAMED_TEXTS[name])
        cli._load_json(str(path))
        assert len(loads) == fallback, name
        loads.clear()
