"""Command-line surface: JSON in, JSON out, exit-code taxonomy."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oplattice.spectral
from oplattice import (
    DensityState,
    HermitianOperator,
    NotHermitian,
    cli,
    matrix_to_json,
)
from oplattice.cli import run

from oracles import expm_oracle, report_json_reference

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
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


def test_validation_failures_exit_2(tmp_path, capsys):
    skew = write_json(tmp_path / "h.json", matrix_to_json(SZ + 1j * SX))
    assert run(["spectral", "--in",skew]) == 2
    good = write_json(tmp_path / "g.json", matrix_to_json(SZ))
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
    infile = write_json(tmp_path / "h.json", matrix_to_json(
        np.array([[1e308, 1e308], [0.0, 1e308]])))
    assert run(["spectral", "--in", infile]) == 2
    capsys.readouterr()


def test_removed_seed_and_report_flags_are_refused(tmp_path, capsys):
    infile = write_json(tmp_path / "sz.json", matrix_to_json(SZ))
    assert run(["spectral", "--in", infile, "--seed", "1"]) == 2
    assert run(["ccr", "--n", "4", "--report",
                str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_funcalc_refuses_an_infinite_function_value(tmp_path, capsys):
    infile = write_json(tmp_path / "big.json",
                        matrix_to_json(np.diag([1e200, 1.0])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["funcalc", "--in", infile, "--f", "square"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: f(1e+200)")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # ||A||_F
def test_spectral_on_finite_input_near_overflow(tmp_path):
    big = np.array([[-0.0, 1e-300], [1e-300, 1e308]])
    infile = write_json(tmp_path / "big.json", matrix_to_json(big))
    rep = run_json(tmp_path, ["spectral", "--in", infile])
    assert [a["label"] for a in rep["atoms"]] == [[0.0], [1e308]]


def test_tolerance_failures_exit_3(tmp_path, capsys):
    fixture = write_json(tmp_path / "c.json", {
        "state": matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
        "projector": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
    })
    assert run(["collapse", "--in", fixture]) == 3
    capsys.readouterr()


def test_spectral_report_on_sigma_z(tmp_path):
    infile = write_json(tmp_path / "sz.json", matrix_to_json(SZ))
    rep = run_json(tmp_path, ["spectral", "--in", infile])
    assert rep["dim"] == 2
    assert [a["label"] for a in rep["atoms"]] == [[-1.0], [1.0]]
    assert rep["reconstruction_residual"] <= 1e-12
    assert max(rep["residuals"].values()) <= 1e-12


def test_funcalc_square_gives_identity(tmp_path):
    infile = write_json(tmp_path / "sz.json", matrix_to_json(SZ))
    rep = run_json(tmp_path, ["funcalc", "--in", infile, "--f", "square"])
    got = complexify(rep["matrix"]["data"]).reshape(2, 2)
    np.testing.assert_allclose(got, np.eye(2), atol=1e-12)


def test_evolve_matches_exponential_oracle(tmp_path):
    infile = write_json(tmp_path / "h.json", matrix_to_json(SX))
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
        "p": matrix_to_json(np.diag([1.0, 1.0, 0.0]).astype(complex)),
        "q": matrix_to_json(np.diag([0.0, 1.0, 1.0]).astype(complex)),
    }
    infile = write_json(tmp_path / "pq.json", obj)
    rep = run_json(tmp_path, ["lattice", "--in", infile])
    assert rep["commutes"] is True
    meet_mat = complexify(rep["meet"]["data"]).reshape(3, 3)
    np.testing.assert_allclose(meet_mat, np.diag([0.0, 1.0, 0.0]), atol=1e-10)
    assert rep["jauch_gap"] <= 1e-7


def test_measurement_chain_orders_differ(tmp_path):
    obj = {
        "state": matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
        "chain": [matrix_to_json(np.full((2, 2), 0.5).astype(complex)),
                  matrix_to_json(np.diag([1.0, 0.0]).astype(complex))],
    }
    infile = write_json(tmp_path / "chain.json", obj)
    rep = run_json(tmp_path, ["measure", "--in", infile])
    assert abs(rep["value"] - 0.25) <= 1e-12
    assert abs(rep["reversed_value"] - 0.5) <= 1e-12
    assert rep["chain_length"] == 2


def test_single_projector_measurement(tmp_path):
    obj = {
        "state": matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
        "projector": matrix_to_json(np.full((2, 2), 0.5).astype(complex)),
    }
    infile = write_json(tmp_path / "m.json", obj)
    rep = run_json(tmp_path, ["measure", "--in", infile])
    assert abs(rep["probability"] - 0.5) <= 1e-12


def test_collapse_report(tmp_path):
    obj = {
        "state": matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
        "projector": matrix_to_json(np.full((2, 2), 0.5).astype(complex)),
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
    rows = [{"projector": matrix_to_json(P.matrix),
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
    obj = {"generators": [matrix_to_json(SX), matrix_to_json(SZ)]}
    infile = write_json(tmp_path / "gens.json", obj)
    rep = run_json(tmp_path, ["commutant", "--in", infile])
    assert rep["commutant_dimension"] == 1
    assert rep["double_commutant_dimension"] == 4
    assert rep["center_dimension"] == 1
    assert rep["is_factor"] is True


def test_sectors_through_input_file(tmp_path):
    I2 = np.eye(2, dtype=complex)
    obj = {
        "charges": [matrix_to_json(np.kron(I2, SZ))],
        "observables": [matrix_to_json(np.kron(SX, I2)),
                        matrix_to_json(np.kron(SZ, I2)),
                        matrix_to_json(np.kron(I2, SZ))],
    }
    infile = write_json(tmp_path / "sec.json", obj)
    rep = run_json(tmp_path, ["sectors", "--in", infile])
    assert len(rep["sectors"]) == 2
    assert {s["rank"] for s in rep["sectors"]} == {2}
    assert all(s["irreducible"] for s in rep["sectors"])
    assert rep["offdiagonal_defect"] <= 1e-12


def test_noether_flags_through_cli(tmp_path):
    h = write_json(tmp_path / "h.json", matrix_to_json(SZ))
    a = write_json(tmp_path / "a.json", matrix_to_json((SZ @ SZ + SZ)))
    rep = run_json(tmp_path, ["noether", "--a", a, "--h", h])
    assert rep["constant_of_motion"] and rep["dynamical_symmetry"]
    assert rep["h_invariance"]
    a2 = write_json(tmp_path / "a2.json", matrix_to_json(SX))
    rep = run_json(tmp_path, ["noether", "--a", a2, "--h", h])
    assert not rep["constant_of_motion"]


def test_dyson_through_cli(tmp_path):
    taus = np.linspace(0.0, 1.0, 201)
    obj = {
        "times": list(taus),
        "matrices": [matrix_to_json((1 + t * t / 2) * SZ) for t in taus],
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


def test_all_demos_run_clean(tmp_path, capsys):
    for name in ("c2-distributivity", "spin-ccr", "electric-charge-sectors",
                 "gns-m2-pure", "gns-m2-trace", "truncated-oscillator"):
        assert run(["demo", "--name", name]) == 0, name
    capsys.readouterr()


def test_demo_output_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["demo", "--name", "c2-distributivity", "--out", str(a)]) == 0
    assert run(["demo", "--name", "c2-distributivity", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tolerance_resolution_env_and_flag(tmp_path, monkeypatch):
    infile = write_json(tmp_path / "sz.json", matrix_to_json(SZ))
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
    infile = write_json(tmp_path / "sz.json", matrix_to_json(SZ))
    assert run(["spectral", "--in", infile]) == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["dim"] == 2


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.delenv("OPLATTICE_TOL", raising=False)
    assert cli._build_parser() is cli._build_parser()
    sz = write_json(tmp_path / "sz.json", matrix_to_json(SZ))
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
    h = write_json(tmp_path / "h.json", matrix_to_json(SX + 0.5 * SZ))
    rep = run_json(tmp_path, ["evolve", "--hamiltonian", h, "--t", "0.7"])
    assert len(calls) == 1
    assert rep["group_law_defect"] <= 1e-12


# --- report text: the writer against json's indented encoder ---------------

_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1.7976931348623157e308,
     float("nan"), float("inf"), float("-inf")])
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e308, -1e-310])


@st.composite
def _matrices(draw):
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    parts = [draw(hnp.arrays(np.float64, shape, elements=_FINITE))
             for _ in range(2)]
    if draw(st.booleans()):
        return parts[0]
    M = np.empty(shape, dtype=complex)
    M.real, M.imag = parts
    return M


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
@given(_TREES)
def test_report_writer_matches_indented_json_encoder(tree):
    assert cli._json(tree) + "\n" == report_json_reference(tree)


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
    H = write_json(tmp_path / "h.json", matrix_to_json((X + X.conj().T) / 2))
    D = write_json(tmp_path / "d.json", matrix_to_json(degenerate))
    rho = DensityState(np.diag([0.5, 0.3, 0.2]))
    rows = [{"projector": matrix_to_json(P.matrix),
             "probability": born_probability(rho, P)}
            for P in tomography_frame(3)]
    fit = write_json(tmp_path / "fit.json", {"assignments": rows})
    for argv in (["spectral", "--in", H], ["spectral", "--in", D],
                 ["funcalc", "--in", H, "--f", "exp-it", "--t", "0.3"],
                 ["evolve", "--hamiltonian", D, "--t", "-1.5",
                  "--hbar", "0.5"],
                 ["gleason-fit", "--in", fit]):
        got, want = _report_through_both_routes(tmp_path, argv)
        assert got == want, argv
