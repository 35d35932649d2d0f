"""The four workloads: job kinds, their seeded inputs and their checks.

A job is one user task: a few library calls on one generated input. Each
kind gives
  make(rng, n, ctx) -> data     input generation (numpy only, untimed)
  run(lib, data) -> out         the library calls, the only timed part
  check(data, out) -> [layer]   layers whose output failed an independent
                                check (empty when the job passed), untimed
and, for the cli workload, direct(lib, data): the same library calls made
without the command line, the base of cli.overhead_x.

Checks use a route independent of the library: the oracles in
tests/oracles.py where one exists, otherwise the truth the input was built
from (a chosen spectrum, a constructed subspace, a known block structure)
or a direct numpy residual.
"""
import json
from importlib import resources

import numpy as np

import gen
import oracles
from oplattice.algebras import NotClosedUnderProducts

_identity = lambda x: x  # noqa: E731


def _no_defect(exc):
    return False


def _fro(M):
    return float(np.linalg.norm(M))


def _close(got, want, rtol):
    return _fro(np.asarray(got) - want) <= rtol * max(1.0, _fro(want))


class Kind:
    """One job kind of a workload.

    known_defect(exc) says whether a job of this kind that failed in its
    own layer, raising exc (None when the call returned and its check
    failed), failed the way a defect ROADMAP.md documents makes it fail at
    the seed (the conjugated commutant, item 1). Such failures count in
    failed, pass_rate and error_rate like any other, but do not make the
    run's outputs count as wrong. Any other failure does.
    """

    def __init__(self, name, lo, hi, make, run, check, layer,
                 direct=None, known_defect=_no_defect):
        self.name, self.lo, self.hi = name, lo, hi
        self.make, self.run, self.check = make, run, check
        self.layer = layer
        self.direct = direct
        self.known_defect = known_defect


class Ctx:
    """What make() may need besides the rng and the size."""

    def __init__(self, workdir, index):
        self.workdir = workdir
        self.index = index


def _fails(layer, *conditions):
    return [] if all(conditions) else [layer]


# --- spectral and dynamics ---------------------------------------------------

def make_spectral_generic(rng, n, ctx):
    w = gen.generic_spectrum(rng, n)
    A = gen.hermitian_from(gen.haar_unitary(rng, n), w)
    return {"A": A, "levels": w, "mult": np.ones(n, dtype=int), "herm": [A]}


def make_spectral_degenerate(rng, n, ctx):
    levels, mult = gen.degenerate_spectrum(rng, n)
    A = gen.hermitian_from(gen.haar_unitary(rng, n), np.repeat(levels, mult))
    return {"A": A, "levels": levels, "mult": mult, "herm": [A]}


def run_spectral(lib, d):
    H = lib.linalg.HermitianOperator(d["A"])
    pvm = lib.spectral.spectral_decompose(H)
    return pvm, lib.spectral.func_calculus(pvm, _identity)


def check_spectral(d, out):
    pvm, rebuilt = out
    atoms = sorted((float(lab), float(P.trace().real)) for lab, P in pvm.atoms)
    labels = np.array([a[0] for a in atoms])
    ranks = np.array([round(a[1]) for a in atoms])
    return _fails(
        "spectral",
        len(atoms) == len(d["levels"])
        and np.abs(labels - d["levels"]).max() <= 1e-9
        and np.array_equal(ranks, d["mult"]),
        _close(rebuilt, d["A"], 1e-9),
    )


def make_evolve(rng, n, ctx):
    A = gen.hermitian_from(gen.haar_unitary(rng, n),
                           gen.generic_spectrum(rng, n))
    return {"A": A, "t": float(rng.uniform(0.1, 2.0)), "herm": [A]}


def run_evolve_pair(lib, d):
    H = lib.linalg.HermitianOperator(d["A"])
    return (lib.dynamics.evolve_unitary(H, d["t"]).matrix,
            lib.dynamics.evolve_unitary(H, d["t"] / 2.0).matrix)


def check_evolve_pair(d, out):
    U, half = out
    n = d["A"].shape[0]
    exact = oracles.expm_oracle(-1j * d["t"] * d["A"])
    return _fails("dynamics",
                  _fro(U - exact) <= 1e-9 * np.sqrt(n),
                  _fro(half @ half - U) <= 1e-9 * np.sqrt(n))


def run_evolve(lib, d):
    return lib.dynamics.evolve_unitary(d["A"], d["t"]).matrix


def check_evolve(d, out):
    n = d["A"].shape[0]
    exact = oracles.expm_oracle(-1j * d["t"] * d["A"])
    return _fails("dynamics", _fro(out - exact) <= 1e-9 * np.sqrt(n))


def make_heisenberg(rng, n, ctx):
    d = make_evolve(rng, n, ctx)
    d["B"] = gen.random_hermitian(rng, n) / np.sqrt(n)
    d["herm"].append(d["B"])
    return d


def run_heisenberg(lib, d):
    return lib.dynamics.heisenberg_observable(d["B"], d["A"], d["t"]).matrix


def check_heisenberg(d, out):
    U = oracles.expm_oracle(-1j * d["t"] * d["A"])
    return _fails("dynamics",
                  _close(out, U.conj().T @ d["B"] @ U, 1e-9))


def make_noether(conserved):
    def make(rng, n, ctx):
        U = gen.haar_unitary(rng, n)
        H = gen.hermitian_from(U, gen.generic_spectrum(rng, n))
        if conserved:
            A = gen.hermitian_from(U, gen.generic_spectrum(rng, n))
        else:
            A = gen.random_hermitian(rng, n) / np.sqrt(n)
        return {"A": A, "H": H, "conserved": conserved, "herm": [A, H]}
    return make


def run_noether(lib, d):
    return lib.dynamics.noether_check(d["A"], d["H"])


def check_noether(d, rep):
    A, H = d["A"], d["H"]
    commute = _fro(A @ H - H @ A) <= 1e-9
    flags = (rep.constant_of_motion, rep.dynamical_symmetry, rep.h_invariance)
    return _fails("dynamics", commute == d["conserved"],
                  all(f == d["conserved"] for f in flags))


# --- lattice and states --------------------------------------------------------

def make_projector_pair(rng, n, ctx):
    """P and Q share a k-dimensional subspace; their other p directions meet
    at principal angles in [0.6, pi/2], so the meet is exactly the shared
    part and the alternating products converge in well under 100 steps."""
    U = gen.haar_unitary(rng, n)
    k = int(rng.integers(0, n // 4 + 1))
    p = int(rng.integers(1, (n - k) // 2 + 1))
    theta = rng.uniform(0.6, np.pi / 2, p)
    common = U[:, :k]
    Pcols = U[:, :k + p]
    Qcols = np.hstack([common, U[:, k:k + p] * np.cos(theta)
                       + U[:, k + p:k + 2 * p] * np.sin(theta)])
    # independent columns spanning the join (the QR oracle needs them so)
    return {"P": gen.projector_onto(Pcols), "Q": gen.projector_onto(Qcols),
            "common": common, "cols": np.hstack([Pcols, Qcols[:, k:]])}


def _meet_oracle(d):
    n = d["P"].shape[0]
    if d["common"].shape[1] == 0:
        return np.zeros((n, n), dtype=complex)
    return oracles.span_projector_oracle(d["common"])


def check_meet_join(d, out):
    meet, join = out
    return _fails("lattice",
                  _fro(meet - _meet_oracle(d)) <= 1e-9,
                  _fro(join - oracles.span_projector_oracle(d["cols"])) <= 1e-9)


def run_lattice(lib, d):
    P = lib.lattice.Projector(d["P"])
    Q = lib.lattice.Projector(d["Q"])
    return (lib.lattice.meet(P, Q).matrix, lib.lattice.join(P, Q).matrix,
            lib.lattice.jauch_meet(P, Q).matrix)


def check_lattice(d, out):
    return check_meet_join(d, out[:2]) or _fails(
        "lattice", _fro(out[2] - _meet_oracle(d)) <= 1e-8)


def make_tomography(rng, n, ctx):
    return {"rho": gen.random_density(rng, n)}


def run_tomography(lib, d):
    rho = lib.states.DensityState(d["rho"])
    frame = lib.states.tomography_frame(d["rho"].shape[0])
    probs = [lib.states.born_probability(rho, P) for P in frame]
    return frame, probs, lib.states.gleason_fit(list(zip(frame, probs)))


def check_tomography(d, out):
    frame, probs, fit = out
    n = d["rho"].shape[0]
    direct = [float(np.trace(d["rho"] @ P.matrix).real) for P in frame]
    return _fails("states",
                  len(frame) == n * n and fit.frame_rank == n * n,
                  np.abs(np.subtract(probs, direct)).max() <= 1e-12,
                  _fro(fit.state.matrix - d["rho"]) <= 1e-8)


def run_meet_join(lib, d):
    P = lib.lattice.Projector(d["P"])
    Q = lib.lattice.Projector(d["Q"])
    return lib.lattice.meet(P, Q).matrix, lib.lattice.join(P, Q).matrix


def make_luders(rng, n, ctx):
    r = int(rng.integers(1, n))
    cols = gen.haar_unitary(rng, n)[:, :r]
    return {"rho": gen.random_density(rng, n), "P": gen.projector_onto(cols)}


def run_luders(lib, d):
    rho = lib.states.DensityState(d["rho"])
    P = lib.lattice.Projector(d["P"])
    return lib.states.luders_collapse(rho, P).matrix


def check_luders(d, out):
    P, rho = d["P"], d["rho"]
    ref = P @ rho @ P / np.trace(rho @ P).real
    return _fails("states", _fro(out - ref) <= 1e-10,
                  abs(np.trace(out).real - 1.0) <= 1e-10)


# --- algebras ------------------------------------------------------------------
# A family is a generator list with its known commutant dimension, generated
# algebra (as a basis built independently) and center dimension.

def family_pair(rng, n):
    gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2)]
    return {"gens": gens, "comm": 1, "alg": None, "center": 1, "herm": []}


def _family_observable(real):
    def make(rng, n):
        U = gen.haar_unitary(rng, n, real=real)
        H = gen.hermitian_from(U, gen.generic_spectrum(rng, n))
        atoms = [np.outer(U[:, j], U[:, j].conj()) for j in range(n)]
        return {"gens": [H], "comm": n, "alg": atoms, "center": n,
                "herm": [H]}
    return make


def _family_blocks(real):
    """Two generators, each block-diagonal with random blocks of sizes
    k = n // 3 and n - k, in a random basis: the algebra is M_k + M_(n-k),
    the commutant and the center are spanned by the two block projectors.
    k is fixed by n because center() costs grow with k^2 + (n-k)^2."""
    def make(rng, n):
        k = n // 3
        U = gen.haar_unitary(rng, n, real=real)
        gens = [U @ gen.block_diagonal([
            gen.random_hermitian(rng, k, real=real),
            gen.random_hermitian(rng, n - k, real=real)]) @ U.conj().T
            for _ in range(2)]
        units = [U @ gen.block_diagonal([E, np.zeros((n - k, n - k))])
                 @ U.conj().T for E in gen.matrix_units(k)]
        units += [U @ gen.block_diagonal([np.zeros((k, k)), E]) @ U.conj().T
                  for E in gen.matrix_units(n - k)]
        return {"gens": gens, "comm": 2, "alg": units, "center": 2,
                "herm": gens}
    return make


# family -> (maker, whether its commutant is nontrivial and complex, so that
# it meets the conjugated-commutant defect at the seed)
FAMILIES = {
    "pair": (family_pair, False),
    "real_obs": (_family_observable(True), False),
    "complex_obs": (_family_observable(False), True),
    "real_blocks": (_family_blocks(True), False),
    "complex_blocks": (_family_blocks(False), True),
}


def _returns_wrong_commutant(exc):
    """commutant() returns the commutant of conj(G): no exception, and
    the commutation check fails."""
    return exc is None


def _generated_by_not_closed(exc):
    """generated_by() closes the conjugated span, which is not closed
    under products."""
    return isinstance(exc, NotClosedUnderProducts)

# Largest n of the generated-algebra jobs per family. center() runs the
# Kronecker SVD on the whole algebra basis: 2 * dim(A) * n^2 rows of n^2
# complex entries, O(n^6) memory for the full matrix algebra, 2 GB at n = 16
# for a pair at the seed. The caps keep each job under about 1.5 s and
# 0.3 GB at the seed; the commutant jobs keep the full 4..24 range.
ALGEBRA_CAP = {"pair": 10, "real_obs": 16, "complex_obs": 16,
               "real_blocks": 12, "complex_blocks": 12}


def _make_family(family):
    make = FAMILIES[family][0]
    return lambda rng, n, ctx: make(rng, n)


def _commutes(gens, X):
    return all(_fro(G @ X - X @ G) <= 1e-8 * max(1.0, _fro(G)) * _fro(X)
               and _fro(G.conj().T @ X - X @ G.conj().T)
               <= 1e-8 * max(1.0, _fro(G)) * _fro(X) for G in gens)


def run_commutant(lib, d):
    return lib.algebras.commutant(d["gens"])


def check_commutant(d, basis):
    return _fails("algebras", len(basis) == d["comm"],
                  all(_commutes(d["gens"], X) for X in basis))


def run_algebra(lib, d):
    alg = lib.algebras.MatrixStarAlgebra.generated_by(d["gens"])
    return (alg.basis, lib.algebras.center(alg), lib.algebras.is_factor(alg))


def check_algebra(d, out):
    basis, centre, factor = out
    n = d["gens"][0].shape[0]
    truth = d["alg"] if d["alg"] is not None else \
        oracles.word_closure_basis(d["gens"], n)
    return _fails(
        "algebras",
        len(basis) == len(truth),
        oracles.span_gap(basis, truth) <= 1e-8,
        len(centre) == d["center"],
        all(_commutes(d["gens"], Z) for Z in centre),
        oracles.span_gap(list(truth) + list(centre), truth) <= 1e-8,
        factor == (d["center"] == 1),
    )


def make_sectors(rng, n, ctx):
    """One charge with s distinct integer values on sectors of random sizes,
    two observables acting irreducibly inside each sector, all in a random
    basis."""
    s = int(rng.integers(2, min(4, n // 2) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=s - 1, replace=False))
    dims = np.diff(np.concatenate([[0], cuts, [n]])).astype(int)
    charges = np.sort(rng.choice(np.arange(-4, 5), size=s, replace=False))
    U = gen.haar_unitary(rng, n)
    Q = gen.hermitian_from(U, np.repeat(charges, dims))
    obs = [U @ gen.block_diagonal([gen.random_hermitian(rng, m) for m in dims])
           @ U.conj().T for _ in range(2)]
    bounds = np.concatenate([[0], np.cumsum(dims)])
    truth = {float(q): U[:, bounds[i]:bounds[i + 1]]
             for i, q in enumerate(charges)}
    return {"Q": Q, "obs": obs, "truth": truth, "herm": [Q] + obs}


def run_sectors(lib, d):
    return lib.algebras.superselection_sectors([d["Q"]], d["obs"])


def check_sectors(d, rep):
    ok = len(rep.sectors) == len(d["truth"]) and rep.offdiag_defect <= 1e-9
    for sec in rep.sectors if ok else ():
        q = sec.charge_values[0]
        cols = d["truth"].get(float(round(q)))
        ok = (cols is not None and abs(q - round(q)) <= 1e-9
              and sec.rank == cols.shape[1] and sec.irreducible
              and len(sec.restricted_basis) == sec.rank ** 2
              and _fro(sec.projector
                       - oracles.span_projector_oracle(cols)) <= 1e-9)
        if not ok:
            break
    return _fails("algebras", ok)


def make_paradox(rng, n, ctx):
    r = int(rng.integers(2, n + 1))
    return {"rho": gen.random_density(rng, n, rank=r), "rank": r,
            "units": gen.matrix_units(n)}


def run_paradox(lib, d):
    rep = lib.gns.mixed_to_vector_paradox_demo(d["rho"])
    mats = d["units"]
    alg = lib.gns.algebra_from_matrices(mats)
    omega = lib.gns.state_from_density(alg, mats, d["rho"])
    triple = lib.gns.gns_construct(alg, omega)
    return rep, triple, lib.gns.verify_gns(triple, alg, omega)


def check_paradox(d, out):
    rep, triple, verdict = out
    n, r = d["rho"].shape[0], d["rank"]
    quotient = oracles.gram_rank_bruteforce(d["units"], d["rho"])
    return _fails("gns", quotient == n * r, triple.rep_dim == n * r,
                  rep["rep_dim"] == n * r,
                  rep["commutant_dimension"] == r * r,
                  not rep["state_is_pure"], verdict["ok"])


def make_svn(rng, n, ctx):
    m, omega, hbar = (float(x) for x in rng.uniform(0.5, 2.0, 3))
    return {"n": n, "m": m, "omega": omega, "hbar": hbar}


def run_svn(lib, d):
    pair = lib.oscillator.build_truncated_pair(d["n"], d["m"], d["omega"],
                                               d["hbar"])
    return lib.oscillator.svn_hypotheses_check([pair.X], [pair.P],
                                               hbar=d["hbar"])


def check_svn(d, rep):
    n, m, w, hbar = d["n"], d["m"], d["omega"], d["hbar"]
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1)
    X = np.sqrt(hbar / (2 * m * w)) * (a + a.T)
    P = 1j * np.sqrt(m * w * hbar / 2) * (a.T - a)
    ccr = np.linalg.norm(X @ P - P @ X - 1j * hbar * np.eye(n), 2)
    got = rep["ccr_residuals"][0][0]
    return _fails("oscillator", abs(got - ccr) <= 1e-9 * ccr,
                  abs(got - hbar * n) <= 1e-9 * hbar * n,
                  rep["commutant_dimension"] == 1, rep["irreducible"])


# --- cli -----------------------------------------------------------------------
# Inputs are files written during set-up; every job writes its report with
# --out into the same work directory.

def _write(ctx, stem, payload):
    path = ctx.workdir / f"{stem}-{ctx.index}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _out(ctx, stem):
    return str(ctx.workdir / f"{stem}-{ctx.index}.out.json")


def _report(d):
    with open(d["out"]) as fh:
        return json.load(fh)


def run_cli(lib, d):
    return lib.cli.run(d["argv"])


def make_cli_spectral(rng, n, ctx):
    d = make_spectral_generic(rng, n, ctx)
    d["out"] = _out(ctx, "spectral")
    d["argv"] = ["spectral", "--in", _write(ctx, "spectral",
                                            gen.matrix_json(d["A"])),
                 "--out", d["out"]]
    return d


def check_cli_spectral(d, rc):
    if rc != 0:
        return ["cli"]
    rep = _report(d)
    labels = np.array(sorted(a["label"][0] for a in rep["atoms"]))
    return _fails("cli", len(labels) == len(d["levels"])
                  and np.abs(labels - d["levels"]).max() <= 1e-9,
                  rep["reconstruction_residual"]
                  <= 1e-9 * max(1.0, _fro(d["A"])))


def direct_spectral(lib, d):
    pvm = lib.spectral.spectral_decompose(lib.linalg.HermitianOperator(d["A"]))
    lib.spectral.func_calculus(pvm, _identity)
    lib.spectral.pvm_residuals(pvm)


def make_cli_evolve(rng, n, ctx):
    d = make_evolve(rng, n, ctx)
    d["out"] = _out(ctx, "evolve")
    d["argv"] = ["evolve", "--hamiltonian",
                 _write(ctx, "evolve", gen.matrix_json(d["A"])),
                 "--t", repr(d["t"]), "--out", d["out"]]
    return d


def check_cli_evolve(d, rc):
    if rc != 0:
        return ["cli"]
    U = gen.matrix_from(_report(d)["unitary"])
    return ["cli"] if check_evolve(d, U) else []


def direct_evolve(lib, d):
    H = lib.linalg.HermitianOperator(d["A"])
    lib.dynamics.evolve_unitary(H, d["t"])
    lib.dynamics.evolve_unitary(H, d["t"] / 2.0)


def make_cli_gleason(rng, n, ctx):
    rho = gen.random_density(rng, n)
    frame = gen.frame_projectors(n)
    rows = [{"projector": gen.matrix_json(P),
             "probability": float(np.trace(rho @ P).real)} for P in frame]
    out = _out(ctx, "gleason")
    path = _write(ctx, "gleason", {"assignments": rows})
    return {"rho": rho, "frame": frame, "probs": [r["probability"] for r in rows],
            "out": out, "argv": ["gleason-fit", "--in", path, "--out", out]}


def check_cli_gleason(d, rc):
    if rc != 0:
        return ["cli"]
    state = gen.matrix_from(_report(d)["state"])
    return _fails("cli", _fro(state - d["rho"]) <= 1e-8)


def direct_gleason(lib, d):
    frame = [lib.lattice.Projector(P) for P in d["frame"]]
    lib.states.gleason_fit(list(zip(frame, d["probs"])))


def make_cli_commutant(rng, n, ctx):
    family = ("pair", "real_obs")[ctx.index % 2]
    d = FAMILIES[family][0](rng, n)
    d["out"] = _out(ctx, "commutant")
    path = _write(ctx, "commutant",
                  {"generators": [gen.matrix_json(G) for G in d["gens"]]})
    d["argv"] = ["commutant", "--in", path, "--out", d["out"]]
    return d


def check_cli_commutant(d, rc):
    if rc != 0:
        return ["cli"]
    rep = _report(d)
    n = d["gens"][0].shape[0]
    alg = n * n if d["alg"] is None else len(d["alg"])
    return _fails("cli", rep["commutant_dimension"] == d["comm"],
                  rep["double_commutant_dimension"] == alg,
                  rep["center_dimension"] == d["center"],
                  rep["is_factor"] == (d["center"] == 1))


def direct_commutant(lib, d):
    lib.algebras.commutant(d["gens"])
    bicom = lib.algebras.double_commutant(d["gens"])
    alg = lib.algebras.MatrixStarAlgebra(bicom)
    lib.algebras.center(alg)
    lib.algebras.is_factor(alg)


def shipped_demos():
    root = resources.files("oplattice") / "data"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def _pairs(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def make_cli_demo(rng, n, ctx):
    names = shipped_demos()
    name = names[ctx.index % len(names)]
    fixture = json.loads(
        (resources.files("oplattice") / "data" / f"{name}.json").read_text())
    out = _out(ctx, "demo")
    return {"name": name, "fixture": fixture, "out": out,
            "argv": ["demo", "--name", name, "--out", out]}


def _demo_c2(d, rep):
    """Three distinct rank-1 projectors of C^2: any two of them join to I and
    meet to 0, so P1 ^ (P2 v P3) = P1 while (P1 ^ P2) v (P1 ^ P3) = 0."""
    P = [gen.matrix_from(d["fixture"][k]) for k in ("p1", "p2", "p3")]
    rank_one = all(P[0].shape == (2, 2) and abs(np.trace(M).real - 1) <= 1e-12
                   for M in P)
    distinct = all(_fro(P[a] - P[b]) > 1e-6 for a, b in ((0, 1), (0, 2), (1, 2)))
    return (rank_one and distinct
            and _fro(gen.matrix_from(rep["lhs"]) - P[0]) <= 1e-12
            and _fro(gen.matrix_from(rep["rhs"])) <= 1e-12
            and rep["distributive"] is False)


def _demo_sectors(d, rep):
    return (len(rep["sectors"]) == 2 and rep["offdiagonal_defect"] <= 1e-12
            and all(s["irreducible"] for s in rep["sectors"])
            and sorted(s["charge_values"][0] for s in rep["sectors"])
            == [-1.0, 1.0])


def _demo_spin(d, rep):
    hbar = rep["hbar"]
    return (max(rep["commutator_residuals"]) <= 1e-12
            and all(abs(s[0] + hbar / 2) <= 1e-12
                    and abs(s[1] - hbar / 2) <= 1e-12 for s in rep["spectra"])
            and rep["invariant_gap"] <= 1e-12)


def _demo_oscillator(d, rep):
    hbar, n = rep["hbar"], rep["n"]
    return (abs(rep["corner_defect"] - hbar * n) <= 1e-10 * hbar * n
            and rep["commutator_trace"] <= 1e-10
            and abs(rep["ground_state"]["product"] - hbar / 2) <= 1e-10
            and abs(rep["first_excited"]["product"] - 1.5 * hbar) <= 1e-10
            and rep["svn"]["irreducible"])


def _demo_gns(pure):
    def check(d, rep):
        return (rep["verify"]["ok"] and rep["pure"] is pure
                and rep["rep_dim"] == (2 if pure else 4))
    return check


DEMO_CHECKS = {
    "c2-distributivity": _demo_c2,
    "electric-charge-sectors": _demo_sectors,
    "spin-ccr": _demo_spin,
    "truncated-oscillator": _demo_oscillator,
    "gns-m2-pure": _demo_gns(True),
    "gns-m2-trace": _demo_gns(False),
}


def check_cli_demo(d, rc):
    if rc != 0:
        return ["cli"]
    rep = _report(d)
    check = DEMO_CHECKS.get(d["name"])
    return _fails("cli", rep.get("demo") == d["name"],
                  check is None or check(d, rep))


def direct_demo(lib, d):
    f, name = d["fixture"], d["name"]
    if name == "c2-distributivity":
        P1, P2, P3 = (lib.lattice.Projector(gen.matrix_from(f[k]))
                      for k in ("p1", "p2", "p3"))
        lib.lattice.meet(P1, lib.lattice.join(P2, P3))
        lib.lattice.join(lib.lattice.meet(P1, P2), lib.lattice.meet(P1, P3))
    elif name == "electric-charge-sectors":
        lib.algebras.superselection_sectors(
            [gen.matrix_from(m) for m in f["charges"]],
            [gen.matrix_from(m) for m in f["observables"]])
    elif name == "spin-ccr":
        lib.dynamics.su2_fixture(float(f.get("hbar", 1.0)))
    elif name == "truncated-oscillator":
        hbar = float(f.get("hbar", 1.0))
        pair = lib.oscillator.build_truncated_pair(
            int(f.get("n", 16)), float(f.get("m", 1.0)),
            float(f.get("omega", 1.0)), hbar)
        pair.commutator_defect()
        lib.oscillator.heisenberg_uncertainty(pair, pair.ground_state())
        lib.oscillator.heisenberg_uncertainty(pair, pair.fock_state(1))
        lib.oscillator.svn_hypotheses_check([pair.X], [pair.P], hbar=hbar)
    elif name.startswith("gns-"):
        a = f["algebra"]
        alg = lib.gns.AbstractStarAlgebra(_pairs(a["mult"]), _pairs(a["invol"]),
                                          _pairs(a["unit"]))
        omega = lib.gns.AlgebraicState(alg, _pairs(f["state"]["values"]))
        triple = lib.gns.gns_construct(alg, omega)
        lib.gns.verify_gns(triple, alg, omega)
        lib.algebras.commutant(triple.pi_images, triple.rep_dim)


# --- the workloads ---------------------------------------------------------------

def _sweep():
    return [
        Kind("spectral_generic", 2, 64, make_spectral_generic, run_spectral,
             check_spectral, "spectral"),
        Kind("spectral_degenerate", 2, 64, make_spectral_degenerate,
             run_spectral, check_spectral, "spectral"),
        Kind("evolve", 2, 64, make_evolve, run_evolve_pair, check_evolve_pair,
             "dynamics"),
        Kind("noether_conserved", 2, 16, make_noether(True), run_noether,
             check_noether, "dynamics"),
        Kind("noether_free", 2, 16, make_noether(False), run_noether,
             check_noether, "dynamics"),
        Kind("lattice", 2, 16, make_projector_pair, run_lattice, check_lattice,
             "lattice"),
        Kind("tomography", 3, 8, make_tomography, run_tomography,
             check_tomography, "states"),
    ]


def _large():
    return [
        Kind("spectral", 128, 256, make_spectral_generic, run_spectral,
             check_spectral, "spectral"),
        Kind("evolve", 128, 256, make_evolve, run_evolve, check_evolve,
             "dynamics"),
        Kind("heisenberg", 128, 256, make_heisenberg, run_heisenberg,
             check_heisenberg, "dynamics"),
        Kind("meet_join", 128, 256, make_projector_pair, run_meet_join,
             check_meet_join, "lattice"),
        Kind("luders", 128, 256, make_luders, run_luders, check_luders,
             "states"),
    ]


def _algebras():
    kinds = []
    for family, (_, defect) in FAMILIES.items():
        kinds.append(Kind(
            f"commutant_{family}", 4, 24, _make_family(family),
            run_commutant, check_commutant, "algebras",
            known_defect=_returns_wrong_commutant if defect else _no_defect))
        kinds.append(Kind(
            f"algebra_{family}", 4, ALGEBRA_CAP[family], _make_family(family),
            run_algebra, check_algebra, "algebras",
            known_defect=_generated_by_not_closed if defect else _no_defect))
    kinds += [
        Kind("sectors", 4, 16, make_sectors, run_sectors, check_sectors,
             "algebras"),
        Kind("paradox_gns", 2, 4, make_paradox, run_paradox, check_paradox,
             "gns"),
        Kind("svn", 12, 24, make_svn, run_svn, check_svn, "oscillator"),
    ]
    return kinds


def _cli():
    return [
        Kind("demo", 1, 1, make_cli_demo, run_cli, check_cli_demo, "cli",
             direct=direct_demo),
        Kind("spectral", 8, 32, make_cli_spectral, run_cli, check_cli_spectral,
             "cli", direct=direct_spectral),
        Kind("evolve", 32, 96, make_cli_evolve, run_cli, check_cli_evolve,
             "cli", direct=direct_evolve),
        Kind("gleason_fit", 4, 8, make_cli_gleason, run_cli, check_cli_gleason,
             "cli", direct=direct_gleason),
        Kind("commutant", 2, 6, make_cli_commutant, run_cli,
             check_cli_commutant, "cli", direct=direct_commutant),
    ]


# name -> (job kinds, inputs per kind in the pool; a power of two).
WORKLOADS = {
    "sweep": (_sweep, 32),
    "large": (_large, 8),
    "algebras": (_algebras, 8),
    "cli": (_cli, 16),
}
