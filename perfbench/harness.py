"""Set-up, the measured loop and the metrics of one benchmark run."""
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import betainc

import gen
import machine
import spans
from speed import REF_S, WINDOW, Speed
from workloads import WORKLOADS, Ctx

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 10      # set-ups per untraced run, one before each tenth of
                        # the measured loop; setup_s is their median
TRACED_SHARE = 0.55     # share of --seconds in the traced (timing) loop
ALLOC_SHARE = 0.2       # share in the tracemalloc pass over the same jobs
REPLAY_SHARE = 0.2      # share replaying the same jobs untraced
TAIL_BEYOND = 10        # jobs that must lie beyond the tail percentile
WARMUP_MAX_N = 16

END_TO_END = {          # name -> unit, in the order they are printed
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
    "job_tail_ms": "ms", "peak_rss_mb": "MB", "pass_rate": "ratio",
}
FUNCTION_MEANS = {      # per-layer metric -> traced function, mean s per call
    "states.frame_s": "states.tomography_frame",
    "states.gleason_fit_s": "states.gleason_fit",
    "algebras.commutant_s": "algebras.commutant",
    "algebras.center_s": "algebras.center",
    "gns.construct_s": "gns.gns_construct",
    "gns.verify_s": "gns.verify_gns",
}
MB = 2.0 ** 20


class Item:
    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind, self.data = kind, data


def build_pool(workload, seed, workdir):
    """Generate every input of the run from the seed, in the order the loop
    takes them: rounds of one job per kind. Round 0 holds every kind at the
    top of its size range; after it, kind k's stratified sizes are rotated
    by k places, so that each round mixes small and large inputs."""
    factory, per_kind = WORKLOADS[workload]
    kinds = factory()
    columns = []
    for k, kind in enumerate(kinds):
        rng = np.random.default_rng([seed, k])
        sizes = gen.stratified_sizes(kind.lo, kind.hi, per_kind)
        items = [Item(kind, kind.make(rng, n, Ctx(workdir, j)))
                 for j, n in enumerate(sizes)]
        shift = k % (per_kind - 1)
        columns.append(items[:1] + items[1 + shift:] + items[1:1 + shift])
    pool = [col[j] for j in range(per_kind) for col in columns]
    return kinds, pool, per_kind


def warm_up(kinds, seed, workdir, per_kind):
    """One small job of every kind, so that lazy imports and first-call costs
    are paid before timing. Only the documented defect may raise here."""
    lib = spans.layers()
    for k, kind in enumerate(kinds):
        rng = np.random.default_rng([seed, k, 1])
        n = min(kind.lo, WARMUP_MAX_N)
        data = kind.make(rng, n, Ctx(workdir, per_kind))
        try:
            kind.run(lib, data)
        except Exception as exc:
            if not kind.known_defect(exc):
                raise


def set_up(workload, seed, workdir):
    t0 = time.perf_counter()
    kinds, pool, per_kind = build_pool(workload, seed, workdir)
    warm_up(kinds, seed, workdir, per_kind)
    return kinds, pool, time.perf_counter() - t0


def _layer_of(exc, kind):
    mod = type(exc).__module__ or ""
    return mod.split(".")[1] if mod.startswith("oplattice.") else kind.layer


def measure(pool, lib, seconds, tracer=None, errors=None, start=0,
            min_jobs=0, speed=None):
    """The closed loop: jobs in pool order, cycling over the pool from the
    start-th job of the run, until `seconds` of wall time (checks included)
    have passed and at least min_jobs jobs have run. With a Speed, a
    reference sample is taken between jobs whenever one is due.
    Returns (pool position, kind, job seconds, job start, failing layers,
    expected) per job, expected as _expected gives it; only the library
    calls are inside the job seconds."""
    clock = time.perf_counter
    recs = []
    stop = clock() + seconds
    i = start
    while clock() < stop or i - start < min_jobs:
        if speed is not None:
            speed.tick()
        pos = i % len(pool)
        kind, data = pool[pos].kind, pool[pos].data
        t0 = tracer.begin_job(i) if tracer else clock()
        try:
            out, err = kind.run(lib, data), None
        except Exception as exc:   # a failed job, counted, not fatal
            out, err = None, exc
        dt = tracer.end_job(f"job.{kind.name}", t0) if tracer else clock() - t0
        if err is None:
            try:
                bad = kind.check(data, out)
            except Exception as exc:   # output too malformed to check
                bad, err = [kind.layer], exc
            if tracer:
                for layer in bad:
                    tracer.fail_layer(layer)
        else:
            bad = [_layer_of(err, kind)]
        if bad and errors is not None:
            what = type(err).__name__ if err is not None else "check failed"
            errors[(kind.name, ",".join(bad), what)] += 1
        del out
        # the exception is not kept: its traceback holds the job's arrays
        recs.append((pos, kind, dt, t0, bad, _expected(kind, bad, err)))
        i += 1
    return recs


def _expected(kind, bad, err):
    """A job passed, or failed only in the way its kind's documented defect
    fails (see workloads.Kind.known_defect)."""
    return not bad or (bad == [kind.layer] and kind.known_defect(err))


def quantile(times, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics around it. The inputs differ in size, so neighbouring
    order statistics can lie far apart, and a single one of them jumps with
    the noise of the one or two inputs next to it; this estimate moves
    little."""
    x = np.sort(times)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ x)


def tail(times):
    """Time at the highest percentile with TAIL_BEYOND jobs beyond it, and
    that percentile. With too few jobs it is the maximum, at 100."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0
    q = (n - TAIL_BEYOND) / (n + 1)
    return quantile(times, q), 100.0 * q


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def per_input(recs, speed=None):
    """Pool position -> (median seconds of its runs, passed every run).
    Every input then weighs the same in the metrics, however many times a
    run reached it. With a Speed, each job's time is first scaled to the
    machine's reference speed at the moment it ran."""
    times, ok = {}, {}
    for pos, _, dt, began, bad, _ in recs:
        if speed is not None:
            dt *= speed.factor(began + 0.5 * dt)
        times.setdefault(pos, []).append(dt)
        ok[pos] = ok.get(pos, True) and not bad
    return {pos: (statistics.median(ts), ok[pos]) for pos, ts in times.items()}


def job_metrics(jobs):
    """jobs_per_s, job_p50_ms, job_tail_ms and pass_rate of per_input's
    result, and the tail's percentile."""
    times = [t for t, _ in jobs.values()]
    passed = sum(1 for _, ok in jobs.values() if ok)
    tail_s, pct = tail(times)
    return {"jobs_per_s": passed / sum(times),
            "job_p50_ms": 1e3 * quantile(times, 0.5),
            "job_tail_ms": 1e3 * tail_s,
            "pass_rate": passed / len(jobs)}, pct


IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import oplattice; "
               "print(time.perf_counter() - t)")


def time_import():
    """Seconds to import oplattice, numpy with it, in a fresh interpreter:
    one process can import it only once."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE,
                           str(ROOT / "src")], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout)


def untraced(args, workdir, import_s, errors):
    """The measured loop in SETUP_SAMPLES equal parts, each after an import
    of oplattice in a fresh interpreter and a fresh set-up of the same
    inputs, and at least one whole pass over the pool.
    The set-ups are spread over the run so that their median does not hang
    on the machine's speed at one moment. Set-up and job times are scaled
    to the machine's reference speed (see speed.py); the report keeps the
    wall times as measured."""
    lib = spans.layers()
    speed = Speed()
    setups = []                 # (seconds, moment) of import and of set-up
    ran = []
    for part in range(SETUP_SAMPLES):
        pool = None   # free the old inputs before building them again
        speed.sample()
        began = time.perf_counter()
        imp_s = time_import()
        imported = time.perf_counter()
        _, pool, own_s = set_up(args.workload, args.seed, workdir)
        setups.append(((imp_s, 0.5 * (began + imported)),
                       (own_s, imported + 0.5 * own_s)))
        last = part == SETUP_SAMPLES - 1
        ran += measure(pool, lib, args.seconds / SETUP_SAMPLES,
                       errors=errors, start=len(ran), speed=speed,
                       min_jobs=len(pool) - len(ran) if last else 0)
    speed.sample()
    raw_setups = [i + s for (i, _), (s, _) in setups]
    adj_setups = [sum(s * speed.factor(t) for s, t in parts)
                  for parts in setups]
    values, pct = job_metrics(per_input(ran, speed))
    values["setup_s"] = statistics.median(adj_setups)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    wall, _ = job_metrics(per_input(ran))
    wall["setup_s"] = statistics.median(raw_setups)
    imports = [i for (i, _), _ in setups]
    extra = {"error_rate": {"value": 1.0 - values["pass_rate"],
                            "unit": "ratio"},
             "tail": {"percentile": pct, "jobs": len(pool),
                      "beyond": min(TAIL_BEYOND, len(pool) - 1)},
             "wall_time_metrics": wall,
             "speed": {"ref_s": REF_S, "median_s": speed.median_s(),
                       "samples": len(speed.secs)},
             "import_s": import_s, "import_samples_s": imports,
             "setup_samples_s": raw_setups}
    return ran, metrics, extra


def traced(args, pool, errors):
    clock = time.perf_counter
    tracer = spans.Tracer()
    recs = measure(pool, spans.layers(tracer), TRACED_SHARE * args.seconds,
                   tracer, errors, min_jobs=len(pool))
    floor = {fn: (sum(s for s, _ in kept),
                  sum(spans.eigh_seconds(m) for _, m in kept))
             for fn, kept in tracer.eigh_inputs.items()}

    # Allocation peaks come from a second pass over the same jobs in the
    # same order (largest inputs first), with tracemalloc on.
    alloc = spans.Tracer(track_alloc=True)
    tracemalloc.start()
    try:
        measure(pool, spans.layers(alloc), ALLOC_SHARE * args.seconds, alloc)
    finally:
        tracemalloc.stop()

    # The same jobs again, untraced: the tracing overhead, and the cli
    # calls against the same library calls made directly.
    lib = spans.layers()
    stop = clock() + REPLAY_SHARE * args.seconds
    was = now = via_cli = direct = 0.0
    for pos, kind, dt, *_ in recs:
        if clock() >= stop:
            break
        data = pool[pos].data
        t0 = clock()
        try:
            kind.run(lib, data)
        except Exception:   # known-defect jobs fail here as they did traced
            pass
        t = clock() - t0
        was, now = was + dt, now + t
        if kind.direct is not None:
            t0 = clock()
            kind.direct(lib, data)
            via_cli, direct = via_cli + t, direct + clock() - t0

    # Bytes the cli jobs write over one pass: the traced loop ran every
    # input at least once, so the count never depends on speed.
    out_bytes = sum(os.path.getsize(item.data["out"]) for item in pool
                    if "out" in item.data)
    ref_eigh = sum(spans.eigh_seconds(item.data.get("herm", ()))
                   for item in pool)

    wall = sum(dt for _, _, dt, *_ in recs)
    m = {}
    for L in spans.LAYERS:
        m[f"{L}.calls"] = (tracer.calls[L], "count")
        m[f"{L}.busy_s"] = (tracer.busy[L], "s")
        m[f"{L}.share"] = (_ratio(tracer.busy[L], wall), "ratio")
        m[f"{L}.failed"] = (tracer.failed[L], "count")
        m[f"{L}.peak_alloc_mb"] = (alloc.peak[L] / MB, "MB")

    def over_floor(fn):
        spent, floor_s = floor.get(fn, (0.0, 0.0))
        return (_ratio(spent, floor_s), "x")

    m["ref.eigh_s"] = (ref_eigh, "s")
    m["spectral.overhead_x"] = over_floor("spectral.spectral_decompose")
    m["dynamics.evolve_overhead_x"] = over_floor("dynamics.evolve_unitary")
    m["dynamics.noether_overhead_x"] = over_floor("dynamics.noether_check")
    m["lattice.jauch_over_meet_x"] = (_ratio(
        tracer.fn_time["lattice.jauch_meet"], tracer.fn_time["lattice.meet"]),
        "x")
    for name, fn in FUNCTION_MEANS.items():
        m[name] = (_ratio(tracer.fn_time[fn], tracer.fn_calls[fn]), "s")
    m["cli.overhead_x"] = (_ratio(via_cli, direct), "x")
    m["cli.out_mb"] = (out_bytes / MB, "MB")
    m["trace.overhead_x"] = (_ratio(was, now), "x")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    violations = spans.job_self_time_violations(tracer.spans)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "spans": [s.as_dict() for s in tracer.spans]}))
    extra = {"spans_file": str(path.relative_to(ROOT)),
             "self_time_violations": len(violations),
             "replayed_seconds": now}
    return recs, metrics, extra, not violations


def _print_report(args, mach, recs, metrics, extra, errors, correct):
    jobs = per_input(recs)
    failed = sum(1 for _, ok in jobs.values() if not ok)
    kinds = Counter(kind.name for _, kind, *_ in recs)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    blas = mach["blas"]
    print(f"machine: numpy {mach['numpy']}, {blas['name']} {blas['version']} "
          f"({blas['threads']} BLAS threads), nproc {mach['nproc']}, "
          f"{mach['mem_total_mb']} MB")
    print(f"inputs: {len(jobs)} attempted, {failed} failed, "
          f"{len(kinds)} kinds, {len(recs)} job runs; "
          f"outputs correct: {correct}")
    shown = dict(metrics)
    if "error_rate" in extra:
        shown["error_rate"] = extra["error_rate"]
    for name, mv in shown.items():
        note = ""
        if name in extra.get("wall_time_metrics", {}):
            note = f"  (wall time {extra['wall_time_metrics'][name]:.6g})"
        if name == "job_tail_ms":
            t = extra["tail"]
            note += (f"  (p{t['percentile']:.1f}: {t['beyond']} of "
                     f"{t['jobs']} inputs beyond)")
        print(f"  {name:32s} {mv['value']:14.6g} {mv['unit']}{note}")
    for (kind, layers, what), count in sorted(errors.items()):
        print(f"  failed: {count} x {kind} in {layers} ({what})")
    print("report: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": mach, "metrics": shown,
        "jobs_by_kind": dict(kinds),
        "failures": [{"kind": k, "layers": l, "what": w, "count": c}
                     for (k, l, w), c in sorted(errors.items())],
        **{k: v for k, v in extra.items() if k != "error_rate"}}))


def run(args, import_s):
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        errors = Counter()
        if args.trace:
            _, pool, _ = set_up(args.workload, args.seed, workdir)
            ran, metrics, extra, spans_ok = traced(args, pool, errors)
        else:
            ran, metrics, extra = untraced(args, workdir, import_s, errors)
            spans_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = spans_ok and all(expected for *_, expected in ran)
    _print_report(args, machine.machine_block(), ran, metrics, extra, errors,
                  correct)
    jobs = per_input(ran)
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": sum(1 for _, ok in jobs.values() if not ok),
        "metrics": metrics,
    }))
    return 0
