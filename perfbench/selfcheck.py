"""The benchmark's own check.

    python3 perfbench/selfcheck.py [--seconds 1] [--workload sweep ...]

Runs every workload briefly, untraced and traced, and asserts that
  * every end-to-end and per-layer metric the benchmark defines appears in
    the output with its unit,
  * the result line holds exactly the metrics BENCHMARK.json lists, with
    the units listed there,
  * in the traced run, each job's span self times sum to no more than the
    job's wall time (recomputed from the spans file),
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits with a code other than 0 and prints no result.
Exits with 1 and names every failed assertion, 0 when all hold.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms",
              "peak_rss_mb", "error_rate")
PER_LAYER = tuple(f"{layer}.{m}" for layer in spans.LAYERS
                  for m in ("calls", "busy_s", "share", "failed",
                            "peak_alloc_mb")) + (
    "ref.eigh_s", "spectral.overhead_x", "dynamics.evolve_overhead_x",
    "dynamics.noether_overhead_x", "lattice.jauch_over_meet_x",
    "states.frame_s", "states.gleason_fit_s", "algebras.commutant_s",
    "algebras.center_s", "gns.construct_s", "gns.verify_s", "cli.overhead_x",
    "cli.out_mb", "trace.overhead_x")
MACHINE = ("numpy", "blas", "nproc", "thread_env", "mem_total_mb")


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_run(bench, workload, trace, seconds, problems):
    def fail(msg):
        problems.append(f"{workload} trace {trace}: {msg}")

    done = run(bench["command"] + ["--workload", workload, "--seed", "1",
                                   "--seconds", str(seconds),
                                   "--trace", str(trace)], ROOT)
    if done.returncode != 0:
        return fail(f"exit {done.returncode}: {done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not result["correct"]:
        fail("outputs not correct")
    listed = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"result metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(want)) or 'units'}")
    report = json.loads(next(ln for ln in lines if ln.startswith("report: "))
                        [len("report: "):])
    for name in PER_LAYER if trace else END_TO_END:
        unit = report["metrics"].get(name, {}).get("unit")
        if not unit:
            fail(f"metric {name} missing or without unit")
    missing = [k for k in MACHINE if k not in report["machine"]]
    if missing:
        fail(f"machine block lacks {missing}")
    if trace:
        data = json.loads((ROOT / report["spans_file"]).read_text())
        recorded = [spans.Span(s["id"], s["name"], s["start"], s["end"],
                               s["parent"], s["job"]) for s in data["spans"]]
        bad = spans.job_self_time_violations(recorded)
        if bad or not recorded:
            fail(f"span self times exceed job wall time in jobs {bad[:5]}")
    elif not {"percentile", "jobs"} <= set(report.get("tail", {})):
        fail("tail percentile or job count not stated")


def check_bare(bench, problems):
    """Only BENCHMARK.json and the benchmark's directories: must fail."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(bench["command"] + ["--workload", "sweep", "--seed", "1",
                                       "--seconds", "1", "--trace", "0"], bare)
        if done.returncode == 0 or '"correct"' in done.stdout:
            problems.append("bare directory: the command did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check_run(bench, w, trace, args.seconds, problems)
    check_bare(bench, problems)
    for msg in problems:
        print("FAIL", msg)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
