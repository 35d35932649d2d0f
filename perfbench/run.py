"""oplattice benchmark: one workload, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Closed loop: one caller in this process runs one job at a time. Set-up
(import of oplattice, input generation, warm-up) is timed on its own, and
jobs run for --seconds of wall time; the untraced run repeats the set-up
before each tenth of the loop and reports its median. Only the library
calls of a job are timed; its check runs after, outside the timed span.
The untraced run scales its times to the machine's reference speed (see
speed.py). The last line of standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Everything before it is the human-readable report. See
perfbench/README.md for the workloads and the meaning of every metric.
"""
import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
# Reserved for confirming a claimed gain; never used while tuning.
CONFIRM_SEED = 150806951


def _cap_blas_threads():
    """One BLAS thread unless the environment asks for more, and never more
    than the processors this process may run on. Must run before numpy is
    imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, nproc)))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; "
                        f"{CONFIRM_SEED} is reserved for confirming claims)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_oplattice():
    """Import the library from this checkout's src/ and return the seconds
    it took. numpy is first imported here, so its cost is part of it."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import oplattice
    elapsed = time.perf_counter() - t0
    where = Path(oplattice.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"oplattice imported from {where}, not from "
                          f"{ROOT / 'src'}")
    return elapsed


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    _cap_blas_threads()
    try:
        import_s = _import_oplattice()
        sys.path.insert(0, str(ROOT / "tests"))   # tests/oracles.py
        import oracles  # noqa: F401  (the checks' independent routes)
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    return harness.run(args, import_s)


if __name__ == "__main__":
    raise SystemExit(main())
