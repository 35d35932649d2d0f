"""Calls into the library's layers, traced from outside.

A layer is one oplattice module. Workload code reaches the library only
through the namespace layers() returns: untraced, its attributes are the
modules themselves; traced, every public callable is wrapped so that each
call records one span and per-layer counters.
"""
import importlib
import time
import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

LAYERS = ("linalg", "spectral", "lattice", "states", "algebras",
          "dynamics", "oscillator", "gns", "cli")

# Arguments whose raw eigh is the LAPACK floor of a call, by span name. The
# ratio metrics divide the calls' time by eigh on exactly these inputs.
EIGH_ARGS = {
    "spectral.spectral_decompose": (0,),
    "dynamics.evolve_unitary": (0,),
    "dynamics.noether_check": (0, 1),
}
# A cap on the inputs kept per function, so memory stays flat however many
# calls a run makes; the ratios use the first EIGH_KEEP calls.
EIGH_KEEP = 2000


def as_array(x):
    return np.asarray(getattr(x, "matrix", x))


def eigh_seconds(mats):
    t = 0.0
    for M in mats:
        t0 = time.perf_counter()
        np.linalg.eigh(M)
        t += time.perf_counter() - t0
    return t


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "job")

    def __init__(self, sid, name, start, end, parent, job):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.job = parent, job

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job}


class Tracer:
    """Spans held in memory, one per call into a layer's public function,
    each a child of its job's span, and per-layer counters. With track_alloc
    it also keeps each layer's largest tracemalloc peak during one call;
    tracemalloc must then be running, and it slows Python-heavy calls
    several times over, so timing and allocation passes are kept apart."""

    def __init__(self, track_alloc=False):
        self.track_alloc = track_alloc
        self.spans = []
        self.job = None            # (span id, job id) of the open job span
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.failed = defaultdict(int)
        self.peak = defaultdict(int)
        self.fn_time = defaultdict(float)
        self.fn_calls = defaultdict(int)
        self.eigh_inputs = defaultdict(list)   # fn -> [(seconds, [mats])]

    def begin_job(self, job_id):
        self.job = (len(self.spans), job_id)
        self.spans.append(None)    # placeholder, filled by end_job
        return time.perf_counter()

    def end_job(self, name, start):
        end = time.perf_counter()
        sid, job_id = self.job
        self.spans[sid] = Span(sid, name, start, end, None, job_id)
        self.job = None
        return end - start

    def call(self, name, fn, args, kwargs):
        layer = name.split(".", 1)[0]
        if self.track_alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[layer] += 1
            raise
        finally:
            end = time.perf_counter()
            if self.track_alloc:
                self.peak[layer] = max(self.peak[layer],
                                       tracemalloc.get_traced_memory()[1] - base)
            parent, job_id = self.job if self.job else (None, None)
            self.spans.append(Span(len(self.spans), name, start, end,
                                   parent, job_id))
            self.calls[layer] += 1
            self.busy[layer] += end - start
            self.fn_time[name] += end - start
            self.fn_calls[name] += 1
            keep = self.eigh_inputs[name] if name in EIGH_ARGS else None
            if keep is not None and len(keep) < EIGH_KEEP:
                keep.append((end - start,
                             [as_array(args[i]) for i in EIGH_ARGS[name]]))

    def fail_layer(self, layer):
        """A job's output from this layer failed its check."""
        self.failed[layer] += 1


class _Traced:
    """A library callable (function or class) whose calls go through the
    tracer; attribute access reaches class methods such as
    MatrixStarAlgebra.generated_by, traced under their dotted name."""

    __slots__ = ("_tracer", "_name", "_target")

    def __init__(self, tracer, name, target):
        self._tracer, self._name, self._target = tracer, name, target

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._target, args, kwargs)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if callable(value):
            return _Traced(self._tracer, f"{self._name}.{attr}", value)
        return value


def layers(tracer=None):
    """Namespace with one attribute per layer. Untraced it holds the modules
    themselves, so the benchmark adds nothing to an untraced call."""
    mods = {name: importlib.import_module(f"oplattice.{name}")
            for name in LAYERS}
    if tracer is None:
        return SimpleNamespace(**mods)
    out = {}
    for name, mod in mods.items():
        public = {}
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not callable(value):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue   # re-exports are traced in their own layer
            public[attr] = _Traced(tracer, f"{name}.{attr}", value)
        out[name] = SimpleNamespace(**public)
    return SimpleNamespace(**out)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children. Returns {span id: seconds}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def job_self_time_violations(spans, slack=1e-9):
    """Jobs whose spans' self times sum to more than the job's wall time.

    A child span that overlaps a sibling or outlives its job covers part of
    the job's interval twice or not at all, and pushes the sum over.
    """
    selfs = self_times(spans)
    per_job = defaultdict(float)
    wall = {}
    for s in spans:
        per_job[s.job] += selfs[s.sid]
        if s.parent is None:
            wall[s.job] = s.end - s.start
    return [j for j, total in per_job.items()
            if j not in wall or total > wall[j] + slack]
