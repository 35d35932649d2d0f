"""The machine's speed while a run measures, read from a fixed reference
computation run between jobs.

On a shared host the same job can take 30% longer for tens of seconds and
then recover, so raw wall times of two runs of the same code disagree by
more than any bound a benchmark could set. The reference is plain numpy and
Python on fixed inputs, chosen to load what the workloads load: small
LAPACK calls, BLAS-3 products, an SVD of a tall complex matrix, interpreter
work and JSON round trips. It never calls oplattice, so a change to the
library leaves it alone. A time measured at moment t is scaled by
REF_S / (the reference's time around t): the result is the time the job
would take on the machine at its reference speed, in the same unit.
"""
import bisect
import json
import statistics
import time

import numpy as np

# A fixed scale: about the time of one reference unit at a quiet moment of
# the machine the bounds were set on (2 vCPUs of a shared x86-64 host, numpy
# with OpenBLAS, one BLAS thread; busy moments read up to 3.4 ms). Only the
# scale of the adjusted times hangs on it, never their ratios.
REF_S = 2.0e-3
INTERVAL_S = 0.1     # loop time between two reference samples
WINDOW = 15          # samples whose median gives the speed around a moment


def _inputs():
    rng = np.random.default_rng(20150825)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    herm = [M + M.conj().T for M in (cplx(n, n) for n in (4, 8, 16, 32))]
    pairs = [[[float(z.real), float(z.imag)] for z in row]
             for row in cplx(8, 8)]
    return herm, cplx(96, 96), cplx(96, 48), {"matrix": pairs}


class Speed:
    """Reference samples (moment, seconds) taken over a run."""

    def __init__(self):
        self.herm, self.square, self.tall, self.doc = _inputs()
        self.times, self.secs = [], []
        self.due = 0.0
        self._unit()            # first-call costs stay out of the samples

    def _unit(self):
        for M in self.herm:
            np.linalg.eigh(M)
        self.square @ self.square
        np.linalg.svd(self.tall, full_matrices=False)
        json.loads(json.dumps(self.doc))
        sum(i * i for i in range(2000))

    def sample(self):
        t0 = time.perf_counter()
        self._unit()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.secs.append(t1 - t0)
        self.due = t1 + INTERVAL_S

    def tick(self):
        """Take a sample if INTERVAL_S has passed since the last one."""
        if time.perf_counter() >= self.due:
            self.sample()

    def factor(self, t):
        """REF_S over the median of the WINDOW samples nearest to moment t:
        multiply a time measured at t by it."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return REF_S / statistics.median(self.secs[lo:lo + WINDOW])

    def median_s(self):
        return statistics.median(self.secs)
