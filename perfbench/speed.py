"""Reference-speed scaling of wall times.

On a shared host the speed of a vCPU drifts by a factor of up to ~1.8
over seconds (measured: a fixed pure-Python loop took 17-29 ms per call
over three minutes, with no steal time visible in the guest).  Such drift
slows a fixed reference computation and the benchmark's operations alike,
so the benchmark times the reference before every operation and scales
the operation's wall time by REF_NOMINAL_S over the median of the recent
reference times.  Scaled figures are those of a machine running at the
reference's nominal speed; unscaled figures are printed next to them.
"""

from __future__ import annotations

import collections
import statistics
import time

import numpy as np

# Median time of one reference run on the machine the benchmark was
# defined on (2-vCPU Xeon VM, Python 3.11, OpenBLAS on one thread).
REF_NOMINAL_S = 1.5e-3
REF_LOOPS = 30
REF_WINDOW = 7


class SpeedProbe:
    """Times a fixed numpy-plus-interpreter workload independent of frameiso."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        self._sym = a @ a.T
        self._rect = rng.standard_normal((8, 6))
        # Bound now, so a traced run's wrappers never see the reference.
        self._eigh = np.linalg.eigh
        self._svd = np.linalg.svd
        self._recent = collections.deque(maxlen=REF_WINDOW)
        self.samples = []
        for _ in range(REF_WINDOW):  # warm-up fills the window
            self.sample()
        self.samples.clear()

    def _reference(self) -> float:
        acc = 0.0
        for _ in range(REF_LOOPS):
            acc += float(self._eigh(self._sym)[0][0])
            acc += float(self._svd(self._rect, compute_uv=False)[0])
            acc += sum(k * 0.5 for k in range(30))
        return acc

    def sample(self) -> float:
        """Time the reference once; return the current wall-time scale."""
        start = time.perf_counter()
        self._reference()
        took = time.perf_counter() - start
        self._recent.append(took)
        self.samples.append(took)
        return REF_NOMINAL_S / statistics.median(self._recent)
