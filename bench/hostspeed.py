"""Host-speed probe: fixed work, independent of crmgraph, timed beside each operation.

On the 2-vCPU Xeon VM (shared with other tenants, numpy 2.4.6, scipy
1.17.1) where the benchmark was calibrated, speed changes by up to a half
for minutes at a time, while steal time stays near zero. A 30-second run
often sits inside one fast or one slow spell, so raw medians move between
runs by as much as the spells differ. Dividing each timed interval (an
operation, or one set-up) by the time of this probe beside it cancels most
of that. Over 50-second windows of a 5-minute run,
the spread (sd/mean) of medians fell as follows:

- sample-paper draws: from 7.1% to 3.1%;
- fit-paper chains: from 4.0% to 1.9%;
- fit-paper set-ups: from 4.4% to 2.6%.

The probe calls scipy's regularised upper incomplete gamma, the kernel under
``levy.inv_tail_intensity``. It tracked the host's speed for those workloads;
numpy sorting and a pure-Python loop did not. Neither the probe nor its
input depends on crmgraph, so a change to the package cannot move it.
"""

import time

import numpy as np
from scipy.special import gammaincc

# Probe seconds on that VM in a fast spell. Multiplying an operation's
# wall-time-to-probe ratio by this gives seconds at that speed.
REFERENCE_S = 0.1
_REPEATS = 3


class HostSpeedProbe:
    """Times a fixed call of ``gammaincc`` on 100k points."""

    def __init__(self):
        rng = np.random.default_rng(20140101)
        self._x = np.exp(rng.uniform(np.log(1e-6), np.log(30.0), 100_000))

    def measure(self):
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            gammaincc(0.5, self._x)
        return time.perf_counter() - t0
