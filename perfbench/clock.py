"""A clock that runs at the speed of the core, not of the wall.

On a host shared with other tenants the speed of a core can swing by 30%
or more within seconds, independently on each core: on a 2-vCPU x86-64
virtual machine, repeated runs of identical work differed by up to 40% in
wall time.  This clock cancels that: every ``PERIOD_S`` of wall time a signal
handler, running in the measured thread itself, times a fixed calibration
kernel (small SVDs and products, like the program's own work) and scales
the wall time since the last tick by ``KERNEL_NOMINAL_S`` over the
kernel's time.  A reading is therefore in seconds at the core speed at
which the kernel takes ``KERNEL_NOMINAL_S``.  The handler's own time is
left out.  On that machine, twelve identical fits that took 3.6 to 5.7 s
of wall time read 3.24 to 3.48 s on this clock.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
KERNEL_NOMINAL_S = 1e-3
_KERNEL_ROUNDS = 10


class SteadyClock:
    """Start with ``start``; read with ``now``; always ``stop``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(size=(10, 81))
        self._b = rng.uniform(size=(200, 81))
        # (clock reading, wall time of the last tick, clock seconds per wall
        # second), replaced as one object so a tick cannot tear a read.
        self._state = (0.0, time.perf_counter(), 1.0)
        self.ticks = 0
        self.wall_in_kernel = 0.0

    def _kernel(self):
        for _ in range(_KERNEL_ROUNDS):
            u, s, vt = np.linalg.svd(self._a, full_matrices=False)
            w = self._b @ ((vt.T / s) @ u.T)
            float(np.sqrt(np.sum(w * w)))

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reading, last, rate = self._state
        reading += (t0 - last) * rate
        self._kernel()
        t1 = time.perf_counter()
        self._state = (reading, t1, KERNEL_NOMINAL_S / (t1 - t0))
        self.ticks += 1
        self.wall_in_kernel += t1 - t0

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        reading, last, rate = self._state
        return reading + (time.perf_counter() - last) * rate
