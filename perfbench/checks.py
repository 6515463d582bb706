"""Output checks and the tally of operations, independent of smf's own checks.

Nothing here calls smf: feasibility, alignment and the binary matrix reader
are re-implemented with numpy and scipy, so a defect in the package cannot
hide itself by also breaking the check that should catch it.
"""

from __future__ import annotations

import os
import struct
import tempfile
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

# Feasibility promise of the two solver modes (README: penalty 1e-3,
# projected 1e-9).
EPS_PENALTY = 1e-3
EPS_PROJECTED = 1e-9


class Tally:
    """Timings and outcomes of one run's operations.

    An operation is one program call together with the checks on its
    output.  It fails when the call raises or a check does not hold; each
    failed operation counts once.  Degenerate-input probes are tallied
    apart from the workload's own operations (see ``probe``).
    """

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.fit_s = []
        self.call_s = []
        self.hits = 0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.probes = 0
        self.probes_failed = 0
        self.off_clock_s = 0.0
        self.errors = []
        self.extra = {}
        # Set to a tracing.Tracer during traced rounds; probes pause it.
        self.tracer = None

    def _run(self, what, fn):
        try:
            ok = bool(fn())
            detail = "check failed"
        except Exception as exc:  # any exception is one failed operation
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.errors.append(f"{what}: {detail}")
        return ok

    def op(self, what, fn):
        """Run one operation; ``fn`` returns whether every check held."""
        self.attempted += 1
        ok = self._run(what, fn)
        self.failed += not ok
        return ok

    def probe(self, what, fn):
        """Run one degenerate-input probe; see ``op``.

        Probes are not traced, so the solver's per-fit figures describe
        the workload's own fits only.
        """
        self.probes += 1
        paused = self.tracer is not None and self.tracer.active
        if paused:
            self.tracer.active = False
        try:
            ok = self._run(what, fn)
        finally:
            if paused:
                self.tracer.active = True
        self.probes_failed += not ok
        return ok

    def record(self, key, value):
        self.extra.setdefault(key, []).append(float(value))

    def timed(self, sink, fn, *args, **kwargs):
        """Call ``fn`` and append its duration in seconds to ``sink``, also
        when it raises."""
        start = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(self.now() - start)

    def off_clock(self, fn, *args):
        """Run the benchmark's own work (a check, a clean-up), keeping its
        time out of the round's wall time."""
        start = self.now()
        try:
            return fn(*args)
        finally:
            self.off_clock_s += self.now() - start


def feasibility_gap(w, h, w_stochastic: bool, h_stochastic: bool) -> float:
    """Largest violation of W, H >= 0, the declared unit row sums, and
    H <= 1 where the rows of H are not constrained to sum to 1."""
    w = np.asarray(w, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    gaps = [np.max(-w), np.max(-h), 0.0]
    if w_stochastic:
        gaps.append(np.max(np.abs(w.sum(axis=1) - 1.0)))
    if h_stochastic:
        gaps.append(np.max(np.abs(h.sum(axis=1) - 1.0)))
    else:
        gaps.append(np.max(h - 1.0))
    gap = float(max(gaps))
    return gap if np.all(np.isfinite(w)) and np.all(np.isfinite(h)) else np.inf


def factors_ok(w, h, w_stochastic: bool, h_stochastic: bool, eps: float) -> bool:
    return feasibility_gap(w, h, w_stochastic, h_stochastic) <= eps


def monotone(trace) -> bool:
    """True when the objective trace never increases."""
    t = np.asarray(trace, dtype=np.float64)
    return t.size > 0 and bool(np.all(np.diff(t) <= 0.0))


def aligned_error(h_est, h_true) -> float:
    """Relative Frobenius error of ``h_est`` after the best row matching."""
    a = np.asarray(h_est, dtype=np.float64)
    b = np.asarray(h_true, dtype=np.float64)
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()) / np.linalg.norm(b))


def read_smfmat(path) -> np.ndarray:
    """Read the ``SMFMAT01`` binary matrix format: magic, two little-endian
    u64 (rows, cols), then float64 little-endian row-major values."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != b"SMFMAT01":
        raise ValueError(f"{path}: bad magic")
    rows, cols = struct.unpack("<QQ", raw[8:24])
    return np.frombuffer(raw, dtype="<f8", offset=24).reshape(rows, cols)


def same_bytes(path_a, path_b) -> bool:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


def self_test(workdir) -> list:
    """Check that each deliberate defect counts as exactly one failure.

    Returns a list of messages, empty when every check behaves.
    """
    problems = []
    rng = np.random.default_rng(0)
    w = rng.dirichlet(np.ones(3), size=6)
    h = rng.uniform(0.0, 1.0, size=(3, 5))

    def feasible_projected(w_):
        return factors_ok(w_, h, True, False, EPS_PROJECTED)

    bad_w = w.copy()
    bad_w[2, 0] += 1e-2
    cases = [
        ("feasible W", lambda: feasible_projected(w), 0),
        ("W row sum off by 1e-2", lambda: feasible_projected(bad_w), 1),
        ("raised exception", lambda: 1 / 0, 1),
    ]
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        payload = bytes(range(256)) * 4
        flipped = bytearray(payload)
        flipped[100] ^= 0x01
        for path, data in ((a, payload), (b, bytes(flipped))):
            with open(path, "wb") as fh:
                fh.write(data)
        cases += [("equal bytes", lambda: same_bytes(a, a), 0),
                  ("one flipped byte", lambda: same_bytes(a, b), 1)]
        for name, check, expected in cases:
            tally = Tally()
            tally.op(name, check)
            if (tally.attempted, tally.failed) != (1, expected):
                problems.append(f"self-test {name}: attempted {tally.attempted}, "
                                f"failed {tally.failed}, expected 1 and {expected}")
    return problems
