"""Why the warm starts of 60 noisy fits stop.

Usage, from anywhere:

    python3 scripts/probe_fits.py

Fits ``generate(300, 40, 4, noise_sigma=sigma, orientation=o, seed=s)`` for
every orientation o, sigma in {0.01, 0.05} and seed s in 1..10, each with
3 restarts and ``SolverConfig(seed=s)``: 60 fits, 180 restarts.  For each
(orientation, sigma) cell it prints how many restarts stopped for each
``stop_reason``, the median rounds of a restart, and the median over the
fits of the relative gap (restart 0's objective - best) / best between
restart 0 and the best restart; then the reason counts over all cells.  It
imports the ``smf`` of the checkout it lies in and only prints.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REASONS = ("floor", "plateau", "second_rise", "rank_deficient", "zero_w", "cap")
SIGMAS = (0.01, 0.05)
SEEDS = range(1, 11)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from smf import Orientation, SolverConfig, factorize, generate

    start = time.perf_counter()
    total = Counter()
    print(f"{'orientation':<12}{'sigma':>6}" + "".join(f"{r:>15}" for r in REASONS)
          + f"{'rounds':>8}{'gap0':>10}")
    for orientation in Orientation:
        for sigma in SIGMAS:
            reasons, rounds, gaps = Counter(), [], []
            for seed in SEEDS:
                x, _ = generate(300, 40, 4, noise_sigma=sigma, orientation=orientation,
                                seed=seed)
                res = factorize(x, SolverConfig(rank=4, orientation=orientation,
                                                restarts=3, seed=seed))
                reasons.update(e["stop_reason"] for e in res.stats)
                rounds.extend(e["rounds"] for e in res.stats)
                gaps.append((res.restart_objectives[0] - res.objective) / res.objective)
            total += reasons
            print(f"{orientation.value:<12}{sigma:>6}"
                  + "".join(f"{reasons[r]:>15}" for r in REASONS)
                  + f"{statistics.median(rounds):>8g}{statistics.median(gaps):>10.2e}")
    print("all: " + ", ".join(f"{r} {total[r]}" for r in REASONS)
          + f" of {sum(total.values())} restarts, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
