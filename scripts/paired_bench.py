"""Alternating paired runs of the benchmark from two checkouts.

Usage, from anywhere:

    python3 scripts/paired_bench.py BASE CHANGE --workload topics-cli \
        --seed 1 --seconds 12 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once from the checkout BASE
and once from CHANGE, one after the other; even pairs start with BASE, odd
pairs with CHANGE, so a drift of the machine's speed falls on both sides.
For every end-to-end metric that CHANGE's ``BENCHMARK.json`` declares, the
table gives each side's median and quartiles over the pairs, the change of
the medians, and CHANGE's wins: the pairs in which its value is better than
BASE's in the metric's stated direction (a tie counts for neither side).

A gain "holds" when at least 10 pairs ran, CHANGE wins at least 9 of every
10 of them, and its median is better than BASE's by more than BASE's
interquartile range; with fewer pairs the column reads "few pairs".
Passing the same directory twice is an A/A run, whose spread is the noise
floor.  The script only reports: it exits 0 once every run has given a
result, and 1 when a run fails, prints no JSON result as its last line, or
reports ``"correct"`` other than true.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, help="checkout of the parent")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True,
                   choices=("recover", "images", "topics-cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    # Refused before any run starts: with no pair there is no table to
    # print, a run of no time measures nothing and one of unbounded time
    # never ends.
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0.0 < args.seconds < math.inf:
        p.error(f"--seconds must be positive and finite, got {args.seconds:g}")
    return args


def _run(tree: Path, args) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"paired_bench: {' '.join(cmd)} exited {proc.returncode}")
    # A run that gives no result, or a wrong one, would skew the medians and
    # the win counts, so it ends the comparison.
    try:
        result = json.loads((proc.stdout.strip().splitlines() or [""])[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"paired_bench: {' '.join(cmd)} printed no JSON result line")
    if not (isinstance(result, dict) and result.get("correct") is True):
        raise SystemExit(f"paired_bench: {' '.join(cmd)} gave an incorrect result")
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    args = _parse(argv)
    base, change = args.base.resolve(), args.change.resolve()
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            result = _run(base if side == "base" else change, args)
            runs[side].append(result)
            shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                             for m in metrics)
            print(f"pair {k} {side:6s} correct={result['correct']} {shown}", flush=True)

    kind = "A/A" if base == change else "A/B"
    print(f"\n{kind}: {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{args.pairs} pairs\n  base   {base}\n  change {change}")
    need = math.ceil(0.9 * args.pairs)
    print(f"{'metric':14s} {'base median [q1, q3]':38s} {'change median [q1, q3]':38s}"
          f" {'change':>8s} {'wins':>7s}  gain")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in runs["base"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        (a1, a2, a3), (b1, b2, b3) = _quartiles(a), _quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        gain = (a2 - b2) if lower else (b2 - a2)
        verdict = ("few pairs" if args.pairs < 10
                   else "holds" if wins >= need and gain > a3 - a1 else "no")
        rel = f"{(b2 - a2) / a2:+.1%}" if a2 else "n/a"
        print(f"{name:14s} {f'{a2:.5g} [{a1:.5g}, {a3:.5g}]':38s}"
              f" {f'{b2:.5g} [{b1:.5g}, {b3:.5g}]':38s} {rel:>8s}"
              f" {f'{wins}/{args.pairs}':>7s}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
