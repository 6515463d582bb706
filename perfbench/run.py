"""Benchmark of the smf package: three workloads, checked outputs, a traced run.

Usage, from the root of a checkout (smf is imported from ``src/``; nothing
needs installing or building):

    python3 perfbench/run.py --workload recover --seed 1 --seconds 30 --trace 0

Workloads (inputs generated from ``--seed``; see ``workloads.py``):

* ``recover``    criterion 5: 200x30 noiseless anchored instances, R=4,
                 penalty mode, 5 restarts, four fits a round, plus three
                 degenerate-input probes (all-zero X, a zero row, X*1e8).
* ``images``     criterion 7: 2400 noisy 19x19 images, downsampled to 81
                 pixels, one projected fit with 1 restart, the reconstruction
                 error, and one retrieval query per image.
* ``topics-cli`` criterion 8's corpus as text through the CLI: build, fit,
                 top-terms, histogram, analyze, and two reruns compared byte
                 for byte.

Everything runs in this process, in a closed loop with one caller, with
``factorize(threads=1)`` and BLAS on one thread.  After set-up the run
repeats rounds of the workload for as long as the next round, judged by
the last one, should end within ``--seconds``; there is always one.

Times are read from ``clock.SteadyClock``, which scales wall time by the
measured speed of the core, because the speed of a shared core swings by
a third within seconds.  A time below is in seconds at the core speed at
which the clock's calibration kernel takes 1 ms.  Uncalibrated round times
are kept in the result file.

End-to-end metrics (``--trace 0``):

* ``setup_s``       importing smf, plus the median of three set-ups, each a
                    small warm-up fit and the generation of the inputs
                    with their files.
* ``wall_s``        median seconds of program time per round (the
                    benchmark's own output checks are left out).
* ``fit_s``         median seconds per fit: one ``factorize`` call, or one
                    ``topics fit`` command.
* ``nonfit_s``      median seconds per round of program calls other than
                    fits: the three probes (recover); downsampling, the
                    reconstruction error and 2400 ``retrieve`` queries
                    (images); the CLI commands but ``topics fit``
                    (topics-cli).
* ``accuracy_frac`` share of instances whose aligned relative H error is
                    below 1e-2 (recover), of queries that return their own
                    index (images), of topics whose top term is a distinct
                    anchor term (topics-cli).
* ``ok_frac``       share of operations, probes included, that passed every
                    check: 1 - failed_frac.
* ``peak_rss_mb``   peak resident memory of the process.

The result line's ``attempted`` and ``failed`` count the workload's own
operations, and ``correct`` is false when one of them fails.  The probes
test how the program answers inputs it cannot fit; they are counted in
``ok_frac`` and ``check.failed_frac`` only.

Per-layer metrics (``--trace 1``): each round runs untraced, then again
traced; ``tracing.py`` wraps each module's public functions from outside.
``.calls``, ``.s``, ``.self_s``, ``.rows`` and ``cli.*`` figures are per
traced round.  ``solver.first_step_s``, ``solver.restart0_*``,
``solver.iterations`` and ``move_frac`` are medians over calls;
``solver.converged_frac`` and ``solver.restart_agree_frac`` are shares of
fits.  ``*.self_s`` is a span's time minus its traced children; the
solver's private SVDs and row projections are not spans, so they stay in
``solver.factorize.self_s``.  ``trace.overhead_s`` is the median over
rounds of the traced minus the untraced time.  ``check.failed_frac`` is
failed over attempted operations, probes included: 1 - ``ok_frac``.

Every run prints a readable report, then the result as the last line, and
writes the result with the environment block to ``.perfbench_out/``; a
traced run also writes its spans there.  Exit status is 2 when smf cannot be
imported from this checkout and 1 when the self-test of the checks fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS on one thread, set before numpy loads.  The matrices are small and
# restarts run one after the other, so a second BLAS thread buys nothing:
# on a 2-vCPU x86-64 machine eight recover fits took 2.4 to 3.7 s with the
# default two threads and 2.9 to 3.8 s with one.  It would only tie the
# timing to a second core, whose speed on a shared host varies on its own
# (see clock.py).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# After the BLAS pinning above.  scipy, which smf imports, is left for the
# timed import of smf.
import numpy as np  # noqa: E402

import tracing  # noqa: E402
from clock import SteadyClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("recover", "images", "topics-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_smf():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import smf
    except ImportError as exc:
        print(f"perfbench: cannot import smf from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(smf.__file__).resolve().parent != src / "smf":
        print(f"perfbench: smf was imported from {smf.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return smf


def _environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _warm_up(smf):
    rng = np.random.default_rng(0)
    w = rng.dirichlet(np.ones(2), size=12)
    h = rng.uniform(0.0, 1.0, size=(2, 6))
    smf.factorize(w @ h, smf.SolverConfig(rank=2, restarts=1, max_iter=20))


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(tally, setup_s, plain_s, nonfit_s):
    total = tally.attempted + tally.probes
    ok = total - tally.failed - tally.probes_failed
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(_median(plain_s), "s"),
        "fit_s": _metric(_median(tally.fit_s), "s"),
        "nonfit_s": _metric(_median(nonfit_s), "s"),
        "accuracy_frac": _metric(tally.hits / max(tally.items, 1), "frac"),
        "ok_frac": _metric(ok / max(total, 1), "frac"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracer, tally, plain_s, traced_s):
    rounds = max(len(traced_s), 1)
    totals = tracer.totals()
    m = {}

    def span(name, calls=False, s=False, self_s=False):
        n, total, own = totals.get(name, (0, 0.0, 0.0))
        if calls:
            m[f"{name}.calls"] = _metric(n / rounds, "count")
        if s:
            m[f"{name}.s"] = _metric(total / rounds, "s")
        if self_s:
            m[f"{name}.self_s"] = _metric(own / rounds, "s")
        return total

    def median(name, unit):
        m[name] = _metric(_median(tracer.samples.get(name, [])), unit)

    def share(name):
        m[name] = _metric(np.mean(tracer.samples.get(name, [0.0])), "frac")

    def rate(name, key, seconds, scale, unit):
        m[name] = _metric(tracer.counts.get(key, 0) / scale / seconds if seconds > 0 else 0.0,
                          unit)

    span("solver.factorize", calls=True, s=True, self_s=True)
    median("solver.first_step_s", "s")
    median("solver.restart0_s", "s")
    median("solver.restart0_steps", "count")
    median("solver.iterations", "count")
    share("solver.converged_frac")
    share("solver.restart_agree_frac")

    for fn in ("pseudoinverse", "frobenius_norm", "numerical_rank", "simplex_project"):
        span(f"linalg.{fn}", calls=True, s=True)
    span("linalg.simplex_project_rows", s=True)
    m["linalg.simplex_project_rows.rows"] = _metric(
        tracer.counts.get("linalg.simplex_project_rows.rows", 0) / rounds, "count")
    span("linalg.row_normalize", s=True)

    span("faces.downsample_2x2", s=True)
    span("faces.retrieve", calls=True, self_s=True)
    retrieve_ms = 1e3 * tracer.durations("faces.retrieve")
    m["faces.retrieve.ms"] = _metric(np.median(retrieve_ms) if retrieve_ms.size else 0.0, "ms")
    m["faces.retrieve.ms_p99"] = _metric(
        np.percentile(retrieve_ms, 99) if retrieve_ms.size else 0.0, "ms")
    span("faces.reconstruction_error", s=True)

    build_s = span("topics.build_corpus", s=True)
    rate("topics.build_corpus.docs_per_s", "topics.build_corpus.docs", build_s, 1.0, "1/s")
    for fn in ("write_corpus", "read_corpus", "top_terms"):
        span(f"topics.{fn}", s=True)
    span("topics.fit_topics", self_s=True)

    span("identify.analysis_report", s=True)
    span("identify.sample_feasible_A", s=True)
    median("identify.sample_feasible_A.move_frac", "frac")

    for fn in ("read_matrix_csv", "write_matrix_csv"):
        seconds = span(f"matrixio.{fn}", s=True)
        rate(f"matrixio.{fn}.mb_per_s", f"matrixio.{fn}.bytes", seconds, 1e6, "MB/s")
    for fn in ("read_matrix_binary", "write_matrix_binary"):
        span(f"matrixio.{fn}", s=True)

    span("cli.main", calls=True, s=True, self_s=True)
    m["cli.exit_nonzero"] = _metric(tracer.counts.get("cli.exit_nonzero", 0) / rounds, "count")
    for name, key in (("cli.build.s", "cli.topics-build.s"), ("cli.analyze.s", "cli.analyze.s"),
                      ("cli.rerun.s", "cli.rerun.s")):
        m[name] = _metric(tracer.counts.get(key, 0.0) / rounds, "s")

    total = tally.attempted + tally.probes
    m["check.failed_frac"] = _metric(
        (tally.failed + tally.probes_failed) / max(total, 1), "frac")
    m["check.probes_failed"] = _metric(
        tally.probes_failed / max(len(plain_s) + len(traced_s), 1), "count")
    m["check.recon_ratio"] = _metric(_median(tally.extra.get("recon_ratio", [])), "ratio")
    m["trace.overhead_s"] = _metric(
        _median([t - p for t, p in zip(traced_s, plain_s)]), "s")
    return m


def _run(args, clock) -> int:
    start = clock.now()
    smf = _import_smf()
    import_s = clock.now() - start

    import checks
    from workloads import WORKLOADS

    setup_fn, round_fn = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        setups, digests = [], set()
        for _ in range(SETUP_REPEATS):
            start = clock.now()
            _warm_up(smf)
            inputs, digest = setup_fn(args.seed, str(workdir))
            setups.append(clock.now() - start)
            digests.add(digest)
        setup_s = import_s + _median(setups)

        problems = checks.self_test(str(workdir))
        if len(digests) != 1:
            problems.append("the same seed gave different inputs")
        if problems:
            for line in problems:
                print(f"perfbench: {line}", file=sys.stderr)
            return 1

        tally = checks.Tally(clock.now)
        if args.trace:
            tracer = tracing.Tracer(clock.now)
            tracer.install()
            tally.tracer = tracer
        plain_s, traced_s, nonfit_s, raw_s = [], [], [], []
        start = time.perf_counter()
        k, last = 0, 0.0
        # Start another round only while it should end within --seconds.
        while k == 0 or time.perf_counter() - start + last <= args.seconds:
            round_start = time.perf_counter()
            # A traced run repeats each round with tracing on, so the
            # overhead compares the same inputs.
            for traced in (False, True) if args.trace else (False,):
                if tracer is not None:
                    tracer.active = traced
                aside_before, calls_before = tally.off_clock_s, len(tally.call_s)
                t0, wall0 = clock.now(), time.perf_counter()
                round_fn(inputs, k, tally)
                dt = clock.now() - t0 - (tally.off_clock_s - aside_before)
                (traced_s if traced else plain_s).append(dt)
                if not traced:
                    nonfit_s.append(sum(tally.call_s[calls_before:]))
                    raw_s.append(time.perf_counter() - wall0)
            if tracer is not None:
                tracer.active = False
            last = time.perf_counter() - round_start
            k += 1

        if tracer is not None:
            tracer.uninstall()
            metrics = _per_layer(tracer, tally, plain_s, traced_s)
            tracer.save(str(OUT / f"trace-{args.workload}.npz"))
        else:
            metrics = _end_to_end(tally, setup_s, plain_s, nonfit_s)
        result = {"correct": tally.failed == 0, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": metrics}
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": {"untraced": len(plain_s), "traced": len(traced_s)},
            "setup": {"import_s": import_s, "setup_s": setups},
            "fits": len(tally.fit_s), "calls": len(tally.call_s),
            "samples": {"fit_s": tally.fit_s, "nonfit_s": nonfit_s, "wall_s": plain_s,
                        "wall_s_uncalibrated": raw_s},
            "clock": {"ticks": clock.ticks, "kernel_s": clock.wall_in_kernel},
            "probes": {"attempted": tally.probes, "failed": tally.probes_failed},
            "errors": tally.errors[:50], "environment": _environment(),
            "result": result,
        }
        with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for key in ("workload", "seed", "rounds", "setup", "fits", "calls", "clock", "probes",
                "environment"):
        print(f"{key}: {json.dumps(report[key])}")
    for err in report["errors"][:10]:
        print(f"failed: {err}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    clock = SteadyClock()
    clock.start()
    try:
        return _run(args, clock)
    finally:
        clock.stop()


if __name__ == "__main__":
    sys.exit(main())
