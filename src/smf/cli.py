"""Command-line interface: reproducible batch runs with on-disk artifacts.

Every command writes its outputs plus a ``manifest.json`` into ``--out-dir``
(default ``./smf-out``), which is made, parents included, at the run's first
write; an empty ``--out-dir``, or one that is, or lies under, an existing
file, is refused before the command runs.  The manifest records the
subcommand, every resolved option (input paths made absolute, so a run can
be repeated from any directory), the SHA-256 of each input file, taken
before the run, the package version, and the BLAS thread settings with the
CPU count; ``smf rerun manifest.json`` refuses input files added, missing or
changed since the recorded run, re-executes the run and reproduces all
output files byte for byte under the same BLAS threading, and warns when
that differs (the manifest itself carries the wall-clock duration and is
excluded from that guarantee).  A fit's own bits do not depend on the BLAS
threading where its ``result.json`` records ``blas_pinned``; the warning is
for the work that runs outside the pin, such as analyze's sampler and
faces retrieve.

Exit codes: 0 success, 2 usage or input error, 3 numerical failure.  A fit
whose factors are not feasible within ``EPS_FEAS_PROJECTED`` exits 3 after
writing all of its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from . import __version__
from .factors import FactorPair, Orientation
from .faces import (downsample_2x2, read_pgm, reconstruct, reconstruction_error,
                    retrieve, write_pgm)
from .identify import (DEFAULT_ZERO_TOL_ESTIMATED, DegenerateFactorError,
                       analysis_report, sample_feasible_A)
from .matrixio import read_matrix, write_matrix_binary, write_matrix_csv
from .solver import (EXACT_FIT_TOL, InvalidInputError, Mode, RankDeficientError,
                     SolverConfig, factorize)
from .topics import (TopicModel, _read_lines, build_corpus, fit_topics,
                     read_corpus, write_corpus, write_histogram_csv,
                     write_top_terms_csv)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_MANIFEST_NAME = "manifest.json"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _out(out_dir: str, name: str) -> str:
    # The output directory is made at a run's first write, so a run refused
    # before it leaves no directory behind.
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _check_out_dir(out_dir: str) -> None:
    # An empty out-dir, or one that is, or lies under, an existing
    # non-directory, is refused before the run's work, not at its first write.
    if not (isinstance(out_dir, str) and out_dir):
        raise InvalidInputError(f"--out-dir must be a path, not {out_dir!r}")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise InvalidInputError(f"--out-dir {out_dir}: {path} is not a directory")


def _dump_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_matrix(matrix, out_dir: str, stem: str, binary: bool) -> None:
    write = write_matrix_binary if binary else write_matrix_csv
    write(_out(out_dir, f"{stem}.bin" if binary else f"{stem}.csv"), matrix)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads() -> dict:
    # What sets the BLAS thread count, on which a fit's bits depend.
    threads = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    threads["cpu_count"] = os.cpu_count()
    return threads


def _write_manifest(command: str, options: dict, inputs: list, out_dir: str,
                    duration: float) -> None:
    manifest = {
        "command": command,
        "options": options,
        "inputs": inputs,
        "version": __version__,
        "duration_seconds": duration,
        "blas_threads": _blas_threads(),
    }
    _dump_json(manifest, _out(out_dir, _MANIFEST_NAME))


def _load_factors(w_path: str, h_path: str, orientation: Orientation) -> FactorPair:
    return FactorPair(w=read_matrix(w_path), h=read_matrix(h_path),
                      orientation=orientation)


def _solver_config(args) -> SolverConfig:
    # A manifest written while --tol existed records "tol"; only a run at the
    # now fixed exact-fit tolerance can reproduce its bytes.
    tol = vars(args).get("tol", EXACT_FIT_TOL)
    if tol != EXACT_FIT_TOL:
        raise InvalidInputError(f"--tol was removed: the exact-fit tolerance is "
                                f"fixed at {EXACT_FIT_TOL:g}, so a run recorded "
                                f"with tol {tol!r} cannot be reproduced")
    return SolverConfig(
        rank=args.rank,
        orientation=Orientation(args.orientation),
        restarts=args.restarts,
        seed=args.seed,
        mode=args.mode,
    )


def _result_payload(result) -> dict:
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
            if f.name != "factors"}


def _write_fit(result, out_dir: str, binary: bool) -> int:
    # The files are written either way; factors outside the feasibility
    # tolerance make the run a numerical failure.
    _write_matrix(result.factors.w, out_dir, "W", binary)
    _write_matrix(result.factors.h, out_dir, "H", binary)
    _dump_json(_result_payload(result), _out(out_dir, "result.json"))
    if result.feasible:
        return EXIT_OK
    print(f"numerical failure: fitted factors violate feasibility by "
          f"{result.max_violation:.3e}", file=sys.stderr)
    return EXIT_NUMERICAL


# Each handler is given the input paths that _execute resolved and hashed
# (only faces ingest reads that list; the others read their named path
# options) and returns the exit code.

def _cmd_factorize(args, out_dir: str, paths: list) -> int:
    result = factorize(read_matrix(args.input), _solver_config(args))
    return _write_fit(result, out_dir, args.binary)


def _cmd_analyze(args, out_dir: str, paths: list) -> int:
    if args.samples < 0:
        raise InvalidInputError(f"--samples must be at least 0, not {args.samples}")
    factors = _load_factors(args.w, args.h, Orientation(args.orientation))
    report = analysis_report(factors, zero_tol=args.zero_tol)
    if args.samples > 0:
        samples = sample_feasible_A(factors, args.samples, seed=args.seed,
                                    step=args.step, zero_tol=args.zero_tol)
        bounds = {(b["r1"], b["r2"]): b for b in report["bounds"]}
        row_dev = 0.0
        checked = outside = 0
        # A state the walk keeps is recorded again as the same object, so
        # each distinct sample is checked once and counted once per record.
        repeats = Counter(map(id, samples))
        for s in {id(s): s for s in samples}.values():
            a = s.a
            row_dev = max(row_dev, float(np.max(np.abs(a.sum(axis=1) - 1.0))))
            off = a - np.diag(np.diag(a))
            nz = np.argwhere(np.abs(off) > 1e-12)
            if len(nz) == 1:
                r1, r2 = (int(v) for v in nz[0])
                b = bounds[(r1, r2)]
                checked += repeats[id(s)]
                if not (b["lower"] - args.step <= a[r1, r2] <= b["upper"] + args.step):
                    outside += repeats[id(s)]
        report["oracle"] = {
            "n_samples": args.samples,
            "seed": args.seed,
            "step": args.step,
            "max_row_sum_deviation": row_dev,
            "single_axis_checked": checked,
            "single_axis_outside_bounds": outside,
        }
    _dump_json(report, _out(out_dir, "report.json"))
    return EXIT_OK


def _as_ingested(img):
    # faces ingest stores a 19x19 picture as its 9x9 block means.
    return downsample_2x2(img) if img.pixels.shape == (19, 19) else img


def _cmd_faces_ingest(args, out_dir: str, paths: list) -> int:
    if not paths:
        raise InvalidInputError(f"no .pgm files found in {args.directory}")
    rows = [_as_ingested(read_pgm(path)).flatten() for path in paths]
    if len({r.size for r in rows}) > 1:
        raise InvalidInputError("all images must share the same dimensions")
    _write_matrix(np.vstack(rows), out_dir, "X", args.binary)
    with open(_out(out_dir, "files.txt"), "w", encoding="utf-8") as fh:
        for path in paths:
            fh.write(os.path.basename(path) + "\n")
    return EXIT_OK


def _cmd_faces_reconstruct(args, out_dir: str, paths: list) -> int:
    factors = _load_factors(args.w, args.h, Orientation.W_ROWS_SUM_TO_1)
    if not (0 <= args.row < factors.w.shape[0]):
        raise InvalidInputError(
            f"--row must be in 0..{factors.w.shape[0] - 1}"
        )
    img = reconstruct(factors.w[args.row], factors.h)
    write_pgm(img, _out(out_dir, "reconstruction.pgm"), binary=args.binary)
    return EXIT_OK


def _cmd_faces_retrieve(args, out_dir: str, paths: list) -> int:
    factors = _load_factors(args.w, args.h, Orientation.W_ROWS_SUM_TO_1)
    query = read_pgm(args.query)
    # A model of 81 pixels holds ingested pictures, so a 19x19 query is
    # taken down to 9x9 as ingest takes its pictures.
    if factors.h.shape[1] == 81:
        query = _as_ingested(query)
    index, distance = retrieve(query, factors)
    _dump_json({"index": index, "distance": distance},
               _out(out_dir, "retrieval.json"))
    return EXIT_OK


def _cmd_faces_error(args, out_dir: str, paths: list) -> int:
    factors = _load_factors(args.w, args.h, Orientation.W_ROWS_SUM_TO_1)
    x = read_matrix(args.input)
    err = reconstruction_error(x, factors)
    _dump_json({"reconstruction_error": err}, _out(out_dir, "error.json"))
    return EXIT_OK


def _cmd_topics_build(args, out_dir: str, paths: list) -> int:
    # A document is a stripped non-blank line; the stripped whitespace is
    # never part of a token.
    stop_words = _read_lines(args.stop_words) if args.stop_words else ()
    corpus = build_corpus(_read_lines(args.corpus), stop_words=stop_words,
                          min_doc_fraction=args.min_doc_fraction)
    write_corpus(corpus, _out(out_dir, "doc_term.csv"), _out(out_dir, "vocab.txt"))
    return EXIT_OK


def _cmd_topics_fit(args, out_dir: str, paths: list) -> int:
    corpus = read_corpus(args.doc_term, args.vocab)
    model = fit_topics(corpus, _solver_config(args))
    return _write_fit(model.solve_result, out_dir, args.binary)


def _load_topic_model(args) -> TopicModel:
    return TopicModel(factors=_load_factors(args.w, args.h, Orientation.BOTH),
                      vocabulary=_read_lines(args.vocab))


def _cmd_topics_top_terms(args, out_dir: str, paths: list) -> int:
    model = _load_topic_model(args)
    write_top_terms_csv(model, args.k, _out(out_dir, "top_terms.csv"))
    return EXIT_OK


def _cmd_topics_histogram(args, out_dir: str, paths: list) -> int:
    model = _load_topic_model(args)
    write_histogram_csv(model, _out(out_dir, "histogram.csv"))
    return EXIT_OK


_HANDLERS = {
    "factorize": _cmd_factorize,
    "analyze": _cmd_analyze,
    "faces-ingest": _cmd_faces_ingest,
    "faces-reconstruct": _cmd_faces_reconstruct,
    "faces-retrieve": _cmd_faces_retrieve,
    "faces-error": _cmd_faces_error,
    "topics-build": _cmd_topics_build,
    "topics-fit": _cmd_topics_fit,
    "topics-top-terms": _cmd_topics_top_terms,
    "topics-histogram": _cmd_topics_histogram,
}


def _add_out_dir(parser) -> None:
    parser.add_argument("--out-dir", default="./smf-out",
                        help="output directory (default ./smf-out)")


def _add_solver_flags(parser) -> None:
    parser.add_argument("--rank", type=int, required=True,
                        help="number of factors R")
    parser.add_argument("--orientation", default="w-rows",
                        choices=[o.value for o in Orientation],
                        help="which factor rows sum to 1 (default w-rows)")
    parser.add_argument("--mode", default="projected",
                        choices=[m.value for m in Mode],
                        help="constraint handling (projected, the only mode)")
    parser.add_argument("--restarts", type=int, default=5,
                        help="up to k starts (default 5); restart 0 runs first "
                             "and ends the fit alone if its objective is within "
                             "%g times |X|_F" % EXACT_FIT_TOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; with two usable CPUs a "
                             "large fit runs restarts 1..k-1 beside restart 0")
    parser.add_argument("--binary", action="store_true",
                        help="write matrices in the binary container")


# Built once per process: parse_args leaves the parser as it found it, and
# every default it hands out is immutable.
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smf",
        description="Row-stochastic matrix factorization toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Input paths are made absolute, so a manifest reruns from any directory.
    path = os.path.abspath

    p = sub.add_parser("factorize", help="fit W,H to a data matrix")
    p.add_argument("input", type=path, help="data matrix (CSV or binary)")
    _add_solver_flags(p)
    _add_out_dir(p)

    p = sub.add_parser("analyze", help="uniqueness and bounds report")
    p.add_argument("w", type=path, help="W matrix path")
    p.add_argument("h", type=path, help="H matrix path")
    p.add_argument("--orientation", default="w-rows",
                   choices=[o.value for o in Orientation])
    p.add_argument("--zero-tol", type=float, default=DEFAULT_ZERO_TOL_ESTIMATED,
                   help="threshold below which entries count as zero "
                        "(default %(default)g; use 0 for exact factors)")
    p.add_argument("--samples", type=int, default=1000,
                   help="feasible-A oracle samples (0 disables)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=0.05,
                   help="sampler proposal scale")
    _add_out_dir(p)

    faces = sub.add_parser("faces", help="gray-scale image pipeline")
    fsub = faces.add_subparsers(dest="faces_command", required=True)

    p = fsub.add_parser("ingest", help="directory of PGMs to a data matrix")
    p.add_argument("directory", type=path)
    p.add_argument("--binary", action="store_true")
    _add_out_dir(p)

    p = fsub.add_parser("reconstruct", help="rebuild one image from factors")
    p.add_argument("w", type=path)
    p.add_argument("h", type=path)
    p.add_argument("--row", type=int, required=True,
                   help="0-based image index")
    p.add_argument("--binary", action="store_true",
                   help="write binary (P5) instead of ASCII (P2)")
    _add_out_dir(p)

    p = fsub.add_parser("retrieve", help="nearest stored image for a query")
    p.add_argument("query", type=path, help="query image (PGM)")
    p.add_argument("w", type=path)
    p.add_argument("h", type=path)
    _add_out_dir(p)

    p = fsub.add_parser("error", help="mean squared reconstruction error")
    p.add_argument("input", type=path, help="data matrix the factors were fit to")
    p.add_argument("w", type=path)
    p.add_argument("h", type=path)
    _add_out_dir(p)

    topics = sub.add_parser("topics", help="bag-of-words topic pipeline")
    tsub = topics.add_subparsers(dest="topics_command", required=True)

    p = tsub.add_parser("build", help="corpus text to doc-term matrix")
    p.add_argument("corpus", type=path, help="one document per line, UTF-8")
    p.add_argument("--stop-words", type=path, default=None,
                   help="file with one stop word per line")
    p.add_argument("--min-doc-fraction", type=float, default=0.005,
                   help="minimum document frequency for a term (default 0.005)")
    _add_out_dir(p)

    p = tsub.add_parser("fit", help="fit topics to a doc-term matrix")
    p.add_argument("doc_term", type=path, help="doc-term count matrix (CSV or binary)")
    p.add_argument("vocab", type=path, help="vocabulary sidecar, one term per line")
    _add_solver_flags(p)
    p.set_defaults(orientation="both")
    _add_out_dir(p)

    p = tsub.add_parser("top-terms", help="most probable terms per topic")
    p.add_argument("w", type=path)
    p.add_argument("h", type=path)
    p.add_argument("vocab", type=path)
    p.add_argument("--k", type=int, default=5)
    _add_out_dir(p)

    p = tsub.add_parser("histogram", help="documents per most-probable topic")
    p.add_argument("w", type=path)
    p.add_argument("h", type=path)
    p.add_argument("vocab", type=path)
    _add_out_dir(p)

    p = sub.add_parser("rerun", help="re-execute a recorded run")
    p.add_argument("manifest", help="manifest.json from a previous run")
    p.add_argument("--out-dir", default=None,
                   help="override the recorded output directory")

    return parser


def _command_key(args) -> str:
    if args.command == "faces":
        return f"faces-{args.faces_command}"
    if args.command == "topics":
        return f"topics-{args.topics_command}"
    return args.command


_NON_OPTION_KEYS = {"command", "faces_command", "topics_command"}


def _options_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NON_OPTION_KEYS}


# A command's options: reading one that a rerun manifest lacks is an input error.
class _Options(argparse.Namespace):
    def __getattr__(self, name):
        raise InvalidInputError(f"manifest options lack {name!r}")


# The path options that name a run's input files, in the order its manifest
# lists them; faces ingest reads the sorted .pgm listing of its directory.
_INPUT_OPTIONS = ("query", "input", "corpus", "stop_words", "doc_term", "w", "h", "vocab")


def _input_paths(command: str, args) -> list:
    if command == "faces-ingest":
        return [os.path.join(args.directory, n)
                for n in sorted(os.listdir(args.directory)) if n.lower().endswith(".pgm")]
    return [path for path in map(vars(args).get, _INPUT_OPTIONS) if path]


def _hash_inputs(paths: list, recorded) -> list:
    # The manifest's input entries, each file hashed once.  A rerun passes the
    # recorded entries and is refused when a file was added, is missing or
    # holds other bytes.
    then = [e["path"] for e in recorded or ()]
    if recorded is not None and paths != then:
        what = ([f"{p} was added" for p in paths if p not in then]
                + [f"{q} is missing" for q in then if q not in paths]
                + ["their order differs"])
        raise InvalidInputError(f"inputs changed since the recorded run: {what[0]}")
    inputs = [{"path": p, "sha256": _sha256(p)} for p in paths]
    for entry, old in zip(inputs, recorded or ()):
        if entry["sha256"] != old["sha256"]:
            raise InvalidInputError(
                f"input {entry['path']} changed since the recorded run "
                f"(sha256 {entry['sha256']} != {old['sha256']})"
            )
    return inputs


def _execute(command: str, options: dict, recorded=None) -> int:
    # Everything a run reads is decided and hashed before its handler runs,
    # so the manifest records the inputs as they were read.
    args = _Options(**options)
    _check_out_dir(args.out_dir)
    paths = _input_paths(command, args)
    inputs = _hash_inputs(paths, recorded)
    start = time.monotonic()
    status = _HANDLERS[command](args, args.out_dir, paths)
    _write_manifest(command, options, inputs, args.out_dir, time.monotonic() - start)
    return status


def _rerun(args) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise InvalidInputError("manifest is not a JSON object")
    command, options, inputs = map(manifest.get, ("command", "options", "inputs"))
    if not (isinstance(command, str) and command in _HANDLERS):
        raise InvalidInputError(f"manifest names unknown command {command!r}")
    if not (isinstance(options, dict) and isinstance(inputs, list)
            and all(isinstance(e, dict) and isinstance(e.get("path"), str)
                    and isinstance(e.get("sha256"), str) for e in inputs)):
        raise InvalidInputError("manifest lacks an options object or a list of "
                                "input path and sha256 entries")
    recorded, current = manifest.get("blas_threads"), _blas_threads()
    if recorded is not None and recorded != current:
        print(f"warning: BLAS threading {current} differs from the recorded "
              f"{recorded}; a fit may not reproduce byte for byte",
              file=sys.stderr)
    options = dict(options)
    if args.out_dir is not None:
        options["out_dir"] = args.out_dir
    return _execute(command, options, inputs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            return _rerun(args)
        return _execute(_command_key(args), _options_dict(args))
    except (RankDeficientError, DegenerateFactorError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
