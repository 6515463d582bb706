"""Spans around calls into smf's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every name
under which an ``smf`` module holds it (``smf.solver.pseudoinverse``,
``smf.faces.simplex_project``, ``smf.cli.factorize``, ...), so calls between
modules are seen without editing the package.  Private helpers, such as the
solver's own SVD and row projection, are not wrapped: their time stays in
the caller's self time.

Each span keeps a name, start, end and parent in flat arrays in memory;
``save`` writes them out once the run is over.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

TARGETS = {
    "solver": ("factorize",),
    "linalg": ("pseudoinverse", "frobenius_norm", "numerical_rank",
               "simplex_project", "simplex_project_rows", "row_normalize"),
    "faces": ("downsample_2x2", "retrieve", "reconstruction_error"),
    "topics": ("build_corpus", "write_corpus", "read_corpus", "top_terms",
               "fit_topics"),
    "identify": ("analysis_report", "sample_feasible_A"),
    "matrixio": ("read_matrix_csv", "write_matrix_csv", "read_matrix_binary",
                 "write_matrix_binary"),
    "cli": ("main",),
}

# Objectives within this share of the best restart's (or within the
# absolute floor, for fits that reach zero) count as the same optimum.
_AGREE_REL = 0.01
_AGREE_ABS = 1e-8


class Tracer:
    def __init__(self, now=time.perf_counter):
        self.now = now
        self.active = False
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack = []
        self.counts = {}
        self.samples = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.now())
        return idx

    def _close(self, idx: int) -> float:
        now = self.now()
        self._stack.pop()
        self.end[idx] = now
        dur = now - self.start[idx]
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += dur
        return dur

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(float(value))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, out, dur)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_factorize(self, fn):
        """Span for ``factorize`` that also watches restart 0's progress.

        When the caller passes no progress callback, one is supplied; it
        records when restart 0 takes its first and its last accepted
        descent step, measured from entry to ``factorize``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or kwargs.get("progress") is not None:
                return fn(*args, **kwargs)
            steps = []
            kwargs["progress"] = lambda it, obj: steps.append(tracer.now())
            idx = tracer._open("solver.factorize")
            t0 = tracer.start[idx]
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.sample("solver.restart0_steps", len(steps))
            if steps:
                tracer.sample("solver.first_step_s", steps[0] - t0)
                tracer.sample("solver.restart0_s", steps[-1] - t0)
            objs = np.asarray(out.restart_objectives, dtype=np.float64)
            best = objs.min()
            agree = objs <= best + max(_AGREE_REL * abs(best), _AGREE_ABS)
            tracer.sample("solver.iterations", out.iterations)
            tracer.sample("solver.converged_frac", float(out.converged))
            tracer.sample("solver.restart_agree_frac", float(agree.mean()))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever smf holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "smf" or n.startswith("smf."))]
        for short, fns in TARGETS.items():
            home = sys.modules[f"smf.{short}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                name = f"{short}.{fn_name}"
                if name == "solver.factorize":
                    wrapped = self._wrap_factorize(orig)
                else:
                    wrapped = self._wrap(name, orig, _AFTER.get(name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: ``(calls, seconds, self seconds)``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        child = np.frombuffer(self.child, dtype=np.float64)
        n = len(self.names)
        dur = end - start
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span called ``name``."""
        nid = self._ids.get(name)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[ids == nid] if nid is not None else dur[:0]

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _rows(tracer, args, kwargs, out, dur):
    tracer.count("linalg.simplex_project_rows.rows", np.shape(args[0])[0])


def _file_bytes(key):
    # The path is the first argument of every matrixio reader and writer;
    # after a write the file holds what was written.
    def hook(tracer, args, kwargs, out, dur):
        tracer.count(key, os.path.getsize(args[0]))
    return hook


def _docs(tracer, args, kwargs, out, dur):
    tracer.count("topics.build_corpus.docs", len(args[0]))


def _moves(tracer, args, kwargs, out, dur):
    prev = np.eye(out[0].a.shape[0])
    moved = 0
    for s in out:
        moved += not np.array_equal(s.a, prev)
        prev = s.a
    tracer.sample("identify.sample_feasible_A.move_frac", moved / len(out))


def _cli(tracer, args, kwargs, out, dur):
    argv = args[0] if args else kwargs["argv"]
    if out != 0:
        tracer.count("cli.exit_nonzero")
    command = argv[0] if argv[0] != "topics" else f"topics-{argv[1]}"
    tracer.count(f"cli.{command}.s", dur)


_AFTER = {
    "linalg.simplex_project_rows": _rows,
    "matrixio.read_matrix_csv": _file_bytes("matrixio.read_matrix_csv.bytes"),
    "matrixio.write_matrix_csv": _file_bytes("matrixio.write_matrix_csv.bytes"),
    "topics.build_corpus": _docs,
    "identify.sample_feasible_A": _moves,
    "cli.main": _cli,
}
