"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import smf
from smf import (
    FactorPair,
    GrayImage,
    Orientation,
    analysis_report,
    downsample_2x2,
    generate,
    natural_bounds,
    read_matrix,
    read_matrix_binary,
    read_pgm,
    retrieve,
    row_normalize,
    sample_feasible_A,
    write_corpus,
    write_matrix_csv,
    write_pgm,
)
from smf import cli, solver
from smf.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from smf.solver import InvalidInputError


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_instance(tmp_path, seed=0, shape=(20, 8), rank=2):
    x, gt = generate(shape[0], shape[1], rank, anchors=True, seed=seed,
                     orientation=Orientation.W_ROWS_SUM_TO_1)
    path = tmp_path / "X.csv"
    write_matrix_csv(path, x)
    return path, gt


# --------------------------------------------------------------- factorize


def test_json_files_are_written_as_json_dump_streams_them(tmp_path):
    payload = {
        "z": [0.1, -0.0, 1e-300, 2.5e300, float("inf"), float("nan"), 3, True, None],
        "a": {"nested": {"b": [1, [2.0, {"c": "\u00e9t\u00e9"}]], "a": []},
              "\u65e5\u672c": "\U0001f600"},
        "m": "tab\tquote\"backslash\\",
    }
    cli._dump_json(payload, str(tmp_path / "one.json"))
    with open(tmp_path / "streamed.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "streamed.json").read_bytes()


def test_factorize_writes_artifacts(tmp_path):
    x_path, _ = write_instance(tmp_path)
    out = tmp_path / "run"
    code = run_cli("factorize", x_path, "--rank", 2, "--restarts", 2,
                   "--out-dir", out)
    assert code == EXIT_OK
    w = read_matrix(out / "W.csv")
    h = read_matrix(out / "H.csv")
    assert w.shape == (20, 2)
    assert h.shape == (2, 8)
    result = json.loads((out / "result.json").read_text())
    assert set(result) == {"objective", "iterations", "converged",
                           "best_restart", "restart_objectives",
                           "objective_trace", "max_violation", "feasible",
                           "blas_pinned", "stop_reason", "stats"}
    assert result["feasible"] is (result["max_violation"]
                                  <= solver.EPS_FEAS_PROJECTED)
    assert result["objective"] == result["objective_trace"][-1]
    # On this noiseless input restart 0 is an exact fit (objective at most
    # EXACT_FIT_TOL times |X|_F), so restart 1 does not run.
    assert len(result["restart_objectives"]) == 1
    assert result["converged"] is (result["stop_reason"] in ("floor", "plateau"))
    assert [e["index"] for e in result["stats"]] == [0]
    x = read_matrix(x_path)
    assert result["objective"] <= solver.EXACT_FIT_TOL * np.linalg.norm(x)


def fit_must_not_run(*args, **kwargs):
    raise AssertionError("the fit ran")


def assert_out_dir_refused_before_the_fit(tmp_path, capsys, monkeypatch, out):
    # Exit 2 before the fit runs; the file and its folder are as they were.
    monkeypatch.setattr(cli, "factorize", fit_must_not_run)
    x_path, _ = write_instance(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    code = run_cli("factorize", x_path, "--rank", 2, "--restarts", 1,
                   "--out-dir", out)
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --out-dir ")
    assert (tmp_path / "taken").read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_an_out_dir_that_is_a_file_is_an_input_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "taken").write_bytes(b"keep me\n")
    assert_out_dir_refused_before_the_fit(tmp_path, capsys, monkeypatch,
                                          tmp_path / "taken")


def test_an_out_dir_under_a_file_is_an_input_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "taken").write_bytes(b"keep me\n")
    assert_out_dir_refused_before_the_fit(tmp_path, capsys, monkeypatch,
                                          tmp_path / "taken" / "run")


def test_an_out_dir_that_is_a_dangling_symlink_is_an_input_error(tmp_path, capsys,
                                                                monkeypatch):
    (tmp_path / "taken").write_bytes(b"keep me\n")
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    assert_out_dir_refused_before_the_fit(tmp_path, capsys, monkeypatch,
                                          tmp_path / "link")


def test_rerun_into_an_out_dir_that_is_a_file_is_refused_before_the_fit(
        tmp_path, capsys, monkeypatch):
    x_path, _ = write_instance(tmp_path)
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 1,
                   "--out-dir", tmp_path / "run1") == EXIT_OK
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep me\n")
    monkeypatch.setattr(cli, "factorize", fit_must_not_run)
    assert run_cli("rerun", tmp_path / "run1" / "manifest.json",
                   "--out-dir", taken) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --out-dir ")
    assert taken.read_bytes() == b"keep me\n"


def test_rerun_of_a_manifest_whose_out_dir_is_not_a_path_is_an_input_error(
        tmp_path, capsys):
    x_path, _ = write_instance(tmp_path)
    out1 = tmp_path / "run1"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 1,
                   "--out-dir", out1) == EXIT_OK
    edit_options(out1 / "manifest.json", out_dir=None)
    assert run_cli("rerun", out1 / "manifest.json") == EXIT_INPUT
    assert "--out-dir must be a path" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["run", "rerun flag", "manifest"])
def test_an_empty_out_dir_is_refused_before_the_fit(tmp_path, capsys, monkeypatch,
                                                    how):
    # The absolute path of "" is the working directory, so "" would pass the
    # directory test and fail only at the first write, after the fit.
    x_path, _ = write_instance(tmp_path)
    manifest = tmp_path / "run1" / "manifest.json"
    if how != "run":
        assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 1,
                       "--out-dir", tmp_path / "run1") == EXIT_OK
    monkeypatch.setattr(cli, "factorize", fit_must_not_run)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    if how == "run":
        argv = ["factorize", x_path, "--rank", 2, "--restarts", 1, "--out-dir", ""]
    elif how == "rerun flag":
        argv = ["rerun", manifest, "--out-dir", ""]
    else:
        edit_options(manifest, out_dir="")
        argv = ["rerun", manifest]
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: --out-dir ")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_factorize_records_its_input_as_read_before_the_run(tmp_path, capsys):
    # Inputs are hashed before the run, so a run that overwrites its input
    # (W.csv in its own out-dir) records the bytes it read, and a rerun of
    # it is refused rather than fitting the run's own output.
    x_path, _ = write_instance(tmp_path)
    d = tmp_path / "d"
    d.mkdir()
    source = d / "W.csv"
    source.write_bytes(x_path.read_bytes())
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    assert run_cli("factorize", source, "--rank", 2, "--restarts", 1,
                   "--out-dir", d) == EXIT_OK
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["inputs"] == [{"path": str(source), "sha256": digest}]
    assert hashlib.sha256(source.read_bytes()).hexdigest() != digest
    again = tmp_path / "again"
    assert run_cli("rerun", d / "manifest.json", "--out-dir", again) == EXIT_INPUT
    assert f"input {source} changed since the recorded run" in capsys.readouterr().err
    assert not again.exists()


def test_factorize_lists_every_restart_of_a_noisy_fit(tmp_path):
    x, _ = generate(20, 8, 2, seed=0, noise_sigma=0.05,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    x_path = tmp_path / "X.csv"
    write_matrix_csv(x_path, x)
    out = tmp_path / "run"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 2,
                   "--mode", "projected", "--out-dir", out) == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    assert len(result["restart_objectives"]) == 2
    assert result["objective"] == min(result["restart_objectives"])
    # Each restart that ran, in index order, with why its warm start stopped.
    stats = result["stats"]
    assert [e["index"] for e in stats] == [0, 1]
    assert all(set(e) == {"index", "rounds", "discarded", "stop_reason"} for e in stats)
    assert all(0 <= e["discarded"] < e["rounds"] for e in stats)
    assert stats[result["best_restart"]]["rounds"] == result["iterations"]
    assert stats[result["best_restart"]]["stop_reason"] == result["stop_reason"]
    again = tmp_path / "again"
    assert run_cli("rerun", out / "manifest.json", "--out-dir", again) == EXIT_OK
    for name in ("W.csv", "H.csv", "result.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_factorize_manifest_records_run(tmp_path):
    x_path, _ = write_instance(tmp_path, seed=1)
    out = tmp_path / "run"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 2,
                   "--out-dir", out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "factorize"
    assert manifest["version"] == smf.__version__
    assert "weights" not in manifest["options"]
    assert manifest["options"]["mode"] == "projected"
    assert manifest["options"]["orientation"] == "w-rows"
    assert manifest["options"]["seed"] == 0
    (entry,) = manifest["inputs"]
    assert entry["path"] == str(x_path)
    digest = hashlib.sha256(x_path.read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    assert manifest["duration_seconds"] >= 0.0
    # The one BLAS fact is the pin's; the thread settings are not recorded.
    assert manifest["blas_pinned"] is (solver._openblas_threads() is not None)
    assert "blas_threads" not in manifest


def test_factorize_binary_output(tmp_path):
    x_path, _ = write_instance(tmp_path, seed=2)
    out = tmp_path / "run"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 1,
                   "--binary", "--out-dir", out) == EXIT_OK
    assert (out / "W.bin").exists()
    assert not (out / "W.csv").exists()
    w = read_matrix_binary(out / "W.bin")
    assert w.shape == (20, 2)


def test_factorize_rejects_bad_rank(tmp_path, capsys):
    x_path, _ = write_instance(tmp_path, seed=3)
    code = run_cli("factorize", x_path, "--rank", 30,
                   "--out-dir", tmp_path / "run")
    assert code == EXIT_INPUT
    assert "rank" in capsys.readouterr().err


def test_factorize_rejects_missing_file(tmp_path, capsys):
    code = run_cli("factorize", tmp_path / "nope.csv", "--rank", 2,
                   "--out-dir", tmp_path / "run")
    assert code == EXIT_INPUT


def test_factorize_rejects_zero_rows(tmp_path, capsys):
    x_path, _ = write_instance(tmp_path, seed=4)
    x = read_matrix(x_path)
    for name, bad in (("zero-row.csv", np.vstack([x, np.zeros((1, 8))])),
                      ("zero.csv", np.zeros_like(x))):
        write_matrix_csv(tmp_path / name, bad)
        code = run_cli("factorize", tmp_path / name, "--rank", 2,
                       "--out-dir", tmp_path / "run")
        assert code == EXIT_INPUT
        assert "all zero" in capsys.readouterr().err


def test_factorize_rejects_data_above_one(tmp_path, capsys):
    # Rows of W on the simplex and H in [0, 1] cannot reach an entry above 1.
    x_path, _ = write_instance(tmp_path, seed=4)
    x = read_matrix(x_path)
    write_matrix_csv(tmp_path / "big.csv", 2.0 * x / x.max())
    code = run_cli("factorize", tmp_path / "big.csv", "--rank", 2,
                   "--out-dir", tmp_path / "run")
    assert code == EXIT_INPUT
    assert "above 1" in capsys.readouterr().err


def test_factorize_rejects_negative_data(tmp_path, capsys):
    path = tmp_path / "X.csv"
    write_matrix_csv(path, np.array([[0.5, -0.5], [0.2, 0.8], [0.9, 0.1]]))
    code = run_cli("factorize", path, "--rank", 1,
                   "--out-dir", tmp_path / "run")
    assert code == EXIT_INPUT
    assert "negative" in capsys.readouterr().err


def block_corpus_files(tmp_path):
    # The doc-term counts of a 3-topic block corpus (see tests/test_topics.py),
    # its vocabulary, and its term frequencies X.
    from test_topics import block_corpus

    corpus = block_corpus(np.random.default_rng(37))
    write_corpus(corpus, tmp_path / "doc_term.csv", tmp_path / "vocab.txt")
    write_matrix_csv(tmp_path / "X.csv", row_normalize(corpus.doc_term))
    return tmp_path / "doc_term.csv", tmp_path / "vocab.txt", tmp_path / "X.csv"


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_factorize_refuses_a_negative_seed(tmp_path, capsys, sigma):
    # numpy refuses a negative seed only at a random restart, which an exact
    # fit never reaches: the config refuses it on exact and noisy input
    # alike, before any restart runs, and so does a rerun of a manifest that
    # records one.
    x, _ = generate(20, 8, 2, anchors=True, noise_sigma=sigma, seed=0,
                    orientation=Orientation.W_ROWS_SUM_TO_1)
    path = tmp_path / "X.csv"
    write_matrix_csv(path, x)
    out = tmp_path / "run"
    assert run_cli("factorize", path, "--rank", 2, "--restarts", 3, "--seed", -2,
                   "--out-dir", out) == EXIT_INPUT
    assert "seed must be at least 0, not -2" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("factorize", path, "--rank", 2, "--restarts", 3,
                   "--out-dir", out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["options"]["seed"] = -2
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("rerun", out / "manifest.json", "--out-dir", tmp_path / "again") == EXIT_INPUT
    assert "seed must be at least 0, not -2" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("command", ["factorize", "topics-fit"])
def test_infeasible_fit_exits_numerical_after_writing(tmp_path, capsys, command,
                                                     monkeypatch):
    # A solver whose W misses the simplex by 0.01 in every entry, standing in
    # for any defect that returns infeasible factors.
    score = solver._score

    def off_the_simplex(x, h, config):
        obj, w = score(x, h, config)
        return obj, None if w is None else w - 0.01

    monkeypatch.setattr(solver, "_score", off_the_simplex)
    doc_term, vocab, x_path = block_corpus_files(tmp_path)
    out = tmp_path / "run"
    flags = ("--rank", 3, "--orientation", "both",
             "--restarts", 2, "--seed", 0, "--out-dir", out)
    if command == "factorize":
        code = run_cli("factorize", x_path, *flags)
    else:
        code = run_cli("topics", "fit", doc_term, vocab, *flags)
    assert code == EXIT_NUMERICAL
    assert "feasibility" in capsys.readouterr().err
    result = json.loads((out / "result.json").read_text())
    assert result["feasible"] is False
    assert result["max_violation"] > 1e-3
    assert read_matrix(out / "W.csv").shape == (120, 3)
    assert read_matrix(out / "H.csv").shape == (3, 12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    # A rerun reproduces the files and the exit code.
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out / "manifest.json", "--out-dir", out2) == EXIT_NUMERICAL
    for name in ("W.csv", "H.csv", "result.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_feasible_topics_fit_exits_ok(tmp_path):
    doc_term, vocab, _ = block_corpus_files(tmp_path)
    out = tmp_path / "run"
    assert run_cli("topics", "fit", doc_term, vocab, "--rank", 3,
                   "--mode", "projected", "--restarts", 2, "--seed", 0,
                   "--out-dir", out) == EXIT_OK
    assert json.loads((out / "result.json").read_text())["feasible"] is True


# ----------------------------------------------------------------- analyze


def worked_factors(tmp_path):
    w_path = tmp_path / "W.csv"
    h_path = tmp_path / "H.csv"
    write_matrix_csv(w_path, np.array([[0.7, 0.3], [0.4, 0.6]]))
    write_matrix_csv(h_path, np.array([[0.6, 0.4], [0.2, 0.8]]))
    return w_path, h_path


def test_analyze_report_with_oracle(tmp_path):
    w_path, h_path = worked_factors(tmp_path)
    out = tmp_path / "run"
    assert run_cli("analyze", w_path, h_path, "--orientation", "both",
                   "--samples", 400, "--out-dir", out) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["unique"] is False
    b01 = report["bounds"][0]
    assert b01["lower"] == pytest.approx(-3.0 / 7.0, abs=1e-12)
    assert b01["upper"] == pytest.approx(0.5, abs=1e-12)
    oracle = report["oracle"]
    assert oracle["n_samples"] == 400
    assert oracle["max_row_sum_deviation"] <= 1e-10
    assert oracle["single_axis_outside_bounds"] == 0
    assert oracle["single_axis_checked"] > 0


def reference_oracle(w, h, samples, seed, step, zero_tol):
    """The analyze oracle evaluated sample by sample, with the bounds
    recomputed from the factors."""
    pair = smf.FactorPair(w=w, h=h, orientation=Orientation.BOTH)
    bounds = {(b.r1, b.r2): b for b in natural_bounds(pair, zero_tol)}
    row_dev = 0.0
    checked = outside = 0
    for s in sample_feasible_A(pair, samples, seed=seed, step=step,
                               zero_tol=zero_tol):
        a = np.array(s.a)
        row_dev = max(row_dev, float(np.max(np.abs(a.sum(axis=1) - 1.0))))
        off = a - np.diag(np.diag(a))
        nz = np.argwhere(np.abs(off) > 1e-12)
        if len(nz) == 1:
            r1, r2 = (int(v) for v in nz[0])
            b = bounds[(r1, r2)]
            checked += 1
            if not (b.lower - step <= a[r1, r2] <= b.upper + step):
                outside += 1
    return {"n_samples": samples, "seed": seed, "step": step,
            "max_row_sum_deviation": row_dev, "single_axis_checked": checked,
            "single_axis_outside_bounds": outside}


@pytest.mark.parametrize("zero_tol", [0.0, 1e-3])
def test_analyze_oracle_matches_per_sample_loop(tmp_path, zero_tol):
    _, gt = generate(15, 11, 3, anchors=False, seed=104)
    w_path, h_path = tmp_path / "W.csv", tmp_path / "H.csv"
    write_matrix_csv(w_path, gt.w)
    write_matrix_csv(h_path, gt.h)
    out = tmp_path / "run"
    assert run_cli("analyze", w_path, h_path, "--orientation", "both",
                   "--zero-tol", zero_tol, "--samples", 1500, "--seed", 3,
                   "--out-dir", out) == EXIT_OK
    oracle = json.loads((out / "report.json").read_text())["oracle"]
    want = reference_oracle(read_matrix(w_path), read_matrix(h_path), 1500,
                            seed=3, step=0.05, zero_tol=zero_tol)
    assert oracle == want
    assert oracle["single_axis_checked"] > 0


def test_analyze_without_sampling(tmp_path):
    w_path, h_path = worked_factors(tmp_path)
    out = tmp_path / "run"
    assert run_cli("analyze", w_path, h_path, "--samples", 0,
                   "--out-dir", out) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert "oracle" not in report


def test_analyze_refuses_negative_samples(tmp_path, capsys, monkeypatch):
    # 0 disables the oracle; a negative count is an input error, found before
    # the report is built, and makes no directory.
    monkeypatch.setattr(cli, "analysis_report",
                        lambda *a, **k: pytest.fail("the report was built"))
    w_path, h_path = worked_factors(tmp_path)
    out = tmp_path / "run"
    assert run_cli("analyze", w_path, h_path, "--samples", -5,
                   "--out-dir", out) == EXIT_INPUT
    assert "--samples must be at least 0, not -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--zero-tol", "--step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_analyze_refuses_a_tolerance_or_step_that_is_negative_or_not_finite(
        tmp_path, capsys, flag, value):
    # An infinite --zero-tol would read as a factor with empty support (a
    # numerical failure), and a nan or infinite --step would be written into
    # report.json, which JSON cannot hold: both are input errors.
    w_path, h_path = worked_factors(tmp_path)
    out = tmp_path / "run"
    assert run_cli("analyze", w_path, h_path, "--samples", 20, flag, value,
                   "--out-dir", out) == EXIT_INPUT
    name = flag[2:].replace("-", "_")
    assert f"error: {name} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--step", "nan"), ("--step", "inf"),
                                         ("--step", "-1"), ("--seed", "-1")])
def test_analyze_refuses_a_bad_step_or_seed_without_sampling(tmp_path, capsys,
                                                             monkeypatch, flag, value):
    # --samples 0 runs no sampler, but its step and seed are still checked
    # before the report is built: a nan step would reach manifest.json,
    # which JSON cannot hold.
    monkeypatch.setattr(cli, "analysis_report",
                        lambda *a, **k: pytest.fail("the report was built"))
    w_path, h_path = worked_factors(tmp_path)
    out = tmp_path / "run"
    assert run_cli("analyze", w_path, h_path, "--samples", 0, flag, value,
                   "--out-dir", out) == EXIT_INPUT
    assert f"{flag[2:]} must be " in capsys.readouterr().err
    assert not out.exists()


def test_analyze_oracle_counts_samples_outside_narrowed_bounds(tmp_path,
                                                               monkeypatch):
    # The worked pair is not unique; with every reported bound narrowed to
    # [0, 0], the single-axis samples the walk takes beyond +-step count as
    # outside, and the same samples are checked as with the true bounds.
    def narrowed(*args, **kwargs):
        report = analysis_report(*args, **kwargs)
        for b in report["bounds"]:
            b["lower"] = b["upper"] = 0.0
        return report

    w_path, h_path = worked_factors(tmp_path)
    oracles = []
    for out in (tmp_path / "true", tmp_path / "narrowed"):
        assert run_cli("analyze", w_path, h_path, "--orientation", "both",
                       "--samples", 400, "--out-dir", out) == EXIT_OK
        oracles.append(json.loads((out / "report.json").read_text())["oracle"])
        monkeypatch.setattr(cli, "analysis_report", narrowed)
    true, narrow = oracles
    assert true["single_axis_outside_bounds"] == 0
    assert narrow["single_axis_checked"] == true["single_axis_checked"] > 0
    assert 0 < narrow["single_axis_outside_bounds"] <= narrow["single_axis_checked"]


def test_analyze_degenerate_factor_is_numerical_error(tmp_path, capsys):
    w_path = tmp_path / "W.csv"
    h_path = tmp_path / "H.csv"
    write_matrix_csv(w_path, np.array([[0.7, 0.3], [0.4, 0.6]]))
    write_matrix_csv(h_path, np.array([[0.6, 0.4], [0.0, 0.0]]))
    code = run_cli("analyze", w_path, h_path, "--out-dir", tmp_path / "run")
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_analyze_refuses_an_entry_below_minus_zero_tol(tmp_path, capsys):
    w_path = tmp_path / "W.csv"
    h_path = tmp_path / "H.csv"
    write_matrix_csv(w_path, np.array([[1.0, -0.5], [0.0, 1.0]]))
    write_matrix_csv(h_path, np.eye(2))
    out = tmp_path / "run"
    code = run_cli("analyze", w_path, h_path, "--zero-tol", 0.1, "--out-dir", out)
    assert code == EXIT_INPUT
    assert "W[0, 1] = -0.5 lies below -zero_tol" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- faces


def write_face(path, pixels):
    write_pgm(GrayImage(pixels=pixels), path)


def face_set(tmp_path):
    rng = np.random.default_rng(41)
    d = tmp_path / "faces"
    d.mkdir()
    for i in range(3):
        px = rng.integers(0, 256, size=(9, 9)) / 255.0
        write_face(d / f"face{i}.pgm", px)
    return d


def test_faces_ingest(tmp_path):
    d = face_set(tmp_path)
    out = tmp_path / "run"
    assert run_cli("faces", "ingest", d, "--out-dir", out) == EXIT_OK
    x = read_matrix(out / "X.csv")
    assert x.shape == (3, 81)
    names = (out / "files.txt").read_text().splitlines()
    assert names == ["face0.pgm", "face1.pgm", "face2.pgm"]


def test_faces_ingest_downsamples_19x19(tmp_path):
    d = tmp_path / "faces"
    d.mkdir()
    write_face(d / "big.pgm", np.full((19, 19), 100 / 255.0))
    write_face(d / "small.pgm", np.zeros((9, 9)))
    out = tmp_path / "run"
    assert run_cli("faces", "ingest", d, "--out-dir", out) == EXIT_OK
    x = read_matrix(out / "X.csv")
    assert x.shape == (2, 81)
    assert np.allclose(x[0], 100 / 255.0, atol=1e-12)


def test_faces_ingest_rejects_mixed_sizes(tmp_path, capsys):
    d = tmp_path / "faces"
    d.mkdir()
    write_face(d / "a.pgm", np.zeros((9, 9)))
    write_face(d / "b.pgm", np.zeros((4, 4)))
    assert run_cli("faces", "ingest", d,
                   "--out-dir", tmp_path / "run") == EXIT_INPUT
    assert "same dimensions" in capsys.readouterr().err


def test_faces_ingest_rejects_empty_dir(tmp_path):
    d = tmp_path / "faces"
    d.mkdir()
    assert run_cli("faces", "ingest", d,
                   "--out-dir", tmp_path / "run") == EXIT_INPUT


def faces_model(tmp_path):
    # 4 base images of 4 pixels, 5 stored images with simplex weights
    rng = np.random.default_rng(43)
    h = rng.uniform(0.0, 1.0, size=(2, 4))
    w = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
    w_path = tmp_path / "Wm.csv"
    h_path = tmp_path / "Hm.csv"
    write_matrix_csv(w_path, w)
    write_matrix_csv(h_path, h)
    return w, h, w_path, h_path


def test_faces_reconstruct_row(tmp_path):
    w, h, w_path, h_path = faces_model(tmp_path)
    out = tmp_path / "run"
    assert run_cli("faces", "reconstruct", w_path, h_path, "--row", 2,
                   "--out-dir", out) == EXIT_OK
    img = read_pgm(out / "reconstruction.pgm")
    want = (w[2] @ h).reshape(2, 2)
    assert np.max(np.abs(img.pixels - want)) <= 0.5 / 255.0 + 1e-12


def test_faces_reconstruct_row_out_of_range(tmp_path, capsys):
    _, _, w_path, h_path = faces_model(tmp_path)
    assert run_cli("faces", "reconstruct", w_path, h_path, "--row", 99,
                   "--out-dir", tmp_path / "run") == EXIT_INPUT
    assert "--row" in capsys.readouterr().err


def test_faces_retrieve_and_error(tmp_path):
    w, h, w_path, h_path = faces_model(tmp_path)
    x = w @ h
    x_path = tmp_path / "Xf.csv"
    write_matrix_csv(x_path, x)
    query_path = tmp_path / "query.pgm"
    write_pgm(GrayImage(pixels=x[3].reshape(2, 2)), query_path)
    out = tmp_path / "runq"
    assert run_cli("faces", "retrieve", query_path, w_path, h_path,
                   "--out-dir", out) == EXIT_OK
    got = json.loads((out / "retrieval.json").read_text())
    assert got["index"] == 3
    assert got["distance"] < 0.05

    out2 = tmp_path / "rune"
    assert run_cli("faces", "error", x_path, w_path, h_path,
                   "--out-dir", out2) == EXIT_OK
    err = json.loads((out2 / "error.json").read_text())
    assert err["reconstruction_error"] < 1e-12


@pytest.mark.parametrize("pixels", [81, 361])
def test_faces_retrieve_takes_a_19x19_query_as_ingest_stores_it(tmp_path, pixels):
    # A model of 81 pixels holds pictures that ingest took down to 9x9, so a
    # 19x19 query is downsampled the same way; a model of 361 pixels takes
    # the query as it is.  Either answer is the library's.
    rng = np.random.default_rng(47)
    w_path, h_path = tmp_path / "W.csv", tmp_path / "H.csv"
    write_matrix_csv(w_path, row_normalize(rng.uniform(0.1, 1.0, size=(6, 3))))
    write_matrix_csv(h_path, rng.uniform(0.0, 1.0, size=(3, pixels)))
    query_path = tmp_path / "query.pgm"
    write_face(query_path, rng.integers(0, 256, size=(19, 19)) / 255.0)
    out = tmp_path / "hit"
    assert run_cli("faces", "retrieve", query_path, w_path, h_path,
                   "--out-dir", out) == EXIT_OK
    got = json.loads((out / "retrieval.json").read_text())
    factors = FactorPair(w=read_matrix(w_path), h=read_matrix(h_path),
                         orientation=Orientation.W_ROWS_SUM_TO_1)
    query = read_pgm(query_path)
    if pixels == 81:
        query = downsample_2x2(query)
    assert (got["index"], got["distance"]) == retrieve(query, factors)


# ------------------------------------------------------------------ topics


def corpus_file(tmp_path):
    lines = [
        "apple banana apple fruit",
        "banana fruit salad",
        "apple fruit banana",
        "stock market shares trading",
        "market stock price",
        "shares trading market",
    ]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_topics_build(tmp_path):
    out = tmp_path / "run"
    assert run_cli("topics", "build", corpus_file(tmp_path),
                   "--out-dir", out) == EXIT_OK
    vocab = (out / "vocab.txt").read_text().splitlines()
    assert vocab == sorted(vocab)
    assert "apple" in vocab and "market" in vocab
    dt = read_matrix(out / "doc_term.csv")
    assert dt.shape == (6, len(vocab))
    assert dt[0, vocab.index("apple")] == 2.0


def test_topics_build_with_stop_words(tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_text("fruit\nmarket\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("topics", "build", corpus_file(tmp_path),
                   "--stop-words", stop, "--out-dir", out) == EXIT_OK
    vocab = (out / "vocab.txt").read_text().splitlines()
    assert "fruit" not in vocab
    assert "market" not in vocab


def test_topics_fit_top_terms_histogram(tmp_path):
    build_out = tmp_path / "build"
    assert run_cli("topics", "build", corpus_file(tmp_path),
                   "--out-dir", build_out) == EXIT_OK
    fit_out = tmp_path / "fit"
    assert run_cli("topics", "fit", build_out / "doc_term.csv",
                   build_out / "vocab.txt", "--rank", 2, "--restarts", 2,
                   "--mode", "projected", "--out-dir", fit_out) == EXIT_OK
    w = read_matrix(fit_out / "W.csv")
    h = read_matrix(fit_out / "H.csv")
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(h.sum(axis=1), 1.0, atol=1e-9)
    assert w.min() >= 0.0 and h.min() >= 0.0

    top_out = tmp_path / "top"
    assert run_cli("topics", "top-terms", fit_out / "W.csv",
                   fit_out / "H.csv", build_out / "vocab.txt", "--k", 3,
                   "--out-dir", top_out) == EXIT_OK
    lines = (top_out / "top_terms.csv").read_text().splitlines()
    assert lines[0] == "topic,rank,term,probability"
    assert len(lines) == 1 + 2 * 3

    hist_out = tmp_path / "hist"
    assert run_cli("topics", "histogram", fit_out / "W.csv",
                   fit_out / "H.csv", build_out / "vocab.txt",
                   "--out-dir", hist_out) == EXIT_OK
    rows = (hist_out / "histogram.csv").read_text().splitlines()
    assert rows[0] == "topic,count"
    counts = sorted(int(r.split(",")[1]) for r in rows[1:])
    assert sum(counts) == 6
    assert counts == [3, 3]


# ------------------------------------------------------------------- rerun


def test_rerun_reproduces_outputs_bitwise(tmp_path):
    x_path, _ = write_instance(tmp_path, seed=5)
    out1 = tmp_path / "run1"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 2,
                   "--out-dir", out1) == EXIT_OK
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out1 / "manifest.json",
                   "--out-dir", out2) == EXIT_OK
    for name in ("W.csv", "H.csv", "result.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_from_another_directory(tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    write_instance(first, seed=5)
    monkeypatch.chdir(first)
    assert run_cli("factorize", "X.csv", "--rank", 2, "--restarts", 2,
                   "--out-dir", "run1") == EXIT_OK
    manifest = json.loads((first / "run1" / "manifest.json").read_text())
    assert manifest["inputs"][0]["path"] == str(first / "X.csv")
    monkeypatch.chdir(second)
    assert run_cli("rerun", first / "run1" / "manifest.json",
                   "--out-dir", "run2") == EXIT_OK
    for name in ("W.csv", "H.csv", "result.json"):
        want = (first / "run1" / name).read_bytes()
        assert (second / "run2" / name).read_bytes() == want


def test_rerun_analyze_bitwise(tmp_path):
    w_path, h_path = worked_factors(tmp_path)
    out1 = tmp_path / "run1"
    assert run_cli("analyze", w_path, h_path, "--samples", 200,
                   "--out-dir", out1) == EXIT_OK
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out1 / "manifest.json",
                   "--out-dir", out2) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_rerun_of_a_manifest_with_an_old_blas_threads_record_is_silent(
        tmp_path, capsys, monkeypatch):
    # Manifests written before every command ran pinned recorded the thread
    # settings as blas_threads; a rerun ignores the key.
    w_path, h_path = worked_factors(tmp_path)
    out1 = tmp_path / "run1"
    assert run_cli("analyze", w_path, h_path, "--samples", 50,
                   "--out-dir", out1) == EXIT_OK
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["blas_threads"] = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
                                "MKL_NUM_THREADS": None, "cpu_count": 64}
    (out1 / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out1 / "manifest.json", "--out-dir", out2) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_rerun_detects_input_drift(tmp_path, capsys):
    x_path, _ = write_instance(tmp_path, seed=6)
    out1 = tmp_path / "run1"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 1,
                   "--out-dir", out1) == EXIT_OK
    x = read_matrix(x_path)
    write_matrix_csv(x_path, x + 1e-9)
    code = run_cli("rerun", out1 / "manifest.json",
                   "--out-dir", tmp_path / "run2")
    assert code == EXIT_INPUT
    assert "changed since" in capsys.readouterr().err


@pytest.mark.parametrize("change", ["added", "removed", "altered"])
def test_rerun_of_faces_ingest_refuses_a_changed_directory(tmp_path, capsys, change):
    # The inputs of an ingest are the sorted .pgm files of its directory; a
    # rerun reproduces them while they are as recorded and refuses a
    # directory with a picture added, removed or altered.
    d = face_set(tmp_path)
    out1 = tmp_path / "run1"
    assert run_cli("faces", "ingest", d, "--out-dir", out1) == EXIT_OK
    manifest = out1 / "manifest.json"
    recorded = [e["path"] for e in json.loads(manifest.read_text())["inputs"]]
    assert recorded == [str(d / f"face{i}.pgm") for i in range(3)]
    assert run_cli("rerun", manifest, "--out-dir", tmp_path / "same") == EXIT_OK
    for name in ("X.csv", "files.txt"):
        assert (out1 / name).read_bytes() == (tmp_path / "same" / name).read_bytes()
    named = d / ("face1b.pgm" if change == "added" else "face1.pgm")
    if change == "removed":
        named.unlink()
    else:
        write_face(named, np.ones((9, 9)))
    capsys.readouterr()
    out2 = tmp_path / "run2"
    assert run_cli("rerun", manifest, "--out-dir", out2) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "changed since the recorded run" in err and str(named) in err
    assert not out2.exists()


def test_rerun_refuses_recorded_inputs_in_another_order(tmp_path, capsys):
    # A manifest whose options name the recorded files in swapped roles.
    w_path, h_path = worked_factors(tmp_path)
    out1 = tmp_path / "run1"
    assert run_cli("analyze", w_path, h_path, "--samples", 0,
                   "--out-dir", out1) == EXIT_OK
    edit_options(out1 / "manifest.json", w=str(h_path), h=str(w_path))
    capsys.readouterr()
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out1 / "manifest.json", "--out-dir", out2) == EXIT_INPUT
    assert ("inputs changed since the recorded run: their order differs"
            in capsys.readouterr().err)
    assert not out2.exists()


def test_rerun_rejects_unknown_command(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"command": "explode", "options": {},
                               "inputs": []}), encoding="utf-8")
    assert run_cli("rerun", bad) == EXIT_INPUT
    assert "unknown command" in capsys.readouterr().err


@pytest.mark.parametrize("manifest, message", [
    ({"command": "factorize"}, "lacks an options object"),
    ({"command": "factorize", "options": {}, "inputs": []}, "options lack"),
    ([1, 2], "not a JSON object"),
    ({"command": "factorize", "options": {}, "inputs": [{"path": 1}]}, "sha256 entries"),
])
def test_rerun_rejects_malformed_manifest(tmp_path, capsys, manifest, message):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest), encoding="utf-8")
    assert run_cli("rerun", bad, "--out-dir", tmp_path / "run") == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value, kind", [
    ("factorize", "seed", 1.5, "an integer"),
    ("factorize", "rank", "3", "an integer"),
    ("factorize", "restarts", 2.0, "an integer"),
    ("factorize", "seed", True, "an integer"),
    ("factorize", "binary", "yes", "true or false"),
    ("factorize", "orientation", 1, "one of 'w-rows', 'h-rows', 'both'"),
    ("analyze", "samples", "50", "an integer"),
    ("analyze", "zero_tol", "0", "a float"),
    ("analyze", "step", "0.05", "a float"),
    ("faces-reconstruct", "row", "0", "an integer"),
    ("faces-reconstruct", "w", 3, "a string"),
])
def test_rerun_refuses_a_mistyped_manifest_option(tmp_path, capsys, command, option,
                                                  value, kind):
    # A recorded option must be what parsing its flag could give, checked
    # against the flag's type and choices and never coerced: a float seed
    # used to crash after restart 0 of a noisy fit, and "yes" ran as
    # --binary.  The refused rerun exits 2 and leaves no output directory.
    if command == "factorize":
        x, _ = generate(20, 8, 2, seed=0, noise_sigma=0.05,
                        orientation=Orientation.W_ROWS_SUM_TO_1)
        write_matrix_csv(tmp_path / "X.csv", x)
        argv = ["factorize", tmp_path / "X.csv", "--rank", 2, "--restarts", 2]
    elif command == "analyze":
        argv = ["analyze", *worked_factors(tmp_path), "--samples", 20]
    else:
        _, _, w_path, h_path = faces_model(tmp_path)
        argv = ["faces", "reconstruct", w_path, h_path, "--row", 0]
    out1 = tmp_path / "run1"
    assert run_cli(*argv, "--out-dir", out1) == EXIT_OK
    edit_options(out1 / "manifest.json", **{option: value})
    capsys.readouterr()
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out1 / "manifest.json", "--out-dir", out2) == EXIT_INPUT
    assert (f"manifest option {option!r} is {json.dumps(value)}, not {kind}"
            in capsys.readouterr().err)
    assert not out2.exists()


def edit_options(manifest_path, **changes):
    manifest = json.loads(manifest_path.read_text())
    manifest["options"].update(changes)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def test_rerun_rejects_a_penalty_mode_manifest(tmp_path, capsys):
    x_path, _ = write_instance(tmp_path, seed=5)
    out1 = tmp_path / "run1"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 2,
                   "--out-dir", out1) == EXIT_OK
    edit_options(out1 / "manifest.json", mode="penalty")
    code = run_cli("rerun", out1 / "manifest.json", "--out-dir", tmp_path / "run2")
    assert code == EXIT_INPUT
    # The mode flag's choices, as a fresh run with --mode penalty is refused.
    assert ("manifest option 'mode' is \"penalty\", not one of 'projected'"
            in capsys.readouterr().err)
    # The refused run creates no output directory, parents included ...
    assert not (tmp_path / "run2").exists()
    manifest = out1 / "manifest.json"
    code = run_cli("rerun", manifest, "--out-dir", tmp_path / "new" / "run3")
    assert code == EXIT_INPUT
    assert not (tmp_path / "new").exists()
    # ... and leaves directories that existed before it alone.
    (tmp_path / "old").mkdir()
    code = run_cli("rerun", manifest, "--out-dir", tmp_path / "old" / "run4")
    assert code == EXIT_INPUT
    assert (tmp_path / "old").is_dir() and not (tmp_path / "old" / "run4").exists()
    (tmp_path / "run5").mkdir()
    code = run_cli("rerun", manifest, "--out-dir", tmp_path / "run5")
    assert code == EXIT_INPUT
    assert (tmp_path / "run5").is_dir()


def test_rerun_of_a_manifest_with_penalty_weights_is_bitwise(tmp_path):
    # Manifests of projected fits written while --weights existed record
    # "weights", which no command reads now; they rerun to the same bytes.
    x_path, _ = write_instance(tmp_path, seed=5)
    out1 = tmp_path / "run1"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 2,
                   "--out-dir", out1) == EXIT_OK
    edit_options(out1 / "manifest.json", weights=[100.0, 10.0])
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out1 / "manifest.json", "--out-dir", out2) == EXIT_OK
    for name in ("W.csv", "H.csv", "result.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_of_a_manifest_recording_the_fixed_tol_is_bitwise(tmp_path):
    # Manifests written while --tol existed record "tol"; at the fixed
    # exact-fit tolerance they rerun to the same bytes.
    x_path, _ = write_instance(tmp_path, seed=5)
    out1 = tmp_path / "run1"
    assert run_cli("factorize", x_path, "--rank", 2, "--restarts", 2,
                   "--out-dir", out1) == EXIT_OK
    assert "tol" not in json.loads((out1 / "manifest.json").read_text())["options"]
    edit_options(out1 / "manifest.json", tol=1e-8)
    out2 = tmp_path / "run2"
    assert run_cli("rerun", out1 / "manifest.json", "--out-dir", out2) == EXIT_OK
    for name in ("W.csv", "H.csv", "result.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("command", ["factorize", "topics-fit"])
def test_rerun_rejects_a_manifest_with_another_tol(tmp_path, capsys, command):
    # A fit at another exact-fit tolerance could not reproduce the recorded
    # bytes, so the rerun is refused and leaves no output directory.
    doc_term, vocab, x_path = block_corpus_files(tmp_path)
    if command == "factorize":
        argv = ["factorize", x_path, "--orientation", "both"]
    else:
        argv = ["topics", "fit", doc_term, vocab]
    out1 = tmp_path / "run1"
    assert run_cli(*argv, "--rank", 3, "--restarts", 2, "--out-dir", out1) == EXIT_OK
    edit_options(out1 / "manifest.json", tol=1e-4)
    capsys.readouterr()
    code = run_cli("rerun", out1 / "manifest.json", "--out-dir", tmp_path / "run2")
    assert code == EXIT_INPUT
    assert "--tol was removed" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()


@pytest.mark.parametrize("argv", [
    ["factorize", "X.csv", "--rank", "2", "--tol", "1e-8"],
    ["topics", "fit", "dt.csv", "vocab.txt", "--rank", "2", "--tol", "1e-8"],
])
def test_tol_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------- BLAS pin


@pytest.mark.blas_threads
@pytest.mark.parametrize("raised, code", [(None, EXIT_OK),
                                          (InvalidInputError, EXIT_INPUT),
                                          (FloatingPointError, EXIT_NUMERICAL)])
def test_every_command_runs_pinned_and_restores_the_callers_blas_threads(
        tmp_path, monkeypatch, raised, code):
    # A handler runs with numpy's OpenBLAS on one thread; the caller's count
    # (2 here) is back once main returns, whatever its exit code.
    calls = solver._openblas_threads()
    if calls is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, set_ = calls
    seen = []

    def handler(args, out_dir, paths):
        seen.append(get())
        if raised is not None:
            raise raised("from the handler")
        return EXIT_OK

    monkeypatch.setitem(cli._HANDLERS, "faces-error", handler)
    x_path, _ = write_instance(tmp_path)
    out = tmp_path / "run"
    before = get()
    try:
        set_(2)
        assert run_cli("faces", "error", x_path, x_path, x_path, "--out-dir", out) == code
        assert (seen, get()) == ([1], 2)
    finally:
        set_(before)
    if raised is None:
        assert json.loads((out / "manifest.json").read_text())["blas_pinned"] is True


@pytest.mark.blas_threads
def test_commands_outside_the_fit_give_equal_bytes_on_one_and_two_blas_threads(
        tmp_path):
    # analyze with its sampler (a non-anchored pair, so the walk moves) and
    # faces reconstruct, retrieve and error, run in processes started with
    # OPENBLAS_NUM_THREADS=1 and with 2, on a 2400x81, R=10 pair.
    x, gt = generate(2400, 81, 10, anchors=False, seed=4,
                     orientation=Orientation.W_ROWS_SUM_TO_1)
    x_path, w_path, h_path = (tmp_path / f"{n}.csv" for n in "XWH")
    for path, m in ((x_path, x), (w_path, gt.w), (h_path, gt.h)):
        write_matrix_csv(path, m)
    query = tmp_path / "query.pgm"
    write_pgm(GrayImage(pixels=x[7].reshape(9, 9)), query)
    outputs = {
        "analyze/report.json": ["analyze", w_path, h_path, "--zero-tol", 0,
                                "--samples", 300],
        "reconstruct/reconstruction.pgm": ["faces", "reconstruct", w_path, h_path,
                                           "--row", 7],
        "retrieve/retrieval.json": ["faces", "retrieve", query, w_path, h_path],
        "error/error.json": ["faces", "error", x_path, w_path, h_path],
    }
    code = """if True:
        import json, sys
        from smf.cli import main
        sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
    """
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        argvs = [[str(a) for a in argv] + ["--out-dir", str(out / name.split("/")[0])]
                 for name, argv in outputs.items()]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, text=True,
                              env={**_checkout_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == EXIT_OK, proc.stderr
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in outputs})
    assert digests[0] == digests[1]
    report = json.loads((tmp_path / "threads2" / "analyze" / "report.json").read_text())
    assert report["oracle"]["single_axis_checked"] > 0


# ----------------------------------------------------------------- plumbing


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_reused_across_commands(tmp_path, monkeypatch):
    # Two commands in one process write the bytes that two processes write.
    x_path, _ = write_instance(tmp_path)
    argvs = [["factorize", str(x_path), "--rank", "2", "--restarts", "2",
              "--out-dir", "fit"],
             ["analyze", "fit/W.csv", "fit/H.csv", "--samples", "50",
              "--out-dir", "report"]]
    alone = tmp_path / "alone"
    alone.mkdir()
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "smf.cli", *argv], cwd=alone,
                              capture_output=True, text=True, env=_checkout_env())
        assert proc.returncode == EXIT_OK, proc.stderr
    together = tmp_path / "together"
    together.mkdir()
    monkeypatch.chdir(together)
    cli._build_parser.cache_clear()
    assert [main(argv) for argv in argvs] == [EXIT_OK, EXIT_OK]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for name in ("fit/W.csv", "fit/H.csv", "fit/result.json", "report/report.json"):
        assert (together / name).read_bytes() == (alone / name).read_bytes()
    for name in ("fit/manifest.json", "report/manifest.json"):
        want, got = (json.loads((d / name).read_text().replace(str(d), "<dir>"))
                     for d in (alone, together))
        del want["duration_seconds"], got["duration_seconds"]
        assert got == want


def _checkout_env():
    # Run the checkout under test, installed or not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(smf.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded only by align_and_score, on first use.
    code = ("import sys, smf.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_is_installed():
    exe = shutil.which("smf")
    if exe is None:
        proc = subprocess.run([sys.executable, "-m", "smf.cli", "--version"],
                              capture_output=True, text=True, env=_checkout_env())
    else:
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
    assert proc.returncode == 0
    assert smf.__version__ in proc.stdout
