"""scripts/paired_bench.py refuses a run that gives no result or a wrong one."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"


def fake_checkout(root: Path, printed: str) -> Path:
    # A checkout whose perfbench/run.py prints ``printed`` and exits 0.
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"print({printed!r})\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    return root


@pytest.mark.parametrize("printed, why", [
    (json.dumps({"correct": False, "metrics": {"wall_s": {"value": 1.0}}}),
     "gave an incorrect result"),
    ("", "printed no JSON result line"),
    ("wall_s=1.0", "printed no JSON result line"),
])
def test_a_run_without_a_correct_result_ends_the_comparison(tmp_path, printed, why):
    tree = fake_checkout(tmp_path / "tree", printed)
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tree), str(tree),
                           "--workload", "recover", "--seconds", "1", "--pairs", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert str(tree / "perfbench" / "run.py") in proc.stderr and why in proc.stderr
    assert "pair 0" not in proc.stdout


def test_correct_runs_give_the_table(tmp_path):
    result = {"correct": True, "metrics": {"wall_s": {"value": 1.0}}}
    tree = fake_checkout(tmp_path / "tree", json.dumps(result))
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tree), str(tree),
                           "--workload", "recover", "--seconds", "1", "--pairs", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "A/A: recover" in proc.stdout and "wall_s" in proc.stdout
