"""Smoke test of the benchmark: every workload, one op at its smallest size,
traced and untraced.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

from run import layer_unit  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    text = "\n".join(lines[:-1])
    assert "digest_sha256 = " in text and '"nproc"' in text and '"l3"' in text
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["cli.main.calls"]["value"] > 0
        for m in wanted:
            assert f"layer {m['name']} = " in text
            assert layer_unit(m["name"]) == m["unit"]
    else:
        for name, unit in [(m["name"], m["unit"]) for m in wanted] + [("op_tail_s", "s")]:
            assert re.search(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}\b", text, re.M), name
        assert "metric fail_ratio = 0 ratio" in text
        assert ("metric search_iters_per_s = " in text) == (workload == "search")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "verify", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
