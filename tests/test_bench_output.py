"""The benchmark's output stays well formed.

``perfbench/run.py`` must end in one JSON result line with stdout and stderr
merged, so anything the package writes to either stream at import, during a
run or at exit would make that line unreadable.  These tests run the
benchmark's shortest runs as subprocesses and read what they print.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "frames_per_s", "setup_s", "peak_rss_mb")


def merged_output(argv: list[str]) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    return out.stdout.splitlines()


def bench_run(trace: int, workload: str = "closure") -> list[str]:
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"]
    return merged_output(argv + ["--trace", str(trace)])


def test_import_is_silent():
    assert merged_output(["-c", "import twophoton"]) == []


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone pulls in optimize, integrate, interpolate, spatial and fft
    code = "import sys, twophoton; print('scipy.stats' in sys.modules)"
    assert merged_output(["-c", code]) == ["False"]


def test_untraced_run_ends_in_result_with_every_end_to_end_metric():
    lines = bench_run(0)
    assert len(lines) == 2, lines
    result = json.loads(lines[-1])
    assert result["correct"] is True
    for name in END_TO_END:
        assert result["metrics"][name]["value"] != 0, name


def test_traced_run_reports_every_per_layer_metric():
    lines = bench_run(1)
    assert len(lines) == 2, lines
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is True
    assert record["absent"] == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared <= set(result["metrics"])



@pytest.mark.parametrize("workload", ["bright", "file_roundtrip"])
def test_other_workloads_end_in_a_correct_result(workload):
    # bright checks the two-worker split and the recovered visibilities;
    # file_roundtrip compares analysis.json with an in-memory recovery
    lines = bench_run(0, workload)
    assert len(lines) == 2, lines
    assert json.loads(lines[-1])["correct"] is True
