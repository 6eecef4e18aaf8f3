"""Smoke test of the benchmark in quick mode: result schema and metric names.

Run from the repository root:

    python -m pytest perfbench/tests -q

No timing bound is asserted anywhere; only the shape of the results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()
    assert set(run.LAYER_EFFECTS) <= {m["name"] for m in SPEC["per_layer"]} | {
        layer for layer, _, _ in tracer.LAYERS
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}-quick.json").read_text()
    )
    env = record["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "sympy", "backend",
                "MUBFORGE_BACKEND", "MUBFORGE_THREADS", "git_commit"):
        assert key in env
    assert record["failed_ratio"] == 0
    assert all(len(job["sha256"]) == 64 for job in record["jobs"])


def test_missing_layers_are_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", (
        ("gf2.no_such_function", "gf2", "no_such_function"),
        ("nomodule.f", "no_such_module", "f"),
        ("backend.scan_symmetric", "no_such_module", "scan_symmetric"),
    ))
    t = tracer.Tracer()
    t.install()
    summary = t.summary({"mubforge_s": 0.1, "sympy_s": None})
    assert all("absent" in entry for entry in summary["layers"].values())
    assert "absent" in summary["counters"]["backend.candidates"]
    assert summary["counters"]["construct.class_labels"] == {"value": 0, "computed": True}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "search-random", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
