"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

Each workload runs at smoke size, untraced and traced, and must print a
result line that matches BENCHMARK.json. A copy of the benchmark without
the library beside it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_without_library_fails_quietly(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans

    tracer = spans.Tracer()
    inner = tracer.wrap("t.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("t.outer", lambda: [inner() for _ in range(3)])
    tracer.enabled = True
    outer()
    by, under, _, _ = tracer.summary()
    assert by["t.outer"]["calls"] == 1 and by["t.inner"]["calls"] == 3
    assert under[("t.inner", "t.outer")] == 3
    total = by["t.outer"]["durations"][0]
    own = by["t.outer"]["self_s"] + by["t.inner"]["self_s"]
    assert abs(total - own) < 1e-9
