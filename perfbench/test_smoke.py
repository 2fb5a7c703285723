"""Smoke tests of the benchmark at tiny graph sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
Each workload runs untraced and traced; every metric ``BENCHMARK.json``
names must come out with its unit, and the output checks must run and
count a broken output as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

#: Every runnable workload, including ones BENCHMARK.json leaves out.
WORKLOADS = sorted(run.FULL)


def _run(capsys, workload, trace):
    run.main([
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    ])
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(
        next(line for line in lines if line.startswith("report "))[7:]
    )
    return json.loads(lines[-1]), report


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(capsys, workload, trace):
    result, report = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["checked"] >= report.get("queries", 1)


def test_mining_check_counts_off_reference_solves(capsys, monkeypatch):
    import mining_workload

    monkeypatch.setattr(mining_workload, "CHECK_L1", -1.0)
    result, report = _run(capsys, "mining-1m", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == report["checked"]


@pytest.mark.parametrize("workload", ["serve-mixed", "serve-dynamic"])
def test_serve_check_counts_bad_replies(capsys, monkeypatch, workload):
    import serve_workloads

    monkeypatch.setattr(serve_workloads, "_checksum", lambda v: "corrupt")
    result, report = _run(capsys, workload, 0)
    assert not result["correct"]
    assert result["failed"] == report["queries"]


def test_dynamic_counts_repeat_per_seed(capsys):
    first = _run(capsys, "serve-dynamic", 1)[0]["metrics"]
    second = _run(capsys, "serve-dynamic", 1)[0]["metrics"]
    for name in ("dynamic.compactions", "dynamic.repairs",
                 "dynamic.rebuilds"):
        assert first[name] == second[name]
    assert first["dynamic.compactions"]["value"] > 0
    assert first["dynamic.rebuilds"]["value"] == 0
