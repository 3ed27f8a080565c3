"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q

The smoke runs use the hidden ``--tiny`` round of each workload and take
about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_self_time_on_synthetic_span_tree():
    # root 0..10 has children a (1..4) and b (3..6), which overlap, and c
    # (9..12), which sticks out of the root; a has child d (2..3).
    names = ["root", "a", "b", "c", "d"]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 3.0, 6.0),
             (3, 0, 9.0, 12.0), (4, 1, 2.0, 3.0)]
    got = tracer.self_times(names, *[[s[i] for s in spans] for i in range(4)])
    # Children of root cover [1, 6] and [9, 10]: 6 of its 10 seconds.
    assert got == pytest.approx({"root": 4.0, "a": 2.0, "b": 3.0, "c": 3.0, "d": 1.0})


def test_tracer_records_parents_and_layer_totals(tmp_path):
    t = tracer.Tracer()
    inner = t.timed("poly.inner", lambda: sum(range(1000)))
    outer = t.timed("groebner.outer", lambda: inner() + inner())
    outer()
    path = str(tmp_path / "x.spans")
    t.dump(path)
    header, names, parents, starts, ends = tracer.load(path)
    assert header["spans"] == 3
    assert [header["names"][n] for n in names] == ["groebner.outer", "poly.inner", "poly.inner"]
    assert list(parents) == [-1, 0, 0]
    per_layer = tracer.layer_self_times(
        tracer.self_times(header["names"], names, parents, starts, ends))
    total = ends[0] - starts[0]
    assert per_layer["groebner"] + per_layer["poly"] == pytest.approx(total)
    assert per_layer["poly"] == pytest.approx(ends[1] - starts[1] + ends[2] - starts[2])


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert any(line.strip().startswith("failed_share 0 ") for line in lines)
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_smoke_traced_run_prints_every_layer_metric():
    proc = _run("structures", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("kernel", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
