"""Tests of the benchmark itself, on the tiny instance X(1,2;2).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import MATMUL, layer_stats, load  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of the tiny operation: (record, spans) each."""
    out = []
    for k in range(2):
        path = tmp_path_factory.mktemp("spans") / f"spans{k}.jsonl"
        record = run.spawn(run.TINY, trace_path=path)
        assert record is not None
        out.append((record, load(path)))
    return out


def test_spans_nest(traced):
    _, spans = traced[0]
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    children: dict[int, list[dict]] = {}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            children.setdefault(s["parent"], []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            assert a["end"] <= b["start"]
    assert any(s["name"] == MATMUL for s in spans)
    assert any(s["name"] == "terwilliger.structure_report" for s in spans)


def test_self_times_add_up_to_traced_wall(traced):
    record, spans = traced[0]
    stats = layer_stats(spans)
    self_sum = sum(st["self_s"] for st in stats.values())
    root = stats["cli.main"]["total_s"]
    assert self_sum == pytest.approx(root, abs=1e-9)
    # The rest of the traced wall is the wrapper around cli.main and the
    # stdout capture, both tiny next to the work.
    assert 0 <= record["wall_s"] - self_sum <= 0.01 + 0.1 * record["wall_s"]


def test_call_counts_repeat(traced):
    (_, first), (_, second) = traced
    counts = [
        {name: (st["calls"], st["matmul_calls"], st["work"]) for name, st in layer_stats(s).items()}
        for s in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0][MATMUL][0] > 0


def test_tracing_leaves_stdout_unchanged(traced):
    reference = json.loads(run.REFERENCE.read_text())
    for record, _ in traced:
        assert run.judge(record, reference[run.op_key(run.TINY)])


def test_layer_stats_self_total_and_nested_products():
    spans = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 10.0, "work": 0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 5.0, "work": 0},
        {"id": 2, "parent": 1, "name": "b", "start": 2.0, "end": 4.0, "work": 0},
        {"id": 3, "parent": 2, "name": MATMUL, "start": 2.5, "end": 3.0, "work": 8},
        {"id": 4, "parent": 0, "name": MATMUL, "start": 6.0, "end": 7.0, "work": 27},
    ]
    stats = layer_stats(spans)
    assert stats["a"]["self_s"] == pytest.approx(5.0)
    assert stats["b"]["self_s"] == pytest.approx(3.5)
    assert stats["b"]["total_s"] == pytest.approx(4.0)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["matmul_calls"] == 1
    assert stats["a"]["matmul_calls"] == 2
    assert stats[MATMUL]["work"] == 35
    assert sum(st["self_s"] for st in stats.values()) == pytest.approx(10.0)


class FixedSpeed:
    def scale(self) -> float:
        return 1.0


def test_tampered_stdout_counts_as_failed(monkeypatch):
    reference = json.loads(run.REFERENCE.read_text())
    record = run.spawn(run.TINY)
    assert run.judge(record, reference[run.op_key(run.TINY)])
    tampered = dict(record, stdout=record["stdout"].replace("true", "false", 1))
    assert tampered["stdout"] != record["stdout"]
    monkeypatch.setattr(run, "spawn", lambda argv, trace_path=None, timeout=0: dict(tampered))
    result = run.run_pass([run.TINY], reference, float("inf"), FixedSpeed())
    assert (result["attempted"], result["failed"]) == (1, 1)
    wrong_code = dict(record, code=1)
    monkeypatch.setattr(run, "spawn", lambda argv, trace_path=None, timeout=0: dict(wrong_code))
    assert run.run_pass([run.TINY], reference, float("inf"), FixedSpeed())["failed"] == 1


def test_every_workload_operation_has_a_reference():
    reference = json.loads(run.REFERENCE.read_text())
    for ops in run.WORKLOADS.values():
        for argv in ops:
            assert run.op_key(argv) in reference


def test_spec_matches_runner():
    spec = json.loads(run.SPEC.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mib"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
