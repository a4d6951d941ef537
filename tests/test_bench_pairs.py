"""The paired benchmark runner alternates the sides and summarises each metric."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_count_wins(monkeypatch, tmp_path):
    bench_pairs = _bench_pairs()
    walls = {"parent": iter([4.0, 5.0, 6.0, 5.0]), "change": iter([3.0, 4.0, 6.0, 2.0])}
    calls = []

    def fake_run(tree, workload, seed):
        side = "parent" if tree == tmp_path.resolve() else "change"
        calls.append((side, seed))
        env = {"nproc": 2, "cpu_model": "cpu", "python": "3", "platform": "os", "seed": seed}
        metrics = {"wall_s": {"value": next(walls[side]), "unit": "s"}}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics, "environment": env}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"stale": True}))
    argv = ["--parent", str(tmp_path), "--workload", "w", "--pairs", "4", "--seed", "10"]
    argv += ["--out", str(out)]
    assert bench_pairs.main(argv) == 0

    # even pairs run the parent first, odd pairs the change; both sides share the seed
    assert calls == [
        ("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
        ("parent", 12), ("change", 12), ("change", 13), ("parent", 13),
    ]
    blob = json.loads(out.read_text())
    assert list(blob) == ["machine", "benchmark"] and list(blob["benchmark"]) == ["w"]
    assert blob["machine"] == {"nproc": 2, "cpu_model": "cpu", "python": "3", "platform": "os"}
    summary = blob["benchmark"]["w"]
    assert summary["seeds"] == "10-13" and summary["correct"] is True
    assert summary["attempted"] == {"parent": 12, "change": 12}
    wall = summary["wall_s"]
    assert wall["parent"]["runs"] == [4.0, 5.0, 6.0, 5.0]
    assert wall["parent"]["median"] == 5.0 and wall["change"]["median"] == 3.5
    assert (wall["change_wins"], wall["parent_wins"]) == (3, 0)  # the tie counts for neither
    assert wall["ratio"] == 0.7 and wall["gap"] == 1.5
    assert wall["parent_iqr"] == wall["parent"]["q3"] - wall["parent"]["q1"] > 0
