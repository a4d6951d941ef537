"""The in-process CLI timer alternates the sides and summarises the seconds."""

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from ordered_hamming.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _time_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it reads the summary from bench_pairs
    spec = importlib.util.spec_from_file_location("time_cli", ROOT / "tools" / "time_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_count_wins(monkeypatch, tmp_path, capsys):
    time_cli = _time_cli(monkeypatch)
    seconds = {"parent": iter([4.0, 5.0, 6.0, 5.0]), "change": iter([3.0, 4.0, 6.0, 2.0])}
    calls = []

    def fake_run(tree, line):
        side = "parent" if tree == tmp_path.resolve() else "change"
        calls.append((side, line))
        return {"seconds": next(seconds[side]), "exit": 0, "stdout_sha256": "same"}

    monkeypatch.setattr(time_cli, "run_once", fake_run)
    line = ["scheme-verify", "--q", "2", "--n", "1", "--json"]
    assert time_cli.main(["--parent", str(tmp_path), "--pairs", "4", *line]) == 0

    # even pairs run the parent first, odd pairs the change
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent"] * 2
    assert all(called == line for _, called in calls)
    blob = json.loads(capsys.readouterr().out)
    assert blob["line"] == line and blob["pairs"] == 4
    assert blob["exit"] == [0] and blob["stdout_identical"] is True
    wall = blob["seconds"]
    assert wall["parent"]["runs"] == [4.0, 5.0, 6.0, 5.0]
    assert wall["parent"]["median"] == 5.0 and wall["change"]["median"] == 3.5
    assert (wall["change_wins"], wall["parent_wins"]) == (3, 0)  # the tie counts for neither
    assert wall["ratio"] == 0.7 and wall["gap"] == 1.5


def test_one_run_times_the_line_in_a_fresh_process(monkeypatch):
    time_cli = _time_cli(monkeypatch)
    line = ["shapes", "--q", "2", "--n", "1", "--json"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(line) == 0
    got = time_cli.run_once(ROOT, line)
    assert got["exit"] == 0 and got["seconds"] > 0
    assert got["stdout_sha256"] == hashlib.sha256(out.getvalue().encode()).hexdigest()
