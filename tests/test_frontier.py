"""The frontier runner scales each instance's wall time by the benchmark's calibration loop."""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from ordered_hamming import Orbitals

ROOT = Path(__file__).resolve().parent.parent


def _frontier():
    spec = importlib.util.spec_from_file_location("frontier", ROOT / "tools" / "frontier.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frontier_records_calibration_and_scaled_wall(monkeypatch, capsys):
    frontier = _frontier()
    loops = iter([0.3, 0.5, 0.2, 0.2])
    outcomes = iter([{"exit": 0, "wall_s": 2.0, "r": 5, "dim_T": 5}, {"result": "timeout"}])
    monkeypatch.setattr(frontier, "calibration_loop", lambda: next(loops))
    monkeypatch.setattr(frontier, "run_one", lambda q, n, src: next(outcomes))
    monkeypatch.setattr(frontier, "INSTANCES", (((2,), 2), ((2,), 3)))
    assert frontier.main([]) == 0
    blob = json.loads(capsys.readouterr().out)
    first, second = blob["instances"]["X(1,2;2)"], blob["instances"]["X(1,3;2)"]
    # the loop took 0.4 s on average around the first instance
    assert first["calibration_s"] == [0.3, 0.5] and first["wall_s"] == 2.0
    assert first["scaled_wall_s"] == round(2.0 * frontier.NOMINAL_CALIBRATION_S / 0.4, 3)
    assert second == {"result": "timeout", "calibration_s": [0.2, 0.2]}
    assert blob["nominal_calibration_s"] == frontier.NOMINAL_CALIBRATION_S


def test_frontier_child_lifts_the_point_bound_to_the_instance(monkeypatch):
    frontier = _frontier()
    assert ((4,), 5) in frontier.INSTANCES and ((2,), 10) in frontier.INSTANCES
    # the child gets the instance's own point count as its bound
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout='{"exit": 0}\n', stderr="")

    monkeypatch.setattr(frontier.subprocess, "run", fake_run)
    frontier.run_one((2,), 10, ROOT / "src")
    assert seen[0][-3:] == ["[2]", "10", "1024"]
    monkeypatch.undo()
    # and a real child reports with that bound
    result = frontier.run_one((2,), 2, ROOT / "src")
    assert result["exit"] == 0 and result["r"] == 10 and result["dim_T"] == 10


def test_frontier_child_builds_each_orbital_structure_once(monkeypatch, capsys):
    """r comes from the timed report itself, not from a second orbital build, and the
    child counts the report's orbital products and the structure-table entries they
    read, then restores `Orbitals.product` and `Orbitals._left_product`."""
    frontier = _frontier()
    builds = Counter()
    plain = Orbitals.__init__
    plain_product, plain_left = Orbitals.product, Orbitals._left_product

    def counting(self, side, keys=None):
        builds[side] += 1
        plain(self, side, keys)

    monkeypatch.setattr(Orbitals, "__init__", counting)
    monkeypatch.setattr(sys, "argv", ["-c", "[2, 2]", "2", "16"])
    exec(frontier.CHILD, {"__name__": "__main__"})
    result = json.loads(capsys.readouterr().out)
    assert result["exit"] == 0 and result["r"] == 55 and result["dim_T"] == 55
    assert result["products"] == 800 and Orbitals.product is plain_product
    assert result["entries"] == 15835 and Orbitals._left_product is plain_left
    # X(2,2;2,2), 16 points, and the depth-one scheme its report closes, 4 points
    assert builds == {16: 1, 4: 1}
