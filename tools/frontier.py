"""Frontier runner: the full `report` on the instances of the ROADMAP measurement table.

    python3 tools/frontier.py [--src PATH] > frontier.json

Each instance runs in its own `python3` process, under a timeout of
TIMEOUT_S seconds. The child times
`ordered_hamming.cli.main(["report", ..., "--max-points", N])` in
process, so interpreter start-up and imports are left out. It reads r
from the `r = ... orbitals` line the report logs to stderr and dim T from
its stdout, so nothing is built outside the timed call, and counts the
`Orbitals.product` calls the report makes as `products`, and the
structure-table entries their `Orbitals._left_product` calls read (the
table rows of the left factor's nonzero orbitals) as `entries`: counts
that do not drift with CPU speed as times do, the second of which moves
with the walk order when the first does not. The counters run inside the
timed call, so `wall_s` carries their cost: on X(3,2;2,3,2), a report of
about 0.5 s, `entries` adds 0.01-0.08 s. N is the
instance's own point count, so instances past the CLI's default bound run
too. An instance that runs past the timeout is recorded as "timeout".
`--src` picks the source tree to import, so one copy of this script
measures any checkout.

CPU speed on a shared virtual machine drifts, so the benchmark's
calibration loop (`perfbench/run.py`) is timed just before and just after
each instance, and recorded as `calibration_s`. `scaled_wall_s` is
`wall_s` times NOMINAL_CALIBRATION_S over the mean of those two loop
times: the wall time at the benchmark machine's nominal speed, which
compares across runs where raw `wall_s` does not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.run import NOMINAL_CALIBRATION_S, calibration_loop  # noqa: E402

TIMEOUT_S = 300.0

# (q, n): every row of the ROADMAP measurement tables so far: twelve instances
# up to 256 points, two 1024-point rows, then X(3,3;2,2,2), X(3,2;2,2,8),
# X(2,5;2,2) and the two 4096-point rows.
INSTANCES: tuple[tuple[tuple[int, ...], int], ...] = (
    ((2, 3), 2),
    ((2, 2, 2), 2),
    ((16,), 2),
    ((4,), 4),
    ((2,), 8),
    ((8, 2), 2),
    ((4, 4), 2),
    ((2, 8), 2),
    ((2, 2, 4), 2),
    ((2, 2, 2, 2), 2),
    ((2, 2), 4),
    ((2,) * 8, 1),
    ((4,), 5),
    ((2,), 10),
    ((2, 2, 2), 3),
    ((2, 2, 8), 2),
    ((2, 2), 5),
    ((4,), 6),
    ((2,), 12),
)

CHILD = """
import contextlib, io, json, re, sys, time
from itertools import compress
from ordered_hamming import Orbitals
from ordered_hamming.cli import main
q, n, points = tuple(json.loads(sys.argv[1])), int(sys.argv[2]), sys.argv[3]
argv = ["report", "--q", ",".join(map(str, q)), "--n", str(n), "--max-points", points]
out, err = io.StringIO(), io.StringIO()
products, entries = 0, 0
plain_product, plain_left = Orbitals.product, Orbitals._left_product

def counting_product(self, a, b):
    global products
    products += 1
    return plain_product(self, a, b)

def counting_left(self, a, b):
    global entries
    entries += sum(map(len, compress(self._table, a)))
    return plain_left(self, a, b)

Orbitals.product, Orbitals._left_product = counting_product, counting_left
try:
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    wall = time.perf_counter() - start
finally:
    Orbitals.product, Orbitals._left_product = plain_product, plain_left
blob = json.loads(out.getvalue())
r = int(re.search(r"\\br = (\\d+) orbitals", err.getvalue()).group(1))
result = {"exit": code, "wall_s": round(wall, 3), "r": r, "dim_T": blob["data"]["dim_T"]}
result["products"], result["entries"] = products, entries
print(json.dumps(result))
"""


def label(q: tuple[int, ...], n: int) -> str:
    return f"X({len(q)},{n};{','.join(map(str, q))})"


def run_one(q: tuple[int, ...], n: int, src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    points = math.prod(q) ** n
    cmd = [sys.executable, "-c", CHILD, json.dumps(q), str(n), str(points)]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"result": "timeout", "timeout_s": TIMEOUT_S}
    if done.returncode != 0:
        return {"result": "error", "returncode": done.returncode, "stderr": done.stderr[-500:]}
    return json.loads(done.stdout.splitlines()[-1])


def run_calibrated(q: tuple[int, ...], n: int, src: Path) -> dict:
    """`run_one` between two timings of the calibration loop, with the wall time scaled."""
    before = calibration_loop()
    result = run_one(q, n, src)
    after = calibration_loop()
    result["calibration_s"] = [round(before, 4), round(after, 4)]
    if "wall_s" in result:
        scale = NOMINAL_CALIBRATION_S / ((before + after) / 2)
        result["scaled_wall_s"] = round(result["wall_s"] * scale, 3)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to import")
    args = parser.parse_args(argv)

    results = {}
    for q, n in INSTANCES:
        name = label(q, n)
        start = time.monotonic()
        results[name] = run_calibrated(q, n, args.src.resolve())
        print(f"{name}: {results[name]} ({time.monotonic() - start:.1f} s)", file=sys.stderr)
    blob = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.machine(),
        },
        "timeout_s": TIMEOUT_S,
        "nominal_calibration_s": NOMINAL_CALIBRATION_S,
        "instances": results,
    }
    print(json.dumps(blob, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
