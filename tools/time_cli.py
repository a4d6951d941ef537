"""Paired in-process timings of one CLI line: a parent checkout against this tree, alternating.

    python3 tools/time_cli.py --parent PATH --pairs 10 scheme-verify --q 2,2 --n 4 --json

Pair p runs the line once per side, each in a fresh `python3` process with
PYTHONDONTWRITEBYTECODE=1 and no `__pycache__` under the side's `src`, as
`bench_pairs.py` runs them. The process puts the side's `src` first on
`sys.path`, imports `ordered_hamming.cli`, and times one `cli.main(line)`
call with `time.perf_counter`, its stdout captured. Even pairs run the
parent first and odd pairs this tree.

Prints one JSON document: the line, the pairs, the exit codes seen, whether
stdout had one SHA-256 in every run, and, as `bench_pairs.py` summarises a
metric, each side's seconds with their median and quartiles, the pairs each
side won, the change's median over the parent's, their gap and the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, SIDES, clear_bytecode, compare

# argv: the `src` to import from, then the CLI line
TIMED = """
import contextlib, hashlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from ordered_hamming import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    start = time.perf_counter()
    code = cli.main(sys.argv[2:])
    seconds = time.perf_counter() - start
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps({"seconds": seconds, "exit": code, "stdout_sha256": digest}))
"""


def run_once(tree: Path, line: list[str]) -> dict:
    """One timed `cli.main(line)` call in a fresh process on the tree's `src`."""
    clear_bytecode(tree)
    argv = [sys.executable, "-c", TIMED, str(tree / "src"), *line]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def time_line(trees: dict[str, Path], line: list[str], pairs: int) -> dict:
    """The summary of `pairs` alternating pairs of timed runs of `line`."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for p in range(pairs):
        for side in SIDES if p % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(trees[side], line))
    done = [r for side in SIDES for r in runs[side]]
    return {
        "line": line,
        "pairs": pairs,
        "exit": sorted({r["exit"] for r in done}),
        "stdout_identical": len({r["stdout_sha256"] for r in done}) == 1,
        "seconds": compare({side: [r["seconds"] for r in runs[side]] for side in SIDES}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("line", nargs=argparse.REMAINDER, help="the CLI line, from its command")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    if not args.line:
        parser.error("give the CLI line to time")

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    print(json.dumps(time_line(trees, args.line, args.pairs), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
