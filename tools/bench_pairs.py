"""Paired benchmark runs: a parent checkout against this tree, alternating.

    python3 tools/bench_pairs.py --parent PATH --workload scheme-verify \\
        --pairs 10 --seed 3800 --out BENCH_38.json

For each workload, pair p runs `perfbench/run.py --workload W --seed S+p
--trace 0`, at the benchmark's own run length, once in the parent tree and
once in this checkout, one after the other. Even pairs run the parent
first and odd pairs this checkout, so a drift in machine speed over a
pair does not favour one side. Before each run every `__pycache__` under
the tree's `src` is removed and the run gets PYTHONDONTWRITEBYTECODE=1, so
both sides compile the package alike. Both trees must hold the same
`perfbench/` and `BENCHMARK.json`.

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles (`statistics.quantiles(n=4)`), how many pairs each
side won (the lower value wins; a tie counts for neither), the change's
median over the parent's, their gap and the parent's interquartile range.
It also records the machine, the seeds and the failed and attempted
operation counts. --out is written afresh from this call's runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def clear_bytecode(tree: Path) -> None:
    """Remove every `__pycache__` under the tree's `src`, so each run compiles the package."""
    for cache in (tree / "src").rglob("__pycache__"):
        shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py` run in `tree`: its result line, with the environment line."""
    clear_bytecode(tree)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True)
    environment, result = map(json.loads, done.stdout.splitlines()[-2:])
    return {**result, "environment": environment["environment"]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(values: dict[str, list[float]]) -> dict:
    """Both sides' values, pair by pair, with the change's wins, ratio and gap."""
    parent, change = (spread(values[side]) for side in SIDES)
    pairs = list(zip(values["parent"], values["change"]))
    return {
        "parent": parent,
        "change": change,
        "change_wins": sum(c < p for p, c in pairs),
        "parent_wins": sum(p < c for p, c in pairs),
        "ratio": change["median"] / parent["median"],
        "gap": parent["median"] - change["median"],
        "parent_iqr": parent["q3"] - parent["q1"],
    }


def bench_workload(
    trees: dict[str, Path], workload: str, pairs: int, seed: int
) -> tuple[dict, dict]:
    """The summary of `pairs` alternating pairs of runs, and the first run's environment."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for p in range(pairs):
        for side in SIDES if p % 2 == 0 else SIDES[::-1]:
            result = run_once(trees[side], workload, seed + p)
            runs[side].append(result)
            value = result["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {p} {side}: wall_s {value:.6f}", file=sys.stderr, flush=True)
    metrics = list(runs["parent"][0]["metrics"])
    summary = {
        "pairs": pairs,
        "seeds": f"{seed}-{seed + pairs - 1}",
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
    }
    for metric in metrics:
        summary[metric] = compare(
            {side: [r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES}
        )
    return summary, runs["parent"][0]["environment"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="pair p runs with seed + p")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    benchmark = {}
    for workload in args.workload:
        benchmark[workload], env = bench_workload(trees, workload, args.pairs, args.seed)
    machine = {key: env[key] for key in ("nproc", "cpu_model", "python", "platform")}
    args.out.write_text(json.dumps({"machine": machine, "benchmark": benchmark}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
