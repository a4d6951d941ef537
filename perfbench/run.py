"""Benchmark of the ordered-hamming CLI.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, so there is nothing to build. Each operation is one fresh
`python3 perfbench/worker.py` process calling `ordered_hamming.cli.main`
(closed loop, one client, one operation at a time). A workload's
operations, run once in an order shuffled by --seed, make one pass;
passes repeat until --seconds have gone by.

An operation fails when its process dies, its exit code differs from the
reference, or the SHA-256 of its stdout differs from the reference digest
in reference.json.

Times are scaled to the machine's nominal speed. On a shared virtual
machine (the benchmark was written on a 2-core Xeon VM) CPU speed drifts
by tens of percent over seconds to minutes as other tenants load the
host, so raw wall times of two runs are not comparable. A fixed
exact-arithmetic loop that does not use the package is timed between any
two operations, and each operation's times are multiplied by
NOMINAL_CALIBRATION_S over the mean of the loop times just before and
after it. The raw times are recorded beside the scaled ones.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The line before it, and a
file under perfbench/out/, record the machine, the environment and the
sample counts. `--record-reference` rewrites reference.json from the
current code instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from tracer import layer_stats, load  # noqa: E402

# The instances are smaller than the largest ones the CLI accepts, so that
# one pass takes a few seconds and every run holds several passes whose
# median is steady. Each keeps its layer profile (see README.md):
# - suite: the CLI's own --max-points bound skips X(2,2;2,2), the one
#   16-point instance; the other seven still spend over 80% of self time in
#   RatMatrix products. None of them has a component split with symmetric
#   products, so the report on X(1,2;3) is added for that layer.
# - closure: X(1,4;2), 16 points; bm generators are sparse 0/1 matrices,
#   idem generators dense rationals.
# - scheme-verify: X(2,1;5,6), 30 points; 0/1 relation-matrix products.
WORKLOADS: dict[str, list[list[str]]] = {
    "suite": [
        ["suite", "--max-points", "8", "--json"],
        ["report", "--q", "3", "--n", "2", "--json"],
    ],
    "closure": [
        ["closure", "--q", "2", "--n", "4", "--generators", "bm", "--json"],
        ["closure", "--q", "2", "--n", "4", "--generators", "idem", "--json"],
    ],
    "scheme-verify": [["scheme-verify", "--q", "5,6", "--n", "1", "--json"]],
}
# X(1,2;2): small enough for the benchmark's own tests.
TINY = ["report", "--q", "2", "--n", "2", "--json"]

SETUP_PROBES = 5
# Every run must end within 180 s; an operation still going at this point
# of the run is killed and counted as failed.
HARD_LIMIT_S = 170.0
# Per-layer metric fields that sum the spans' work column.
WORK_FIELDS = ("scalar_mults", "dim_sum")
# The calibration loop is Fraction dot products, the package's hot path
# written out here, so that it slows down under contention the way the
# operations do. It takes about NOMINAL_CALIBRATION_S on an idle core of the
# machine the benchmark was written on (2-core Xeon VM, Python 3.11).
CALIBRATION_REPS = 40
NOMINAL_CALIBRATION_S = 0.2


def calibration_loop() -> float:
    a = [[Fraction(i * j + 1, i + j + 1) for j in range(12)] for i in range(12)]
    cols = list(zip(*a))
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a]
    return time.perf_counter() - start


class Calibrator:
    """Times the calibration loop between operations."""

    def __init__(self):
        self.times = [calibration_loop()]

    def scale(self) -> float:
        """Time the loop again; the factor to nominal speed for the time since the last call."""
        self.times.append(calibration_loop())
        return NOMINAL_CALIBRATION_S / ((self.times[-2] + self.times[-1]) / 2)


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spawn(argv: list[str], trace_path: Path | None = None, timeout: float = HARD_LIMIT_S):
    """Run one worker process; its record with `setup_s` added, or None if it died."""
    cmd = [sys.executable, str(HERE / "worker.py")]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    cmd += ["--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None
    record["setup_s"] = record.pop("ready") - start
    return record


def judge(record: dict | None, expected: dict | None) -> bool:
    """True when the operation ran and matches its reference exit code and digest."""
    return (
        record is not None
        and expected is not None
        and record["code"] == expected["exit_code"]
        and digest(record["stdout"]) == expected["sha256"]
    )


def merge_stats(total: dict, part: dict) -> None:
    for name, fields in part.items():
        slot = total.setdefault(name, dict.fromkeys(fields, 0))
        for field, value in fields.items():
            slot[field] += value


def run_pass(ops, reference, deadline, calibrator, trace_path=None) -> dict:
    """Run each operation once; scaled and raw wall, peak RSS, set-up, failures, spans."""
    result = {
        "wall_s": 0.0, "raw_wall_s": 0.0, "peak_rss_kib": 0,
        "setup_s": [], "raw_setup_s": [], "attempted": 0, "failed": 0,
    }
    stats: dict = {}
    for argv in ops:
        if trace_path is not None and trace_path.exists():
            trace_path.unlink()
        record = spawn(argv, trace_path, timeout=deadline - time.monotonic())
        scale = calibrator.scale()
        result["attempted"] += 1
        if not judge(record, reference.get(op_key(argv))):
            result["failed"] += 1
            sys.stderr.write(f"operation failed: {op_key(argv)}\n")
        if record is None:
            continue
        result["wall_s"] += record["wall_s"] * scale
        result["raw_wall_s"] += record["wall_s"]
        result["peak_rss_kib"] = max(result["peak_rss_kib"], record["peak_rss_kib"])
        result["setup_s"].append(record["setup_s"] * scale)
        result["raw_setup_s"].append(record["setup_s"])
        if trace_path is not None and trace_path.exists():
            merge_stats(stats, layer_stats(load(trace_path)))
    if trace_path is not None:
        result["stats"] = stats
    return result


def layer_value(stats: dict, metric: str) -> float:
    layer, field = metric.rsplit(".", 1)
    if field in WORK_FIELDS:
        field = "work"
    return stats.get(layer, {}).get(field, 0)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, samples: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "operations": [op_key(a) for a in WORKLOADS[args.workload]],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def record_reference() -> int:
    reference = {}
    for argv in [*(a for ops in WORKLOADS.values() for a in ops), TINY]:
        record = spawn(argv)
        if record is None:
            print(f"operation died: {op_key(argv)}", file=sys.stderr)
            return 1
        reference[op_key(argv)] = {"exit_code": record["code"], "sha256": digest(record["stdout"])}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


def measure(args, spec: dict, reference: dict) -> tuple[dict, dict]:
    rng = random.Random(args.seed)
    ops = WORKLOADS[args.workload]
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    calibrator = Calibrator()
    setup, raw_setup = [], []
    for _ in range(SETUP_PROBES):
        probe = spawn([], timeout=hard_deadline - time.monotonic())
        scale = calibrator.scale()
        if probe is not None:
            setup.append(probe["setup_s"] * scale)
            raw_setup.append(probe["setup_s"])
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    measure_until = time.monotonic() + args.seconds
    plain, traced = [], []
    attempted = failed = 0
    # With tracing, passes alternate between untraced and traced, so that
    # the overhead is measured under the same conditions.
    while (
        time.monotonic() < measure_until
        or not plain
        or (args.trace and not traced)
    ) and time.monotonic() < hard_deadline:
        order = rng.sample(ops, len(ops))
        is_traced = bool(args.trace) and len(plain) > len(traced)
        p = run_pass(order, reference, hard_deadline, calibrator, trace_path if is_traced else None)
        (traced if is_traced else plain).append(p)
        attempted += p["attempted"]
        failed += p["failed"]
        setup += p["setup_s"]
        raw_setup += p["raw_setup_s"]

    samples = {
        "setup_probes": SETUP_PROBES,
        "setup_samples": len(setup),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "pass_wall_s": [p["wall_s"] for p in plain],
        "raw_pass_wall_s": [p["raw_wall_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "raw_setup_median_s": statistics.median(raw_setup) if raw_setup else None,
        "calibration_s": calibrator.times,
    }
    if not args.trace:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in plain) / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            p["wall_s"] for p in plain
        )
        values = {
            m["name"]: overhead
            if m["name"] == "trace_overhead_s"
            else statistics.median_low(layer_value(p["stats"], m["name"]) for p in traced)
            for m in spec["per_layer"]
        }
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "ordered_hamming" / "cli.py").is_file():
        print(f"error: no ordered_hamming package under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())

    result, samples = measure(args, spec, reference)
    env = environment(args, samples)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **result}, indent=2) + "\n"
    )
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
