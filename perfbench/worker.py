"""Run one ordered-hamming CLI operation in a fresh interpreter.

    python3 perfbench/worker.py [--trace SPANS.jsonl] [-- CLI ARGS...]

Needs the package on PYTHONPATH. Prints one JSON object on stdout:

- ready: time.monotonic() once ordered_hamming.cli is imported; the parent
  subtracts its own monotonic clock at spawn to get the set-up time;
- code, stdout: the exit code of cli.main and everything it printed;
- wall_s: from the call into cli.main until its stdout is written;
- peak_rss_kib: this process's peak resident set size.

With no CLI arguments it only imports and reports `ready`, as a set-up probe.
With --trace, spans of every package function are written to SPANS.jsonl.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def peak_rss_kib() -> int:
    # getrusage's ru_maxrss survives execve, so it would report the parent's
    # size when that is larger; VmHWM belongs to this process image alone.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    import ordered_hamming.cli as cli

    record: dict = {"ready": time.monotonic()}
    if argv:
        tracer = None
        if trace_path is not None:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        stdout = captured.getvalue()
        record["wall_s"] = time.perf_counter() - start
        record["code"] = code
        record["stdout"] = stdout
        if tracer is not None:
            tracer.dump(trace_path)
    record["peak_rss_kib"] = peak_rss_kib()
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
