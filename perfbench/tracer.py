"""Span tracer that wraps the ordered_hamming modules from outside.

Nothing in the package is edited: `install` replaces each public function
of each module with a wrapper that records a span, on every module that
binds the function (the modules import each other's names with
`from .x import f`, so patching only the defining module would miss most
calls). `RatMatrix.__mul__` is wrapped too, but records a span only for
matrix-by-matrix products; scalar multiples pass straight through.

Spans are kept in memory as [id, parent_id, name, start, end, work] and
written as JSON lines by `dump`. `work` is the product's scalar
multiplication count (rows * inner * cols) for `exact_linalg.matmul`, the
returned dimension for `exact_linalg.algebra_closure`, and 0 elsewhere.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "ordered_hamming"
MODULES = ("exact_linalg", "scheme", "symtensor", "spectral", "terwilliger", "cli")
MATMUL = "exact_linalg.matmul"
CLOSURE = "exact_linalg.algebra_closure"

FIELDS = ("id", "parent", "name", "start", "end", "work")
ID, END, WORK = (FIELDS.index(f) for f in ("id", "end", "work"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []

    def wrap(self, name, fn, work=None):
        """Return `fn` recording one span per call.

        `name` is a string or a function of the call's arguments; `work`
        maps (args, result) to the span's work count.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            span = [len(spans), stack[-1][ID] if stack else None, label, clock(), 0.0, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def _instance_label(args) -> str:
    params = args[0]
    return f"cli.instance.q{'-'.join(map(str, params.q))}.n{params.n}"


def install(tracer: Tracer) -> None:
    """Wrap every public function of the package modules, on every binding."""
    mods = {short: sys.modules[f"{PACKAGE}.{short}"] for short in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            work = (lambda args, out: out.dimension) if f"{short}.{attr}" == CLOSURE else None
            wrapped[fn] = tracer.wrap(f"{short}.{attr}", fn, work)
    cli = mods["cli"]
    wrapped[cli._run_instance] = tracer.wrap(_instance_label, cli._run_instance)
    for mod in [sys.modules[PACKAGE], *mods.values()]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])

    rat = mods["exact_linalg"].RatMatrix
    plain_mul = rat.__mul__
    traced_mul = tracer.wrap(
        MATMUL, plain_mul, lambda args, out: args[0].nrows * args[0].ncols * args[1].ncols
    )

    def mul(self, other):
        if isinstance(other, rat):
            return traced_mul(self, other)
        return plain_mul(self, other)

    rat.__mul__ = mul


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_stats(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s, work and matmul_calls.

    self_s is a span's duration minus its children's (spans of one thread
    nest, so children never overlap). total_s counts only the outermost
    span of a name, so recursion is not counted twice. matmul_calls counts
    the matrix products nested anywhere below the name.
    """
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0, "matmul_calls": 0}
    )
    for s in spans:
        st = stats[s["name"]]
        duration = s["end"] - s["start"]
        st["calls"] += 1
        st["self_s"] += duration - child_s[s["id"]]
        st["work"] += s["work"]
        ancestors = set()
        parent = s["parent"]
        while parent is not None:
            ancestors.add(by_id[parent]["name"])
            parent = by_id[parent]["parent"]
        if s["name"] not in ancestors:
            st["total_s"] += duration
        if s["name"] == MATMUL:
            for name in ancestors:
                stats[name]["matmul_calls"] += 1
    return dict(stats)
