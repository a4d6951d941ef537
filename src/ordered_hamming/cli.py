"""Command-line front end.

Every subcommand prints one JSON document to stdout and short progress
lines to stderr (silenced by --json). Exit code 0 means every check
passed, 1 means a check failed (or, under --strict, a printed-formula
prediction disagreed with measurement), 2 means a usage error or a size
bound violation, 3 means an internal inconsistency (two constructions
disagree); stdout then holds an "error" document instead of results.

`_COMMANDS` is the one source of options. A well-formed line (a command, then
whole `--flag value` pairs and bare switches of it, every value of its type and
choices, every required option given) is read from it without importing
argparse. Any other line (help, an unknown or abbreviated flag, `--flag=value`,
`--`, a missing or dash-led value, a bad type or choice, a missing required
option) goes to argparse, which alone prints help and words usage errors.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections.abc import Callable
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .exact_linalg import InternalMismatch, RatMatrix
from .scheme import (
    DEFAULT_MAX_POINTS,
    SchemeParams,
    SizeBound,
    enumerate_shapes,
    intersection_table_json,
    verify_axioms,
)
from .spectral import (
    eigen_n,
    krawchouk_table,
    valency_n,
    verify_base_duality,
    verify_spectral_n,
)
from .terwilliger import (
    Instance,
    StructureReport,
    all_pass,
    lambda_set,
    omega_set,
    structure_report,
    terwilliger_closure,
    theta_enumerate,
    theta_feasible,
    verify_terw_identities,
)

if TYPE_CHECKING:
    import argparse

SUITE_INSTANCES: tuple[tuple[tuple[int, ...], int], ...] = (
    ((2,), 1),
    ((3,), 1),
    ((2,), 2),
    ((2,), 3),
    ((2, 2), 1),
    ((2, 3), 1),
    ((2, 2), 2),
    ((2, 2, 2), 1),
)


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        build_parser().error(f"{what} must be a comma-separated list of integers")


def _params_from_args(args) -> SchemeParams:
    """`SchemeParams` states the rules for q and n; breaking one is a usage error."""
    q = _parse_csv_ints(args.q, "--q")
    try:
        return SchemeParams(q, args.n)
    except ValueError as exc:
        build_parser().error(str(exc))


def _parse_shape(text: str, length: int, total: int, what: str):
    values = _parse_csv_ints(text, what)
    if len(values) != length or any(v < 0 for v in values) or sum(values) != total:
        build_parser().error(
            f"{what} must be {length} non-negative integers summing to {total}"
        )
    return values


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, built from `_COMMANDS`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ordered-hamming",
        description="Exact constructions and verifications for ordered Hamming schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
    return parser


def _quick_args(argv: list[str]) -> SimpleNamespace | None:
    """Argparse's reading of a well-formed line (see the module docstring), or None to defer."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value defers, as a dash-led one does
        try:
            given[flag] = spec.get("type", str)(text)
        except ValueError:
            return None
        if text.startswith("-") or given[flag] not in spec.get("choices", (given[flag],)):
            return None
    args = SimpleNamespace(command=argv[0])
    for flag, spec in options.items():
        if spec.get("required") and flag not in given:
            return None
        unset = False if spec.get("action") == "store_true" else spec.get("default")
        setattr(args, spec.get("dest", flag[2:].replace("-", "_")), given.get(flag, unset))
    return args


def _log(args, message: str) -> None:
    if not getattr(args, "json", False):
        print(message, file=sys.stderr)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _run_report(command: str, params: SchemeParams, checks: dict, data: dict) -> dict:
    return {
        "command": command,
        "params": {"q": list(params.q), "n": params.n},
        "checks": checks,
        "overall_pass": all_pass(checks),
        "data": data,
    }


def _cmd_shapes(args, params) -> tuple[dict, dict]:
    return {}, {"shapes": [list(s) for s in enumerate_shapes(params)]}


def _cmd_scheme_verify(args, params) -> tuple[dict, dict]:
    inst = Instance(params, args.max_points)
    checks = verify_axioms(inst)
    table = inst.intersection_counts
    return checks, {
        "intersection_numbers": None if table is None else intersection_table_json(table)
    }


def _cmd_adjacency(args, params) -> tuple[dict, dict]:
    shape = _parse_shape(args.shape, params.m + 1, params.n, "--shape")
    inst = Instance(params, args.max_points)
    lifted = inst.adjacency[shape]
    indicator = [s == shape for s in inst.pair_shapes]
    checks = {"matches_relation_matrix": lifted.is_indicator(indicator)}
    data = {
        "shape": list(shape),
        "valency": valency_n(shape, params),
        "matrix": lifted.matrix().to_json(),
    }
    return checks, data


def _cmd_eigenmatrix(args, params) -> tuple[dict, dict]:
    P, Q = eigen_n(params)
    size_identity = P * Q == RatMatrix.identity(params.class_count).scale(params.num_points)
    data = {
        "which": args.which,
        "shape_order": [list(s) for s in enumerate_shapes(params)],
        "matrix": (P if args.which == "P" else Q).to_json(),
    }
    return {"pq_product_is_size_identity": size_identity}, data


def _cmd_krawchouk(args, params) -> tuple[dict, dict]:
    table = krawchouk_table(params.reversed() if args.reversed else params)
    data = {
        "reversed": bool(args.reversed),
        "shape_order": [list(s) for s in enumerate_shapes(params)],
        "table": table.to_json()["entries"],
    }
    return {}, data


def _cmd_theta(args, params) -> tuple[dict, dict]:
    lam = _parse_shape(args.lam, params.m, params.n, "--lambda")
    mu = _parse_shape(args.mu, params.m, params.n, "--mu")
    grids = theta_enumerate(lam, mu, params)
    feasible = theta_feasible(lam, mu, params)
    data = {
        "lambda": list(lam),
        "mu": list(mu),
        "feasible": feasible,
        "matrices": [[list(row) for row in grid] for grid in grids],
    }
    return {"feasible_iff_nonempty": feasible == bool(grids)}, data


def _cmd_omega(args, params) -> tuple[dict, dict]:
    pairs = omega_set(params)
    lam_info = lambda_set(params)
    consistent = all(
        theta_feasible(lam, mu, params) == bool(theta_enumerate(lam, mu, params))
        for lam, mu in pairs
    )
    data = {
        "pairs": [[list(lam), list(mu)] for lam, mu in pairs],
        "size": len(pairs),
        "lambda_size": lam_info.size,
        "epsilon": lam_info.epsilon,
        "multiset_binomial": math.comb(lam_info.size + params.n - 1, params.n),
    }
    return {"feasible_iff_nonempty": consistent}, data


def _cmd_identities(args, params) -> tuple[dict, dict]:
    return verify_terw_identities(Instance(params, args.max_points)), {}


def _log_dimension(args, inst: Instance, dim_t: int) -> None:
    """N, the orbital count r and the measured dim T; r only bounds dim T from above."""
    _log(
        args,
        f"{inst.params.label()}: N = {inst.params.num_points} points, "
        f"r = {inst.orbitals.count} orbitals (an upper bound on dim T), "
        f"measured dim T = {dim_t}",
    )


def _cmd_closure(args, params) -> tuple[dict, dict]:
    inst = Instance(params, args.max_points)
    sub = terwilliger_closure(inst, args.generators)
    _log_dimension(args, inst, sub.dimension)
    return {}, {"generators": args.generators, "dimension": sub.dimension}


def _report_checks(report: StructureReport, strict: bool) -> dict:
    """The report's checks; with --strict also whether every printed formula agrees."""
    if strict:
        return {**report.checks, "predictions_agree": report.all_predictions_agree}
    return dict(report.checks)


def _cmd_report(args, params) -> tuple[dict, dict]:
    inst = Instance(params, args.max_points)
    report = structure_report(inst)
    _log_dimension(args, inst, report.dim_T)
    return _report_checks(report, args.strict), report.to_json()


def _run_instance(params: SchemeParams, max_points: int, strict: bool) -> dict:
    inst = Instance(params, max_points)
    axioms = verify_axioms(inst)
    spectral = verify_spectral_n(inst)
    duality = verify_base_duality(params)
    report = structure_report(inst)
    checks = {
        "axioms_all_pass": all_pass(axioms),
        "spectral_all_pass": all_pass(spectral),
        "base_duality_all_pass": all_pass(duality),
        **_report_checks(report, strict),
    }
    data = {
        "instance": params.label(),
        "axioms": {**axioms, "all_pass": checks["axioms_all_pass"]},
        "spectral": {**spectral, "all_pass": checks["spectral_all_pass"]},
        "duality": {**duality, "all_pass": checks["base_duality_all_pass"]},
        "report": report.to_json(),
    }
    out = _run_report("instance", params, checks, data)
    out["disagreements"] = [
        {"source": p.source, "value": p.value}
        for p in report.predictions
        if not p.agrees
    ]
    return out


def _cmd_suite(args) -> dict:
    instances = []
    for q, n in SUITE_INSTANCES:
        params = SchemeParams(q, n)
        if params.num_points > args.max_points:
            _log(args, f"skipping {params.label()}: over --max-points {args.max_points}")
            continue
        start = time.monotonic()
        _log(args, f"running {params.label()} ...")
        instances.append(_run_instance(params, args.max_points, args.strict))
        elapsed = int((time.monotonic() - start) * 1000)
        _log(args, f"finished {params.label()} in {elapsed} ms")
    if not instances:
        raise SizeBound(f"every suite instance is over --max-points {args.max_points}")
    return {
        "command": "suite",
        "strict": bool(args.strict),
        "instances": instances,
        "disagreements": [
            {"instance": result["data"]["instance"], **entry}
            for result in instances
            for entry in result["disagreements"]
        ],
        "overall_pass": all(result["overall_pass"] for result in instances),
    }


# The options every command takes; every command but `suite` takes --q and --n before them.
_SHARED = {
    "--max-points": dict(
        type=int,
        default=DEFAULT_MAX_POINTS,
        help="largest allowed |X^n| for matrix-producing work (default 256)",
    ),
    "--json": dict(action="store_true", help="suppress stderr logging"),
}
_PARAMS = {
    "--q": dict(required=True, help="comma-separated alphabet sizes, each >= 2"),
    "--n": dict(required=True, type=int, help="word length, >= 1"),
    **_SHARED,
}
_STRICT = {"--strict": dict(action="store_true", help="fail when a printed formula disagrees")}

# Each command's handler, help and every option it takes, {flag: argparse keyword
# arguments} in help order: the one source both `_quick_args` and `build_parser` read.
# Every handler but `suite`'s takes the parsed --q and --n and returns (checks, data).
_COMMANDS: dict[str, tuple[Callable, str, dict[str, dict]]] = {
    "shapes": (_cmd_shapes, "list all relation shapes", _PARAMS),
    "scheme-verify": (_cmd_scheme_verify, "check the association scheme axioms", _PARAMS),
    "adjacency": (
        _cmd_adjacency,
        "one lifted adjacency matrix, cross-checked",
        {**_PARAMS, "--shape": dict(required=True, help="comma-separated shape entries")},
    ),
    "eigenmatrix": (
        _cmd_eigenmatrix,
        "first or second eigenmatrix at depth n",
        {**_PARAMS, "--which": dict(choices=("P", "Q"), default="P")},
    ),
    "krawchouk": (
        _cmd_krawchouk,
        "Krawtchouk coefficient table",
        {
            **_PARAMS,
            "--reversed": dict(action="store_true", help="use the reversed alphabet sequence"),
        },
    ),
    "theta": (
        _cmd_theta,
        "enumerate support grids for one margin pair",
        {
            **_PARAMS,
            "--lambda": dict(dest="lam", required=True, help="row-sum shape (m entries)"),
            "--mu": dict(required=True, help="column-sum shape (m entries)"),
        },
    ),
    "omega": (_cmd_omega, "all feasible margin pairs", _PARAMS),
    "identities": (_cmd_identities, "run the structural identity suite", _PARAMS),
    "closure": (
        _cmd_closure,
        "dimension of the generated matrix algebra",
        {**_PARAMS, "--generators": dict(choices=("bm", "idem"), default="bm")},
    ),
    "report": (_cmd_report, "full structure report with measured dimensions", _PARAMS | _STRICT),
    "suite": (_cmd_suite, "run the built-in instance suite", _SHARED | _STRICT),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _quick_args(argv) or build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        handler = _COMMANDS[args.command][0]
        if args.command == "suite":
            payload = handler(args)
        else:
            params = _params_from_args(args)
            checks, data = handler(args, params)
            payload = _run_report(args.command, params, checks, data)
    except SizeBound as exc:
        print(f"size bound exceeded: {exc}", file=sys.stderr)
        return 2
    except InternalMismatch as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        _emit({"command": args.command, "error": error, "overall_pass": False})
        return 3
    elapsed = int((time.monotonic() - start) * 1000)
    _emit(payload)
    _log(args, f"{args.command} completed in {elapsed} ms")
    return 0 if payload["overall_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
