"""Command-line front end.

Every subcommand prints one JSON document to stdout and short progress
lines to stderr (silenced by --json). Exit code 0 means every check
passed, 1 means a check failed (or, under --strict, a printed-formula
prediction disagreed with measurement), 2 means a usage error or a size
bound violation, 3 means an internal inconsistency (two constructions
disagree); stdout then holds an "error" document instead of results.

Only the named command's parser is built; the full parser, with every
command, is built for --help, for no arguments and for an unknown command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable

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


def _parse_csv_ints(text: str, what: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        parser.error(f"{what} must be a comma-separated list of integers")


def _params_from_args(args, parser: argparse.ArgumentParser) -> SchemeParams:
    """`SchemeParams` states the rules for q and n; breaking one is a usage error."""
    q = _parse_csv_ints(args.q, "--q", parser)
    try:
        return SchemeParams(q, args.n)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_shape(text: str, length: int, total: int, parser: argparse.ArgumentParser, what: str):
    values = _parse_csv_ints(text, what, parser)
    if len(values) != length or any(v < 0 for v in values) or sum(values) != total:
        parser.error(
            f"{what} must be {length} non-negative integers summing to {total}"
        )
    return values


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone when it names one.

    A one-command parser still shows every command in its usage line, so
    its usage errors read exactly as the full parser's.
    """
    parser = argparse.ArgumentParser(
        prog="ordered-hamming",
        description="Exact constructions and verifications for ordered Hamming schemes.",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, help_text, extra = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name != "suite":
            p.add_argument("--q", required=True, help="comma-separated alphabet sizes, each >= 2")
            p.add_argument("--n", required=True, type=int, help="word length, >= 1")
        p.add_argument(
            "--max-points",
            type=int,
            default=DEFAULT_MAX_POINTS,
            help="largest allowed |X^n| for matrix-producing work (default 256)",
        )
        p.add_argument("--json", action="store_true", help="suppress stderr logging")
        for flags, options in extra:
            p.add_argument(*flags, **options)
    return parser


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


def _cmd_shapes(args, parser, params) -> tuple[dict, dict]:
    return {}, {"shapes": [list(s) for s in enumerate_shapes(params)]}


def _cmd_scheme_verify(args, parser, params) -> tuple[dict, dict]:
    inst = Instance(params, args.max_points)
    checks = verify_axioms(inst)
    table = inst.intersection_counts
    return checks, {
        "intersection_numbers": None if table is None else intersection_table_json(table)
    }


def _cmd_adjacency(args, parser, params) -> tuple[dict, dict]:
    shape = _parse_shape(args.shape, params.m + 1, params.n, parser, "--shape")
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


def _cmd_eigenmatrix(args, parser, params) -> tuple[dict, dict]:
    P, Q = eigen_n(params)
    size_identity = P * Q == RatMatrix.identity(params.class_count).scale(params.num_points)
    data = {
        "which": args.which,
        "shape_order": [list(s) for s in enumerate_shapes(params)],
        "matrix": (P if args.which == "P" else Q).to_json(),
    }
    return {"pq_product_is_size_identity": size_identity}, data


def _cmd_krawchouk(args, parser, params) -> tuple[dict, dict]:
    table = krawchouk_table(params.reversed() if args.reversed else params)
    data = {
        "reversed": bool(args.reversed),
        "shape_order": [list(s) for s in enumerate_shapes(params)],
        "table": table.to_json()["entries"],
    }
    return {}, data


def _cmd_theta(args, parser, params) -> tuple[dict, dict]:
    lam = _parse_shape(args.lam, params.m, params.n, parser, "--lambda")
    mu = _parse_shape(args.mu, params.m, params.n, parser, "--mu")
    grids = theta_enumerate(lam, mu, params)
    feasible = theta_feasible(lam, mu, params)
    data = {
        "lambda": list(lam),
        "mu": list(mu),
        "feasible": feasible,
        "matrices": [[list(row) for row in grid] for grid in grids],
    }
    return {"feasible_iff_nonempty": feasible == bool(grids)}, data


def _cmd_omega(args, parser, params) -> tuple[dict, dict]:
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


def _cmd_identities(args, parser, params) -> tuple[dict, dict]:
    return verify_terw_identities(Instance(params, args.max_points)), {}


def _log_dimension(args, inst: Instance, dim_t: int) -> None:
    """N, the orbital count r and the measured dim T; r only bounds dim T from above."""
    _log(
        args,
        f"{inst.params.label()}: N = {inst.params.num_points} points, "
        f"r = {inst.orbitals.count} orbitals (an upper bound on dim T), "
        f"measured dim T = {dim_t}",
    )


def _cmd_closure(args, parser, params) -> tuple[dict, dict]:
    inst = Instance(params, args.max_points)
    sub = terwilliger_closure(inst, args.generators)
    _log_dimension(args, inst, sub.dimension)
    return {}, {"generators": args.generators, "dimension": sub.dimension}


def _report_checks(report: StructureReport, strict: bool) -> dict:
    """The report's checks; with --strict also whether every printed formula agrees."""
    if strict:
        return {**report.checks, "predictions_agree": report.all_predictions_agree}
    return dict(report.checks)


def _cmd_report(args, parser, params) -> tuple[dict, dict]:
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


def _option(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_STRICT = _option("--strict", action="store_true", help="fail when a printed formula disagrees")

# Each command's handler, help and the options it adds after the shared ones, in help
# order. Every handler but `suite`'s takes the parsed --q and --n and returns (checks, data).
_COMMANDS: dict[str, tuple[Callable, str, tuple]] = {
    "shapes": (_cmd_shapes, "list all relation shapes", ()),
    "scheme-verify": (_cmd_scheme_verify, "check the association scheme axioms", ()),
    "adjacency": (
        _cmd_adjacency,
        "one lifted adjacency matrix, cross-checked",
        (_option("--shape", required=True, help="comma-separated shape entries"),),
    ),
    "eigenmatrix": (
        _cmd_eigenmatrix,
        "first or second eigenmatrix at depth n",
        (_option("--which", choices=("P", "Q"), default="P"),),
    ),
    "krawchouk": (
        _cmd_krawchouk,
        "Krawtchouk coefficient table",
        (_option("--reversed", action="store_true", help="use the reversed alphabet sequence"),),
    ),
    "theta": (
        _cmd_theta,
        "enumerate support grids for one margin pair",
        (
            _option("--lambda", dest="lam", required=True, help="row-sum shape (m entries)"),
            _option("--mu", required=True, help="column-sum shape (m entries)"),
        ),
    ),
    "omega": (_cmd_omega, "all feasible margin pairs", ()),
    "identities": (_cmd_identities, "run the structural identity suite", ()),
    "closure": (
        _cmd_closure,
        "dimension of the generated matrix algebra",
        (_option("--generators", choices=("bm", "idem"), default="bm"),),
    ),
    "report": (_cmd_report, "full structure report with measured dimensions", (_STRICT,)),
    "suite": (_cmd_suite, "run the built-in instance suite", (_STRICT,)),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        handler = _COMMANDS[args.command][0]
        if args.command == "suite":
            payload = handler(args)
        else:
            params = _params_from_args(args, parser)
            checks, data = handler(args, parser, params)
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
