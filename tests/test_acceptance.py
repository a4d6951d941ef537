"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked by dimension were computed with the exact
closure oracle and cross-checked against the independent counting
formulas; the suite asserts the oracle values.
"""

import hashlib
import json
import math
import subprocess
import sys

from ordered_hamming import (
    Instance,
    SchemeParams,
    eigen_n,
    lambda_set,
    omega_set,
    terwilliger_closure,
    theta_enumerate,
    theta_feasible,
    verify_axioms,
    verify_base_duality,
    verify_spectral_n,
)
from ordered_hamming.exact_linalg import RatMatrix
from ordered_hamming.scheme import compositions

from dense_oracle import relation_matrices


def _conclude(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def test_criterion_1_axiom_suite(suite_params):
    failures = []
    for params in suite_params:
        checks = verify_axioms(Instance(params))
        if not all(checks.values()):
            failures.append((params.label(), checks))
    _conclude(1, "axiom suite", failures)


def test_criterion_2_construction_cross_oracle(suite_params):
    failures = []
    for params in suite_params:
        inst = Instance(params)
        for lam in inst.shapes:
            if not inst.adjacency[lam].matches(relation_matrices(inst)[lam]):
                failures.append((params.label(), lam))
    _conclude(2, "lifted adjacency equals brute-force relations", failures)


def test_criterion_3_spectral_suite(suite_params):
    failures = []
    for params in suite_params:
        checks = verify_spectral_n(Instance(params))
        if not all(checks.values()):
            failures.append((params.label(), checks))
        if False in verify_base_duality(params).values():
            failures.append((params.label(), "base duality"))
        P, Q = eigen_n(params)
        P_rev, Q_rev = eigen_n(params.reversed())
        if P_rev != Q or Q_rev != P:
            failures.append((params.label(), "depth-n duality"))
        if params.q == tuple(reversed(params.q)) and P != Q:
            failures.append((params.label(), "palindromic self-duality"))
    spot, _ = eigen_n(SchemeParams((2,), 2))
    if spot != RatMatrix([[1, 2, 1], [1, 0, -1], [1, -2, 1]]):
        failures.append(("X(1,2;2)", "eigenmatrix spot value"))
    _conclude(3, "spectral suite", failures)


def test_criterion_4_identity_suite(suite_params, report_for):
    failures = []
    for params in suite_params:
        suite = report_for(params.q, params.n).identity_suite
        bad = {k: v for k, v in suite.items() if v is False}
        if bad:
            failures.append((params.label(), bad))
    _conclude(4, "structural identity suite", failures)


THETA_PROFILES = (
    ((2,), 1),
    ((3,), 1),
    ((2,), 2),
    ((2,), 3),
    ((2, 2), 1),
    ((2, 3), 1),
    ((2, 2), 2),
    ((2, 2, 2), 1),
    ((3, 2), 1),
    ((3, 2), 2),
    ((3, 2), 3),
    ((2, 3, 2), 1),
    ((2, 3, 2), 2),
    ((2, 3, 2), 3),
    ((2, 2), 4),
    ((2, 3), 4),
    ((2, 3, 2), 4),
)


def _omega_conditions_hold(q: tuple[int, ...], n: int) -> bool:
    m = len(q)
    return (
        (m == 1 and q[0] >= 3)
        or m == 2
        or (m == 3 and q[1] == 2)
        or n == 1
    )


def test_criterion_5_combinatorics():
    failures = []
    for q, n in THETA_PROFILES:
        params = SchemeParams(q, n)
        inner = compositions(n, params.m)
        total = 0
        for lam in inner:
            for mu in inner:
                grids = theta_enumerate(lam, mu, params)
                total += len(grids)
                if theta_feasible(lam, mu, params) != bool(grids):
                    failures.append((params.label(), lam, mu, "feasibility mismatch"))
        binom = math.comb(lambda_set(params).size + n - 1, n)
        if total != binom:
            failures.append((params.label(), "grid total", total, binom))
        omega = len(omega_set(params))
        if params.m >= 2 or q[0] >= 3:
            if _omega_conditions_hold(q, n):
                if omega != binom:
                    failures.append((params.label(), "feasible pairs", omega, binom))
            elif omega >= binom:
                failures.append((params.label(), "expected strict inequality", omega, binom))
    strict_case = SchemeParams((2, 3, 2), 2)
    if len(omega_set(strict_case)) >= math.comb(lambda_set(strict_case).size + 1, 2):
        failures.append(("X(3,2;2,3,2)", "strict inequality"))
    _conclude(5, "grid and feasible-pair counting", failures)


# Closure-oracle dimensions for the depth-one instances, cross-checked against
# (m+1)^2 + m(m-1)/2 + eps with eps = #{i : q_i >= 3}.
DEPTH_ONE_DIMS = {
    (2,): 4,
    (3,): 5,
    (2, 2): 10,
    (2, 3): 11,
    (2, 2, 2): 19,
}


def test_criterion_6_closure_dimensions(report_for):
    failures = []
    for q, expected in DEPTH_ONE_DIMS.items():
        params = SchemeParams(q, 1)
        m = params.m
        eps = lambda_set(params).epsilon
        formula = (m + 1) ** 2 + m * (m - 1) // 2 + eps
        if formula != expected:
            failures.append((params.label(), "formula cross-check", formula, expected))
        report = report_for(q, 1)
        if report.dim_T != expected:
            failures.append((params.label(), "measured", report.dim_T, expected))
        if not report.checks["generator_sets_agree"]:
            failures.append((params.label(), "generator sets differ"))
    inst = Instance(SchemeParams((2, 3), 1))
    bm = terwilliger_closure(inst, "bm")
    idem = terwilliger_closure(inst, "idem")
    if bm != idem:
        failures.append(("X(2,1;2,3)", "generator subspaces differ"))
    _conclude(6, "closure dimensions", failures)


def test_criterion_7_decomposition_consistency(suite_params, report_for):
    failures = []
    for params in suite_params:
        report = report_for(params.q, params.n)
        if report.dim_primary != params.class_count**2:
            failures.append((params.label(), "primary dimension", report.dim_primary))
        if not report.checks["primary_multiplication_law"]:
            failures.append((params.label(), "primary multiplication law"))
        if params.m == 1 and params.q[0] == 2:
            continue
        for key in (
            "components_pairwise_annihilating",
            "components_sum_to_total",
            "top_component_commutative",
            "top_component_dim_is_feasible_pair_count",
        ):
            if not report.checks[key]:
                failures.append((params.label(), key))
        top = report.components[-1]
        if top.dim != len(omega_set(params)):
            failures.append((params.label(), "top component dim", top.dim))
    _conclude(7, "component decomposition", failures)


def test_criterion_8_conflict_surfacing(report_for):
    failures = []
    four_cycle = report_for((2,), 2)
    if four_cycle.dim_T != 10:
        failures.append(("X(1,2;2)", "dim_T", four_cycle.dim_T))
    rows = {p.source: p for p in four_cycle.predictions}
    sym = rows.get("dim_T: symmetric power of the measured depth-one dimension")
    if sym is None or sym.value != 10 or not sym.agrees:
        failures.append(("X(1,2;2)", "symmetric-power prediction", sym))
    chain = rows.get("dim_T: chain of full blocks of shrinking size")
    if chain is None or chain.value != 14 or chain.agrees:
        failures.append(("X(1,2;2)", "printed chain total must disagree", chain))
    primary_only = rows.get("dim_T: primary subalgebra only")
    if primary_only is None or primary_only.value != 9 or primary_only.agrees:
        failures.append(("X(1,2;2)", "primary-only reading must disagree", primary_only))

    big = report_for((2, 2), 2)
    rows = {p.source: p for p in big.predictions}
    printed = rows.get("dim_T: block total with multiset-count exponent")
    if printed is None or printed.value != 46 or printed.agrees != (big.dim_T == 46):
        failures.append(("X(2,2;2,2)", "printed multiset-exponent total", printed))
    sym_big = rows.get("dim_T: symmetric power of the measured depth-one dimension")
    if sym_big is None or sym_big.value != 55 or sym_big.agrees != (big.dim_T == 55):
        failures.append(("X(2,2;2,2)", "symmetric-power prediction", sym_big))
    if big.dim_T != 55:
        failures.append(("X(2,2;2,2)", "measured dim_T", big.dim_T))
    _conclude(8, "printed-formula conflicts are surfaced", failures)


# SHA-256 of the full `suite --json` stdout. Comparing two runs alone would
# let a change to the output pass, so the first run is also held to this.
SUITE_JSON_SHA256 = "68cfef2010b3ce69fe048998440e201c0cba33e16becf33ea5c8361281c86ad7"


def test_criterion_9_suite_determinism():
    cmd = [sys.executable, "-m", "ordered_hamming.cli", "suite", "--json"]
    first = subprocess.run(cmd, capture_output=True, timeout=1200)
    second = subprocess.run(cmd, capture_output=True, timeout=1200)
    failures = []
    if first.returncode != 0:
        failures.append(("first run exit", first.returncode))
    if second.returncode != 0:
        failures.append(("second run exit", second.returncode))
    if first.stdout != second.stdout:
        failures.append(("stdout differs between runs",))
    if hashlib.sha256(first.stdout).hexdigest() != SUITE_JSON_SHA256:
        failures.append(("stdout differs from the recorded digest",))
    payload = json.loads(first.stdout)
    if len(payload["instances"]) != 8:
        failures.append(("instance count", len(payload["instances"])))
    if not payload["overall_pass"]:
        failures.append(("suite overall_pass", False))
    _conclude(9, "suite output is byte-identical and green", failures)
