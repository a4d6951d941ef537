import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordered_hamming.scheme as scheme_module
import ordered_hamming.spectral as spectral_module
import ordered_hamming.terwilliger as terwilliger_module
from ordered_hamming import DEFAULT_MAX_POINTS, Instance, Orbitals, RatMatrix, SchemeParams, cli
from ordered_hamming import exact_linalg
from ordered_hamming.cli import main
from ordered_hamming.exact_linalg import InternalMismatch


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_shapes_command(capsys):
    code, payload = run_cli(capsys, "shapes", "--q", "2,2", "--n", "2", "--json")
    assert code == 0
    assert payload["data"]["shapes"] == [
        [2, 0, 0],
        [1, 1, 0],
        [1, 0, 1],
        [0, 2, 0],
        [0, 1, 1],
        [0, 0, 2],
    ]


def test_shapes_rejects_small_alphabet():
    with pytest.raises(SystemExit) as exc:
        main(["shapes", "--q", "1,2", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("q,n", [("1,2", "2"), ("2", "0")])
def test_bad_params_exit_2_with_the_scheme_params_message(capsys, q, n):
    with pytest.raises(ValueError) as rule:
        SchemeParams(tuple(map(int, q.split(","))), int(n))
    with pytest.raises(SystemExit) as exc:
        main(["shapes", "--q", q, "--n", n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {rule.value}\n")


def test_scheme_verify_command(capsys):
    code, payload = run_cli(capsys, "scheme-verify", "--q", "3", "--n", "1", "--json")
    assert code == 0
    assert payload["checks"]["R4_constants_well_defined"] is True
    rows = payload["data"]["intersection_numbers"]
    assert {"i": [0, 1], "j": [0, 1], "k": [0, 1], "p": 1} in rows


# SHA-256 of stdout. `suite` never prints the intersection numbers, so the suite
# digest does not cover this path. X(2,3;2,2) has 64 points and 10 relations;
# X(2,2;4,4) and X(2,4;2,2) have 256 points, the default bound, and 6 and 15.
@pytest.mark.parametrize(
    "q,n,digest",
    [
        ("2,3", "1", "3f9bfb46f2ec9f659db844d387be09d1c66a882703bda20ba561741efb6da119"),
        ("2", "2", "c0f41a256a3e1deebb60372fe67c961a206e69998e1ebb23f053f3978e3c91b8"),
        ("2,2", "3", "ecf986c793b711b6a3a6e529094ac5b06b30082857798b70c0ee763fec1d8f33"),
        ("4,4", "2", "f8ec1a87330dc25d27e98d104635dc2d6cc491eae6d72601af34b08caed724ad"),
        ("2,2", "4", "9db26738ead8d00cad5be275bf3722330e85c0b12a78e10e8e8e78b749f52e2d"),
    ],
)
def test_scheme_verify_golden_output(capsys, q, n, digest):
    code = main(["scheme-verify", "--q", q, "--n", n, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scheme_verify_reports_a_failed_r4_and_exits_1(capsys, monkeypatch):
    """Moving the pair {1, 2} of X(1,2;3) into another relation keeps the sweep symmetric."""
    plain = terwilliger_module.pair_shapes

    def doctored(params):
        sweep = plain(params)
        npts = params.num_points
        assert sweep[1 * npts + 2] == (1, 1)
        sweep[1 * npts + 2] = sweep[2 * npts + 1] = (0, 2)
        return sweep

    monkeypatch.setattr(terwilliger_module, "pair_shapes", doctored)
    code, payload = run_cli(capsys, "scheme-verify", "--q", "3", "--n", "2", "--json")
    assert code == 1
    assert payload["checks"] == {
        "R1_diagonal_relation": True,
        "R2_partition": True,
        "R3_symmetric": True,
        "R4_constants_well_defined": False,
        "R5_constants_commute": None,
    }
    assert payload["overall_pass"] is False
    assert payload["data"] == {"intersection_numbers": None}


# SHA-256 of stdout. The suite runs no instance with both F and G factors at
# n >= 2; X(1,3;3) is the only pinned output with the two-and-one splits.
# X(2,2;2,3) (36 points) and X(1,3;4) (64 points) pin the larger instances.
@pytest.mark.parametrize(
    "q,n,digest",
    [
        ("3", "2", "3e15b919733bf69629287ced2436e92734da9b74431ceb6c586c848acb330e53"),
        ("3", "3", "07d428e75e00984abc77e69399e2bd324c5d0ad2c59bcc8338abb0b1e9748e3f"),
        ("2,3", "2", "cef34fc81f348278d51426b4a5df3d90e22e1c895c80997d777db3d84ec43868"),
        ("4", "3", "4142a6af8e5d8182ec32be6874d627e1795ae61372dd7e9feb6e5d566037524b"),
    ],
)
def test_report_golden_output(capsys, q, n, digest):
    code = main(["report", "--q", q, "--n", n, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout: every structural identity, through the depth-one data of
# X(1,2;3), X(2,2;2,3) and X(1,3;4).
@pytest.mark.parametrize(
    "q,n,digest",
    [
        ("3", "2", "aec61e05c1128c5001fcf685324f0ad701fb1ba60725506d974b37c4dcf78d91"),
        ("2,3", "2", "a188ef803a1ac82a59389bdd46cd8bec45891b5821bed32b2a250ac58cc57fd2"),
        ("4", "3", "d7791f370a6904c65768553176dc454e31c1be53388be19df49efa03c4385c35"),
    ],
)
def test_identities_golden_output(capsys, q, n, digest):
    code = main(["identities", "--q", q, "--n", n, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _count_matrix_sides(monkeypatch) -> Counter:
    """A counter of every `RatMatrix` built from here on, by its number of rows."""
    sides = Counter()
    plain_init = exact_linalg._Exact.__init__

    def counting_init(self, frame, vec, den=1):
        plain_init(self, frame, vec, den)
        if isinstance(self, RatMatrix):
            sides[self.nrows] += 1

    # every value, whichever constructor it enters by, is made by this one
    monkeypatch.setattr(exact_linalg._Exact, "__init__", counting_init)
    return sides


@pytest.mark.parametrize(
    "command,q,n",
    [
        ("report", "2,2", 2),
        ("identities", "2,3", 2),
        ("report", "2,2,2", 1),
        ("identities", "2,3", 1),
    ],
    ids=["report-2,2-16", "identities-2,3-36", "report-2,2,2-8", "identities-2,3-6"],  # command-q-N
)
def test_report_and_identities_build_no_dense_matrix_of_side_n(monkeypatch, capsys, command, q, n):
    # every depth-n matrix is lifted and held in orbital coordinates, and the
    # depth-one closed forms are streamed from their factors: the largest
    # RatMatrix is a letter factor or a C x C eigenmatrix
    params = SchemeParams(tuple(map(int, q.split(","))), n)
    sides = _count_matrix_sides(monkeypatch)
    assert main([command, "--q", q, "--n", str(n), "--json"]) == 0
    capsys.readouterr()
    assert max(sides) <= max(*params.q, params.class_count)
    # the counters see a dense matrix of side N
    inst = Instance(params)
    inst.adjacency[inst.shapes[0]].matrix()
    assert sides[params.num_points] == 1


def test_adjacency_command_cross_checks(capsys):
    code, payload = run_cli(
        capsys, "adjacency", "--q", "2,2", "--n", "2", "--shape", "1,1,0", "--json"
    )
    assert code == 0
    assert payload["checks"]["matches_relation_matrix"] is True
    assert payload["data"]["valency"] == 2
    assert payload["data"]["matrix"]["rows"] == 16


# SHA-256 of stdout: the lifted matrix, its valency and the relation cross-check.
@pytest.mark.parametrize(
    "q,n,shape,digest",
    [
        ("2,2", "2", "1,1,0", "1a2cf2e2f59b8b8a8e7743131f7bbd598eee5f47bfcd8e82e8fc5c4fc3972f8c"),
        ("3", "2", "0,2", "3fb664e05fb2b44ee39e4849bd44dde03235767a369040751667cfbe5ade8acb"),
        ("2", "8", "4,4", "29cd1744629af7d055abc0043af19ddebc75abe7e2229f0a9be3d5ea01469f70"),
    ],
)
def test_adjacency_golden_output(capsys, q, n, shape, digest):
    code = main(["adjacency", "--q", q, "--n", n, "--shape", shape, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout: the feasible (lambda, mu) pairs of omega, and one theta
# with two grids.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["omega", "--q", "2,3,2", "--n", "2"],
            "547e274b0523a82667dea99a90dd11c45cfe88d7fbac7cee235d87dd1377b209",
        ),
        (
            ["omega", "--q", "3,2,3,2", "--n", "2"],
            "abcc25f8bda9ef9eb41d3f83f72205af0c361e540cb4612843f3a0fe88d696c2",
        ),
        (
            ["theta", "--q", "2,3,2", "--n", "2", "--lambda", "0,1,1", "--mu", "0,1,1"],
            "b8053c24da9a1469a4156bbefafc1c39e5d94eb0d55035f03f1a8e34564b0d4c",
        ),
    ],
    ids=["omega-2,3,2", "omega-3,2,3,2", "theta-2,3,2"],
)
def test_margin_commands_golden_output(capsys, argv, digest):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_adjacency_with_a_wrong_sweep_cell_exits_1(capsys, monkeypatch):
    # X(1,2;2): the pair (00, 01) has shape (1, 1); the sweep reads it as (0, 2)
    plain = terwilliger_module.pair_shapes

    def doctored(params):
        sweep = plain(params)
        if params.n == 2:
            assert sweep[1] == (1, 1)
            sweep[1] = (0, 2)
        return sweep

    monkeypatch.setattr(terwilliger_module, "pair_shapes", doctored)
    for shape in ("1,1", "0,2"):
        argv = ["adjacency", "--q", "2", "--n", "2", "--shape", shape, "--json"]
        code, payload = run_cli(capsys, *argv)
        assert code == 1 and payload["checks"] == {"matches_relation_matrix": False}
    code, payload = run_cli(capsys, "adjacency", "--q", "2", "--n", "2", "--shape", "2,0", "--json")
    assert code == 0 and payload["checks"] == {"matches_relation_matrix": True}


def test_adjacency_size_bound_exit(capsys):
    code = main(
        ["adjacency", "--q", "2,2", "--n", "2", "--shape", "1,1,0", "--max-points", "4", "--json"]
    )
    assert code == 2


@pytest.mark.parametrize("bound", ["0", "1", "-5"])
def test_suite_that_runs_no_instance_exits_on_the_size_bound(capsys, bound):
    # every suite instance has at least 2 points, so nothing is checked
    code = main(["suite", "--max-points", bound, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("size bound exceeded: ")


def test_eigenmatrix_command(capsys):
    code, payload = run_cli(capsys, "eigenmatrix", "--q", "2", "--n", "2", "--which", "P", "--json")
    assert code == 0
    assert payload["data"]["matrix"]["entries"] == [
        ["1", "2", "1"],
        ["1", "0", "-1"],
        ["1", "-2", "1"],
    ]
    assert payload["checks"]["pq_product_is_size_identity"] is True


def test_krawchouk_command(capsys):
    code, payload = run_cli(capsys, "krawchouk", "--q", "2", "--n", "2", "--json")
    assert code == 0
    assert payload["data"]["table"] == [["1", "2", "1"], ["1", "0", "-1"], ["1", "-2", "1"]]


# SHA-256 of stdout: P and Q of X(3,2;3,2,5), whose alphabets are not
# palindromic, and its Krawtchouk table in both alphabet orders.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["eigenmatrix", "--which", "P"],
            "91177aab9bdab3a6660e153c3e1dd9154ff45591ebd9ad75b56ebaa6727675d8",
        ),
        (
            ["eigenmatrix", "--which", "Q"],
            "a05e3b6f844b0d7e23138face58fc14cb0f94401ca3a8b25e314349d16daf78c",
        ),
        (["krawchouk"], "afb6ef82083770dd2ae2aa537486f1b707aa88379db673cdb1f820cdd68a7b54"),
        (
            ["krawchouk", "--reversed"],
            "950f1b356d6a83233703936364cb52ef5060ba1e15b29208f82adda70cc071c1",
        ),
    ],
    ids=["eigenmatrix-P", "eigenmatrix-Q", "krawchouk", "krawchouk-reversed"],
)
def test_eigenmatrix_and_krawchouk_golden_output(capsys, argv, digest):
    code = main(argv + ["--q", "3,2,5", "--n", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_theta_command(capsys):
    code, payload = run_cli(
        capsys, "theta", "--q", "2,3", "--n", "2", "--lambda", "0,2", "--mu", "1,1", "--json"
    )
    assert code == 0
    assert payload["data"]["feasible"] is True
    assert payload["data"]["matrices"] == [[[0, 0], [1, 1]]]


def test_theta_rejects_bad_shape():
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--q", "2,3", "--n", "2", "--lambda", "0,1", "--mu", "1,1"])
    assert exc.value.code == 2


def test_omega_command(capsys):
    code, payload = run_cli(capsys, "omega", "--q", "2,3", "--n", "2", "--json")
    assert code == 0
    assert payload["data"]["size"] == 3
    assert payload["data"]["multiset_binomial"] == 3
    assert payload["data"]["lambda_size"] == 2


def test_identities_command(capsys):
    code, payload = run_cli(capsys, "identities", "--q", "3", "--n", "1", "--json")
    assert code == 0
    assert payload["checks"]["g_products_by_regime"] is True


def test_closure_command(capsys):
    code, payload = run_cli(capsys, "closure", "--q", "3", "--n", "1", "--json")
    assert code == 0
    assert payload["data"]["dimension"] == 5


def test_report_default_tolerates_disagreements(capsys):
    code, payload = run_cli(capsys, "report", "--q", "2", "--n", "2", "--json")
    assert code == 0
    assert payload["data"]["dim_T"] == 10
    disagreeing = [p for p in payload["data"]["predictions"] if not p["agrees"]]
    assert disagreeing  # recorded but not fatal


def test_report_strict_fails_on_disagreements(capsys):
    code, payload = run_cli(capsys, "report", "--q", "2", "--n", "2", "--strict", "--json")
    assert code == 1
    assert payload["checks"]["predictions_agree"] is False


def test_single_command_output_is_stable(capsys):
    main(["eigenmatrix", "--q", "2,3", "--n", "1", "--json"])
    first = capsys.readouterr().out
    main(["eigenmatrix", "--q", "2,3", "--n", "1", "--json"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("error", [InternalMismatch])
def test_internal_error_exits_3_with_error_document(capsys, monkeypatch, error):
    def broken(inst):
        raise error("constructions disagree")

    monkeypatch.setattr(cli, "structure_report", broken)
    code, payload = run_cli(capsys, "report", "--q", "2", "--n", "1", "--json")
    assert code == 3
    assert payload == {
        "command": "report",
        "error": {"type": error.__name__, "message": "constructions disagree"},
        "overall_pass": False,
    }


@pytest.mark.parametrize("wrong,j", [("swapped", 1), ("halved", 0)])
def test_a_wrong_dual_idempotent_closed_form_exits_3(capsys, monkeypatch, wrong, j):
    # X(2,1;2,3): E*_1 and E*_2 trade places, or E*_0's first factor keeps its
    # grid over denominator 2
    plain = terwilliger_module.base_dual_idempotents

    def doctored(params):
        estar = list(plain(params))
        if wrong == "swapped":
            estar[1], estar[2] = estar[2], estar[1]
        else:
            estar[0] = [estar[0][0].scale(Fraction(1, 2)), *estar[0][1:]]
        return tuple(estar)

    monkeypatch.setattr(terwilliger_module, "base_dual_idempotents", doctored)
    code, payload = run_cli(capsys, "identities", "--q", "2,3", "--n", "1", "--json")
    assert code == 3
    assert payload["error"] == {
        "type": "InternalMismatch",
        "message": f"dual idempotent {j} disagrees with relation diagonal",
    }


def test_a_diagonal_orbital_holding_another_pair_exits_3(capsys, monkeypatch):
    # on X(1,1;2) the keys put the pair (0, 1) in the orbital of (0, 0); the
    # first read of `Orbitals.diagonal` refuses them as an internal inconsistency
    def stray(sweep):
        return Orbitals(2, ["diagonal 0", "diagonal 0", "off", "diagonal 1"])

    monkeypatch.setattr(terwilliger_module, "triple_orbitals", stray)
    code, payload = run_cli(capsys, "identities", "--q", "2", "--n", "1", "--json")
    assert code == 3
    assert payload == {
        "command": "identities",
        "error": {
            "type": "InternalMismatch",
            "message": "a diagonal orbital also holds an off-diagonal pair",
        },
        "overall_pass": False,
    }


def test_closure_with_too_coarse_depth_one_orbitals_exits_3(capsys, monkeypatch):
    # the depth-n orbitals and families are built from the depth-one ones, so
    # the depth-one labelling is the one checked: keyed by shape(x - y) alone
    # on X(2,1;2,2), its classes are the relations, and E*_0 = diag(1, 0, 0, 0)
    # is not constant on the diagonal one
    def coarse(sweep):
        return Orbitals(math.isqrt(len(sweep)), sweep)

    monkeypatch.setattr(terwilliger_module, "triple_orbitals", coarse)
    code, payload = run_cli(capsys, "closure", "--q", "2,2", "--n", "2", "--json")
    assert code == 3
    assert payload == {
        "command": "closure",
        "error": {
            "type": "InternalMismatch",
            "message": "matrix is not constant on orbital 0: entry (1, 1) differs from (0, 0)",
        },
        "overall_pass": False,
    }


@pytest.mark.parametrize("command", ["closure", "report"])
def test_orbital_bound_goes_to_stderr_only(capsys, command):
    argv = [command, "--q", "2,2", "--n", "2"]
    assert main(argv) == 0
    logged = capsys.readouterr()
    assert main(argv + ["--json"]) == 0
    quiet = capsys.readouterr()
    assert logged.out == quiet.out
    assert quiet.err == ""
    assert (
        "X(2,2;2,2): N = 16 points, r = 55 orbitals (an upper bound on dim T), "
        "measured dim T = 55\n"
    ) in logged.err


def test_letter_factors_are_built_once_per_alphabet_size(capsys):
    """One suite pass builds the per-letter table for q = 2 and q = 3 only, once each."""
    table = spectral_module.letter_factors
    table.cache_clear()
    assert main(["suite", "--max-points", "8", "--json"]) == 0
    assert table.cache_info().misses == 2
    table(2), table(3)
    assert table.cache_info().misses == 2


def test_letter_identities_are_checked_once_per_alphabet_size(capsys):
    """One suite pass checks the letter factor identities for q = 2 and q = 3 only, once each."""
    check = terwilliger_module._letter_identities_hold
    check.cache_clear()
    assert main(["suite", "--max-points", "8", "--json"]) == 0
    assert check.cache_info().misses == 2
    check(2), check(3)
    assert check.cache_info().misses == 2


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, ordered_hamming.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


# The benchmark's operations (perfbench/run.py).
BENCHMARK_LINES = [
    ["suite", "--max-points", "8", "--json"],
    ["report", "--q", "3", "--n", "2", "--json"],
    ["closure", "--q", "2", "--n", "4", "--generators", "bm", "--json"],
    ["closure", "--q", "2", "--n", "4", "--generators", "idem", "--json"],
    ["scheme-verify", "--q", "5,6", "--n", "1", "--json"],
]
# Lines the quick reader must read itself: those and one line per command.
WELL_FORMED = [
    *BENCHMARK_LINES,
    ["shapes", "--json", "--q", "2,2", "--n", "2"],
    ["adjacency", "--q", "2,2", "--n", "2", "--shape", "1,1,0", "--json"],
    ["eigenmatrix", "--q", "2", "--n", "2", "--which", "Q", "--json"],
    ["krawchouk", "--q", "3,2", "--n", "2", "--reversed", "--json"],
    ["theta", "--q", "2,3", "--n", "2", "--lambda", "0,2", "--mu", "1,1", "--json"],
    ["omega", "--q", "2,3", "--n", "2", "--json"],
    ["identities", "--max-points", "3", "--q", "3", "--n", "1", "--json"],
    ["report", "--q", "2", "--n", "1", "--strict", "--json", "--n", "2"],
]


def _argparse_reading(argv: list[str]) -> dict | None:
    """`vars` of what the argparse parser makes of `argv`, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_the_quick_reader_reads_each_well_formed_line_as_argparse_does(argv):
    quick = cli._quick_args(argv)
    assert quick is not None
    assert vars(quick) == _argparse_reading(argv)


_FLAGS = sorted({flag for _, _, options in cli._COMMANDS.values() for flag in options})
_WORDS = [*cli._COMMANDS, "--gen", "--stri", "--q=2", "-h", "--help", "--"]
_VALUES = ["2", "0", "-5", "2.5", "x", "", "2,3", "1,1,0", "P", "Q", "R", "bm", "idem", "bogus"]
_TOKENS = st.sampled_from([*_FLAGS, *_WORDS, *_VALUES])


def _value(spec: dict):
    """A value fit for the option most of the time, else any value."""
    fit = spec.get("choices") or (["0", "2", "3", "+4", " 8"] if spec.get("type") is int else _VALUES)
    return st.sampled_from([*fit, *_VALUES[:5]])


@st.composite
def _argvs(draw):
    """A command, a stray token or nothing; then most often its required options, and a few
    more of its own options, of any command's, or stray tokens."""
    head = draw(st.sampled_from([*cli._COMMANDS, "bogus", "-h", "--help", "--q", "2", None]))
    options = cli._COMMANDS[head][2] if head in cli._COMMANDS else {}
    argv = [] if head is None else [head]
    for flag, spec in options.items():
        if spec.get("required") and draw(st.integers(0, 4)):
            argv += [flag, draw(_value(spec))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["own"] * 4 + ["any", "token"]))
        if kind == "token":
            argv.append(draw(_TOKENS))
            continue
        flag = draw(st.sampled_from(sorted(options) if kind == "own" and options else _FLAGS))
        spec = options.get(flag, {})
        argv += [flag] if spec.get("action") == "store_true" else [flag, draw(_value(spec))]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_the_quick_reader_reads_what_argparse_reads_or_defers(argv):
    """Where argparse exits the quick reader defers; where it reads, they agree."""
    quick = cli._quick_args(argv)
    assert quick is None or vars(quick) == _argparse_reading(argv)


def test_a_well_formed_line_imports_no_argparse_and_builds_no_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import contextlib, io, json, sys\n"
        "import ordered_hamming.cli as cli\n"
        "built = []\n"
        "plain = cli.build_parser\n"
        "cli.build_parser = lambda: built.append(1) or plain()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, len(built), sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, json.dumps(BENCHMARK_LINES)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[0, 0, 0, 0, 0] 0 []\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["closure", "--help"],
        ["bogus"],
        ["closure", "--q", "x", "--n", "2"],
        ["closure", "--q", "2", "--n", "2", "--generators", "x"],
        *WELL_FORMED,
    ],
    ids=" ".join,
)
def test_main_prints_what_it_prints_when_argparse_reads_every_line(monkeypatch, capsys, argv):
    """Help, usage errors and results: stdout, stderr and exit code, byte for byte."""

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    shipped = outcome()
    monkeypatch.setattr(cli, "_quick_args", lambda argv: None)
    assert outcome() == shipped


@pytest.mark.parametrize(
    "argv",
    [
        ("closure", "--q", "2", "--n", "4"),
        ("report", "--q", "2,2", "--n", "2"),
        ("identities", "--q", "2,3", "--n", "2"),
    ],
)
def test_depth_n_commands_build_no_depth_n_sweep_or_maps(monkeypatch, capsys, argv):
    """The depth-n orbitals are labelled from the depth-one ones: no N^2 sweep, no maps.

    Each builder is counted by the points it works on; the depth-one
    scheme has q_1 ... q_m of them.
    """
    calls = Counter()

    def counted(name, fn, points):
        def wrapper(arg):
            calls[name, points(arg)] += 1
            return fn(arg)

        return wrapper

    points_of = {
        "pair_shapes": lambda params: params.num_points,
        "triple_orbitals": lambda sweep: math.isqrt(len(sweep)),
    }
    for name, points in points_of.items():
        plain = getattr(scheme_module, name)
        for module in (scheme_module, terwilliger_module):
            monkeypatch.setattr(module, name, counted(name, plain, points), raising=False)
    assert main([*argv, "--json"]) == 0
    side = math.prod(map(int, argv[2].split(",")))
    assert calls == {("pair_shapes", side): 1, ("triple_orbitals", side): 1}


def test_pair_shape_sweep_runs_once_per_suite_instance(monkeypatch):
    """Relations and orbitals share one shape_of(x - y) sweep over the N^2 pairs.

    Counted per scheme, so the depth-one scheme the report closes for n > 1
    has its own count.
    """
    calls = Counter()
    plain = scheme_module.pair_shapes

    def counting(params):
        calls[params] += 1
        return plain(params)

    monkeypatch.setattr(scheme_module, "pair_shapes", counting)
    monkeypatch.setattr(terwilliger_module, "pair_shapes", counting)
    for q, n in cli.SUITE_INSTANCES:
        calls.clear()
        params = SchemeParams(q, n)
        cli._run_instance(params, DEFAULT_MAX_POINTS, strict=False)
        assert calls[params] == 1
        assert max(calls.values()) == 1, calls


def test_relation_checks_build_no_dense_matrix_of_side_n(monkeypatch, capsys):
    """At n >= 2 the relation checks read the sweep: the only N-row matrix is the one printed.

    The suite's per-instance checks, which include the report, build none;
    `adjacency` builds one, the lifted matrix it prints.
    """
    sides = _count_matrix_sides(monkeypatch)
    for q, n in cli.SUITE_INSTANCES:
        params = SchemeParams(q, n)
        if n >= 2:
            sides.clear()
            assert cli._run_instance(params, DEFAULT_MAX_POINTS, strict=False)["overall_pass"]
            assert sides[params.num_points] == 0, params.label()
    sides.clear()
    assert main(["adjacency", "--q", "2,2", "--n", "2", "--shape", "1,1,0", "--json"]) == 0
    capsys.readouterr()
    assert sides[16] == 1
