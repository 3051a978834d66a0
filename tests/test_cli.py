"""CLI surface: subcommands, output formats, exit codes."""

import hashlib
import importlib.util
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from slcc import acceptance, cli, groebner, spanning, weyl
from slcc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_present_sgr2_json(capsys):
    code, out, _ = run(
        capsys, "present", "sgr2", "--n", "2", "--parity", "odd", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["descriptor", "ring", "generators", "basis", "hilbert", "checks"]
    assert payload["generators"] == ["e1^4"]
    assert len(payload["basis"]) == 4
    assert all(c["pass"] for c in payload["checks"])


def test_witness_text(capsys):
    code, out, _ = run(capsys, "witness", "--group", "D", "--n", "2")
    assert code == 0
    assert "e1^3 = (e1)*s1 + (-e2)*t" in out
    assert "expansion check: ok" in out


@pytest.mark.parametrize("group", ["B", "D"])
def test_witness_json_matches_benchmark_golden(capsys, group):
    # the printed cofactors are the benchmark's golden stdout, byte for byte
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    code, out, _ = run(capsys, "witness", "--group", group, "--n", "7", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden[f"witness --group {group} --n 7"]


def _benchmark_workloads():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", ["deep", "dense"])
def test_span_reduce_json_matches_benchmark_golden(capsys, case):
    # the printed decompositions are the benchmark's golden stdout, byte for byte
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    if case == "deep":
        label = "span reduce --group B --n 5 --poly e1^18"
        argv = label.split()
    else:
        wl = _benchmark_workloads()
        label = f"span reduce --group D --n 5 --poly <dense degree-10 seed={wl.DEFAULT_SEED}>"
        argv = ["span", "reduce", "--group", "D", "--n", "5", "--poly"]
        argv.append(wl.poly_text(wl.dense_terms(wl.DEFAULT_SEED)))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden[label]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_flag_equal_builds_no_declared_basis(capsys, monkeypatch, parity):
    # flag-equal compares ideals only, so the 483840-monomial declared bases
    # of the m=5, n=9 rung are never built
    def unread(*args, **kwargs):
        raise AssertionError("flag-equal built a declared basis")

    monkeypatch.setattr(spanning, "power_or_tail", unread)
    argv = ["verify", "flag-equal", "--m", "5", "--n", "9", "--parity", parity]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"equal": True}


def test_verify_spanning(capsys):
    code, out, _ = run(
        capsys, "verify", "spanning", "--group", "B", "--n", "3", "--max-degree", "24"
    )
    assert code == 0
    assert "pass" in out


def test_poly_parse(capsys):
    code, out, _ = run(
        capsys, "poly", "parse", "--ring", "e1:2,e2:2", "--expr", "(e1+e2)^2"
    )
    assert code == 0
    assert "e1^2 + 2*e1*e2 + e2^2" in out


def test_ideal_groebner(capsys):
    code, out, _ = run(
        capsys,
        "ideal",
        "groebner",
        "--ring",
        "e1:2,e2:2",
        "--gens",
        "e1*e2; e1^2+e2^2",
    )
    assert code == 0
    assert out.splitlines() == ["e1*e2", "e1^2 + e2^2", "e2^3"]


def test_ideal_equal_failure_exits_one(capsys):
    code, out, err = run(
        capsys,
        "ideal",
        "equal",
        "--ring",
        "e1:2",
        "--gens",
        "e1",
        "--gens2",
        "e1^2",
    )
    assert code == 1
    assert "different" in out


def test_ideal_member_not_member(capsys):
    code, out, _ = run(
        capsys,
        "ideal",
        "member",
        "--ring",
        "e1:2,e2:2",
        "--gens",
        "e1^2+e2^2; e1^2*e2^2",
        "--poly",
        "e1",
    )
    assert code == 1
    assert "not a member" in out


def test_usage_error_exits_two(capsys):
    code, _, err = run(capsys, "poly", "parse", "--ring", "e1:zz", "--expr", "e1")
    assert code == 2
    assert "usage error" in err
    # RingSpec's own refusal, reported as a usage error
    code, out, err = run(capsys, "poly", "parse", "--ring", "x:1,x:1", "--expr", "x")
    assert (code, out, err) == (2, "", "usage error: duplicate variable names in ['x', 'x']\n")
    code, _, err = run(capsys, "present", "sgr2", "--n", "1", "--parity", "odd")
    assert code == 2
    for argv, flag in [
        (("ideal", "equal", "--ring", "e1:2", "--gens", "e1^2"), "--gens2"),
        (("ideal", "nf", "--ring", "e1:2", "--gens", "e1^2"), "--poly"),
        (("ideal", "member", "--ring", "e1:2", "--gens", "e1^2"), "--poly"),
        (("weyl", "act", "--group", "B", "--n", "2", "--poly", "e1"), "--perm"),
        (("weyl", "act", "--group", "B", "--n", "2", "--perm", "2,1"), "--poly"),
        (("weyl", "invariant", "--group", "B", "--n", "2"), "--poly"),
        (("span", "reduce", "--group", "B", "--n", "2"), "--poly"),
        (("verify", "spanning"), "--group"),
        (("verify", "spanning", "--n", "2"), "--group"),
        (("verify", "flag-equal", "--m", "1", "--n", "2"), "--parity"),
        (("verify", "collapse", "--n", "2"), "--parity"),
        (("verify", "specialize", "--n", "2"), "--parity"),
        (("present", "rank"), "--k"),
        (("present", "rank", "--rank-kind", "sgr", "--k", "2"), "--N"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"usage error: {argv[0]} {argv[1]} needs {flag}\n"
    code, _, err = run(capsys, "verify", "presentation", "--kind", "rank")
    assert code == 2
    assert err == "usage error: unknown presentation kind 'rank'\n"
    argv = ["poly", "subst", "--ring", "b1:4", "--expr", "b1^2", "--map", "b2=e1",
            "--target-ring", "e1:2"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: unknown variable 'b2' in ring ('b1',)\n"
    for argv, flag in [
        (("verify", "spanning", "--group", "B", "--n", "2", "--parity", "even",
          "--max-degree", "4"), "--parity"),
        (("poly", "parse", "--ring", "e1:2", "--expr", "e1", "--other", "x"), "--other"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"usage error: {argv[0]} {argv[1]} does not take {flag}\n"
    for flag, extra in (("perm", ["--perm", "2,x"]), ("signs", ["--perm", "2,1", "--signs=1,x"])):
        argv = ["weyl", "act", "--group", "B", "--n", "2", "--poly", "e1", *extra]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"usage error: --{flag} entries must be integers, got 'x'\n"
    deep = "(" * 3000 + "e1" + ")" * 3000
    code, _, err = run(capsys, "poly", "parse", "--ring", "e1:2", "--expr", deep)
    assert code == 2
    assert err.startswith("parse error: parentheses nested deeper than 100")


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "poly", "parse", "--ring", "e1:2", "--expr", "e1 + (")
    assert code == 2
    assert "parse error" in err


def test_unknown_flag_exits_two(capsys):
    code = main(["present", "sgr2", "--n", "2", "--parity", "odd", "--bogus"])
    assert code == 2


def test_budget_exhaustion_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("SLCC_BUDGET", "2")
    # an empty basis cache: other tests may have memoized this ideal's basis
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    code, _, err = run(
        capsys,
        "ideal",
        "groebner",
        "--ring",
        "x:1,y:1,z:1",
        "--gens",
        "x^3+y^3+z^3; x*y*z-y^3; x^2*y-z^3",
    )
    assert code == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize("value, code", [("abc", 2), ("-1", 2), ("-5", 2), ("0", 3)])
def test_budget_values(capsys, monkeypatch, value, code):
    # a negative budget is refused like a non-integer one; 0 is a budget that a step exceeds
    err = (
        f"error: SLCC_BUDGET must be a non-negative integer, got {value!r}\n"
        if code == 2
        else "budget exhausted: Groebner step budget of 0 exceeded (raise SLCC_BUDGET)\n"
    )
    monkeypatch.setenv("SLCC_BUDGET", value)
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    ideal = ["ideal", "groebner", "--ring", "x:1,y:1", "--gens", "x^2; x*y+y^2"]
    for argv in (ideal, ["witness", "--group", "B", "--n", "2"]):
        assert run(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        "span free --group B --n 2 --max-degree -1",
        "verify spanning --group B --n 2 --max-degree -1",
        "verify presentation --kind max-flag --N 5 --max-degree -1",
        "verify presentation --kind bsl --N 3 --max-degree -2",
        "ideal hilbert --ring x:1 --gens x^2 --max-degree -1",
        "ideal standard --ring x:1 --gens x^2 --max-degree -1",
    ],
)
def test_negative_degree_bound_is_an_error(capsys, argv):
    # a bound below 0 certifies nothing: one error line and no output, not a pass
    bound = argv.split()[-1]
    expected = f"error: max_degree must be non-negative, got {bound}\n"
    assert run(capsys, *argv.split()) == (2, "", expected)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("symfunc check-generating --n -1 --order 3", "need n >= 0 and order >= 0"),
        ("symfunc check-generating --n 2 --order -1", "need n >= 0 and order >= 0"),
        ("class complement --symbols e1 --total-rank 3 --order -1", "order must be non-negative"),
        ("verify conventions --max-n -1", "max_n must be non-negative, got -1"),
    ],
)
def test_negative_size_is_an_error(capsys, argv, message):
    # neither a failed check (exit 1) nor a pass that checked nothing
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_generating_check_without_variables(capsys):
    # the empty product is 1, so the identity holds with no variables
    assert run(capsys, *"symfunc check-generating --n 0 --order 3".split()) == (0, "pass\n", "")


def test_conventions_up_to_zero_is_empty(capsys):
    # no family has n <= 0: an empty report, not an error
    assert run(capsys, *"verify conventions --max-n 0".split()) == (0, "", "")
    code, out, _ = run(capsys, *"verify conventions --max-n 0 --format json".split())
    assert (code, json.loads(out)) == (0, {"families": []})


def test_change_of_basis_budget(capsys, monkeypatch):
    # a D6 remainder reaches a change of basis in degrees 6, 8, 10, 12 and 14;
    # every division of the call, those included, spends one budget
    poly = "e1^6*e2^4*e3^2*e4^2+e4^5*e5^3*e6^2+e1^14+e2^7*e6^7"
    argv = ("span", "reduce", "--group", "D", "--n", "6", "--poly", poly)
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    monkeypatch.setenv("SLCC_BUDGET", "5203")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "budget exhausted: Groebner step budget of 5203 exceeded (raise SLCC_BUDGET)\n"
    monkeypatch.setenv("SLCC_BUDGET", "5204")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 148
    digest = "7b24c98d0de6e2aefa15cd9bb22fd2578939e8b25813c0844b0a43ca2e980bac"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_acceptance_budget_exhaustion_is_a_row(capsys, monkeypatch):
    monkeypatch.setenv("SLCC_BUDGET", "5")
    # an empty basis cache, so every criterion starts cold
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    code, out, err = run(capsys, "acceptance", "--format", "json")
    assert code == 3
    rows = json.loads(out)["checks"]
    assert [r["name"] for r in rows] == acceptance.all_names()
    exhausted = [r for r in rows if r["detail"].startswith("budget exhausted: ")]
    assert exhausted and not any(r["pass"] for r in exhausted)
    assert any(r["pass"] for r in rows)
    assert err.startswith("budget exhausted: checks out of budget: criterion-")
    assert acceptance.run_check("criterion-03-witnesses").budget_exceeded


def test_internal_error_exits_four(capsys, monkeypatch):
    # an exception outside the documented ladder is one line on stderr, exit 4
    def broken(n):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(weyl, "witness_B", broken)
    code, out, err = run(capsys, "witness", "--group", "B", "--n", "2")
    assert code == 4
    assert out == ""
    assert err == "internal error: ZeroDivisionError: division by zero\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "presentation", "--kind", "bsl", "--N", "40", "--max-degree", "1000000"),
        ("symfunc", "complete", "--i", "30000000", "--vars", "x1,x2"),
    ],
)
def test_out_of_memory_exits_three(argv):
    # under a 256 MiB address space each run fails within a second: one stderr
    # line, no traceback, whichever allocation failed first
    root = Path(__file__).resolve().parents[1]
    limit = (1 << 28, 1 << 28)
    proc = subprocess.run(
        [sys.executable, "-m", "slcc", *argv],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "out of memory\n")


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (MemoryError(), 3, "out of memory\n"),
        (MemoryError("no room"), 3, "out of memory: no room\n"),
        # CPython 3.11's error for a frame it cannot allocate
        (SystemError("error return without exception set"), 3, "out of memory\n"),
        (SystemError("bad call"), 4, "internal error: SystemError: bad call\n"),
    ],
)
def test_memory_errors_exit_three(capsys, monkeypatch, exc, code, err):
    def exhausted(n):
        raise exc

    monkeypatch.setattr(weyl, "witness_B", exhausted)
    assert run(capsys, "witness", "--group", "B", "--n", "2") == (code, "", err)


def test_failed_frames_are_freed_before_the_report(monkeypatch):
    # what the failed computation built is released before main prints, so
    # the report does not need memory the computation still holds
    events = []

    class Held:
        pass

    def exhausted(n):
        held = Held()
        weakref.finalize(held, events.append, "freed")
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            events.append("report")
            return super().write(text)

    monkeypatch.setattr(weyl, "witness_B", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["witness", "--group", "B", "--n", "2"]) == 3
    assert events[:2] == ["freed", "report"]


def test_failed_witness_identity_exits_one(capsys, monkeypatch):
    # cofactors that miss the target fail member_with_cofactors' exact
    # expansion check: a failed check, exit 1, not an internal error
    exact = groebner.tracked_division

    def skewed(ideal):
        divide = exact(ideal)
        one = 0  # the constant monomial, packed

        def wrong(terms):
            cofactors, remainder = divide(terms)
            first = dict(cofactors[0])
            first[one] = first.get(one, 0) + 1
            return [first, *cofactors[1:]], remainder

        return wrong

    monkeypatch.setattr(groebner, "tracked_division", skewed)
    code, out, err = run(capsys, "witness", "--group", "B", "--n", "2")
    assert code == 1
    assert out == ""
    assert err == "check failed: witness expansion failed\n"
    assert "Traceback" not in err


def test_exponent_overflow_exits_two(capsys):
    # a 4 x 4 product on packed exponents reaches 2^31: a usage error, not a crash
    e = "x^1073741824+x^1073741823+x^1073741822+x^1073741821"
    code, out, err = run(capsys, "poly", "mul", "--ring", "x:2,y:2", "--expr", e, "--other", e)
    assert code == 2
    assert out == ""
    assert err == "error: exponent 2147483648 exceeds limit 2147483648\n"


def test_complete_builds_per_term(capsys):
    # h_i of one variable is one term: built without an i-long index tuple,
    # so it fits a 1 GiB address space; past EXPONENT_LIMIT it is refused first
    root = Path(__file__).resolve().parents[1]
    limit = (1 << 30, 1 << 30)
    proc = subprocess.run(
        [sys.executable, "-m", "slcc", "symfunc", "complete", "--i", "300000000", "--vars", "x1"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x1^300000000\n", "")
    for i, names in itertools.product((2**31, 2**64), ("x1", "x1,x2")):
        code, out, err = run(capsys, "symfunc", "complete", "--i", str(i), "--vars", names)
        assert (code, out) == (2, "")
        assert err == f"error: exponent {i} exceeds limit 2147483648\n"


def test_parsed_monomial_outcomes(capsys):
    # the parser's monomial path raises what a product of factors would, in its order
    ring = ("--ring", "e1:2,e2:2")
    code, out, err = run(capsys, "poly", "parse", *ring, "--expr", "e1^2147483647*e1")
    assert (code, out) == (2, "")
    assert err == "error: exponent 2147483648 exceeds limit 2147483648\n"
    # a zero coefficient makes the product zero before any exponent is checked
    code, out, err = run(capsys, "poly", "parse", *ring, "--expr", "0*e1^2147483647*e1")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "0"
    code, out, err = run(capsys, "poly", "parse", *ring, "--expr", "3*e1*e9")
    assert (code, out) == (2, "")
    assert err == "parse error: unknown variable 'e9' (at offset 5)\n"
    assert "Traceback" not in err


def test_coefficients_past_4300_digits(capsys):
    # Python refuses to convert ints of more than 4300 digits by default;
    # main lifts that limit, so start each run from the default
    restore = sys.get_int_max_str_digits()
    try:
        for fmt in ("text", "json"):
            sys.set_int_max_str_digits(4300)
            code, out, err = run(
                capsys, "poly", "parse", "--ring", "e1:2", "--expr", "9^9999", "--format", fmt
            )
            assert (code, err) == (0, "")
            shown = json.loads(out)["canonical"] if fmt == "json" else out.splitlines()[0]
            assert shown == str(9**9999) and len(shown) == 9542
        literal = "7" * 5000
        sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, "poly", "parse", "--ring", "e1:2", "--expr", f"{literal}*e1")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"{literal}*e1"
    finally:
        sys.set_int_max_str_digits(restore)


def test_class_commands(capsys):
    code, out, _ = run(capsys, "class", "euler", "--symbols", "e1,e2", "--orientation", "-1")
    assert code == 0 and "-e1*e2" in out
    code, out, _ = run(capsys, "class", "borel", "--symbols", "e1", "--order", "2")
    assert code == 0 and "b_1 = -e1^2" in out
    code, out, _ = run(capsys, "class", "cor-dual", "--symbols", "e1,e2", "--order", "6")
    assert code == 0 and "PASS" in out


def test_span_reduce(capsys):
    code, out, _ = run(
        capsys, "span", "reduce", "--group", "B", "--n", "2", "--poly", "e2^2"
    )
    assert code == 0
    assert "(s1) * 1" in out
    assert "(-1) * e1^2" in out
    assert "expansion check: ok" in out


def test_present_rank(capsys):
    code, out, _ = run(capsys, "present", "rank", "--rank-kind", "sgr", "--k", "2", "--N", "7")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "present", "rank", "--rank-kind", "sgr", "--k", "3", "--N", "6")
    assert code == 1


def test_acceptance_filter(capsys):
    code, out, _ = run(capsys, "acceptance", "--filter", "symfunc")
    assert code == 0
    assert "criterion-09-symfunc" in out
    assert "criterion-01" not in out


def test_acceptance_negative_control(capsys, monkeypatch):
    # corrupt one check and make sure the runner reports it by name, exit 1
    def broken():
        raise AssertionError("intentionally corrupted generator")

    patched = tuple(
        (name, broken if name == "criterion-03-witnesses" else fn)
        for name, fn in acceptance._CHECKS
    )
    monkeypatch.setattr(acceptance, "_CHECKS", patched)
    code, out, err = run(capsys, "acceptance")
    assert code == 1
    assert "FAIL criterion-03-witnesses" in out
    assert "criterion-03-witnesses" in err


def test_version(capsys):
    code = main(["--version"])
    assert code == 0
    assert "slcc" in capsys.readouterr().out


def _count_parsers(monkeypatch):
    built = []
    build = cli._build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    return built


VERIFY_LINE = ["verify", "presentation", "--kind", "partial-flag", "--m", "3", "--n", "5",
               "--parity", "even", "--max-degree", "12"]


@pytest.mark.parametrize(
    "argv, code, builds",
    [
        (VERIFY_LINE, 0, 0),
        (["verify", "presentation", "--kind=sgr2", "--n=2", "--parity=odd", "--format=json"], 0, 0),
        (["class", "euler", "--symbols", "e1,e2", "--orientation", "-1", "--odd-part"], 0, 0),
        # well formed, refused by main or the handler: still no parser
        (["poly", "add", "--ring", "e1:2", "--expr", "e1"], 2, 0),
        (["span", "basis", "--group", "B", "--n", "2", "--poly", "e1"], 2, 0),
        (["present", "sgr2", "--n", "2", "--parity", "odd", "--bogus"], 2, 1),
        (["witness", "--help"], 0, 1),
        (["--help"], 0, 1),
        (["--version"], 0, 1),
        (["bogus"], 2, 1),
        ([], 2, 1),
        (["--format", "json", "witness", "--group", "B", "--n", "2"], 2, 1),
        (["witness", "--gr", "B", "--n", "2"], 0, 1),
        (["class", "euler", "--odd-part=x"], 2, 1),
    ],
)
def test_main_builds_a_parser_only_for_help_and_errors(capsys, monkeypatch, argv, code, builds):
    built = _count_parsers(monkeypatch)
    assert run(capsys, *argv)[0] == code
    assert len(built) == builds


@pytest.mark.parametrize("argv", [VERIFY_LINE, ["witness", "--group", "D", "--n", "3"]])
def test_well_formed_line_reads_no_terminal_size(capsys, monkeypatch, argv):
    # only argparse's help formatters read the terminal size
    reads = []
    size = shutil.get_terminal_size

    def counting(*args, **kwargs):
        reads.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    assert run(capsys, *argv)[0] == 0
    assert reads == []


def test_import_leaves_dataclasses_and_inspect_out():
    # each costs every CLI run its import (dataclasses an exec per class too);
    # argparse, and the gettext and locale its first parse imports, serve only
    # help and error lines
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import sys; before = set(sys.modules); import slcc.cli; "
        f"code = slcc.cli.main({VERIFY_LINE!r}); "
        "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, *loaded = proc.stderr.split()
    assert code == "0" and "slcc.cli" in loaded
    assert {"dataclasses", "inspect", "argparse", "gettext", "locale"} & set(loaded) == set()


def test_empty_command_line_lists_every_command(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert err.endswith(
        "{poly,symfunc,weyl,witness,span,ideal,class,present,verify,acceptance}\n"
        "            ...\nslcc: error: the following arguments are required: command\n"
    )


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["witness", "--group", "B", "--n", "2", "--format", "json"]
    expected = run(capsys, *argv)
    built = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["slcc", *argv])
    code = main()
    assert (code, *capsys.readouterr()) == expected
    assert built == []


def test_verify_conventions_json(capsys):
    code, out, _ = run(capsys, "verify", "conventions", "--max-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert any(e["family"] == "sgr2_relative" for e in payload["families"])


def test_poly_add_mul_subst(capsys):
    code, out, _ = run(
        capsys, "poly", "add", "--ring", "e1:2", "--expr", "e1", "--other=-e1"
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(
        capsys, "poly", "mul", "--ring", "e1:2,e2:2", "--expr", "e1-e2", "--other", "e1+e2"
    )
    assert code == 0 and out.strip() == "e1^2 - e2^2"
    code, out, _ = run(
        capsys,
        "poly",
        "subst",
        "--ring",
        "b1:4",
        "--expr",
        "b1^2",
        "--map",
        "b1=e1^2",
        "--target-ring",
        "e1:2",
    )
    assert code == 0 and out.strip() == "e1^4"
    code, _, err = run(capsys, "poly", "add", "--ring", "e1:2", "--expr", "e1")
    assert code == 2
    # one name mapped twice is a usage error, not the last image kept
    argv = ["poly", "subst", "--ring", "x:1,y:1", "--expr", "x*y", "--map", "x=y", "--map", "x=2"]
    assert run(capsys, *argv) == (2, "", "usage error: --map names 'x' twice\n")


def test_weyl_subcommands(capsys):
    code, out, _ = run(capsys, "weyl", "generators", "--group", "B", "--n", "2")
    assert code == 0 and "s1 = e1^2 + e2^2" in out
    code, out, _ = run(
        capsys, "weyl", "invariant", "--group", "D", "--n", "3", "--poly", "e1*e2*e3"
    )
    assert code == 0 and "invariant" in out
    code, out, _ = run(
        capsys,
        "weyl",
        "act",
        "--group",
        "B",
        "--n",
        "2",
        "--perm",
        "1,2",
        "--signs=-1,1",
        "--poly",
        "e1*e2",
    )
    assert code == 0 and out.strip() == "-e1*e2"


def test_symfunc_subcommands(capsys):
    code, out, _ = run(capsys, "symfunc", "elementary", "--i", "2", "--vars", "x1,x2,x3")
    assert code == 0 and out.strip() == "x1*x2 + x1*x3 + x2*x3"
    code, out, _ = run(capsys, "symfunc", "check-split", "--k", "4", "--l", "3")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "symfunc", "check-generating", "--n", "3", "--order", "10")
    assert code == 0


def test_symfunc_gpoly_of_high_degree(capsys):
    # h_i is built bottom-up: no recursion depth grows with i
    code, out, err = run(capsys, "symfunc", "gpoly", "--i", "1200", "--m", "1")
    assert (code, out.strip(), err) == (0, "sigma1^1200", "")


def test_ideal_hilbert_and_standard(capsys):
    code, out, _ = run(
        capsys,
        "ideal",
        "hilbert",
        "--ring",
        "e1:2",
        "--gens",
        "e1^4",
        "--max-degree",
        "6",
    )
    assert code == 0 and out.strip() == "1 0 1 0 1 0 1"
    code, out, _ = run(
        capsys,
        "ideal",
        "standard",
        "--ring",
        "e1:2",
        "--gens",
        "e1^4",
        "--max-degree",
        "8",
    )
    assert code == 0 and out.splitlines() == ["1", "e1", "e1^2", "e1^3"]


def test_present_sgr2_golden_json(capsys):
    # frozen golden payload: schema and key order are part of the contract
    code, out, _ = run(
        capsys,
        "present",
        "sgr2",
        "--n",
        "2",
        "--parity",
        "even",
        "--max-degree",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    golden = {
        "descriptor": {"kind": "sgr2", "n": 2, "parity": "even", "coefficient_vars": []},
        "ring": [["e1", 2], ["e2", 2]],
        "generators": ["e1*e2", "e1^2 + e2^2"],
        "basis": ["1", "e1", "e1^2", "e2"],
        "hilbert": [1, 0, 2, 0, 1],
        "checks": [
            {"name": "hilbert_factorization", "pass": True},
            {"name": "basis_independent_in_quotient", "pass": True},
        ],
    }
    assert out == json.dumps(golden, indent=2) + "\n"


def test_span_free_reports_both_series(capsys):
    code, out, _ = run(
        capsys,
        "span",
        "free",
        "--group",
        "B",
        "--n",
        "1",
        "--max-degree",
        "8",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial_ring_series"] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert payload["polynomial_ring_series"] == payload["invariants_times_basis_series"]


def test_present_bsl_and_partial_flag(capsys):
    code, out, _ = run(capsys, "present", "bsl", "--N", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert"][:6] == [1, 0, 1, 0, 1, 0]
    code, out, _ = run(
        capsys,
        "present",
        "partial-flag",
        "--m",
        "1",
        "--n",
        "2",
        "--parity",
        "even",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["e1*e1'", "e1^2 + e1'^2"]
