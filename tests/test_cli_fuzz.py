"""CLI fuzz test: random command-table entries never crash the CLI.

Each example picks one (command, action) entry of `slcc.cli._TABLE`, always
passes the flags argparse requires, and a random subset of the flags the
entry accepts: ints in -2..4, the declared choices, and short strings from
the polynomial grammar (valid or not).  Under a small Groebner budget every
run must end in a documented exit code with a one-line diagnosis, never an
internal error or a traceback.

A second property pins the CLI's two parsers to each other: on any command
line, well formed or not, `_table_args` gives None or argparse's namespace.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from slcc import cli

VARS = ("e1", "e2", "e3", "x", "s1", "t")

_ATOM = st.one_of(
    st.sampled_from(VARS),
    st.integers(0, 4).map(str),
    st.builds("{}^{}".format, st.sampled_from(VARS), st.integers(-1, 4)),
)
_EXPR = st.recursive(
    _ATOM,
    lambda inner: st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from(("+", " - ", "*", "")), inner),
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
    ),
    max_leaves=4,
)
_GRAMMAR = st.one_of(_EXPR, st.sampled_from(("", "(", "e1 +", "^2", "1/2", "e1^^2", "e1:2")))


def _joined(element, sep: str, max_size: int = 3):
    return st.lists(element, max_size=max_size).map(sep.join)


_INTS = _joined(st.integers(-2, 4).map(str), ",", 4)
_NAMES = _joined(st.sampled_from(VARS), ",")
# string flags whose value has its own syntax; any other takes a grammar string
_STRINGS = {
    "ring": st.one_of(
        st.sampled_from(("e1:2", "e1:2,e2:2", "e1:2,e2:2,e3:2", "x:1,s1:2", "e1:zz", "e1", "")),
        _GRAMMAR,
    ),
    "gens": _joined(_GRAMMAR, "; "),
    "map": st.lists(st.builds("{}={}".format, st.sampled_from(VARS), _GRAMMAR) | _GRAMMAR),
    "perm": _INTS,
    "signs": _INTS,
    "vars": _NAMES,
    "symbols": _NAMES,
    "kind": st.sampled_from(
        tuple(k.replace("_", "-") for k in cli.presentations.BUILDER_PARAMETERS) + ("rank", "x")
    ),
    # full acceptance runs take too long here: only cheap or empty selections
    "filter": st.sampled_from(("witnesses", "ranks", "collapse", "determinism", "zzz")),
}
_STRINGS["target-ring"] = _STRINGS["ring"]
_STRINGS["gens2"] = _STRINGS["gens"]


def _values(spec: dict, flag: str):
    """Values for one flag, matching its add_argument keywords."""
    if spec.get("action") == "store_true":
        return st.just([])
    if "choices" in spec:
        values = st.sampled_from(spec["choices"])
    elif spec.get("type") is int:
        values = st.integers(-2, 4)
    else:
        values = _STRINGS.get(flag, _GRAMMAR)
    if flag == "map":
        return values.map(lambda items: [f"--map={item}" for item in items])
    return values.map(lambda v: [f"--{flag}={v}"])


@st.composite
def invocations(draw):
    command, action = draw(st.sampled_from(sorted(cli._TABLE, key=str)))
    flags = cli._FLAGS[command]
    accepted = cli._TABLE[command, action].accepts.split()
    chosen = [f for f in accepted if flags[f].get("required")]
    optional = [f for f in accepted if f not in chosen]
    chosen += draw(st.lists(st.sampled_from(optional), unique=True) if optional else st.just([]))
    if command == "acceptance" and "filter" not in chosen:
        chosen.append("filter")
    argv = [command] + ([action] if action else [])
    for flag in chosen:
        argv += draw(_values(flags[flag], flag))
    return argv + draw(st.sampled_from(([], ["--format=json"])))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(invocations())
def test_cli_fuzz_only_documented_exits(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"SLCC_BUDGET": "2000"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, stderr)
    assert "Traceback" not in stderr and "internal error" not in stderr, (argv, stderr)
    if code == 2:
        assert stderr.startswith(("usage error:", "parse error:", "error:")), (argv, stderr)


def test_table_flags_are_declared():
    # every flag an entry reads is one its command declares, and it needs
    # only flags it reads
    for (command, _), entry in cli._TABLE.items():
        assert set(entry.accepts.split()) <= set(cli._FLAGS[command]), (command, entry)
        assert set(entry.requires.split()) <= set(entry.accepts.split()), (command, entry)


# values argparse reads in a way of its own: dashes, '--', int spellings
_ODD_VALUES = st.sampled_from(
    ("-", "--", "-1,1", "-e1", "-x", "-h", "--n", "", " 3 ", "1_0", "١٢", "-١٢", "+2", "0x1",
     "1.5", "-1.5", "B", "x", "e1=2")
)


def _flag_values(spec: dict, clean: bool):
    if "choices" in spec:
        good = st.sampled_from(spec["choices"]).map(str)
    elif spec.get("type") is int:
        good = st.integers(-12, 12).map(str) | st.sampled_from(("١٢", "-١٢", "1_0", " 3 ", "+2"))
    else:
        good = st.sampled_from(("e1", "e1:2,e2:2", "x1,x2", "b1=e1^2", "-e1", "sgr2"))
    return good if clean else good | _ODD_VALUES


@st.composite
def _flag_tokens(draw, flags: dict, clean: bool, name: str | None = None):
    if name is None:
        name = draw(st.sampled_from(sorted(flags)))
        if not clean:
            cut = draw(st.integers(0, 2))  # an abbreviation or an unknown flag
            name = {0: name[: max(1, len(name) - 1)], 1: "bogus"}.get(cut, name)
    spec = flags.get(name, {})
    if clean and spec.get("action") == "store_true":
        return [f"--{name}"]
    value = draw(_flag_values(spec, clean))
    forms = [[f"--{name}={value}"]]
    if not clean or not value.startswith("-") or value[1:].isdecimal():
        forms.append([f"--{name}", value])  # a negative int may stand alone
    if not clean:
        forms.append([f"--{name}"])
    return draw(st.sampled_from(forms))


@st.composite
def command_lines(draw):
    """A command line of a command (or not), its action, and flags in any form and order.

    A clean line is well formed; any other may hold odd values, unknown or
    abbreviated flags, flags without their value, a stray token, a missing
    required flag or its action out of place.
    """
    clean = draw(st.booleans())
    command = draw(st.sampled_from(tuple(cli._COMMANDS) if clean else (*cli._COMMANDS, "bogus")))
    flags = {**cli._FLAGS.get(command, {}), "format": cli._FORMAT}
    required = sorted(f for f, spec in flags.items() if spec.get("required"))
    chunks = [draw(_flag_tokens(flags, clean, f)) for f in required]
    chunks += draw(st.lists(_flag_tokens(flags, clean), max_size=4))
    if not clean:
        chunks += draw(st.lists(st.sampled_from((["-h"], ["--help"], ["--"], ["stray"])), max_size=1))
    chunks = draw(st.permutations(chunks))
    if chunks and not clean and draw(st.booleans()):
        del chunks[draw(st.integers(0, len(chunks) - 1))]
    actions = sorted(a for c, a in cli._TABLE if c == command and a)
    if actions:
        where = 0 if clean else draw(st.sampled_from((0, len(chunks))))
        chunks.insert(where, [draw(st.sampled_from(actions if clean else (*actions, "bogus")))])
    return [command, *(token for chunk in chunks for token in chunk)]


_PARSER = cli._build_parser()


def _argparse_args(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command_lines())
@example(["acceptance", "--filter=--"])
@example(["class", "euler", "--odd-part=x"])
@example(["class", "euler", "--odd-part="])
@example(["weyl", "act", "--group", "B", "--n", "2", "--perm", "1,2", "--signs", "-1,1", "--poly", "e1"])
@example(["witness", "--group", "B", "--n", "-١٢"])
@example(["poly", "subst", "--ring", "x:1", "--expr", "x", "--map", "x=1", "--map=x=2"])
def test_table_args_match_argparse(argv):
    table = cli._table_args(argv)
    assert table is None or vars(table) == _argparse_args(argv), argv
