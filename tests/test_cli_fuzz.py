"""CLI fuzz test: random command-table entries never crash the CLI.

Each example picks one (command, action) entry of `slcc.cli._TABLE`, always
passes the flags argparse requires, and a random subset of the flags the
entry accepts: ints in -2..4, the declared choices, and short strings from
the polynomial grammar (valid or not).  Under a small Groebner budget every
run must end in a documented exit code with a one-line diagnosis, never an
internal error or a traceback.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings
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
