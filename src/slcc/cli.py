"""slcc: batch command-line surface over the whole library.

Subcommands mirror the modules (poly, symfunc, weyl, span, ideal, class,
present, verify, acceptance, plus the witness shortcut); every run is
deterministic given its flags, emits either human-readable text or stable
JSON (--format json), and exits with

    0  success / all checks passed
    1  a mathematical check failed
    2  usage error (unknown flags, malformed input, a missing flag:
       "usage error: <command> <action> needs --<flag>", or a flag the
       action does not read: "... does not take --<flag>")
    3  a resource ran out: the Groebner step budget (see SLCC_BUDGET), or
       memory ("out of memory", no traceback)
    4  internal error ("internal error: <type>: <message>", no traceback)

Each (command, action) is one entry of the command table `_TABLE`: the flags
it reads, the flags it needs, and a handler.  `main` reads a well-formed
command line straight off the tables and leaves every other line (help,
--version, errors) to an argparse parser built from them; it prints, and maps
exceptions to exit codes, each in one place.

Big coefficients only ever appear inside polynomial strings, so the JSON
payloads never carry numbers beyond machine width; Hilbert coefficients and
ranks are desk-scale counts.
"""

from __future__ import annotations

import json
import operator
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__, acceptance, charclass, presentations, spanning, symfunc, weyl
from .groebner import (
    BudgetExceededError,
    Ideal,
    groebner_basis,
    ideal_equal,
    member_with_cofactors,
    normal_form,
    primitive_integer,
    quotient_hilbert,
    standard_monomials,
)
from .polyring import ParseError, PolyError, Polynomial, RingSpec, parse_poly

__all__ = ["main"]


class UsageError(Exception):
    pass


class CheckFailed(Exception):
    """A mathematical check came out false (exit code 1)."""


def _parse_ring(text: str) -> RingSpec:
    """Ring syntax: name:degree pairs, comma separated, e.g. 'e1:2,e2:2,e:4'."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise UsageError(f"ring entries need name:degree, got {chunk!r}")
        name, _, deg = chunk.partition(":")
        try:
            pairs.append((name.strip(), int(deg)))
        except ValueError:
            raise UsageError(f"bad degree in ring entry {chunk!r}") from None
    if not pairs:
        raise UsageError("empty ring")
    try:
        return RingSpec.make(pairs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_gens(text: str, ring: RingSpec) -> list[Polynomial]:
    return [parse_poly(chunk.strip(), ring) for chunk in text.split(";") if chunk.strip()]


def _homogeneity(p: Polynomial) -> str:
    if p.is_zero():
        return "zero"
    d = p.homogeneous_degree()
    return f"homogeneous of degree {d}" if d is not None else "not homogeneous"


# -- handler results ------------------------------------------------------------
# A handler returns (payload, text_lines, outcome), where outcome is None or the
# CheckFailed / BudgetExceededError that main raises after printing.


def _failed(ok: bool, message: str) -> CheckFailed | None:
    return None if ok else CheckFailed(message)


def _result(p: Polynomial) -> tuple:
    return {"result": str(p)}, [str(p)], None


def _passed(ok: bool, failure: str) -> tuple:
    return {"pass": ok}, ["pass" if ok else "FAIL"], _failed(ok, failure)


def _equal(ok: bool, failure: str) -> tuple:
    return {"equal": ok}, ["equal" if ok else "different"], _failed(ok, failure)


def _poly_parse(args) -> tuple:
    p = parse_poly(args.expr, _parse_ring(args.ring))
    payload = {"input": args.expr, "canonical": str(p), "homogeneity": _homogeneity(p)}
    return payload, [str(p), _homogeneity(p)], None


def _poly_binary(args, op: Callable) -> tuple:
    ring = _parse_ring(args.ring)
    return _result(op(parse_poly(args.expr, ring), parse_poly(args.other, ring)))


def _poly_subst(args) -> tuple:
    ring = _parse_ring(args.ring)
    p = parse_poly(args.expr, ring)
    target = _parse_ring(args.target_ring) if args.target_ring else ring
    mapping = {}
    for item in args.map or []:
        if "=" not in item:
            raise UsageError(f"--map entries need name=expr, got {item!r}")
        name, _, image = item.partition("=")
        name = name.strip()
        if name in mapping:
            raise UsageError(f"--map names {name!r} twice")
        mapping[name] = parse_poly(image, target)
    return _result(p.substitute(mapping, ring=target, missing="identity"))


def _symmetric(args, fn: Callable) -> tuple:
    ring = RingSpec.make((v.strip(), 1) for v in args.vars.split(",") if v.strip())
    return _result(fn(args.i, ring))


def _holds(ok: bool) -> tuple:
    return _passed(ok, "symmetric function identity failed")


def _weyl_generators(args) -> tuple:
    inv = weyl.invariant_generators(args.group, args.n)
    pairs = list(zip(inv.names, inv.gens))
    payload = {"group": args.group, "n": args.n, "generators": {k: str(v) for k, v in pairs}}
    return payload, [f"{k} = {v}" for k, v in pairs], None


def _weyl_invariant(args) -> tuple:
    ok = weyl.is_invariant(parse_poly(args.poly, weyl.e_ring(args.n)), args.group, args.n)
    return {"invariant": ok}, ["invariant" if ok else "not invariant"], None


def _int_entries(flag: str, text: str) -> tuple[int, ...]:
    out = []
    for x in text.split(","):
        try:
            out.append(int(x))
        except ValueError:
            raise UsageError(f"--{flag} entries must be integers, got {x!r}") from None
    return tuple(out)


def _weyl_act(args) -> tuple:
    p = parse_poly(args.poly, weyl.e_ring(args.n))
    perm = tuple(x - 1 for x in _int_entries("perm", args.perm))
    signs = _int_entries("signs", args.signs) if args.signs else (1,) * args.n
    if len(signs) != args.n:
        raise UsageError(f"expected {args.n} signs, got {len(signs)}")
    return _result(weyl.apply_action(weyl.SignedPermutation(perm, signs, args.group), p))


def _witness(args) -> tuple:
    n = args.n
    try:
        # the witness is returned only once sum w_i * s_i == e1^power holds exactly
        wits = weyl.witness_B(n) if args.group == "B" else weyl.witness_D(n)
    except AssertionError:
        raise CheckFailed("witness expansion failed") from None
    power = weyl.witness_power(args.group, n)
    prefix = "wit_g" if args.group == "B" else "wit_h"
    inv = weyl.invariant_generators(args.group, n)
    texts = [str(w) for w in wits]
    terms = " + ".join(f"({w})*{name}" for w, name in zip(texts, inv.names))
    lines = [f"{prefix}{i} = {w}" for i, w in enumerate(texts, start=1)]
    lines.append(f"e1^{power} = {terms}")
    lines.append("expansion check: ok")
    payload = {
        "group": args.group,
        "n": n,
        "target": f"e1^{power}",
        "cofactors": [
            {"name": f"{prefix}{i}", "value": w, "pairs_with": name}
            for i, (w, name) in enumerate(zip(texts, inv.names), start=1)
        ],
        "verified": True,
    }
    return payload, lines, None


def _span_basis(args) -> tuple:
    texts = spanning.basis(args.group, args.n).texts()
    payload = {"group": args.group, "n": args.n, "size": len(texts), "monomials": texts}
    return payload, [f"size {len(texts)}"] + texts, None


def _span_reduce(args) -> tuple:
    ring = weyl.e_ring(args.n)
    p = parse_poly(args.poly, ring)
    dec = spanning.reduce(p, args.group, args.n)
    ok = spanning.expand(dec) == p
    items = sorted(dec.terms.items(), key=lambda kv: ring.sort_key(kv[0]))
    shown = [(ring.monomial_text(m), str(c)) for m, c in items]
    terms = [{"monomial": m, "coefficient": c} for m, c in shown]
    lines = [f"({c}) * {m}" for m, c in shown] + [f"expansion check: {'ok' if ok else 'FAILED'}"]
    payload = {"target": str(p), "terms": terms, "verified": ok}
    return payload, lines, _failed(ok, "decomposition expansion failed")


def _span_free(args) -> tuple:
    rep = spanning.verify_free(args.group, args.n, args.max_degree)
    payload = {"group": args.group, "n": args.n, "max_degree": args.max_degree, "pass": rep.passed}
    payload.update(
        first_mismatch=rep.first_mismatch,
        polynomial_ring_series=list(rep.lhs),
        invariants_times_basis_series=list(rep.rhs),
    )
    lines = [
        f"freeness to degree {args.max_degree}: {'pass' if rep.passed else 'FAIL'}",
        "polynomial ring:        " + " ".join(str(c) for c in rep.lhs),
        "invariants times basis: " + " ".join(str(c) for c in rep.rhs),
    ]
    return payload, lines, _failed(rep.passed, f"Hilbert mismatch at degree {rep.first_mismatch}")


def _ideal(args) -> tuple[RingSpec, Ideal]:
    ring = _parse_ring(args.ring)
    return ring, Ideal.make(ring, _parse_gens(args.gens, ring))


def _ideal_groebner(args) -> tuple:
    _, ideal = _ideal(args)
    # monic over Q internally; report primitive integer forms
    basis = [str(primitive_integer(g)) for g in groebner_basis(ideal).basis]
    return {"basis": basis}, basis or ["(empty basis)"], None


def _ideal_nf(args) -> tuple:
    ring, ideal = _ideal(args)
    G = groebner_basis(ideal)
    r = normal_form(parse_poly(args.poly, ring), G)
    return {"normal_form": str(r)}, [str(r)], None


def _ideal_member(args) -> tuple:
    ring, ideal = _ideal(args)
    cof = member_with_cofactors(parse_poly(args.poly, ring), ideal)
    if cof is None:
        return {"member": False}, ["not a member"], CheckFailed("not an ideal member")
    lines = [f"cofactor {i}: {c}" for i, c in enumerate(cof, start=1)]
    return {"member": True, "cofactors": [str(c) for c in cof]}, lines, None


def _ideal_equal(args) -> tuple:
    ring, ideal = _ideal(args)
    other = Ideal.make(ring, _parse_gens(args.gens2, ring))
    return _equal(ideal_equal(ideal, other), "ideals differ")


def _ideal_hilbert(args) -> tuple:
    h = quotient_hilbert(groebner_basis(_ideal(args)[1]), args.max_degree)
    return {"hilbert": h}, [" ".join(str(c) for c in h)], None


def _ideal_standard(args) -> tuple:
    ring, ideal = _ideal(args)
    G = groebner_basis(ideal)
    monos = [ring.monomial_text(m) for m in standard_monomials(G, args.max_degree)]
    return {"standard_monomials": monos}, monos or ["(none)"], None


def _split_bundle(args) -> charclass.SplitBundle:
    symbols = tuple(s.strip() for s in args.symbols.split(",") if s.strip()) if args.symbols else ()
    return charclass.SplitBundle(symbols, args.odd_part, args.orientation)


def _class_euler(args) -> tuple:
    b = _split_bundle(args)
    p = charclass.euler(b)
    return {"rank": b.rank, "euler": str(p)}, [str(p)], None


def _class_borel(args) -> tuple:
    texts = charclass.total_borel(_split_bundle(args), args.order, epsilon=args.epsilon).texts()
    lines = [f"b_{i} = {c}" for i, c in enumerate(texts)]
    return {"epsilon": args.epsilon, "coefficients": texts}, lines, None


def _class_complement(args) -> tuple:
    texts = charclass.complement_borel(_split_bundle(args), args.total_rank, args.order).texts()
    return {"coefficients": texts}, [f"b_{i}(complement) = {c}" for i, c in enumerate(texts)], None


def _class_cor_dual(args) -> tuple:
    rep = charclass.verify_cor_dual(_split_bundle(args), args.order)
    payload = {"checks": [{"name": n, "pass": ok} for n, ok in rep.checks], "pass": rep.passed}
    lines = [f"{'PASS' if ok else 'FAIL'} {n}" for n, ok in rep.checks]
    return payload, lines, _failed(rep.passed, "cor_dual checks failed")


def _build_presentation(args) -> presentations.Presentation:
    """The presentation named by --kind, its parameters read off the builder."""
    kind = args.kind.replace("-", "_")
    parameters = presentations.BUILDER_PARAMETERS.get(kind)
    if parameters is None:
        raise UsageError(f"unknown presentation kind {args.kind!r}")
    params = {name: v for name, _ in parameters if (v := getattr(args, name)) is not None}
    missing = [f"--{name}" for name, required in parameters if required and name not in params]
    if missing:
        raise UsageError(f"{args.kind} needs {', '.join(missing)}")
    try:
        return presentations.build(kind, **params)
    except (ValueError, presentations.NoDeclaredBasisError) as exc:
        raise UsageError(str(exc)) from None


def _report_lines(d: dict) -> list[str]:
    """The text form of a PresentationReport.to_dict()."""
    lines = [f"descriptor: {json.dumps(d['descriptor'])}"]
    lines.append("ring: " + ", ".join(f"{name}:{deg}" for name, deg in d["ring"]))
    lines.append("generators:")
    lines += [f"  {g}" for g in d["generators"]]
    lines.append(f"basis ({len(d['basis'])}):")
    lines += [f"  {b}" for b in d["basis"]]
    lines.append("hilbert: " + " ".join(str(c) for c in d["hilbert"]))
    for c in d["checks"]:
        lines.append(f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}")
    return lines


def _present(args) -> tuple:
    report = presentations.verify_presentation(_build_presentation(args), args.max_degree)
    outcome = _failed(report.passed, "presentation checks failed")
    if report.budget_exceeded:
        outcome = BudgetExceededError("presentation verification ran out of budget")
    payload = report.to_dict()
    return payload, _report_lines(payload), outcome


def _present_rank(args) -> tuple:
    params = {k: v for k, v in (("k", args.k), ("N", args.N), ("m", args.m)) if v is not None}
    try:
        value = presentations.rank_table(args.rank_kind.replace("-", "_"), **params)
    except KeyError as exc:  # the descriptor's parameter that was not given
        raise UsageError(f"present rank needs --{exc.args[0]}") from None
    except presentations.NoDeclaredBasisError as exc:
        return {"error": str(exc)}, [str(exc)], CheckFailed(str(exc))
    return {"rank": value}, [str(value)], None


def _verify_spanning(args) -> tuple:
    rep = spanning.verify_free(args.group, args.n, args.max_degree)
    size_ok = rep.size == weyl.group_order(args.group, args.n)
    payload = {"group": args.group, "n": args.n, "max_degree": args.max_degree}
    payload.update(hilbert_pass=rep.passed, cardinality_pass=size_ok)
    lines = [
        f"Hilbert identity to degree {args.max_degree}: {'pass' if rep.passed else 'FAIL'}",
        f"basis cardinality equals Weyl order: {'pass' if size_ok else 'FAIL'}",
    ]
    return payload, lines, _failed(rep.passed and size_ok, "spanning verification failed")


def _verify_collapse(args) -> tuple:
    ok = presentations.sgr_even_collapses_to_sgr2(args.n, args.parity)
    return _passed(ok, "collapse failed")


def _verify_specialize(args) -> tuple:
    ok = presentations.relative_specializes_to_absolute(args.n, args.parity)
    return _passed(ok, "specialization failed")


def _verify_flag_equal(args) -> tuple:
    a = presentations.present_partial_flag(args.m, args.n, args.parity)
    b = presentations.present_partial_flag_alt(args.m, args.n, args.parity)
    return _equal(ideal_equal(a.ideal, b.ideal), "flag generating sets disagree")


def _verify_conventions(args) -> tuple:
    rep = presentations.convention_report(args.max_n)
    lines = [
        f"{e['family']} {e.get('m','-')}/{e['n']} {e['parity']}: literal under "
        + (", ".join(f"epsilon={v}" for v in e["literal_under"]) or "neither")
        for e in rep
    ]
    return {"families": rep}, lines, None


def _acceptance(args) -> tuple:
    results = acceptance.run_all(args.filter)
    if not results:
        raise UsageError(f"no acceptance checks match filter {args.filter!r}")
    checks = [{"name": r.name, "pass": r.passed, "detail": r.detail} for r in results]
    payload = {"checks": checks, "all_pass": all(r.passed for r in results)}
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append("all checks passed" if payload["all_pass"] else "FAILURES present")
    exhausted = ", ".join(r.name for r in results if r.budget_exceeded)
    if exhausted:
        return payload, lines, BudgetExceededError(f"checks out of budget: {exhausted}")
    failing = ", ".join(r.name for r in results if not r.passed)
    return payload, lines, _failed(not failing, f"failing checks: {failing}")


# -- the command table ------------------------------------------------------------


class _Entry(NamedTuple):
    """A handler and the flags it reads and needs (space separated)."""

    handler: Callable
    accepts: str = ""
    requires: str = ""


_INT = dict(type=int)
_GROUP = dict(choices=("B", "D"))
_PARITY = dict(choices=("even", "odd"))
_SIGN = dict(type=int, choices=(1, -1))
_GROUP_N = {"group": dict(_GROUP, required=True), "n": dict(_INT, required=True)}
_SIZES = {"n": _INT, "m": _INT, "N": _INT}
_PARITY_EPSILON_DEGREE = {"parity": _PARITY, "epsilon": _SIGN, "max-degree": dict(_INT, default=16)}
_PRESENT_ACCEPTS = "n m N parity epsilon max-degree"
_FORMAT = dict(choices=("text", "json"), default="text")

# command -> (name of its positional or None, help)
_COMMANDS = {
    "poly": ("action", "polynomial arithmetic in a graded ring"),
    "symfunc": ("action", "symmetric polynomials and their identities"),
    "weyl": ("action", "signed permutation actions and invariants"),
    "witness": (None, "degree-lowering cofactors for e1^(2n) / e1^(2n-1)"),
    "span": ("action", "spanning bases and the rewriting algorithm"),
    "ideal": ("action", "Groebner bases, normal forms, Hilbert data"),
    "class": ("action", "Euler/Borel classes of split bundles"),
    "present": ("kind", "build and verify a presentation"),
    "verify": ("target", "run a single verification"),
    "acceptance": (None, "run the full acceptance matrix"),
}

# command -> {flag: add_argument keywords}; every command also takes --format.
# Parsing leaves a flag that was not given unset, so main can tell it from one
# given at its default, and fills in the default afterwards.
_FLAGS = {
    "poly": {
        "ring": dict(required=True, help="e.g. 'e1:2,e2:2,e:4'"),
        "expr": dict(required=True),
        "other": dict(help="second operand for add/mul (use --other=-e1 for leading minus)"),
        "map": dict(action="append", help="substitution name=expr (repeatable)"),
        "target-ring": dict(help="ring of the substitution images"),
    },
    "symfunc": {
        "i": dict(_INT, default=0),
        "m": dict(_INT, default=1),
        "k": dict(_INT, default=0),
        "l": dict(_INT, default=1),
        "n": dict(_INT, default=1),
        "order": dict(_INT, default=12),
        "vars": dict(default="x1,x2", help="comma separated variable names"),
    },
    "weyl": {
        **_GROUP_N,
        "poly": {},
        "perm": dict(help="one-line permutation, e.g. '2,1'"),
        "signs": dict(help="comma separated +-1 entries (use --signs=-1,1)"),
    },
    "witness": _GROUP_N,
    "span": {**_GROUP_N, "poly": {}, "max-degree": dict(_INT, default=40)},
    "ideal": {
        "ring": dict(required=True),
        "gens": dict(required=True, help="semicolon separated generators"),
        "gens2": dict(help="second generator list for 'equal'"),
        "poly": {},
        "max-degree": dict(_INT, default=16),
    },
    "class": {
        "symbols": dict(default="", help="comma separated rank-2 Euler symbols"),
        "odd-part": dict(action="store_true", default=False),
        "orientation": dict(_SIGN, default=1),
        "order": dict(_INT, default=6),
        "epsilon": dict(_SIGN, default=-1),
        "total-rank": dict(_INT, default=0),
    },
    "present": {
        **_SIZES,
        "k": _INT,
        **_PARITY_EPSILON_DEGREE,
        "rank-kind": dict(choices=("sgr", "partial-flag", "max-flag"), default="sgr"),
    },
    "verify": {
        "kind": dict(default="sgr2"),
        "group": _GROUP,
        **_SIZES,
        **_PARITY_EPSILON_DEGREE,
        "max-n": dict(_INT, default=3),
    },
    "acceptance": {"filter": dict(help="run only checks whose name contains this substring")},
}

# (command, action) -> entry; a command without a positional has the action None
_TABLE = {
    ("poly", "parse"): _Entry(_poly_parse, "ring expr"),
    ("poly", "add"): _Entry(lambda a: _poly_binary(a, operator.add), "ring expr other", "other"),
    ("poly", "mul"): _Entry(lambda a: _poly_binary(a, operator.mul), "ring expr other", "other"),
    ("poly", "subst"): _Entry(_poly_subst, "ring expr map target-ring"),
    ("symfunc", "elementary"): _Entry(lambda a: _symmetric(a, symfunc.elementary), "i vars"),
    ("symfunc", "complete"): _Entry(lambda a: _symmetric(a, symfunc.complete), "i vars"),
    ("symfunc", "gpoly"): _Entry(lambda a: _result(symfunc.g_poly(a.i, a.m)), "i m"),
    ("symfunc", "check-split"): _Entry(lambda a: _holds(symfunc.verify_h_split(a.k, a.l)), "k l"),
    ("symfunc", "check-peel"): _Entry(lambda a: _holds(symfunc.verify_h_peel(a.i, a.n)), "i n"),
    ("symfunc", "check-generating"): _Entry(
        lambda a: _holds(symfunc.generating_function_check(a.n, a.order)), "n order"
    ),
    ("weyl", "generators"): _Entry(_weyl_generators, "group n"),
    ("weyl", "invariant"): _Entry(_weyl_invariant, "group n poly", "poly"),
    ("weyl", "act"): _Entry(_weyl_act, "group n poly perm signs", "poly perm"),
    ("witness", None): _Entry(_witness, "group n"),
    ("span", "basis"): _Entry(_span_basis, "group n"),
    ("span", "reduce"): _Entry(_span_reduce, "group n poly", "poly"),
    ("span", "free"): _Entry(_span_free, "group n max-degree"),
    ("ideal", "groebner"): _Entry(_ideal_groebner, "ring gens"),
    ("ideal", "nf"): _Entry(_ideal_nf, "ring gens poly", "poly"),
    ("ideal", "member"): _Entry(_ideal_member, "ring gens poly", "poly"),
    ("ideal", "equal"): _Entry(_ideal_equal, "ring gens gens2", "gens2"),
    ("ideal", "hilbert"): _Entry(_ideal_hilbert, "ring gens max-degree"),
    ("ideal", "standard"): _Entry(_ideal_standard, "ring gens max-degree"),
    ("class", "euler"): _Entry(_class_euler, "symbols odd-part orientation"),
    ("class", "borel"): _Entry(_class_borel, "symbols odd-part orientation order epsilon"),
    ("class", "complement"): _Entry(
        _class_complement, "symbols odd-part orientation total-rank order"
    ),
    ("class", "cor-dual"): _Entry(_class_cor_dual, "symbols odd-part orientation order"),
    **{
        ("present", kind.replace("_", "-")): _Entry(_present, _PRESENT_ACCEPTS)
        for kind in presentations.BUILDER_PARAMETERS
    },
    ("present", "rank"): _Entry(_present_rank, "rank-kind k N m"),
    ("verify", "presentation"): _Entry(_present, "kind " + _PRESENT_ACCEPTS),
    ("verify", "spanning"): _Entry(_verify_spanning, "group n max-degree", "group n"),
    ("verify", "flag-equal"): _Entry(_verify_flag_equal, "m n parity", "m n parity"),
    ("verify", "collapse"): _Entry(_verify_collapse, "n parity", "n parity"),
    ("verify", "specialize"): _Entry(_verify_specialize, "n parity", "n parity"),
    ("verify", "conventions"): _Entry(_verify_conventions, "max-n"),
    ("acceptance", None): _Entry(_acceptance, "filter"),
}


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build for a well-formed command line, read
    off the tables; None for any other line, which main leaves to argparse.

    Well formed: the command, its action if it takes one, then --flag value or
    --flag=value pairs naming the command's flags exactly, every value passing
    the flag's type and choices, and every required flag given.  A value given
    as its own token starts with '-' only as a negative integer, which argparse
    reads as a value too; '--' is no value (argparse refuses it, after '='
    as well), and a store_true flag takes none.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    args = {"command": command, "format": _FORMAT["default"]}
    positional = _COMMANDS[command][0]
    if positional:
        action = next(tokens, None)
        if (command, action) not in _TABLE:
            return None
        args[positional] = action
    flags = {**_FLAGS[command], "format": _FORMAT}
    for token in tokens:
        name, eq, value = token.partition("=")
        spec = flags.get(name[2:]) if name.startswith("--") else None
        if spec is None or value == "--":
            return None
        dest = name[2:].replace("-", "_")
        if spec.get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value.startswith("-") and not value[1:].isdecimal():
                return None
        if spec.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if value not in spec.get("choices", (value,)):
            return None
        if spec.get("action") == "append":
            args.setdefault(dest, []).append(value)
        else:
            args[dest] = value
    if any(spec.get("required") and f.replace("-", "_") not in args for f, spec in flags.items()):
        return None
    return SimpleNamespace(**args)


def _build_parser():
    """The whole slcc argparse parser, for the lines _table_args leaves: help,
    --version and every malformed line, so argparse owns all their text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _get_values(self, action, arg_strings):
            # argparse drops a '--' given after '=' (--n=-- would read n=[]):
            # refuse it with the error of --n --
            if action.option_strings and arg_strings == ["--"]:
                raise argparse.ArgumentError(action, "expected one argument")
            return super()._get_values(action, arg_strings)

    parser = Parser(
        prog="slcc", description="Exact calculus of special linear characteristic classes."
    )
    parser.add_argument("--version", action="version", version=f"slcc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (positional, help_text) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        if positional:
            command_parser.add_argument(positional, choices=[a for c, a in _TABLE if c == command])
        for flag, kwargs in _FLAGS[command].items():
            command_parser.add_argument(f"--{flag}", **{**kwargs, "default": argparse.SUPPRESS})
        command_parser.add_argument("--format", **_FORMAT)
    return parser


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# (exception types, stderr label, exit code): the first matching row wins, and
# any other exception is an internal error, exit 4
_EXIT_CODES = (
    (UsageError, "usage error", 2),
    (ParseError, "parse error", 2),
    (CheckFailed, "check failed", 1),
    (BudgetExceededError, "budget exhausted", 3),
    (MemoryError, "out of memory", 3),
    ((PolyError, ValueError, KeyError, TypeError), "error", 2),
)


def main(argv: list[str] | None = None) -> int:
    # coefficients are exact: read and print integers of any length, not
    # only of up to the 4300 digits Python converts by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _table_args(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    positional = _COMMANDS[args.command][0]
    action = getattr(args, positional) if positional else None
    entry = _TABLE[args.command, action]
    try:
        for flag, kwargs in _FLAGS[args.command].items():
            dest = flag.replace("-", "_")
            if not hasattr(args, dest):
                setattr(args, dest, kwargs.get("default"))
            elif flag not in entry.accepts.split():
                raise UsageError(f"{args.command} {action} does not take --{flag}")
        for flag in entry.requires.split():
            if getattr(args, flag.replace("-", "_")) is None:
                raise UsageError(f"{args.command} {action} needs --{flag}")
        payload, text_lines, outcome = entry.handler(args)
        _emit(args, payload, text_lines)
        if outcome is not None:
            raise outcome
        return 0
    except Exception as exc:
        # the traceback keeps every frame of the failed run alive, and all they
        # built: drop it first, so that after a MemoryError there is room to report
        exc.__traceback__ = exc.__context__ = exc.__cause__ = None
        if type(exc) is SystemError and exc.args == ("error return without exception set",):
            # how CPython 3.11 reports a Python call it found no memory for
            exc = MemoryError()
        for types, label, code in _EXIT_CODES:
            if isinstance(exc, types):
                # str() of a KeyError is the repr of its message: print the message
                message = str(exc.args[0] if isinstance(exc, KeyError) and exc.args else exc)
                print(f"{label}: {message}" if message else label, file=sys.stderr)
                return code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
