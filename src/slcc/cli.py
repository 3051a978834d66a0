"""slcc: batch command-line surface over the whole library.

Subcommands mirror the modules (poly, symfunc, weyl, span, ideal, class,
present, verify, acceptance, plus the witness shortcut); every run is
deterministic given its flags, emits either human-readable text or stable
JSON (--format json), and exits with

    0  success / all checks passed
    1  a mathematical check failed
    2  usage error (unknown flags, malformed input)
    3  Groebner step budget exhausted (see SLCC_BUDGET)

Big coefficients only ever appear inside polynomial strings, so the JSON
payloads never carry numbers beyond machine width; Hilbert coefficients and
ranks are desk-scale counts.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            gens.append(parse_poly(chunk, ring))
    return gens


def _required(args, flag: str, command: str) -> str:
    """The value of an optional flag that ``command`` cannot run without."""
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"{command} needs --{flag}")
    return value


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _homogeneity(p: Polynomial) -> str:
    if p.is_zero():
        return "zero"
    d = p.homogeneous_degree()
    return f"homogeneous of degree {d}" if d is not None else "not homogeneous"


# -- poly ---------------------------------------------------------------------


def _cmd_poly(args) -> int:
    ring = _parse_ring(args.ring)
    if args.action == "parse":
        p = parse_poly(args.expr, ring)
        _emit(
            args,
            {"input": args.expr, "canonical": str(p), "homogeneity": _homogeneity(p)},
            [str(p), _homogeneity(p)],
        )
    elif args.action in ("add", "mul"):
        other = _required(args, "other", f"poly {args.action}")
        p = parse_poly(args.expr, ring)
        q = parse_poly(other, ring)
        result = p + q if args.action == "add" else p * q
        _emit(args, {"result": str(result)}, [str(result)])
    elif args.action == "subst":
        p = parse_poly(args.expr, ring)
        target = _parse_ring(args.target_ring) if args.target_ring else ring
        mapping = {}
        for item in args.map or []:
            if "=" not in item:
                raise UsageError(f"--map entries need name=expr, got {item!r}")
            name, _, image = item.partition("=")
            mapping[name.strip()] = parse_poly(image, target)
        result = p.substitute(mapping, ring=target, missing="identity")
        _emit(args, {"result": str(result)}, [str(result)])
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown poly action {args.action!r}")
    return 0


# -- symfunc ------------------------------------------------------------------


def _cmd_symfunc(args) -> int:
    if args.action in ("elementary", "complete"):
        names = [v.strip() for v in args.vars.split(",") if v.strip()]
        ring = RingSpec.make((v, 1) for v in names)
        fn = symfunc.elementary if args.action == "elementary" else symfunc.complete
        p = fn(args.i, ring)
        _emit(args, {"result": str(p)}, [str(p)])
        return 0
    if args.action == "gpoly":
        p = symfunc.g_poly(args.i, args.m)
        _emit(args, {"result": str(p)}, [str(p)])
        return 0
    if args.action == "check-split":
        ok = symfunc.verify_h_split(args.k, args.l)
    elif args.action == "check-peel":
        ok = symfunc.verify_h_peel(args.i, args.n)
    elif args.action == "check-generating":
        ok = symfunc.generating_function_check(args.n, args.order)
    else:  # pragma: no cover
        raise UsageError(f"unknown symfunc action {args.action!r}")
    _emit(args, {"pass": ok}, ["pass" if ok else "FAIL"])
    if not ok:
        raise CheckFailed("symmetric function identity failed")
    return 0


# -- weyl ---------------------------------------------------------------------


def _parse_signs(text: str, n: int) -> tuple[int, ...]:
    signs = tuple(int(s) for s in text.split(","))
    if len(signs) != n:
        raise UsageError(f"expected {n} signs, got {len(signs)}")
    return signs


def _cmd_weyl(args) -> int:
    if args.action == "generators":
        inv = weyl.invariant_generators(args.group, args.n)
        pairs = list(zip(inv.names, inv.gens))
        _emit(
            args,
            {"group": args.group, "n": args.n, "generators": {k: str(v) for k, v in pairs}},
            [f"{k} = {v}" for k, v in pairs],
        )
        return 0
    if args.action == "invariant":
        ring = weyl.e_ring(args.n)
        p = parse_poly(_required(args, "poly", "weyl invariant"), ring)
        ok = weyl.is_invariant(p, args.group, args.n)
        _emit(args, {"invariant": ok}, ["invariant" if ok else "not invariant"])
        return 0
    if args.action == "act":
        ring = weyl.e_ring(args.n)
        p = parse_poly(_required(args, "poly", "weyl act"), ring)
        perm = tuple(int(x) - 1 for x in _required(args, "perm", "weyl act").split(","))
        signs = _parse_signs(args.signs, args.n) if args.signs else (1,) * args.n
        g = weyl.SignedPermutation(perm, signs, args.group)
        image = weyl.apply_action(g, p)
        _emit(args, {"result": str(image)}, [str(image)])
        return 0
    raise UsageError(f"unknown weyl action {args.action!r}")  # pragma: no cover


def _cmd_witness(args) -> int:
    n = args.n
    ring = weyl.e_ring(n)
    if args.group == "B":
        wits = weyl.witness_B(n)
        inv = weyl.invariant_generators("B", n)
        power = 2 * n
        prefix = "wit_g"
    else:
        wits = weyl.witness_D(n)
        inv = weyl.invariant_generators("D", n)
        power = 2 * n - 1
        prefix = "wit_h"
    target = Polynomial.variable(ring, "e1") ** power
    total = Polynomial.zero(ring)
    for w, s in zip(wits, inv.gens):
        total = total + w * s
    verified = total == target
    terms = " + ".join(f"({w})*{name}" for w, name in zip(wits, inv.names))
    lines = [f"{prefix}{i} = {w}" for i, w in enumerate(wits, start=1)]
    lines.append(f"e1^{power} = {terms}")
    lines.append(f"expansion check: {'ok' if verified else 'FAILED'}")
    _emit(
        args,
        {
            "group": args.group,
            "n": n,
            "target": f"e1^{power}",
            "cofactors": [
                {"name": f"{prefix}{i}", "value": str(w), "pairs_with": name}
                for i, (w, name) in enumerate(zip(wits, inv.names), start=1)
            ],
            "verified": verified,
        },
        lines,
    )
    if not verified:
        raise CheckFailed("witness expansion failed")
    return 0


# -- span ---------------------------------------------------------------------


def _cmd_span(args) -> int:
    if args.action == "basis":
        b = spanning.basis(args.group, args.n)
        _emit(
            args,
            {"group": args.group, "n": args.n, "size": len(b), "monomials": b.texts()},
            [f"size {len(b)}"] + b.texts(),
        )
        return 0
    if args.action == "reduce":
        ring = weyl.e_ring(args.n)
        p = parse_poly(_required(args, "poly", "span reduce"), ring)
        dec = spanning.reduce(p, args.group, args.n)
        ok = spanning.expand(dec) == p
        items = sorted(dec.terms.items(), key=lambda kv: ring.sort_key(kv[0]))
        shown = [(ring.monomial_text(m), str(c)) for m, c in items]
        _emit(
            args,
            {
                "target": str(p),
                "terms": [{"monomial": m, "coefficient": c} for m, c in shown],
                "verified": ok,
            },
            [f"({c}) * {m}" for m, c in shown] + [f"expansion check: {'ok' if ok else 'FAILED'}"],
        )
        if not ok:
            raise CheckFailed("decomposition expansion failed")
        return 0
    if args.action == "free":
        rep = spanning.verify_free(args.group, args.n, args.max_degree)
        _emit(
            args,
            {
                "group": args.group,
                "n": args.n,
                "max_degree": args.max_degree,
                "pass": rep.passed,
                "first_mismatch": rep.first_mismatch,
                "polynomial_ring_series": list(rep.lhs),
                "invariants_times_basis_series": list(rep.rhs),
            },
            [
                f"freeness to degree {args.max_degree}: {'pass' if rep.passed else 'FAIL'}",
                "polynomial ring:        " + " ".join(str(c) for c in rep.lhs),
                "invariants times basis: " + " ".join(str(c) for c in rep.rhs),
            ],
        )
        if not rep.passed:
            raise CheckFailed(f"Hilbert mismatch at degree {rep.first_mismatch}")
        return 0
    raise UsageError(f"unknown span action {args.action!r}")  # pragma: no cover


# -- ideal ----------------------------------------------------------------------


def _cmd_ideal(args) -> int:
    ring = _parse_ring(args.ring)
    gens = _parse_gens(args.gens, ring)
    ideal = Ideal.make(ring, gens)
    if args.action == "groebner":
        G = groebner_basis(ideal)
        # monic over Q internally; report primitive integer forms
        basis = [str(primitive_integer(g)) for g in G.basis]
        _emit(args, {"basis": basis}, basis or ["(empty basis)"])
        return 0
    if args.action == "nf":
        G = groebner_basis(ideal)
        r = normal_form(parse_poly(_required(args, "poly", "ideal nf"), ring), G)
        _emit(args, {"normal_form": str(r)}, [str(r)])
        return 0
    if args.action == "member":
        p = parse_poly(_required(args, "poly", "ideal member"), ring)
        cof = member_with_cofactors(p, ideal)
        if cof is None:
            _emit(args, {"member": False}, ["not a member"])
            raise CheckFailed("not an ideal member")
        _emit(
            args,
            {"member": True, "cofactors": [str(c) for c in cof]},
            [f"cofactor {i}: {c}" for i, c in enumerate(cof, start=1)],
        )
        return 0
    if args.action == "equal":
        other = Ideal.make(ring, _parse_gens(_required(args, "gens2", "ideal equal"), ring))
        ok = ideal_equal(ideal, other)
        _emit(args, {"equal": ok}, ["equal" if ok else "different"])
        if not ok:
            raise CheckFailed("ideals differ")
        return 0
    if args.action == "hilbert":
        G = groebner_basis(ideal)
        h = quotient_hilbert(G, args.max_degree)
        _emit(args, {"hilbert": h}, [" ".join(str(c) for c in h)])
        return 0
    if args.action == "standard":
        G = groebner_basis(ideal)
        monos = [ring.monomial_text(m) for m in standard_monomials(G, args.max_degree)]
        _emit(args, {"standard_monomials": monos}, monos or ["(none)"])
        return 0
    raise UsageError(f"unknown ideal action {args.action!r}")  # pragma: no cover


# -- class ----------------------------------------------------------------------


def _split_bundle(args) -> charclass.SplitBundle:
    symbols = tuple(s.strip() for s in args.symbols.split(",") if s.strip()) if args.symbols else ()
    return charclass.SplitBundle(symbols, args.odd_part, args.orientation)


def _cmd_class(args) -> int:
    b = _split_bundle(args)
    if args.action == "euler":
        p = charclass.euler(b)
        _emit(args, {"rank": b.rank, "euler": str(p)}, [str(p)])
        return 0
    if args.action == "borel":
        s = charclass.total_borel(b, args.order, epsilon=args.epsilon)
        _emit(
            args,
            {"epsilon": args.epsilon, "coefficients": s.texts()},
            [f"b_{i} = {c}" for i, c in enumerate(s.texts())],
        )
        return 0
    if args.action == "complement":
        s = charclass.complement_borel(b, args.total_rank, args.order)
        _emit(
            args,
            {"coefficients": s.texts()},
            [f"b_{i}(complement) = {c}" for i, c in enumerate(s.texts())],
        )
        return 0
    if args.action == "cor-dual":
        rep = charclass.verify_cor_dual(b, args.order)
        _emit(
            args,
            {"checks": [{"name": n, "pass": ok} for n, ok in rep.checks], "pass": rep.passed},
            [f"{'PASS' if ok else 'FAIL'} {n}" for n, ok in rep.checks],
        )
        if not rep.passed:
            raise CheckFailed("cor_dual checks failed")
        return 0
    raise UsageError(f"unknown class action {args.action!r}")  # pragma: no cover


# -- present / verify -------------------------------------------------------------


def _build_presentation(args) -> presentations.Presentation:
    kind = args.kind.replace("-", "_")
    params: dict[str, object] = {}
    if kind in ("sgr2", "sgr2_relative"):
        params = dict(n=args.n, parity=args.parity)
        if kind == "sgr2_relative" and args.epsilon is not None:
            params["epsilon"] = args.epsilon
    elif kind in ("partial_flag", "partial_flag_alt"):
        params = dict(m=args.m, n=args.n, parity=args.parity)
    elif kind == "max_flag":
        params = dict(N=args.N)
    elif kind == "sgr_even":
        params = dict(m=args.m, n=args.n, parity=args.parity)
        if args.epsilon is not None:
            params["epsilon"] = args.epsilon
    elif kind == "bsl":
        params = dict(N=args.N, max_degree=args.max_degree)
    else:
        raise UsageError(f"unknown presentation kind {args.kind!r}")
    missing = [k for k, v in params.items() if v is None]
    if missing:
        flags = ", ".join(f"--{k}" for k in missing)
        raise UsageError(f"{args.kind} needs {flags}")
    try:
        return presentations.build(kind, **params)
    except (ValueError, presentations.NoDeclaredBasisError) as exc:
        raise UsageError(str(exc)) from None


def _report_lines(report: presentations.PresentationReport) -> list[str]:
    d = report.to_dict()
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


def _cmd_present(args) -> int:
    if getattr(args, "kind", None) == "rank":
        if getattr(args, "rank_kind", None) is None:
            raise UsageError("rank queries need --rank-kind")
        try:
            value = presentations.rank_table(args.rank_kind.replace("-", "_"), **{
                k: v
                for k, v in (("k", getattr(args, "k", None)), ("N", args.N), ("m", args.m))
                if v is not None
            })
        except presentations.NoDeclaredBasisError as exc:
            _emit(args, {"error": str(exc)}, [str(exc)])
            raise CheckFailed(str(exc))
        _emit(args, {"rank": value}, [str(value)])
        return 0
    pres = _build_presentation(args)
    report = presentations.verify_presentation(pres, args.max_degree)
    _emit(args, report.to_dict(), _report_lines(report))
    if report.budget_exceeded:
        raise BudgetExceededError("presentation verification ran out of budget")
    if not report.passed:
        raise CheckFailed("presentation checks failed")
    return 0


def _cmd_verify(args) -> int:
    if args.target == "presentation":
        return _cmd_present(args)
    if args.target == "spanning":
        rep = spanning.verify_free(args.group, args.n, args.max_degree)
        size_ok = len(spanning.basis(args.group, args.n)) == weyl.group_order(args.group, args.n)
        ok = rep.passed and size_ok
        _emit(
            args,
            {
                "group": args.group,
                "n": args.n,
                "max_degree": args.max_degree,
                "hilbert_pass": rep.passed,
                "cardinality_pass": size_ok,
            },
            [
                f"Hilbert identity to degree {args.max_degree}: {'pass' if rep.passed else 'FAIL'}",
                f"basis cardinality equals Weyl order: {'pass' if size_ok else 'FAIL'}",
            ],
        )
        if not ok:
            raise CheckFailed("spanning verification failed")
        return 0
    if args.target == "flag-equal":
        a = presentations.present_partial_flag(args.m, args.n, args.parity)
        b = presentations.present_partial_flag_alt(args.m, args.n, args.parity)
        ok = ideal_equal(a.ideal, b.ideal)
        _emit(args, {"equal": ok}, ["equal" if ok else "different"])
        if not ok:
            raise CheckFailed("flag generating sets disagree")
        return 0
    if args.target == "collapse":
        ok = presentations.sgr_even_collapses_to_sgr2(args.n, args.parity)
        _emit(args, {"pass": ok}, ["pass" if ok else "FAIL"])
        if not ok:
            raise CheckFailed("collapse failed")
        return 0
    if args.target == "specialize":
        ok = presentations.relative_specializes_to_absolute(args.n, args.parity)
        _emit(args, {"pass": ok}, ["pass" if ok else "FAIL"])
        if not ok:
            raise CheckFailed("specialization failed")
        return 0
    if args.target == "conventions":
        rep = presentations.convention_report(args.max_n)
        lines = [
            f"{e['family']} {e.get('m','-')}/{e['n']} {e['parity']}: literal under "
            + (", ".join(f"epsilon={v}" for v in e["literal_under"]) or "neither")
            for e in rep
        ]
        _emit(args, {"families": rep}, lines)
        return 0
    raise UsageError(f"unknown verify target {args.target!r}")  # pragma: no cover


def _cmd_acceptance(args) -> int:
    results = acceptance.run_all(args.filter)
    if not results:
        raise UsageError(f"no acceptance checks match filter {args.filter!r}")
    payload = {
        "checks": [{"name": r.name, "pass": r.passed, "detail": r.detail} for r in results],
        "all_pass": all(r.passed for r in results),
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append("all checks passed" if payload["all_pass"] else "FAILURES present")
    _emit(args, payload, lines)
    exhausted = ", ".join(r.name for r in results if r.budget_exceeded)
    if exhausted:
        raise BudgetExceededError(f"checks out of budget: {exhausted}")
    if not payload["all_pass"]:
        failing = ", ".join(r.name for r in results if not r.passed)
        raise CheckFailed(f"failing checks: {failing}")
    return 0


# -- argument parser -----------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcc",
        description="Exact calculus of special linear characteristic classes.",
    )
    parser.add_argument("--version", action="version", version=f"slcc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="polynomial arithmetic in a graded ring")
    p.add_argument("action", choices=("parse", "add", "mul", "subst"))
    p.add_argument("--ring", required=True, help="e.g. 'e1:2,e2:2,e:4'")
    p.add_argument("--expr", required=True)
    p.add_argument("--other", help="second operand for add/mul (use --other=-e1 for leading minus)")
    p.add_argument("--map", action="append", help="substitution name=expr (repeatable)")
    p.add_argument("--target-ring", help="ring of the substitution images")
    _add_format(p)
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("symfunc", help="symmetric polynomials and their identities")
    p.add_argument(
        "action",
        choices=("elementary", "complete", "gpoly", "check-split", "check-peel", "check-generating"),
    )
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--vars", default="x1,x2", help="comma separated variable names")
    _add_format(p)
    p.set_defaults(fn=_cmd_symfunc)

    p = sub.add_parser("weyl", help="signed permutation actions and invariants")
    p.add_argument("action", choices=("generators", "invariant", "act"))
    p.add_argument("--group", choices=("B", "D"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly")
    p.add_argument("--perm", help="one-line permutation, e.g. '2,1'")
    p.add_argument("--signs", help="comma separated +-1 entries (use --signs=-1,1)")
    _add_format(p)
    p.set_defaults(fn=_cmd_weyl)

    p = sub.add_parser("witness", help="degree-lowering cofactors for e1^(2n) / e1^(2n-1)")
    p.add_argument("--group", choices=("B", "D"), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("span", help="spanning bases and the rewriting algorithm")
    p.add_argument("action", choices=("basis", "reduce", "free"))
    p.add_argument("--group", choices=("B", "D"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly")
    p.add_argument("--max-degree", type=int, default=40)
    _add_format(p)
    p.set_defaults(fn=_cmd_span)

    p = sub.add_parser("ideal", help="Groebner bases, normal forms, Hilbert data")
    p.add_argument("action", choices=("groebner", "nf", "member", "equal", "hilbert", "standard"))
    p.add_argument("--ring", required=True)
    p.add_argument("--gens", required=True, help="semicolon separated generators")
    p.add_argument("--gens2", help="second generator list for 'equal'")
    p.add_argument("--poly")
    p.add_argument("--max-degree", type=int, default=16)
    _add_format(p)
    p.set_defaults(fn=_cmd_ideal)

    p = sub.add_parser("class", help="Euler/Borel classes of split bundles")
    p.add_argument("action", choices=("euler", "borel", "complement", "cor-dual"))
    p.add_argument("--symbols", default="", help="comma separated rank-2 Euler symbols")
    p.add_argument("--odd-part", action="store_true", dest="odd_part")
    p.add_argument("--orientation", type=int, choices=(1, -1), default=1)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=-1)
    p.add_argument("--total-rank", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=_cmd_class)

    p = sub.add_parser("present", help="build and verify a presentation")
    p.add_argument(
        "kind",
        choices=(
            "sgr2",
            "sgr2-relative",
            "partial-flag",
            "partial-flag-alt",
            "max-flag",
            "sgr-even",
            "bsl",
            "rank",
        ),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--parity", choices=("even", "odd"))
    p.add_argument("--epsilon", type=int, choices=(1, -1))
    p.add_argument("--max-degree", type=int, default=16)
    p.add_argument("--rank-kind", choices=("sgr", "partial-flag", "max-flag"), default="sgr")
    _add_format(p)
    p.set_defaults(fn=_cmd_present)

    p = sub.add_parser("verify", help="run a single verification")
    p.add_argument(
        "target",
        choices=("presentation", "spanning", "flag-equal", "collapse", "specialize", "conventions"),
    )
    p.add_argument("--kind", default="sgr2")
    p.add_argument("--group", choices=("B", "D"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--parity", choices=("even", "odd"))
    p.add_argument("--epsilon", type=int, choices=(1, -1))
    p.add_argument("--max-degree", type=int, default=16)
    p.add_argument("--max-n", type=int, default=3)
    _add_format(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("acceptance", help="run the full acceptance matrix")
    p.add_argument("--filter", help="run only checks whose name contains this substring")
    _add_format(p)
    p.set_defaults(fn=_cmd_acceptance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except PolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
