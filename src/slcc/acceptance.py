"""The acceptance matrix: every headline identity as one machine check.

Each criterion is a named, deterministic, exact check (no tolerances
anywhere; every assertion is polynomial or integer equality).  run_all()
evaluates them in a fixed order and returns structured results; the CLI and
the test suite both consume this registry, so `slcc acceptance` and pytest
agree by construction.
"""

from __future__ import annotations

import json
import random

from . import charclass, presentations, spanning, symfunc, weyl
from .groebner import BudgetExceededError, ideal_equal, Ideal
from .polyring import Polynomial, _record

__all__ = ["CheckResult", "all_names", "run_all", "run_check"]


@_record
class CheckResult:
    name: str
    passed: bool
    detail: str
    budget_exceeded: bool = False


def _verify(pres: presentations.Presentation, bound: int) -> presentations.PresentationReport:
    """verify_presentation, with budget exhaustion raised rather than reported."""
    rep = presentations.verify_presentation(pres, bound)
    if rep.budget_exceeded:
        raise BudgetExceededError(rep.checks[-1][2])
    return rep


def _check_grassmannian_ranks() -> str:
    for n in range(2, 5):
        bound = 4 * n
        rep = _verify(presentations.present_sgr2(n, "odd"), bound)
        if not rep.passed:
            raise AssertionError(f"sgr2({n}, odd) verification failed")
        expected = [0] * (bound + 1)
        for k in range(2 * n):
            expected[2 * k] = 1
        if list(rep.hilbert) != expected:
            raise AssertionError(f"sgr2({n}, odd) degrees wrong: {rep.hilbert}")
        rep = _verify(presentations.present_sgr2(n, "even"), bound)
        if not rep.passed:
            raise AssertionError(f"sgr2({n}, even) verification failed")
        if sum(rep.hilbert) != 2 * n:
            raise AssertionError(f"sgr2({n}, even) rank {sum(rep.hilbert)} != {2*n}")
        if rep.hilbert[2 * n - 2] != 2:
            raise AssertionError(f"sgr2({n}, even) misses the extra class in degree {2*n-2}")
    return "ranks and degree profiles match for n = 2..4, both parities"


def _check_coinvariant_dimensions() -> str:
    for n in range(1, 5):
        for N, group in ((2 * n + 1, "B"), (2 * n, "D")):
            expected = weyl.group_order(group, n)
            bound = 2 * n * n + 2
            rep = _verify(presentations.present_max_flag(N), bound)
            total = sum(rep.hilbert)
            if not rep.passed or total != expected:
                raise AssertionError(f"max flag N={N}: rank {total}, expected {expected}")
            if any(rep.hilbert[d] for d in range(bound - 1, bound + 1)):
                raise AssertionError(f"max flag N={N}: quotient not finite below bound")
    return "quotient ranks equal the Weyl group orders for n <= 4"


def _check_witnesses() -> str:
    for n in range(1, 5):
        ring = weyl.e_ring(n)
        for group, witness in (("B", weyl.witness_B), ("D", weyl.witness_D)):
            inv = weyl.invariant_generators(group, n)
            wits = witness(n)
            power = weyl.witness_power(group, n)
            total = Polynomial.zero(ring)
            for w, s in zip(wits, inv.gens):
                total = total + w * s
            if total != Polynomial.variable(ring, "e1") ** power:
                raise AssertionError(f"witness_{group}({n}) expansion failed")
            # deg e_1^power = 2 * power, so cofactor i has degree 2 * power - deg(gen i)
            for i, (w, d) in enumerate(zip(wits, inv.degrees), start=1):
                if not w.is_zero() and w.homogeneous_degree() != 2 * power - d:
                    raise AssertionError(f"witness_{group}({n}) cofactor {i} degree wrong")
    return "degree-lowering identities hold exactly over Z for n <= 4"


def _check_spanning() -> str:
    for n in range(1, 6):
        for group in ("B", "D"):
            rep = spanning.verify_free(group, n, 40)
            if rep.size != weyl.group_order(group, n):
                raise AssertionError(f"basis({group},{n}) cardinality wrong")
            if not rep.passed:
                raise AssertionError(
                    f"verify_free({group},{n}) fails first at degree {rep.first_mismatch}"
                )
    basis_sets = {(g, n): set(spanning.basis(g, n).monomials) for g in "BD" for n in range(1, 4)}
    rng = random.Random(20250810)
    count = 0
    while count < 200:
        n = rng.randint(1, 3)
        ring = weyl.e_ring(n)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            expo = tuple(rng.randint(0, 10 // n) for _ in range(n))
            if sum(expo) <= 10:
                terms[expo] = rng.randint(-9, 9)
        p = Polynomial(ring, terms)
        group = "B" if count % 2 == 0 else "D"
        dec = spanning.reduce(p, group, n)
        if spanning.expand(dec) != p:
            raise AssertionError(f"round-trip failed for {p} over {group}, n={n}")
        if not set(dec.terms) <= basis_sets[group, n]:
            raise AssertionError("decomposition used a non-basis monomial")
        count += 1
    return "200 random round-trips exact (n <= 3); freeness to degree 40 (n <= 5)"


def _check_flag_ideal_equality() -> str:
    combos = 0
    for m in (1, 2, 3):
        for n in range(m, 5):
            for parity in ("odd", "even"):
                if parity == "even" and n < m + 1:
                    continue  # degenerate: the last quotient bundle has rank 0
                a = presentations.present_partial_flag(m, n, parity)
                b = presentations.present_partial_flag_alt(m, n, parity)
                if not ideal_equal(a.ideal, b.ideal):
                    raise AssertionError(f"I ideals differ for m={m}, n={n}, {parity}")
                combos += 1
    return f"both printed generating sets agree for all {combos} valid (m, n, parity)"


def _check_sgr_even_collapse() -> str:
    for n in range(2, 5):
        for parity in ("odd", "even"):
            if not presentations.sgr_even_collapses_to_sgr2(n, parity):
                raise AssertionError(f"J-collapse failed for n={n}, {parity}")
    return "b_1 -> e^2 elimination recovers the absolute presentations for n = 2..4"


def _check_charclass() -> str:
    order = 10
    for k in range(1, 5):
        b = charclass.SplitBundle.standard(k)
        ring = charclass.bundle_ring(b)
        for j in range(1, k):
            b1 = charclass.SplitBundle(b.euler_symbols[:j])
            b2 = charclass.SplitBundle(b.euler_symbols[j:])
            whole = charclass.total_borel(b, order, ring=ring)
            split = charclass.total_borel(b1, order, ring=ring) * charclass.total_borel(
                b2, order, ring=ring
            )
            if whole.coefficients != split.coefficients:
                raise AssertionError(f"Whitney product failed for k={k}, split {j}")
            if charclass.euler(b, ring) != charclass.euler(b1, ring) * charclass.euler(b2, ring):
                raise AssertionError(f"Euler multiplicativity failed for k={k}, split {j}")
        comp = charclass.complement_borel(b, 2 * k + 1, order, ring=ring)
        inv = charclass.total_borel(b, order, ring=ring) * comp
        if inv.coefficients[0] != Polynomial.one(ring) or any(
            not c.is_zero() for c in inv.coefficients[1:]
        ):
            raise AssertionError(f"inverse-series identity failed for k={k}")
        for i in range(order + 1):
            expected = comp[i]
            aux = symfunc.complete(i, symfunc.x_ring(k))
            image = aux.substitute(
                {f"x{j}": Polynomial.variable(ring, f"e{j}") ** 2 for j in range(1, k + 1)},
                ring=ring,
            )
            if expected != image:
                raise AssertionError(f"complement b_{i} != h_{i}(squares) for k={k}")
        if not charclass.verify_cor_dual(b, order).passed:
            raise AssertionError(f"cor_dual checks failed for k={k}")
        odd = charclass.SplitBundle(b.euler_symbols, odd_part=True)
        if not charclass.euler(odd).is_zero():
            raise AssertionError("odd-rank Euler class did not vanish")
        flipped = charclass.SplitBundle(b.euler_symbols, orientation=-1)
        if charclass.euler(flipped, ring) != -charclass.euler(b, ring):
            raise AssertionError("orientation flip did not negate the Euler class")
    return "Whitney, inverse-series and top-class identities exact up to 4 summands"


def _check_specialization() -> str:
    # odd n = 1 has no absolute builder (SGr(2,3) sits below the n >= 2 range);
    # compare against the literal ideal (e1^2) instead
    rel = presentations.present_sgr2_relative(1, "odd")
    zero = {v: 0 for v in rel.coefficient_vars}
    ring = weyl.e_ring(1)
    expected = Ideal.make(ring, [Polynomial.variable(ring, "e1") ** 2])
    if not presentations.specializes_to(rel, zero, expected):
        raise AssertionError("specialization failed for n=1, odd")
    for n in range(2, 5):
        for parity in ("odd", "even"):
            if not presentations.relative_specializes_to_absolute(n, parity):
                raise AssertionError(f"specialization failed for n={n}, {parity}")
    return "zeroed base classes recover the absolute ideals for n <= 4"


def _check_symfunc() -> str:
    for v in range(1, 5):
        if not symfunc.generating_function_check(v, 12):
            raise AssertionError(f"generating function identity failed for {v} variables")
    for m in range(1, 5):
        ring = symfunc.x_ring(m)
        for i in range(0, 9):
            g = symfunc.g_poly(i, m)
            image = g.substitute(
                {f"sigma{j}": symfunc.elementary(j, ring) for j in range(1, m + 1)},
                ring=ring,
            )
            if image != symfunc.complete(i, ring):
                raise AssertionError(f"g_poly({i},{m}) substitution failed")
    for l in range(1, 5):
        for k in range(0, 9):
            if not symfunc.verify_h_split(k, l):
                raise AssertionError(f"h-split identity failed for k={k}, l={l}")
    for n in range(1, 5):
        for i in range(1, 9):
            if not symfunc.verify_h_peel(i, n):
                raise AssertionError(f"h-peel identity failed for i={i}, n={n}")
    return "generating function, g-substitution and both recurrences exact on the full range"


def _determinism_payload() -> str:
    reports = []
    for kind, params in (
        ("sgr2", dict(n=2, parity="odd")),
        ("sgr2", dict(n=3, parity="even")),
        ("max_flag", dict(N=5)),
        ("sgr_even", dict(m=1, n=2, parity="even")),
    ):
        pres = presentations.build(kind, **params)
        reports.append(_verify(pres, 16).to_dict())
    wit = [str(w) for w in weyl.witness_B(3)]
    dec = spanning.reduce(Polynomial.variable(weyl.e_ring(2), "e1") ** 6, "B", 2)
    dec_text = {weyl.e_ring(2).monomial_text(m): str(c) for m, c in sorted(dec.terms.items())}
    return json.dumps({"reports": reports, "witness": wit, "reduce": dec_text}, indent=2)


def _check_determinism() -> str:
    if _determinism_payload() != _determinism_payload():
        raise AssertionError("two in-process serializations differ")
    return "report serialization is byte-identical across repeated evaluation"


_CHECKS: tuple[tuple[str, object], ...] = (
    ("criterion-01-grassmannian-ranks", _check_grassmannian_ranks),
    ("criterion-02-coinvariant-dimensions", _check_coinvariant_dimensions),
    ("criterion-03-witnesses", _check_witnesses),
    ("criterion-04-spanning", _check_spanning),
    ("criterion-05-flag-ideal-equality", _check_flag_ideal_equality),
    ("criterion-06-sgr-even-collapse", _check_sgr_even_collapse),
    ("criterion-07-charclass", _check_charclass),
    ("criterion-08-specialization", _check_specialization),
    ("criterion-09-symfunc", _check_symfunc),
    ("criterion-10-determinism", _check_determinism),
)


def all_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_check(name: str) -> CheckResult:
    for check_name, fn in _CHECKS:
        if check_name == name:
            try:
                detail = fn()
                return CheckResult(check_name, True, detail)
            except AssertionError as exc:
                return CheckResult(check_name, False, str(exc))
            except BudgetExceededError as exc:
                return CheckResult(check_name, False, f"budget exhausted: {exc}", True)
    raise KeyError(f"unknown acceptance check {name!r}")


def run_all(name_filter: str | None = None) -> list[CheckResult]:
    results = []
    for name, _ in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        results.append(run_check(name))
    return results
