"""Presentation builders, their verification, and the coherence theorems."""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from slcc import presentations as pr
from slcc import groebner, spanning
from slcc.groebner import Ideal, ideal_equal
from slcc.polyring import Polynomial, RingSpec
from test_groebner import _assert_walk_matches_recursion


def test_sgr2_odd_example():
    p = pr.present_sgr2(2, "odd")
    assert p.generator_texts() == ["e1^4"]
    assert p.basis_texts() == ["1", "e1", "e1^2", "e1^3"]


def test_sgr2_even_examples():
    p = pr.present_sgr2(2, "even")
    assert p.generator_texts() == ["e1*e2", "e1^2 + e2^2"]
    assert p.basis_texts() == ["1", "e1", "e1^2", "e2"]
    assert sum(pr.verify_presentation(p, 8).hilbert) == 4
    p = pr.present_sgr2(3, "even")
    assert p.generator_texts() == ["e1*e2", "e1^4 - e2^2"]
    assert sum(pr.verify_presentation(p, 12).hilbert) == 6


def test_sgr2_rejects_small_n():
    with pytest.raises(ValueError):
        pr.present_sgr2(1, "odd")


def test_sgr2_relative_odd_examples():
    p = pr.present_sgr2_relative(1, "odd")
    assert p.generator_texts() == ["e1^2 + b1"]
    assert p.coefficient_vars == ("b1",)
    assert p.basis_texts() == ["1", "e1"]
    rep = pr.verify_presentation(p, 16)
    assert rep.passed


def test_sgr2_relative_even_example():
    p = pr.present_sgr2_relative(2, "even")
    assert p.generator_texts() == ["e1*e2 - e", "e1^2 + e2^2 + b1"]
    assert p.coefficient_vars == ("b1", "e")
    rep = pr.verify_presentation(p, 14)
    assert rep.passed


def test_sgr2_relative_even_rejects_rank_two_base():
    with pytest.raises(ValueError):
        pr.present_sgr2_relative(1, "even")


def test_sgr2_relative_epsilon_twist():
    printed = pr.present_sgr2_relative(1, "odd", epsilon=-1)
    twisted = pr.present_sgr2_relative(1, "odd", epsilon=1)
    assert printed.generator_texts() == ["e1^2 + b1"]
    assert twisted.generator_texts() == ["e1^2 - b1"]


def test_partial_flag_examples():
    p = pr.present_partial_flag(1, 2, "odd")
    assert p.generator_texts() == ["e1^4"]
    p = pr.present_partial_flag(2, 2, "odd")
    assert p.generator_texts() == ["e1^4", "e1^2 + e2^2"]
    assert sum(pr.verify_presentation(p, 12).hilbert) == 8
    p = pr.present_partial_flag(1, 2, "even")
    assert p.generator_texts() == ["e1*e1'", "e1^2 + e1'^2"]
    p = pr.present_partial_flag(1, 1, "odd")
    assert p.generator_texts() == ["e1^2"]


def test_partial_flag_alt_examples():
    p = pr.present_partial_flag_alt(2, 2, "odd")
    assert p.generator_texts() == ["e1^2 + e2^2", "e1^4 + e1^2*e2^2 + e2^4"]


@pytest.mark.parametrize(
    "m,n,parity",
    [(1, 2, "odd"), (1, 2, "even"), (2, 2, "odd"), (2, 3, "even"), (3, 3, "odd")],
)
def test_flag_ideal_equality(m, n, parity):
    a = pr.present_partial_flag(m, n, parity)
    b = pr.present_partial_flag_alt(m, n, parity)
    assert ideal_equal(a.ideal, b.ideal)


def test_flag_even_requires_room_for_the_quotient_bundle():
    with pytest.raises(ValueError):
        pr.present_partial_flag(2, 2, "even")


def test_max_flag_examples():
    p = pr.present_max_flag(4)
    assert set(p.generator_texts()) == {"e1^2 + e2^2", "e1*e2"}
    assert sum(pr.verify_presentation(p, 10).hilbert) == 4
    p = pr.present_max_flag(5)
    assert set(p.generator_texts()) == {"e1^2 + e2^2", "e1^2*e2^2"}
    assert sum(pr.verify_presentation(p, 12).hilbert) == 8


def test_max_flag_matches_sgr2_even():
    flag = pr.present_max_flag(4)
    sgr = pr.present_sgr2(2, "even")
    gens = [g.rename_into(sgr.ring) for g in flag.ideal.generators]
    assert ideal_equal(Ideal.make(sgr.ring, gens), sgr.ideal)


@pytest.mark.parametrize("N", [4, 5, 6, 7])
def test_max_flag_equals_terminal_partial_flag(N):
    n = N // 2
    flag = pr.present_max_flag(N)
    if N % 2 == 1:
        other = pr.present_partial_flag(n, n, "odd")
        renaming = {}
    else:
        other = pr.present_partial_flag(n - 1, n, "even")
        renaming = {f"e{n-1}'": f"e{n}"}
    gens = [g.rename_into(flag.ring, renaming) for g in other.ideal.generators]
    assert ideal_equal(Ideal.make(flag.ring, gens), flag.ideal)


def test_max_flag_basis_is_spanning_basis():
    for n in range(2, 6):
        B, D = spanning.basis("B", n).monomials, spanning.basis("D", n).monomials
        assert pr.present_max_flag(2 * n + 1).declared_basis == B
        assert pr.present_max_flag(2 * n).declared_basis == D
        # the partial flag with the largest m its parity allows is the full flag
        assert pr.present_partial_flag(n, n, "odd").declared_basis == B
        assert pr.present_partial_flag(n - 1, n, "even").declared_basis == D


def test_declared_basis_built_once_on_first_read(monkeypatch):
    built = []
    power_or_tail = spanning.power_or_tail

    def counted(*args, **kwargs):
        built.append(args)
        return power_or_tail(*args, **kwargs)

    monkeypatch.setattr(spanning, "power_or_tail", counted)
    p = pr.present_partial_flag(2, 3, "even")
    # building and comparing presentations reads no basis
    assert p == pr.present_partial_flag(2, 3, "even")
    assert built == []
    assert p.declared_basis is p.declared_basis
    assert len(built) == 1
    assert len(p.declared_basis) == pr.rank_table("partial_flag", m=2, N=6)


def test_sgr_even_odd_examples():
    p = pr.present_sgr_even(1, 2, "odd")
    assert p.generator_texts() == ["e^2 - b1", "b1^2"]
    assert len(p.declared_basis) == 4  # rank of SGr(2,5)
    p = pr.present_sgr_even(2, 2, "odd")
    assert p.generator_texts() == ["e^2 - b2", "b1", "b1^2 - b2"]
    assert len(p.declared_basis) == 2  # rank of SGr(4,5) = rank of SGr(1,5)


def test_sgr_even_even_example():
    p = pr.present_sgr_even(1, 2, "even")
    assert p.generator_texts() == ["e*e'", "e^2 - b1", "e'^2 + b1"]
    assert len(p.declared_basis) == 4
    rep = pr.verify_presentation(p, 10)
    assert rep.passed


def test_sgr_even_rank_matches_prediction():
    for m, n, parity in [(1, 3, "odd"), (2, 3, "odd"), (2, 3, "even"), (3, 4, "odd")]:
        p = pr.present_sgr_even(m, n, parity)
        N = 2 * n if parity == "even" else 2 * n + 1
        assert len(p.declared_basis) == pr.rank_table("sgr", k=2 * m, N=N)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_collapse_to_sgr2(n, parity):
    assert pr.sgr_even_collapses_to_sgr2(n, parity)


def test_collapse_under_twisted_convention():
    # with epsilon=-1 the collapse substitution is b_1 -> -e^2
    assert pr.sgr_even_collapses_to_sgr2(2, "odd", epsilon=-1)
    assert pr.sgr_even_collapses_to_sgr2(2, "even", epsilon=-1)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("parity", ["odd", "even"])
def test_specialization(n, parity):
    assert pr.relative_specializes_to_absolute(n, parity)


def test_bsl_examples():
    p = pr.present_bsl(2, 8)
    assert p.ring.vars == (("e", 2),)
    rep = pr.verify_presentation(p, 8)
    assert list(rep.hilbert) == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    p = pr.present_bsl(3, 8)
    assert p.ring.vars == (("b1", 4),)
    p = pr.present_bsl(4, 8)
    assert p.ring.vars == (("b1", 4), ("e", 4))
    rep = pr.verify_presentation(p, 8)
    assert list(rep.hilbert) == [1, 0, 0, 0, 2, 0, 0, 0, 3]
    assert rep.passed


def test_rank_table_examples():
    assert pr.rank_table("sgr", k=2, N=7) == 6
    assert pr.rank_table("sgr", k=1, N=5) == 2
    assert pr.rank_table("sgr", k=4, N=6) == 6
    assert pr.rank_table("max_flag", N=9) == 2**4 * 24
    assert pr.rank_table("partial_flag", m=2, N=5) == 8
    assert pr.rank_table("partial_flag", m=2, N=6) == 24


def test_rank_table_no_declared_basis():
    with pytest.raises(pr.NoDeclaredBasisError):
        pr.rank_table("sgr", k=3, N=6)
    with pytest.raises(pr.NoDeclaredBasisError):
        pr.rank_table("sgr", k=1, N=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pr.present_sgr2(2, "both"), "parity must be 'even' or 'odd', got 'both'"),
        (lambda: pr.present_sgr2_relative(2, "odd", epsilon=0), "epsilon must be +1 or -1"),
        (lambda: pr.present_sgr2_relative(0, "odd"), "odd case requires n >= 1"),
        (lambda: pr.present_sgr_even(1, 2, "odd", epsilon=2), "epsilon must be +1 or -1"),
        (lambda: pr.present_max_flag(1), "N must be >= 2"),
        (lambda: pr.rank_table("partial_flag", m=0, N=5), "need 1 <= m <= (N-1)/2"),
        (lambda: pr.rank_table("partial_flag", m=3, N=6), "need 1 <= m <= N/2 - 1"),
        (lambda: pr.rank_table("max_flag", N=1), "need N >= 2"),
        (lambda: pr.rank_table("flag", N=4), "unknown rank descriptor kind 'flag'"),
    ],
    ids=["parity", "sgr2_relative epsilon", "sgr2_relative n", "sgr_even epsilon", "max_flag N",
         "odd partial_flag m", "even partial_flag m", "max_flag rank N", "rank kind"],
)
def test_builders_and_rank_table_refuse(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_verify_budget_exhaustion_reported_distinctly(monkeypatch):
    # an empty basis cache, so Buchberger itself runs out of budget
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    monkeypatch.setenv("SLCC_BUDGET", "2")
    rep = pr.verify_presentation(pr.present_max_flag(7), 10)
    assert rep.budget_exceeded and not rep.passed
    assert [name for name, ok, _ in rep.checks if not ok] == ["groebner_budget"]


def test_verify_budget_exhaustion_in_normal_forms(monkeypatch):
    # with the basis already cached, the budget runs out in the normal forms;
    # with the variables reversed max_flag N=10 divides 231 outliers, the
    # costliest in 15 steps (odd N divides none, N=8 none in more than 2)
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    pres = pr.present_max_flag(10)
    assert pr.verify_presentation(pres, 10).passed
    monkeypatch.setenv("SLCC_BUDGET", "2")
    rep = pr.verify_presentation(pres, 10)
    assert rep.budget_exceeded and not rep.passed
    assert [name for name, ok, _ in rep.checks if not ok] == ["normal_form_budget"]


@pytest.mark.parametrize(
    "basis",
    [
        # e1^2 == -e2^2 in the quotient: both normal forms nonzero, dependent
        ((0, 0), (1, 0), (2, 0), (0, 2)),
        # a duplicated monomial keeps the Hilbert profile but not independence
        ((0, 0), (1, 0), (1, 0), (2, 0)),
    ],
)
def test_dependent_declared_basis_fails(basis):
    sgr = pr.present_sgr2(2, "even")
    pres = pr.Presentation(sgr.descriptor, sgr.ideal, basis_source=basis)
    rep = pr.verify_presentation(pres, 8)
    checks = {name: ok for name, ok, _ in rep.checks}
    assert checks["basis_independent_in_quotient"] is False
    assert not rep.passed and not rep.budget_exceeded


_R2 = RingSpec.make([("e1", 2), ("e2", 2)])
# mixed degrees 0, 2, 4 and 6, so some rows are not homogeneous
_MONOS = [(a, d - a) for d in range(4) for a in range(d + 1)]
_COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def _row_lists(draw):
    polys = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        p = Polynomial.zero(_R2)
        if kind == "combination":
            for q in polys:
                p = p + q * draw(_COEFFS)
        elif kind == "random":
            monos = draw(st.lists(st.sampled_from(_MONOS), min_size=1, max_size=5, unique=True))
            p = Polynomial(_R2, {m: draw(_COEFFS) for m in monos})
        polys.append(p)
    return polys


_R3 = RingSpec.make([("e1", 2), ("e2", 2), ("z", 2)])


def _echelon_independent(polys, carry):
    """The staircase echelon's verdict on rows in e1, e2.

    Member z^i lies in the ideal (z), so it is an outlier, and the division
    hands it the row polys[i-1]; its own column z^i is in no row.
    """
    G = groebner.groebner_basis(Ideal.make(_R3, [Polynomial.variable(_R3, "z")]))
    pack = _R3.packing.pack
    members = [pack((0, 0, i)) for i in range(1, len(polys) + 1)]
    rows = {
        m: {pack((a, b, 0)): c for (a, b), c in p.terms.items()} for m, p in zip(members, polys)
    }
    return groebner.staircase_echelon(G, members, rows.__getitem__, carry) is not None


@settings(max_examples=100, deadline=None)
@given(_row_lists())
def test_independence_matches_sympy_rank(polys):
    support = sorted({m for p in polys for m in p.terms})
    entries = [sympy.Rational(p.terms.get(m, 0)) for p in polys for m in support]
    matrix = sympy.Matrix(len(polys), len(support), entries)
    independent = matrix.rank() == len(polys)
    assert _echelon_independent(polys, carry=False) == independent
    assert _echelon_independent(polys, carry=True) == independent
    assert _reference_independent(polys) == independent


def _reference_independent(polys: list[Polynomial]) -> bool:
    """Whether the polynomials are linearly independent over Q (exact).

    The full-matrix echelon that verify_presentation ran on every declared
    monomial's normal form before it divided only the outliers.
    """
    pivots: dict = {}
    for p in polys:
        row = {m: Fraction(c) for m, c in p.terms.items()}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                pivots[lead] = {m: c * inv for m, c in row.items()}
                break
            factor = row[lead]
            for m, c in pivot.items():
                c = row.get(m, 0) - factor * c
                if c:
                    row[m] = c
                else:
                    del row[m]
        else:
            return False
    return True


def _normal_form(pres, m) -> Polynomial:
    G = groebner.groebner_basis(pres.ideal)
    return groebner.normal_form(Polynomial.monomial(pres.ring, m), G)


def _reversed_leads(pres):
    """The leading monomials of pres's ideal with the variables reversed, in pres's own variables.

    verify_presentation divides in that order.
    """
    return [lm[::-1] for lm in _tuple_leads(groebner.groebner_basis(pres.ideal.reversed()))]


def _tuple_leads(G):
    """The exponent tuples of G's leading monomials, in basis order."""
    return [g.leading_term()[0] for g in G.basis]


def _is_outlier(leads, m) -> bool:
    """Whether the monomial m lies in the ideal of the leading monomials ``leads``."""
    return any(all(a <= b for a, b in zip(lm, m)) for lm in leads)


@pytest.mark.parametrize(
    "kind,params,outliers,size",
    [
        ("partial_flag", dict(m=3, n=5, parity="odd"), 0, 480),
        ("max_flag", dict(N=9), 0, 384),
        ("partial_flag", dict(m=3, n=5, parity="even"), 22, 480),
        # the ladder's work: 21124 outliers in the canonical order at N=12
        ("max_flag", dict(N=12), 3516, 23040),
        ("max_flag", dict(N=13), 0, 46080),
        # standard monomials of the canonical basis, so some are outliers here
        ("sgr_even", dict(m=3, n=5, parity="even"), 12, 20),
    ],
)
def test_verify_divides_only_the_outliers(kind, params, outliers, size, monkeypatch):
    divided = []
    normal_form = pr.normal_form

    def counted(p, G):
        divided.append(p)
        return normal_form(p, G)

    monkeypatch.setattr(pr, "normal_form", counted)
    pres = pr.build(kind, **params)
    assert pr.verify_presentation(pres, 24).passed
    assert len(pres.declared_basis) == size
    leads = _reversed_leads(pres)
    assert sum(_is_outlier(leads, m) for m in pres.declared_basis) == outliers
    assert len(divided) == len(set(divided)) == outliers


def _first(pres, outlier: bool) -> int | None:
    """Index of the first declared monomial that is (or is not) an outlier, variables reversed."""
    leads = _reversed_leads(pres)
    flags = (_is_outlier(leads, m) for m in pres.declared_basis)
    return next((i for i, flag in enumerate(flags) if flag == outlier), None)


def _monomials(pres):
    """Every monomial of pres's ring, by increasing exponent sum."""
    nvars = len(pres.ring)
    for d in itertools.count(1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            yield tuple(map(combo.count, range(nvars)))


def _outlier_index(basis, pres) -> int:
    """Index of the first outlier in basis, with the variables reversed.

    Where that order puts every declared monomial on the staircase (sgr2,
    odd flags), the last one is swapped for the first outlier that
    is not in the ideal, so the plant is still divided.
    """
    i = _first(pres, outlier=True)
    if i is None:
        leads = _reversed_leads(pres)
        i = len(basis) - 1
        basis[i] = next(
            m for m in _monomials(pres) if _is_outlier(leads, m) and _normal_form(pres, m)
        )
    return i


def _repeat_standard(basis, pres):
    basis[-1] = basis[_first(pres, outlier=False)]


def _repeat_outlier(basis, pres):
    i = _outlier_index(basis, pres)
    basis[i - 1 if i else i + 1] = basis[i]


def _swap_into_ideal(basis, pres):
    # the quotient has finite rank, so some monomial lies in the ideal
    m = next(m for m in _monomials(pres) if _normal_form(pres, m).is_zero())
    basis[_outlier_index(basis, pres)] = m


@pytest.mark.parametrize("swap", [_repeat_standard, _repeat_outlier, _swap_into_ideal])
@pytest.mark.parametrize(
    "kind,params",
    [
        ("sgr2", dict(n=2, parity="even")),
        ("partial_flag", dict(m=2, n=3, parity="odd")),
        ("partial_flag_alt", dict(m=2, n=4, parity="even")),
        ("max_flag", dict(N=8)),
    ],
)
def test_planted_dependent_basis_fails(kind, params, swap):
    pres = pr.build(kind, **params)
    basis = list(pres.declared_basis)
    swap(basis, pres)
    planted = pr.Presentation(pres.descriptor, pres.ideal, basis_source=tuple(basis))
    rep = pr.verify_presentation(planted, 24)
    checks = {name: ok for name, ok, _ in rep.checks}
    assert checks["basis_independent_in_quotient"] is False
    assert not rep.passed and not rep.budget_exceeded
    assert not _reference_independent([_normal_form(pres, m) for m in planted.declared_basis])


def test_report_schema_key_order():
    rep = pr.verify_presentation(pr.present_sgr2(2, "odd"), 8)
    assert list(rep.to_dict().keys()) == [
        "descriptor",
        "ring",
        "generators",
        "basis",
        "hilbert",
        "checks",
    ]


def test_convention_report():
    entries = pr.convention_report(2)
    by_family = {}
    for e in entries:
        by_family.setdefault(e["family"], []).append(e)
    # the J-ideals are literal under +1 (both conventions agree for even m)
    for e in by_family["sgr_even"]:
        assert 1 in e["literal_under"]
    # the relative R-ideals are literal only under the honest convention
    for e in by_family["sgr2_relative"]:
        assert e["literal_under"] == [-1]


def test_sgr_even_images_literal_in_flag_under_plus_one():
    assert pr.sgr_even_holds_in_flag(1, 2, "odd", epsilon=1)
    assert not pr.sgr_even_holds_in_flag(1, 2, "odd", epsilon=-1)
    assert pr.sgr_even_holds_in_flag(2, 3, "even", epsilon=1)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("sgr2", dict(n=2, parity="odd")),
        ("sgr2_relative", dict(n=2, parity="even")),
        ("partial_flag", dict(m=2, n=3, parity="even")),
        ("partial_flag_alt", dict(m=2, n=3, parity="odd")),
        ("max_flag", dict(N=6)),
        ("sgr_even", dict(m=1, n=2, parity="even")),
        ("bsl", dict(N=5, max_degree=8)),
    ],
)
def test_presentation_hashes_by_descriptor_and_ideal(kind, params):
    a, b = pr.build(kind, **params), pr.build(kind, **params)
    assert a == b and hash(a) == hash(b)


def test_build_dispatch():
    p = pr.build("sgr2", n=2, parity="odd")
    assert p.generator_texts() == ["e1^4"]
    with pytest.raises(ValueError):
        pr.build("nope")


def _presentable_matrix():
    """Every presentable descriptor with m <= 3, n <= 4."""
    cases = []
    for n in range(2, 5):
        for parity in ("odd", "even"):
            cases.append(("sgr2", dict(n=n, parity=parity)))
            cases.append(("sgr2_relative", dict(n=n, parity=parity)))
    cases.append(("sgr2_relative", dict(n=1, parity="odd")))
    for m in (1, 2, 3):
        for n in range(m, 5):
            for parity in ("odd", "even"):
                if parity == "even" and n < m + 1:
                    continue
                cases.append(("partial_flag", dict(m=m, n=n, parity=parity)))
                cases.append(("partial_flag_alt", dict(m=m, n=n, parity=parity)))
                cases.append(("sgr_even", dict(m=m, n=n, parity=parity)))
    for N in range(2, 10):
        cases.append(("max_flag", dict(N=N)))
        cases.append(("bsl", dict(N=N, max_degree=24)))
    # n = 5: W(D_5) and W(B_5) coinvariants, 1920 and 3840 normal forms
    cases.append(("max_flag", dict(N=10)))
    cases.append(("max_flag", dict(N=11)))
    return cases


@pytest.mark.parametrize("kind,params", _presentable_matrix())
def test_every_presentable_descriptor_verifies_at_24(kind, params):
    rep = pr.verify_presentation(pr.build(kind, **params), 24)
    assert rep.passed, (kind, params, rep.checks)


def test_verify_shares_the_spanning_basis(monkeypatch):
    # the reversed max_flag ideal is spanning's reversed coinvariant ideal:
    # one cache entry serves both, tracked once spanning has divided by it
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    pres = pr.present_max_flag(8)
    assert pr.verify_presentation(pres, 24).passed
    # e3^3 is standard but not a basis monomial: it needs a change of basis
    p = Polynomial.monomial(pres.ring, (0, 0, 3, 0))
    assert spanning.expand(spanning.reduce(p, "D", 4)) == p
    (key, G), = groebner._GB_CACHE.items()
    assert key == groebner._cache_key(pres.ideal.reversed())
    assert G.representations is not None


def _tuple_outliers(G, members):
    """The members some lead of G divides, by the exponent-tuple test, in order."""
    leads = _tuple_leads(G)
    return [m for m in members if _is_outlier(leads, m)]


@pytest.mark.parametrize("kind,params", _presentable_matrix())
def test_staircase_verdict_matches_full_echelon(kind, params):
    # each order's echelon divides exactly the members the tuple test puts
    # off the staircase, in member order
    pres = pr.build(kind, **params)
    G = groebner.groebner_basis(pres.ideal)
    pack = G.ring.packing.pack
    nfs = {pack(m): _normal_form(pres, m) for m in pres.declared_basis}
    reference = _reference_independent(list(nfs.values()))
    members = [pack(m) for m in pres.declared_basis]
    divided = []
    verdict = groebner.staircase_echelon(G, members, lambda m: divided.append(m) or nfs[m]._terms)
    assert (verdict is not None) == reference
    assert divided == list(map(pack, _tuple_outliers(G, pres.declared_basis)))
    # the reversed order, which verify_presentation runs in, against the
    # canonical full-normal-form echelon and Hilbert function
    R = groebner.groebner_basis(pres.ideal.reversed())
    reversed_basis = [m[::-1] for m in pres.declared_basis]
    divided = []

    def normal_form(m):
        divided.append(m)
        return groebner.normal_form(Polynomial._trusted(R.ring, {m: 1}), R)._terms

    verdict = groebner.staircase_echelon(R, list(map(R.ring.packing.pack, reversed_basis)), normal_form)
    assert (verdict is not None) == reference
    assert divided == list(map(R.ring.packing.pack, _tuple_outliers(R, reversed_basis)))
    assert groebner.quotient_hilbert(R, 24) == groebner.quotient_hilbert(G, 24)


@pytest.mark.parametrize("kind,params", _presentable_matrix())
def test_staircase_walk_matches_recursion_on_presentations(kind, params):
    # in both orders, at the sum of the generators' degrees: the bound
    # sgr_even's builder enumerates at, past which a complete intersection's
    # quotient vanishes
    pres = pr.build(kind, **params)
    bound = sum(g.homogeneous_degree() for g in pres.ideal.generators)
    for ideal in (pres.ideal, pres.ideal.reversed()):
        G = groebner.groebner_basis(ideal)
        _assert_walk_matches_recursion(G.ring, _tuple_leads(G), bound)


# verify_presentation's reports over _presentable_matrix at two bounds and
# four larger cases, each from an empty Groebner cache: to_dict(), the
# check tuples with their details and budget_exceeded, one JSON line each
_REPORT_DUMP_LINES = 156
_REPORT_DUMP_SHA256 = "c0ab744957ba6d6f82571b1a40a110e6a42978db96658e4d1b1d24e132dc07ab"


def test_report_dump_is_pinned(monkeypatch):
    cases = [(kind, params, bound) for bound in (24, 10) for kind, params in _presentable_matrix()]
    cases += [
        ("sgr_even", dict(m=4, n=7, parity="even"), 40),
        ("sgr_even", dict(m=3, n=7, parity="odd"), 40),
        ("sgr_even", dict(m=4, n=6, parity="odd"), 40),
        ("bsl", dict(N=9, max_degree=40), 40),
    ]
    cache = {}
    monkeypatch.setattr(groebner, "_GB_CACHE", cache)
    lines = []
    for kind, params, bound in cases:
        cache.clear()
        rep = pr.verify_presentation(pr.build(kind, **params), bound)
        entry = {"report": rep.to_dict(), "checks": rep.checks, "budget": rep.budget_exceeded}
        lines.append(json.dumps(entry) + "\n")
    dump = "".join(lines)
    assert len(lines) == _REPORT_DUMP_LINES
    assert hashlib.sha256(dump.encode()).hexdigest() == _REPORT_DUMP_SHA256
