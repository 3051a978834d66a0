"""Groebner engine: reduced bases, normal forms, membership, Hilbert data."""

import hashlib
import itertools
import random
import runpy
import sys
from collections import Counter
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from slcc.groebner import (
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
from slcc.polyring import (
    ExponentOverflowError,
    Polynomial,
    RingMismatchError,
    RingSpec,
    packing,
    parse_poly,
)
from slcc import groebner, weyl

R1 = RingSpec.make([("e1", 2)])
R2 = RingSpec.make([("e1", 2), ("e2", 2)])


def ideal2():
    return Ideal.make(R2, [parse_poly("e1*e2", R2), parse_poly("e1^2+e2^2", R2)])


def test_principal_ideal_basis():
    G = groebner_basis(Ideal.make(R1, [parse_poly("e1^4", R1)]))
    assert [str(g) for g in G.basis] == ["e1^4"]


def test_two_generator_basis_matches_hand_computation():
    G = groebner_basis(ideal2())
    assert [str(g) for g in G.basis] == ["e1*e2", "e1^2 + e2^2", "e2^3"]


def test_empty_ideal():
    G = groebner_basis(Ideal.make(R2, []))
    assert G.basis == ()
    p = parse_poly("e1^2 - 3*e2^2", R2)
    assert normal_form(p, G) == p
    assert quotient_hilbert(G, 4) == [1, 0, 2, 0, 3]


def test_normal_forms():
    G = groebner_basis(ideal2())
    assert normal_form(parse_poly("e1^4", R2), groebner_basis(Ideal.make(R2, [parse_poly("e1^4", R2)]))).is_zero()
    assert normal_form(parse_poly("e1^3", R2), G).is_zero()
    assert normal_form(parse_poly("e1^2", R2), G) == parse_poly("-e2^2", R2)


def test_member_with_cofactors_examples():
    # e1^2 = 1 * s1 in rank one
    I = weyl.coinvariant_ideal("B", 1)
    cof = member_with_cofactors(parse_poly("e1^2", weyl.e_ring(1)), I)
    assert [str(c) for c in cof] == ["1"]
    # e1^4 in the rank-two invariant ideal, verified by expansion
    I2 = weyl.coinvariant_ideal("B", 2)
    ring = weyl.e_ring(2)
    cof = member_with_cofactors(parse_poly("e1^4", ring), I2)
    total = Polynomial.zero(ring)
    for c, g in zip(cof, I2.generators):
        total = total + c * g
    assert total == parse_poly("e1^4", ring)
    # e1 is not a member (degree argument)
    assert member_with_cofactors(parse_poly("e1", ring), I2) is None


def test_ideal_equal():
    I = ideal2()
    assert ideal_equal(I, I)
    assert not ideal_equal(
        Ideal.make(R1, [parse_poly("e1", R1)]), Ideal.make(R1, [parse_poly("e1^2", R1)])
    )
    # I_{2,5} via graded pieces vs via pure h-polynomials: both are (e1^4)
    assert ideal_equal(
        Ideal.make(R1, [parse_poly("e1^4", R1)]),
        Ideal.make(R1, [parse_poly("e1^4", R1)]),
    )


def test_rings_must_match():
    G = groebner_basis(ideal2())
    with pytest.raises(RingMismatchError, match="^polynomial and basis live in different rings$"):
        normal_form(parse_poly("e1", R1), G)
    with pytest.raises(RingMismatchError, match="^ideals live in different rings$"):
        ideal_equal(ideal2(), Ideal.make(R1, [parse_poly("e1", R1)]))


def test_quotient_hilbert_examples():
    G = groebner_basis(Ideal.make(R1, [parse_poly("e1^4", R1)]))
    assert quotient_hilbert(G, 6) == [1, 0, 1, 0, 1, 0, 1]
    G2 = groebner_basis(ideal2())
    assert quotient_hilbert(G2, 4) == [1, 0, 2, 0, 1]
    assert sum(quotient_hilbert(G2, 10)) == 4


def test_standard_monomials_examples():
    G = groebner_basis(Ideal.make(R1, [parse_poly("e1^4", R1)]))
    assert [R1.monomial_text(m) for m in standard_monomials(G, 8)] == ["1", "e1", "e1^2", "e1^3"]
    G2 = groebner_basis(ideal2())
    assert [R2.monomial_text(m) for m in standard_monomials(G2, 10)] == ["1", "e2", "e1", "e2^2"]


def test_coinvariant_dimension_cross_check():
    # dim of the coinvariant algebra == spanning basis cardinality == group order:
    # the witness lemma and the spanning proposition certify each other
    from slcc import spanning

    for n in (1, 2, 3, 4):
        for group in ("B", "D"):
            G = groebner_basis(weyl.coinvariant_ideal(group, n))
            total = sum(quotient_hilbert(G, 2 * n * n + 2))
            assert total == len(spanning.basis(group, n)) == weyl.group_order(group, n)


def test_buchberger_criterion_on_emitted_basis():
    ring = RingSpec.make([("x", 1), ("y", 1), ("z", 2)])
    gens = [
        parse_poly("x^2 + y^2", ring),
        parse_poly("x*y - z", ring),
        parse_poly("y^4 + z^2", ring),
    ]
    G = groebner_basis(Ideal.make(ring, gens))
    # every S-polynomial reduces to zero
    for i in range(len(G.basis)):
        for j in range(i + 1, len(G.basis)):
            fi, fj = G.basis[i], G.basis[j]
            mi, ci = fi.leading_term()
            mj, cj = fj.leading_term()
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            s = Polynomial.monomial(ring, tuple(a - b for a, b in zip(lcm, mi)), 1) * fi - (
                Polynomial.monomial(ring, tuple(a - b for a, b in zip(lcm, mj)), 1) * fj
            )
            assert normal_form(s, G).is_zero()
    _assert_reduced(G)


def _assert_reduced(G):
    """Monic, no leading term divides another, and tails fully reduced."""
    leads = [g.leading_term()[0] for g in G.basis]
    for i, (g, lt) in enumerate(zip(G.basis, leads)):
        assert g.leading_term()[1] == 1
        for j, other in enumerate(leads):
            if i != j:
                assert not all(a <= b for a, b in zip(lt, other))
        for m in g.terms:
            if m != lt:
                assert not any(all(a <= b for a, b in zip(d, m)) for d in leads)


def _assert_representations_reconstruct(G):
    """basis_i == sum_j unpack(rep_ij) * gen_j for every row of a tracked basis.

    Every integral coefficient of a representation is an int, as in a Polynomial.
    """
    ring, gens = G.ring, G.ideal.generators
    unpack_terms = packing(ring.degrees).unpack_terms
    assert len(G.representations) == len(G.basis)
    for g, rep in zip(G.basis, G.representations):
        assert len(rep) == len(gens)
        assert all(type(c) is int or c.denominator != 1 for r in rep for c in r.values())
        total = Polynomial.zero(ring)
        for c, gen in zip(rep, gens):
            total = total + Polynomial(ring, unpack_terms(c)) * gen
        assert total == g


def test_representations_reconstruct_basis():
    I = ideal2()
    assert groebner_basis(I).representations is None
    G = groebner._buchberger(I, track=True)
    assert G.basis == groebner_basis(I).basis
    _assert_representations_reconstruct(G)


@pytest.mark.parametrize("group", ["B", "D"])
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("reversed_", [False, True])
def test_representations_reconstruct_coinvariant_bases(group, n, reversed_):
    I = weyl.coinvariant_ideal(group, n)
    I = I.reversed() if reversed_ else I
    G = groebner._buchberger(I, track=True)
    assert G.basis == groebner_basis(I).basis
    _assert_representations_reconstruct(G)


def test_cofactors_independent_of_cache_order(monkeypatch):
    I = ideal2()
    p = parse_poly("e1^4", R2)
    coinvariant = weyl.coinvariant_ideal("B", 3)

    def outputs():
        cofactors = [str(c) for c in member_with_cofactors(p, I)]
        return cofactors, [str(w) for w in weyl.witness_B(3)]

    runs = []
    buchberger = groebner._buchberger

    def counted(ideal, track):
        runs.append(track)
        return buchberger(ideal, track)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    groebner._GB_CACHE.clear()
    cold = outputs()
    # a cold witness runs Buchberger once, with representations
    assert runs == [True, True]
    # warm the cache with bases built without representations first: each
    # ideal then gets exactly one tracked run, which replaces its entry
    runs.clear()
    groebner._GB_CACHE.clear()
    groebner_basis(I)
    groebner_basis(coinvariant)
    cofactors = [str(c) for c in member_with_cofactors(p, I)]
    assert (cofactors, [str(w) for w in weyl.witness_B(3)]) == cold
    assert runs == [False, False, True, True]
    assert len(groebner._GB_CACHE) == 2
    for ideal in (I, coinvariant):
        assert groebner._GB_CACHE[groebner._cache_key(ideal)].representations is not None


def test_normal_form_idempotent_random():
    rng = random.Random(3)
    G = groebner_basis(ideal2())
    for _ in range(25):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-6, 6) for _ in range(4)
        }
        p = Polynomial(R2, terms)
        r = normal_form(p, G)
        assert normal_form(p - r, G).is_zero()
        assert normal_form(r, G) == r


def test_membership_agrees_with_normal_form():
    rng = random.Random(11)
    I = weyl.coinvariant_ideal("D", 2)
    G = groebner_basis(I)
    ring = weyl.e_ring(2)
    for _ in range(30):
        d = rng.randint(1, 6)
        terms = {}
        for _ in range(3):
            a = rng.randint(0, d)
            terms[(a, d - a)] = rng.randint(-5, 5)
        p = Polynomial(ring, terms)  # homogeneous of degree 2d
        in_by_nf = normal_form(p, G).is_zero()
        in_by_cof = member_with_cofactors(p, I) is not None
        assert in_by_nf == in_by_cof


def test_budget_exhaustion_is_distinct(monkeypatch):
    monkeypatch.setenv("SLCC_BUDGET", "3")
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    ring = RingSpec.make([("x", 1), ("y", 1), ("z", 1)])
    gens = [
        parse_poly("x^3 + y^3 + z^3", ring),
        parse_poly("x*y*z - y^3", ring),
        parse_poly("x^2*y - z^3", ring),
    ]
    with pytest.raises(BudgetExceededError):
        groebner_basis(Ideal.make(ring, gens))


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        Ideal.make(R2, [parse_poly("e1 + e1^2", R2)])
    with pytest.raises(ValueError):
        Ideal.make(R2, [Polynomial.zero(R2)])


def _quotient_dimension_brute(ideal, degree):
    """dim of (ring/ideal) in one degree by exact linear algebra, no Groebner."""
    from fractions import Fraction
    from itertools import product as iproduct

    ring = ideal.ring
    degs = ring.degrees
    monos = [
        expo
        for expo in iproduct(*(range(degree // d + 1) for d in degs))
        if ring.monomial_degree(expo) == degree
    ]
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.generators:
        gdeg = g.homogeneous_degree()
        if gdeg > degree:
            continue
        for expo in iproduct(*(range((degree - gdeg) // d + 1) for d in degs)):
            if ring.monomial_degree(expo) != degree - gdeg:
                continue
            shifted = Polynomial.monomial(ring, expo) * g
            row = [Fraction(0)] * len(monos)
            for m, c in shifted.terms.items():
                row[index[m]] = Fraction(c)
            rows.append(row)
    # rank by Gaussian elimination
    rank = 0
    for col in range(len(monos)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return len(monos) - rank


def test_quotient_hilbert_against_linear_algebra():
    # an oracle with no Groebner theory in it: dimension of each graded slice
    # equals monomial count minus the rank of the ideal's slice
    cases = [
        ideal2(),
        weyl.coinvariant_ideal("B", 2),
        weyl.coinvariant_ideal("D", 3),
    ]
    for ideal in cases:
        h = quotient_hilbert(groebner_basis(ideal), 12)
        for d in range(0, 13, 2):
            assert h[d] == _quotient_dimension_brute(ideal, d), (ideal.generators, d)


def test_primitive_integer_rescaling():
    from fractions import Fraction

    p = Polynomial(R2, {(2, 0): Fraction(2, 3), (0, 2): Fraction(4, 3)})
    assert str(primitive_integer(p)) == "e1^2 + 2*e2^2"
    q = Polynomial(R2, {(1, 0): -2, (0, 1): -4})
    assert str(primitive_integer(q)) == "e1 + 2*e2"


def _tuple_divides(a, b):
    """Whether the exponent tuple a divides b."""
    return all(x <= y for x, y in zip(a, b))


def _tuple_lcm(a, b):
    """The lcm of two exponent tuples."""
    return tuple(map(max, a, b))


def _tuple_lead(poly):
    """The exponent tuple of poly's leading monomial, None for zero."""
    return poly.leading_term()[0] if poly else None


def _reference_divide(engine, p, divisors):
    """The division loop the engine used before the heap, kept as an oracle.

    Every step finds the leading term of the whole working polynomial and
    rebuilds ``work - q * d`` through Polynomial arithmetic.
    """
    ring = engine.ring
    quotients = [Polynomial.zero(ring) for _ in divisors]
    remainder = Polynomial.zero(ring)
    leads = [_tuple_lead(d.poly) for d in divisors]
    work = p
    while work:
        expo, coeff = work.leading_term()
        for j, (d, lm) in enumerate(zip(divisors, leads)):
            if lm is not None and _tuple_divides(lm, expo):
                engine.spend()
                q = Polynomial.monomial(ring, tuple(x - y for x, y in zip(expo, lm)), coeff)
                quotients[j] = quotients[j] + q
                work = work - q * d.poly
                break
        else:
            mono = Polynomial.monomial(ring, expo, coeff)
            remainder = remainder + mono
            work = work - mono
    return quotients, remainder


def _heap_divide(engine, p, divisors):
    quotients, remainder = engine.divide(p._terms, groebner._reducers(divisors))
    unpack_terms = engine.packing.unpack_terms
    return [
        Polynomial(engine.ring, unpack_terms(quotients.get(j, {}))) for j in range(len(divisors))
    ], Polynomial._trusted(engine.ring, remainder)


# weighted rings: unequal variable degrees, so degree and exponent order differ
_WEIGHTED_RINGS = [
    RingSpec.make([("x", 1), ("y", 2)]),
    RingSpec.make([("x", 2), ("y", 1), ("z", 3)]),
    RingSpec.make([("a", 3), ("b", 1), ("c", 2), ("d", 1)]),
]
_NONZERO_COEFFS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
).filter(bool)


_ONE_VARIABLE = RingSpec.make([("x", 3)])


@st.composite
def _division_cases(draw):
    """A dividend (possibly zero) and a list of monic divisors whose leading
    monomials often coincide or divide one another.

    In some cases one variable carries an exponent near 2^31 throughout:
    exactly ``big`` in every divisor term, and ``big`` - 1 to ``big`` + 3 in
    the dividend, so the division takes as many steps as with small
    exponents.  Some dividends get planted near misses: a lead with its
    lowest or highest variable's exponent one short.
    """
    ring = draw(st.sampled_from([*_WEIGHTED_RINGS, _ONE_VARIABLE]))
    n = len(ring)
    small = st.tuples(*[st.integers(0, 3)] * n)
    lifted = draw(st.sampled_from([None, *range(n)]))
    big = draw(st.integers(2**31 - 8, 2**31 - 4))

    def lift(m, shift=0):
        if lifted is None:
            return m
        return m[:lifted] + (big + shift,) + m[lifted + 1 :]

    divisors, leads = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fresh", "same", "multiple", "zero"])) if leads else "fresh"
        if kind == "zero":
            divisors.append(Polynomial.zero(ring))
            continue
        lead = lift(draw(st.tuples(*[st.integers(0, 2)] * n)))
        if kind == "same":
            lead = draw(st.sampled_from(leads))
        elif kind == "multiple":
            lead = lift(tuple(x + y for x, y in zip(draw(st.sampled_from(leads)), lead)))
        leads.append(lead)
        tail = draw(st.dictionaries(small.map(lift), _NONZERO_COEFFS, max_size=4))
        key = ring.sort_key
        terms = {m: c for m, c in tail.items() if key(m) < key(lead)}
        terms[lead] = 1
        divisors.append(Polynomial(ring, terms))
    shifted = st.builds(lambda m, e: lift(m, e - 1), small, st.integers(0, 3))
    p = Polynomial(ring, draw(st.dictionaries(shifted, _NONZERO_COEFFS, max_size=6)))
    if draw(st.booleans()):
        # plus a combination of the divisors, so that most terms reduce
        for d in divisors:
            p = p + Polynomial.monomial(ring, draw(small), draw(_NONZERO_COEFFS)) * d
    for lead in leads:
        # near misses: x^b with b_i = lead_i - 1 at the lowest or highest
        # variable i, and any larger exponent elsewhere
        for i in {0, n - 1}:
            if lead[i] and draw(st.booleans()):
                b = [x + y for x, y in zip(lead, draw(small))]
                if lifted is not None and lifted != i:
                    b[lifted] = lead[lifted]
                b[i] = lead[i] - 1
                p = p + Polynomial.monomial(ring, tuple(b), draw(_NONZERO_COEFFS))
    return ring, p, divisors


def _division_example(ring, p, *divisors):
    return (ring, Polynomial(ring, p), [Polynomial(ring, d) for d in divisors]), None


@settings(max_examples=200, deadline=None)
@given(_division_cases(), st.data())
# x's sum cancels to 0 at the step on x^4 and comes back at the step on x^3,
# before it is popped
@example(*_division_example(_ONE_VARIABLE, {(4,): 1, (3,): 1, (1,): 1}, {(3,): 1, (1,): 1, (0,): 1}))
# x's sum cancels to 0 and stays 0 until it is popped
@example(*_division_example(_ONE_VARIABLE, {(4,): 1, (1,): 1}, {(3,): 1, (1,): 1, (0,): 1}))
# two monomials cancel and come back, through both divisors
@example(
    *_division_example(
        _WEIGHTED_RINGS[1],
        {(3, 0, 0): -1, (0, 1, 2): 1, (2, 2, 3): 1},
        {(1, 0, 1): -1, (0, 0, 2): 1, (1, 2, 0): -1},
        {(2, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): -1},
    )
)
def test_heap_division_matches_reference(case, data):
    ring, p, divisors = case
    tracked = [groebner._Tracked(d, []) for d in divisors]
    results, steps = [], []
    for divide in (_heap_divide, _reference_divide):
        engine = groebner._Engine(ring)
        results.append(divide(engine, p, tracked))
        steps.append(engine.steps)
    (quotients, remainder), (ref_quotients, ref_remainder) = results
    assert [str(q) for q in quotients] == [str(q) for q in ref_quotients]
    assert str(remainder) == str(ref_remainder)
    assert steps[0] == steps[1]
    total = remainder
    for q, d in zip(quotients, divisors):
        total = total + q * d
    assert total == p
    # a budget short of the step count runs out at the same step in both;
    # an explicit example (data None) tries every budget
    if data is None:
        budgets = range(steps[0] + 1)
    else:
        budgets = [data.draw(st.integers(0, steps[0]), label="budget")]
    for budget in budgets:
        raised_at = []
        for divide in (_heap_divide, _reference_divide):
            engine = groebner._Engine(ring)
            engine.budget = budget
            try:
                divide(engine, p, tracked)
                raised_at.append(None)
            except BudgetExceededError:
                raised_at.append(engine.steps)
        assert raised_at[0] == raised_at[1] == (None if budget == steps[0] else budget + 1)


@settings(max_examples=100, deadline=None)
@given(_division_cases())
def test_heap_pops_in_descending_order(case):
    # the remainder dict is filled in pop order, and Polynomial keeps it
    ring, p, divisors = case
    descending = sorted(p.terms, key=ring.sort_key, reverse=True)
    _, terms = groebner._Engine(ring).divide(p._terms, [])
    remainder = Polynomial._trusted(ring, terms)
    assert remainder == p and list(remainder.terms) == descending
    tracked = [groebner._Tracked(d, []) for d in divisors]
    _, terms = groebner._Engine(ring).divide(p._terms, groebner._reducers(tracked))
    remainder = Polynomial._trusted(ring, terms)
    assert list(remainder.terms) == sorted(remainder.terms, key=ring.sort_key, reverse=True)


def test_division_refuses_exponents_at_the_guard_bit():
    # a packed field holds exponents below 2^63; past that the guard test
    # can answer wrongly, so the division raises instead
    ring = RingSpec.make([("x", 1), ("y", 1), ("z", 2**63)])
    engine = groebner._Engine(ring)
    pack = ring.packing.pack
    divisors = [
        groebner._Tracked(Polynomial._trusted(ring, {pack(m): c for m, c in terms.items()}), [])
        for terms in ({(0, 0, 1): 1, (2**62 + 2, 1, 0): 1}, {(0, 1, 0): 1}, {(10, 1, 0): 1})
    ]
    # y divides x^(2^63+5)*y, but an unguarded test would miss it and
    # reduce by x^10*y instead; so would it after z + x^(2^62+2)*y turns
    # x^(2^62+3)*z into x^(2^63+5)*y
    for dividend in ((2**63 + 5, 1, 0), (2**62 + 3, 0, 1)):
        with pytest.raises(ExponentOverflowError, match=f"exponent {2**63 + 5} exceeds"):
            engine.divide({pack(dividend): 1}, groebner._reducers(divisors))


def _mutual_reduction(I, J):
    """The reference for ideal_equal: each generator set reduces to zero mod the other's basis."""
    GI, GJ = groebner_basis(I), groebner_basis(J)
    return all(normal_form(g, GJ).is_zero() for g in I.generators) and all(
        normal_form(g, GI).is_zero() for g in J.generators
    )


def _monomials_of_degree(ring, degree):
    return [
        m
        for m in itertools.product(*(range(degree // d + 1) for d in ring.degrees))
        if ring.monomial_degree(m) == degree
    ]


@st.composite
def _homogeneous(draw, ring, degree):
    monos = _monomials_of_degree(ring, degree)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    return Polynomial(ring, {m: draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for m in chosen})


@st.composite
def _ideal_pairs(draw):
    """Two generator sets for one ideal (permuted, or recombined by homogeneous
    multiples of one another) or, with an extra generator, for two ideals
    that usually differ.

    A recombination replaces one generator at a time by a unit multiple of
    itself plus multiples of the current others, so each step can be undone
    and the ideal is kept. Rewriting all generators at once from the old set
    is not invertible: -3d, -3b - 3d can both become 6b + 12d, losing d."""
    ring = draw(st.sampled_from(_WEIGHTED_RINGS))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        gens.append(draw(_homogeneous(ring, draw(st.integers(1, 3)))))
    kind = draw(st.sampled_from(["permuted", "recombined", "extra"]))
    other = list(gens)
    if kind == "recombined":
        for i in range(len(other)):
            g = other[i]
            new = g * draw(st.sampled_from([-2, -1, 1, 2]))
            for h in other[:i] + other[i + 1 :]:
                gap = g.homogeneous_degree() - h.homogeneous_degree()
                if gap >= 0 and draw(st.booleans()):
                    new = new + draw(_homogeneous(ring, gap)) * h
            other[i] = new if new else g
    elif kind == "extra":
        other.append(draw(_homogeneous(ring, draw(st.integers(1, 3)))))
    other = draw(st.permutations(other))
    return kind, Ideal.make(ring, gens), Ideal.make(ring, other)


@settings(max_examples=150, deadline=None)
@given(_ideal_pairs())
def test_ideal_equal_matches_mutual_reduction(case):
    kind, I, J = case
    assert ideal_equal(I, J) == ideal_equal(J, I) == _mutual_reduction(I, J)
    _assert_reduced(groebner_basis(I))
    _assert_reduced(groebner_basis(J))
    if kind != "extra":
        assert ideal_equal(I, J)


@st.composite
def _truncation_cases(draw):
    """An ideal in a weighted ring, and for every degree bound D up to the
    top generator degree + 4 a few homogeneous polynomials of degree <= D
    (often exactly D, where a basis cut one degree short goes wrong), half
    of them combinations of the generators."""
    ring = draw(st.sampled_from(_WEIGHTED_RINGS))
    gens = [
        draw(_homogeneous(ring, draw(st.integers(1, 3)))) for _ in range(draw(st.integers(1, 3)))
    ]
    top = max(g.homogeneous_degree() for g in gens)
    cases = []
    for bound in range(top + 5):
        polys = []
        for _ in range(3):
            degree = draw(st.one_of(st.just(bound), st.integers(0, bound)))
            p = draw(_homogeneous(ring, degree))
            if draw(st.booleans()):
                p = Polynomial.zero(ring)
                for g in gens:
                    gap = degree - g.homogeneous_degree()
                    if gap >= 0:
                        p = p + draw(_homogeneous(ring, gap)) * g
            polys.append(p)
        cases.append((bound, polys))
    return Ideal.make(ring, gens), cases


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_truncation_cases())
def test_truncated_membership_matches_full_basis(case):
    I, cases = case
    full = groebner_basis(I)
    for bound, polys in cases:
        truncated = groebner._buchberger(I, track=False, max_degree=bound)
        # the full basis elements up to the bound are members whose leads the
        # generators' leads need not divide: they need the S-pairs up to it
        members = [g for g in full.basis if g.homogeneous_degree() <= bound]
        for p in polys + members:
            remainder, expected = normal_form(p, truncated), normal_form(p, full)
            assert remainder.is_zero() == expected.is_zero()
            # up to the bound the truncated basis is a Groebner basis, so the
            # remainder is the unique normal form as well
            assert remainder == expected


def test_ideal_equal_caches_no_truncated_basis(monkeypatch):
    runs = []
    buchberger = groebner._buchberger

    def counted(ideal, track, max_degree=None, engine=None):
        runs.append((ideal, max_degree))
        return buchberger(ideal, track, max_degree, engine)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    I = ideal2()
    J = Ideal.make(R2, [parse_poly("e1^2+e2^2", R2), parse_poly("e1*e2", R2)])
    # two uncached ideals: one run per side, truncated at degree 4, none cached
    assert ideal_equal(I, J)
    assert runs == [(J, 4), (I, 4)]
    assert groebner._GB_CACHE == {}
    # a cached full basis serves its side without a run
    runs.clear()
    full = groebner_basis(I)
    assert ideal_equal(I, J) and ideal_equal(J, I)
    assert runs == [(I, None), (J, 4), (J, 4)]
    assert list(groebner._GB_CACHE) == [groebner._cache_key(I)]
    # a later groebner_basis call still builds and caches the full reduced basis
    runs.clear()
    assert groebner_basis(J).basis == full.basis == buchberger(J, track=False).basis
    assert runs == [(J, None)]
    _assert_reduced(groebner_basis(J))


def test_groebner_cache_evicts_the_oldest_entry(monkeypatch):
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    ring = RingSpec.make([("x", 1), ("y", 1)])
    x, y = Polynomial.variable(ring, "x"), Polynomial.variable(ring, "y")
    tracked = Ideal.make(ring, [x * x - y * y, x * y])
    target = x**3 * y + x * y**3
    cofactors = [str(c) for c in member_with_cofactors(target, tracked)]
    key = groebner._cache_key(tracked)
    first = groebner._GB_CACHE[key]
    assert first.representations is not None
    # the tracked ideal is the oldest entry: the 128 ideals after it evict it
    others = [Ideal.make(ring, [x**k]) for k in range(1, groebner._GB_CACHE_SIZE + 1)]
    for i, ideal in enumerate(others):
        groebner_basis(ideal)
        assert len(groebner._GB_CACHE) == min(i + 2, groebner._GB_CACHE_SIZE)
    assert key not in groebner._GB_CACHE
    assert list(groebner._GB_CACHE) == [groebner._cache_key(I) for I in others]
    # an evicted tracked entry is rebuilt with the same basis and representations
    assert [str(c) for c in member_with_cofactors(target, tracked)] == cofactors
    rebuilt = groebner._GB_CACHE[key]
    assert rebuilt is not first
    assert rebuilt.basis == first.basis
    assert rebuilt.representations == first.representations
    assert groebner._cache_key(others[0]) not in groebner._GB_CACHE


_X, _Y, _Z = sympy.symbols("x y z")
_XYZ = RingSpec.make([("x", 1), ("y", 1), ("z", 1)])


def _sympy_expr(p):
    return sum(
        (sympy.Rational(c) * _X**a * _Y**b * _Z**e for (a, b, e), c in p.terms.items()),
        sympy.Integer(0),
    )


def _grevlex_monic(terms):
    """Sorted terms scaled to leading coefficient 1 under our grevlex order
    (sympy's Poly.monic reads the lead under lex)."""
    terms = dict(terms)
    lead = terms[max(terms, key=_XYZ.sort_key)]
    return tuple(sorted((m, sympy.Rational(c) / sympy.Rational(lead)) for m, c in terms.items()))


def _random_homogeneous(rng, degree):
    monos = _monomials_of_degree(_XYZ, degree)
    chosen = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    return Polynomial(_XYZ, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in chosen})


@pytest.mark.parametrize("seed", range(4))
def test_groebner_matches_sympy(seed):
    # 50 random homogeneous ideals per seed in three unit-weight variables:
    # the same reduced basis as sympy's grevlex one, made monic, and the same
    # membership verdicts, for the full and for truncated bases
    rng = random.Random(seed)
    for _ in range(50):
        gens = [_random_homogeneous(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        I = Ideal.make(_XYZ, gens)
        G = groebner._buchberger(I, track=False)
        oracle = sympy.groebner(
            [_sympy_expr(g) for g in gens], _X, _Y, _Z, order="grevlex", domain="QQ"
        )
        ours = {_grevlex_monic(g.terms.items()) for g in G.basis}
        theirs = {_grevlex_monic(p.terms()) for p in oracle.polys}
        assert ours == theirs
        top = max(g.homogeneous_degree() for g in gens)
        for bound in range(top + 3):
            truncated = groebner._buchberger(I, track=False, max_degree=bound)
            degree = rng.randint(0, bound)
            p = _random_homogeneous(rng, degree)
            if rng.random() < 0.5:
                p = Polynomial.zero(_XYZ)
                for g in gens:
                    if g.homogeneous_degree() <= degree:
                        p = p + _random_homogeneous(rng, degree - g.homogeneous_degree()) * g
            verdict = oracle.contains(_sympy_expr(p))
            assert normal_form(p, truncated).is_zero() == verdict
            assert normal_form(p, G).is_zero() == verdict


def _standard_exponents_by_recursion(ring, leads, max_degree):
    """The enumeration standard_monomials used before the staircase walk,
    kept as an oracle: every exponent vector in the box below the degree
    bound, tested against the leads at the leaves."""
    degrees = ring.degrees
    n = len(degrees)
    expo = [0] * n

    def rec(i, remaining, candidates):
        if i == n:
            if not candidates:
                yield tuple(expo)
            return
        for e in range(remaining // degrees[i] + 1):
            expo[i] = e
            still = [lt for lt in candidates if lt[i] <= e]
            yield from rec(i + 1, remaining - e * degrees[i], still)
        expo[i] = 0

    yield from rec(0, max_degree, list(leads))


def _assert_walk_matches_recursion(ring, leads, max_degree):
    """The walk over the packed leads finds the recursion's exponent tuples
    once each, and reads the same degree off each packed monomial."""
    layout = ring.packing
    walk = list(groebner._standard_exponents(ring, list(map(layout.pack, leads)), max_degree))
    assert len(walk) == len(set(walk))
    expected = list(_standard_exponents_by_recursion(ring, leads, max_degree))
    assert sorted(layout.unpack_all(walk)) == sorted(expected)
    degrees = Counter(-(m >> layout.shift) for m in walk)
    assert degrees == Counter(map(ring.monomial_degree, expected))


@st.composite
def _monomial_ideals(draw):
    """Leads of a monomial ideal in a weighted ring, not always minimal, and
    now and then the unit ideal (a lead with every exponent 0), with a bound
    from -1 up (a negative bound is refused)."""
    ring = draw(st.sampled_from(_WEIGHTED_RINGS))
    n = len(ring.vars)
    expo = st.tuples(*[st.integers(0, 4)] * n)
    leads = draw(st.lists(expo, max_size=5))
    return ring, tuple(leads), draw(st.integers(-1, 14))


@settings(max_examples=300, deadline=None)
@given(_monomial_ideals())
def test_staircase_walk_matches_recursion(case):
    ring, leads, max_degree = case
    if max_degree < 0:
        # the walk itself refuses a negative bound, even for the unit ideal
        walk = groebner._standard_exponents(ring, [ring.packing.pack(lt) for lt in leads], -1)
        with pytest.raises(ValueError, match="^max_degree must be non-negative, got -1$"):
            next(walk)
        return
    _assert_walk_matches_recursion(ring, leads, max_degree)


def test_empty_staircases():
    # a negative bound certifies nothing and is refused; the zero ideal at
    # bound 0; and the unit ideal, whose lead 1 divides everything
    G = groebner_basis(ideal2())
    for fn in (quotient_hilbert, standard_monomials):
        with pytest.raises(ValueError, match="^max_degree must be non-negative, got -1$"):
            fn(G, -1)
    assert standard_monomials(groebner_basis(Ideal.make(R2, [])), 0) == [(0, 0)]
    unit = groebner_basis(Ideal.make(R2, [Polynomial.one(R2)]))
    assert quotient_hilbert(unit, 4) == [0] * 5
    assert standard_monomials(unit, 4) == []


_ABCD = RingSpec.make([("a", 1), ("b", 1), ("c", 1), ("d", 1)])


def _buchberger_by_min(ideal, track, max_degree=None, engine=None):
    """Buchberger's loop before the pair heap, kept as an oracle: the normal
    strategy as a min() over the pair set, with every lcm and sort key
    recomputed at each pop and each update, and G re-sorted at each S-pair."""
    engine = engine or groebner._Engine(ideal.ring)
    ring = ideal.ring
    ngens = len(ideal.generators)
    lcm_of, divides = _tuple_lcm, _tuple_divides
    pack = packing(ring.degrees).pack

    def mul(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def unit_rep(i):
        if not track:
            return []
        return [{0: 1} if j == i else {} for j in range(ngens)]

    key = ring.sort_key
    f, lm = [], []  # every monic polynomial made, and its tuple lead

    def add(t):
        f.append(t.monic())
        lm.append(_tuple_lead(f[-1].poly))

    def lm_key(i):
        return key(lm[i])

    def update(G, B, ih):
        mh = lm[ih]
        D = []
        rest = sorted(G, key=lm_key)
        while rest:
            ig = rest.pop(0)
            lcm_hg = lcm_of(mh, lm[ig])

            def lcm_divides(ip):
                return divides(lcm_of(mh, lm[ip]), lcm_hg)

            if mul(mh, lm[ig]) == lcm_hg or (
                not any(lcm_divides(ip) for ip in rest) and not any(lcm_divides(p[1]) for p in D)
            ):
                D.append((ih, ig))
        E = {p for p in D if mul(mh, lm[p[1]]) != lcm_of(mh, lm[p[1]])}
        B_new = set()
        for ig1, ig2 in B:
            lcm12 = lcm_of(lm[ig1], lm[ig2])
            if (
                not divides(mh, lcm12)
                or lcm_of(lm[ig1], mh) == lcm12
                or lcm_of(lm[ig2], mh) == lcm12
            ):
                B_new.add((ig1, ig2))
        G_new = {ig for ig in G if not divides(mh, lm[ig])}
        G_new.add(ih)
        return G_new, B_new | E

    seeds = [groebner._Tracked(g, unit_rep(i)).monic() for i, g in enumerate(ideal.generators)]
    G, CP = set(), set()
    for t in sorted(seeds, key=lambda t: key(_tuple_lead(t.poly))):
        reduced = engine.reduce_tracked(t, [f[i] for i in sorted(G, key=lm_key)])
        if reduced.poly:
            add(reduced)
            G, CP = update(G, CP, len(f) - 1)
    while CP:
        _, pair = min((key(lcm_of(lm[i], lm[j])), (i, j)) for i, j in CP)
        lcm = lcm_of(lm[pair[0]], lm[pair[1]])
        if max_degree is not None and ring.monomial_degree(lcm) > max_degree:
            break
        CP.remove(pair)
        s = engine.s_poly(f[pair[0]], f[pair[1]], pack(lcm))
        if not s.poly:
            continue
        reduced = engine.reduce_tracked(s, [f[i] for i in sorted(G, key=lm_key)])
        if reduced.poly:
            add(reduced)
            G, CP = update(G, CP, len(f) - 1)
    final = [f[i] for i in sorted(G, key=lm_key)]
    if max_degree is None:
        for i in range(len(final)):
            final[i] = engine.reduce_tracked(final[i], final[:i] + final[i + 1 :])
    return [t.poly for t in final], [t.rep for t in final] if track else None


@st.composite
def _pair_heap_cases(draw):
    # up to six generators: with fewer, the Gebauer-Moller criteria and ties
    # between pairs of one lcm degree rarely arise
    ring = draw(st.sampled_from([*_WEIGHTED_RINGS, _ABCD]))
    gens = [
        draw(_homogeneous(ring, draw(st.integers(1, 5)))) for _ in range(draw(st.integers(1, 6)))
    ]
    max_degree = draw(st.one_of(st.none(), st.integers(0, 10)))
    return Ideal.make(ring, gens), draw(st.booleans()), max_degree, draw(st.integers(0, 10**6))


@settings(max_examples=150, deadline=None)
@given(_pair_heap_cases())
def test_pair_heap_matches_min_over_pairs(case):
    I, track, max_degree, budget_draw = case
    engine, reference = groebner._Engine(I.ring), groebner._Engine(I.ring)
    G = groebner._buchberger(I, track, max_degree, engine)
    basis, reps = _buchberger_by_min(I, track, max_degree, reference)
    assert list(G.basis) == basis
    assert engine.steps == reference.steps
    if track:
        assert [list(r) for r in G.representations] == reps
    else:
        assert G.representations is None
    if not engine.steps:
        return
    # a budget short of the run's steps runs out at the same step in both
    short = budget_draw % engine.steps
    for run in (groebner._buchberger, _buchberger_by_min):
        meter = groebner._Engine(I.ring)
        meter.budget = short
        with pytest.raises(BudgetExceededError):
            run(I, track, max_degree, meter)
        assert meter.steps == short + 1


_R_XYZ = _WEIGHTED_RINGS[1]


@settings(max_examples=100, deadline=None)
@given(_pair_heap_cases(), st.booleans())
# a reduction of this ideal makes the representation coefficient Fraction(-1, 1)
@example(
    (
        Ideal.make(_R_XYZ, [parse_poly(g, _R_XYZ) for g in ("-2*x + 3*y^2", "-x", "x*y^2 - 3*y^4", "-3*x^2")]),
        True,
        None,
        0,
    ),
    False,
)
def test_representations_reconstruct_weighted_bases(case, reversed_):
    # monic scales a representation by a Fraction, here over weighted rings
    # and generators with non-unit leading coefficients, full and truncated
    I, _, max_degree, _ = case
    I = I.reversed() if reversed_ else I
    _assert_representations_reconstruct(groebner._buchberger(I, True, max_degree))


_ENGINE_DUMP_SHA256 = "ef09e2fa89410d3b814050512bf796e5670668a3293f6e7fa7cee5b0fd10b070"


def test_engine_dump_is_pinned(capsys, monkeypatch):
    # scripts/dump_groebner.py over its 474 fixed records, in process: bases,
    # representations, coefficient types, step counts, quotients, witnesses
    script = Path(__file__).resolve().parents[1] / "scripts" / "dump_groebner.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    assert runpy.run_path(str(script))["main"]() == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 474
    assert hashlib.sha256(out.encode()).hexdigest() == _ENGINE_DUMP_SHA256
    assert err == f"474 records, sha256 {_ENGINE_DUMP_SHA256}\n"
