"""Spanning sets and the constructive rewriting over the invariant rings."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from slcc import weyl
from slcc.polyring import Polynomial, RingSpec, parse_poly
from slcc.spanning import basis, expand, reduce as span_reduce, verify_free


def test_basis_examples():
    b = basis("B", 1)
    assert b.texts() == ["1", "e1"]
    b = basis("D", 2)
    assert set(b.texts()) == {"1", "e1", "e1^2", "e2"}
    assert len(b) == 4
    b = basis("B", 2)
    assert len(b) == 8
    assert all(m[0] <= 3 and m[1] <= 1 for m in b.monomials)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("group", ["B", "D"])
def test_basis_cardinality_is_weyl_order(group, n):
    assert len(basis(group, n)) == weyl.group_order(group, n)


def test_reduce_examples_rank_two():
    ring = weyl.e_ring(2)
    dec = span_reduce(parse_poly("e1^2", ring), "B", 2)
    assert {ring.monomial_text(m): str(c) for m, c in dec.terms.items()} == {"e1^2": "1"}

    dec = span_reduce(parse_poly("e2^2", ring), "B", 2)
    assert {ring.monomial_text(m): str(c) for m, c in dec.terms.items()} == {
        "1": "s1",
        "e1^2": "-1",
    }

    dec = span_reduce(parse_poly("e1^4", ring), "B", 2)
    assert {ring.monomial_text(m): str(c) for m, c in dec.terms.items()} == {
        "e1^2": "s1",
        "1": "-s2",
    }


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("group", ["B", "D"])
def test_reduce_idempotent_on_basis(group, n):
    cring = weyl.invariant_ring(group, n)
    for mono in basis(group, n).monomials:
        p = Polynomial.monomial(weyl.e_ring(n), mono)
        dec = span_reduce(p, group, n)
        assert dec.terms == {mono: Polynomial.one(cring)}


@pytest.mark.parametrize("group", ["B", "D"])
def test_round_trip_random(group):
    rng = random.Random(99)
    for n in (1, 2, 3):
        ring = weyl.e_ring(n)
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                expo = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(expo) <= 10:
                    terms[expo] = rng.randint(-7, 7)
            p = Polynomial(ring, terms)
            dec = span_reduce(p, group, n)
            assert expand(dec) == p
            assert set(dec.terms) <= set(basis(group, n).monomials)


def test_coefficients_are_invariant():
    ring = weyl.e_ring(3)
    p = parse_poly("e1^7*e2 - 3*e3^4 + e2^2*e3^2", ring)
    for group in ("B", "D"):
        dec = span_reduce(p, group, 3)
        inv = weyl.invariant_generators(group, 3)
        mapping = dict(zip(inv.names, inv.gens))
        for coeff in dec.terms.values():
            image = coeff.substitute(mapping, ring=ring)
            assert weyl.is_invariant(image, group, 3)


def test_coefficient_ring_degrees():
    assert weyl.invariant_ring("B", 3).vars == (("s1", 4), ("s2", 8), ("s3", 12))
    assert weyl.invariant_ring("D", 3).vars == (("s1", 4), ("s2", 8), ("t", 6))
    # the decompositions' coefficients and the generators expand() substitutes
    # are named by the same ring
    dec = span_reduce(parse_poly("e1^7", weyl.e_ring(3)), "D", 3)
    inv = weyl.invariant_generators("D", 3)
    assert {c.ring for c in dec.terms.values()} == {inv.ring}
    assert inv.degrees == tuple(g.homogeneous_degree() for g in inv.gens)


def test_verify_free_closed_form_rank_one():
    # 1/(1-q^2) == (1/(1-q^4)) * (1 + q^2)
    rep = verify_free("B", 1, 20)
    assert rep.passed
    assert rep.lhs == rep.rhs


@pytest.mark.parametrize("group,n,bound", [("B", 2, 20), ("D", 3, 24), ("B", 5, 40), ("D", 5, 40)])
def test_verify_free_larger(group, n, bound):
    rep = verify_free(group, n, bound)
    assert rep.passed, rep.first_mismatch


def test_reduce_agrees_with_groebner_in_the_coinvariant_quotient():
    # independent cross-check: modulo the coinvariant ideal every s_i (and t)
    # dies, so NF(p) must equal NF of the constant parts of the decomposition
    from slcc.groebner import groebner_basis, normal_form

    rng = random.Random(17)
    for group, n in (("B", 2), ("D", 2), ("B", 3), ("D", 3)):
        ring = weyl.e_ring(n)
        G = groebner_basis(weyl.coinvariant_ideal(group, n))
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                expo = tuple(rng.randint(0, 3) for _ in range(n))
                terms[expo] = rng.randint(-6, 6)
            p = Polynomial(ring, terms)
            dec = span_reduce(p, group, n)
            constant_part = Polynomial.zero(ring)
            for mono, coeff in dec.terms.items():
                c0 = coeff.constant_coefficient()
                if c0:
                    constant_part = constant_part + Polynomial.monomial(ring, mono, c0)
            assert normal_form(p, G) == normal_form(constant_part, G)


def test_uniqueness_on_basis_monomials():
    # decomposing each basis monomial returns itself: linear independence at
    # desk scale, jointly with the Hilbert identity above
    for group, n in (("B", 2), ("D", 3)):
        seen = {}
        for mono in basis(group, n).monomials:
            dec = span_reduce(Polynomial.monomial(weyl.e_ring(n), mono), group, n)
            seen[mono] = dec.terms
        for mono, terms in seen.items():
            assert list(terms) == [mono]


def _evaluate(p, values):
    """p at an integer point, exactly; ``values`` follow p.ring's variable order."""
    total = 0
    for expo, coeff in p.terms.items():
        term = coeff
        for v, e in zip(values, expo):
            term *= v**e
        total += term
    return total


@pytest.mark.parametrize("group,n,k", [("B", 2, 2000), ("D", 1, 3000)])
def test_reduce_deep_input(group, n, k):
    # each rewrite of e1^k waits on the one of e1^(k-threshold): a chain far
    # deeper than the interpreter's recursion limit.  expand() is cubic in k,
    # so the identity is checked at integer points instead.
    ring = weyl.e_ring(n)
    p = Polynomial.variable(ring, "e1") ** k
    dec = span_reduce(p, group, n)
    assert set(dec.terms) <= set(basis(group, n).monomials)
    inv = weyl.invariant_generators(group, n)
    for point in ((3, -2), (-1, 5), (2, 7)):
        point = point[:n]
        invariants = dict(zip(inv.names, (_evaluate(g, point) for g in inv.gens)))
        rhs = 0
        for mono, coeff in dec.terms.items():
            s_values = [invariants[name] for name in coeff.ring.names]
            rhs += _evaluate(coeff, s_values) * _evaluate(Polynomial.monomial(ring, mono), point)
        assert rhs == _evaluate(p, point)


# -- the Polynomial-valued rewriter that the flat-term one replaced ----------
#
# Kept as the reference for the differential test below: every coefficient is
# a Polynomial, and the tail's invariants are converted with substitute().


@lru_cache(maxsize=None)
def _ref_mixed_ring(group, rank):
    return RingSpec.make([("E", 2)] + list(weyl.invariant_ring(group, rank).vars))


@lru_cache(maxsize=None)
def _ref_sprime_image(group, rank, i):
    mixed = _ref_mixed_ring(group, rank)
    acc = Polynomial.zero(mixed)
    for u in range(i + 1):
        base = Polynomial.one(mixed) if i == u else Polynomial.variable(mixed, f"s{i - u}")
        term = base * (Polynomial.variable(mixed, "E") ** (2 * u))
        acc = acc + (term if u % 2 == 0 else -term)
    return acc


def _ref_convert_tail_coeff(alpha, group, rank):
    mixed = _ref_mixed_ring(group, rank)
    if not alpha.ring.vars:
        return Polynomial.constant(mixed, alpha.constant_coefficient())
    mapping = {f"s{i}": _ref_sprime_image(group, rank, i) for i in range(1, len(alpha.ring) + 1)}
    return alpha.substitute(mapping, ring=mixed)


def _ref_split_t_parity(alpha, rank):
    target = weyl.invariant_ring("B", rank - 1)
    tilde, hat = {}, {}
    nsrc = len(alpha.ring)
    for expo, coeff in alpha.terms.items():
        t_exp = expo[nsrc - 1] if nsrc else 0
        new = list(expo[: nsrc - 1]) if nsrc else []
        new += [0] * (len(target) - len(new))
        if len(target):
            new[len(target) - 1] += t_exp // 2
        bucket = tilde if t_exp % 2 == 0 else hat
        bucket[tuple(new)] = bucket.get(tuple(new), 0) + coeff
    return Polynomial(target, tilde), Polynomial(target, hat)


def _ref_with_exponent(mono, pos, value):
    out = list(mono)
    out[pos] = value
    return tuple(out)


def _ref_add_into(acc, items, factor=None):
    for m, c in items:
        inc = c if factor is None else c * factor
        cur = acc.get(m)
        total = inc if cur is None else cur + inc
        if total.is_zero():
            acc.pop(m, None)
        else:
            acc[m] = total


@lru_cache(maxsize=None)
def _ref_reduce_monomial(group, n, level, mono):
    rank = n - level
    cring = weyl.invariant_ring(group, rank)
    if rank == 0:
        return ((mono, Polynomial.one(cring)),)
    threshold = 2 * rank if group == "B" else 2 * rank - 1
    bound = 2 * rank - 1 if group == "B" else 2 * rank - 2
    ring = weyl.e_ring(n)
    a = mono[level]
    acc = {}
    if a >= threshold:
        wits = weyl.witness_B(rank) if group == "B" else weyl.witness_D(rank)
        rest = Polynomial.monomial(ring, _ref_with_exponent(mono, level, a - threshold))
        for idx, w in enumerate(wits):
            shifted = Polynomial(ring, {(0,) * level + e: c for e, c in w.terms.items()})
            carried = Polynomial.variable(cring, cring.names[idx])
            for sub_mono, sub_coeff in (shifted * rest).terms.items():
                sub = _ref_reduce_monomial(group, n, level, sub_mono)
                _ref_add_into(acc, sub, carried * sub_coeff)
        return tuple(sorted(acc.items(), key=lambda kv: kv[0]))
    tail_dec = _ref_reduce_monomial(group, n, level + 1, _ref_with_exponent(mono, level, 0))
    for bprime, alpha in tail_dec:
        if group == "B":
            parts = [(alpha, False)]
        else:
            tilde, hat = _ref_split_t_parity(alpha, rank)
            parts = [(tilde, False), (hat, True)]
        for part, has_tprime in parts:
            if part.is_zero():
                continue
            mixed = _ref_convert_tail_coeff(part, group, rank)
            for mexpo, mcoeff in mixed.terms.items():
                s_mono = Polynomial.monomial(cring, mexpo[1:], mcoeff)
                A = a + mexpo[0]
                if not has_tprime:
                    if A <= bound:
                        _ref_add_into(acc, ((_ref_with_exponent(bprime, level, A), s_mono),))
                    else:
                        sub = _ref_reduce_monomial(
                            group, n, level, _ref_with_exponent(bprime, level, A)
                        )
                        _ref_add_into(acc, sub, s_mono)
                elif A == 0:
                    tailprod = list(bprime)
                    for j in range(level + 1, n):
                        tailprod[j] += 1
                    _ref_add_into(acc, ((tuple(tailprod), s_mono),))
                else:
                    carried = s_mono * Polynomial.variable(cring, "t")
                    sub = _ref_reduce_monomial(
                        group, n, level, _ref_with_exponent(bprime, level, A - 1)
                    )
                    _ref_add_into(acc, sub, carried)
    return tuple(sorted(acc.items(), key=lambda kv: kv[0]))


def _reference_reduce(p, group, n):
    acc = {}
    cring = weyl.invariant_ring(group, n)
    for mono, coeff in p.terms.items():
        factor = Polynomial.constant(cring, coeff)
        _ref_add_into(acc, _ref_reduce_monomial(group, n, 0, mono), factor)
    return acc


@st.composite
def _span_inputs(draw):
    group = draw(st.sampled_from("BD"))
    n = draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        # e_i may pass the threshold of its level, 2(n-i+1) (B) or 2(n-i+1)-1 (D)
        expo = tuple(draw(st.integers(min_value=0, max_value=2 * (n - i) + 3)) for i in range(n))
        if sum(expo) <= 2 * n + 4:
            terms[expo] = draw(st.integers(min_value=-9, max_value=9))
    return group, n, Polynomial(weyl.e_ring(n), terms)


@settings(max_examples=120, deadline=None)
@given(_span_inputs())
def test_reduce_matches_polynomial_valued_reference(case):
    group, n, p = case
    ring = weyl.e_ring(n)
    dec = span_reduce(p, group, n)
    ref = _reference_reduce(p, group, n)

    def printed(terms):
        return sorted((ring.monomial_text(m), str(c)) for m, c in terms.items())

    assert printed(dec.terms) == printed(ref)
    assert expand(dec) == p
