"""Spanning sets and the constructive rewriting over the invariant rings."""

import hashlib
import itertools
import random
import re
import runpy
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from slcc import spanning, weyl
from slcc.polyring import Polynomial, RingMismatchError, RingSpec, parse_poly
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
    assert len(basis(group, n)) == verify_free(group, n, 40).size == weyl.group_order(group, n)


def _power_or_tail_reference(ring, bounds, tail):
    """power_or_tail on exponent tuples: every product of the choices, sorted by sort_key."""
    n = len(ring)
    choices = []
    for i, bound in enumerate(bounds):
        opts = [(0,) * i + (m,) + (0,) * (n - i - 1) for m in range(bound + 1)]
        if tail:
            opts.append((0,) * (i + 1) + (1,) * (n - i - 1))
        choices.append(opts)
    monos = {tuple(map(sum, zip((0,) * n, *combo))) for combo in itertools.product(*choices)}
    return tuple(sorted(monos, key=ring.sort_key))


@st.composite
def _power_or_tail_inputs(draw):
    weights = draw(st.lists(st.integers(1, 4), max_size=6))
    ring = RingSpec.make((f"x{i}", w) for i, w in enumerate(weights, start=1))
    bounds = draw(st.lists(st.integers(0, 4), max_size=len(weights)))
    return ring, bounds, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_power_or_tail_inputs())
@example((RingSpec.make([]), [], False))  # no variables: the batch unpack's own case
@example((RingSpec.make([]), [], True))
def test_power_or_tail_matches_reference(case):
    ring, bounds, tail = case
    got = spanning.power_or_tail(ring, bounds, tail)
    assert got == _power_or_tail_reference(ring, bounds, tail)
    assert type(got) is tuple
    assert all(type(m) is tuple and len(m) == len(ring) for m in got)
    assert all(type(e) is int for m in got for e in m)


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


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("group", ["B", "D"])
def test_verify_free_reads_the_basis_degrees(monkeypatch, group, n):
    # the degrees verify_free reads off packed ints are those of basis(group, n)
    seen = []
    free_module_series = spanning.series.free_module_series

    def recording(lhs, generator_degrees, basis_degrees, bound):
        seen.append(list(basis_degrees))
        return free_module_series(lhs, generator_degrees, basis_degrees, bound)

    monkeypatch.setattr(spanning.series, "free_module_series", recording)
    rep = verify_free(group, n, 30)
    ring = weyl.e_ring(n)
    degrees = [ring.monomial_degree(m) for m in basis(group, n).monomials]
    assert sorted(seen[0]) == sorted(degrees)
    assert rep.size == len(degrees)
    lhs = spanning.series.poly_ring_hilbert([2] * n, 30)
    inv = weyl.invariant_ring(group, n).degrees
    rhs, first = free_module_series(lhs, inv, degrees, 30)
    assert (rep.lhs, rep.rhs, rep.first_mismatch) == (tuple(lhs), tuple(rhs), first)


def test_verify_free_rank_errors():
    with pytest.raises(ValueError, match="n must be >= 1"):
        verify_free("B", 0, 10)
    with pytest.raises(ValueError, match="n must be non-negative"):
        verify_free("D", -1, 10)


def test_reduce_refuses_a_polynomial_outside_z_e():
    # e2 of degree 4 is not the e2 of Z[e1, e2]
    ring = RingSpec.make([("e1", 2), ("e2", 4)])
    message = "polynomial must live in Z[e_1..e_2] with degree-2 variables"
    with pytest.raises(RingMismatchError, match=f"^{re.escape(message)}$"):
        span_reduce(parse_poly("e1", ring), "B", 2)


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
                c0 = coeff.terms.get((0,) * len(coeff.ring), 0)
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


@pytest.mark.parametrize("n", range(1, 6))
def test_reversed_order_standard_monomials_are_the_type_B_basis(n):
    # reduce() reads type-B coordinates straight off the remainders of this
    # division, so its standard monomials must be the spanning basis
    from slcc.groebner import Ideal, groebner_basis, standard_monomials

    ring = RingSpec.make((f"e{i}", 2) for i in range(n, 0, -1))
    gens = [
        Polynomial(ring, {m[::-1]: c for m, c in g.terms.items()})
        for g in weyl.invariant_generators("B", n).gens
    ]
    G = groebner_basis(Ideal.make(ring, gens))
    # the top basis monomial has degree 2n^2; the quotient has no higher degree
    std = {m[::-1] for m in standard_monomials(G, 2 * n * n)}
    assert std == set(basis("B", n).monomials)


@pytest.mark.parametrize("group", ["B", "D"])
def test_reduce_never_builds_the_basis(group, monkeypatch):
    # basis(B, 7) has 645120 monomials; reduce() needs only the degrees it meets
    def no_basis(*args):
        raise AssertionError("reduce() built the spanning basis")

    monkeypatch.setattr(spanning, "basis", no_basis)
    ring = weyl.e_ring(7)
    for text in ("e1^3", "e1^2*e7", "e7^2", "e1^3*e7^3"):
        p = parse_poly(text, ring)
        dec = span_reduce(p, group, 7)
        assert expand(dec) == p
        assert _printed(ring, dec.terms) == _printed(ring, _reference_reduce(p, group, 7))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("group", ["B", "D"])
def test_change_of_basis_slices_the_basis(group, n, monkeypatch):
    # the members _change_of_basis hands the echelon are the basis monomials
    # of one exponent sum, generated on their own and packed in the reversed ring
    slices = []

    def members_only(G, members, divide, carry):
        slices.append(members)
        return {}

    monkeypatch.setattr(spanning, "staircase_echelon", members_only)
    ideal = spanning._reversed_coinvariant_ideal(group, n)
    pack = ideal.ring.packing.pack
    monomials = basis(group, n).monomials
    for k in range(max(map(sum, monomials)) + 1):
        spanning._change_of_basis(group, n, k, ideal, None)
        expected = [pack(m[::-1]) for m in monomials if sum(m) == k]
        assert set(slices[-1]) == set(expected)
        assert len(slices[-1]) == len(expected)


def test_reduce_through_a_change_of_basis_matches_reference(monkeypatch):
    # seeded D5 inputs whose remainders leave the basis, in exponent sums 4 to 12
    built = []
    change_of_basis = spanning._change_of_basis
    monkeypatch.setattr(
        spanning, "_change_of_basis", lambda *args: built.append(args[2]) or change_of_basis(*args)
    )
    ring = weyl.e_ring(5)
    rng = random.Random("D5 change of basis")
    sums = set()
    while len(sums) < 8:
        terms = {}
        for _ in range(2):
            expo = tuple(rng.randint(0, 2 * (5 - i) + 1) for i in range(5))
            if sum(expo) <= 14:
                terms[expo] = rng.randint(-9, 9)
        p = Polynomial(ring, terms)
        built.clear()
        dec = span_reduce(p, "D", 5)
        if built:
            sums.update(built)
            assert expand(dec) == p
            assert _printed(ring, dec.terms) == _printed(ring, _reference_reduce(p, "D", 5))
    assert sums == {4, 5, 6, 7, 8, 9, 10, 12}


def _printed(ring, terms):
    return sorted((ring.monomial_text(m), str(c)) for m, c in terms.items())


def _evaluate(p, values):
    """p at an integer point, exactly; ``values`` follow p.ring's variable order."""
    total = 0
    for expo, coeff in p.terms.items():
        term = coeff
        for v, e in zip(values, expo):
            term *= v**e
        total += term
    return total


@pytest.mark.parametrize("group,n,k", [("B", 2, 2000), ("D", 1, 3000), ("D", 2, 600)])
def test_reduce_deep_input(group, n, k):
    # the decomposition passes through every invariant monomial up to degree
    # 2k, far more than the interpreter's recursion limit would allow as
    # nested calls; the identity is checked at integer points, which is
    # cheaper than expand() at this size.
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


# -- the inductive proof, followed literally --------------------------------
#
# The reference for the differential tests: witness shifts, the tail's
# invariants converted with substitute(), and a t'-parity split in type D,
# with every coefficient a Polynomial; no step of it is one reduce() takes.


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
        return Polynomial.constant(mixed, alpha.terms.get((), 0))
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


def _reference_expand(dec):
    """Per-coefficient substitution: every power rebuilt for each basis monomial."""
    ring = weyl.e_ring(dec.n)
    inv = weyl.invariant_generators(dec.group, dec.n)
    mapping = dict(zip(inv.names, inv.gens))
    total = Polynomial.zero(ring)
    for mono, coeff in dec.terms.items():
        image = coeff.substitute(mapping, ring=ring)
        total = total + image * Polynomial.monomial(ring, mono)
    return total


def _dump_inputs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "dump_decompositions.py"
    return runpy.run_path(str(script))["inputs"]()


def test_expand_matches_reference():
    cases = [(group, n, p) for group, n, p in _dump_inputs()]
    assert len(cases) == 310
    cases.append(("D", 2, Polynomial.variable(weyl.e_ring(2), "e1") ** 600))
    for group, n, p in cases:
        dec = span_reduce(p, group, n)
        got = expand(dec)
        assert got == p
        assert got.terms == _reference_expand(dec).terms


def test_expand_builds_each_power_and_prefix_once(monkeypatch):
    ring = weyl.e_ring(2)
    p = Polynomial.variable(ring, "e1") ** 400
    dec = span_reduce(p, "B", 2)
    alphas = {alpha for coeff in dec.terms.values() for alpha in coeff.terms}
    exponents = sum(len({alpha[i] for alpha in alphas} - {0}) for i in range(2))
    prefixes = {alpha[: k + 1] for alpha in alphas for k in range(2)}
    products = 0
    mul = Polynomial.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert expand(dec) == p
    # a memo that peels one generator at a time pays for every intermediate monomial
    assert products <= exponents + len(prefixes)


_DUMP_SHA256 = "4b846926416c2a976b4ea47b36a298437293c2e7bf02018cdc42f8d32a19e936"


def test_decomposition_dump_is_pinned(capsys, monkeypatch):
    # scripts/dump_decompositions.py over its 310 fixed inputs, in process
    script = Path(__file__).resolve().parents[1] / "scripts" / "dump_decompositions.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    assert runpy.run_path(str(script))["main"]() == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 310
    assert hashlib.sha256(out.encode()).hexdigest() == _DUMP_SHA256
    assert err == f"310 decompositions, sha256 {_DUMP_SHA256}\n"
