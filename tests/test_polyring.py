"""Polynomial kernel: parsing, exact arithmetic, grading, canonical printing."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from slcc.polyring import (
    EXPONENT_LIMIT,
    NESTING_LIMIT,
    ExponentOverflowError,
    ParseError,
    Polynomial,
    RingMismatchError,
    RingSpec,
    UnmappedVariableError,
    _normalize_coeff,
    linear_combination,
    multiply_packed,
    packing,
    parse_poly,
)
from slcc.weyl import SignedPermutation, apply_action

R_EE = RingSpec.make([("e1", 2), ("e2", 2), ("e", 4)])
R2 = RingSpec.make([("e1", 2), ("e2", 2)])


def test_parse_two_term_relation():
    p = parse_poly("e1*e2 - e", R_EE)
    assert len(p.terms) == 2
    assert p.homogeneous_degree() == 4
    assert str(p) == "e1*e2 - e"


def test_parse_nesting_bound():
    deep = "(" * NESTING_LIMIT + "e1" + ")" * NESTING_LIMIT
    assert parse_poly(f"2*{deep}^2", R2) == parse_poly("2*e1^2", R2)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_poly("(" + deep + ")", R2)


def test_parse_zero():
    p = parse_poly("0", R_EE)
    assert p.is_zero()
    assert p.terms == {}
    assert str(p) == "0"


def test_parse_square_expands():
    p = parse_poly("(e1+e2)^2", R2)
    assert str(p) == "e1^2 + 2*e1*e2 + e2^2"


def test_additive_inverse_and_identity():
    e1 = Polynomial.variable(R2, "e1")
    assert e1 + Polynomial.zero(R2) == e1
    assert (e1 + (-e1)).is_zero()
    assert parse_poly("e1 + (-e1)", R2).is_zero()
    assert parse_poly("e1 - e1", R2).is_zero()


def test_sum_of_squares_is_s1():
    assert parse_poly("e1^2", R2) + parse_poly("e2^2", R2) == parse_poly("e1^2 + e2^2", R2)


def test_product_examples():
    R3 = RingSpec.make([("e1", 2), ("e2", 2), ("e3", 2)])
    p = parse_poly("e1", R3) * parse_poly("e2", R3) * parse_poly("e3", R3)
    assert str(p) == "e1*e2*e3"
    assert (parse_poly("e1-e2", R2) * parse_poly("e1+e2", R2)) == parse_poly("e1^2 - e2^2", R2)
    one = Polynomial.one(R2)
    q = parse_poly("3*e1^2 - 7", R2)
    assert q * one == q


def test_homogeneity_three_way():
    assert parse_poly("e1*e2 - e", R_EE).homogeneous_degree() == 4
    zero = parse_poly("0", R_EE)
    assert zero.is_zero() and zero.is_homogeneous()
    mixed = parse_poly("e1 + e1^2", R2)
    assert not mixed.is_homogeneous()
    assert mixed.homogeneous_degree() is None


def test_substitution_power_sum():
    sig = RingSpec.make([("sigma1", 1), ("sigma2", 2)])
    xs = RingSpec.make([("x1", 1), ("x2", 1)])
    p = parse_poly("sigma1^2 - sigma2", sig)
    image = p.substitute(
        {"sigma1": parse_poly("x1+x2", xs), "sigma2": parse_poly("x1*x2", xs)}
    )
    assert image == parse_poly("x1^2 + x1*x2 + x2^2", xs)


def test_substitution_identity_and_missing():
    p = parse_poly("e1^2 + e2", R2)
    assert p.substitute({}, ring=R2, missing="identity") == p
    with pytest.raises(UnmappedVariableError):
        p.substitute({"e1": Polynomial.variable(R2, "e1")})


def test_substitution_consistency_b_to_square():
    rb = RingSpec.make([("b1", 4)])
    re = RingSpec.make([("e1", 2)])
    p = parse_poly("b1^2", rb)
    assert p.substitute({"b1": parse_poly("e1^2", re)}) == parse_poly("e1^4", re)


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        parse_poly("e1", R2) + parse_poly("e1", R_EE)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_poly("e1 + e9", R2)
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse_poly("e1 e2", R2)  # '*' is mandatory between factors
    with pytest.raises(ParseError):
        parse_poly("e1^0", R2)
    with pytest.raises(ParseError):
        parse_poly("e1 @ e2", R2)
    with pytest.raises(ParseError):
        parse_poly(f"e1^{2**40}", R2)


_R_X, _R_Y = RingSpec.make([("x", 1)]), RingSpec.make([("y", 1)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Polynomial(R2, {(1,): 1}), ValueError,
         "exponent tuple (1,) has wrong length for ring ('e1', 'e2')"),
        (lambda: Polynomial(R2, {(1, -1): 1}), ValueError,
         "exponents must be non-negative integers, got (1, -1)"),
        (lambda: Polynomial.zero(R2).leading_term(), ValueError, "zero polynomial has no leading term"),
        (lambda: Polynomial.variable(R2, "e1") ** -1, ValueError,
         "polynomial powers must be non-negative integers"),
        (lambda: parse_poly("e1", R2).substitute({}, missing="x"), ValueError,
         "missing must be 'error' or 'identity'"),
        (lambda: parse_poly("e1 + e2", R2).substitute(
            {"e1": Polynomial.variable(_R_X, "x"), "e2": Polynomial.variable(_R_Y, "y")}),
         RingMismatchError, "substitution images live in different rings"),
        # an unknown name after a parenthesised factor is read as a Polynomial factor
        (lambda: parse_poly("2*(e1)*zz", R2), ParseError, "unknown variable 'zz' (at offset 7)"),
    ],
    ids=["short exponent tuple", "negative exponent", "lead of zero", "negative power",
         "bad missing", "images in two rings", "unknown name after a parenthesis"],
)
def test_kernel_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_exponent_overflow_detected():
    with pytest.raises(ExponentOverflowError):
        Polynomial(R2, {(2**31, 0): 1})
    # each factor is legal; their product is not
    x = Polynomial.monomial(R2, (2**30, 0))
    with pytest.raises(ExponentOverflowError):
        x * x
    # the same for a 4 x 4 product
    e = Polynomial(R2, {(2**30 - k, 0): 1 for k in range(4)})
    with pytest.raises(ExponentOverflowError, match="exponent 2147483648 exceeds limit 2147483648"):
        e * e


def test_ring_validation():
    with pytest.raises(ValueError):
        RingSpec.make([("e1", 2), ("e1", 4)])
    with pytest.raises(ValueError):
        RingSpec.make([("1bad", 2)])
    with pytest.raises(ValueError):
        RingSpec.make([("x", 0)])
    RingSpec.make([("e1'", 2)])  # primes are legal in names


def test_canonical_printing_order():
    # grevlex by cohomological degree, leading term first
    assert str(parse_poly("e1 + e1^3", R2)) == "e1^3 + e1"
    assert str(parse_poly("-2*e1^2 - e2 + 1", R2)) == "-2*e1^2 - e2 + 1"
    assert str(parse_poly("-(e1 + e2)", R2)) == "-e1 - e2"
    assert str(parse_poly("-e1*(e2 - e1) + 3", R2)) == "e1^2 - e1*e2 + 3"
    # degree ties broken reverse-lex: e1^2 > e1*e2 > e2^2
    assert str(parse_poly("e2^2 + e1*e2 + e1^2", R2)) == "e1^2 + e1*e2 + e2^2"
    # weighted tie between e1*e2 (2+2) and e (4): e1*e2 wins
    assert str(parse_poly("-e + e1*e2", R_EE)) == "e1*e2 - e"


coeffs = st.integers(min_value=-50, max_value=50)


@st.composite
def polys(draw, ring=R2):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        expo = tuple(draw(st.integers(min_value=0, max_value=5)) for _ in range(len(ring)))
        terms[expo] = draw(coeffs)
    return Polynomial(ring, terms)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60)
@given(polys())
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), R2) == p


def test_print_parse_round_trip_dense():
    # every exponent vector of total 10 in e1..e5: 1001 terms in one sum
    ring = RingSpec.make([(f"e{i}", 2) for i in range(1, 6)])
    rng = random.Random(1001)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(5), 10):
        terms[tuple(map(combo.count, range(5)))] = rng.choice([-9, -5, -1, 1, 2, 7, 9])
    p = Polynomial(ring, terms)
    assert len(p.terms) == 1001
    assert parse_poly(str(p), ring) == p


@settings(max_examples=60)
@given(polys(), polys())
def test_grading_multiplicative(p, q):
    dp, dq = p.homogeneous_degree(), q.homogeneous_degree()
    if p.is_zero() or q.is_zero() or dp is None or dq is None:
        return
    assert (p * q).homogeneous_degree() == dp + dq


def test_sums_that_cancel_to_integers_store_int():
    half = Polynomial(R2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    total = half + half
    assert total.terms == {(1, 0): 1, (0, 1): Fraction(2, 3)}
    assert type(total.terms[(1, 0)]) is int
    assert type(total.terms[(0, 1)]) is Fraction
    diff = Polynomial(R2, {(1, 0): Fraction(3, 2)}) - Polynomial(R2, {(1, 0): Fraction(1, 2)})
    assert diff.terms == {(1, 0): 1}
    assert type(diff.terms[(1, 0)]) is int
    assert (half - half).is_zero()


def test_bool_coefficient_rejected():
    with pytest.raises(TypeError):
        Polynomial(R2, {(1, 0): True})
    with pytest.raises(TypeError):
        Polynomial.one(R2) + True
    with pytest.raises(TypeError):
        _normalize_coeff(False)


mixed_coeffs = st.one_of(
    coeffs,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def mixed_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        expo = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(len(R2)))
        terms[expo] = draw(mixed_coeffs)
    return Polynomial(R2, terms)


@settings(max_examples=100)
@given(mixed_polys(), mixed_polys())
def test_add_sub_match_normalized_dict_sum(p, q):
    for result, sign in ((p + q, 1), (p - q, -1)):
        expected = dict(p.terms)
        for expo, coeff in q.terms.items():
            expected[expo] = expected.get(expo, 0) + sign * coeff
        expected = {e: _normalize_coeff(c) for e, c in expected.items() if c != 0}
        assert result.terms == expected
        assert {e: type(c) for e, c in result.terms.items()} == {
            e: type(c) for e, c in expected.items()
        }


def _naive_product(p, q):
    """Every pairwise term product summed into one dict, then normalized."""
    acc = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            expo = tuple(x + y for x, y in zip(ea, eb))
            acc[expo] = acc.get(expo, 0) + ca * cb
    return {e: _normalize_coeff(c) for e, c in acc.items() if c != 0}


@settings(max_examples=100)
@given(mixed_polys(), mixed_polys())
def test_mul_matches_naive_product(p, q):
    for result in (p * q, q * p):
        expected = _naive_product(p, q)
        assert result.terms == expected
        assert {e: type(c) for e, c in result.terms.items()} == {
            e: type(c) for e, c in expected.items()
        }


def _tuple_sort_key(ring, expo):
    """The grevlex key RingSpec.sort_key built before packing, kept as its reference."""
    return (ring.monomial_degree(expo), tuple(-e for e in reversed(expo)))


@st.composite
def _monomial_pairs(draw):
    """A ring of 0-6 weighted variables, now and then one of degree 2^63,
    and two of its monomials.

    Exponents are small, so that degrees tie, or up to 2^31 - 1.  Half the
    cases make b a multiple of a, so that the guard test often answers yes.
    """
    n = draw(st.integers(0, 6))
    weights = [draw(st.integers(1, 4)) for _ in range(n)]
    if n and draw(st.booleans()):
        weights[draw(st.integers(0, n - 1))] = 2**63
    ring = RingSpec.make((f"x{i}", w) for i, w in enumerate(weights))
    exponent = st.one_of(st.integers(0, 3), st.integers(2**31 - 4, 2**31 - 1))
    a, b = draw(st.tuples(*[exponent] * n)), draw(st.tuples(*[exponent] * n))
    if draw(st.booleans()):
        b = tuple(x + y for x, y in zip(a, draw(st.tuples(*[st.integers(0, 2)] * n))))
    return ring, a, b


@settings(max_examples=400, deadline=None)
@given(_monomial_pairs())
@example((RingSpec.make([]), (), ()))
@example((RingSpec.make([("x", 1), ("z", 2**63)]), (2**31 - 1, 1), (2**31 - 1, 0)))
def test_packed_monomial_is_the_grevlex_key(case):
    ring, a, b = case
    layout = packing(ring.degrees)
    pa, pb = layout.pack(a), layout.pack(b)
    key, ref = ring.sort_key, _tuple_sort_key
    assert (key(a) < key(b), key(a) == key(b)) == (ref(ring, a) < ref(ring, b), a == b)
    assert key(a) == -pa
    assert pa + pb == layout.pack(tuple(x + y for x, y in zip(a, b)))
    assert layout.unpack(pa) == a
    assert list(layout.unpack_terms({pa: 2, pb: 3}).items()) == list({a: 2, b: 3}.items())
    divides = all(x <= y for x, y in zip(a, b))
    assert (not (pb - pa) & layout.guard) == divides


@st.composite
def _lcm_cases(draw):
    """A ring of 0-6 variables of weight 1-4 and two of its monomials, with
    exponents 0-4 or next to EXPONENT_LIMIT - 1."""
    n = draw(st.integers(0, 6))
    ring = RingSpec.make((f"x{i}", draw(st.integers(1, 4))) for i in range(n))
    exponent = st.one_of(st.integers(0, 4), st.integers(EXPONENT_LIMIT - 4, EXPONENT_LIMIT - 1))
    return ring, draw(st.tuples(*[exponent] * n)), draw(st.tuples(*[exponent] * n))


@settings(max_examples=300, deadline=None)
@given(_lcm_cases())
def test_packed_lcm_matches_tuple_max(case):
    ring, a, b = case
    layout = ring.packing
    pa, pb = layout.pack(a), layout.pack(b)
    expected = tuple(map(max, a, b))
    # the lcm as groebner's pair update builds it, from the leads unpacked
    ua, ub = layout.unpack(pa), layout.unpack(pb)
    lcm = layout.pack(map(max, ua, ub))
    assert lcm == layout.pack(expected) == layout.pack(map(max, ub, ua))
    assert -(lcm >> layout.shift) == ring.monomial_degree(expected)
    assert not (lcm - pa) & layout.guard and not (lcm - pb) & layout.guard


def _tuple_product(a, b):
    """The tuple loop that multiply_packed replaced, kept as its reference."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            expo = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(expo, 0) + ca * cb
            if s == 0:
                out.pop(expo, None)
            else:
                out[expo] = s
    return out


@st.composite
def _term_map_products(draw):
    """A ring of 0-8 weighted variables and two term maps to multiply.

    Exponents are small, so that products collide, or up to 2^31 - 1.  Half
    the cases plant a cancellation: a gets x^v and x^(v+d), b gets x^s and
    x^(s-d) with coefficients that make the two products at x^(v+s) cancel.
    """
    n = draw(st.integers(0, 8))
    ring = RingSpec.make((f"x{i}", draw(st.integers(1, 4))) for i in range(n))
    exponent = st.integers(0, 2)
    if draw(st.booleans()):
        exponent = st.one_of(exponent, st.integers(2**31 - 4, 2**31 - 1))
    monomial = st.tuples(*[exponent] * n)
    size = st.integers(0, 8)
    coeff = mixed_coeffs.filter(bool)
    a = draw(st.dictionaries(monomial, coeff, max_size=draw(size)))
    b = draw(st.dictionaries(monomial, coeff, max_size=draw(size)))
    if draw(st.booleans()):
        # the key v+s gets c1*c3 and then c2*c4 = -c1*c3
        v, s, d = draw(monomial), draw(monomial), draw(st.tuples(*[st.integers(0, 2)] * n))
        s = tuple(x + y for x, y in zip(s, d))
        c1, c2, c3 = draw(coeff), draw(coeff), draw(coeff)
        a = {v: c1, tuple(x + y for x, y in zip(v, d)): c2, **a}
        b = {s: c3, tuple(x - y for x, y in zip(s, d)): Fraction(-c1 * c3) / c2, **b}
    return ring, a, b


@settings(max_examples=300, deadline=None)
@given(_term_map_products())
def test_multiply_packed_matches_tuple_loop(case):
    # on packed monomials, the same items in the same order
    ring, a, b = case
    layout = ring.packing
    for x, y in ((a, b), (b, a)):
        expected = list(_tuple_product(x, y).items())
        packed_x, packed_y = ({layout.pack(m): c for m, c in t.items()} for t in (x, y))
        result = list(layout.unpack_terms(multiply_packed(packed_x, packed_y, {})).items())
        assert result == expected
        assert [type(c) for _, c in result] == [type(c) for _, c in expected]
    if all(e < 2**31 for m in itertools.chain(a, b) for e in m):
        p, q = Polynomial(ring, a), Polynomial(ring, b)
        expected = [(m, _normalize_coeff(c)) for m, c in _tuple_product(p.terms, q.terms).items()]
        if any(e >= 2**31 for m, _ in expected for e in m):
            with pytest.raises(ExponentOverflowError):
                p * q
        else:
            assert list((p * q).terms.items()) == expected


def _sum_of_products(ring, pairs):
    """sum a * b by Polynomial additions, the loop linear_combination replaces."""
    total = Polynomial.zero(ring)
    for a, b in pairs:
        total = total + a * b
    return total


@st.composite
def _combinations(draw):
    """A ring of 0-5 weighted variables and pairs of its polynomials.

    Exponents are small, so that products collide, or now and then up to
    2^31 - 1, so that a product may overflow.  Some cases append a pair
    with one operand negated, so that the two products cancel, and some
    put a pair with an operand of another ring somewhere in the list.
    """
    n = draw(st.integers(0, 5))
    ring = RingSpec.make((f"x{i}", draw(st.integers(1, 4))) for i in range(n))
    exponent = st.integers(0, 2)
    if draw(st.booleans()):
        exponent = st.one_of(exponent, st.integers(2**31 - 4, 2**31 - 1))
    terms = st.dictionaries(st.tuples(*[exponent] * n), mixed_coeffs, max_size=4)
    poly = terms.map(lambda t: Polynomial(ring, t))
    pairs = draw(st.lists(st.tuples(poly, poly), max_size=5))
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        pairs.append((-a, b) if draw(st.booleans()) else (a, -b))
    if draw(st.integers(0, 4)) == 0:
        other = RingSpec.make((*ring.vars, ("z", 1)))
        pair = (Polynomial.variable(other, "z"), draw(st.one_of(st.just(Polynomial.one(other)), poly)))
        pairs.insert(draw(st.integers(0, len(pairs))), pair[:: draw(st.sampled_from([1, -1]))])
    return ring, pairs


_LC_RING = RingSpec.make([("x", 1), ("y", 2)])
_LC_X, _LC_Y = Polynomial.variable(_LC_RING, "x"), Polynomial.variable(_LC_RING, "y")
_LC_BIG = Polynomial(_LC_RING, {(2**31 - 1, 0): 1})
_LC_OTHER = Polynomial.one(RingSpec.make([("x", 1)]))


@settings(max_examples=300, deadline=None)
@given(_combinations())
# no pairs: the zero of the ring
@example((_LC_RING, []))
# Fractions that sum to an int, and a sum that cancels
@example((_LC_RING, [(_LC_X * Fraction(1, 3), _LC_Y), (_LC_X * Fraction(2, 3), _LC_Y)]))
@example((_LC_RING, [(_LC_X, _LC_Y), (-_LC_Y, _LC_X)]))
# an overflow before a ring mismatch, and after one
@example((_LC_RING, [(_LC_BIG, _LC_X), (_LC_OTHER, _LC_X)]))
@example((_LC_RING, [(_LC_X, _LC_OTHER), (_LC_BIG, _LC_X)]))
# a zero operand beside a term at the limit: the product is 0 and checks nothing
@example((_LC_RING, [(_LC_BIG, Polynomial.zero(_LC_RING)), (_LC_BIG, _LC_Y)]))
def test_linear_combination_is_the_sum_of_products(case):
    ring, pairs = case
    try:
        want = _sum_of_products(ring, pairs)
    except (RingMismatchError, ExponentOverflowError) as err:
        with pytest.raises(type(err)):
            linear_combination(ring, pairs)
        return
    result = linear_combination(ring, iter(pairs))
    assert result.ring == ring and result == want and str(result) == str(want)
    assert [type(c) for _, c in result] == [type(c) for _, c in want]


def test_mul_cancels_and_stores_int():
    e1, e2 = Polynomial.variable(R2, "e1"), Polynomial.variable(R2, "e2")
    assert ((e1 + e2) * (e1 - e2)).terms == {(2, 0): 1, (0, 2): -1}
    assert ((e1 - e2) * (e1 * e1 + e1 * e2 + e2 * e2)).terms == {(3, 0): 1, (0, 3): -1}
    half = Polynomial(R2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)})
    product = half * Polynomial(R2, {(1, 0): 2, (0, 1): Fraction(3, 2)})
    assert product.terms == {(2, 0): 1, (1, 1): Fraction(25, 12), (0, 2): 1}
    assert {type(c) for e, c in product.terms.items() if e != (1, 1)} == {int}


@pytest.mark.parametrize(
    "n,products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (13, 5)]
)
def test_pow_makes_no_product_by_one(n, products, monkeypatch):
    # a squaring per bit below the top one, a product per set bit below it
    p = parse_poly("e1 - 2*e2", R2)
    expected = Polynomial.one(R2)
    for _ in range(n):
        expected = expected * p
    count = 0
    mul = Polynomial.__mul__

    def counting(self, other):
        nonlocal count
        count += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert p**n == expected
    assert count == products


def _substitute_per_term(p, mapping, target):
    """The per-term substitution: each power taken by ``**``, one sum per term."""
    images = {}
    for name, image in mapping.items():
        if not isinstance(image, Polynomial):
            image = Polynomial.constant(target, image)
        images[p.ring.index(name)] = image
    result = Polynomial.zero(target)
    for expo, coeff in p.terms.items():
        term = Polynomial.constant(target, coeff)
        for i, e in enumerate(expo):
            if e:
                if i not in images:  # missing="identity"
                    images[i] = Polynomial.variable(target, p.ring.names[i])
                term = term * images[i] ** e
        result = result + term
    return result


@st.composite
def _substitutions(draw):
    """A polynomial in e1, e2, e and images in Z[e1, e2]; e1, e2 may stay unmapped."""
    source = Polynomial(R_EE, {
        tuple(draw(st.integers(0, 6)) for _ in R_EE.vars): draw(mixed_coeffs)
        for _ in range(draw(st.integers(0, 6)))
    })
    image = st.one_of(mixed_coeffs, mixed_polys())
    mapping = {"e": draw(image)}
    for name in ("e1", "e2"):
        if draw(st.booleans()):
            mapping[name] = draw(image)
    return source, mapping


@settings(max_examples=100, deadline=None)
@given(_substitutions())
def test_substitute_matches_per_term_powers(case):
    p, mapping = case
    got = p.substitute(mapping, ring=R2, missing="identity")
    expected = _substitute_per_term(p, mapping, R2)
    assert got.terms == expected.terms
    assert {e: type(c) for e, c in got.terms.items()} == {
        e: type(c) for e, c in expected.terms.items()
    }


# -- the packed kernel against the tuple kernel it replaced -----------------
#
# Term maps on exponent tuples, with the arithmetic, order and printing of
# the kernel that stored them: the reference for the packed Polynomial.


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = _normalize_coeff(s)
        else:
            out.pop(m, None)
    return out


def _ref_mul(ring, a, b):
    out = _tuple_product(a, b)
    top = max(map(max, out)) if out and ring.vars else 0
    if top >= EXPONENT_LIMIT:
        raise ExponentOverflowError(f"exponent {top} exceeds limit {EXPONENT_LIMIT}")
    return {m: _normalize_coeff(c) for m, c in out.items()}


def _ref_pow(ring, a, n):
    out = {(0,) * len(ring): 1}
    for _ in range(n):
        out = _ref_mul(ring, out, a)
    return out


def _ref_substitute(ring, a, images):
    out = {}
    for m, c in a.items():
        term = {(0,) * len(ring): c}
        for image, e in zip(images, m):
            term = _ref_mul(ring, term, _ref_pow(ring, image, e))
        out = _ref_add(out, term)
    return out


def _ref_sorted(ring, a):
    return sorted(a.items(), key=lambda item: _tuple_sort_key(ring, item[0]), reverse=True)


def _ref_monomial_text(ring, expo):
    """RingSpec.monomial_text before its table of factor strings."""
    factors = []
    for (name, _), e in zip(ring.vars, expo):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def _ref_str(ring, a):
    parts = []
    for expo, coeff in _ref_sorted(ring, a):
        mono, mag = _ref_monomial_text(ring, expo), abs(coeff)
        body = str(mag) if mono == "1" else mono if mag == 1 else f"{mag}*{mono}"
        sign = "-" if coeff < 0 else "+"
        parts.append(f"-{body}" if not parts and coeff < 0 else body if not parts else f"{sign} {body}")
    return " ".join(parts) or "0"


def _assert_matches_reference(ring, poly, ref):
    assert list(poly.terms.items()) == list(ref.items())
    assert [type(c) for c in poly.terms.values()] == [type(c) for c in ref.values()]
    assert poly.sorted_terms() == _ref_sorted(ring, ref)
    assert str(poly) == _ref_str(ring, ref)
    assert poly.degree() == max(map(ring.monomial_degree, ref), default=None)
    if ref:
        lead = max(ref, key=lambda m: _tuple_sort_key(ring, m))
        assert poly.leading_term() == (lead, ref[lead])
    same = Polynomial(ring, ref)
    assert poly == same and hash(poly) == hash(same)
    assert (poly == same + 1) is False


@st.composite
def _kernel_cases(draw):
    """A ring of 0-6 weighted variables and two term maps on it.

    Exponents are small, so that products collide, or next to EXPONENT_LIMIT;
    coefficients are ints or Fractions, some of which multiply to ints.
    """
    n = draw(st.integers(0, 6))
    ring = RingSpec.make((f"x{i}", draw(st.integers(1, 4))) for i in range(n))
    exponent = st.integers(0, 3)
    if draw(st.booleans()):
        exponent = st.one_of(exponent, st.integers(EXPONENT_LIMIT - 4, EXPONENT_LIMIT - 1))
    monomial = st.tuples(*[exponent] * n)
    coeff = st.one_of(st.integers(-4, 4), st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]))
    a = draw(st.dictionaries(monomial, coeff, max_size=6))
    b = draw(st.dictionaries(monomial, coeff, max_size=6))
    return ring, a, b


_X1 = RingSpec.make([("x1", 3)])


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
@example((RingSpec.make([]), {(): Fraction(1, 2)}, {(): 2}))
@example((_X1, {(2**30,): 1}, {(2**30,): Fraction(1, 2)}))  # the product reaches exactly 2^31
@example((_X1, {(2**31 - 1,): Fraction(2, 3), (1,): 3}, {(0,): Fraction(3, 2), (1,): -1}))
def test_packed_kernel_matches_tuple_kernel(case):
    ring, a, b = case
    p, q = Polynomial(ring, a), Polynomial(ring, b)
    a, b = p.terms, q.terms  # normalized, merged, zeros dropped: the reference's inputs
    _assert_matches_reference(ring, p, a)
    _assert_matches_reference(ring, p + q, _ref_add(a, b))
    _assert_matches_reference(ring, p - q, _ref_add(a, {m: -c for m, c in b.items()}))
    _assert_matches_reference(ring, -p, {m: -c for m, c in a.items()})
    try:
        expected = _ref_mul(ring, a, b)
    except ExponentOverflowError as exc:
        with pytest.raises(ExponentOverflowError, match=f"^{exc}$"):
            p * q
    else:
        _assert_matches_reference(ring, p * q, expected)
    if a and all(e < 4 for m in a for e in m):
        for n in range(4):
            power, expected = p**n, _ref_pow(ring, a, n)
            assert power.terms == expected
            _assert_matches_reference(ring, power, dict(power.terms))
        # x_i -> b for even i while b is small, else the constant i + 2
        small = len(b) <= 3 and all(e < 4 for m in b for e in m)
        images = [b if small and i % 2 == 0 else {(0,) * len(ring): i + 2} for i in range(len(ring))]
        mapping = {name: Polynomial(ring, image) for name, image in zip(ring.names, images)}
        got, expected = p.substitute(mapping, ring=ring), _ref_substitute(ring, a, images)
        assert got.terms == expected
        _assert_matches_reference(ring, got, dict(got.terms))


# -- the parser against the recursive-descent reference ---------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9_']*)|(?P<op>[-+*^()])"
)


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    """The parser as it was before the monomial path: a Polynomial per factor."""

    def __init__(self, text, ring):
        self.tokens = _reference_tokenize(text)
        self.ring = ring
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        poly = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return poly

    def expr(self):
        out = {}
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        while True:
            for expo, coeff in self.term().terms.items():
                s = out.get(expo, 0) + sign * coeff
                if s:
                    out[expo] = s
                else:
                    del out[expo]
            kind, value, _ = self.peek()
            if not (kind == "op" and value in "+-"):
                return Polynomial(self.ring, out)
            self.advance()
            sign = -1 if value == "-" else 1

    def term(self):
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self):
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.advance()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", offset)
            exponent = int(value)
            if exponent < 1:
                raise ParseError("exponent must be a positive integer", offset)
            if exponent >= EXPONENT_LIMIT:
                raise ParseError(f"exponent {exponent} exceeds limit {EXPONENT_LIMIT}", offset)
            return base**exponent
        return base

    def base(self):
        kind, value, offset = self.advance()
        if kind == "int":
            return Polynomial.constant(self.ring, int(value))
        if kind == "name":
            try:
                return Polynomial.variable(self.ring, value)
            except KeyError:
                raise ParseError(f"unknown variable {value!r}", offset) from None
        if kind == "op" and value == "(":
            if self.depth == NESTING_LIMIT:
                raise ParseError(f"parentheses nested deeper than {NESTING_LIMIT}", offset)
            self.depth += 1
            poly = self.expr()
            self.depth -= 1
            kind, value, offset = self.advance()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", offset)
            return poly
        raise ParseError(f"expected integer, variable or '(', got {value!r}", offset)


R_PRIMED = RingSpec.make([("x", 1), ("y'", 2), ("e1", 2), ("e2", 4)])


def _parse_outcome(parse, text):
    """The term items with their coefficient types, or the error's type, message and offset."""
    try:
        p = parse(text, R_PRIMED)
    except Exception as err:
        return type(err), str(err), getattr(err, "offset", None)
    return [(m, c, type(c)) for m, c in p.terms.items()]


def _assert_parsers_agree(text):
    expected = _parse_outcome(lambda t, r: _ReferenceParser(t, r).parse(), text)
    assert _parse_outcome(parse_poly, text) == expected
    return expected


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("0*e1^2147483647*e1", []),
        ("e1^2147483647*e1*zz", (ExponentOverflowError, "exponent 2147483648 exceeds limit 2147483648", None)),
        ("e1^2147483647*zz", (ParseError, "unknown variable 'zz' (at offset 14)", 14)),
        ("e1^2147483647*e1^2147483648", (ParseError, "exponent 2147483648 exceeds limit 2147483648 (at offset 17)", 17)),
        ("e1^2147483647*0*e1", []),
        ("2^3*e1", [((0, 0, 1, 0), 8, int)]),
        ("e1^0", (ParseError, "exponent must be a positive integer (at offset 3)", 3)),
        ("zz^0", (ParseError, "unknown variable 'zz' (at offset 0)", 0)),
        ("e1 e2", (ParseError, "unexpected trailing input 'e2' (at offset 3)", 3)),
        ("e1 x", (ParseError, "unexpected trailing input 'x' (at offset 3)", 3)),
        ("e1)", (ParseError, "unexpected trailing input ')' (at offset 2)", 2)),
        ("(x + y')\n*\te1 -\r\n3 ", [((1, 0, 1, 0), 1, int), ((0, 1, 1, 0), 1, int), ((0, 0, 0, 0), -3, int)]),
        ("(e1+e2)*e1^2*3", [((0, 0, 3, 0), 3, int), ((0, 0, 2, 1), 3, int)]),
        ("2*x*(x+y')^2*y'^2*0", []),
        ("x^2147483647*(x)", (ExponentOverflowError, "exponent 2147483648 exceeds limit 2147483648", None)),
        ("0*x^2147483647*x*(x)", []),
        ("-x*y' + y'*x", []),
        ("x*+y'", (ParseError, "expected integer, variable or '(', got '+' (at offset 2)", 2)),
        ("x^", (ParseError, "exponent must be an integer literal (at offset 2)", 2)),
        ("x @ y'", (ParseError, "unexpected character '@' (at offset 2)", 2)),
        ("x\u00a0*\u00a0\u0663", [((1, 0, 0, 0), 3, int)]),
        ("", (ParseError, "expected integer, variable or '(', got '' (at offset 0)", 0)),
        ("  ", (ParseError, "expected integer, variable or '(', got '' (at offset 2)", 2)),
    ],
)
def test_parser_planted_cases(text, outcome):
    assert _assert_parsers_agree(text) == outcome


_PARSE_NAMES = ("x", "y'", "e1", "e2")
_WORD = re.compile(r"[\w']")


@st.composite
def _grammar_tokens(draw, near_limit, depth=0):
    """Tokens of a sum of products of integers, names and parenthesised sums.

    With near_limit, two names take exponents near EXPONENT_LIMIT, so
    products overflow, and half the integers are 0; otherwise all four
    names take small exponents.
    """
    ints, names, exponent = [0, 1, 2, 3, 7, 12], _PARSE_NAMES, st.integers(1, 4)
    if near_limit:  # zero coefficients decide whether an overflow is raised
        ints, names, exponent = [0, 2], _PARSE_NAMES[:2], st.sampled_from([1, 2**30, 2**31 - 1])
    tokens = []
    if draw(st.booleans()):
        tokens.append(draw(st.sampled_from("+-")))
    for k in range(draw(st.integers(1, 3))):
        if k:
            tokens.append(draw(st.sampled_from("+-")))
        for f in range(draw(st.integers(1, 4))):
            if f:
                tokens.append("*")
            kind = draw(st.sampled_from(("int", "name", "paren")[: 3 if depth < 2 else 2]))
            if kind == "int":
                tokens.append(str(draw(st.sampled_from(ints))))
            elif kind == "name":
                tokens.append(draw(st.sampled_from(names)))
            else:
                tokens += ["(", *draw(_grammar_tokens(near_limit, depth + 1)), ")"]
            if draw(st.booleans()):
                tokens += ["^", str(draw(exponent) if kind == "name" else draw(st.integers(1, 3)))]
    return tokens


@st.composite
def _parser_inputs(draw):
    """Grammar strings, half of them edited (mostly into invalid ones), with random whitespace."""
    tokens = draw(_grammar_tokens(draw(st.booleans())))
    pool = st.sampled_from(["^", "*", "+", "(", ")", "0", "x", "zz", "@", "\u0663", str(2**40)])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"])) if i < len(tokens) else "insert"
        if edit == "delete":
            del tokens[i]
        else:
            tokens[i : i + (edit == "replace")] = [draw(pool)]
    # integer and parenthesised bases get small exponents only: a large one
    # hangs both parsers (the power is computed, not bounded)
    for i in range(1, len(tokens) - 1):
        base, exponent = tokens[i - 1], tokens[i + 1]
        if tokens[i] == "^" and (base == ")" or base.isdigit()) and exponent.isdigit():
            tokens[i + 1] = str(int(exponent) % 4)
    space = st.sampled_from(["", " ", "  ", "\n", "\t", "\u00a0"])
    text = ""
    for token in tokens:
        gap = draw(space)
        if not gap and text and _WORD.match(text[-1]) and _WORD.match(token[0]):
            gap = " "  # keep the tokens apart: "2" "3" must not read as 23
        text += gap + token
    return text + draw(space)


@settings(max_examples=400, deadline=None)
@given(_parser_inputs())
def test_parser_matches_reference(text):
    _assert_parsers_agree(text)


# -- the one variable map against substitute ---------------------------------

# exponents mostly small, some one merge away from EXPONENT_LIMIT
_MAP_EXPONENTS = st.one_of(st.integers(0, 4), st.integers(0, 4), st.just(EXPONENT_LIMIT - 1))
_MAP_COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-3, 2)]))


def _map_poly(draw, ring, used):
    """A polynomial of ``ring`` whose terms use only the variables in ``used``."""
    n = len(ring)
    expo = st.tuples(*(_MAP_EXPONENTS if i in used else st.just(0) for i in range(n)))
    return Polynomial(ring, draw(st.dictionaries(expo, _MAP_COEFFS, max_size=6)))


def _assert_same_outcome(got, expected):
    """got() equals expected(), coefficient types included, or both overflow."""
    try:
        want = expected()
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            got()
        return
    result = got()
    assert result.ring == want.ring and result == want and str(result) == str(want)
    assert [type(c) for _, c in result] == [type(c) for _, c in want]


@st.composite
def _signed_actions(draw):
    n = draw(st.integers(0, 6))
    ring = RingSpec.make((f"x{i}", draw(st.integers(1, 4))) for i in range(n))
    perm = tuple(draw(st.permutations(range(n))))
    signs = tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    return ring, SignedPermutation(perm, signs, "B"), _map_poly(draw, ring, range(n))


_ACT_RING = RingSpec.make([("x0", 1), ("x1", 2), ("x2", 3), ("x3", 4)])


@settings(max_examples=300, deadline=None)
@given(_signed_actions())
# three flipped variables, with exponents of 2 and more
@example(
    (
        _ACT_RING,
        SignedPermutation((2, 0, 3, 1), (-1, 1, -1, -1), "B"),
        Polynomial(
            _ACT_RING,
            {(2, 1, 3, 0): 5, (3, 0, 2, 5): -1, (4, 4, 4, 4): Fraction(1, 2), (0, 0, 0, 2**31 - 1): 2},
        ),
    )
)
def test_apply_action_is_its_substitution(case):
    ring, g, p = case
    mapping = {
        name: sign * Polynomial.variable(ring, ring.names[j])
        for name, j, sign in zip(ring.names, g.perm, g.signs)
    }
    _assert_same_outcome(lambda: apply_action(g, p), lambda: p.substitute(mapping, ring=ring))


@st.composite
def _renamings(draw):
    """A ring, a target ring and a renaming that keeps degrees, and a polynomial.

    Each source variable is sent to a target variable, several possibly to
    one, or to a name the target lacks, in which case the polynomial does
    not use it.
    """
    k = draw(st.integers(0, 6))
    target = RingSpec.make((f"y{j}", draw(st.integers(1, 4))) for j in range(k))
    n = draw(st.integers(0, 6))
    images = [draw(st.integers(-1, k - 1)) for _ in range(n)]
    weights = [target.degrees[j] if j >= 0 else draw(st.integers(1, 4)) for j in images]
    ring = RingSpec.make((f"x{i}", w) for i, w in enumerate(weights))
    renaming = {f"x{i}": f"y{j}" for i, j in enumerate(images) if j >= 0}
    used = [i for i, j in enumerate(images) if j >= 0]
    return ring, target, renaming, _map_poly(draw, ring, used)


_RN_SOURCE = RingSpec.make([("x0", 2), ("x1", 2), ("x2", 1)])
_RN_TARGET = RingSpec.make([("y0", 2), ("y1", 1)])
_RN_MERGE = {"x0": "y0", "x1": "y0", "x2": "y1"}
_RN_WIDE = RingSpec.make((f"x{i}", 1) for i in range(4))
_RN_ONE = RingSpec.make([("y0", 1)])


@settings(max_examples=300, deadline=None)
@given(_renamings())
# two variables merge, and their terms add up
@example((_RN_SOURCE, _RN_TARGET, _RN_MERGE, Polynomial(_RN_SOURCE, {(2, 0, 1): 1, (1, 1, 1): 3})))
# the merge cancels to 0
@example((_RN_SOURCE, _RN_TARGET, _RN_MERGE, Polynomial(_RN_SOURCE, {(2, 0, 0): 1, (0, 2, 0): -1})))
# the target lacks x2, which the polynomial does not use
@example((_RN_SOURCE, _RN_TARGET, {"x0": "y0", "x1": "y0"}, Polynomial(_RN_SOURCE, {(1, 3, 0): -2})))
# the merge reaches EXPONENT_LIMIT
@example((_RN_SOURCE, _RN_TARGET, _RN_MERGE, Polynomial(_RN_SOURCE, {(2**30, 2**30, 0): 1})))
# two terms' images pass EXPONENT_LIMIT and cancel: substitute raises, so must rename_into
@example(
    (
        _RN_WIDE,
        _RN_ONE,
        {"x0": "y0", "x1": "y0", "x2": "y0"},
        Polynomial(_RN_WIDE, {(2**31 - 1, 1, 2**31 - 1, 0): -1, (1, 2**31 - 1, 2**31 - 1, 0): 1}),
    )
)
def test_rename_into_is_its_substitution(case):
    ring, target, renaming, p = case
    mapping = {old: Polynomial.variable(target, new) for old, new in renaming.items()}
    _assert_same_outcome(
        lambda: p.rename_into(target, renaming), lambda: p.substitute(mapping, ring=target)
    )


def test_rename_into_errors():
    p = Polynomial(_RN_SOURCE, {(1, 0, 1): 1})
    with pytest.raises(ValueError, match=r"^degree mismatch renaming x0 \(deg 2\) to y1 \(deg 1\)$"):
        p.rename_into(_RN_TARGET, {"x0": "y1", "x2": "y1"})
    with pytest.raises(KeyError, match="unknown variable 'x2'"):
        p.rename_into(_RN_TARGET, {"x0": "y0"})
    with pytest.raises(ExponentOverflowError):
        Polynomial(_RN_SOURCE, {(2**31 - 1, 1, 0): 1}).rename_into(_RN_TARGET, _RN_MERGE)
