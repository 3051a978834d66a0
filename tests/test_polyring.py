"""Polynomial kernel: parsing, exact arithmetic, grading, canonical printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slcc.polyring import (
    NESTING_LIMIT,
    ExponentOverflowError,
    ParseError,
    Polynomial,
    RingMismatchError,
    RingSpec,
    UnmappedVariableError,
    _normalize_coeff,
    parse_poly,
)

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


def test_exponent_overflow_detected():
    with pytest.raises(ExponentOverflowError):
        Polynomial(R2, {(2**31, 0): 1})


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
