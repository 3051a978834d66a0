"""Symmetric function engine against its independent oracles."""

from math import comb

import pytest

from slcc import symfunc
from slcc.polyring import Polynomial, RingSpec, parse_poly
from slcc.symfunc import complete, elementary, g_poly, in_squares, x_ring


def test_elementary_examples():
    r2 = x_ring(2)
    assert elementary(1, r2) == parse_poly("x1 + x2", r2)
    assert elementary(3, r2).is_zero()
    assert elementary(0, r2) == Polynomial.one(r2)
    r3 = x_ring(3)
    assert elementary(2, r3) == parse_poly("x1*x2 + x1*x3 + x2*x3", r3)


def test_complete_examples():
    r2 = x_ring(2)
    assert complete(0, r2) == Polynomial.one(r2)
    assert complete(2, r2) == parse_poly("x1^2 + x1*x2 + x2^2", r2)
    r1 = x_ring(1)
    assert complete(5, r1) == parse_poly("x1^5", r1)


@pytest.mark.parametrize("i", range(0, 7))
@pytest.mark.parametrize("v", range(1, 5))
def test_complete_term_count(i, v):
    # all coefficients 1, count C(i + v - 1, v - 1)
    p = complete(i, x_ring(v))
    assert all(c == 1 for c in p.terms.values())
    assert len(p.terms) == comb(i + v - 1, v - 1)


def test_in_squares_example():
    r2 = x_ring(2)
    assert in_squares(parse_poly("3*x1 - x1*x2^2 + 5", r2)) == parse_poly(
        "3*x1^2 - x1^2*x2^4 + 5", r2
    )


@pytest.mark.parametrize("fn", [elementary, complete])
@pytest.mark.parametrize("names", [None, (), ("v2",), ("v1", "v3"), ("v4", "v1", "v3")])
@pytest.mark.parametrize("i", range(0, 6))
def test_in_squares_against_substitution_oracle(i, names, fn):
    ring = RingSpec.make((f"v{j}", 2) for j in range(1, 5))
    chosen = ring.names if names is None else names
    squares = {f"x{j}": Polynomial.variable(ring, v) ** 2 for j, v in enumerate(chosen, start=1)}
    oracle = fn(i, x_ring(len(chosen))).substitute(squares, ring=ring)
    assert in_squares(fn(i, ring, names)) == oracle


def test_g_poly_examples():
    for m in (1, 2, 3):
        assert str(g_poly(1, m)) == "sigma1"
    assert str(g_poly(2, 2)) == "sigma1^2 - sigma2"
    for n in (1, 2, 5):
        g = g_poly(n, 1)
        assert g == Polynomial.variable(g.ring, "sigma1") ** n


def test_g_poly_weighted_homogeneous():
    for m in (1, 2, 3, 4):
        for i in range(0, 9):
            g = g_poly(i, m)
            assert g.is_zero() or g.homogeneous_degree() == i


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("i", range(0, 9))
def test_g_poly_substitution_oracle(i, m):
    ring = x_ring(m)
    mapping = {f"sigma{j}": elementary(j, ring) for j in range(1, m + 1)}
    assert g_poly(i, m).substitute(mapping, ring=ring) == complete(i, ring)


def test_g_poly_memoized():
    assert g_poly(4, 3) is g_poly(4, 3)


@pytest.mark.parametrize("l", range(1, 5))
@pytest.mark.parametrize("k", range(0, 9))
def test_h_split_identity(k, l):
    assert symfunc.verify_h_split(k, l)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("i", range(1, 9))
def test_h_peel_identity(i, n):
    assert symfunc.verify_h_peel(i, n)


@pytest.mark.parametrize("v", range(1, 5))
def test_generating_function_to_order_12(v):
    assert symfunc.generating_function_check(v, 12)
