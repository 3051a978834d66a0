"""Euler/Borel calculus on split bundles."""

import itertools
import re

import pytest

from slcc import charclass as cc
from slcc import symfunc
from slcc.polyring import Polynomial, RingSpec, parse_poly


def test_euler_rank_two():
    b = cc.SplitBundle(("e1",))
    assert str(cc.euler(b)) == "e1"
    assert b.rank == 2


def test_euler_odd_rank_vanishes():
    b = cc.SplitBundle(("e1", "e2"), odd_part=True)
    assert b.rank == 5
    assert cc.euler(b).is_zero()


def test_euler_orientation_flip():
    b = cc.SplitBundle(("e1", "e2"), orientation=-1)
    assert str(cc.euler(b)) == "-e1*e2"


def test_total_borel_one_symbol():
    s = cc.total_borel(cc.SplitBundle(("e1",)), 3)
    assert s.texts() == ["1", "-e1^2", "0", "0"]


def test_total_borel_two_symbols():
    s = cc.total_borel(cc.SplitBundle(("e1", "e2")), 2)
    assert s.texts() == ["1", "-e1^2 - e2^2", "e1^2*e2^2"]


def test_total_borel_trivial():
    assert cc.total_borel(cc.SplitBundle(()), 2).texts() == ["1", "0", "0"]


def test_total_borel_epsilon_plus():
    s = cc.total_borel(cc.SplitBundle(("e1",)), 2, epsilon=1)
    assert s.texts() == ["1", "e1^2", "0"]


def test_complement_borel_examples():
    geo = cc.complement_borel(cc.SplitBundle(("e1",)), 4, 3)
    assert geo.texts() == ["1", "e1^2", "e1^4", "e1^6"]
    k2 = cc.complement_borel(cc.SplitBundle(("e1", "e2")), 6, 2)
    assert str(k2[2]) == "e1^4 + e1^2*e2^2 + e2^4"
    assert cc.complement_borel(cc.SplitBundle(()), 3, 2).texts() == ["1", "0", "0"]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_whitney_sum(k):
    b = cc.SplitBundle.standard(k)
    ring = cc.bundle_ring(b)
    for j in range(1, k):
        b1 = cc.SplitBundle(b.euler_symbols[:j])
        b2 = cc.SplitBundle(b.euler_symbols[j:])
        lhs = cc.total_borel(b, 8, ring=ring)
        rhs = cc.total_borel(b1, 8, ring=ring) * cc.total_borel(b2, 8, ring=ring)
        assert lhs.coefficients == rhs.coefficients
        assert cc.euler(b, ring) == cc.euler(b1, ring) * cc.euler(b2, ring)


def test_whitney_with_odd_part():
    b1 = cc.SplitBundle(("e1",), odd_part=True)
    b2 = cc.SplitBundle(("e2",))
    total = cc.SplitBundle(("e1", "e2"), odd_part=True)  # b1 + b2
    ring = cc.bundle_ring(total)
    assert total.odd_part and total.rank == 5
    assert cc.euler(total, ring).is_zero()
    lhs = cc.total_borel(total, 6, ring=ring)
    rhs = cc.total_borel(b1, 6, ring=ring) * cc.total_borel(b2, 6, ring=ring)
    assert lhs.coefficients == rhs.coefficients


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_inverse_series_identity(k):
    b = cc.SplitBundle.standard(k)
    ring = cc.bundle_ring(b)
    prod = cc.total_borel(b, 10, ring=ring) * cc.complement_borel(b, 2 * k + 1, 10, ring=ring)
    assert prod.coefficients[0] == Polynomial.one(ring)
    assert all(c.is_zero() for c in prod.coefficients[1:])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_complement_coefficients_are_complete_polynomials(k):
    b = cc.SplitBundle.standard(k)
    ring = cc.bundle_ring(b)
    comp = cc.complement_borel(b, 2 * k + 1, 6, ring=ring)
    mapping = {f"x{j}": Polynomial.variable(ring, f"e{j}") ** 2 for j in range(1, k + 1)}
    for i in range(7):
        expected = symfunc.complete(i, symfunc.x_ring(k)).substitute(mapping, ring=ring)
        assert comp[i] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cor_dual(n):
    rep = cc.verify_cor_dual(cc.SplitBundle.standard(n), order=10)
    assert rep.passed
    names = [name for name, _ in rep.checks]
    assert "odd_pontryagin_vanish" in names
    assert f"b_i_zero_for_i_gt_{n}" in names


def test_top_borel_examples():
    one = cc.total_borel(cc.SplitBundle(("e1",)), 2)
    assert one[1] == parse_poly("-e1^2", cc.bundle_ring(cc.SplitBundle(("e1",))))
    two = cc.SplitBundle(("e1", "e2"))
    ring = cc.bundle_ring(two)
    assert cc.total_borel(two, 2, ring=ring)[2] == cc.euler(two, ring) ** 2


def test_pontryagin_series_structure():
    b = cc.SplitBundle.standard(2)
    pont = cc.pontryagin_series(b, 8)
    assert all(p.is_zero() for p in pont[1::2])
    borel = cc.total_borel(b, 4)
    assert pont[4] == borel[2]


def test_bundle_validation():
    with pytest.raises(ValueError):
        cc.SplitBundle(("e1", "e1"))
    with pytest.raises(ValueError):
        cc.SplitBundle(("e1",), orientation=2)


def test_duality_is_invisible():
    b = cc.SplitBundle(("e1", "e2"))
    assert b.dual() == b
    assert cc.euler(b.dual()) == cc.euler(b)


def _euler_by_product(b, ring):
    """euler() as a product loop over the symbols, kept as its reference."""
    if b.odd_part:
        return Polynomial.zero(ring)
    out = Polynomial.constant(ring, b.orientation)
    for s in b.euler_symbols:
        out = out * Polynomial.variable(ring, s)
    return out


def _total_borel_by_whitney(b, order, epsilon, ring):
    """total_borel()'s coefficients as the Whitney product loop over the
    summands, each a factor 1 + epsilon * e^2 t^2, kept as its reference."""
    coeffs = [Polynomial.one(ring)] + [Polynomial.zero(ring)] * order
    for s in b.euler_symbols:
        factor = Polynomial.variable(ring, s) ** 2 * epsilon
        for k in range(order, 0, -1):
            coeffs[k] = coeffs[k] + coeffs[k - 1] * factor
    return coeffs


# a larger ring than any bundle's: the symbols interleaved with variables of other degrees
_BIG = RingSpec.make([("e1", 2), ("t", 1), ("e2", 2), ("e3", 2), ("u", 4), ("e4", 2), ("e5", 2)])
_SYMBOLS = ("e1", "e2", "e3", "e4", "e5")


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("epsilon", [-1, 1])
def test_classes_match_product_loops(epsilon, orientation):
    # every subset of the symbols, in ascending and descending order, odd or even
    for r in range(len(_SYMBOLS) + 1):
        for combo in itertools.combinations(_SYMBOLS, r):
            for names, odd in itertools.product((combo, combo[::-1]), (False, True)):
                b = cc.SplitBundle(names, odd, orientation)
                for ring in (_BIG, cc.bundle_ring(b)):
                    assert cc.euler(b, ring) == _euler_by_product(b, ring)
                    for order in range(9):
                        series = cc.total_borel(b, order, epsilon, ring)
                        expected = _total_borel_by_whitney(b, order, epsilon, ring)
                        assert list(series.coefficients) == expected
                        assert series.texts() == [str(c) for c in expected]


@pytest.mark.parametrize(
    "order, epsilon, message",
    [(-1, -1, "order must be non-negative"), (3, 0, "epsilon must be +1 or -1")],
)
def test_total_borel_refuses(order, epsilon, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cc.total_borel(cc.SplitBundle(("e1",)), order, epsilon)


def test_complement_refuses_negative_order():
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        cc.complement_borel(cc.SplitBundle(("e1",)), 3, -1)
    assert cc.complement_borel(cc.SplitBundle(("e1",)), 3, 0).texts() == ["1"]
