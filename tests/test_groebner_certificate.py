"""An independent certificate of the Groebner engine's bases.

The certificate reads a basis as plain data, a dict from exponent tuple to
coefficient per polynomial, and shares no code with slcc: it decodes the
packed monomials by their documented layout (bits 64i to 64i + 63 of a
packed int hold the exponent of x_i), and it has its own weighted grevlex
order, naive division and S-polynomials.  A tracked basis passes when

- it is reduced and monic: every lead coefficient is 1, and no lead divides
  a term of another element;
- every generator of the ideal reduces to 0 by it, so the ideal lies in the
  ideal of the basis;
- every S-polynomial of two elements whose leads share a variable reduces to
  0 (Buchberger's criterion; pairs with coprime leads always do), so the
  basis is a Groebner basis of the ideal it generates;
- each element equals sum_j c_j * g_j over the generators g_j, with the c_j
  its representation, so the ideal of the basis lies in the ideal.

So it is the reduced Groebner basis of the ideal, which is unique: the
untracked run must return the same polynomials.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import add, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from slcc import groebner, presentations, weyl
from slcc.groebner import Ideal
from slcc.polyring import Polynomial, RingSpec
from test_presentations import _presentable_matrix

FIELD = (1 << 64) - 1


def _plain(packed: dict, n: int) -> dict:
    """A packed term map as {exponent tuple: coefficient}."""
    return {tuple((m >> 64 * i) & FIELD for i in range(n)): c for m, c in packed.items()}


def _grevlex(weights):
    """The sort key of weighted grevlex: the weighted degree, then the
    exponents from the last variable on, where the smaller one wins."""
    return lambda m: (sum(map(int.__mul__, weights, m)), tuple(-e for e in reversed(m)))


def _divides(a, b) -> bool:
    return all(map(int.__le__, a, b))


def _add_multiple(p: dict, c, shift: tuple, q: dict) -> None:
    """p += c * x^shift * q, in place."""
    for m, d in q.items():
        t = tuple(map(add, m, shift))
        s = p.get(t, 0) + c * d
        if s:
            p[t] = s
        else:
            p.pop(t, None)


def _remainder(p: dict, divisors: list, key) -> dict:
    """The remainder of p by naive division by monic divisors, (lead, poly) pairs."""
    p, rest = dict(p), {}
    while p:
        m = max(p, key=key)
        for lead, g in divisors:
            if _divides(lead, m):
                _add_multiple(p, -p[m], tuple(map(sub, m, lead)), g)
                break
        else:
            rest[m] = p.pop(m)
    return rest


def _certify(weights, gens: list, basis: list, reps: list) -> None:
    key = _grevlex(weights)
    assert all(basis)
    divisors = [(max(g, key=key), g) for g in basis]
    for i, (lead, g) in enumerate(divisors):
        assert g[lead] == 1
        assert not any(_divides(lead, m) for j, h in enumerate(basis) if j != i for m in h)
    for f in gens:
        assert not _remainder(f, divisors, key)
    for (a, f), (b, g) in combinations(divisors, 2):
        if any(x and y for x, y in zip(a, b)):
            lcm = tuple(map(max, a, b))
            s: dict = {}
            _add_multiple(s, 1, tuple(map(sub, lcm, a)), f)
            _add_multiple(s, -1, tuple(map(sub, lcm, b)), g)
            assert not _remainder(s, divisors, key)
    assert len(reps) == len(basis)
    for g, rep in zip(basis, reps):
        assert len(rep) == len(gens)
        total: dict = {}
        for c, f in zip(rep, gens):
            for m, d in c.items():
                _add_multiple(total, d, m, f)
        assert total == g


def _certify_ideal(ideal: Ideal) -> list:
    """Certify the tracked and the untracked basis of ideal; returns the plain basis."""
    n = len(ideal.ring)
    tracked = groebner._buchberger(ideal, track=True)
    basis = [_plain(g._terms, n) for g in tracked.basis]
    reps = [[_plain(c, n) for c in row] for row in tracked.representations]
    gens = [_plain(g._terms, n) for g in ideal.generators]
    _certify(ideal.ring.degrees, gens, basis, reps)
    untracked = groebner._buchberger(ideal, track=False)
    assert untracked.representations is None
    assert [_plain(g._terms, n) for g in untracked.basis] == basis
    return basis


def test_certificate_refuses_what_is_not_a_reduced_basis():
    # the certificate itself: x^2 + y^2, xy in unit weights is not a Groebner
    # basis (S = y^3 is left over), and not monic once scaled
    weights = (1, 1)
    f, g = {(2, 0): 1, (0, 2): 1}, {(1, 1): 1}
    units = [[{(0, 0): 1}, {}], [{}, {(0, 0): 1}]]
    with pytest.raises(AssertionError):
        _certify(weights, [f, g], [f, g], units)
    with pytest.raises(AssertionError):
        _certify(weights, [f], [{(2, 0): 2, (0, 2): 2}], [[{(0, 0): Fraction(1, 2)}]])
    # y^3 completes it; a wrong representation for it is refused
    basis = [f, g, {(0, 3): 1}]
    reps = units + [[{(0, 1): 1}, {(1, 0): -1}]]
    _certify(weights, [f, g], basis, reps)
    with pytest.raises(AssertionError):
        _certify(weights, [f, g], basis, units + [[{(0, 1): 1}, {}]])


@pytest.mark.parametrize("reversed_", [False, True], ids=["canonical", "reversed"])
@pytest.mark.parametrize("kind,params", _presentable_matrix())
def test_presentation_bases_are_certified(kind, params, reversed_):
    ideal = presentations.build(kind, **params).ideal
    _certify_ideal(ideal.reversed() if reversed_ else ideal)


@pytest.mark.parametrize("reversed_", [False, True], ids=["canonical", "reversed"])
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("group", ["B", "D"])
def test_coinvariant_bases_are_certified(group, n, reversed_):
    ideal = weyl.coinvariant_ideal(group, n)
    _certify_ideal(ideal.reversed() if reversed_ else ideal)


def _monomials(weights, degree):
    """Every exponent tuple of this weighted degree."""
    boxes = (range(degree // w + 1) for w in weights)
    return [m for m in product(*boxes) if sum(map(int.__mul__, weights, m)) == degree]


def _random_weighted_ideal(seed: int) -> Ideal:
    """0-6 variables of weight 1-4, and 1-4 homogeneous generators of
    degree at most 6 with 1-4 terms and coefficients up to 3 in size;
    sometimes a nonzero constant too (the unit ideal), and 0-2 generators
    that the others already generate (a monomial multiple of one, plus a
    multiple of another of the same degree).

    Hypothesis draws only the seed: drawn one by one, its choices lean to
    the first item of each list and to the lowest numbers, which makes most
    ideals principal or the unit ideal."""
    rnd = random.Random(seed)
    weights = tuple(rnd.randint(1, 4) for _ in range(rnd.randint(0, 6)))
    one = (0,) * len(weights)
    degree = lambda p: sum(map(int.__mul__, weights, next(iter(p))))  # noqa: E731
    coeff = lambda: rnd.choice([-3, -2, -1, 1, 2, 3])  # noqa: E731
    degrees = [d for d in range(1, 7) if _monomials(weights, d)]
    gens = []
    for _ in range(rnd.randint(1, 4) if degrees else 0):
        monos = _monomials(weights, rnd.choice(degrees))
        gens.append({m: coeff() for m in rnd.sample(monos, min(len(monos), rnd.randint(1, 4)))})
    if rnd.random() < 0.1:
        gens.append({one: coeff()})
    for _ in range(rnd.randint(0, 2) if gens else 0):
        f, g = rnd.choice(gens), rnd.choice(gens)
        extra: dict = {}
        _add_multiple(extra, coeff(), rnd.choice(_monomials(weights, rnd.randint(0, 2)) or [one]), f)
        if degree(extra) == degree(g):
            _add_multiple(extra, coeff(), one, g)
        if extra:
            gens.append(extra)
    ring = RingSpec.make([(f"x{i}", w) for i, w in enumerate(weights)])
    return Ideal.make(ring, [Polynomial(ring, g) for g in gens])


_WEIGHTED_IDEALS = st.integers(0, 2**64).map(_random_weighted_ideal)
_XYZ = RingSpec.make([("x", 1), ("y", 2), ("z", 3)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_WEIGHTED_IDEALS)
# no variables: the zero ideal and the unit ideal
@example(Ideal.make(RingSpec.make([]), []))
@example(Ideal.make(RingSpec.make([]), [Polynomial.constant(RingSpec.make([]), 3)]))
# lead coefficients 2 and 3: the reduced basis has Fraction coefficients
@example(
    Ideal.make(
        _XYZ,
        [
            Polynomial(_XYZ, {(2, 0, 0): 2, (0, 1, 0): 3}),
            Polynomial(_XYZ, {(1, 1, 0): 3, (0, 0, 1): 2}),
        ],
    )
)
# a unit ideal given by non-minimal generators
@example(
    Ideal.make(
        _XYZ,
        [
            Polynomial(_XYZ, {(1, 0, 0): 2}),
            Polynomial(_XYZ, {(3, 0, 0): 2}),
            Polynomial(_XYZ, {(0, 0, 0): -2}),
        ],
    )
)
def test_random_weighted_bases_are_certified(ideal):
    basis = _certify_ideal(ideal)
    constants = [g for g in ideal.generators if g.homogeneous_degree() == 0]
    assert (basis == [{(0,) * len(ideal.ring): 1}]) == bool(constants)


def test_random_weighted_ideals_reach_fractions_and_unit_ideals():
    # the strategy's reach, on a fixed draw: rational coefficients, unit
    # ideals, zero variables, six variables and weights up to 4 all occur
    seen: Counter = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_WEIGHTED_IDEALS)
    def tally(ideal):
        basis = groebner.groebner_basis(ideal).basis
        seen["fraction"] += any(type(c) is Fraction for g in basis for c in g._terms.values())
        seen["unit"] += any(g.homogeneous_degree() == 0 for g in ideal.generators)
        seen["no variables"] += not len(ideal.ring)
        seen["six variables"] += len(ideal.ring) == 6
        seen["weight 4"] += 4 in ideal.ring.degrees

    tally()
    assert all(seen[k] for k in ("fraction", "unit", "no variables", "six variables", "weight 4")), seen


def _up_to(weights, degree: int) -> list:
    """Every exponent tuple of weighted degree at most ``degree``."""
    return [m for d in range(degree + 1) for m in _monomials(weights, d)]


def _certify_truncated(ideal: Ideal, rnd: random.Random) -> None:
    """Certify the runs of ideal truncated at every degree d up to its top
    generator degree + 2: the truncated basis is monic, reduces to 0 every
    generator and every S-pair whose leads share a variable up to degree d,
    and gives the full basis's remainder (so its membership verdict) on
    random polynomials of degree <= d and on combinations of the generators."""
    weights, n = ideal.ring.degrees, len(ideal.ring)
    key = _grevlex(weights)
    degree = lambda m: sum(map(int.__mul__, weights, m))  # noqa: E731
    coeff = lambda: rnd.choice([-3, -2, -1, 1, 2, 3])  # noqa: E731
    full = [_plain(g._terms, n) for g in groebner.groebner_basis(ideal).basis]
    full = [(max(g, key=key), g) for g in full]
    gens = [_plain(g._terms, n) for g in ideal.generators]
    top = max((degree(next(iter(f))) for f in gens), default=0)
    for d in range(top + 3):
        basis = [_plain(g._terms, n) for g in groebner._buchberger(ideal, False, d).basis]
        divisors = [(max(g, key=key), g) for g in basis]
        assert all(g[lead] == 1 for lead, g in divisors)
        for f in gens:
            if degree(next(iter(f))) <= d:
                assert not _remainder(f, divisors, key)
        for (a, f), (b, g) in combinations(divisors, 2):
            lcm = tuple(map(max, a, b))
            if any(x and y for x, y in zip(a, b)) and degree(lcm) <= d:
                s: dict = {}
                _add_multiple(s, 1, tuple(map(sub, lcm, a)), f)
                _add_multiple(s, -1, tuple(map(sub, lcm, b)), g)
                assert not _remainder(s, divisors, key)
        monos = _up_to(weights, d)
        for _ in range(3):
            terms = rnd.sample(monos, min(len(monos), rnd.randint(1, 4)))
            combo: dict = {}
            for f in gens:
                gap = d - degree(next(iter(f)))
                if gap >= 0 and rnd.random() < 0.7:
                    _add_multiple(combo, coeff(), rnd.choice(_up_to(weights, gap)), f)
            for p in ({m: coeff() for m in terms}, combo):
                assert _remainder(p, divisors, key) == _remainder(p, full, key)


def test_truncated_runs_are_certified():
    # at least 50 drawn ideals, each at every bound from 0 to its top
    # generator degree + 2; one seed draws the ideal and the test polynomials
    ideals = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**64))
    def certify(seed):
        ideal = _random_weighted_ideal(seed)
        _certify_truncated(ideal, random.Random(~seed))
        ideals.add(ideal)

    certify()
    assert len(ideals) >= 50
