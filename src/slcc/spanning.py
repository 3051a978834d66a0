"""Spanning sets of Z[e_1..e_n] over the Weyl invariant rings, constructively.

The spanning monomials are

    type B:  e_1^{m_1} ... e_n^{m_n}            with 0 <= m_i <= 2(n-i)+1
    type D:  u_1 ... u_{n-1}                    with u_i = e_i^{m_i},
             0 <= m_i <= 2(n-i), or u_i = e_{i+1} e_{i+2} ... e_n

of cardinality 2^n n! resp. 2^{n-1} n! (the Weyl group orders).  Z[e] is
free over the invariant ring with this basis, so every polynomial has unique
invariant coordinates, and reduce() may compute them by any exact method.  It
divides by the coinvariant ideal I = (g_1, g_2, ...), the invariant
generators, under grevlex with the variables reversed (e_n > ... > e_1),
that is in the reversed ring of Ideal.reversed, through one tracked
division (groebner.tracked_division):

* p = sum_i c_i * g_i + r, where r is a combination of standard monomials of
  I; its coordinates sit at s^0, and each cofactor c_i is decomposed in turn
  and multiplied by s_i (or t).
* In type B the standard monomials are exactly the basis.  In type D (n >= 3)
  some are not; each of those is rewritten as basis monomials plus an
  element of I, by an exact change of basis over Q in its degree, which a
  call builds the first time one of its remainders reaches that degree:
  groebner.staircase_echelon over the basis monomials of that degree alone,
  generated as packed ints of the reversed ring (power_or_tail restricted
  to the degree), never the whole basis.  The table it leaves is keyed by
  packed monomials, as the remainders are.

The work is a heap of invariant monomials s^beta in increasing degree, each
holding the terms still to be divided at it: one division per s^beta, whose
remainder gives the coordinates at s^beta and whose cofactor i moves on to
s^(beta + e_i), a higher degree.  beta is a packed int of
weyl.invariant_ring, so s^beta * s_i is beta plus s_i packed, and the heap
holds -beta, whose least is of the lowest degree; the order within a degree
is free, since each waiting s^beta is complete once every lower degree is
divided.  Every sum into a term map is one polyring.multiply_packed.

Decomposition coefficients live in the abstract invariant rings
weyl.invariant_ring: Z[s_1..s_n] (B) or Z[s_1..s_{n-1}, t] (D) with
deg s_i = 4i, deg t = 2n; expand() substitutes weyl.invariant_generators,
named by the same ring, back and must reproduce the target exactly.  The
Weyl-group data (witness exponents, group orders, the invariant ring) are
weyl's; this module only reads them.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from functools import lru_cache
from operator import le

from . import series, weyl
from .groebner import Ideal, echelon_reduce, groebner_basis, staircase_echelon, tracked_division
from .polyring import (
    Coefficient,
    Monomial,
    Polynomial,
    RingMismatchError,
    RingSpec,
    _normalize_coeff,
    _record,
    multiply_packed,
    reverse_terms,
)

__all__ = [
    "FreenessReport",
    "SpanDecomposition",
    "SpanningBasis",
    "basis",
    "expand",
    "power_or_tail",
    "reduce",
    "verify_free",
]


@_record
class SpanningBasis:
    group: str
    n: int
    monomials: tuple[Monomial, ...]  # exponent tuples in Z[e_1..e_n]

    def __len__(self) -> int:
        return len(self.monomials)

    def texts(self) -> list[str]:
        ring = weyl.e_ring(self.n)
        return [ring.monomial_text(m) for m in self.monomials]


def power_or_tail(ring: RingSpec, bounds: Sequence[int], tail: bool) -> tuple[Monomial, ...]:
    """Products u_1 ... u_r over the first r = len(bounds) variables of ``ring``.

    u_i is x_i^m with 0 <= m <= bounds[i-1] or, when ``tail`` is set, the
    product of every later variable of the ring.  Deduplicated, in ascending
    canonical order.  The products are built as packed ints (_products),
    whose descending order is the ascending canonical one, and unpacked
    together in one pass.
    """
    layout = ring.packing
    return tuple(layout.unpack_all(sorted(_products(layout.variables, bounds, tail), reverse=True)))


def _products(xs: Sequence[int], bounds: Sequence[int], tail: bool, degree: int | None = None) -> set[int]:
    """The products of power_or_tail as a set of packed ints (polyring.Packing).

    ``xs`` are the ring's variables, packed, in the order the choices read
    them, so a caller may pack into the reversed ring.  Packing is linear, so
    a product is a sum.  With ``degree`` only the products of that degree
    are kept: the degree sits above the fields of a packed int, and a
    partial product past it is dropped as soon as it is made.
    """
    shift = 64 * len(xs)
    products = {0}
    for i, bound in enumerate(bounds):
        choices = [m * xs[i] for m in range(bound + 1)]
        if tail:
            choices.append(sum(xs[i + 1 :]))
        products = {p + u for p in products for u in choices}
        if degree is not None:
            products = {p for p in products if p >> shift >= -degree}
    if degree is not None:
        products = {p for p in products if p >> shift == -degree}
    return products


@lru_cache(maxsize=32)
def _bounds(group: str, n: int) -> tuple[int, ...]:
    """The exponent bounds: e_i stays below the witness exponent of rank n+1-i.

    Type D has no factor of its own for e_n, which enters through the tail
    products, so it has bounds for e_1 .. e_{n-1} only.
    """
    bounds = tuple(weyl.witness_power(group, rank) - 1 for rank in range(n, 0, -1))
    return bounds[:-1] if group == "D" else bounds


def basis(group: str, n: int) -> SpanningBasis:
    """The spanning monomials, deduplicated, in ascending canonical order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    monos = power_or_tail(weyl.e_ring(n), _bounds(group, n), group == "D")
    return SpanningBasis(group, n, monos)


@_record
class SpanDecomposition:
    """target == sum over terms of coefficient * basis monomial, exactly."""

    group: str
    n: int
    target: Polynomial
    terms: dict[Monomial, Polynomial]  # basis monomial -> invariant coefficient


def _in_basis(group: str, n: int, m: Monomial) -> bool:
    """Whether e^m is one of the monomials of basis(group, n), without building it."""
    bounds = _bounds(group, n)
    if group == "B":
        return all(map(le, m, bounds))
    # u_i = e_i^{m_i} or the tail e_{i+1} ... e_n: track how many tails came before
    tails = {0}
    for e, bound in zip(m[:-1], bounds):
        tails = {k + 1 for k in tails if e == k} | {k for k in tails if 0 <= e - k <= bound}
    return m[-1] in tails


def _change_of_basis(group: str, n: int, k: int, ideal: Ideal, divide) -> dict:
    """Each standard monomial m of exponent sum k outside the basis, as (x, c).

    m == sum_b x[b] * e^b + sum_i c[i] * g_i, with x over the basis monomials
    of that degree and c packed term dicts of the reversed ring over the
    generators g_i of the reversed coinvariant ideal; m and the b are packed
    ints of that ring too.  The basis monomials of that degree, generated on
    their own (_products; every e_i has degree 2), are the members of a
    staircase echelon whose rows carry their part on the members; reducing m
    by its pivots leaves x, and ``divide`` yields the cofactors of m - x,
    which lies in the ideal.  Their coefficients come out of the echelon as
    Fractions; each integral one becomes an int here, once, so the sums that
    read the table do not redo Fraction arithmetic.
    """
    xs = ideal.ring.packing.variables[::-1]  # e_1 .. e_n, packed in the reversed ring
    members = sorted(_products(xs, _bounds(group, n), group == "D", 2 * k))
    pivots = staircase_echelon(groebner_basis(ideal), members, lambda m: divide({m: 1})[1], carry=True)
    # the basis is free, so the members are independent and every standard
    # monomial of degree 2k outside the basis leads a pivot row
    out = {}
    for lead in pivots:
        row = {lead: 1}
        echelon_reduce(row, pivots)
        x = {b: _normalize_coeff(c) for (_, b), c in row.items()}
        cofactors, remainder = divide(multiply_packed({0: -1}, x, {lead[1]: 1}))
        if remainder:
            raise AssertionError(f"change of basis in degree {2 * k} left the ideal")
        out[lead[1]] = (x, [{m: _normalize_coeff(c) for m, c in e.items()} for e in cofactors])
    return out


@lru_cache(maxsize=32)
def _reversed_coinvariant_ideal(group: str, n: int) -> Ideal:
    """The coinvariant ideal in the reversed ring, the ideal reduce() divides by.

    Built once per (group, n) of the last 32 used: a new Ideal would be
    validated again and its generators hashed again for the Groebner cache.
    """
    return weyl.coinvariant_ideal(group, n).reversed()


def reduce(p: Polynomial, group: str, n: int) -> SpanDecomposition:
    """Exact decomposition of p over the spanning basis, invariant coefficients.

    All divisions of one call, the changes of basis it builds included,
    share one Groebner step budget (SLCC_BUDGET); the tracked basis of the
    coinvariant ideal is built once per (group, n) under a budget of its own.
    """
    ring = weyl.e_ring(n)
    if not p.ring.compatible_with(ring):
        raise RingMismatchError(f"polynomial must live in Z[e_1..e_{n}] with degree-2 variables")
    cring = weyl.invariant_ring(group, n)
    ideal = _reversed_coinvariant_ideal(group, n)
    divide = tracked_division(ideal)
    unpack = ideal.ring.packing.unpack
    # packed s-monomial s^beta of cring -> packed terms of the reversed ring still to divide
    waiting = {0: reverse_terms(ring, p._terms)}
    heap = [0]  # -beta, whose least is of the lowest degree (see polyring.Packing)
    # packed basis monomial of the reversed ring -> its coordinates, packed in cring
    coords: dict[int, dict[int, Coefficient]] = {}
    changes: dict[int, dict] = {}  # exponent sum -> _change_of_basis
    while heap:
        beta = -heapq.heappop(heap)
        cofactors, remainder = divide(waiting.pop(beta))
        for m, c in remainder.items():
            expo = unpack(m)[::-1]
            if _in_basis(group, n, expo):
                x = {m: 1}
            else:
                k = sum(expo)
                if k not in changes:
                    changes[k] = _change_of_basis(group, n, k, ideal, divide)
                x, extra = changes[k][m]
                for cofactor, e in zip(cofactors, extra):
                    multiply_packed({0: c}, e, cofactor)
            for b, xb in x.items():
                multiply_packed({0: c}, {beta: xb}, coords.setdefault(b, {}))
        for s, cofactor in zip(cring.packing.variables, cofactors):
            if cofactor:
                key = beta + s
                if key in waiting:
                    multiply_packed({0: 1}, cofactor, waiting[key])
                else:
                    waiting[key] = cofactor
                    heapq.heappush(heap, -key)
    terms = {unpack(b)[::-1]: Polynomial._normalized(cring, t) for b, t in coords.items() if t}
    return SpanDecomposition(group=group, n=n, target=p, terms=terms)


def expand(dec: SpanDecomposition) -> Polynomial:
    """Substitute the invariant generators back; must reproduce dec.target.

    One pass per call.  The coefficient terms are grouped by invariant
    monomial s^alpha, and each needed power of each generator is built once
    per call, from the next lower needed one.  The image of s^alpha is the
    image of its exponent prefix times one power.  The alphas are visited in
    lexicographic order, so those sharing a prefix are adjacent and the
    images of the current alpha's prefixes are the whole memo: each distinct
    prefix costs at most one product.  The terms at each alpha, sum c * e^b,
    are multiplied by image(alpha) into one packed term dict.
    """
    ring = weyl.e_ring(dec.n)
    gens = weyl.invariant_generators(dec.group, dec.n).gens
    by_alpha: dict[Monomial, dict[int, Coefficient]] = {}
    for b, coeff in dec.terms.items():
        for alpha, c in coeff.terms.items():
            by_alpha.setdefault(alpha, {})[ring.packing.pack(b)] = c
    exponents = [{alpha[i] for alpha in by_alpha} for i in range(len(gens))]
    # alpha[0] never decreases in lexicographic order, so the powers of s_1,
    # whose exponents run highest, are held one at a time; the others' are
    # kept for the whole call
    leading = gens[0].powers(exponents[0])
    powers = [{}] + [dict(g.powers(e)) for g, e in zip(gens[1:], exponents[1:])]
    one = Polynomial.one(ring)
    prefix = [one] * len(gens)  # prefix[k]: the image of alpha[:k + 1]
    previous = None
    out: dict[int, Coefficient] = {}
    for alpha in sorted(by_alpha):
        k = 0  # the first position where alpha leaves the previous alpha's prefixes
        if previous is not None:
            k = next(i for i, (x, y) in enumerate(zip(alpha, previous)) if x != y)
        if k == 0 and alpha[0]:
            e, power = next(leading)
            powers[0] = {e: power}
        image = prefix[k - 1] if k else one
        for i in range(k, len(alpha)):
            if alpha[i]:
                power = powers[i][alpha[i]]
                image = power if image is one else image * power
            prefix[i] = image
        previous = alpha
        multiply_packed(by_alpha[alpha], image._terms, out)
    return Polynomial._normalized(ring, out)


@_record
class FreenessReport:
    group: str
    n: int
    max_degree: int
    first_mismatch: int | None
    lhs: tuple[int, ...]  # Hilbert series of Z[e_1..e_n]
    rhs: tuple[int, ...]  # Hilbert series of invariants times basis degrees
    size: int  # the number of basis monomials

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None


def verify_free(group: str, n: int, max_degree: int) -> FreenessReport:
    """Check Hilb(Z[e]) == Hilb(invariants) * (sum_b q^deg b) up to max_degree.

    The basis degrees are read off basis(group, n)'s packed products, which
    carry their degree above the fields, so no monomial is unpacked.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    lhs = series.poly_ring_hilbert([2] * n, max_degree)
    layout = weyl.e_ring(n).packing  # rejects n < 0
    if n < 1:  # basis(group, n)'s condition
        raise ValueError("n must be >= 1")
    products = _products(layout.variables, _bounds(group, n), group == "D")
    basis_degrees = [-(p >> layout.shift) for p in products]
    inv_degrees = weyl.invariant_ring(group, n).degrees
    rhs, first = series.free_module_series(lhs, inv_degrees, basis_degrees, max_degree)
    return FreenessReport(
        group=group,
        n=n,
        max_degree=max_degree,
        first_mismatch=first,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        size=len(products),
    )
