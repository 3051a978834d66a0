"""Euler and Borel class calculus on formal special linear bundles.

The splitting principle reduces a special linear bundle to a direct sum of
rank-2 pieces plus at most one trivial line.  A :class:`SplitBundle` records
exactly that shape: one Euler symbol per rank-2 summand (a degree-2 variable),
an optional odd trivial summand, and an orientation sign (flipping the chosen
trivialization multiplies the Euler class by -1, the value of the unit
epsilon once the Hopf element is inverted).

Class rules implemented on top of plain polynomial arithmetic:

* euler():  orientation * product of the symbols; zero as soon as the rank is
  odd (a trivial summand gives a nowhere vanishing section).
* total_borel():  the rank-2 factor is 1 - e^2 t^2 under the honest
  convention (epsilon = -1); the Whitney product over the summands gives the
  total class.  epsilon = +1 selects the sign-twisted convention b_i ->
  (-1)^i b_i, under which the factor reads 1 + e^2 t^2.
* complement_borel():  if the inner summands complete to a trivialized bundle,
  the complement's classes are the inverse series, i.e. complete homogeneous
  polynomials in the squared symbols.
* verify_cor_dual():  top-class, vanishing and odd-Pontryagin checks as exact
  polynomial identities.
"""

from __future__ import annotations

from . import symfunc
from .polyring import Polynomial, RingSpec, _record

__all__ = [
    "BorelSeries",
    "CorDualReport",
    "SplitBundle",
    "bundle_ring",
    "complement_borel",
    "euler",
    "pontryagin_series",
    "total_borel",
    "verify_cor_dual",
]


@_record
class SplitBundle:
    """A formal special linear bundle in splitting-principle normal form."""

    euler_symbols: tuple[str, ...]
    odd_part: bool = False
    orientation: int = 1

    def __post_init__(self) -> None:
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if len(set(self.euler_symbols)) != len(self.euler_symbols):
            raise ValueError("euler symbols must be distinct")

    @property
    def rank(self) -> int:
        return 2 * len(self.euler_symbols) + (1 if self.odd_part else 0)

    def dual(self) -> SplitBundle:
        """The dual bundle.  Rank-2 pieces are self-dual, so this is the identity."""
        return self

    @staticmethod
    def standard(k: int, odd_part: bool = False, orientation: int = 1) -> SplitBundle:
        return SplitBundle(tuple(f"e{i}" for i in range(1, k + 1)), odd_part, orientation)


def bundle_ring(*bundles: SplitBundle) -> RingSpec:
    """Common ring holding the symbols of the given bundles, each of degree 2."""
    names: list[str] = []
    for b in bundles:
        for s in b.euler_symbols:
            if s not in names:
                names.append(s)
    return RingSpec.make((s, 2) for s in names)


def euler(b: SplitBundle, ring: RingSpec | None = None) -> Polynomial:
    """orientation * product of the Euler symbols; zero when the rank is odd."""
    ring = ring or bundle_ring(b)
    if b.odd_part:
        return Polynomial.zero(ring)
    out = Polynomial.constant(ring, b.orientation)
    for s in b.euler_symbols:
        out = out * Polynomial.variable(ring, s)
    return out


@_record
class BorelSeries:
    """Coefficients b_0..b_order of the total class sum b_i t^{2i} (b_0 = 1)."""

    ring: RingSpec
    coefficients: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[0] != Polynomial.one(self.ring):
            raise ValueError("a Borel series starts with b_0 = 1")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, i: int) -> Polynomial:
        if i <= self.order:
            return self.coefficients[i]
        return Polynomial.zero(self.ring)

    def __mul__(self, other: BorelSeries) -> BorelSeries:
        order = min(self.order, other.order)
        coeffs = []
        for k in range(order + 1):
            acc = Polynomial.zero(self.ring)
            for i in range(k + 1):
                acc = acc + self[i] * other[k - i]
            coeffs.append(acc)
        return BorelSeries(self.ring, tuple(coeffs))

    def texts(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def total_borel(
    b: SplitBundle, order: int, epsilon: int = -1, ring: RingSpec | None = None
) -> BorelSeries:
    """Truncated product of (1 + epsilon * e_j^2 t^2) over the rank-2 summands.

    epsilon = -1 is the honest Borel class of a rank-2 piece; epsilon = +1
    is the twisted convention.  The odd trivial summand contributes 1.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    ring = ring or bundle_ring(b)
    coeffs = [Polynomial.one(ring)] + [Polynomial.zero(ring)] * order
    for s in b.euler_symbols:
        factor = Polynomial.variable(ring, s) ** 2 * epsilon
        # multiply by (1 + factor * t^2): shift by one b-index
        for k in range(order, 0, -1):
            coeffs[k] = coeffs[k] + coeffs[k - 1] * factor
    return BorelSeries(ring, tuple(coeffs))


def complement_borel(
    inner: SplitBundle, total_rank: int, order: int, ring: RingSpec | None = None
) -> BorelSeries:
    """Borel series of the complement of ``inner`` inside a trivialized bundle.

    Coefficient i is h_i(e_1^2, ..., e_k^2): the inverse series of
    total_borel(inner, epsilon=-1).
    """
    if 2 * len(inner.euler_symbols) > total_rank:
        raise ValueError("inner summands exceed the total rank")
    ring = ring or bundle_ring(inner)
    h = [symfunc.complete(i, ring, inner.euler_symbols) for i in range(order + 1)]
    return BorelSeries(ring, tuple(symfunc.in_squares(p) for p in h))


def pontryagin_series(b: SplitBundle, order: int, ring: RingSpec | None = None) -> list[Polynomial]:
    """Total Pontryagin class of the hyperbolic bundle as a t-indexed list.

    Entry j is the coefficient of t^j in prod (1 - e_i^2 t^2); odd entries
    vanish identically and the even ones are the (honest) Borel classes.
    """
    ring = ring or bundle_ring(b)
    borel = total_borel(b, (order // 2), epsilon=-1, ring=ring)
    out = []
    for j in range(order + 1):
        out.append(borel[j // 2] if j % 2 == 0 else Polynomial.zero(ring))
    return out


@_record
class CorDualReport:
    bundle: SplitBundle
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_cor_dual(b: SplitBundle, order: int | None = None) -> CorDualReport:
    """Exact polynomial checks on the total class of a split bundle.

    (1) duality is invisible at the symbol level (recorded, not computed);
    (2) the t-series of the hyperbolic bundle has no odd terms;
    (3) b_i = 0 for i beyond the number of rank-2 summands;
    (4) for even rank, b_n = (-1)^n * euler^2 under the honest convention.
    """
    n = len(b.euler_symbols)
    order = order if order is not None else n + 3
    ring = bundle_ring(b)
    borel = total_borel(b, order, epsilon=-1, ring=ring)
    pont = pontryagin_series(b, 2 * order, ring=ring)
    checks: list[tuple[str, bool]] = []
    checks.append(
        ("odd_pontryagin_vanish", all(pont[j].is_zero() for j in range(1, len(pont), 2)))
    )
    checks.append(
        (f"b_i_zero_for_i_gt_{n}", all(borel[i].is_zero() for i in range(n + 1, order + 1)))
    )
    if not b.odd_part:
        e = euler(b, ring)
        sign = 1 if n % 2 == 0 else -1
        checks.append((f"b_{n}_equals_(-1)^{n}_euler^2", borel[n] == e * e * sign))
    return CorDualReport(bundle=b, checks=tuple(checks))
