"""Buchberger engine: reduced Groebner bases, normal forms, Hilbert series.

Bases are computed over the rationals (generators are made monic; Fraction
coefficients appear internally) with the Gebauer-Moller pair criteria
(Gebauer and Moller, "On an installation of Buchberger's algorithm", JSC
1988) and the normal selection strategy, then fully inter-reduced, so the
reduced basis is unique: the one order is grevlex graded by cohomological
degree, in the order of the ring's variables (the canonical order of the
polynomial layer).  The engine has one monomial form, the ring's packed
ints (polyring.Packing, whose ints order like grevlex): each element's lead
is the least packed int of its terms, each pair's lcm is packed once from
the exponents of the two leads, each lead unpacked once when its element
joins the basis, and a lead divides a monomial when their difference sets
no guard bit.  The pairs wait in a heap keyed by the negated lcm and then
the indices: the normal strategy's order, ties included.
A caller that wants grevlex with the variables reversed (x_n > ... > x_1)
moves its ideal into the reversed ring with Ideal.reversed, as spanning and
verify_presentation do; polyring.reverse_terms moves a packed term map
between the two rings, one repack per term.  The reversed ideal is an ideal
of its own, with its own cache entry.

Every ideal is homogeneous, so the normal strategy meets S-pairs in
nondecreasing degree, and a run may stop at a degree bound: the truncated
basis decides membership for every polynomial up to that degree (Traverso,
"Hilbert functions and the Buchberger algorithm", JSC 1996).  ideal_equal
tests mutual containment this way: each side's generators must reduce to
zero modulo the other ideal's basis truncated at their top degree, or
modulo its full basis when the cache holds one.  A truncated basis is never
cached, so the cache keeps one full entry per ideal.

Buchberger tracks how each basis element is built from the original ideal
generators only for tracked_division, the one routine that reads these
representations: it turns the quotients q_j of a division into cofactors
over the generators, sum_j q_j * representations[j].  Through it
member_with_cofactors yields the membership witnesses that weyl turns into
the degree-lowering identities, and spanning reads its decompositions.
Every other caller (normal forms, ideal equality, presentation checks) gets
a basis without them, which is several times cheaper to build, and whose
representations field is None.  Each ideal has one cache entry;
tracked_division replaces an untracked entry with a tracked one.

Normal forms, S-pair reduction, inter-reduction and the cofactor witnesses
all run through one division routine, _Engine.divide.  It is a heap
division after Monagan and Pearce ("Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007) on the packed term
maps that polynomials store (polyring.Packing): the working polynomial is
a term dict updated in place, the pending packed monomials sit in a heap of
bare ints, each divisor's lead and tail are split once (its reducer; a
GroebnerBasis keeps its list), and the quotients and the remainder come
back as packed term dicts, the quotients keyed by the divisors used.  The representations are packed term dicts as
well, from the generators' unit representations to tracked_division: an
S-polynomial shifts them by its packed cofactor monomials, monic scales
them, and a reduction subtracts q_j times divisor j's, the same product
tracked_division sums into the cofactors.

Standard monomials, and through them the Hilbert function, come from a
walk up the staircase of the packed leads (_standard_exponents), whose cost
follows the standard monomials rather than the box below the bound; only
standard_monomials unpacks what it returns.

staircase_echelon, the one exact echelon over Q, decides whether packed
monomials are independent modulo an ideal and divides only those in its
leading ideal, in the order of the basis it is given: verify_presentation
and spanning's type-D change of basis run it with the variables reversed.

A step budget (default 10^6 single reduction steps, set only through the
SLCC_BUDGET environment variable) applies to each Buchberger run and to each
division on its own, and as a whole to each half of ideal_equal (the
truncated run and the divisions of the other side's generators) and to all
divisions made through one function that tracked_division returns.  It
turns a runaway computation into a distinct BudgetExceededError instead of
a hang.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import os
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, reduce as _reduce
from math import gcd
from operator import or_

from .polyring import (
    EXPONENT_LIMIT,
    Coefficient,
    ExponentOverflowError,
    Monomial,
    Packing,
    Polynomial,
    RingMismatchError,
    RingSpec,
    _normalize_coeff,
    _record,
    multiply_packed,
    reverse_terms,
)

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "GroebnerBasis",
    "Ideal",
    "echelon_reduce",
    "groebner_basis",
    "ideal_equal",
    "member_with_cofactors",
    "normal_form",
    "primitive_integer",
    "quotient_hilbert",
    "staircase_echelon",
    "standard_monomials",
    "tracked_division",
]

DEFAULT_BUDGET = 10**6


class BudgetExceededError(Exception):
    """The reduction-step budget ran out before the computation finished."""


def _budget_limit() -> int:
    env = os.environ.get("SLCC_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SLCC_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


@_record
class Ideal:
    """A homogeneous ideal given by generators (each nonzero, homogeneous)."""

    ring: RingSpec
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if not self.ring.compatible_with(g.ring):
                raise RingMismatchError("generator lives in a different ring")
            if g.is_zero():
                raise ValueError("ideal generators must be nonzero")
            if not g.is_homogeneous():
                raise ValueError(f"ideal generators must be homogeneous, got {g}")

    @staticmethod
    def make(ring: RingSpec, gens) -> Ideal:
        return Ideal(ring, tuple(gens))

    def reversed(self) -> Ideal:
        """The ideal moved into ring.reversed(), whose grevlex reverses the variables."""
        ring = self.ring.reversed()
        gens = (reverse_terms(self.ring, g._terms) for g in self.generators)
        return Ideal(ring, tuple(Polynomial._trusted(ring, terms) for terms in gens))


class _Tracked:
    """A monic working polynomial with its representation over the originals.

    The representation holds one packed term map (polyring.Packing) per
    ideal generator, the cofactors c_j with poly == sum_j c_j * gen_j; the
    generators themselves start as units, {0: 1}.  It is an empty list when
    Buchberger runs untracked.  The reducer, the packed form the division
    reads, is made once per working polynomial; its first entry is the
    packed lead that Buchberger reads.
    """

    __slots__ = ("poly", "rep", "_reducer")

    def __init__(self, poly: Polynomial, rep: list[dict[int, Coefficient]]):
        self.poly = poly
        self.rep = rep
        self._reducer = None

    def reducer(self):
        """(lm, tail terms), packed, built on first use.

        A divisor serves many divisions, so its lead and tail are split off
        once.
        """
        if self._reducer is None:
            terms = self.poly._terms
            lead = min(terms)  # the greatest monomial (polyring.Packing)
            self._reducer = (lead, [(m, c) for m, c in terms.items() if m != lead])
        return self._reducer

    def monic(self) -> _Tracked:
        _, lc = self.poly.leading_term()
        if lc == 1:
            return self
        inv = Fraction(1, 1) / Fraction(lc)
        rep = [{m: _normalize_coeff(c * inv) for m, c in r.items()} for r in self.rep]
        return _Tracked(self.poly * inv, rep)


def _reducers(divisors: Sequence[_Tracked]) -> list:
    """The divisors' reducers for _Engine.divide, each led by its index in the list."""
    return [(j, *d.reducer()) for j, d in enumerate(divisors) if d.poly._terms]


def _overflow(layout: Packing, packed: int) -> ExponentOverflowError:
    """The error for a packed monomial with an exponent at or above 2^63."""
    top = max(layout.unpack(packed))
    return ExponentOverflowError(f"exponent {top} exceeds limit {EXPONENT_LIMIT}")


class _Engine:
    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.packing = ring.packing
        self.budget = _budget_limit()
        self.steps = 0

    def spend(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceededError(
                f"Groebner step budget of {self.budget} exceeded (raise SLCC_BUDGET)"
            )

    def divide(self, terms: dict[int, Coefficient], reducers: list):
        """Full multivariate division: terms = sum q_j * divisor_j + remainder.

        The terms are a packed term map (polyring.Packing), the reducers
        those of monic divisors (_reducers).  The quotients come back as
        packed term maps keyed by the index j of each divisor used, and the
        remainder as a packed term map with normalized coefficients.
        The reducer for each step is the first divisor (in list order)
        whose leading monomial divides the current greatest reducible
        monomial, which makes the result deterministic.

        The division runs in place on a term dict, with the pending
        monomials in a heap (Monagan and Pearce, "Polynomial division using
        dynamic arrays, heaps, and packed exponent vectors", CASC 2007).
        Each divisor's lead and tail are split once for all divisions
        (_Tracked.reducer).  The heap holds the packed ints themselves, the
        least of which is the greatest monomial.  A step pops the greatest live monomial, skips
        cancelled ones, and subtracts coeff * x^q * tail(d) term by term,
        where x^q * t is q + t packed.  lm divides expo exactly when
        q = expo - lm sets no guard bit, which needs every field below
        2^63, so a monomial with an exponent that large raises
        ExponentOverflowError, as does a remainder with an exponent at
        EXPONENT_LIMIT.  A popped monomial never comes back: every term a
        step adds is smaller than it.  The remainder's terms are in the
        order they were popped.
        """
        layout = self.packing
        guard = layout.guard
        work = dict(terms)
        if _reduce(or_, work, 0) & guard:
            raise _overflow(layout, next(m for m in work if m & guard))
        heap = list(work)
        heapq.heapify(heap)
        queued = set(work)
        quotients: dict[int, dict[int, Coefficient]] = {}
        remainder: dict[int, Coefficient] = {}
        while heap:
            expo = heapq.heappop(heap)
            coeff = work.pop(expo, 0)
            if not coeff:
                continue
            for j, lm, tail in reducers:
                q = expo - lm
                if not q & guard:
                    self.spend()
                    quotients.setdefault(j, {})[q] = coeff
                    for m, c in tail:
                        m += q
                        value = work.get(m, 0) - coeff * c
                        if value:
                            work[m] = value
                        else:
                            work.pop(m, None)
                        if m not in queued:
                            if m & guard:
                                raise _overflow(layout, m)
                            queued.add(m)
                            heapq.heappush(heap, m)
                    break
            else:
                remainder[expo] = _normalize_coeff(coeff)
        layout.check_limit(remainder)
        return quotients, remainder

    def reduce_tracked(self, t: _Tracked, divisors: list[_Tracked]) -> _Tracked:
        """t's remainder by the divisors; its representation loses q_j * divisor j's."""
        quotients, remainder = self.divide(t.poly._terms, _reducers(divisors))
        rep = t.rep
        if rep and quotients:
            rep = [dict(r) for r in rep]
            for j, q in quotients.items():
                minus_q = {m: -c for m, c in q.items()}
                for r, dr in zip(rep, divisors[j].rep):
                    multiply_packed(minus_q, dr, r)
        return _Tracked(Polynomial._trusted(self.ring, remainder), rep)

    def s_poly(self, f: _Tracked, g: _Tracked, lcm: int) -> _Tracked:
        """The S-polynomial of monic f and g for their packed lcm."""
        uf, ug = lcm - f.reducer()[0], lcm - g.reducer()[0]
        self.spend()
        # Polynomial products, which refuse exponents at EXPONENT_LIMIT
        monomial = Polynomial._trusted
        poly = monomial(self.ring, {uf: 1}) * f.poly - monomial(self.ring, {ug: 1}) * g.poly
        minus = {ug: -1}
        rep = [
            multiply_packed(minus, b, {uf + m: c for m, c in a.items()})
            for a, b in zip(f.rep, g.rep)
        ]
        return _Tracked(poly, rep)


@_record(hidden=("representations",))
class GroebnerBasis:
    """Reduced monic Groebner basis of an ideal; only minimal when truncated."""

    ideal: Ideal
    basis: tuple[Polynomial, ...]
    # representations[i] are packed term maps (polyring.Packing) of the
    # cofactors c_j with basis[i] == sum c_j * gen_j, integral coefficients
    # as ints; None unless Buchberger ran with tracking (for tracked_division)
    representations: tuple[tuple[dict[int, Coefficient], ...], ...] | None = None

    @property
    def ring(self) -> RingSpec:
        return self.ideal.ring

    @cached_property
    def _reducers(self) -> list:
        """The basis as reducers for _Engine.divide, shared by every division against it."""
        return _reducers([_Tracked(g, []) for g in self.basis])

    @property
    def leads(self) -> list[int]:
        """The packed leading monomials (polyring.Packing), in basis order."""
        return [lm for _, lm, _ in self._reducers]


# one entry per ideal; an entry built with representations serves every caller.
# Past _GB_CACHE_SIZE entries the oldest-inserted one goes (_cache_store).
_GB_CACHE: dict[tuple, GroebnerBasis] = {}
_GB_CACHE_SIZE = 128


def _cache_key(ideal: Ideal) -> tuple:
    return (ideal.ring.vars, ideal.generators)


def _cache_store(key: tuple, G: GroebnerBasis) -> GroebnerBasis:
    """Put G in _GB_CACHE under key (replacing an entry keeps its place); returns G."""
    _GB_CACHE[key] = G
    if len(_GB_CACHE) > _GB_CACHE_SIZE:
        del _GB_CACHE[next(iter(_GB_CACHE))]
    return G


def groebner_basis(ideal: Ideal) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of a homogeneous ideal (memoized per session)."""
    cache_key = _cache_key(ideal)
    cached = _GB_CACHE.get(cache_key)
    if cached is None:
        cached = _cache_store(cache_key, _buchberger(ideal, track=False))
    return cached


def _buchberger(
    ideal: Ideal, track: bool, max_degree: int | None = None, engine: _Engine | None = None
) -> GroebnerBasis:
    """The reduced grevlex basis; with track, also its representations.

    With max_degree, the run stops at the first S-pair of greater lcm degree
    (on homogeneous input every later pair has one too) and skips the
    inter-reduction: the basis is minimal, not reduced, and decides
    membership up to max_degree.  The run spends the budget of ``engine``,
    a fresh one by default.
    """
    engine = engine or _Engine(ideal.ring)
    ngens = len(ideal.generators)
    ring = ideal.ring

    def unit_rep(i: int) -> list[dict[int, Coefficient]]:
        return [{0: 1} if j == i else {} for j in range(ngens)] if track else []

    layout = ring.packing
    pack, guard = layout.pack, layout.guard
    f: list[_Tracked] = []  # all polynomials ever created, indexed
    exps: list[tuple[int, ...]] = []  # f[i]'s lead, unpacked once, for the lcms

    def lead(i: int) -> int:
        return f[i].reducer()[0]  # packed: the smaller, the greater the monomial

    G: list[int] = []  # the current basis, by ascending lead: the divisor order
    CP: dict[tuple[int, int], int] = {}  # live pairs and their packed lcms
    # every pair ever made, keyed (-packed lcm, pair): the normal strategy's
    # order, ties by indices.  A pair an update drops stays in the heap and
    # is skipped when popped; indices only grow, so it never comes back.
    queue: list = []

    def update(ih: int) -> None:
        # Gebauer-Moller pair update ([BW] GROEBNERNEWS2 bookkeeping).  Each
        # lcm(m_h, lm(g)) is computed once, packed from the unpacked leads.
        # Every test reads the packed monomials: a * b is a + b, and a
        # divides b exactly when b - a sets no guard bit.
        nonlocal G
        ph, eh = lead(ih), exps[ih]
        lcms = [pack(map(max, eh, exps[ig])) for ig in G]
        # an old pair goes when m_h divides its lcm and neither of its
        # elements has that lcm with h
        for pair, lcm12 in list(CP.items()):
            ig1, ig2 = pair
            if (
                not (lcm12 - ph) & guard
                and pack(map(max, exps[ig1], eh)) != lcm12
                and pack(map(max, exps[ig2], eh)) != lcm12
            ):
                del CP[pair]
        kept: list[int] = []  # the lcms of the new pairs the chain test kept
        for pos, (ig, p) in enumerate(zip(G, lcms)):
            coprime = ph + lead(ig) == p
            if coprime or all((p - q) & guard for q in itertools.chain(lcms[pos + 1 :], kept)):
                kept.append(p)
                # a pair with coprime leading monomials is dropped (Buchberger's 1st criterion)
                if not coprime:
                    CP[ih, ig] = p
                    heapq.heappush(queue, (-p, (ih, ig)))
        G = [ig for ig in G if (lead(ig) - ph) & guard]
        G.insert(bisect.bisect(G, -ph, key=lambda i: -lead(i)), ih)

    def add(t: _Tracked) -> None:
        f.append(t.monic())
        exps.append(layout.unpack(lead(len(f) - 1)))
        update(len(f) - 1)

    # seed with monic nonzero generators
    seeds = [_Tracked(g, unit_rep(i)).monic() for i, g in enumerate(ideal.generators)]

    for t in sorted(seeds, key=lambda t: -t.reducer()[0]):
        reduced = engine.reduce_tracked(t, [f[i] for i in G])
        if reduced.poly:
            add(reduced)

    while queue:
        neg_lcm, pair = queue[0]
        if pair not in CP:
            heapq.heappop(queue)
            continue
        # the degree of a packed monomial p is -(p >> shift), not (-p) >> shift
        if max_degree is not None and -(CP[pair] >> layout.shift) > max_degree:
            break
        heapq.heappop(queue)
        del CP[pair]
        s = engine.s_poly(f[pair[0]], f[pair[1]], -neg_lcm)
        if not s.poly:
            continue
        reduced = engine.reduce_tracked(s, [f[i] for i in G])
        if reduced.poly:
            add(reduced)

    # G is already minimal: update() drops every element whose lead the new
    # lead divides, and each new element is reduced by all of G first.
    # Inter-reduce in one pass.  In a minimal basis no lead divides another
    # lead, and no tail term is divisible by its own lead (it is smaller), so
    # dividing each element once by the others leaves its monic lead and no
    # term in the lead ideal: the unique reduced element.  A second pass
    # would find no quotient and leave the representations as they are.
    # Leads do not move, so the list stays sorted by them.
    final = [f[i] for i in G]
    if max_degree is None:
        for i in range(len(final)):
            final[i] = engine.reduce_tracked(final[i], final[:i] + final[i + 1 :])

    representations = None
    if track:
        # multiply_packed does not normalize: a reduction can leave Fraction(n, 1)
        representations = tuple(
            tuple({m: _normalize_coeff(c) for m, c in r.items()} for r in t.rep) for t in final
        )
    return GroebnerBasis(
        ideal=ideal, basis=tuple(t.poly for t in final), representations=representations
    )


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo G; zero iff p lies in the ideal."""
    if not p.ring.compatible_with(G.ring):
        raise RingMismatchError("polynomial and basis live in different rings")
    return Polynomial._trusted(G.ring, _Engine(G.ring).divide(p._terms, G._reducers)[1])


def tracked_division(ideal: Ideal):
    """Division by the ideal's tracked basis, as a function of packed term dicts.

    The function maps the packed terms of p to (cofactors, remainder),
    packed term dicts with p == sum cofactors[i] * gen_i + remainder, where
    the remainder is the normal form of p; the cofactors' coefficients are
    not normalized.  Each quotient q_j by basis element j contributes
    q_j * representations[j] to the cofactors.  The tracked basis is built
    once per ideal; all divisions made through one returned function spend
    one step budget.
    """
    cache_key = _cache_key(ideal)
    G = _GB_CACHE.get(cache_key)
    if G is None or G.representations is None:
        # the one tracked Buchberger run; it reproduces an untracked entry's basis
        G = _cache_store(cache_key, _buchberger(ideal, track=True))
    engine, reducers = _Engine(ideal.ring), G._reducers
    # each basis element's nonzero representation entries, (i, packed terms)
    reps = [[(i, r) for i, r in enumerate(rep) if r] for rep in G.representations]

    def divide(terms: dict[int, Coefficient]):
        quotients, remainder = engine.divide(terms, reducers)
        cofactors: list[dict] = [{} for _ in ideal.generators]
        for j, q in quotients.items():
            for i, r in reps[j]:
                multiply_packed(q, r, cofactors[i])
        return cofactors, remainder

    return divide


def member_with_cofactors(p: Polynomial, ideal: Ideal) -> list[Polynomial] | None:
    """Cofactors c_i with sum c_i * gen_i == p, or None when p is not in the ideal.

    The expansion identity is re-verified exactly before returning.
    """
    cofactors, remainder = tracked_division(ideal)(p._terms)
    if remainder:
        return None
    cofactors = [Polynomial._normalized(ideal.ring, c) for c in cofactors]
    check = Polynomial.zero(ideal.ring)
    for c, g in zip(cofactors, ideal.generators):
        check = check + c * g
    if check != p:
        raise AssertionError("cofactor expansion failed to reproduce the target")
    return cofactors


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Whether the ideals are equal: each contains the other's generators.

    Each side's generators are reduced by the other ideal's cached full
    basis or else by its basis truncated at their top degree, which is
    never cached.
    """
    if not I.ring.compatible_with(J.ring):
        raise RingMismatchError("ideals live in different rings")
    return _contains(J, I.generators) and _contains(I, J.generators)


def _contains(ideal: Ideal, polys: tuple[Polynomial, ...]) -> bool:
    """Whether every one of the homogeneous polys lies in the ideal.

    The truncated run and the divisions share one budget, so ideal_equal
    spends at most two budgets in all.
    """
    if not polys:
        return True
    engine = _Engine(ideal.ring)
    G = _GB_CACHE.get(_cache_key(ideal))
    if G is None:
        top = max(p.homogeneous_degree() for p in polys)
        G = _buchberger(ideal, track=False, max_degree=top, engine=engine)
    return all(not engine.divide(p._terms, G._reducers)[1] for p in polys)


def echelon_reduce(row: dict, pivots: dict):
    """Reduce the row in place by the pivot rows until its leading column has none.

    Returns that column (the greatest key left in the row), or None when the
    row reduces to zero.  Each pivot row is monic and keyed by its leading
    column.
    """
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return lead
        factor = row[lead]
        for m, c in pivot.items():
            c = row.get(m, 0) - factor * c
            if c:
                row[m] = c
            else:
                del row[m]
    return None


def staircase_echelon(G: GroebnerBasis, members: Sequence[int], divide, carry: bool = False):
    """Echelon form of the members' normal forms, off the members' columns.

    The members are packed monomials of G.ring (polyring.Packing), and the
    staircase is that of G's order: the fewer members an order puts in the
    leading-monomial ideal, the fewer divisions (callers move a basis into
    the ring whose grevlex it is a staircase of).  A member outside G's
    leading-monomial ideal (on the staircase) is its own normal form: no
    lead of G._reducers divides it, each tested by the guard bits of the
    difference, as _Engine.divide tests.  Only the others, the outliers,
    are divided, by ``divide(m)``: the normal form of the packed monomial m
    as a packed term dict, under the caller's budget.  The members are
    independent modulo the ideal exactly when they are distinct and the
    outliers' rows stay independent over Q.  Returns None when they are
    dependent, and otherwise the monic pivot rows keyed by their leading
    columns.

    Columns off the members are keyed (True, m).  With ``carry`` a row also
    keeps its part on the members, keyed (False, m) to sort below them: the
    row of an outlier o is NF(o) - o, in the ideal, so echelon_reduce turns
    {(True, m): 1} into the members' combination that m equals modulo it.
    """
    member_set = set(members)
    if len(member_set) < len(members):
        return None
    guard = G.ring.packing.guard
    leads = G.leads
    pivots: dict[tuple[bool, int], dict] = {}
    for o in members:
        if all((o - lm) & guard for lm in leads):
            continue  # on the staircase
        nf = divide(o).items()
        row = {(m not in member_set, m): c for m, c in nf if carry or m not in member_set}
        if carry:
            row[(False, o)] = -1
        lead = echelon_reduce(row, pivots)
        if lead is None or not lead[0]:
            return None
        inv = Fraction(1) / row[lead]
        pivots[lead] = {key: c * inv for key, c in row.items()}
    return pivots


def _standard_exponents(ring: RingSpec, leads: Sequence[int], max_degree: int):
    """Yield the packed monomials of degree <= max_degree outside the lead-term ideal.

    The leads are packed as well (polyring.Packing).  A walk up the
    staircase: from 1, each standard monomial m is extended by one variable
    x_i at or after its last nonzero position, m + xs[i] packed, while the
    degree stays within the bound, so each monomial is reached once, from
    its quotient by the variable at its last nonzero position.  Divisors of
    a standard monomial are standard, so the walk misses none; it keeps the
    results no lead divides, each tested by the guard bits.  A lead that
    divides m * x_i but not the standard m has i-th exponent m_i + 1, so the
    leads are looked up by (i, exponent).  The walk keeps each monomial's
    exponent at its last nonzero position, and m_i is 0 past it, so it never
    unpacks a monomial.  The cost follows the staircase, not the box below
    the bound.
    """
    layout = ring.packing
    xs, guard, shift = layout.variables, layout.guard, layout.shift
    if max_degree < 0 or 0 in leads:  # 0 is the packed monomial 1
        return
    by_step: dict[tuple[int, int], list[int]] = {}
    for lt in leads:
        for i, e in enumerate(layout.unpack(lt)):
            if e:
                by_step.setdefault((i, e), []).append(lt)
    yield 0
    layer = [(0, 0, 0)]  # (standard monomial, its last nonzero position, its exponent there)
    while layer:
        grown = []
        for m, last, top in layer:
            for i in range(last, len(xs)):
                mi = m + xs[i]
                if -(mi >> shift) > max_degree:
                    continue
                e = top + 1 if i == last else 1
                if any(not (mi - lt) & guard for lt in by_step.get((i, e), ())):
                    continue
                yield mi
                grown.append((mi, i, e))
        layer = grown


def standard_monomials(G: GroebnerBasis, max_degree: int) -> list[Monomial]:
    """Monomials outside the leading-term ideal, up to cohomological degree bound.

    Sorted by (degree, grevlex) ascending; their count per degree is the
    Hilbert function of the quotient.
    """
    walk = sorted(_standard_exponents(G.ring, G.leads, max_degree), reverse=True)
    return G.ring.packing.unpack_all(walk)


def quotient_hilbert(G: GroebnerBasis, max_degree: int) -> list[int]:
    """Hilbert function of ring/ideal: coefficient d = #standard monomials of degree d."""
    counts = [0] * (max_degree + 1)
    shift = G.ring.packing.shift
    for m in _standard_exponents(G.ring, G.leads, max_degree):
        counts[-(m >> shift)] += 1
    return counts


def primitive_integer(p: Polynomial) -> Polynomial:
    """Rescale a rational polynomial to a primitive integer one (positive lead)."""
    if p.is_zero():
        return p
    denoms = [c.denominator if isinstance(c, Fraction) else 1 for c in p._terms.values()]
    lcm = _reduce(lambda a, b: a * b // gcd(a, b), denoms, 1)
    scaled = p * lcm
    numerators = [abs(int(c)) for c in scaled._terms.values()]
    g = _reduce(gcd, numerators)
    if g > 1:
        scaled = scaled.map_coefficients(lambda c: int(c) // g)
    if scaled.leading_term()[1] < 0:
        scaled = -scaled
    return scaled
