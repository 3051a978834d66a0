"""Spanning sets of Z[e_1..e_n] over the Weyl invariant rings, constructively.

The spanning monomials are

    type B:  e_1^{m_1} ... e_n^{m_n}            with 0 <= m_i <= 2(n-i)+1
    type D:  u_1 ... u_{n-1}                    with u_i = e_i^{m_i},
             0 <= m_i <= 2(n-i), or u_i = e_{i+1} e_{i+2} ... e_n

of cardinality 2^n n! resp. 2^{n-1} n! (the Weyl group orders).  reduce()
rewrites any polynomial as an invariant-coefficient combination of these
monomials by following the inductive proof literally, variable by variable:

* if the e_1-exponent reaches the witness exponent (weyl.witness_power: 2n
  for B, 2n-1 for D), apply the degree-lowering witness identity for e_1^{2n}
  resp. e_1^{2n-1} and carry the invariant generators out into the
  coefficients;
* otherwise reduce the e_2..e_n tail recursively, then re-express the tail's
  invariants through the level-1 ones via s_i = e_1^2 s'_{i-1} + s'_i and
  t = e_1 t' (and t'^2 = s'_{n-1} splits coefficients by t'-parity in type D),
  splitting off powers of e_1 that either land inside the basis bounds or are
  fed back into the threshold case.

Every step strictly lowers (total degree, leading exponent), which is the
termination measure of the proof.  Decomposition coefficients live in the
abstract invariant rings weyl.invariant_ring: Z[s_1..s_n] (B) or
Z[s_1..s_{n-1}, t] (D) with deg s_i = 4i, deg t = 2n; expand() substitutes
weyl.invariant_generators, named by the same ring, back and must reproduce
the target exactly.  The Weyl-group data (witness exponents, group orders,
the invariant ring) are weyl's; this module only reads them.

Decompositions are accumulated as flat terms: one dict keyed by (basis
monomial, s-exponent) with plain number values, where every factor is a single
monomial c * s^beta.  reduce() builds one Polynomial per basis monomial, once,
at the end.  The rewriter is iterative: each step is a generator that yields
the sub-decompositions it needs to an explicit stack over one memo per
(group, n), so deep inputs never meet Python's recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import series, weyl
from .polyring import Coefficient, Monomial, Polynomial, RingMismatchError, RingSpec

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


@dataclass(frozen=True)
class SpanningBasis:
    group: str
    n: int
    monomials: tuple[Monomial, ...]  # exponent tuples in Z[e_1..e_n]

    def __len__(self) -> int:
        return len(self.monomials)

    def texts(self) -> list[str]:
        ring = weyl.e_ring(self.n)
        return [ring.monomial_text(m) for m in self.monomials]


def power_or_tail(ring: RingSpec, bounds: list[int], tail: bool) -> tuple[Monomial, ...]:
    """Products u_1 ... u_r over the first r = len(bounds) variables of ``ring``.

    u_i is x_i^m with 0 <= m <= bounds[i-1] or, when ``tail`` is set, the
    product of every later variable of the ring.  Deduplicated, in ascending
    canonical order.
    """
    n = len(ring)
    choices = []
    for i, bound in enumerate(bounds):
        opts = [(0,) * i + (m,) + (0,) * (n - i - 1) for m in range(bound + 1)]
        if tail:
            opts.append((0,) * (i + 1) + (1,) * (n - i - 1))
        choices.append(opts)
    monos = {tuple(map(sum, zip((0,) * n, *combo))) for combo in itertools.product(*choices)}
    return tuple(sorted(monos, key=ring.sort_key))


def basis(group: str, n: int) -> SpanningBasis:
    """The spanning monomials, deduplicated, in ascending canonical order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # e_i stays below the witness exponent of rank n+1-i; type D has no
    # factor of its own for e_n, which enters through the tail products
    bounds = [weyl.witness_power(group, rank) - 1 for rank in range(n, 0, -1)]
    tail = group == "D"
    monos = power_or_tail(weyl.e_ring(n), bounds[:-1] if tail else bounds, tail)
    return SpanningBasis(group, n, monos)


@dataclass
class SpanDecomposition:
    """target == sum over terms of coefficient * basis monomial, exactly."""

    group: str
    n: int
    target: Polynomial
    terms: dict[Monomial, Polynomial]  # basis monomial -> invariant coefficient


# -- the rewriting engine ----------------------------------------------------
#
# A decomposition in flight is a tuple of (basis monomial, s-exponent, coeff)
# triples; the s-exponent belongs to weyl.invariant_ring(group, rank) of the level
# that produced it.  Scaling by c * s^beta adds beta and multiplies by c.

Term = tuple[Monomial, Monomial, Coefficient]


@lru_cache(maxsize=None)
def _witness_shifted(group: str, n: int, level: int):
    """Terms of the rank n-level witness cofactors, moved onto e_{level+1}..e_n.

    One tuple of (exponent, coefficient) pairs per invariant generator.
    """
    wit = weyl.witness_B(n - level) if group == "B" else weyl.witness_D(n - level)
    pad = (0,) * level
    return tuple(tuple((pad + expo, c) for expo, c in w.terms.items()) for w in wit)


def _sprime_generator(rank: int, i: int) -> dict[Monomial, int]:
    """s'_i of the tail in level terms: sum_{u=0..i} (-1)^u E^{2u} s_{i-u}.

    Keys are mixed exponents (E, s_1, ..., s_rank); the last coefficient
    variable (s_rank in type B, t in type D) never occurs, so the image is
    the same for both types.
    """
    terms = {}
    for u in range(i + 1):
        s = [0] * rank
        if i - u:
            s[i - u - 1] = 1
        terms[(2 * u, *s)] = -1 if u % 2 else 1
    return terms


def _split_t_parity(terms: dict[Monomial, Coefficient]) -> tuple[dict, dict]:
    """Write alpha(s'_*, t') = tilde(s'_*) + t' * hat(s'_*) using t'^2 = s'_{rank-1}.

    ``terms`` are exponents of weyl.invariant_ring("D", rank-1), whose last
    variable is t'; the results are exponents of weyl.invariant_ring("B",
    rank-1), whose last variable is s'_{rank-1}.  The map is injective, so
    no two terms meet.
    """
    tilde: dict[Monomial, Coefficient] = {}
    hat: dict[Monomial, Coefficient] = {}
    for expo, coeff in terms.items():
        if not expo:  # rank-1 == 0: the empty coefficient ring has no t'
            tilde[expo] = coeff
        elif expo[-1] % 2:
            hat[expo[:-1] + (expo[-1] // 2,)] = coeff
        else:
            tilde[expo[:-1] + (expo[-1] // 2,)] = coeff
    return tilde, hat


def _with_exponent(mono: Monomial, pos: int, value: int) -> Monomial:
    return mono[:pos] + (value,) + mono[pos + 1 :]


def _add_term(terms: dict, key, value: Coefficient) -> None:
    v = terms.get(key, 0) + value
    if v:
        terms[key] = v
    else:
        terms.pop(key, None)


def _mul_terms(a: dict[Monomial, Coefficient], b: dict[Monomial, Coefficient]) -> dict:
    out: dict[Monomial, Coefficient] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _add_term(out, tuple(map(add, ea, eb)), ca * cb)
    return out


def _add_scaled(acc: dict, triples, shift: Monomial, factor: Coefficient) -> None:
    """acc += (factor * s^shift) * triples, keyed by (basis monomial, s-exponent)."""
    for b, s, c in triples:
        key = (b, tuple(map(add, s, shift)))
        v = acc.get(key, 0) + c * factor
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


class _Rewriter:
    """The memoized rewriter for one (group, n); reduce() shares one per process.

    ``_reduce_monomial`` drives the rewriting steps with an explicit stack,
    so the depth of a rewrite is bounded by memory, not by Python's recursion
    limit.  Each step is a generator (``_steps``) that yields the (level,
    monomial) decompositions it needs and receives their triples.
    """

    def __init__(self, group: str, n: int):
        self.group = group
        self.n = n
        self.memo: dict[tuple[int, Monomial], tuple[Term, ...]] = {}
        # (rank, s'-exponent) -> mixed-ring image as (E-exponent, s-exponent, coeff)
        self.images: dict[tuple[int, Monomial], tuple[tuple[int, Monomial, int], ...]] = {}
        self.powers: dict[tuple[int, int], list[dict[Monomial, int]]] = {}

    def _reduce_monomial(self, level: int, mono: Monomial) -> tuple[Term, ...]:
        """Decompose one monomial at the given level into (basis mono, s-exponent, coeff).

        ``level`` counts peeled variables: the active variables are
        e_{level+1}..e_n and s-exponents belong to weyl.invariant_ring(group, n-level).
        """
        memo = self.memo
        root = (level, mono)
        if root in memo:
            return memo[root]
        stack = [(root, self._steps(level, mono))]
        value = None
        while stack:
            key, steps = stack[-1]
            try:
                request = steps.send(value)
            except StopIteration as done:
                memo[key] = value = done.value
                stack.pop()
                continue
            value = memo.get(request)
            if value is None:
                stack.append((request, self._steps(*request)))
        return memo[root]

    def _image(self, rank: int, sprime: Monomial) -> tuple[tuple[int, Monomial, int], ...]:
        """The mixed-ring image of the tail monomial s'^sprime at a level of this rank."""
        key = (rank, sprime)
        image = self.images.get(key)
        if image is None:
            terms = {(0,) * (rank + 1): 1}
            for i, e in enumerate(sprime, 1):
                if e:
                    terms = _mul_terms(terms, self._power(rank, i, e))
            image = tuple((m[0], m[1:], c) for m, c in terms.items())
            self.images[key] = image
        return image

    def _power(self, rank: int, i: int, e: int) -> dict[Monomial, int]:
        powers = self.powers.get((rank, i))
        if powers is None:
            powers = [{(0,) * (rank + 1): 1}, _sprime_generator(rank, i)]
            self.powers[(rank, i)] = powers
        while len(powers) <= e:
            powers.append(_mul_terms(powers[-1], powers[1]))
        return powers[e]

    def _steps(self, level: int, mono: Monomial):
        group, n = self.group, self.n
        rank = n - level
        if rank == 0:
            return ((mono, (), 1),)

        a = mono[level]
        acc: dict[tuple[Monomial, Monomial], Coefficient] = {}
        power = weyl.witness_power(group, rank)

        if a >= power:
            # degree-lowering witness: e_{level+1}^power = sum cofactor * invariant
            units = [(0,) * i + (1,) + (0,) * (rank - i - 1) for i in range(rank)]
            rest = _with_exponent(mono, level, a - power)
            for unit, wit in zip(units, _witness_shifted(group, n, level)):
                for wexpo, wcoeff in wit:
                    sub = yield (level, tuple(map(add, wexpo, rest)))
                    _add_scaled(acc, sub, unit, wcoeff)
            return tuple((b, s, c) for (b, s), c in acc.items())

        tail = yield (level + 1, _with_exponent(mono, level, 0))

        # the tail's coefficients, grouped per tail basis monomial
        alphas: dict[Monomial, dict[Monomial, Coefficient]] = {}
        for bprime, s, c in tail:
            alphas.setdefault(bprime, {})[s] = c

        for bprime, alpha in alphas.items():
            # re-express through this level's invariants, (E-exponent, s-exponent) -> coeff
            if group == "B":
                parts = [(alpha, False)]
            else:
                tilde, hat = _split_t_parity(alpha)
                parts = [(tilde, False), (hat, True)]
            for part, has_tprime in parts:
                mixed: dict[tuple[int, Monomial], Coefficient] = {}
                for sprime, coeff in part.items():
                    for l, s, c in self._image(rank, sprime):
                        _add_term(mixed, (l, s), c * coeff)
                for (l, s), mcoeff in mixed.items():
                    A = a + l
                    if not has_tprime:
                        if A < power:
                            _add_term(acc, (_with_exponent(bprime, level, A), s), mcoeff)
                        else:
                            sub = yield (level, _with_exponent(bprime, level, A))
                            _add_scaled(acc, sub, s, mcoeff)
                    elif A == 0:
                        # u = e_{level+2} .. e_n joins the basis monomial
                        tailprod = bprime[: level + 1] + tuple(e + 1 for e in bprime[level + 1 :])
                        _add_term(acc, (tailprod, s), mcoeff)
                    else:
                        # carry t = e_{level+1} * t' out into the coefficient
                        sub = yield (level, _with_exponent(bprime, level, A - 1))
                        _add_scaled(acc, sub, s[:-1] + (s[-1] + 1,), mcoeff)
        return tuple((b, s, c) for (b, s), c in acc.items())


@lru_cache(maxsize=None)
def _rewriter(group: str, n: int) -> _Rewriter:
    return _Rewriter(group, n)


def reduce(p: Polynomial, group: str, n: int) -> SpanDecomposition:
    """Exact decomposition of p over the spanning basis, invariant coefficients."""
    ring = weyl.e_ring(n)
    if not p.ring.compatible_with(ring):
        raise RingMismatchError(f"polynomial must live in Z[e_1..e_{n}] with degree-2 variables")
    cring = weyl.invariant_ring(group, n)
    rewriter = _rewriter(group, n)
    zero = (0,) * n
    acc: dict[tuple[Monomial, Monomial], Coefficient] = {}
    for mono, coeff in p.terms.items():
        _add_scaled(acc, rewriter._reduce_monomial(0, mono), zero, coeff)
    coeffs: dict[Monomial, dict[Monomial, Coefficient]] = {}
    for (b, s), c in acc.items():
        coeffs.setdefault(b, {})[s] = c
    terms = {b: Polynomial(cring, t) for b, t in coeffs.items()}
    return SpanDecomposition(group=group, n=n, target=p, terms=terms)


def expand(dec: SpanDecomposition) -> Polynomial:
    """Substitute the invariant generators back; must reproduce dec.target."""
    ring = weyl.e_ring(dec.n)
    inv = weyl.invariant_generators(dec.group, dec.n)
    mapping = dict(zip(inv.names, inv.gens))
    total = Polynomial.zero(ring)
    for mono, coeff in dec.terms.items():
        image = coeff.substitute(mapping, ring=ring)
        total = total + image * Polynomial.monomial(ring, mono)
    return total


@dataclass(frozen=True)
class FreenessReport:
    group: str
    n: int
    max_degree: int
    passed: bool
    first_mismatch: int | None
    lhs: tuple[int, ...]  # Hilbert series of Z[e_1..e_n]
    rhs: tuple[int, ...]  # Hilbert series of invariants times basis degrees


def verify_free(group: str, n: int, max_degree: int) -> FreenessReport:
    """Check Hilb(Z[e]) == Hilb(invariants) * (sum_b q^deg b) up to max_degree."""
    lhs = series.poly_ring_hilbert([2] * n, max_degree)
    ring = weyl.e_ring(n)
    basis_degrees = [ring.monomial_degree(m) for m in basis(group, n).monomials]
    inv_degrees = weyl.invariant_ring(group, n).degrees
    rhs, first = series.free_module_series(lhs, inv_degrees, basis_degrees, max_degree)
    return FreenessReport(
        group=group,
        n=n,
        max_degree=max_degree,
        passed=first is None,
        first_mismatch=first,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
    )
