"""Spanning sets of Z[e_1..e_n] over the Weyl invariant rings, constructively.

The spanning monomials are

    type B:  e_1^{m_1} ... e_n^{m_n}            with 0 <= m_i <= 2(n-i)+1
    type D:  u_1 ... u_{n-1}                    with u_i = e_i^{m_i},
             0 <= m_i <= 2(n-i), or u_i = e_{i+1} e_{i+2} ... e_n

of cardinality 2^n n! resp. 2^{n-1} n! (the Weyl group orders).  reduce()
rewrites any polynomial as an invariant-coefficient combination of these
monomials by following the inductive proof literally, variable by variable:

* if the e_1-exponent reaches the threshold (2n for B, 2n-1 for D), apply the
  degree-lowering witness identity for e_1^{2n} resp. e_1^{2n-1} and carry
  the invariant generators out into the coefficients;
* otherwise reduce the e_2..e_n tail recursively, then re-express the tail's
  invariants through the level-1 ones via s_i = e_1^2 s'_{i-1} + s'_i and
  t = e_1 t' (and t'^2 = s'_{n-1} splits coefficients by t'-parity in type D),
  splitting off powers of e_1 that either land inside the basis bounds or are
  fed back into the threshold case.

Every step strictly lowers (total degree, leading exponent), which is the
termination measure of the proof.  Decomposition coefficients live in the
abstract rings Z[s_1..s_n] (B) or Z[s_1..s_{n-1}, t] (D) with deg s_i = 4i,
deg t = 2n; expand() substitutes the invariant polynomials back and must
reproduce the target exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import series, weyl
from .polyring import Monomial, Polynomial, RingMismatchError, RingSpec

__all__ = [
    "FreenessReport",
    "SpanDecomposition",
    "SpanningBasis",
    "basis",
    "coefficient_ring",
    "expand",
    "power_or_tail",
    "reduce",
    "verify_free",
]


@lru_cache(maxsize=None)
def coefficient_ring(group: str, rank: int) -> RingSpec:
    """Invariant coefficient ring: Z[s_1..s_r] (B) or Z[s_1..s_{r-1}, t] (D)."""
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if group == "B":
        return RingSpec.make((f"s{i}", 4 * i) for i in range(1, rank + 1))
    if group == "D":
        pairs = [(f"s{i}", 4 * i) for i in range(1, rank)]
        if rank >= 1:
            pairs.append(("t", 2 * rank))
        return RingSpec.make(pairs)
    raise ValueError(f"group must be 'B' or 'D', got {group!r}")


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
    ring = weyl.e_ring(n)
    if group == "B":
        monos = power_or_tail(ring, [2 * (n - i) + 1 for i in range(1, n + 1)], tail=False)
    elif group == "D":
        monos = power_or_tail(ring, [2 * (n - i) for i in range(1, n)], tail=True)
    else:
        raise ValueError(f"group must be 'B' or 'D', got {group!r}")
    return SpanningBasis(group, n, monos)


@dataclass
class SpanDecomposition:
    """target == sum over terms of coefficient * basis monomial, exactly."""

    group: str
    n: int
    target: Polynomial
    terms: dict[Monomial, Polynomial]  # basis monomial -> invariant coefficient


# -- the rewriting engine ----------------------------------------------------


def _shift_into(p: Polynomial, offset: int, n: int) -> Polynomial:
    """Embed a polynomial in e_1..e_r as one in e_{offset+1}..e_{offset+r} of rank n."""
    ring = weyl.e_ring(n)
    r = len(p.ring)
    terms = {}
    for expo, coeff in p.terms.items():
        terms[(0,) * offset + tuple(expo) + (0,) * (n - offset - r)] = coeff
    return Polynomial(ring, terms)


@lru_cache(maxsize=None)
def _witness_shifted(group: str, n: int, level: int) -> tuple[Polynomial, ...]:
    rank = n - level
    wit = weyl.witness_B(rank) if group == "B" else weyl.witness_D(rank)
    return tuple(_shift_into(w, level, n) for w in wit)


@lru_cache(maxsize=None)
def _mixed_ring(group: str, rank: int) -> RingSpec:
    """Ring Z[E, coefficient_ring(group, rank)]: E is the peeled variable."""
    return RingSpec.make([("E", 2)] + list(coefficient_ring(group, rank).vars))


@lru_cache(maxsize=None)
def _sprime_image(group: str, rank: int, i: int) -> Polynomial:
    """s'_i of the tail in level terms: sum_{u=0..i} (-1)^u E^{2u} s_{i-u}."""
    mixed = _mixed_ring(group, rank)
    acc = Polynomial.zero(mixed)
    for u in range(i + 1):
        if i - u == 0:
            base = Polynomial.one(mixed)
        else:
            base = Polynomial.variable(mixed, f"s{i - u}")
        term = base * (Polynomial.variable(mixed, "E") ** (2 * u))
        acc = acc + (term if u % 2 == 0 else -term)
    return acc


def _convert_tail_coeff(alpha: Polynomial, group: str, rank: int) -> Polynomial:
    """Map a Z[s'_1..s'_{rank-1}] coefficient into the mixed ring of this level."""
    mixed = _mixed_ring(group, rank)
    if not alpha.ring.vars:  # constant over the empty ring
        return Polynomial.constant(mixed, alpha.constant_coefficient())
    mapping = {f"s{i}": _sprime_image(group, rank, i) for i in range(1, len(alpha.ring) + 1)}
    return alpha.substitute(mapping, ring=mixed)


def _split_t_parity(alpha: Polynomial, rank: int) -> tuple[Polynomial, Polynomial]:
    """Write alpha(s'_*, t') = tilde(s'_*) + t' * hat(s'_*) using t'^2 = s'_{rank-1}.

    alpha lives in coefficient_ring("D", rank-1); the results live in
    coefficient_ring("B", rank-1), whose last variable is s'_{rank-1}.
    """
    target = coefficient_ring("B", rank - 1)
    tilde: dict[Monomial, int] = {}
    hat: dict[Monomial, int] = {}
    src = alpha.ring
    nsrc = len(src)
    for expo, coeff in alpha.terms.items():
        t_exp = expo[nsrc - 1] if nsrc else 0
        s_part = list(expo[: nsrc - 1]) if nsrc else []
        new = s_part + [0] * (len(target) - len(s_part))
        if len(target):
            new[len(target) - 1] += t_exp // 2  # t'^2 -> s'_{rank-1}
        key = tuple(new)
        bucket = tilde if t_exp % 2 == 0 else hat
        bucket[key] = bucket.get(key, 0) + coeff
    return Polynomial(target, tilde), Polynomial(target, hat)


def _basis_bound(group: str, rank: int) -> int:
    return 2 * rank - 1 if group == "B" else 2 * rank - 2


def _threshold(group: str, rank: int) -> int:
    return 2 * rank if group == "B" else 2 * rank - 1


def _with_exponent(mono: Monomial, pos: int, value: int) -> Monomial:
    out = list(mono)
    out[pos] = value
    return tuple(out)


def _add_into(acc: dict[Monomial, Polynomial], items, factor: Polynomial | None = None) -> None:
    for m, c in items:
        inc = c if factor is None else c * factor
        cur = acc.get(m)
        total = inc if cur is None else cur + inc
        if total.is_zero():
            acc.pop(m, None)
        else:
            acc[m] = total


@lru_cache(maxsize=None)
def _reduce_monomial(group: str, n: int, level: int, mono: Monomial):
    """Decompose one monomial at the given level; returns ((basis mono, coeff), ...).

    ``level`` counts peeled variables: the active variables are
    e_{level+1}..e_n and coefficients live in coefficient_ring(group, n-level).
    """
    rank = n - level
    cring = coefficient_ring(group, rank)
    if rank == 0:
        return ((mono, Polynomial.one(cring)),)

    a = mono[level]
    acc: dict[Monomial, Polynomial] = {}

    if a >= _threshold(group, rank):
        # degree-lowering witness: e_{level+1}^threshold = sum cofactor * invariant
        wits = _witness_shifted(group, n, level)
        rest = Polynomial.monomial(
            weyl.e_ring(n), _with_exponent(mono, level, a - _threshold(group, rank))
        )
        for idx, w in enumerate(wits):
            carried = Polynomial.variable(cring, cring.names[idx])
            for sub_mono, sub_coeff in (w * rest).terms.items():
                sub = _reduce_monomial(group, n, level, sub_mono)
                _add_into(acc, sub, carried * sub_coeff)
        return tuple(sorted(acc.items(), key=lambda kv: kv[0]))

    tail_dec = _reduce_monomial(group, n, level + 1, _with_exponent(mono, level, 0))
    bound = _basis_bound(group, rank)

    for bprime, alpha in tail_dec:
        if group == "B":
            parts = [(alpha, False)]
        else:
            tilde, hat = _split_t_parity(alpha, rank)
            parts = [(tilde, False), (hat, True)]
        for part, has_tprime in parts:
            if part.is_zero():
                continue
            mixed = _convert_tail_coeff(part, group, rank)
            for mexpo, mcoeff in mixed.terms.items():
                l = mexpo[0]  # exponent of the peeled variable E
                s_mono = Polynomial.monomial(cring, mexpo[1:], mcoeff)
                A = a + l
                if not has_tprime:
                    if A <= bound:
                        _add_into(acc, ((_with_exponent(bprime, level, A), s_mono),))
                    else:
                        sub = _reduce_monomial(
                            group, n, level, _with_exponent(bprime, level, A)
                        )
                        _add_into(acc, sub, s_mono)
                else:
                    if A == 0:
                        # u = e_{level+2} .. e_n joins the basis monomial
                        tailprod = list(bprime)
                        for j in range(level + 1, n):
                            tailprod[j] += 1
                        _add_into(acc, ((tuple(tailprod), s_mono),))
                    else:
                        # carry t = e_{level+1} * t' out into the coefficient
                        carried = s_mono * Polynomial.variable(cring, "t")
                        sub = _reduce_monomial(
                            group, n, level, _with_exponent(bprime, level, A - 1)
                        )
                        _add_into(acc, sub, carried)
    return tuple(sorted(acc.items(), key=lambda kv: kv[0]))


def reduce(p: Polynomial, group: str, n: int) -> SpanDecomposition:
    """Exact decomposition of p over the spanning basis, invariant coefficients."""
    ring = weyl.e_ring(n)
    if not p.ring.compatible_with(ring):
        raise RingMismatchError(f"polynomial must live in Z[e_1..e_{n}] with degree-2 variables")
    acc: dict[Monomial, Polynomial] = {}
    cring = coefficient_ring(group, n)
    for mono, coeff in p.terms.items():
        factor = Polynomial.constant(cring, coeff)
        _add_into(acc, _reduce_monomial(group, n, 0, mono), factor)
    return SpanDecomposition(group=group, n=n, target=p, terms=acc)


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
    inv_degrees = list(coefficient_ring(group, n).degrees)
    b = basis(group, n)
    ring = weyl.e_ring(n)
    basis_degrees = [ring.monomial_degree(m) for m in b.monomials]
    rhs = series.series_mul(
        series.poly_ring_hilbert(inv_degrees, max_degree),
        series.series_from_degrees(basis_degrees, max_degree),
        max_degree,
    )
    first = next((d for d in range(max_degree + 1) if lhs[d] != rhs[d]), None)
    return FreenessReport(
        group=group,
        n=n,
        max_degree=max_degree,
        passed=first is None,
        first_mismatch=first,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
    )
