"""Elementary and complete homogeneous symmetric polynomials.

``elementary(i, ...)`` and ``complete(i, ...)`` expand sigma_i and h_i over a
chosen subset of ring variables.  ``in_squares(p)`` is p(x_1^2, ..., x_n^2), so
``in_squares(complete(i, ring, names))`` is h_i of the squared variables.
``g_poly(i, m)`` is the unique polynomial expressing h_i through
sigma_1..sigma_m, computed by the Newton-type recurrence

    h_i = sum_{j=1..min(i,m)} (-1)^(j-1) * sigma_j * h_{i-j},    h_0 = 1,

so that substituting sigma_j -> elementary(j) recovers complete(i).  The two
recurrence identities used when splitting off a variable,

    h_k(x_1..x_l) = sum_{i<=k} h_i(x_1..x_{l-1}) * x_l^(k-i)
    h_i(x_1..x_n) = h_i(x_1..x_{n-1}) + x_n * h_{i-1}(x_1..x_n)

are provided as machine checks (verify_h_split / verify_h_peel), as is the
defining generating-function identity prod(1 - x_j u) * sum h_i u^i == 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .polyring import (
    EXPONENT_LIMIT, ExponentOverflowError, Polynomial, RingSpec, linear_combination
)

__all__ = [
    "complete",
    "elementary",
    "g_poly",
    "g_ring",
    "generating_function_check",
    "in_squares",
    "verify_h_peel",
    "verify_h_split",
    "x_ring",
]


def _resolve(ring: RingSpec, names) -> list[int]:
    if names is None:
        return list(range(len(ring)))
    return [ring.index(n) for n in names]


def elementary(i: int, ring: RingSpec, names=None) -> Polynomial:
    """sigma_i over the given variables; sigma_0 = 1, sigma_i = 0 past #vars."""
    if i < 0:
        raise ValueError("index must be non-negative")
    idxs = _resolve(ring, names)
    if i > len(idxs):
        return Polynomial.zero(ring)
    xs = ring.packing.variables
    terms = {sum(map(xs.__getitem__, combo)): 1 for combo in itertools.combinations(idxs, i)}
    return Polynomial._trusted(ring, terms)


def complete(i: int, ring: RingSpec, names=None) -> Polynomial:
    """h_i over the given variables: the sum of all degree-i monomials.

    Built one variable at a time on packed ints (polyring.Packing): each
    partial monomial, with the exponent sum it leaves, takes x_j^e for every
    e up to what is left, and the last variable takes the rest, so the work
    and the memory go per term.
    """
    if i < 0:
        raise ValueError("index must be non-negative")
    idxs = _resolve(ring, names)
    if i == 0:
        return Polynomial.one(ring)
    if not idxs:
        return Polynomial.zero(ring)
    if i >= EXPONENT_LIMIT:  # x_j^i is one of the terms
        raise ExponentOverflowError(f"exponent {i} exceeds limit {EXPONENT_LIMIT}")
    xs = [ring.packing.variables[j] for j in idxs]
    partial = {0: i}  # packed monomial -> exponent sum still left
    for x in xs[:-1]:
        partial = {p + e * x: left - e for p, left in partial.items() for e in range(left + 1)}
    return Polynomial._trusted(ring, {p + left * xs[-1]: 1 for p, left in partial.items()})


def in_squares(p: Polynomial) -> Polynomial:
    """p(x_1^2, ..., x_n^2): the same terms with every exponent doubled.

    pack is linear (polyring.Packing), so doubling a monomial doubles its int.
    """
    terms = {2 * m: c for m, c in p._terms.items()}
    p.ring.packing.check_limit(terms)
    return Polynomial._trusted(p.ring, terms)


@lru_cache(maxsize=32)
def g_ring(m: int) -> RingSpec:
    """Ring Z[sigma_1..sigma_m] with weight(sigma_j) = j."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return RingSpec.make((f"sigma{j}", j) for j in range(1, m + 1))


@lru_cache(maxsize=128)
def g_poly(i: int, m: int) -> Polynomial:
    """h_i as a polynomial in sigma_1..sigma_m (weighted-homogeneous of weight i).

    h_0..h_i are built bottom-up in one loop, each from the m before it.
    """
    if i < 0:
        raise ValueError("i must be non-negative")
    ring = g_ring(m)
    sigmas = (Polynomial.variable(ring, f"sigma{j}") for j in range(1, min(i, m) + 1))
    # signed[j - 1] is (-1)^(j-1) sigma_j, and h_k pairs it with h_{k-j}: h read backwards
    signed = [-s if j % 2 else s for j, s in enumerate(sigmas)]
    h = [Polynomial.one(ring)]
    for _ in range(i):
        h.append(linear_combination(ring, zip(signed, reversed(h))))
    return h[i]


def x_ring(n: int) -> RingSpec:
    return RingSpec.make((f"x{j}", 1) for j in range(1, n + 1))


def verify_h_split(k: int, l: int) -> bool:
    """h_k(x_1..x_l) == sum_{i<=k} h_i(x_1..x_{l-1}) * x_l^(k-i), expanded."""
    if k < 0 or l < 1:
        raise ValueError("need k >= 0 and l >= 1")
    ring = x_ring(l)
    lhs = complete(k, ring)
    head = [f"x{j}" for j in range(1, l)]
    x_l = Polynomial.variable(ring, f"x{l}")
    pairs = ((complete(i, ring, head), x_l ** (k - i)) for i in range(k + 1))
    return lhs == linear_combination(ring, pairs)


def verify_h_peel(i: int, n: int) -> bool:
    """h_i(x_1..x_n) == h_i(x_1..x_{n-1}) + x_n * h_{i-1}(x_1..x_n), expanded."""
    if i < 1 or n < 1:
        raise ValueError("need i >= 1 and n >= 1")
    ring = x_ring(n)
    head = [f"x{j}" for j in range(1, n)]
    x_n = Polynomial.variable(ring, f"x{n}")
    return complete(i, ring) == complete(i, ring, head) + x_n * complete(i - 1, ring)


def generating_function_check(num_vars: int, order: int) -> bool:
    """prod_j (1 - x_j u) * sum_i h_i u^i == 1, truncated at u^order.

    Coefficients of powers of u are exact polynomials in x_1..x_n; this is
    the independent oracle pinning complete() and hence g_poly().
    """
    if num_vars < 0 or order < 0:
        raise ValueError("need n >= 0 and order >= 0")
    ring = x_ring(num_vars)
    # coefficient list in u of prod (1 - x_j u): (-1)^j sigma_j at u^j
    left = [
        (elementary(j, ring) if j % 2 == 0 else -elementary(j, ring))
        for j in range(min(num_vars, order) + 1)
    ]
    right = [complete(i, ring) for i in range(order + 1)]
    for d in range(order + 1):
        coeff = linear_combination(ring, zip(left, right[d::-1]))
        expected = Polynomial.one(ring) if d == 0 else Polynomial.zero(ring)
        if coeff != expected:
            return False
    return True
