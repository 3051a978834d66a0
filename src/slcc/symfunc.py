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

from .polyring import Polynomial, RingSpec

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
    n = len(ring)
    terms = {}
    for combo in itertools.combinations(idxs, i):
        expo = [0] * n
        for j in combo:
            expo[j] = 1
        terms[tuple(expo)] = 1
    return Polynomial(ring, terms)


def complete(i: int, ring: RingSpec, names=None) -> Polynomial:
    """h_i over the given variables: the sum of all degree-i monomials."""
    if i < 0:
        raise ValueError("index must be non-negative")
    idxs = _resolve(ring, names)
    n = len(ring)
    if i == 0:
        return Polynomial.one(ring)
    if not idxs:
        return Polynomial.zero(ring)
    terms = {}
    for combo in itertools.combinations_with_replacement(idxs, i):
        expo = [0] * n
        for j in combo:
            expo[j] += 1
        terms[tuple(expo)] = 1
    return Polynomial(ring, terms)


def in_squares(p: Polynomial) -> Polynomial:
    """p(x_1^2, ..., x_n^2): the same terms with every exponent doubled."""
    return Polynomial(p.ring, {tuple(2 * e for e in expo): c for expo, c in p.terms.items()})


@lru_cache(maxsize=None)
def g_ring(m: int) -> RingSpec:
    """Ring Z[sigma_1..sigma_m] with weight(sigma_j) = j."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return RingSpec.make((f"sigma{j}", j) for j in range(1, m + 1))


@lru_cache(maxsize=None)
def g_poly(i: int, m: int) -> Polynomial:
    """h_i as a polynomial in sigma_1..sigma_m (weighted-homogeneous of weight i)."""
    if i < 0:
        raise ValueError("i must be non-negative")
    ring = g_ring(m)
    if i == 0:
        return Polynomial.one(ring)
    acc = Polynomial.zero(ring)
    for j in range(1, min(i, m) + 1):
        sigma_j = Polynomial.variable(ring, f"sigma{j}")
        term = sigma_j * g_poly(i - j, m)
        acc = acc + (term if j % 2 == 1 else -term)
    return acc


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
    rhs = Polynomial.zero(ring)
    for i in range(k + 1):
        rhs = rhs + complete(i, ring, head) * x_l ** (k - i)
    return lhs == rhs


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
    ring = x_ring(num_vars)
    # coefficient list in u of prod (1 - x_j u): (-1)^j sigma_j at u^j
    left = [
        (elementary(j, ring) if j % 2 == 0 else -elementary(j, ring))
        for j in range(min(num_vars, order) + 1)
    ]
    right = [complete(i, ring) for i in range(order + 1)]
    for d in range(order + 1):
        coeff = Polynomial.zero(ring)
        for j in range(min(d, len(left) - 1) + 1):
            coeff = coeff + left[j] * right[d - j]
        expected = Polynomial.one(ring) if d == 0 else Polynomial.zero(ring)
        if coeff != expected:
            return False
    return True
