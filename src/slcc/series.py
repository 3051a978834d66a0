"""Truncated integer power series in one variable q.

A series is a plain list of ints, ``s[d]`` = coefficient of ``q^d``, of length
``bound + 1``.  Everything is exact; truncation is the only approximation and
every function takes the bound explicitly.  Used for Hilbert-series identities
of graded rings, where ``q^d`` counts the degree-``d`` slice.
"""

from __future__ import annotations

__all__ = [
    "free_module_series",
    "geometric",
    "one",
    "poly_ring_hilbert",
    "series_from_degrees",
    "series_mul",
    "series_text",
]


def one(bound: int) -> list[int]:
    return [1] + [0] * bound


def series_mul(a: list[int], b: list[int], bound: int) -> list[int]:
    out = [0] * (bound + 1)
    for i, ca in enumerate(a[: bound + 1]):
        if not ca:
            continue
        for j, cb in enumerate(b[: bound + 1 - i]):
            if cb:
                out[i + j] += ca * cb
    return out


def geometric(degree: int, bound: int) -> list[int]:
    """1 / (1 - q^degree) truncated: 1 + q^d + q^2d + ..."""
    if degree < 1:
        raise ValueError("degree must be positive")
    out = [0] * (bound + 1)
    for k in range(0, bound + 1, degree):
        out[k] = 1
    return out


def poly_ring_hilbert(degrees: list[int] | tuple[int, ...], bound: int) -> list[int]:
    """Hilbert series of a free graded polynomial ring on the given degrees."""
    out = one(bound)
    for d in degrees:
        # multiply by 1/(1-q^d) in place: out[k] += out[k-d]
        for k in range(d, bound + 1):
            out[k] += out[k - d]
    return out


def series_from_degrees(degs: list[int], bound: int) -> list[int]:
    """Generating polynomial of a finite degree multiset, truncated."""
    out = [0] * (bound + 1)
    for d in degs:
        if d <= bound:
            out[d] += 1
    return out


def free_module_series(
    lhs: list[int], generator_degrees, basis_degrees: list[int], bound: int
) -> tuple[list[int], int | None]:
    """The Hilbert series of a free module, and where ``lhs`` first departs from it.

    The module is free over the polynomial ring on ``generator_degrees`` with
    a basis in ``basis_degrees``; returns its series truncated at ``bound`` and
    the first degree at which ``lhs`` differs (None when they agree).
    """
    module = series_from_degrees(basis_degrees, bound)
    rhs = series_mul(poly_ring_hilbert(generator_degrees, bound), module, bound)
    return rhs, next((d for d in range(bound + 1) if lhs[d] != rhs[d]), None)


def series_text(s: list[int], var: str = "q") -> str:
    parts = []
    for d, c in enumerate(s):
        if not c:
            continue
        if d == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(var if d == 1 else f"{var}^{d}")
        else:
            parts.append(f"{c}*{var}^{d}" if d > 1 else f"{c}*{var}")
    return " + ".join(parts) if parts else "0"
