"""Signed-permutation Weyl groups of types B and D acting on Z[e_1..e_n].

W(B_n) consists of all maps e_i -> +/- e_{pi(i)}; W(D_n) is the subgroup with
an even number of sign flips.  Their invariant rings are generated by

    s_i = sigma_i(e_1^2, ..., e_n^2)   (i = 1..n)          for B,
    s_1..s_{n-1} and t = e_1 e_2 ... e_n                   for D,

all of which is checkable here (is_invariant tests against the group
generators only: adjacent transpositions plus one sign generator).

The degree-lowering witnesses express e_1^{2n} (resp. e_1^{2n-1}) as explicit
combinations of the invariant generators:

    e_1^{2n}   = sum_i wit_g_i * s_i
    e_1^{2n-1} = sum_{i<n} wit_h_i * s_i + wit_h_n * t

This module owns the Weyl-group data every other module reads: the witness
exponent (witness_power, which bounds the spanning bases), the group orders
(group_order), and the abstract invariant ring Z[s_1..s_n] resp.
Z[s_1..s_{n-1}, t] (invariant_ring), in which spanning decompositions take
their coefficients and InvariantGenerators names its generators.

The cofactors are produced by extended normal-form reduction against the
Groebner basis of the invariant ideal (grevlex, e_1 > ... > e_n), which fixes
them deterministically; the identity is then re-verified over Z by expansion.
"""

from __future__ import annotations

from functools import lru_cache

from .groebner import Ideal, member_with_cofactors
from .polyring import Polynomial, RingSpec, _record, map_variables
from .symfunc import elementary, in_squares

__all__ = [
    "InvariantGenerators",
    "SignedPermutation",
    "apply_action",
    "coinvariant_ideal",
    "e_ring",
    "group_generators",
    "group_order",
    "invariant_generators",
    "invariant_ring",
    "is_invariant",
    "witness_B",
    "witness_D",
    "witness_power",
]


@lru_cache(maxsize=32)
def e_ring(n: int) -> RingSpec:
    """Z[e_1..e_n] with cohomological degree 2 on every generator."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return RingSpec.make((f"e{i}", 2) for i in range(1, n + 1))


def _check_group(group: str) -> None:
    if group not in ("B", "D"):
        raise ValueError(f"group must be 'B' or 'D', got {group!r}")


def group_order(group: str, n: int) -> int:
    _check_group(group)
    order = 2**n if group == "B" else 2 ** max(n - 1, 0)
    for k in range(2, n + 1):
        order *= k
    return order


@_record
class SignedPermutation:
    """An element e_i -> signs[i] * e_{perm[i]} (0-indexed internally)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    group: str

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm must be a bijection of 0..{n-1}, got {self.perm}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be a +/-1 vector matching perm")
        _check_group(self.group)
        if self.group == "D" and self.signs.count(-1) % 2:
            raise ValueError("type D elements need an even number of sign flips")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int, group: str = "B") -> SignedPermutation:
        return SignedPermutation(tuple(range(n)), (1,) * n, group)


def apply_action(g: SignedPermutation, p: Polynomial) -> Polynomial:
    """Image of p under the ring automorphism e_i -> signs[i] * e_{perm[i]}.

    One polyring.map_variables: a term's sign is the parity of its exponents
    at the flipped variables.  The map is a bijection on monomials, so no
    terms meet and the coefficients stay normalized.
    """
    ring = p.ring
    if len(ring) != g.n:
        raise ValueError(f"element of rank {g.n} cannot act on ring with {len(ring)} variables")
    xs = ring.packing.variables
    flips = sum(1 << 64 * i for i, sign in enumerate(g.signs) if sign == -1)
    return Polynomial._trusted(ring, map_variables(ring, p._terms, [xs[j] for j in g.perm], flips))


def group_generators(group: str, n: int) -> list[SignedPermutation]:
    """Adjacent transpositions plus the sign generator of the group.

    B: flip the sign of e_n.  D: flip the signs of e_{n-1} and e_n (none for
    n = 1, where W(D_1) is trivial).
    """
    _check_group(group)
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPermutation(tuple(perm), (1,) * n, group))
    flips = 1 if group == "B" else 2
    if n >= flips:
        signs = (1,) * (n - flips) + (-1,) * flips
        gens.append(SignedPermutation(tuple(range(n)), signs, group))
    return gens


@lru_cache(maxsize=32)
def invariant_ring(group: str, rank: int) -> RingSpec:
    """The abstract invariant ring: Z[s_1..s_r] (B) or Z[s_1..s_{r-1}, t] (D).

    deg s_i = 4i and deg t = 2r, the degrees of the generators they name.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    _check_group(group)
    squares = rank if group == "B" else rank - 1
    pairs = [(f"s{i}", 4 * i) for i in range(1, squares + 1)]
    if group == "D" and rank >= 1:
        pairs.append(("t", 2 * rank))
    return RingSpec.make(pairs)


@_record
class InvariantGenerators:
    """The invariant-ring generators as expanded polynomials in Z[e_1..e_n]."""

    group: str
    n: int
    ring: RingSpec  # invariant_ring(group, n): one variable per generator
    gens: tuple[Polynomial, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return self.ring.names

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.ring.degrees


@lru_cache(maxsize=32)
def invariant_generators(group: str, n: int) -> InvariantGenerators:
    """s_1..s_n for B; s_1..s_{n-1}, t for D (t alone when n = 1).

    Built once per (group, n) of the last 32 used; every caller gets the
    same immutable generators.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cring = invariant_ring(group, n)  # checks the group
    ring = e_ring(n)
    squares = n if group == "B" else n - 1
    gens = tuple(in_squares(elementary(i, ring)) for i in range(1, squares + 1))
    if group == "D":
        gens += (Polynomial.monomial(ring, (1,) * n),)
    return InvariantGenerators(group, n, cring, gens)


def is_invariant(p: Polynomial, group: str, n: int) -> bool:
    """Whether p is fixed by the whole group (checked on group generators)."""
    for g in group_generators(group, n):
        if apply_action(g, p) != p:
            return False
    return True


@lru_cache(maxsize=32)
def coinvariant_ideal(group: str, n: int) -> Ideal:
    """Ideal generated by the positive-degree invariant generators.

    Built once per (group, n) of the last 32 used, like invariant_generators.
    """
    inv = invariant_generators(group, n)
    return Ideal(e_ring(n), inv.gens)


def witness_power(group: str, rank: int) -> int:
    """The witness exponent: e_1^{2r} (B) resp. e_1^{2r-1} (D) lies in the invariant ideal.

    The spanning bases stop one below it: e_i below the witness exponent of
    rank n+1-i.
    """
    _check_group(group)
    return 2 * rank if group == "B" else 2 * rank - 1


def _witness(group: str, n: int) -> list[Polynomial]:
    if n < 1:
        raise ValueError("n must be >= 1")
    target_power = witness_power(group, n)
    ring = e_ring(n)
    target = Polynomial.variable(ring, "e1") ** target_power
    cofactors = member_with_cofactors(target, coinvariant_ideal(group, n))
    if cofactors is None:
        raise AssertionError(
            f"e1^{target_power} unexpectedly not in the type-{group} invariant ideal"
        )
    for c in cofactors:
        if not c.is_integral():
            raise AssertionError(
                f"witness cofactor {c} is not integral; cannot clear denominators "
                "without breaking the identity"
            )
    return cofactors


def witness_B(n: int) -> list[Polynomial]:
    """Cofactors wit_g_i with e_1^{2n} == sum_i wit_g_i * s_i, exactly over Z."""
    return _witness("B", n)


def witness_D(n: int) -> list[Polynomial]:
    """Cofactors wit_h_i with e_1^{2n-1} == sum_{i<n} wit_h_i * s_i + wit_h_n * t."""
    return _witness("D", n)
