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

The cofactors are produced by extended normal-form reduction against the
Groebner basis of the invariant ideal (grevlex, e_1 > ... > e_n), which fixes
them deterministically; the identity is then re-verified over Z by expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groebner import Ideal, member_with_cofactors
from .polyring import Polynomial, RingSpec
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
    "is_invariant",
    "witness_B",
    "witness_D",
]


@lru_cache(maxsize=None)
def e_ring(n: int) -> RingSpec:
    """Z[e_1..e_n] with cohomological degree 2 on every generator."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return RingSpec.make((f"e{i}", 2) for i in range(1, n + 1))


def group_order(group: str, n: int) -> int:
    if group == "B":
        order = 2**n
    elif group == "D":
        order = 2 ** (n - 1) if n >= 1 else 1
    else:
        raise ValueError(f"group must be 'B' or 'D', got {group!r}")
    for k in range(2, n + 1):
        order *= k
    return order


@dataclass(frozen=True)
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
        if self.group == "D":
            prod = 1
            for s in self.signs:
                prod *= s
            if prod != 1:
                raise ValueError("type D elements need an even number of sign flips")
        elif self.group != "B":
            raise ValueError(f"group must be 'B' or 'D', got {self.group!r}")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int, group: str = "B") -> SignedPermutation:
        return SignedPermutation(tuple(range(n)), (1,) * n, group)

    def compose(self, other: SignedPermutation) -> SignedPermutation:
        """The element acting as self after other: act(compose) == act(self) o act(other)."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        perm = tuple(self.perm[other.perm[i]] for i in range(self.n))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]] for i in range(self.n))
        group = "D" if self.group == "D" and other.group == "D" else "B"
        return SignedPermutation(perm, signs, group)


def apply_action(g: SignedPermutation, p: Polynomial) -> Polynomial:
    """Image of p under the ring automorphism e_i -> signs[i] * e_{perm[i]}."""
    ring = p.ring
    if len(ring) != g.n:
        raise ValueError(f"element of rank {g.n} cannot act on ring with {len(ring)} variables")
    out: dict[tuple, int] = {}
    for expo, coeff in p.terms.items():
        new = [0] * g.n
        sign = 1
        for i, e in enumerate(expo):
            if not e:
                continue
            new[g.perm[i]] += e
            if g.signs[i] == -1 and e % 2 == 1:
                sign = -sign
        key = tuple(new)
        out[key] = out.get(key, 0) + sign * coeff
    return Polynomial(ring, out)


def group_generators(group: str, n: int) -> list[SignedPermutation]:
    """Adjacent transpositions plus the sign generator of the group.

    B: flip the sign of e_n.  D: flip the signs of e_{n-1} and e_n (none for
    n = 1, where W(D_1) is trivial).
    """
    if group not in ("B", "D"):
        raise ValueError(f"group must be 'B' or 'D', got {group!r}")
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPermutation(tuple(perm), (1,) * n, group))
    if group == "B" and n >= 1:
        signs = [1] * n
        signs[n - 1] = -1
        gens.append(SignedPermutation(tuple(range(n)), tuple(signs), "B"))
    if group == "D" and n >= 2:
        signs = [1] * n
        signs[n - 1] = -1
        signs[n - 2] = -1
        gens.append(SignedPermutation(tuple(range(n)), tuple(signs), "D"))
    return gens


@dataclass(frozen=True)
class InvariantGenerators:
    """The invariant-ring generators as expanded polynomials in Z[e_1..e_n]."""

    group: str
    n: int
    names: tuple[str, ...]
    gens: tuple[Polynomial, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(g.homogeneous_degree() for g in self.gens)


def invariant_generators(group: str, n: int) -> InvariantGenerators:
    """s_1..s_n for B; s_1..s_{n-1}, t for D (t alone when n = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ring = e_ring(n)
    if group == "B":
        names = tuple(f"s{i}" for i in range(1, n + 1))
        gens = tuple(in_squares(elementary(i, ring)) for i in range(1, n + 1))
    elif group == "D":
        names = tuple(f"s{i}" for i in range(1, n)) + ("t",)
        t = Polynomial.monomial(ring, (1,) * n)
        gens = tuple(in_squares(elementary(i, ring)) for i in range(1, n)) + (t,)
    else:
        raise ValueError(f"group must be 'B' or 'D', got {group!r}")
    return InvariantGenerators(group, n, names, gens)


def is_invariant(p: Polynomial, group: str, n: int | None = None) -> bool:
    """Whether p is fixed by the whole group (checked on group generators)."""
    if n is None:
        n = len(p.ring)
    for g in group_generators(group, n):
        if apply_action(g, p) != p:
            return False
    return True


def coinvariant_ideal(group: str, n: int) -> Ideal:
    """Ideal generated by the positive-degree invariant generators."""
    inv = invariant_generators(group, n)
    return Ideal(e_ring(n), inv.gens)


def _witness(group: str, n: int, target_power: int) -> list[Polynomial]:
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
    if n < 1:
        raise ValueError("n must be >= 1")
    return _witness("B", n, 2 * n)


def witness_D(n: int) -> list[Polynomial]:
    """Cofactors wit_h_i with e_1^{2n-1} == sum_{i<n} wit_h_i * s_i + wit_h_n * t."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _witness("D", n, 2 * n - 1)
