"""Generators-and-relations presentations of the cohomology rings.

One builder per family, each returning a :class:`Presentation` (ambient
graded ring, homogeneous ideal, declared basis, and which variables are
base-ring parameters):

* present_sgr2(n, parity): the rank-2 Grassmannians SGr(2, 2n+1) and
  SGr(2, 2n) over a point, i.e. (e1^{2n}) resp. (e1*e2, e1^{2n-2} + (-1)^n e2^2).
* present_sgr2_relative(n, parity): the same over a base with characteristic
  classes b_1.., e as polynomial parameters (coefficient_vars).
* present_partial_flag / present_partial_flag_alt: the two printed generating
  sets of the flag ideals I_{2m,k}, whose equality is a theorem to verify.
* present_max_flag(N): the Weyl coinvariant presentations (s_1..s_{n-1}, t)
  and (s_1..s_n) with the spanning monomials as declared bases.
* present_sgr_even(m, n, parity): the J-ideals in Borel/Euler generators;
  the declared basis is generated as the standard monomials of the verified
  Groebner basis and cross-checked against the predicted rank 2*C(n, m).
* present_bsl(N, max_degree): the free homogeneous power-series presentation
  of the classifying space, truncated to a Hilbert series.

The b_i symbols carry a sign convention: epsilon=+1 reads b_i as
sigma_i(squares) (the J-ideals are then literally as printed), epsilon=-1 as
the honest Borel class (-1)^i sigma_i (the relative R-ideals are then
literal).  Builders emit the printed generators by default and apply the
graded twist b_i -> (-1)^i b_i when asked for the other convention;
convention_report() verifies which convention makes each family hold
inside the splitting model.

verify_presentation() certifies a presentation up to a degree bound: the
quotient's Hilbert function must factor as (free module over the parameter
ring) x (declared basis degrees), and the declared basis must be linearly
independent in the quotient.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import series, spanning, weyl
from .groebner import (
    BudgetExceededError,
    Ideal,
    groebner_basis,
    ideal_equal,
    normal_form,
    quotient_hilbert,
    standard_monomials,
)
from .polyring import Monomial, Polynomial, RingSpec
from .symfunc import complete, elementary, g_poly, in_squares

__all__ = [
    "BUILDER_PARAMETERS",
    "NoDeclaredBasisError",
    "Presentation",
    "PresentationReport",
    "build",
    "convention_report",
    "present_bsl",
    "present_max_flag",
    "present_partial_flag",
    "present_partial_flag_alt",
    "present_sgr2",
    "present_sgr2_relative",
    "present_sgr_even",
    "rank_table",
    "relative_specializes_to_absolute",
    "sgr_even_collapses_to_sgr2",
    "verify_presentation",
]


class NoDeclaredBasisError(ValueError):
    """The requested descriptor has no declared characteristic-class basis."""


@dataclass(frozen=True)
class Presentation:
    descriptor: tuple[tuple[str, object], ...]
    ring: RingSpec
    ideal: Ideal
    declared_basis: tuple[Monomial, ...]
    coefficient_vars: tuple[str, ...]

    def descriptor_dict(self) -> dict:
        return dict(self.descriptor)

    def basis_texts(self) -> list[str]:
        return [self.ring.monomial_text(m) for m in self.declared_basis]

    def generator_texts(self) -> list[str]:
        return [str(g) for g in self.ideal.generators]


def _check_parity(parity: str) -> None:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _descriptor(kind: str, **params) -> tuple[tuple[str, object], ...]:
    return ((("kind", kind),) + tuple(params.items()))


# -- SGr(2, k) over a point --------------------------------------------------


def present_sgr2(n: int, parity: str) -> Presentation:
    """SGr(2, 2n+1) (odd) or SGr(2, 2n) (even) over the base point, n >= 2."""
    _check_parity(parity)
    if n < 2:
        raise ValueError("present_sgr2 requires n >= 2")
    if parity == "odd":
        ring = RingSpec.make([("e1", 2)])
        e1 = Polynomial.variable(ring, "e1")
        ideal = Ideal.make(ring, [e1 ** (2 * n)])
        basis = tuple((k,) for k in range(2 * n))
    else:
        ring = RingSpec.make([("e1", 2), ("e2", 2 * n - 2)])
        e1 = Polynomial.variable(ring, "e1")
        e2 = Polynomial.variable(ring, "e2")
        sign = 1 if n % 2 == 0 else -1
        ideal = Ideal.make(ring, [e1 * e2, e1 ** (2 * n - 2) + e2 * e2 * sign])
        basis = tuple((k, 0) for k in range(2 * n - 1)) + ((0, 1),)
    return Presentation(
        descriptor=_descriptor("sgr2", n=n, parity=parity, coefficient_vars=[]),
        ring=ring,
        ideal=ideal,
        declared_basis=basis,
        coefficient_vars=(),
    )


def _twist_b(p: Polynomial, b_names: list[str]) -> Polynomial:
    """The graded automorphism b_i -> (-1)^i b_i."""
    mapping = {}
    for idx, name in enumerate(b_names, start=1):
        img = Polynomial.variable(p.ring, name)
        mapping[name] = -img if idx % 2 == 1 else img
    return p.substitute(mapping, ring=p.ring, missing="identity")


def present_sgr2_relative(n: int, parity: str, epsilon: int = -1) -> Presentation:
    """SGr(2, T) for a rank 2n / 2n+1 bundle with classes b_*, e as parameters.

    The printed relations hold under the honest Borel convention, so
    epsilon=-1 emits them verbatim; epsilon=+1 twists b_i -> (-1)^i b_i.
    """
    _check_parity(parity)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if parity == "odd":
        if n < 1:
            raise ValueError("odd case requires n >= 1")
        vars = [("e1", 2)] + [(f"b{i}", 4 * i) for i in range(1, n + 1)]
        ring = RingSpec.make(vars)
        e1 = Polynomial.variable(ring, "e1")
        gen = Polynomial.zero(ring)
        for i in range(n + 1):
            b = Polynomial.one(ring) if n - i == 0 else Polynomial.variable(ring, f"b{n - i}")
            gen = gen + b * e1 ** (2 * i)
        gens = [gen]
        coeff_vars = tuple(f"b{i}" for i in range(1, n + 1))
        basis = tuple((k,) + (0,) * n for k in range(2 * n))
    else:
        if n < 2:
            raise ValueError(
                "even case requires n >= 2 (a rank-2 base bundle leaves e2 in degree 0)"
            )
        vars = (
            [("e1", 2), ("e2", 2 * n - 2)]
            + [(f"b{i}", 4 * i) for i in range(1, n)]
            + [("e", 2 * n)]
        )
        ring = RingSpec.make(vars)
        e1 = Polynomial.variable(ring, "e1")
        e2 = Polynomial.variable(ring, "e2")
        e = Polynomial.variable(ring, "e")
        sign = 1 if n % 2 == 0 else -1
        total = e2 * e2 * sign
        for i in range(n):
            j = n - i - 1
            b = Polynomial.one(ring) if j == 0 else Polynomial.variable(ring, f"b{j}")
            total = total + b * e1 ** (2 * i)
        gens = [e1 * e2 - e, total]
        coeff_vars = tuple(f"b{i}" for i in range(1, n)) + ("e",)
        nvars = len(ring)
        basis = tuple((k,) + (0,) * (nvars - 1) for k in range(2 * n - 1)) + (
            (0, 1) + (0,) * (nvars - 2),
        )
    if epsilon == 1:
        b_names = [v for v in ring.names if v.startswith("b")]
        gens = [_twist_b(g, b_names) for g in gens]
    return Presentation(
        descriptor=_descriptor(
            "sgr2_relative", n=n, parity=parity, epsilon=epsilon, coefficient_vars=list(coeff_vars)
        ),
        ring=ring,
        ideal=Ideal.make(ring, gens),
        declared_basis=basis,
        coefficient_vars=coeff_vars,
    )


# -- partial flag varieties SF(2, 4, ..., 2m, k) ------------------------------


def _check_flag_params(m: int, n: int, parity: str) -> None:
    _check_parity(parity)
    if m < 1 or n < m:
        raise ValueError("need 1 <= m <= n")
    if parity == "even" and n < m + 1:
        raise ValueError("even case requires n >= m+1 (the last quotient bundle has rank 0)")


def _partial_flag(kind: str, m: int, n: int, parity: str, relations) -> Presentation:
    """The setup both flag generating sets share; only ``relations(ring)`` differs.

    The ring is Z[e_1..e_m] (plus e_m' in the even case), the even ideal also
    holds the top class e_1...e_m e_m', and the declared basis comes from the
    splitting principle bounds (k = 2n or 2n+1).
    """
    _check_flag_params(m, n, parity)
    vars = [(f"e{i}", 2) for i in range(1, m + 1)]
    if parity == "even":
        vars.append((f"e{m}'", 2 * (n - m)))
    ring = RingSpec.make(vars)
    gens = [Polynomial.monomial(ring, (1,) * (m + 1))] if parity == "even" else []
    gens += relations(ring)
    k = 2 * n if parity == "even" else 2 * n + 1
    bounds = [k - 2 * i for i in range(1, m + 1)]
    return Presentation(
        descriptor=_descriptor(kind, m=m, n=n, parity=parity, coefficient_vars=[]),
        ring=ring,
        ideal=Ideal.make(ring, gens),
        declared_basis=spanning.power_or_tail(ring, bounds, tail=parity == "even"),
        coefficient_vars=(),
    )


def present_partial_flag(m: int, n: int, parity: str) -> Presentation:
    """SF(2,4,...,2m, 2n+1) or SF(2,4,...,2m, 2n) with the graded-piece relations."""

    def relations(ring: RingSpec) -> list[Polynomial]:
        e = ring.names[:m]
        if parity == "odd":
            return [in_squares(complete(n - k + 1, ring, e[:k])) for k in range(1, m + 1)]
        gens = []
        for k in range(1, m + 1):
            # e_{k+1}^2 ... e_m^2 e_m'^2
            prod = Polynomial.monomial(ring, (0,) * k + (2,) * (m - k + 1))
            sign = 1 if (n - k + 1) % 2 == 0 else -1
            gens.append(prod * sign + in_squares(complete(n - k, ring, e[:k])))
        return gens

    return _partial_flag("partial_flag", m, n, parity, relations)


def present_partial_flag_alt(m: int, n: int, parity: str) -> Presentation:
    """The alternative generating set: tails replaced by pure h-polynomials."""

    def relations(ring: RingSpec) -> list[Polynomial]:
        e = ring.names[:m]
        if parity == "odd":
            return [in_squares(complete(j, ring, e)) for j in range(n - m + 1, n + 1)]
        eprime = Polynomial.variable(ring, f"e{m}'")
        sign = 1 if (n - m + 1) % 2 == 0 else -1
        gens = [eprime * eprime * sign + in_squares(complete(n - m, ring, e))]
        return gens + [in_squares(complete(j, ring, e)) for j in range(n - m + 1, n)]

    return _partial_flag("partial_flag_alt", m, n, parity, relations)


def present_max_flag(N: int) -> Presentation:
    """Maximal SL_2 flags: coinvariants of W(D_n) (N = 2n) or W(B_n) (N = 2n+1)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    n = N // 2
    group = "D" if N % 2 == 0 else "B"
    inv = weyl.invariant_generators(group, n)
    ring = weyl.e_ring(n)
    return Presentation(
        descriptor=_descriptor("max_flag", N=N, group=group, n=n, coefficient_vars=[]),
        ring=ring,
        ideal=Ideal.make(ring, inv.gens),
        declared_basis=spanning.basis(group, n).monomials,
        coefficient_vars=(),
    )


# -- SGr(2m, k) in Borel/Euler generators -------------------------------------


def _g_in_b(j: int, m: int, ring: RingSpec, epsilon: int) -> Polynomial:
    """g_j(b_1..b_m) expanded; epsilon=-1 twists to g_j((-1)^1 b_1, ...)."""
    base = g_poly(j, m)
    mapping = {}
    for i in range(1, m + 1):
        img = Polynomial.variable(ring, f"b{i}")
        if epsilon == -1 and i % 2 == 1:
            img = -img
        mapping[f"sigma{i}"] = img
    return base.substitute(mapping, ring=ring)


def present_sgr_even(m: int, n: int, parity: str, epsilon: int = 1) -> Presentation:
    """SGr(2m, 2n+1) / SGr(2m, 2n) presented on b_1..b_m and Euler classes.

    The declared basis is generated (standard monomials of the reduced
    Groebner basis) and cross-checked against the predicted rank 2*C(n, m).
    """
    _check_flag_params(m, n, parity)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    b_vars = [(f"b{i}", 4 * i) for i in range(1, m + 1)]
    b_m = f"b{m}"
    if parity == "odd":
        ring = RingSpec.make([("e", 2 * m)] + b_vars)
        e = Polynomial.variable(ring, "e")
        bm = Polynomial.variable(ring, b_m)
        if epsilon == -1 and m % 2 == 1:
            bm = -bm
        gens = [e * e - bm]
        gens += [_g_in_b(j, m, ring, epsilon) for j in range(n - m + 1, n + 1)]
    else:
        ring = RingSpec.make([("e", 2 * m), ("e'", 2 * (n - m))] + b_vars)
        e = Polynomial.variable(ring, "e")
        ep = Polynomial.variable(ring, "e'")
        bm = Polynomial.variable(ring, b_m)
        if epsilon == -1 and m % 2 == 1:
            bm = -bm
        sign = 1 if (n - m + 1) % 2 == 0 else -1
        gens = [e * ep, e * e - bm]
        gens.append(ep * ep * sign + _g_in_b(n - m, m, ring, epsilon))
        gens += [_g_in_b(j, m, ring, epsilon) for j in range(n - m + 1, n)]
    ideal = Ideal.make(ring, gens)
    G = groebner_basis(ideal)
    bound = sum(g.homogeneous_degree() for g in gens)
    basis = tuple(standard_monomials(G, bound))
    predicted = rank_table("sgr", k=2 * m, N=(2 * n if parity == "even" else 2 * n + 1))
    if len(basis) != predicted:
        raise AssertionError(
            f"standard monomial count {len(basis)} != predicted rank {predicted} "
            f"for SGr({2*m}, {2*n if parity == 'even' else 2*n+1})"
        )
    return Presentation(
        descriptor=_descriptor(
            "sgr_even", m=m, n=n, parity=parity, epsilon=epsilon, coefficient_vars=[]
        ),
        ring=ring,
        ideal=ideal,
        declared_basis=basis,
        coefficient_vars=(),
    )


def present_bsl(N: int, max_degree: int) -> Presentation:
    """BSL_N: the free homogeneous power-series ring on the stable classes.

    N = 2n: generators b_1..b_{n-1} and e with deg e = 2n; N = 2n+1:
    generators b_1..b_n.  The ideal is zero; the Hilbert series up to
    max_degree is the whole content of the truncated presentation.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    n = N // 2
    if N % 2 == 0:
        vars = [(f"b{i}", 4 * i) for i in range(1, n)] + [("e", 2 * n)]
    else:
        vars = [(f"b{i}", 4 * i) for i in range(1, n + 1)]
    ring = RingSpec.make(vars)
    return Presentation(
        descriptor=_descriptor(
            "bsl", N=N, max_degree=max_degree, coefficient_vars=[name for name, _ in vars]
        ),
        ring=ring,
        ideal=Ideal.make(ring, []),
        declared_basis=((0,) * len(ring),),
        coefficient_vars=tuple(name for name, _ in vars),
    )


_BUILDERS = {
    "sgr2": present_sgr2,
    "sgr2_relative": present_sgr2_relative,
    "partial_flag": present_partial_flag,
    "partial_flag_alt": present_partial_flag_alt,
    "max_flag": present_max_flag,
    "sgr_even": present_sgr_even,
    "bsl": present_bsl,
}

# each builder's parameters, read once here: a caller still sees them after
# the builders are wrapped (by a tracer, say) in functions without signatures
BUILDER_PARAMETERS = {
    kind: tuple(inspect.signature(fn).parameters.values()) for kind, fn in _BUILDERS.items()
}


def build(kind: str, **params) -> Presentation:
    """Dispatch to a presentation builder by descriptor kind."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown presentation kind {kind!r}") from None
    return builder(**params)


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class PresentationReport:
    presentation: Presentation
    max_degree: int
    hilbert: tuple[int, ...]
    checks: tuple[tuple[str, bool, str], ...]
    budget_exceeded: bool = False

    @property
    def passed(self) -> bool:
        return not self.budget_exceeded and all(ok for _, ok, _ in self.checks)

    def to_dict(self) -> dict:
        return {
            "descriptor": self.presentation.descriptor_dict(),
            "ring": [[name, deg] for name, deg in self.presentation.ring.vars],
            "generators": self.presentation.generator_texts(),
            "basis": self.presentation.basis_texts(),
            "hilbert": list(self.hilbert),
            "checks": [{"name": name, "pass": ok} for name, ok, _ in self.checks],
        }


def _independent_over_q(polys: list[Polynomial]) -> bool:
    """Whether the polynomials are linearly independent over Q (exact).

    A sparse echelon: each polynomial's term map is reduced against the pivot
    rows found so far, one monic row per leading monomial (the greatest
    exponent tuple).  A row that reduces to zero is dependent, so a zero
    polynomial makes the answer False.  Rows with disjoint supports never
    touch each other, so homogeneous rows of different degrees are
    eliminated block by block for free.
    """
    pivots: dict[Monomial, dict[Monomial, Fraction]] = {}
    for p in polys:
        row = {m: Fraction(c) for m, c in p.terms.items()}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                pivots[lead] = {m: c * inv for m, c in row.items()}
                break
            factor = row[lead]
            for m, c in pivot.items():
                c = row.get(m, 0) - factor * c
                if c:
                    row[m] = c
                else:
                    del row[m]
        else:
            return False
    return True


def verify_presentation(
    pres: Presentation, max_degree: int, budget: int | None = None
) -> PresentationReport:
    """Certify the declared basis up to max_degree via Groebner normal forms.

    Checks: (1) the quotient's Hilbert function equals the parameter ring's
    Hilbert series times the declared basis degrees; (2) the declared basis
    monomials have nonzero normal forms that are linearly independent over Q,
    decided exactly by a sparse echelon (_independent_over_q).  The basis is
    built without representations, which no check reads.  Budget exhaustion
    is reported distinctly from a mathematical failure.
    """
    checks: list[tuple[str, bool, str]] = []
    try:
        G = groebner_basis(pres.ideal, budget=budget)
    except BudgetExceededError as exc:
        return PresentationReport(
            presentation=pres,
            max_degree=max_degree,
            hilbert=(),
            checks=(("groebner_budget", False, str(exc)),),
            budget_exceeded=True,
        )
    hilbert = quotient_hilbert(G, max_degree)

    coeff_degrees = [
        deg for name, deg in pres.ring.vars if name in pres.coefficient_vars
    ]
    base_series = series.poly_ring_hilbert(coeff_degrees, max_degree)
    basis_degrees = [pres.ring.monomial_degree(m) for m in pres.declared_basis]
    rhs = series.series_mul(
        base_series, series.series_from_degrees(basis_degrees, max_degree), max_degree
    )
    mismatch = next((d for d in range(max_degree + 1) if hilbert[d] != rhs[d]), None)
    checks.append(
        (
            "hilbert_factorization",
            mismatch is None,
            "ok" if mismatch is None else f"first mismatch at degree {mismatch}",
        )
    )

    try:
        nfs = [
            normal_form(Polynomial.monomial(pres.ring, m), G, budget=budget)
            for m in pres.declared_basis
        ]
    except BudgetExceededError as exc:
        return PresentationReport(
            presentation=pres,
            max_degree=max_degree,
            hilbert=tuple(hilbert),
            checks=tuple(checks) + (("normal_form_budget", False, str(exc)),),
            budget_exceeded=True,
        )
    independent = _independent_over_q(nfs)
    checks.append(
        (
            "basis_independent_in_quotient",
            independent,
            "ok" if independent else "declared basis degenerates in the quotient",
        )
    )
    return PresentationReport(
        presentation=pres,
        max_degree=max_degree,
        hilbert=tuple(hilbert),
        checks=tuple(checks),
    )


# -- rank bookkeeping ----------------------------------------------------------


def rank_table(kind: str, **params) -> int:
    """Free-module rank declared by the theory for a variety descriptor.

    Kinds: "sgr" (k, N), "partial_flag" (m, N), "max_flag" (N).  Descriptors
    without a declared basis (both k and N-k odd) raise NoDeclaredBasisError.
    """
    if kind == "sgr":
        k, N = params["k"], params["N"]
        if not 1 <= k < N:
            raise ValueError("need 1 <= k < N")
        if k % 2 == 1 and (N - k) % 2 == 1:
            raise NoDeclaredBasisError(
                f"SGr({k},{N}): no declared basis (both tautological ranks odd)"
            )
        m = (k if k % 2 == 0 else N - k) // 2
        return 2 * comb(N // 2, m)
    if kind == "partial_flag":
        m, N = params["m"], params["N"]
        if N % 2 == 1:
            if not 1 <= m <= (N - 1) // 2:
                raise ValueError("need 1 <= m <= (N-1)/2")
            out = 1
            for i in range(1, m + 1):
                out *= N - 2 * i + 1
            return out
        if not 1 <= m <= N // 2 - 1:
            raise ValueError("need 1 <= m <= N/2 - 1")
        out = 1
        for i in range(1, m + 1):
            out *= N - 2 * i + 2
        return out
    if kind == "max_flag":
        N = params["N"]
        if N < 2:
            raise ValueError("need N >= 2")
        n = N // 2
        return (2**n if N % 2 == 1 else 2 ** (n - 1)) * factorial(n)
    raise ValueError(f"unknown rank descriptor kind {kind!r}")


# -- coherence checks used by the acceptance suite ------------------------------


def relative_specializes_to_absolute(n: int, parity: str, epsilon: int = -1) -> bool:
    """Setting the base-bundle classes to zero must recover the absolute ideal."""
    rel = present_sgr2_relative(n, parity, epsilon)
    zero = {v: 0 for v in rel.coefficient_vars}
    collapsed = [
        g.substitute(zero, ring=rel.ring, missing="identity") for g in rel.ideal.generators
    ]
    absolute = present_sgr2(n, parity)
    gens = [g.rename_into(absolute.ring) for g in collapsed if not g.is_zero()]
    return ideal_equal(Ideal.make(absolute.ring, gens), absolute.ideal)


def sgr_even_collapses_to_sgr2(n: int, parity: str, epsilon: int = 1) -> bool:
    """present_sgr_even(1, n, parity) under b_1 -> epsilon * e^2 equals present_sgr2."""
    pres = present_sgr_even(1, n, parity, epsilon)
    e = Polynomial.variable(pres.ring, "e")
    collapsed = [
        g.substitute({"b1": e * e * epsilon}, ring=pres.ring, missing="identity")
        for g in pres.ideal.generators
    ]
    absolute = present_sgr2(n, parity)
    renaming = {"e": "e1", "e'": "e2"}
    gens = [
        g.rename_into(absolute.ring, renaming) for g in collapsed if not g.is_zero()
    ]
    return ideal_equal(Ideal.make(absolute.ring, gens), absolute.ideal)


def _phi_mapping(m: int, parity: str, flag_ring: RingSpec, epsilon: int) -> dict[str, Polynomial]:
    """The invariant correspondence b_i, e, e' -> symmetric expressions in e_1..e_m."""
    e_names = [f"e{i}" for i in range(1, m + 1)]
    mapping: dict[str, Polynomial] = {}
    for i in range(1, m + 1):
        sigma = in_squares(elementary(i, flag_ring, e_names))
        mapping[f"b{i}"] = sigma if (epsilon == 1 or i % 2 == 0) else -sigma
    top = (1,) * m + (0,) * (len(flag_ring) - m)
    mapping["e"] = Polynomial.monomial(flag_ring, top)
    if parity == "even":
        mapping["e'"] = Polynomial.variable(flag_ring, f"e{m}'")
    return mapping


def sgr_even_holds_in_flag(m: int, n: int, parity: str, epsilon: int) -> bool:
    """Do the J-generators land inside the flag ideal under the phi-map?"""
    pres = present_sgr_even(m, n, parity, epsilon=1)  # printed generators
    flag = present_partial_flag(m, n, parity)
    mapping = _phi_mapping(m, parity, flag.ring, epsilon)
    G = groebner_basis(flag.ideal)
    for g in pres.ideal.generators:
        image = g.substitute(mapping, ring=flag.ring)
        if not normal_form(image, G).is_zero():
            return False
    return True


def sgr2_relative_holds_in_splitting(n: int, parity: str, epsilon: int) -> bool:
    """Do the printed R-relations vanish identically in the splitting model?

    The base bundle splits into symbols f_1..f_n; e_1 is the first, e_2 the
    product of the rest (even case), and b_i is the epsilon-convention
    symmetric expression.  Vanishing must be exact (the model base is free).
    """
    ring = RingSpec.make((f"f{i}", 2) for i in range(1, n + 1))
    mapping: dict[str, Polynomial] = {"e1": Polynomial.variable(ring, "f1")}
    for i in range(1, n + 1):
        sigma = in_squares(elementary(i, ring))
        mapping[f"b{i}"] = sigma if (epsilon == 1 or i % 2 == 0) else -sigma
    if parity == "even":
        mapping["e2"] = Polynomial.monomial(ring, (0,) + (1,) * (n - 1))
        mapping["e"] = Polynomial.monomial(ring, (1,) * n)
    pres = present_sgr2_relative(n, parity, epsilon=-1)  # printed generators
    mapping = {k: v for k, v in mapping.items() if k in pres.ring.names}
    return all(g.substitute(mapping, ring=ring).is_zero() for g in pres.ideal.generators)


def convention_report(max_n: int = 3) -> list[dict]:
    """For each presentation family, which b-sign convention is literal."""
    out: list[dict] = []
    for parity, pairs in (("odd", [(1, 2), (2, 3)]), ("even", [(1, 3), (2, 3)])):
        for m, n in pairs:
            if n > max_n:
                continue
            entry = {
                "family": "sgr_even",
                "m": m,
                "n": n,
                "parity": parity,
                "literal_under": [
                    eps for eps in (1, -1) if sgr_even_holds_in_flag(m, n, parity, eps)
                ],
            }
            out.append(entry)
    for parity, ns in (("odd", [1, 2, 3]), ("even", [2, 3])):
        for n in ns:
            if n > max_n:
                continue
            out.append(
                {
                    "family": "sgr2_relative",
                    "n": n,
                    "parity": parity,
                    "literal_under": [
                        eps
                        for eps in (1, -1)
                        if sgr2_relative_holds_in_splitting(n, parity, eps)
                    ],
                }
            )
    return out
