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
graded twist b_i -> (-1)^i b_i when asked for the other convention; one
helper, _b_images, applies that twist wherever b_i is given a value.
convention_report() verifies which convention makes each family hold
inside the splitting model.

verify_presentation() certifies a presentation up to a degree bound: the
quotient's Hilbert function must factor as (free module over the parameter
ring) x (declared basis degrees), the same series.free_module_series test
that spanning.verify_free runs, and the declared basis must be linearly
independent in the quotient, which groebner.staircase_echelon decides by
dividing only the declared monomials that are not standard.  Both checks
run in grevlex with the variables reversed, the order spanning divides in,
where the e^{2n} truncations and the e_i^{m_i} staircases are (nearly)
standard.  The reversed max_flag ideal is spanning's reversed coinvariant
ideal, so the two share one cached Groebner basis.  Group orders, the
coinvariant ideals and the classes of A(BSL_N) are read from weyl.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from math import comb

from . import series, spanning, weyl
from .groebner import (
    BudgetExceededError,
    Ideal,
    groebner_basis,
    ideal_equal,
    normal_form,
    quotient_hilbert,
    staircase_echelon,
    standard_monomials,
)
from .polyring import Monomial, Polynomial, RingSpec, _record, linear_combination
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
    "specializes_to",
    "verify_presentation",
]


class NoDeclaredBasisError(ValueError):
    """The requested descriptor has no declared characteristic-class basis."""


@_record(hidden=("basis_source",))
class Presentation:
    """A homogeneous ideal, its descriptor, and a declared basis.

    The descriptor names the builder, its parameters and the
    coefficient_vars, the variables that are base-ring parameters.
    basis_source is the declared basis, or a zero-argument function that
    builds it.  The basis is built the first time declared_basis is read,
    so a caller that only compares ideals (verify flag-equal, say) never
    pays for it.
    """

    descriptor: tuple[tuple[str, object], ...]
    ideal: Ideal
    # a builder's basis is a function of its descriptor, so equality, hash
    # and repr leave the source out (a function compares by identity)
    basis_source: tuple[Monomial, ...] | Callable[[], tuple[Monomial, ...]]

    @property
    def ring(self) -> RingSpec:
        return self.ideal.ring

    @property
    def coefficient_vars(self) -> tuple[str, ...]:
        return self.descriptor_dict()["coefficient_vars"]

    @cached_property
    def declared_basis(self) -> tuple[Monomial, ...]:
        source = self.basis_source
        return source() if callable(source) else source

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
        descriptor=_descriptor("sgr2", n=n, parity=parity, coefficient_vars=()),
        ideal=ideal,
        basis_source=basis,
    )


def _b_images(images: list[Polynomial], twist: bool) -> dict[str, Polynomial]:
    """The substitution b_i -> images[i-1], through the graded twist
    b_i -> (-1)^i b_i when ``twist`` is set."""
    return {f"b{i}": -p if twist and i % 2 else p for i, p in enumerate(images, start=1)}


def _bsl_vars(N: int) -> list[tuple[str, int]]:
    """The classes of A(BSL_N): b_1..b_n (N = 2n+1) or b_1..b_{n-1}, e (N = 2n).

    They are weyl.invariant_ring of W(B_n) resp. W(D_n), s_i read as b_i and
    t as e.
    """
    cring = weyl.invariant_ring("D" if N % 2 == 0 else "B", N // 2)
    return [("e" if name == "t" else "b" + name[1:], deg) for name, deg in cring.vars]


def present_sgr2_relative(n: int, parity: str, epsilon: int = -1) -> Presentation:
    """SGr(2, T) for a rank 2n / 2n+1 bundle with classes b_*, e as parameters.

    The printed relations hold under the honest Borel convention, so
    epsilon=-1 emits them verbatim; epsilon=+1 twists b_i -> (-1)^i b_i.
    """
    _check_parity(parity)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    odd = parity == "odd"
    if odd and n < 1:
        raise ValueError("odd case requires n >= 1")
    if not odd and n < 2:
        raise ValueError("even case requires n >= 2 (a rank-2 base bundle leaves e2 in degree 0)")
    base = _bsl_vars(2 * n + 1 if odd else 2 * n)
    ring = RingSpec.make([("e1", 2)] + ([] if odd else [("e2", 2 * n - 2)]) + base)
    e1 = Polynomial.variable(ring, "e1")
    # sum_i b_{k-i} e1^{2i} over the b_j of the base (epsilon convention), b_0 = 1
    k = n if odd else n - 1
    twisted = _b_images([Polynomial.variable(ring, f"b{j}") for j in range(1, k + 1)], epsilon == 1)
    b = [Polynomial.one(ring), *twisted.values()]
    total = linear_combination(ring, ((b[k - i], e1 ** (2 * i)) for i in range(k + 1)))
    basis = [(i,) + (0,) * (len(ring) - 1) for i in range(2 * n if odd else 2 * n - 1)]
    if odd:
        gens = [total]
    else:
        e2 = Polynomial.variable(ring, "e2")
        sign = 1 if n % 2 == 0 else -1
        gens = [e1 * e2 - Polynomial.variable(ring, "e"), total + e2 * e2 * sign]
        basis.append((0, 1) + (0,) * (len(ring) - 2))
    coeff_vars = tuple(name for name, _ in base)
    return Presentation(
        descriptor=_descriptor(
            "sgr2_relative", n=n, parity=parity, epsilon=epsilon, coefficient_vars=coeff_vars
        ),
        ideal=Ideal.make(ring, gens),
        basis_source=tuple(basis),
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
        descriptor=_descriptor(kind, m=m, n=n, parity=parity, coefficient_vars=()),
        ideal=Ideal.make(ring, gens),
        basis_source=lambda: spanning.power_or_tail(ring, bounds, tail=parity == "even"),
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
    ideal = weyl.coinvariant_ideal(group, n)
    return Presentation(
        descriptor=_descriptor("max_flag", N=N, group=group, n=n, coefficient_vars=()),
        ideal=ideal,
        basis_source=lambda: spanning.basis(group, n).monomials,
    )


# -- SGr(2m, k) in Borel/Euler generators -------------------------------------


def present_sgr_even(m: int, n: int, parity: str, epsilon: int = 1) -> Presentation:
    """SGr(2m, 2n+1) / SGr(2m, 2n) presented on b_1..b_m and Euler classes.

    The declared basis is generated (standard monomials of the reduced
    Groebner basis) and cross-checked against the predicted rank 2*C(n, m).
    """
    _check_flag_params(m, n, parity)
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    b_vars = [(f"b{i}", 4 * i) for i in range(1, m + 1)]
    e_vars = [("e", 2 * m)] + ([("e'", 2 * (n - m))] if parity == "even" else [])
    ring = RingSpec.make(e_vars + b_vars)
    e = Polynomial.variable(ring, "e")
    b = _b_images([Polynomial.variable(ring, f"b{i}") for i in range(1, m + 1)], epsilon == -1)
    sigma_to_b = {f"sigma{i}": b[f"b{i}"] for i in range(1, m + 1)}

    def g(j: int) -> Polynomial:  # g_j(b_1..b_m) expanded
        return g_poly(j, m).substitute(sigma_to_b, ring=ring)

    e_squared = e * e - b[f"b{m}"]
    if parity == "odd":
        gens = [e_squared] + [g(j) for j in range(n - m + 1, n + 1)]
    else:
        ep = Polynomial.variable(ring, "e'")
        sign = 1 if (n - m + 1) % 2 == 0 else -1
        gens = [e * ep, e_squared, ep * ep * sign + g(n - m)]
        gens += [g(j) for j in range(n - m + 1, n)]
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
            "sgr_even", m=m, n=n, parity=parity, epsilon=epsilon, coefficient_vars=()
        ),
        ideal=ideal,
        basis_source=basis,
    )


def present_bsl(N: int, max_degree: int) -> Presentation:
    """BSL_N: the free homogeneous power-series ring on the stable classes.

    N = 2n: generators b_1..b_{n-1} and e with deg e = 2n; N = 2n+1:
    generators b_1..b_n.  The ideal is zero; the Hilbert series up to
    max_degree is the whole content of the truncated presentation.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    ring = RingSpec.make(_bsl_vars(N))
    return Presentation(
        descriptor=_descriptor("bsl", N=N, max_degree=max_degree, coefficient_vars=ring.names),
        ideal=Ideal.make(ring, []),
        basis_source=((0,) * len(ring),),
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

# each builder's parameters as (name, required) pairs, read once here off its
# code object (every parameter is positional-or-keyword, the defaults last): a
# caller still sees them after the builders are wrapped (by a tracer, say)
BUILDER_PARAMETERS = {
    kind: tuple(
        (name, i < fn.__code__.co_argcount - len(fn.__defaults__ or ()))
        for i, name in enumerate(fn.__code__.co_varnames[: fn.__code__.co_argcount])
    )
    for kind, fn in _BUILDERS.items()
}


def build(kind: str, **params) -> Presentation:
    """Dispatch to a presentation builder by descriptor kind."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown presentation kind {kind!r}") from None
    return builder(**params)


# -- verification --------------------------------------------------------------


@_record
class PresentationReport:
    presentation: Presentation
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


def verify_presentation(pres: Presentation, max_degree: int) -> PresentationReport:
    """Certify the declared basis up to max_degree via Groebner normal forms.

    The Groebner basis, the Hilbert function and the normal forms are taken
    in grevlex with the variables reversed (x_n > ... > x_1).  Checks:
    (1) the quotient's Hilbert function equals the parameter ring's Hilbert
    series times the declared basis degrees; any degree-compatible order
    counts the same standard monomials per degree, so the order does not
    change it; (2) the declared basis monomials are linearly independent in
    the quotient, decided exactly by groebner.staircase_echelon: only the
    monomials in the leading-monomial ideal are normal-formed, each under a
    step budget of its own.  The basis is built without representations,
    which no check reads.  Budget exhaustion is reported distinctly from a
    mathematical failure.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    checks: list[tuple[str, bool, str]] = []
    hilbert: tuple[int, ...] = ()
    try:
        G = groebner_basis(pres.ideal.reversed())
        hilbert = tuple(quotient_hilbert(G, max_degree))
        coeff_degrees = [deg for name, deg in pres.ring.vars if name in pres.coefficient_vars]
        basis_degrees = [pres.ring.monomial_degree(m) for m in pres.declared_basis]
        _, mismatch = series.free_module_series(hilbert, coeff_degrees, basis_degrees, max_degree)
        detail = "ok" if mismatch is None else f"first mismatch at degree {mismatch}"
        checks.append(("hilbert_factorization", mismatch is None, detail))
        pack = G.ring.packing.pack
        basis = [pack(m[::-1]) for m in pres.declared_basis]
        pivots = staircase_echelon(
            G, basis, lambda m: normal_form(Polynomial._trusted(G.ring, {m: 1}), G)._terms
        )
    except BudgetExceededError as exc:
        # the basis ran out before any check was made, the normal forms after
        name = "normal_form_budget" if checks else "groebner_budget"
        return PresentationReport(
            presentation=pres,
            hilbert=hilbert,
            checks=(*checks, (name, False, str(exc))),
            budget_exceeded=True,
        )
    independent = pivots is not None
    checks.append(
        (
            "basis_independent_in_quotient",
            independent,
            "ok" if independent else "declared basis degenerates in the quotient",
        )
    )
    return PresentationReport(
        presentation=pres,
        hilbert=hilbert,
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
        return weyl.group_order("B" if N % 2 else "D", N // 2)
    raise ValueError(f"unknown rank descriptor kind {kind!r}")


# -- coherence checks used by the acceptance suite ------------------------------


def specializes_to(
    pres: Presentation, values: dict, target: Ideal, renaming: dict[str, str] | None = None
) -> bool:
    """Whether pres's ideal, under values (other variables kept), equals target.

    The nonzero images move into target's ring by renaming (unlisted names
    keep their own) before the comparison.
    """
    images = [
        g.substitute(values, ring=pres.ring, missing="identity") for g in pres.ideal.generators
    ]
    gens = [g.rename_into(target.ring, renaming) for g in images if not g.is_zero()]
    return ideal_equal(Ideal.make(target.ring, gens), target)


def relative_specializes_to_absolute(n: int, parity: str, epsilon: int = -1) -> bool:
    """Setting the base-bundle classes to zero must recover the absolute ideal."""
    rel = present_sgr2_relative(n, parity, epsilon)
    zero = {v: 0 for v in rel.coefficient_vars}
    return specializes_to(rel, zero, present_sgr2(n, parity).ideal)


def sgr_even_collapses_to_sgr2(n: int, parity: str, epsilon: int = 1) -> bool:
    """present_sgr_even(1, n, parity) under b_1 -> epsilon * e^2 equals present_sgr2."""
    pres = present_sgr_even(1, n, parity, epsilon)
    e = Polynomial.variable(pres.ring, "e")
    absolute = present_sgr2(n, parity).ideal
    return specializes_to(pres, {"b1": e * e * epsilon}, absolute, {"e": "e1", "e'": "e2"})


def _phi_mapping(m: int, parity: str, flag_ring: RingSpec, epsilon: int) -> dict[str, Polynomial]:
    """The invariant correspondence b_i, e, e' -> symmetric expressions in e_1..e_m."""
    e_names = [f"e{i}" for i in range(1, m + 1)]
    sigmas = [in_squares(elementary(i, flag_ring, e_names)) for i in range(1, m + 1)]
    mapping = _b_images(sigmas, epsilon == -1)
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
    sigmas = [in_squares(elementary(i, ring)) for i in range(1, n + 1)]
    mapping = {"e1": Polynomial.variable(ring, "f1"), **_b_images(sigmas, epsilon == -1)}
    if parity == "even":
        mapping["e2"] = Polynomial.monomial(ring, (0,) + (1,) * (n - 1))
        mapping["e"] = Polynomial.monomial(ring, (1,) * n)
    pres = present_sgr2_relative(n, parity, epsilon=-1)  # printed generators
    mapping = {k: v for k, v in mapping.items() if k in pres.ring.names}
    return all(g.substitute(mapping, ring=ring).is_zero() for g in pres.ideal.generators)


def convention_report(max_n: int = 3) -> list[dict]:
    """For each presentation family, which b-sign convention is literal."""
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
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
