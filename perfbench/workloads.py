"""The benchmark's workloads: which `slcc` invocations each one runs, and why.

Every invocation asks for `--format json`, so its stdout can be checked
field by field and against a golden digest.  Only the `spanning` workload
depends on the seed, through the dense polynomial `dense_terms` draws.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 20120528

# e1..e5 at total exponent 10: C(14, 4) = 1001 exponent vectors.
DENSE_VARS = 5
DENSE_DEGREE = 10
COEFF_RANGE = (-9, 9)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: `label` names it in reports and in the golden digests."""

    label: str
    argv: tuple[str, ...]
    # exponent vector -> nonzero coefficient of an input the benchmark
    # generated; the output's "target" must print exactly this polynomial
    expected_target: dict[tuple[int, ...], int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


def dense_terms(seed: int) -> dict[tuple[int, ...], int]:
    """Every exponent vector of total exponent 10 in e1..e5, with a seeded
    coefficient from [-9, 9]; vectors whose coefficient is 0 are left out."""
    rng = random.Random(seed)
    terms = {}
    for expo in _exponent_vectors(DENSE_VARS, DENSE_DEGREE):
        c = rng.randint(*COEFF_RANGE)
        if c:
            terms[expo] = c
    return terms


def _exponent_vectors(nvars: int, total: int):
    # stars and bars, in lexicographic order so the draw order is fixed
    for bars in itertools.combinations(range(total + nvars - 1), nvars - 1):
        edges = (-1, *bars, total + nvars - 1)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(nvars))


def poly_text(terms: dict[tuple[int, ...], int]) -> str:
    """Render a term map in the CLI's input grammar, e.g. `+ 3*e1^2*e4 - 5*e5^10`."""
    parts = []
    for expo, c in terms.items():
        mono = "".join(f"*e{i}" if e == 1 else f"*e{i}^{e}" for i, e in enumerate(expo, 1) if e)
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)}{mono}")
    return " ".join(parts) or "0"


def _cli(*args: str) -> Invocation:
    argv = (*args, "--format", "json")
    return Invocation(" ".join(args), argv)


def workloads(seed: int = DEFAULT_SEED) -> dict[str, Workload]:
    dense = dense_terms(seed)
    return {
        w.name: w
        for w in (
            Workload(
                "witness",
                "extended division of e1^14 / e1^13 by a tiny basis plus cofactor "
                "reconstruction: the division hot path, almost no Buchberger",
                (
                    _cli("witness", "--group", "B", "--n", "7"),
                    _cli("witness", "--group", "D", "--n", "7"),
                ),
            ),
            Workload(
                "verify",
                "two presentation checks dominated by the dense Fraction Gauss-Jordan, "
                "and a Buchberger-heavy flag-ideal equality that never reads cofactors",
                (
                    _cli("verify", "presentation", "--kind", "partial-flag", "--m", "3",
                         "--n", "5", "--parity", "odd", "--max-degree", "40"),
                    _cli("verify", "presentation", "--kind", "max-flag", "--N", "9",
                         "--max-degree", "34"),
                    _cli("verify", "flag-equal", "--m", "4", "--n", "7", "--parity", "even"),
                ),
            ),
            Workload(
                "spanning",
                "spanning rewrites of one deep monomial and of a seeded dense polynomial "
                "sharing sub-decompositions: kernel mul and substitute, almost no Groebner",
                (
                    _cli("span", "reduce", "--group", "B", "--n", "5", "--poly", "e1^18"),
                    Invocation(
                        f"span reduce --group D --n 5 --poly <dense degree-10 seed={seed}>",
                        ("span", "reduce", "--group", "D", "--n", "5", "--poly",
                         poly_text(dense), "--format", "json"),
                        expected_target=dense,
                    ),
                ),
            ),
            Workload(
                "acceptance",
                "the user-facing 10-criterion matrix: the only charclass, symfunc and "
                "series work, and the only in-process Groebner cache reuse",
                (_cli("acceptance"),),
            ),
        )
    }
