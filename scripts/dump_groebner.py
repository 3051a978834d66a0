"""Print a fixed set of Groebner engine results, one record per line, and their sha256.

The records cover:

- Buchberger runs on the type B and D coinvariant ideals for n = 1..5, in
  both variable orders: untracked, tracked, and truncated at degrees 4
  and 8;
- untracked runs on small presentation ideals of every builder, in both
  variable orders;
- 120 seeded random homogeneous ideals in weighted rings, tracked and
  truncated;
- divisions of e1^k by each full coinvariant basis, with their standard
  monomials;
- the witnesses for n = 1..7 and the spanning decompositions of
  e1^(4n+3) for n = 1..4.

A basis record holds each element's terms, the representations (unpacked
to exponent tuples) when tracked, and the engine's step count.  Terms are
printed as exponent tuples in sorted tuple order with the repr of each
coefficient, so a record shows coefficient types and does not depend on
the packed format or on the monomial order's sort key.  Two checkouts that
print the same hash give the same results on every input.

    PYTHONPATH=src python scripts/dump_groebner.py [OUT]

The lines go to OUT (default: stdout), the hash and line count to stderr.
"""

import hashlib
import random
import sys

from slcc import groebner, presentations, spanning, weyl
from slcc.groebner import Ideal
from slcc.polyring import Polynomial, RingSpec

WEIGHTED_RINGS = (
    RingSpec.make([("x", 1), ("y", 2)]),
    RingSpec.make([("x", 2), ("y", 1), ("z", 3)]),
    RingSpec.make([("a", 3), ("b", 1), ("c", 2), ("d", 1)]),
    RingSpec.make([("a", 1), ("b", 1), ("c", 1), ("d", 1)]),
)

PRESENTATIONS = (
    ("sgr2", {"n": 2, "parity": "odd"}),
    ("sgr2", {"n": 3, "parity": "even"}),
    ("sgr2_relative", {"n": 3, "parity": "odd"}),
    ("partial_flag", {"m": 1, "n": 3, "parity": "odd"}),
    ("partial_flag", {"m": 2, "n": 3, "parity": "even"}),
    ("partial_flag", {"m": 2, "n": 4, "parity": "odd"}),
    ("partial_flag_alt", {"m": 2, "n": 3, "parity": "odd"}),
    ("max_flag", {"N": 5}),
    ("max_flag", {"N": 6}),
    ("max_flag", {"N": 7}),
    ("sgr_even", {"m": 2, "n": 3, "parity": "odd"}),
    ("bsl", {"N": 4, "max_degree": 8}),
)


def terms_text(terms) -> str:
    return " ".join(f"{','.join(map(str, m))}:{c!r}" for m, c in sorted(terms.items()))


def basis_record(label: str, ideal: Ideal, track: bool, max_degree=None) -> str:
    engine = groebner._Engine(ideal.ring)
    G = groebner._buchberger(ideal, track, max_degree, engine)
    parts = [f"{label} track={track} max_degree={max_degree} steps={engine.steps}"]
    parts += [terms_text(g.terms) for g in G.basis]
    if G.representations is not None:
        unpack_terms = engine.packing.unpack_terms
        for rep in G.representations:
            parts.append(" / ".join(terms_text(unpack_terms(r)) for r in rep))
    return " | ".join(parts)


def exponents(degrees, degree):
    """The exponent tuples of this degree for variables of these degrees."""
    if not degrees:
        if degree == 0:
            yield ()
        return
    for e in range(degree // degrees[0] + 1):
        for rest in exponents(degrees[1:], degree - e * degrees[0]):
            yield (e,) + rest


def random_ideal(rng: random.Random) -> Ideal:
    """Two to five homogeneous generators of degree 2..5, up to four terms each."""
    ring = rng.choice(WEIGHTED_RINGS)
    gens = []
    for _ in range(rng.randint(2, 5)):
        monos = list(exponents(ring.degrees, rng.randint(2, 5)))
        if not monos:
            continue
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
        g = Polynomial(ring, {m: rng.randint(-3, 3) for m in chosen})
        if g:
            gens.append(g)
    return Ideal.make(ring, gens)


def records():
    for group in ("B", "D"):
        for n in range(1, 6):
            ideal = weyl.coinvariant_ideal(group, n)
            for order, I in (("declared", ideal), ("reversed", ideal.reversed())):
                label = f"coinvariant {group} {n} {order}"
                yield basis_record(label, I, False)
                yield basis_record(label, I, True)
                for bound in (4, 8):
                    yield basis_record(label, I, False, bound)
                G = groebner._buchberger(I, False)
                e1 = (1,) + (0,) * (n - 1) if order == "declared" else (0,) * (n - 1) + (1,)
                for k in range(1, 4 * n + 1, 3):
                    engine = groebner._Engine(I.ring)
                    unpack_terms = engine.packing.unpack_terms
                    quotients, remainder = engine.divide(
                        {engine.packing.pack(tuple(k * e for e in e1)): 1}, G._reducers
                    )
                    shown = " / ".join(
                        f"{j}:{terms_text(unpack_terms(q))}" for j, q in quotients.items()
                    )
                    yield (
                        f"{label} divide e1^{k} steps={engine.steps} | {shown} | "
                        f"{terms_text(unpack_terms(remainder))}"
                    )
                standard = groebner.standard_monomials(G, 3 * n)
                yield f"{label} standard {' '.join(map(str, standard))}"
    for kind, params in PRESENTATIONS:
        ideal = presentations.build(kind, **params).ideal
        label = f"presentation {kind} {sorted(params.items())}"
        yield basis_record(f"{label} declared", ideal, False)
        yield basis_record(f"{label} reversed", ideal.reversed(), False)
    rng = random.Random(20260519)
    for i in range(120):
        ideal = random_ideal(rng)
        label = f"weighted {i} {ideal.ring.vars}"
        yield basis_record(label, ideal, True)
        yield basis_record(label, ideal, False, rng.randint(0, 8))
    for group in ("B", "D"):
        for n in range(1, 8):
            cofactors = weyl._witness(group, n)
            yield f"witness {group} {n} | " + " | ".join(terms_text(c.terms) for c in cofactors)
        for n in range(1, 5):
            ring = weyl.e_ring(n)
            dec = spanning.reduce(Polynomial.variable(ring, "e1") ** (4 * n + 3), group, n)
            shown = " | ".join(f"{m}: {terms_text(c.terms)}" for m, c in sorted(dec.terms.items()))
            yield f"reduce {group} {n} e1^{4 * n + 3} | {shown}"


def main() -> int:
    out = open(sys.argv[1], "w") if len(sys.argv) > 1 else sys.stdout
    digest = hashlib.sha256()
    count = 0
    for record in records():
        line = record + "\n"
        out.write(line)
        digest.update(line.encode())
        count += 1
    print(f"{count} records, sha256 {digest.hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
