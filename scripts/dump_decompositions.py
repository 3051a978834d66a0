"""Print a fixed set of spanning decompositions, one per line, and their sha256.

The inputs cover types B and D for n = 1..5: every power e1^k with
k <= 4n + 2, and sixteen seeded random polynomials per (group, n) whose
exponents pass the witness thresholds.  Each line is the target followed by
the decomposition in the order `slcc span reduce` prints it; each
decomposition is expanded back to its target first.  Two checkouts that
print the same hash decompose every input identically.

    PYTHONPATH=src python scripts/dump_decompositions.py [OUT]

The lines go to OUT (default: stdout), the hash and line count to stderr.
"""

import hashlib
import random
import sys

from slcc import spanning, weyl
from slcc.polyring import Polynomial


def inputs():
    for group in ("B", "D"):
        for n in range(1, 6):
            ring = weyl.e_ring(n)
            e1 = Polynomial.variable(ring, "e1")
            for k in range(4 * n + 3):
                yield group, n, e1**k
            rng = random.Random(f"{group}{n}")
            for _ in range(16):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    # e_i may pass its threshold weyl.witness_power(group, n + 1 - i)
                    expo = tuple(rng.randint(0, 2 * (n - i) + 3) for i in range(n))
                    if sum(expo) <= 2 * n + 4:
                        terms[expo] = rng.randint(-9, 9)
                yield group, n, Polynomial(ring, terms)


def main() -> int:
    out = open(sys.argv[1], "w") if len(sys.argv) > 1 else sys.stdout
    digest = hashlib.sha256()
    count = 0
    for group, n, p in inputs():
        ring = weyl.e_ring(n)
        dec = spanning.reduce(p, group, n)
        if spanning.expand(dec) != p:
            raise AssertionError(f"{group} {n} {p}: the decomposition does not expand back")
        items = sorted(dec.terms.items(), key=lambda kv: ring.sort_key(kv[0]))
        shown = " + ".join(f"({c}) * {ring.monomial_text(m)}" for m, c in items)
        line = f"{group} {n} {p} :: {shown}\n"
        out.write(line)
        digest.update(line.encode())
        count += 1
    print(f"{count} decompositions, sha256 {digest.hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
