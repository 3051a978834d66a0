"""
Spanning monomials over the invariant rings
===========================================

Z[e_1..e_n] is a free module over each invariant ring, with an explicit
monomial basis of size 2^n n! (type B) or 2^{n-1} n! (type D).  The reduce()
routine writes any polynomial in that basis with invariant coefficients, by
tracked Groebner division against the coinvariant ideal, and the result
expands back to the input exactly.  Freeness is certified degree-by-degree through a
Hilbert series identity.
"""

from slcc import spanning, weyl
from slcc.polyring import parse_poly
from slcc.spanning import basis, expand, reduce as span_reduce, verify_free

for group, n in (("B", 1), ("B", 2), ("D", 2), ("D", 3)):
    b = basis(group, n)
    print(f"basis({group},{n}) has {len(b)} monomials:", ", ".join(b.texts()[:8]),
          "..." if len(b) > 8 else "")

ring = weyl.e_ring(2)

# Reduce e2^2 over type B, rank 2: the answer is s1 * 1 - 1 * e1^2.
p = parse_poly("e2^2", ring)
dec = span_reduce(p, "B", 2)
print("e2^2 =", " + ".join(
    f"({c}) * {ring.monomial_text(m)}" for m, c in sorted(dec.terms.items())
))
assert expand(dec) == p

# A bigger target: a random-looking polynomial round-trips exactly.
p = parse_poly("e1^7*e2 - 3*e2^5 + 11*e1^2*e2^2", ring)
for group in ("B", "D"):
    dec = span_reduce(p, group, 2)
    assert expand(dec) == p
    print(f"type {group}: {len(dec.terms)} basis terms, expansion check ok")

# The Hilbert-series certificate of freeness, up to degree 40:
# Hilb(Z[e]) == Hilb(invariants) * (sum of q^deg over basis monomials).
for group, n in (("B", 3), ("D", 4)):
    rep = verify_free(group, n, 40)
    print(f"verify_free({group},{n},40):", "pass" if rep.passed else "FAIL")
