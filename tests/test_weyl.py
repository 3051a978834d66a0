"""Weyl group actions, invariants, and the degree-lowering witnesses."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slcc import weyl
from slcc.polyring import Polynomial, parse_poly
from slcc.weyl import SignedPermutation, apply_action, invariant_generators, is_invariant


def test_identity_action():
    ring = weyl.e_ring(3)
    p = parse_poly("e1^2*e2 - 4*e3", ring)
    assert apply_action(SignedPermutation.identity(3), p) == p


def test_swap_fixes_s1():
    ring = weyl.e_ring(2)
    s1 = parse_poly("e1^2 + e2^2", ring)
    swap = SignedPermutation((1, 0), (1, 1), "B")
    assert apply_action(swap, s1) == s1


def test_sign_flip_negates_t():
    ring = weyl.e_ring(2)
    t = parse_poly("e1*e2", ring)
    flip = SignedPermutation((0, 1), (-1, 1), "B")
    assert apply_action(flip, t) == -t  # so t is not a B-invariant


def test_invariant_generator_examples():
    inv = invariant_generators("B", 2)
    assert [str(g) for g in inv.gens] == ["e1^2 + e2^2", "e1^2*e2^2"]
    assert inv.names == ("s1", "s2")
    inv = invariant_generators("D", 2)
    assert [str(g) for g in inv.gens] == ["e1^2 + e2^2", "e1*e2"]
    inv = invariant_generators("D", 1)
    assert inv.names == ("t",) and [str(g) for g in inv.gens] == ["e1"]


def test_generator_degrees():
    for group, n in (("B", 3), ("D", 3), ("B", 4), ("D", 4)):
        inv = invariant_generators(group, n)
        expected = [4 * i for i in range(1, n + 1)]
        if group == "D":
            expected = [4 * i for i in range(1, n)] + [2 * n]
        assert list(inv.degrees) == expected


def test_is_invariant_examples():
    r3 = weyl.e_ring(3)
    s2 = invariant_generators("B", 3).gens[1]
    assert is_invariant(s2, "B", 3)
    assert not is_invariant(parse_poly("e1", weyl.e_ring(2)), "B", 2)
    t = parse_poly("e1*e2*e3", r3)
    assert is_invariant(t, "D", 3)
    assert not is_invariant(t, "B", 3)


def test_all_generators_are_invariant():
    for group in ("B", "D"):
        for n in range(1, 5):
            for g in invariant_generators(group, n).gens:
                assert is_invariant(g, group, n)


def test_d_validation_rejects_odd_signs():
    with pytest.raises(ValueError):
        SignedPermutation((0, 1), (-1, 1), "D")


def _compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """The element acting as a after b: act(_compose(a, b)) == act(a) o act(b)."""
    perm = tuple(a.perm[b.perm[i]] for i in range(a.n))
    signs = tuple(b.signs[i] * a.signs[b.perm[i]] for i in range(a.n))
    group = "D" if a.group == "D" and b.group == "D" else "B"
    return SignedPermutation(perm, signs, group)


def test_d_generators_stay_even_under_composition():
    for n in (2, 3):
        gens = weyl.group_generators("D", n)
        frontier = [SignedPermutation.identity(n, "D")]
        seen = set()
        for _ in range(4):  # a few rounds of composition stay inside D
            nxt = []
            for a in frontier:
                for b in gens:
                    c = _compose(a, b)
                    key = (c.perm, c.signs)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(c)
                    prod = 1
                    for s in c.signs:
                        prod *= s
                    assert prod == 1
            frontier = nxt


def test_group_generators_generate_the_whole_group():
    for group, n in (("B", 2), ("D", 2), ("D", 3)):
        gens = weyl.group_generators(group, n)
        elements = {(tuple(range(n)), (1,) * n)}
        frontier = [SignedPermutation.identity(n, group)]
        while frontier:
            nxt = []
            for a in frontier:
                for b in gens:
                    c = _compose(a, b)
                    key = (c.perm, c.signs)
                    if key not in elements:
                        elements.add(key)
                        nxt.append(c)
            frontier = nxt
        assert len(elements) == weyl.group_order(group, n)


@st.composite
def rank2_polys(draw):
    ring = weyl.e_ring(2)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        terms[expo] = draw(st.integers(-9, 9))
    return Polynomial(ring, terms)


@st.composite
def b2_elements(draw):
    perm = tuple(draw(st.permutations([0, 1])))
    signs = (draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1])))
    return SignedPermutation(perm, signs, "B")


@settings(max_examples=50)
@given(b2_elements(), rank2_polys(), rank2_polys())
def test_action_is_ring_automorphism(g, p, q):
    assert apply_action(g, p * q) == apply_action(g, p) * apply_action(g, q)
    assert apply_action(g, p + q) == apply_action(g, p) + apply_action(g, q)
    if not p.is_zero():
        assert apply_action(g, p).degree() == p.degree()


@settings(max_examples=30)
@given(b2_elements(), b2_elements(), rank2_polys())
def test_compose_matches_action_composition(g, h, p):
    assert apply_action(_compose(g, h), p) == apply_action(g, apply_action(h, p))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_witness_b_expansion(n):
    ring = weyl.e_ring(n)
    wits = weyl.witness_B(n)
    gens = invariant_generators("B", n).gens
    total = Polynomial.zero(ring)
    for w, s in zip(wits, gens):
        total = total + w * s
    assert total == Polynomial.variable(ring, "e1") ** (2 * n)
    for i, w in enumerate(wits, start=1):
        assert w.is_integral()
        assert w.is_zero() or w.homogeneous_degree() == 4 * n - 4 * i


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_witness_d_expansion(n):
    ring = weyl.e_ring(n)
    wits = weyl.witness_D(n)
    gens = invariant_generators("D", n).gens
    total = Polynomial.zero(ring)
    for w, s in zip(wits, gens):
        total = total + w * s
    assert total == Polynomial.variable(ring, "e1") ** (2 * n - 1)
    for w in wits:
        assert w.is_integral()


def test_witness_small_values():
    assert [str(w) for w in weyl.witness_B(1)] == ["1"]
    assert [str(w) for w in weyl.witness_B(2)] == ["e1^2", "-1"]
    assert [str(w) for w in weyl.witness_D(1)] == ["1"]
    assert [str(w) for w in weyl.witness_D(2)] == ["e1", "-e2"]


def test_witness_cofactors_are_pinned():
    # every printed cofactor of B and D for n = 1..6, one line each
    lines = [
        f"{group} {n} {i} {c}\n"
        for group, witness in (("B", weyl.witness_B), ("D", weyl.witness_D))
        for n in range(1, 7)
        for i, c in enumerate(witness(n), start=1)
    ]
    assert len(lines) == 42
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "7432efe98ba86d57fcd7bf837f6779c7ac19aadfc60c58e5fa45ab35414f016c"


def _all_elements(group, n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            prod = 1
            for s in signs:
                prod *= s
            if group == "D" and prod != 1:
                continue
            yield SignedPermutation(perm, signs, group)


def test_generator_check_agrees_with_full_group():
    # is_invariant only tests generators; brute-force the whole group at rank 2
    import random

    rng = random.Random(5)
    ring = weyl.e_ring(2)
    for _ in range(25):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-4, 4) for _ in range(3)
        }
        p = Polynomial(ring, terms)
        for group in ("B", "D"):
            brute = all(apply_action(g, p) == p for g in _all_elements(group, 2))
            assert brute == weyl.is_invariant(p, group, 2)
