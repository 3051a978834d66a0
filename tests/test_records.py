"""The record classes: construction, validation, immutability, equality and repr.

Each record gets its methods from polyring._record.  Every case lists a
record's fields with sample values (built afresh on each call, so equal
records never share their field objects), its defaults, the field values
its __post_init__ refuses, another value for one compared field, and its
fields left out of equality, hash and repr with another value for each.
"""

import re
from typing import Callable, NamedTuple

import pytest

from slcc import acceptance, charclass, presentations, spanning, weyl
from slcc.groebner import GroebnerBasis, Ideal
from slcc.polyring import Polynomial, RingMismatchError, RingSpec, parse_poly


def _ring():
    return RingSpec.make([("e1", 2), ("e2", 2)])


def _gens():
    return tuple(parse_poly(text, _ring()) for text in ("e1*e2", "e1^2 + e2^2"))


def _ideal():
    return Ideal(_ring(), _gens())


def _presentation():
    return presentations.Presentation((("kind", "sgr2"), ("n", 2)), _ideal(), ((0, 0), (1, 0)))


class Case(NamedTuple):
    cls: type
    values: Callable[[], dict]  # every field, in order
    defaults: dict
    other: dict  # one compared field -> another valid value
    invalid: tuple = ()  # (field overrides, exception type, message fragment)
    hidden: dict = {}  # field -> another value that equality must ignore


CASES = [
    Case(
        RingSpec,
        lambda: {"vars": (("e1", 2), ("e2", 2))},
        {},
        {"vars": (("e2", 2), ("e1", 2))},
        (
            ({"vars": (("e1", 2), ("e1", 4))}, ValueError, "duplicate variable names"),
            ({"vars": (("1e", 2),)}, ValueError, "invalid variable name"),
            ({"vars": (("e1", 0),)}, ValueError, "must be a positive integer"),
        ),
    ),
    Case(
        Ideal,
        lambda: {"ring": _ring(), "generators": _gens()},
        {},
        {"generators": _gens()[:1]},
        (
            ({"generators": (Polynomial.zero(_ring()),)}, ValueError, "must be nonzero"),
            ({"generators": (parse_poly("e1 + e1^2", _ring()),)}, ValueError, "homogeneous"),
            (
                {"generators": (parse_poly("x", RingSpec.make([("x", 1)])),)},
                RingMismatchError,
                "different ring",
            ),
        ),
    ),
    Case(
        GroebnerBasis,
        lambda: {"ideal": _ideal(), "basis": _gens(), "representations": None},
        {"representations": None},
        {"basis": ()},
        hidden={"representations": (({0: 1},), ({0: 2},))},
    ),
    Case(
        weyl.SignedPermutation,
        lambda: {"perm": (1, 0), "signs": (1, -1), "group": "B"},
        {},
        {"signs": (1, 1)},
        (
            ({"perm": (0, 0)}, ValueError, "must be a bijection"),
            ({"signs": (1,)}, ValueError, "signs must be"),
            ({"group": "D"}, ValueError, "even number of sign flips"),
            ({"group": "C"}, ValueError, "group must be 'B' or 'D'"),
        ),
    ),
    Case(
        weyl.InvariantGenerators,
        lambda: {"group": "B", "n": 2, "ring": weyl.invariant_ring("B", 2), "gens": _gens()},
        {},
        {"n": 3},
    ),
    Case(
        spanning.SpanningBasis,
        lambda: {"group": "D", "n": 2, "monomials": ((0, 0), (1, 0))},
        {},
        {"monomials": ()},
    ),
    Case(
        spanning.SpanDecomposition,
        lambda: {"group": "B", "n": 2, "target": _gens()[0], "terms": {(1, 0): _gens()[1]}},
        {},
        {"terms": {}},
    ),
    Case(
        spanning.FreenessReport,
        lambda: {
            "group": "B",
            "n": 1,
            "max_degree": 4,
            "first_mismatch": None,
            "lhs": (1, 0, 1),
            "rhs": (1, 0, 1),
            "size": 2,
        },
        {},
        {"first_mismatch": 3},
    ),
    Case(
        charclass.SplitBundle,
        lambda: {"euler_symbols": ("a", "b"), "odd_part": True, "orientation": -1},
        {"odd_part": False, "orientation": 1},
        {"orientation": 1},
        (
            ({"orientation": 2}, ValueError, "orientation must be +1 or -1"),
            ({"euler_symbols": ("a", "a")}, ValueError, "must be distinct"),
        ),
    ),
    Case(
        charclass.BorelSeries,
        lambda: {"ring": _ring(), "coefficients": (Polynomial.one(_ring()), _gens()[0])},
        {},
        {"coefficients": (Polynomial.one(_ring()),)},
        (
            ({"coefficients": ()}, ValueError, "starts with b_0 = 1"),
            ({"coefficients": _gens()}, ValueError, "starts with b_0 = 1"),
        ),
    ),
    Case(
        charclass.CorDualReport,
        lambda: {"bundle": charclass.SplitBundle(("a",)), "checks": (("top", True),)},
        {},
        {"checks": ()},
    ),
    Case(
        presentations.Presentation,
        lambda: {
            "descriptor": (("kind", "sgr2"), ("n", 2)),
            "ideal": _ideal(),
            "basis_source": ((0, 0), (1, 0)),
        },
        {},
        {"descriptor": ()},
        hidden={"basis_source": lambda: ((0, 0),)},
    ),
    Case(
        presentations.PresentationReport,
        lambda: {
            "presentation": _presentation(),
            "hilbert": (1, 0, 2),
            "checks": (("hilbert_factorization", True, "ok"),),
            "budget_exceeded": True,
        },
        {"budget_exceeded": False},
        {"hilbert": ()},
    ),
    Case(
        acceptance.CheckResult,
        lambda: {"name": "criterion", "passed": False, "detail": "ok", "budget_exceeded": True},
        {"budget_exceeded": False},
        {"passed": True},
    ),
]
IDS = [case.cls.__name__ for case in CASES]
INVALID = [(case, *bad) for case in CASES for bad in case.invalid]


def _fields(record, names) -> dict:
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction(case):
    values = case.values()
    names = list(values)
    positional = case.cls(*values.values())
    assert _fields(positional, names) == values
    assert _fields(case.cls(**case.values()), names) == values
    first, *rest = names
    mixed = case.cls(case.values()[first], **{k: v for k, v in case.values().items() if k in rest})
    assert _fields(mixed, names) == values
    # the defaulted fields left out, positionally and by keyword
    required = {k: v for k, v in case.values().items() if k not in case.defaults}
    for record in (case.cls(*required.values()), case.cls(**required)):
        assert _fields(record, names) == {**required, **case.defaults}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_calls_python_would_refuse(case):
    values = case.values()
    first = next(iter(values))
    calls = [
        ((*values.values(), None), {}),  # one positional argument too many
        ((), {**values, "bogus": 1}),  # an unknown keyword
        ((values[first],), {first: values[first]}),  # a field given twice
        ((), {k: v for k, v in values.items() if k != first}),  # a required field missing
    ]
    for args, kwargs in calls:
        with pytest.raises(TypeError, match=case.cls.__qualname__):
            case.cls(*args, **kwargs)


@pytest.mark.parametrize(
    "case, overrides, error, message", INVALID, ids=[f"{c.cls.__name__}: {m}" for c, *_, m in INVALID]
)
def test_post_init_validation(case, overrides, error, message):
    with pytest.raises(error, match=re.escape(message)):
        case.cls(**{**case.values(), **overrides})


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_frozen_fields(case):
    record = case.cls(**case.values())
    name = next(iter(case.values()))
    if case.cls is spanning.SpanDecomposition:
        # the one mutable record: assignable and, having __eq__, unhashable
        record.group = "D"
        assert record.group == "D"
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    for attempt in (lambda: setattr(record, name, None), lambda: delattr(record, name)):
        with pytest.raises(AttributeError, match=repr(name)):
            attempt()
    assert _fields(record, [name]) == {name: case.values()[name]}
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_and_hash_over_the_compared_fields(case):
    a, b = case.cls(**case.values()), case.cls(**case.values())
    assert a == b and not a != b
    hashable = case.cls is not spanning.SpanDecomposition
    if hashable:
        assert hash(a) == hash(b)
    for name, other in case.hidden.items():
        c = case.cls(**{**case.values(), name: other})
        assert getattr(c, name) is other
        assert c == a
        if hashable:
            assert hash(c) == hash(a)
    # a record differs from one with another compared field, and from any other type
    changed = case.cls(**{**case.values(), **case.other})
    assert changed != a
    assert a != tuple(case.values().values())
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(case):
    values = case.values()
    shown = ", ".join(f"{k}={v!r}" for k, v in values.items() if k not in case.hidden)
    assert repr(case.cls(**values)) == f"{case.cls.__qualname__}({shown})"
