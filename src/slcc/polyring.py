"""Sparse exact multivariate polynomials with cohomological grading.

A polynomial lives in an ambient graded ring described by a :class:`RingSpec`
(an ordered list of variable names with positive integer degrees).  It is
stored as a dict mapping packed monomials, one int each in the ring's
Packing, to nonzero exact coefficients::

    e1^2 + 2*e1*e2  in  Z[e1, e2]   ->   {pack((2, 0)): 1, pack((1, 1)): 2}

Exponent tuples appear only where they are read: the validating
constructor ``Polynomial(ring, {tuple: c})``, the read-only ``terms`` view
(unpacked on each call), ``leading_term``, ``sorted_terms`` and the
printer, which unpacks each monomial once to render it.

Coefficients are Python ints by default; ``fractions.Fraction`` values are
accepted wherever a field is needed (the Groebner engine) and are normalized
back to ints when the denominator is 1.  There is no floating point anywhere.

The canonical term order is graded reverse lexicographic, graded by the
cohomological degree ``sum(exp[i] * degree[i])`` with ties broken by the usual
reverse-lex rule on the exponent vector.  Printing emits terms in descending
canonical order, and :func:`parse_poly` accepts the same grammar the printer
produces (integer literals, variable names, ``+ - * ^ ( )``, with ``*``
mandatory between factors).

A Packing turns an exponent tuple into one int (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007, section 3) that multiplies monomials by addition,
tests divisibility by its guard bits and compares in grevlex; its
docstring states and proves all three.  The term maps, the sort key, the
Groebner division's heap and Buchberger's pair queue all read it, and
every product of term maps is one loop, multiply_packed.

The parser reads text into packed term maps with no kernel arithmetic for
plain monomials: one regex scan makes the tokens, and a term of integer and
variable factors keeps a running coefficient and exponent list (see
_Parser for why its errors come in the order a product of factors would
raise them).  Only a parenthesised factor goes through Polynomial products.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import islice
from operator import attrgetter, mul, or_
from typing import Collection, Iterable, Iterator, Mapping

__all__ = [
    "Coefficient",
    "ExponentOverflowError",
    "Monomial",
    "Packing",
    "ParseError",
    "PolyError",
    "Polynomial",
    "RingMismatchError",
    "RingSpec",
    "UnmappedVariableError",
    "multiply_packed",
    "packing",
    "parse_poly",
    "reverse_terms",
]

# Exponents are kept far below this bound; anything at or above it is treated
# as a (deliberate) overflow so runaway computations fail loudly.
EXPONENT_LIMIT = 2**31

# The parser recurses once per parenthesis level; deeper input is a parse
# error rather than a Python recursion overflow.
NESTING_LIMIT = 100

# Exponents below this render from RingSpec's table of factor strings.
TABLE_EXPONENTS = 64

VAR_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_']*")

Monomial = tuple  # exponent tuple, one entry per ring variable
Coefficient = int | Fraction


class PolyError(Exception):
    """Base error for the polynomial layer."""


class RingMismatchError(PolyError):
    """Operands live in structurally different rings."""


class ExponentOverflowError(PolyError):
    """An exponent exceeded EXPONENT_LIMIT."""


class UnmappedVariableError(PolyError):
    """substitute() met a variable the caller did not map."""


class ParseError(PolyError):
    """Syntax or name error while parsing polynomial text.

    ``offset`` is the byte offset into the input where the problem starts.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _record(cls=None, *, frozen: bool = True, hidden: tuple[str, ...] = ()):
    """Give a class of annotated fields the methods a dataclass would have.

    The fields are the class's annotations in order; a class attribute of
    a field's name is its default, and the defaults come last.  The class
    gets ``__init__`` (positional or keyword arguments bound as Python
    binds a call, then ``__post_init__`` if the class has one), and
    ``__repr__`` and ``__eq__`` over the fields not in ``hidden``.  A
    ``frozen`` class hashes those fields and raises AttributeError on any
    assignment or deletion; any other class is unhashable.

    Plain closures stand in for the dataclasses module, which every CLI run
    would otherwise pay for: importing it, with inspect, and exec-ing the
    generated source of each class.  ``__init__`` sets one value per field
    given positionally with object.__setattr__, as the generated one does;
    any other call fills the instance dict in one update.  Use it as
    ``@_record`` or ``@_record(frozen=False, hidden=(...))``.
    """
    if cls is None:
        return lambda cls: _record(cls, frozen=frozen, hidden=hidden)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required = n - len(defaults)
    if tuple(defaults) != names[required:]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    keys = set(names)
    post_init = getattr(cls, "__post_init__", None)
    where = f"{cls.__qualname__}.__init__()"
    setattr_ = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> dict:
        """Every field's value by name, or the TypeError Python raises for the call."""
        if len(args) > n:
            raise TypeError(f"{where} takes {n} positional arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name in kwargs:
            if name not in keys:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
        values = {**defaults, **values, **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{where} missing required arguments: {', '.join(missing)}")
        return values

    def __init__(self, *args, **kwargs):
        if len(args) == n and not kwargs:
            for name, value in zip(names, args):
                setattr_(self, name, value)
        else:
            # every field by keyword is one dict update; other calls are bound first
            self.__dict__.update(kwargs if not args and kwargs.keys() == keys else bind(args, kwargs))
        if post_init is not None:
            post_init(self)

    shown = tuple(name for name in names if name not in hidden)
    key = attrgetter(*shown)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = __setattr__
    return cls


@_record
class RingSpec:
    """An ordered list of graded variables defining an ambient polynomial ring.

    ``vars`` is a tuple of (name, cohomological degree) pairs.  Degrees must
    be positive; names must be unique and match ``[a-zA-Z][a-zA-Z0-9_']*``.
    """

    vars: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.vars]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for name, degree in self.vars:
            if not VAR_NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
            if not isinstance(degree, int) or degree < 1:
                raise ValueError(f"degree of {name} must be a positive integer, got {degree}")
        object.__setattr__(self, "_index", {name: i for i, (name, _) in enumerate(self.vars)})
        object.__setattr__(self, "_degrees", tuple(d for _, d in self.vars))
        object.__setattr__(self, "_packing", packing(self._degrees))

    @staticmethod
    def make(vars: Iterable[tuple[str, int]]) -> RingSpec:
        return RingSpec(tuple((str(n), int(d)) for n, d in vars))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.vars)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees  # type: ignore[attr-defined]

    @property
    def packing(self) -> Packing:
        """The Packing whose ints key this ring's term maps."""
        return self._packing  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in ring {self.names}") from None

    def reversed(self) -> RingSpec:
        """The same variables in reverse order.

        Grevlex in the returned ring is grevlex on ``self`` with the
        variables reversed (x_n > ... > x_1); reverse_terms moves term maps
        between the two.
        """
        return RingSpec(self.vars[::-1])

    def compatible_with(self, other: RingSpec) -> bool:
        """Same variables in the same order with the same grading."""
        return self.vars == other.vars

    def monomial_degree(self, expo: Monomial) -> int:
        return sum(map(mul, expo, self._degrees))  # type: ignore[attr-defined]

    def sort_key(self, expo: Monomial) -> int:
        """Ascending grevlex key: larger key = larger monomial (see Packing)."""
        return -self.packing.pack(expo)

    @cached_property
    def _factor_texts(self) -> tuple[tuple[str, ...], ...]:
        """Per variable, the factor text of each exponent below TABLE_EXPONENTS."""
        return tuple(
            ("", name, *(f"{name}^{e}" for e in range(2, TABLE_EXPONENTS))) for name, _ in self.vars
        )

    def monomial_text(self, expo: Monomial) -> str:
        factors = [
            texts[e] if e < TABLE_EXPONENTS else f"{texts[1]}^{e}"
            for texts, e in zip(self._factor_texts, expo)
            if e
        ]
        return "*".join(factors) if factors else "1"


def reverse_terms(ring: RingSpec, terms: Mapping[int, Coefficient]) -> dict[int, Coefficient]:
    """A packed term map of ``ring`` moved into ring.reversed(), or back: one repack per term."""
    unpack = ring.packing.unpack
    # the reversed ring's variables, listed in this ring's order
    variables = packing(ring.degrees[::-1]).variables[::-1]
    return {sum(map(mul, unpack(m), variables)): c for m, c in terms.items()}


class Packing:
    """Exponent tuples packed into one int each, whose order is grevlex.

    For an n-variable ring whose variables have the degrees (weights) w,

        pack(m) = F(m) - (deg(m) << 64n),  F(m) = sum_i m_i << 64i,
        deg(m) = sum_i w_i m_i,

    so field i, bits 64i to 64i + 63, holds the exponent of x_i, and the
    negated degree sits above the fields.  pack is linear: pack(m) is
    sum_i m_i * pack(x_i), which is how it is computed.  Every exponent
    must lie in [0, 2^64).  ``guard`` (G below) sets bit 63 of every field.

    - Product: pack is linear, so pack(a) + pack(b) == pack(a * b); the
      fields give the exponents back while each stays below 2^64, as it
      does for a sum of two exponents below EXPONENT_LIMIT = 2^31.
    - Divisibility: while every field is below 2^63, a divides b exactly
      when ``not (pack(b) - pack(a)) & G``.  The degree term is a multiple
      of 2^64n and leaves the bits below 64n alone, so those bits of the
      difference are F(b) - F(a) mod 2^64n (Python's ints keep them when
      the difference is negative).  With no a_i above b_i no field
      borrows; otherwise the lowest field where a_i exceeds b_i wraps to
      2^64 + b_i - a_i, at least 2^63.
    - Order: pack(a) < pack(b) exactly when a > b in grevlex.  As
      0 <= F(m) < 2^64n, pack(m) >> 64n == -deg(m), so a greater degree
      makes a smaller int.  At equal degree the ints differ as the F do,
      and F compares like the reversed tuples (x_n holds the most
      significant field): the smaller is the one with the smaller exponent
      at the last variable where the two differ, which grevlex makes the
      greater monomial.

    So -pack(m) is the ascending sort key (RingSpec.sort_key), a min-heap of
    packed ints pops the greatest monomial first, F(m), the bits below
    64n, gives the exponents back, and the bits below 64n of an OR of
    packed ints are the OR of their F, which ``limit`` (bits 31 to 63 of
    every field) tests against EXPONENT_LIMIT.  With every weight 0,
    pack(m) is F(m).
    """

    __slots__ = ("struct", "guard", "limit", "fields", "shift", "variables")

    def __init__(self, weights: tuple[int, ...]):
        n = len(weights)
        self.struct = struct.Struct(f"<{n}Q")
        self.guard = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * n, "little")
        self.shift = 64 * n
        self.fields = (1 << self.shift) - 1
        self.limit = self.fields - sum((EXPONENT_LIMIT - 1) << 64 * i for i in range(n))
        self.variables = tuple((1 << 64 * i) - (w << self.shift) for i, w in enumerate(weights))

    def pack(self, expo: Monomial) -> int:
        return sum(map(mul, expo, self.variables))

    def unpack(self, packed: int) -> Monomial:
        return self.struct.unpack((packed & self.fields).to_bytes(self.struct.size, "little"))

    def unpack_all(self, packed: Iterable[int]) -> list[Monomial]:
        """The exponent tuples of packed monomials, in order.

        The fields of up to 4096 monomials are joined into one buffer and
        unpacked in one pass, so the buffers stay small.
        """
        size, fields, out, packed = self.struct.size, self.fields, [], iter(packed)
        if not size:  # struct cannot iterate a zero-size layout
            return [() for _ in packed]
        while block := [(m & fields).to_bytes(size, "little") for m in islice(packed, 4096)]:
            out += self.struct.iter_unpack(b"".join(block))
        return out

    def unpack_terms(self, terms: Mapping[int, Coefficient]) -> dict[Monomial, Coefficient]:
        """A packed term map back on exponent tuples, in its own order."""
        return dict(zip(self.unpack_all(terms), terms.values()))

    def check_limit(self, packed: Collection[int]) -> None:
        """Raise ExponentOverflowError when an exponent reaches EXPONENT_LIMIT."""
        if reduce(or_, packed, 0) & self.limit:
            top = max(map(max, self.unpack_all(packed)))
            raise ExponentOverflowError(f"exponent {top} exceeds limit {EXPONENT_LIMIT}")


@lru_cache(maxsize=64)
def packing(weights: tuple[int, ...]) -> Packing:
    """The Packing for variables of these degrees (one per tuple, at most 64 kept)."""
    return Packing(weights)


def multiply_packed(a: Mapping[int, Coefficient], b: Mapping[int, Coefficient], out: dict) -> dict:
    """out += a * b on packed term maps (see Packing); returns out.

    Terms are visited as a's outside b's, and a sum that cancels is popped
    at once.  Coefficients are not normalized and exponents not checked
    against EXPONENT_LIMIT: callers do that.
    """
    get = out.get
    b = b.items()
    for ea, ca in a.items():
        for eb, cb in b:
            m = ea + eb
            s = get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _normalize_coeff(c: Coefficient) -> Coefficient:
    if type(c) is int:  # the common case, ahead of the ABC-backed isinstance checks
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c


class Polynomial:
    """Immutable sparse polynomial over a :class:`RingSpec`.

    Terms are a map from packed monomial (the ring's Packing) to nonzero
    coefficient; the canonical (printing) order is descending grevlex,
    ascending packed ints.  All arithmetic is exact and pure.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[Monomial, Coefficient] | None = None):
        self.ring = ring
        nvars = len(ring)
        pack = ring.packing.pack
        clean: dict[int, Coefficient] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise ValueError(f"exponent tuple {expo} has wrong length for ring {ring.names}")
                for e in expo:
                    if not isinstance(e, int) or e < 0:
                        raise ValueError(f"exponents must be non-negative integers, got {expo}")
                    if e >= EXPONENT_LIMIT:
                        raise ExponentOverflowError(f"exponent {e} exceeds limit {EXPONENT_LIMIT}")
                coeff = _normalize_coeff(coeff)
                if coeff != 0:
                    m = pack(expo)
                    clean[m] = clean.get(m, 0) + coeff
                    if clean[m] == 0:
                        del clean[m]
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, ring: RingSpec, terms: dict[int, Coefficient]) -> Polynomial:
        """Wrap a packed term map the caller already normalized, skipping __init__'s checks."""
        result = cls.__new__(cls)
        result.ring = ring
        result._terms = terms
        result._hash = None
        return result

    @classmethod
    def _normalized(cls, ring: RingSpec, terms: Mapping[int, Coefficient]) -> Polynomial:
        """Wrap a packed term map after normalizing its coefficients and dropping zeros."""
        return cls._trusted(ring, {m: n for m, c in terms.items() if (n := _normalize_coeff(c))})

    @staticmethod
    def zero(ring: RingSpec) -> Polynomial:
        return Polynomial._trusted(ring, {})

    @staticmethod
    def constant(ring: RingSpec, value: Coefficient) -> Polynomial:
        value = _normalize_coeff(value)
        return Polynomial._trusted(ring, {0: value} if value else {})

    @staticmethod
    def one(ring: RingSpec) -> Polynomial:
        return Polynomial.constant(ring, 1)

    @staticmethod
    def variable(ring: RingSpec, name: str) -> Polynomial:
        return Polynomial._trusted(ring, {ring.packing.variables[ring.index(name)]: 1})

    @staticmethod
    def monomial(ring: RingSpec, expo: Monomial, coeff: Coefficient = 1) -> Polynomial:
        return Polynomial(ring, {tuple(expo): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Coefficient]:
        """The term map on exponent tuples, unpacked on each call: a copy to read."""
        return self.ring.packing.unpack_terms(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        """The terms in descending grevlex order, as printed: ascending packed ints."""
        items = sorted(self._terms.items())
        return list(zip(self.ring.packing.unpack_all([m for m, _ in items]), [c for _, c in items]))

    def leading_term(self) -> tuple[Monomial, Coefficient]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        # the least packed int is the greatest monomial (see Packing)
        lead = min(self._terms)
        return self.ring.packing.unpack(lead), self._terms[lead]

    def degree(self) -> int | None:
        """Maximal cohomological degree of a term, or None for zero."""
        if not self._terms:
            return None
        return -(min(self._terms) >> self.ring.packing.shift)

    def is_homogeneous(self) -> bool:
        """Whether all terms share one cohomological degree (zero counts)."""
        return not self._terms or self.homogeneous_degree() is not None

    def homogeneous_degree(self) -> int | None:
        """Common degree of a nonzero homogeneous polynomial, else None.

        The zero polynomial is homogeneous of every degree; it also returns
        None here, so callers wanting the three-way answer check is_zero().
        """
        shift = self.ring.packing.shift
        degs = {m >> shift for m in self._terms}
        if len(degs) == 1:
            return -next(iter(degs))
        return None

    def is_integral(self) -> bool:
        return all(not isinstance(c, Fraction) for c in self._terms.values())

    def variables_present(self) -> set[str]:
        # each field of the OR of the packed terms is the OR of that variable's exponents
        present = self.ring.packing.unpack(reduce(or_, self._terms, 0))
        return {name for name, e in zip(self.ring.names, present) if e}

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: Polynomial) -> None:
        if not self.ring.compatible_with(other.ring):
            raise RingMismatchError(
                f"ring mismatch: {self.ring.vars} vs {other.ring.vars}"
            )

    def _coerce(self, other: Polynomial | Coefficient) -> Polynomial:
        if isinstance(other, Polynomial):
            self._check_ring(other)
            return other
        return Polynomial.constant(self.ring, other)

    def __add__(self, other: Polynomial | Coefficient) -> Polynomial:
        other = self._coerce(other)
        # both operands' coefficients are normal: only sums need normalizing
        out = dict(self._terms)
        for expo, coeff in other._terms.items():
            cur = out.get(expo)
            if cur is None:
                out[expo] = coeff
            else:
                s = cur + coeff
                if s == 0:
                    del out[expo]
                else:
                    out[expo] = _normalize_coeff(s)
        return Polynomial._trusted(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Polynomial | Coefficient) -> Polynomial:
        return self + (-self._coerce(other))

    def __rsub__(self, other: Coefficient) -> Polynomial:
        return self._coerce(other) - self

    def __mul__(self, other: Polynomial | Coefficient) -> Polynomial:
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial.zero(self.ring)
            terms = {e: _normalize_coeff(c * other) for e, c in self._terms.items()}
            return Polynomial._trusted(self.ring, terms)
        self._check_ring(other)
        out = multiply_packed(self._terms, other._terms, {})
        self.ring.packing.check_limit(out)
        for e, c in out.items():
            if type(c) is not int:
                out[e] = _normalize_coeff(c)
        return Polynomial._trusted(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if n == 0:
            return Polynomial.one(self.ring)
        # square up to the lowest set bit, which starts the result: no product by one
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def powers(self, exponents: Iterable[int]) -> Iterator[tuple[int, Polynomial]]:
        """(e, self^e) for each positive e in ``exponents``, ascending, each from the one before."""
        power, done = None, 0
        for e in sorted(set(exponents) - {0}):
            step = self if e - done == 1 else self ** (e - done)
            power = step if power is None else power * step
            yield e, power
            done = e

    def map_coefficients(self, fn) -> Polynomial:
        return Polynomial._normalized(self.ring, {e: fn(c) for e, c in self._terms.items()})

    # -- substitution ------------------------------------------------------

    def substitute(
        self,
        mapping: Mapping[str, Polynomial | Coefficient],
        ring: RingSpec | None = None,
        missing: str = "error",
    ) -> Polynomial:
        """Simultaneous substitution, fully expanded.

        Every variable actually present in the polynomial must be mapped,
        unless ``missing="identity"`` in which case unmapped variables are
        sent to the same-named variable of the target ring.  The target ring
        is taken from the polynomial images, or passed explicitly (required
        when all images are constants).
        """
        if missing not in ("error", "identity"):
            raise ValueError("missing must be 'error' or 'identity'")
        target = ring
        for image in mapping.values():
            if isinstance(image, Polynomial):
                if target is None:
                    target = image.ring
                elif not target.compatible_with(image.ring):
                    raise RingMismatchError("substitution images live in different rings")
        if target is None:
            target = self.ring

        images: dict[int, Polynomial] = {}
        for name, image in mapping.items():
            idx = self.ring.index(name)
            if not isinstance(image, Polynomial):
                image = Polynomial.constant(target, image)
            images[idx] = image
        for name in sorted(self.variables_present()):
            idx = self.ring.index(name)
            if idx not in images:
                if missing == "error":
                    raise UnmappedVariableError(f"variable {name!r} present but not mapped")
                images[idx] = Polynomial.variable(target, name)

        expos = self.ring.packing.unpack_all(self._terms)
        powers = {i: dict(image.powers(e[i] for e in expos)) for i, image in images.items()}
        one = {0: 1}
        out: dict[int, Coefficient] = {}
        for expo, coeff in zip(expos, self._terms.values()):
            term = None
            for i, e in enumerate(expo):
                if e:
                    term = powers[i][e] if term is None else term * powers[i][e]
            for m, c in (one if term is None else term._terms).items():
                out[m] = out.get(m, 0) + coeff * c
        return Polynomial._normalized(target, out)

    def rename_into(self, ring: RingSpec, renaming: Mapping[str, str] | None = None) -> Polynomial:
        """Move the polynomial into ``ring`` by renaming variables.

        ``renaming`` maps old names to new names; unlisted names map to
        themselves.  Degrees of matched variables must agree.
        """
        renaming = dict(renaming or {})
        out: dict[Monomial, Coefficient] = {}
        old_degs = self.ring.degrees
        for expo, coeff in self.terms.items():
            new_expo = [0] * len(ring)
            for i, e in enumerate(expo):
                if not e:
                    continue
                old_name = self.ring.names[i]
                new_name = renaming.get(old_name, old_name)
                j = ring.index(new_name)
                if ring.degrees[j] != old_degs[i]:
                    raise ValueError(
                        f"degree mismatch renaming {old_name} (deg {old_degs[i]}) "
                        f"to {new_name} (deg {ring.degrees[j]})"
                    )
                new_expo[j] += e
            key = tuple(new_expo)
            out[key] = out.get(key, 0) + coeff
        return Polynomial(ring, out)

    # -- printing / equality ------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for expo, coeff in self.sorted_terms():
            mono = self.ring.monomial_text(expo)
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.compatible_with(other.ring) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.vars, frozenset(self._terms.items())))
        return self._hash

    def __iter__(self) -> Iterator[tuple[Monomial, Coefficient]]:
        return iter(self.sorted_terms())


# -- parsing ---------------------------------------------------------------

# One scan of the text: each match skips whitespace and takes one token, the
# end of the text, or a character no token starts with ("bad").
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9_']*)|(?P<op>[-+*^()])"
    r"|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := [+|-] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" INT)?
    base   := INT | NAME | "(" expr ")"

    A term's integer and variable factors build one monomial directly: a
    running integer coefficient and exponent list, with no Polynomial
    made.  Only a parenthesised factor turns the term into a product of
    Polynomials, from that factor on.  The monomial path raises what the
    products would, in the same order: a variable's exponent is checked
    against EXPONENT_LIMIT as the factor is read, and only while the
    coefficient is nonzero, since a product with a zero operand is zero
    and checks nothing.  So ``e1^2147483647*e1*zz`` is an exponent
    overflow, not an unknown variable, and ``0*e1^2147483647*e1`` is 0.
    """

    def __init__(self, text: str, ring: RingSpec):
        self.tokens = _tokenize(text)
        self.ring = ring
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return poly

    def expr(self) -> Polynomial:
        # every term is added into one packed dict; coefficients are integer literals
        out: dict[int, Coefficient] = {}
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        while True:
            for expo, coeff in self.term().items():
                s = out.get(expo, 0) + sign * coeff
                if s:
                    out[expo] = s
                else:
                    del out[expo]
            kind, value, _ = self.peek()
            if not (kind == "op" and value in "+-"):
                return Polynomial._trusted(self.ring, out)
            self.advance()
            sign = -1 if value == "-" else 1

    def term(self) -> dict[int, Coefficient]:
        tokens, index = self.tokens, self.ring._index  # type: ignore[attr-defined]
        pack = self.ring.packing.pack
        start, coeff, expo = self.pos, 1, [0] * len(self.ring)
        while True:
            kind, value, offset = tokens[self.pos]
            if kind == "int":
                self.pos += 1
                coeff *= int(value) ** self.exponent()
            elif kind == "name":
                i = index.get(value)
                if i is None:
                    raise ParseError(f"unknown variable {value!r}", offset)
                self.pos += 1
                e = expo[i] = expo[i] + self.exponent()
                # as in Polynomial.__mul__, where a zero operand checks nothing
                if e >= EXPONENT_LIMIT and coeff:
                    raise ExponentOverflowError(f"exponent {e} exceeds limit {EXPONENT_LIMIT}")
            else:
                break
            kind, value, _ = tokens[self.pos]
            if kind != "op" or value != "*":
                return {pack(expo): coeff} if coeff else {}
            self.pos += 1
        # a parenthesised factor (or a syntax error): Polynomial products from here
        prefix = self.pos > start
        poly = self.factor()
        if prefix:
            poly = Polynomial._trusted(self.ring, {pack(expo): coeff} if coeff else {}) * poly
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly._terms

    def exponent(self) -> int:
        """The exponent after a base: the INT of a "^ INT", 1 without one."""
        kind, value, _ = self.peek()
        if not (kind == "op" and value == "^"):
            return 1
        self.advance()
        kind, value, offset = self.advance()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", offset)
        exponent = int(value)
        if exponent < 1:
            raise ParseError("exponent must be a positive integer", offset)
        if exponent >= EXPONENT_LIMIT:
            raise ParseError(f"exponent {exponent} exceeds limit {EXPONENT_LIMIT}", offset)
        return exponent

    def factor(self) -> Polynomial:
        base = self.base()
        exponent = self.exponent()
        return base if exponent == 1 else base**exponent

    def base(self) -> Polynomial:
        kind, value, offset = self.advance()
        if kind == "int":
            return Polynomial.constant(self.ring, int(value))
        if kind == "name":
            try:
                return Polynomial.variable(self.ring, value)
            except KeyError:
                raise ParseError(f"unknown variable {value!r}", offset) from None
        if kind == "op" and value == "(":
            if self.depth == NESTING_LIMIT:
                raise ParseError(f"parentheses nested deeper than {NESTING_LIMIT}", offset)
            self.depth += 1
            poly = self.expr()
            self.depth -= 1
            kind, value, offset = self.advance()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", offset)
            return poly
        raise ParseError(f"expected integer, variable or '(', got {value!r}", offset)


def parse_poly(text: str, ring: RingSpec) -> Polynomial:
    """Parse polynomial text into canonical form; parse(print(p)) == p."""
    return _Parser(text, ring).parse()
