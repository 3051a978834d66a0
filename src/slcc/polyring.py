"""Sparse exact multivariate polynomials with cohomological grading.

A polynomial lives in an ambient graded ring described by a :class:`RingSpec`
(an ordered list of variable names with positive integer degrees) and is
stored as a dict mapping exponent tuples to nonzero exact coefficients::

    e1^2 + 2*e1*e2  in  Z[e1, e2]   ->   {(2, 0): 1, (1, 1): 2}

Coefficients are Python ints by default; ``fractions.Fraction`` values are
accepted wherever a field is needed (the Groebner engine) and are normalized
back to ints when the denominator is 1.  There is no floating point anywhere.

The canonical term order is graded reverse lexicographic, graded by the
cohomological degree ``sum(exp[i] * degree[i])`` with ties broken by the usual
reverse-lex rule on the exponent vector.  Printing emits terms in descending
canonical order, and :func:`parse_poly` accepts the same grammar the printer
produces (integer literals, variable names, ``+ - * ^ ( )``, with ``*``
mandatory between factors).

Products of term maps go through one helper, multiply_terms.  A product of
at least PACK_CUTOFF term pairs packs each exponent tuple into one int
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007, section 3): a Packing gives each
variable a 64-bit little-endian field, so x_n holds the most significant
field and a packed int compares like the reversed tuple.  Adding packed
ints adds the exponent tuples, as long as no field reaches 2^64; exponents
stay below EXPONENT_LIMIT = 2^31, so a sum of two never does.  Bit 63 of
each field is the guard bit, and G the int that sets every guard bit.
While every field is below 2^63, a divides b exactly when b - a borrows
into no guard bit, ``not (b - a) & G``: with no a_i above b_i no field
borrows, and the lowest field where a_i exceeds b_i wraps to 2^64 + b_i -
a_i, at least 2^63 (Python's ints keep those bits when the difference is
negative).  The Groebner division and the Buchberger chain test read it.

Smaller products keep the tuple loop, because packing and unpacking cost
more than the packed arithmetic saves there.  Measured in 4 alternating
pairs of perfbench runs on a 2-core host, packing every product made the
spanning workload's wall time 13% slower and the acceptance workload's 7%
slower than this cutoff of 16 term pairs, which leaves both where the
tuple loop had them.

The parser reads text into term maps with no kernel arithmetic for plain
monomials: one regex scan makes the tokens, and a term of integer and
variable factors keeps a running coefficient and exponent list (see
_Parser for why its errors come in the order a product of factors would
raise them).  Only a parenthesised factor goes through Polynomial products.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg
from typing import Iterable, Iterator, Mapping

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
    "multiply_terms",
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

# Products of at least this many term pairs are computed on packed exponents.
PACK_CUTOFF = 16

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


@dataclass(frozen=True)
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

    @staticmethod
    def make(vars: Iterable[tuple[str, int]]) -> RingSpec:
        return RingSpec(tuple((str(n), int(d)) for n, d in vars))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.vars)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees  # type: ignore[attr-defined]

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

    def sort_key(self, expo: Monomial):
        """Ascending grevlex key: larger key = larger monomial."""
        return (self.monomial_degree(expo), tuple(map(neg, reversed(expo))))

    def monomial_text(self, expo: Monomial) -> str:
        factors = []
        for (name, _), e in zip(self.vars, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors) if factors else "1"


def reverse_terms(terms: Mapping[Monomial, Coefficient]) -> dict[Monomial, Coefficient]:
    """A term map moved into the reversed ring, or back: each exponent tuple reversed."""
    return {m[::-1]: c for m, c in terms.items()}


class Packing:
    """Exponent tuples of an n-variable ring packed into one int each.

    Field i holds the exponent of x_i in bits 64i to 64i + 63, so the packed
    ints compare like the reversed tuples.  ``guard`` sets bit 63 of every
    field.  Every exponent must lie in [0, 2^64); the packed arithmetic is
    exact while each field of a sum stays below 2^64, and a guard-bit
    divisibility test needs each field below 2^63.
    """

    __slots__ = ("struct", "guard")

    def __init__(self, nvars: int):
        self.struct = struct.Struct(f"<{nvars}Q")
        self.guard = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * nvars, "little")

    def pack(self, expo: Monomial) -> int:
        return int.from_bytes(self.struct.pack(*expo), "little")

    def unpack_terms(self, terms: Mapping[int, Coefficient]) -> dict[Monomial, Coefficient]:
        """A packed term map back on exponent tuples, in its own order."""
        unpack, size = self.struct.unpack, self.struct.size
        out = {}
        for m, c in terms.items():
            out[unpack(m.to_bytes(size, "little"))] = c
        return out


@lru_cache(maxsize=64)
def packing(nvars: int) -> Packing:
    """The Packing of an nvars-variable ring (one per count, at most 64 kept)."""
    return Packing(nvars)


def multiply_terms(
    a: Mapping[Monomial, Coefficient], b: Mapping[Monomial, Coefficient]
) -> dict[Monomial, Coefficient]:
    """The product of two term maps, as a new term map.

    Terms are visited as a's outside b's, and a sum that cancels is popped
    at once, so the result has the same keys in the same order whichever
    loop computes it.  Coefficients are not normalized and exponents not
    checked against EXPONENT_LIMIT: callers do that.  Exponents must be
    below 2^63.  With at least PACK_CUTOFF term pairs the loop runs on
    packed exponents (see the module docstring).
    """
    if len(a) * len(b) < PACK_CUTOFF:
        out: dict = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                m = tuple(map(add, ea, eb))
                s = get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return out
    layout = packing(len(next(iter(a))))
    pack, from_bytes = layout.struct.pack, int.from_bytes
    packed_a = {from_bytes(pack(*m), "little"): c for m, c in a.items()}
    packed_b = {from_bytes(pack(*m), "little"): c for m, c in b.items()}
    return layout.unpack_terms(multiply_packed(packed_a, packed_b, {}))


def multiply_packed(a: Mapping[int, Coefficient], b: Mapping[int, Coefficient], out: dict) -> dict:
    """out += a * b on packed term maps (see Packing), in multiply_terms' order; returns out."""
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

    Terms are a map from exponent tuple to nonzero coefficient; the canonical
    (printing) order is descending grevlex.  All arithmetic is exact and pure.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[Monomial, Coefficient] | None = None):
        self.ring = ring
        nvars = len(ring)
        clean: dict[Monomial, Coefficient] = {}
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
                    clean[expo] = clean.get(expo, 0) + coeff
                    if clean[expo] == 0:
                        del clean[expo]
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, ring: RingSpec, terms: dict[Monomial, Coefficient]) -> Polynomial:
        """Wrap terms the caller already normalized, skipping __init__'s checks."""
        result = cls.__new__(cls)
        result.ring = ring
        result._terms = terms
        result._hash = None
        return result

    @staticmethod
    def zero(ring: RingSpec) -> Polynomial:
        return Polynomial(ring)

    @staticmethod
    def constant(ring: RingSpec, value: Coefficient) -> Polynomial:
        value = _normalize_coeff(value)
        return Polynomial._trusted(ring, {(0,) * len(ring): value} if value else {})

    @staticmethod
    def one(ring: RingSpec) -> Polynomial:
        return Polynomial.constant(ring, 1)

    @staticmethod
    def variable(ring: RingSpec, name: str) -> Polynomial:
        expo = [0] * len(ring)
        expo[ring.index(name)] = 1
        return Polynomial._trusted(ring, {tuple(expo): 1})

    @staticmethod
    def monomial(ring: RingSpec, expo: Monomial, coeff: Coefficient = 1) -> Polynomial:
        return Polynomial(ring, {tuple(expo): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Coefficient]:
        """The term map.  Treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_terms(self, reverse: bool = True) -> list[tuple[Monomial, Coefficient]]:
        key = self.ring.sort_key
        return sorted(self._terms.items(), key=lambda item: key(item[0]), reverse=reverse)

    def leading_term(self) -> tuple[Monomial, Coefficient]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        key = self.ring.sort_key
        expo = max(self._terms, key=key)
        return expo, self._terms[expo]

    def degree(self) -> int | None:
        """Maximal cohomological degree of a term, or None for zero."""
        if not self._terms:
            return None
        return max(self.ring.monomial_degree(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        """Whether all terms share one cohomological degree (zero counts)."""
        degs = {self.ring.monomial_degree(e) for e in self._terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int | None:
        """Common degree of a nonzero homogeneous polynomial, else None.

        The zero polynomial is homogeneous of every degree; it also returns
        None here, so callers wanting the three-way answer check is_zero().
        """
        degs = {self.ring.monomial_degree(e) for e in self._terms}
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def is_integral(self) -> bool:
        return all(not isinstance(c, Fraction) for c in self._terms.values())

    def variables_present(self) -> set[str]:
        names = self.ring.names
        present: set[str] = set()
        for expo in self._terms:
            for i, e in enumerate(expo):
                if e:
                    present.add(names[i])
        return present

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
        out = multiply_terms(self._terms, other._terms)
        top = max(map(max, out)) if out and self.ring.vars else 0
        if top >= EXPONENT_LIMIT:
            raise ExponentOverflowError(f"exponent {top} exceeds limit {EXPONENT_LIMIT}")
        return Polynomial._trusted(self.ring, {e: _normalize_coeff(c) for e, c in out.items()})

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
        return Polynomial(self.ring, {e: fn(c) for e, c in self._terms.items()})

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

        powers = {i: dict(image.powers(e[i] for e in self._terms)) for i, image in images.items()}
        one = {(0,) * len(target): 1}
        out: dict[Monomial, Coefficient] = {}
        for expo, coeff in self._terms.items():
            term = None
            for i, e in enumerate(expo):
                if e:
                    term = powers[i][e] if term is None else term * powers[i][e]
            for m, c in (one if term is None else term._terms).items():
                out[m] = out.get(m, 0) + coeff * c
        return Polynomial._trusted(target, {m: _normalize_coeff(c) for m, c in out.items() if c})

    def rename_into(self, ring: RingSpec, renaming: Mapping[str, str] | None = None) -> Polynomial:
        """Move the polynomial into ``ring`` by renaming variables.

        ``renaming`` maps old names to new names; unlisted names map to
        themselves.  Degrees of matched variables must agree.
        """
        renaming = dict(renaming or {})
        out: dict[Monomial, Coefficient] = {}
        old_degs = self.ring.degrees
        for expo, coeff in self._terms.items():
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

    Parsing the spanning benchmark's dense input (964 terms, 13.5k
    tokens) took 0.054 s with a Polynomial product per factor and takes
    0.013 s this way (medians of 10 alternating processes on a 2-core
    host, Python 3.11); about two thirds of that is the regex scan.
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
        # every term is added into one dict; coefficients are integer literals
        out: dict[Monomial, Coefficient] = {}
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

    def term(self) -> dict[Monomial, Coefficient]:
        tokens, index = self.tokens, self.ring._index  # type: ignore[attr-defined]
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
                return {tuple(expo): coeff} if coeff else {}
            self.pos += 1
        # a parenthesised factor (or a syntax error): Polynomial products from here
        prefix = self.pos > start
        poly = self.factor()
        if prefix:
            poly = Polynomial._trusted(self.ring, {tuple(expo): coeff} if coeff else {}) * poly
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
