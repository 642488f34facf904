"""Exact Betti diagrams, pure diagrams and their basic invariants.

A Betti diagram is a finite table of rationals ``beta[i, j]`` where ``i`` is
the homological index (column, ``0 <= i <= n``) and ``j`` the internal
degree.  Tables are displayed with row label ``j - i``, the usual Macaulay2
convention, but stored by internal degree.

The *pure diagram* of a strictly increasing degree sequence
``d_0 < d_1 < ... < d_s`` has a single entry per column,

    pi(d)[i, d_i] = (-1)^i * prod_{j != i} 1 / (d_j - d_i),

which is always positive: the ``i`` negative factors cancel the sign.  These
diagrams solve the Herzog-Kuhl equations

    sum_{i,j} (-1)^i beta[i, j] j^m = 0      for m = 0, ..., s - 1,

and are the extremal rays of the cone of Betti diagrams of graded modules.

All arithmetic is exact: entries are :class:`fractions.Fraction`; floats,
booleans and strings other than ``p`` or ``p/q`` are rejected at the door.
Integer fields (degrees, indices, ``n``) take an ``int`` and nothing else,
in reads as in constructors: a column or position that is not one raises
``InvalidDiagram``.  A public function handed a value of the wrong type
names it in a domain error (:func:`_need`).

The door is the public constructors, which validate every key and value.
A ``BettiDiagram`` stores one form, its canonical integer form
(L, entries times L) with L the lcm of the reduced denominators, and
``BettiDiagram._reduced`` is its one trusted constructor: int values over a
positive scale, reduced by their gcd with the scale.  It and
``LaurentPolynomial._of`` skip the checks and only drop zero entries.  They
may be used only where every key is an ``int`` (pair) already in range and
every value exact, because both came out of library arithmetic on
validated objects: sums, differences and shifts of existing tables,
products with a scalar that went through :func:`as_rational`, and entries
a library formula computed.  Anything a caller hands in goes through the
public constructor, or through a parser.  :func:`pure_diagram` looks up
an all-``int`` sequence in its table, which checks the rest on a miss and
builds through ``DegreeSequence._of`` and ``PureDiagram._of``; any other
input goes through the validating constructors.  ``Decomposition._of`` in
:mod:`bettidecomp.decompose` skips the checks of a decomposition; only
``greedy_decompose`` uses it, whose positive ``Fraction`` coefficients and
strictly increasing terms of its own ``n`` hold by construction.
``BoundsReport._of`` in :mod:`bettidecomp.hilbert` stores a report's fields
without the dataclass constructor; only ``multiplicity_bounds`` uses it,
for the applicable report it computed.

The diagram parsers in :mod:`bettidecomp.io` are doors too.  The JSON
parser validates every key and value itself (``n`` an ``int >= 0``, each
index an ``int`` with ``0 <= i <= n``, each value a rational literal read
as integers with the refusals of :func:`parse_rational`, no position
twice); the table parser reads its positions off the grid and its values
the same way.  Both, and the public constructor, build the diagram from
reduced values through :func:`_canonical`, which needs no gcd.
``PureDiagram.betti`` builds from the integer form read off the degrees.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import lt, mul
from typing import Iterable, Mapping

from .errors import (
    CodimensionExceedsAmbient,
    ColumnOutOfRange,
    InvalidDegreeSequence,
    InvalidDiagram,
    NotGeneratedInDegreeZero,
    SeriesTooLong,
    UndefinedOnZero,
)

#: Exact rational scalar used everywhere in this package.
Rational = Fraction

_ZERO = Fraction(0)


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(token: str) -> Fraction:
    """Exact rational from 'p' or 'p/q'; anything else (floats included) fails."""
    return Fraction(*_rational_parts(token))


def _rational_parts(token: str) -> tuple[int, int]:
    """(p, q) in lowest terms, q > 0, of the literal 'p' or 'p/q', with the
    refusals and messages of :func:`parse_rational`."""
    # plain ASCII digits skip the regex; isdigit alone would pass '²' too
    if token.isdigit() and token.isascii():
        return int(token), 1
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"{token!r} is not an exact rational literal")
    # the match proved both parts ASCII digits: int reads them once more,
    # and refuses one over the digit limit as Fraction(token) would
    p, _, q = token.partition("/")
    p = int(p)
    if not q:
        return p, 1
    q = int(q)
    if not q:
        raise ValueError(f"{token!r} has a zero denominator")
    g = math.gcd(p, q)
    return p // g, q // g


def _parse_int(token: str) -> int:
    """Integer from '-?[0-9]+' in ASCII digits; anything else fails, so
    Unicode digits, underscores and signs like '+' never pass as integers."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"{token!r} is not an integer literal")
    return int(token)


def _is_int(value) -> bool:
    """An int that is not a bool: the only value an integer field accepts."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_rational(value) -> Fraction:
    """Coerce to an exact rational.  Floats and booleans are refused, and
    strings must be 'p' or 'p/q': anything else would silently poison exact
    computations downstream."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise InvalidDiagram(str(exc)) from None
    if isinstance(value, float):
        raise InvalidDiagram(f"float entry {value!r} not allowed; use an exact rational")
    raise InvalidDiagram(f"cannot interpret {value!r} as an exact rational")


class LaurentPolynomial:
    """Sparse Laurent polynomial in one variable with rational coefficients.

    Supports exactly what the numerator algebra needs: addition, scalar
    multiplication, multiplication by ``(1 - t)^k``, exact division by
    ``(1 - t)``, and evaluation.  Division scales to ``int`` once, peels in
    :func:`_peel` and divides back once; the order of ``(1 - t)`` alone is
    read off the power sums (:func:`_order_at_one`), as ``codimension`` and
    ``multiplicity`` read it; ``HilbertSeries.expand`` reads the same
    integer form.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | Iterable[tuple[int, object]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Fraction] = {}
        for degree, value in items:
            if not _is_int(degree):
                raise InvalidDiagram(f"degree {degree!r} is not an integer")
            v = as_rational(value)
            if v:
                acc[degree] = acc.get(degree, Fraction(0)) + v
        self._coeffs = {d: v for d, v in acc.items() if v}

    @classmethod
    def _of(cls, coeffs: dict[int, Fraction]) -> "LaurentPolynomial":
        """Trusted constructor: int degrees and Fraction values from library
        arithmetic, stored unchecked except that zeros are dropped."""
        p = object.__new__(cls)
        p._coeffs = {d: v for d, v in coeffs.items() if v}
        return p

    def coefficient(self, degree: int) -> Fraction:
        if not _is_int(degree):
            raise InvalidDiagram(f"degree {degree!r} is not an integer")
        return self._coeffs.get(degree, Fraction(0))

    def items(self):
        return sorted(self._coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def support(self) -> tuple[int, int]:
        """(lowest, highest) degree of a nonzero term."""
        if not self._coeffs:
            raise UndefinedOnZero("zero polynomial has no support")
        return min(self._coeffs), max(self._coeffs)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self._coeffs)
        for d, v in other._coeffs.items():
            out[d] = out[d] + v if d in out else v
        return LaurentPolynomial._of(out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self._coeffs)
        for d, v in other._coeffs.items():
            out[d] = out[d] - v if d in out else -v
        return LaurentPolynomial._of(out)

    def scaled(self, scalar) -> "LaurentPolynomial":
        c = as_rational(scalar)
        return LaurentPolynomial._of({d: v * c for d, v in self._coeffs.items()})

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        if not _is_int(k):
            raise InvalidDiagram(f"shift {k!r} is not an integer")
        return LaurentPolynomial._of({d + k: v for d, v in self._coeffs.items()})

    def times_one_minus_t(self, power: int = 1) -> "LaurentPolynomial":
        out = self
        for _ in range(power):
            out = out - out.shifted(1)
        return out

    def _integer_coefficients(self) -> tuple[int, dict[int, int]]:
        """(L, degree -> L * coefficient) with L the lcm of the denominators."""
        scale = math.lcm(*(v.denominator for v in self._coeffs.values()))
        return scale, {d: v.numerator * (scale // v.denominator) for d, v in self._coeffs.items()}

    def exact_div_one_minus_t(self) -> "LaurentPolynomial":
        """Exact quotient by (1 - t); raises if the remainder is nonzero."""
        s, q = self.peel_one_minus_t(1)
        if not s and self._coeffs:
            raise ValueError("polynomial is not divisible by (1 - t)")
        return q

    def peel_one_minus_t(self, cap: int | None = None) -> tuple[int, "LaurentPolynomial"]:
        """(s, Q) with self = (1 - t)^s Q and s maximal, or s = cap if smaller.

        ``cap`` is None or an int; anything else raises ``ValueError``."""
        if cap is not None and not _is_int(cap):
            raise ValueError(f"cap must be an integer or None, got {cap!r}")
        if not self._coeffs:
            return 0, self
        scale, coeffs = self._integer_coefficients()
        s, lo, q = _peel(coeffs, cap)
        return s, LaurentPolynomial._of({lo + k: Fraction(x, scale) for k, x in enumerate(q)})

    def one_minus_t_order(self) -> int:
        """Largest s with (1 - t)^s dividing the polynomial (zero poly -> error)."""
        if self.is_zero:
            raise UndefinedOnZero("order undefined for the zero polynomial")
        return _order_at_one(self._integer_coefficients()[1])[0]

    def __call__(self, point) -> Fraction:
        x = as_rational(point)
        if not x and self._coeffs and min(self._coeffs) < 0:
            raise UndefinedOnZero(f"the term of degree {min(self._coeffs)} is undefined at t = 0")
        total = Fraction(0)
        for d, v in self._coeffs.items():
            total += v * x**d
        return total

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for d, v in self.items():
            term = f"{v}" if d == 0 else (f"{v}*t^{d}" if v != 1 else f"t^{d}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


class BettiDiagram:
    """Immutable sparse table beta[i, j] of exact rationals.

    ``n`` is the ambient number of variables; entries must have
    ``0 <= i <= n``.  Zero values are dropped on construction, so the stored
    support is exactly the nonzero support.  The degree window
    ``M <= j - i <= N`` is derived from the support, never stored.

    Diagrams form a vector space: they can be added, subtracted and scaled
    by exact rationals, and entries may be negative.

    A diagram stores its values one way, as its canonical integer form
    ``_integer`` = (L, ((pos, L * v), ...)): L is the lcm of the values'
    reduced denominators, so equal diagrams store the same L and the same
    entries, in any order.  Public reads build one ``Fraction`` per value; a
    linear functional with integer coefficients sums in ``int`` over the
    entries, and its exact value is that sum over L.  Its window (M, N) and
    its numerator's peel are kept once computed (:func:`window_of`,
    :func:`_peeled`).
    """

    __slots__ = ("_n", "_integer", "_hash", "_window", "_peeled")

    def __init__(self, n: int, entries: Mapping[tuple[int, int], object] | Iterable = ()):
        if not _is_int(n) or n < 0:
            raise InvalidDiagram(f"ambient variable count must be an integer >= 0, got {n!r}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, j), value in items:
            if not (_is_int(i) and _is_int(j)):
                raise InvalidDiagram(f"position {(i, j)!r} is not a pair of integers")
            if not 0 <= i <= n:
                raise ColumnOutOfRange(f"homological index {i} outside [0, {n}]")
            v = as_rational(value)
            if v:
                acc[(i, j)] = acc.get((i, j), Fraction(0)) + v
        _canonical(n, [(pos, v.numerator, v.denominator) for pos, v in acc.items() if v], self)

    @classmethod
    def _reduced(cls, n: int, scale: int, values: Iterable[tuple[tuple[int, int], int]]) -> "BettiDiagram":
        """Trusted constructor: the values ``x / scale`` for (pos, x) in
        ``values``, ints over an int scale > 0, with a valid n and in-range
        int positions, each once, from library arithmetic or a parser.
        Zeros are dropped and everything is divided by the gcd of the scale
        and the values, which leaves the canonical form."""
        values = [(pos, x) for pos, x in values if x]
        g = math.gcd(scale, *[x for _, x in values])
        if g > 1:
            scale //= g
            values = [(pos, x // g) for pos, x in values]
        b = object.__new__(cls)
        b._n = n
        b._integer = (scale, tuple(values))
        b._hash = b._window = b._peeled = None
        return b

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_zero(self) -> bool:
        return not self._integer[1]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        if not (isinstance(key, tuple) and len(key) == 2 and _is_int(key[0]) and _is_int(key[1])):
            raise InvalidDiagram(f"position {key!r} is not a pair of integers")
        scale, entries = self._integer
        for pos, x in entries:
            if pos == key:
                return Fraction(x, scale)
        return _ZERO

    def items(self):
        scale, entries = self._integer
        return sorted((pos, Fraction(x, scale)) for pos, x in entries)

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(pos for pos, _ in self._integer[1]))

    def column_degrees(self, i: int) -> tuple[int, ...]:
        if not _is_int(i):
            raise InvalidDiagram(f"column {i!r} is not an integer")
        return tuple(sorted(j for (ii, j), _ in self._integer[1] if ii == i))

    def _column_bounds(self) -> list[tuple[int, int] | None]:
        """(lowest, highest) degree of each column 0..projective dimension,
        None for an empty column, read in one pass over the positions."""
        lo: dict[int, int] = {}
        hi: dict[int, int] = {}
        for (i, j), _ in self._integer[1]:
            if i not in lo:
                lo[i] = hi[i] = j
            elif j < lo[i]:
                lo[i] = j
            elif j > hi[i]:
                hi[i] = j
        if not lo:
            raise UndefinedOnZero("column bounds undefined for the zero diagram")
        return [(lo[i], hi[i]) if i in lo else None for i in range(max(lo) + 1)]

    def projective_dimension(self) -> int:
        if self.is_zero:
            raise UndefinedOnZero("projective dimension undefined for the zero diagram")
        # positions are distinct, so the greatest entry has the greatest i
        return max(self._integer[1])[0][0]

    def _combined(self, other: "BettiDiagram", sign: int) -> "BettiDiagram":
        """self + sign * other, in ``int`` over the lcm of the two scales."""
        (s1, e1), (s2, e2) = self._integer, other._integer
        scale = math.lcm(s1, s2)
        f1, f2 = scale // s1, sign * (scale // s2)
        out = {pos: x * f1 for pos, x in e1}
        for pos, x in e2:
            x *= f2
            out[pos] = out[pos] + x if pos in out else x
        return BettiDiagram._reduced(self._n, scale, out.items())

    def __add__(self, other: "BettiDiagram") -> "BettiDiagram":
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        if other._n != self._n:
            raise InvalidDiagram("cannot add diagrams with different ambient n")
        return self._combined(other, 1)

    def __sub__(self, other: "BettiDiagram") -> "BettiDiagram":
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        if other._n != self._n:
            raise InvalidDiagram("cannot subtract diagrams with different ambient n")
        return self._combined(other, -1)

    def scaled(self, scalar) -> "BettiDiagram":
        c = as_rational(scalar)
        scale, entries = self._integer
        p = c.numerator
        return BettiDiagram._reduced(self._n, scale * c.denominator, [(pos, x * p) for pos, x in entries])

    def __rmul__(self, scalar) -> "BettiDiagram":
        return self.scaled(scalar)

    def __eq__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        (s1, e1), (s2, e2) = self._integer, other._integer
        return self._n == other._n and s1 == s2 and set(e1) == set(e2)

    def __hash__(self):
        if self._hash is None:
            scale, entries = self._integer
            self._hash = hash((self._n, scale, frozenset(entries)))
        return self._hash

    def __repr__(self):
        ent = ", ".join(f"({i},{j}): {v}" for (i, j), v in self.items())
        return f"BettiDiagram(n={self._n}, {{{ent}}})"


def _canonical(n: int, values: list, b: BettiDiagram | None = None) -> BettiDiagram:
    """``b``, or a new diagram, set to n and the canonical integer form
    (L, ((pos, L * p / q), ...)) of nonzero values (pos, p, q) in lowest
    terms, q > 0, each position once, in order: L is the lcm of the q, so
    the gcd of L and the entries is already 1."""
    b = object.__new__(BettiDiagram) if b is None else b
    scale = math.lcm(*[q for _, _, q in values])
    b._n, b._integer = n, (scale, tuple([(pos, p * (scale // q)) for pos, p, q in values]))
    b._hash = b._window = b._peeled = None
    return b


def _need(value, cls, error) -> None:
    """Raise ``error`` naming the value unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise error(f"expected a {cls.__name__}, got {value!r}")


class DegreeSequence(tuple):
    """Strictly increasing tuple of integers d_0 < d_1 < ... < d_s, kept
    as plain ints (an ``IntEnum`` member too), whose repr is their JSON."""

    def __new__(cls, degrees: Iterable[int]):
        vals = tuple(degrees)
        for d in vals:
            if not _is_int(d):
                raise InvalidDegreeSequence(f"degree {d!r} is not an integer")
        if not vals:
            raise InvalidDegreeSequence("degree sequence must be nonempty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise InvalidDegreeSequence(f"sequence {vals} is not strictly increasing")
        return super().__new__(cls, map(int, vals))

    @classmethod
    def _of(cls, degrees: tuple[int, ...]) -> "DegreeSequence":
        """Trusted constructor: a nonempty, strictly increasing tuple of ints."""
        return tuple.__new__(cls, degrees)

    @property
    def codimension(self) -> int:
        return len(self) - 1


@dataclass(frozen=True)
class PureDiagram:
    """Pure diagram pi(d) in ambient dimension n.

    One nonzero entry per column 0..s, at (i, d_i); all entries positive.
    Compare with :func:`bettidecomp.poset.leq` for the partial order.

    ``_integer``, set when the diagram is built, is its integer form
    (L, ((i, d_i), L // q_i) per column), with q_i = |prod_{j != i}
    (d_j - d_i)| and L the lcm of the q_i.  Entry i is 1 / q_i, so this is
    the canonical form ``betti._integer``; it depends on the degrees alone,
    so it is read from the degree-keyed table :func:`_integer_form`, one
    form shared by every n, and :attr:`betti` is built from it.  Every
    entry is a positive int, so a linear functional reads the same sign on
    the entries as on :attr:`betti`.  It is not a field: copies and pickles
    carry it, and ``dataclasses.replace`` builds it again.
    """

    degrees: DegreeSequence
    n: int

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 0:
            raise InvalidDiagram(f"ambient variable count must be an integer >= 0, got {self.n!r}")
        if not isinstance(self.degrees, DegreeSequence):
            object.__setattr__(self, "degrees", DegreeSequence(self.degrees))
        if len(self.degrees) > self.n + 1:
            raise CodimensionExceedsAmbient(
                f"sequence of length {len(self.degrees)} needs n >= {len(self.degrees) - 1}, got n={self.n}"
            )
        # a frozen dataclass's attributes live in __dict__
        self.__dict__["_integer"] = _integer_form(self.degrees)

    @classmethod
    def _of(cls, degrees: DegreeSequence, n: int) -> "PureDiagram":
        """Trusted constructor: an int n >= len(degrees) - 1."""
        p = object.__new__(cls)
        p.__dict__.update(degrees=degrees, n=n, _integer=_integer_form(degrees))
        return p

    @property
    def codimension(self) -> int:
        return self.degrees.codimension

    @cached_property
    def betti(self) -> BettiDiagram:
        return BettiDiagram._reduced(self.n, *self._integer)

    def entry(self, i: int) -> Fraction:
        """The single nonzero value in column i, 0 <= i <= codimension."""
        if not _is_int(i):
            raise InvalidDiagram(f"column {i!r} is not an integer")
        if not 0 <= i < len(self.degrees):
            raise ColumnOutOfRange(f"column {i} outside [0, {len(self.degrees) - 1}]")
        scale, entries = self._integer
        return Fraction(entries[i][1], scale)

    def __repr__(self):
        return f"pi{tuple(self.degrees)}"


@dataclass(frozen=True)
class NormalizedPureDiagram:
    """Pure diagram with d_0 = 0 rescaled so the (0, 0) entry is 1.

    The scale factor is d_1 * d_2 * ... * d_s.
    """

    degrees: DegreeSequence
    n: int
    scale: int
    betti: BettiDiagram = field(compare=False)

    def __repr__(self):
        return f"normalized_pi{tuple(self.degrees)}"


#: Most pure diagrams :func:`pure_diagram` keeps; the least recently read
#: goes first.
_PURE_DIAGRAM_CAP = 256


@lru_cache(maxsize=_PURE_DIAGRAM_CAP)
def _integer_form(degrees: tuple[int, ...]) -> tuple[int, tuple[tuple[tuple[int, int], int], ...]]:
    """``PureDiagram._integer`` of a strictly increasing tuple of int
    degrees, kept for the last ``_PURE_DIAGRAM_CAP`` sequences read: a
    diagram's form depends on its degrees only, so it is computed once per
    sequence, shared across n and across evictions from
    :func:`pure_diagram`'s ``(degrees, n)`` table."""
    qs = []
    for di in degrees:
        prod = 1
        for dj in degrees:
            if dj != di:
                prod *= dj - di
        qs.append(abs(prod))
    scale = math.lcm(*qs)
    # enumerate hands out the positions (i, d_i) themselves
    return scale, tuple(zip(enumerate(degrees), map(scale.__floordiv__, qs)))


def pure_diagram(degrees, n: int) -> PureDiagram:
    """Build pi(d) for a strictly increasing sequence of length <= n + 1.

    Returns one shared diagram per (degrees, n) while it is among the last
    ``_PURE_DIAGRAM_CAP`` read, with ``betti`` cached.  Its integer form
    comes from the degree-keyed table :func:`_integer_form`, so a sequence
    read under another n, or again after its diagram left this table,
    reuses the form already computed.  Only ``int`` degrees and ``n`` are looked up: ``1.0``, ``True`` and
    ``Fraction(1)`` hash like ``1``, and must still be refused.

    >>> pure_diagram((0, 2, 3, 5), 3).entry(0)
    Fraction(1, 30)
    >>> pure_diagram((5,), 3).entry(0)   # empty product
    Fraction(1, 1)
    >>> pure_diagram([0, 1], 1) is pure_diagram((0, 1), 1)
    True
    """
    degs = tuple(degrees)
    if type(n) is int and set(map(type, degs)) == {int}:
        return _pure_diagram_of(degs, n)
    return PureDiagram(DegreeSequence(degs), n)


@lru_cache(maxsize=_PURE_DIAGRAM_CAP)
def _pure_diagram_of(degrees: tuple[int, ...], n: int) -> PureDiagram:
    """:func:`pure_diagram`'s table: the shared diagram of a nonempty
    tuple of int degrees and an int n, kept for the last
    ``_PURE_DIAGRAM_CAP`` pairs read.  A pair is checked only when it is
    missing; one that fails is refused, with its error, by the validating
    constructors, and nothing is kept."""
    if len(degrees) <= n + 1 and all(map(lt, degrees, degrees[1:])):
        return PureDiagram._of(DegreeSequence._of(degrees), n)
    return PureDiagram(DegreeSequence(degrees), n)


def normalize(p: PureDiagram) -> NormalizedPureDiagram:
    """Rescale a pure diagram generated in degree zero to have entry 1 at (0, 0)."""
    _need(p, PureDiagram, InvalidDiagram)
    if p.degrees[0] != 0:
        raise NotGeneratedInDegreeZero(f"first degree is {p.degrees[0]}, expected 0")
    scale = 1
    for d in p.degrees[1:]:
        scale *= d
    return NormalizedPureDiagram(p.degrees, p.n, scale, p.betti.scaled(scale))


def hk_residuals(b: BettiDiagram, s: int) -> list[Fraction]:
    """The first s Herzog-Kuhl residuals sum (-1)^i beta[i,j] j^m, m = 0..s-1.

    All zero exactly when the diagram lies in the codimension-s subspace.
    Summed in ``int`` over the diagram's integer form, so each residual is
    one exact ``Fraction``, the sum over the lcm of the denominators.
    """
    _need(b, BettiDiagram, InvalidDiagram)
    if not _is_int(s) or s < 0:
        raise ValueError(f"s must be an integer >= 0, got {s!r}")
    scale, entries = b._integer
    signed = [(j, -x if i & 1 else x) for (i, j), x in entries]
    return [Fraction(sum(x * j**m for j, x in signed), scale) for m in range(s)]


def _integer_numerator(entries) -> dict[int, int]:
    """The alternating column sums of an integer form's entries, degree ->
    int: the numerator polynomial S(b, t) times the form's L."""
    acc: dict[int, int] = {}
    for (i, j), x in entries:
        if i & 1:
            x = -x
        acc[j] = acc[j] + x if j in acc else x
    return acc


def numerator_polynomial(b: BettiDiagram) -> LaurentPolynomial:
    """Alternating generating polynomial S(b, t) = sum (-1)^i beta[i, j] t^j.

    The Hilbert series of a module with this diagram is S(b, t) / (1 - t)^n.
    Linear in the diagram.
    """
    _need(b, BettiDiagram, InvalidDiagram)
    scale, entries = b._integer
    return LaurentPolynomial._of(
        {j: Fraction(x, scale) for j, x in _integer_numerator(entries).items()}
    )


def codimension(b: BettiDiagram) -> int:
    """Largest s such that (1 - t)^s divides the numerator polynomial.

    Equals the number of leading Herzog-Kuhl equations the diagram satisfies.
    """
    _need(b, BettiDiagram, InvalidDiagram)
    return _peeled(b)[0]


def _peeled_numerator(b: BettiDiagram, num: dict[int, int] | None = None) -> tuple[int, Fraction]:
    """(s, Q(1)) with S(b, t) = (1 - t)^s Q and s maximal: the codimension
    and the multiplicity, from b's one peel (:func:`_peeled`)."""
    s, value, scale = _peeled(b, num)
    return s, Fraction(value, scale)


def _peeled(b: BettiDiagram, num: dict[int, int] | None = None) -> tuple[int, int, int]:
    """(s, x, L) with S(b, t) = (1 - t)^s Q, s maximal and Q(1) = x / L, read
    by :func:`_order_at_one` off S times the lcm L of b's denominators, kept
    on b.  ``num`` is that integer numerator, ``_integer_numerator`` of b's
    integer form, when the caller has it already.
    """
    peeled = b._peeled
    if peeled is None:
        if b.is_zero:
            raise UndefinedOnZero("codimension undefined for the zero diagram")
        scale, entries = b._integer
        try:
            s, value = _order_at_one(_integer_numerator(entries) if num is None else num)
        except UndefinedOnZero:
            raise UndefinedOnZero(
                "the Hilbert numerator of the diagram vanishes, so its codimension and multiplicity are undefined"
            ) from None
        peeled = b._peeled = (s, value, scale)
    return peeled


def _order_at_one(coeffs: dict[int, int]) -> tuple[int, int]:
    """(s, Q(1)) with P = (1 - t)^s Q and s maximal, for P as degree -> int
    (zeros allowed), from the Herzog-Kuhl power sums over its nonzero terms
    c_j t^j only: s is the first m with sum c_j j^m != 0, and
    Q(1) = (-1)^s sum c_j j^s / s!, an int.

    Below s every power sum vanishes, so the s-th derivative at 1, the sum
    of c_j j (j - 1) ... (j - s + 1), is the s-th power sum, and
    Q(1) = (-1)^s P^(s)(1) / s!.  For k nonzero terms s <= k - 1 (the k
    sums m < k of distinct degrees cannot all vanish: Vandermonde), so the
    work is O(k s), and no list spans the degrees.
    """
    degrees = [j for j, x in coeffs.items() if x]
    if not degrees:
        raise UndefinedOnZero("order undefined for the zero polynomial")
    # powers[k] = c_k j_k^s
    powers = [x for x in coeffs.values() if x]
    s = 0
    while not (total := sum(powers)):
        powers = list(map(mul, powers, degrees))
        s += 1
    value = total // math.factorial(s)
    return s, -value if s & 1 else value


#: Most coefficients a dense integer list holds in the two series kernels:
#: a numerator's degrees lo..hi in :func:`_peel`, and a truncated series in
#: ``hilbert._series_integers``.  A longer one raises ``SeriesTooLong``
#: before it is built.
_MAX_SERIES_LENGTH = 10**6


def _peel(coeffs: dict[int, int], cap: int | None = None) -> tuple[int, int, list[int]]:
    """(s, lo, Q) with P = (1 - t)^s Q and s maximal, or s = cap if
    smaller, for P as degree -> int (zeros allowed); Q is dense from degree
    lo.  The quotient's readers use it: ``LaurentPolynomial.peel_one_minus_t``
    and, through it, ``HilbertSeries.reduced``; :func:`_peeled` reads s and
    Q(1) without it.

    One synthetic division per factor: the quotient is the prefix sums of
    the coefficients but the last, which is the remainder, the value at 1.
    ``SeriesTooLong`` when P spans more than ``_MAX_SERIES_LENGTH`` degrees.
    """
    degrees = [j for j, x in coeffs.items() if x]
    if not degrees:
        raise UndefinedOnZero("order undefined for the zero polynomial")
    lo, hi = min(degrees), max(degrees)
    if hi - lo >= _MAX_SERIES_LENGTH:
        raise SeriesTooLong(f"numerator spans {hi - lo + 1} degrees, more than {_MAX_SERIES_LENGTH}")
    quotient = [coeffs.get(j, 0) for j in range(lo, hi + 1)]
    s = 0
    while True:
        sums = list(accumulate(quotient))
        if sums[-1] or (cap is not None and s >= cap):
            return s, lo, quotient
        quotient = sums[:-1]
        s += 1


def _integer_step(
    residual: dict[tuple[int, int], int], scale: int, p: PureDiagram, k: int
) -> tuple[Fraction, dict[tuple[int, int], int], int]:
    """One step of a chain expansion, in integers.

    The residual is ``residual`` / ``scale``: integer numerators by position
    over one denominator.  Subtract the multiple c of p that zeroes it at
    p's entry in column k, and return c with the new residual.  With p's
    integer form (L, P) and r, q the residual's and P's values there,
    c = r L / (scale q) and the new residual is (residual q - r P) over
    scale q, divided by the gcd of all of them; zeros are dropped.  A zero
    r leaves the residual as it is, with the shared zero ``_ZERO`` for c.

    Every position is rescaled: an expansion element need not sit at the
    residual's column minima.  A greedy step touches only those minima,
    and ``decompose.greedy_decompose`` updates them in place.
    """
    size, entries = p._integer
    pos, q = entries[k]
    r = residual.get(pos, 0)
    if not r:
        return _ZERO, residual, scale
    coeff = Fraction(r * size, scale * q)
    out = {key: x * q for key, x in residual.items()}
    for key, x in entries:
        x *= r
        out[key] = out[key] - x if key in out else -x
    scale *= q
    g = math.gcd(scale, *out.values())
    return coeff, {key: x // g for key, x in out.items() if x}, scale // g


def window_of(b: BettiDiagram) -> tuple[int, int]:
    """Degree window (M, N) = (min, max) of j - i over the nonzero support,
    kept on b."""
    _need(b, BettiDiagram, InvalidDiagram)
    window = b._window
    if window is None:
        window = b._window = _window(b)
    return window


def _window(b: BettiDiagram) -> tuple[int, int]:
    """(M, N) read off b's positions in one pass."""
    if b.is_zero:
        raise UndefinedOnZero("window undefined for the zero diagram")
    offsets = [j - i for (i, j), _ in b._integer[1]]
    return min(offsets), max(offsets)
