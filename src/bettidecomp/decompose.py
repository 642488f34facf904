"""Greedy decomposition of a diagram into a chain of pure diagrams.

Any Betti diagram of a graded module is a positive combination of pure
diagrams forming a totally ordered chain, and the combination is unique.
The algorithm peels off the smallest chain element first: read the minimal
nonzero degree of every column up to the current projective dimension, form
the pure diagram of that degree sequence, and subtract as much of it as
possible while keeping all entries nonnegative.  Each step zeroes at least
one diagram position, positions never refill, and the degree sequences
strictly increase, so the loop terminates within the chain length of the
window spanned by the support.

That element touches only the residual's column minima, so the residual is
kept in integers as one cursor per column over the diagram's integer form
(L, entries times L): each column's entries sorted by degree, the entry at
the cursor (the column's *front*) an integer over L * m, and every entry
past it still its original integer over L.  A step reads the fronts' degrees
as the leading sequence, replaces each front value v by v q - r P_i (P the
element's integer form, r and q the residual's and P's values at the first
column of least ratio), multiplies m by q, divides m and the fronts by
gcd(m, fronts), and moves a cursor on past each front that reached zero.
The fronts' degrees are kept in a list, and the next step checks the
leading sequence only at the columns whose cursor moved.  It costs O(s)
for an element of codimension s, not O(entries).

Diagrams outside the cone fail in one of two ways, both raising
``NotInCone`` with the partial decomposition and the residual, rebuilt from
the cursors, for diagnostics:

* ``INVALID_LEADING_SEQUENCE``: a column below the residual's projective
  dimension is empty, or the fronts' degrees are not strictly increasing;
* ``RESIDUAL``: the residual survives the loop guard, one step more than
  the positions of the window.

A negative entry is refused up front with ``InvalidDiagram``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BettiDiagram,
    PureDiagram,
    _need,
    as_rational,
    pure_diagram,
    window_of,
)
from .errors import InvalidDiagram, NotInCone
from .functionals import _read, _rule
from .poset import Window, _steps_around, leq


@dataclass(frozen=True)
class Decomposition:
    """Ordered positive combination sum coefficient * pi along a chain.

    Coefficients go through ``as_rational`` and must be positive; elements
    must be ``PureDiagram``s of this ``n``, strictly increasing.
    ``greedy_decompose`` builds its result through the trusted ``_of``."""

    terms: tuple[tuple[Fraction, PureDiagram], ...]
    n: int

    def __post_init__(self):
        terms = tuple((as_rational(coeff), p) for coeff, p in self.terms)
        object.__setattr__(self, "terms", terms)
        for coeff, p in terms:
            if not isinstance(p, PureDiagram) or p.n != self.n:
                raise InvalidDiagram(f"{p!r} is not a pure diagram with n={self.n}")
            if coeff <= 0:
                raise InvalidDiagram(f"coefficient {coeff} is not positive")
        for (_, a), (_, b) in zip(terms, terms[1:]):
            if a == b or not leq(a, b):
                raise InvalidDiagram(f"{a!r}, {b!r} do not form a strictly increasing chain")

    @classmethod
    def _of(cls, terms: tuple[tuple[Fraction, PureDiagram], ...], n: int) -> "Decomposition":
        """Trusted constructor: positive ``Fraction`` coefficients and
        strictly increasing ``PureDiagram`` terms of this n, stored unchecked."""
        d = object.__new__(cls)
        object.__setattr__(d, "terms", terms)
        object.__setattr__(d, "n", n)
        return d

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def coefficients(self) -> list[Fraction]:
        return [c for c, _ in self.terms]

    def diagrams(self) -> list[PureDiagram]:
        return [p for _, p in self.terms]

    def reconstruct(self) -> BettiDiagram:
        scale, total = _integer_combination(self.terms)
        return BettiDiagram._reduced(self.n, scale, total.items())


def _integer_combination(terms) -> tuple[int, dict[tuple[int, int], int]]:
    """(D, {pos: x}) with sum c * p = x / D over the terms (c, p), in ``int``
    over one denominator D, from each term's integer form; zeros dropped."""
    scale = math.lcm(*(c.denominator * p._integer[0] for c, p in terms))
    total: dict[tuple[int, int], int] = {}
    for c, p in terms:
        size, entries = p._integer
        factor = c.numerator * (scale // (c.denominator * size))
        for pos, x in entries:
            x *= factor
            total[pos] = total[pos] + x if pos in total else x
    return scale, {pos: x for pos, x in total.items() if x}


def _residual(columns: list, fronts: list[int], scale: int, m: int, n: int) -> BettiDiagram:
    """The greedy residual, for a failure report, over ``scale * m``: each
    column's front, and its entries not yet reached at their value in b."""
    values = []
    for i, (column, y) in enumerate(zip(columns, fronts)):
        if column:
            *rest, (j, _) = column
            values.append(((i, j), y))
            values += [((i, j), x * m) for j, x in rest]
    return BettiDiagram._reduced(n, scale * m, values)


def greedy_decompose(b: BettiDiagram) -> Decomposition:
    """Decompose a nonnegative diagram, or raise ``NotInCone``.

    On success the terms reconstruct the input exactly, the chain is
    strictly increasing with weakly decreasing codimensions, and integer
    diagrams receive integer coefficients.  The residual is kept in
    integers over the diagram's integer form, one cursor per column.

    >>> from bettidecomp import BettiDiagram
    >>> koszul = BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    >>> [(c, tuple(p.degrees)) for c, p in greedy_decompose(koszul)]
    [(Fraction(6, 1), (0, 1, 2, 3))]
    """
    _need(b, BettiDiagram, InvalidDiagram)
    if b.is_zero:
        raise InvalidDiagram("cannot decompose the zero diagram")
    # L > 0, so L * v has the sign of v
    scale, entries = b._integer
    negative = [pos for pos, x in entries if x < 0]
    if negative:
        i, j = min(negative)
        raise InvalidDiagram(f"negative entry {b[(i, j)]} at ({i}, {j})")
    # each column's (degree, L * v), highest degree first: the last is the
    # column's front, its least degree in the residual, whose numerator over
    # L * m is fronts[i]; every entry before it still reads L * v over L
    columns: list[list[tuple[int, int]]] = [[] for _ in range(b.projective_dimension() + 1)]
    for (i, j), x in sorted(entries, reverse=True):
        columns[i].append((j, x))
    fronts = [column[-1][1] if column else 0 for column in columns]
    degs = [column[-1][0] if column else 0 for column in columns]
    m = 1
    terms: list[tuple[Fraction, PureDiagram]] = []
    M, N = window_of(b)
    # the columns whose front moved in the last step: every column at first
    moved = range(len(columns))
    for _ in range((b.n + 1) * (N - M + 1) + 1):
        while columns and not columns[-1]:
            columns.pop()
            fronts.pop()
            degs.pop()
        if not columns:
            # coefficients r * size / (scale * m * q) with r, q > 0; front
            # degrees only rise and columns drop off only at the top, so
            # the terms are a strictly increasing chain of b.n's diagrams
            return Decomposition._of(tuple(terms), b.n)
        # the other columns passed these checks unchanged: moved is
        # ascending, so the first empty column found is the first there is;
        # a front only rises, so a pair can fail only where its lower column
        # moved
        top = len(columns) - 1
        for i in moved:
            if i < top and not columns[i]:
                raise NotInCone(
                    NotInCone.INVALID_LEADING_SEQUENCE,
                    f"column {i} is empty below the projective dimension {top}",
                    partial=tuple(terms),
                    residual=_residual(columns, fronts, scale, m, b.n),
                )
        for i in moved:
            if i < top and degs[i] >= degs[i + 1]:
                raise NotInCone(
                    NotInCone.INVALID_LEADING_SEQUENCE,
                    f"minimal degrees {tuple(degs)} are not strictly increasing",
                    partial=tuple(terms),
                    residual=_residual(columns, fronts, scale, m, b.n),
                )
        element = pure_diagram(degs, b.n)
        size, pure = element._integer
        # the first column where the residual over the element is least, by
        # cross-multiplication: both are positive there; r / q starts at +inf
        r, q = 1, 0
        for y, (_, x) in zip(fronts, pure):
            if y * q < r * x:
                r, q = y, x
        terms.append((Fraction(r * size, scale * m * q), element))
        # subtract r / q times the element's integer form: only the fronts
        # move, at least one to zero, over L * m * q; then divide by the gcd
        # of m * q and the fronts, which keeps L a factor of the denominator
        fronts = [y * q - r * x for y, (_, x) in zip(fronts, pure)]
        m *= q
        g = math.gcd(m, *fronts)
        m //= g
        moved = []
        for i, y in enumerate(fronts):
            if y:
                fronts[i] = y // g
            else:
                moved.append(i)
                column = columns[i]
                column.pop()
                if column:
                    degs[i], x = column[-1]
                    fronts[i] = x * m
    raise NotInCone(
        NotInCone.RESIDUAL,
        "residual did not reach zero within the chain bound",
        partial=tuple(terms),
        residual=_residual(columns, fronts, scale, m, b.n),
    )


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def verify_decomposition(dec: Decomposition, b: BettiDiagram) -> VerificationResult:
    """Independently check a decomposition against its claimed input.

    Order and positivity hold by construction.  Verifies exact
    reconstruction, then every coefficient c through the dual functional of
    its element in a maximal chain through the terms, from the two cover
    steps around the element (``poset._steps_around``): the functional's
    coefficient rule is read in ``int`` on b's integer form (L, entries),
    and its sum times c's denominator must equal c's numerator times L.  No
    ``Functional``, no ``Fraction`` and no chain is built.  A failure's
    reason is ``ambient_mismatch``, ``reconstruction`` or
    ``functional_mismatch``.
    """
    _need(dec, Decomposition, InvalidDiagram)
    _need(b, BettiDiagram, InvalidDiagram)
    if dec.n != b.n:
        return VerificationResult(False, "ambient_mismatch")
    if not dec.terms:
        return VerificationResult(b.is_zero, None if b.is_zero else "reconstruction")
    # sum c * p = x / D equals b = y / L exactly when x L = y D at each of
    # b's positions and the sum has no other position
    scale, total = _integer_combination(dec.terms)
    size, entries = b._integer
    if len(total) != len(entries) or any(total.get(pos, 0) * size != y * scale for pos, y in entries):
        return VerificationResult(False, "reconstruction")
    # positive pure diagrams cannot cancel: the terms are a chain of w, and
    # the dual functionals of any maximal chain through them read b's
    # coefficients; nor can they at their lowest codimension, the last
    # term's, so that is b's and w's s_min
    w = Window._of(b.n, *window_of(b), dec.terms[-1][1].codimension)
    steps = _steps_around(w, [p.degrees for _, p in dec.terms])
    for (coeff, p), (d0, down, up) in zip(dec.terms, steps):
        if _read(_rule(d0, p, down, up, w), entries, w.M) * coeff.denominator != coeff.numerator * size:
            return VerificationResult(False, "functional_mismatch")
    return VerificationResult(True)
