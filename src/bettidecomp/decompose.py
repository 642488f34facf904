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

Diagrams outside the cone fail in one of two ways: the minimal-degree
sequence stops being strictly increasing (or a column up to the projective
dimension empties), or the residual survives the loop guard.  Both raise
``NotInCone`` carrying the partial decomposition for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BettiDiagram,
    PureDiagram,
    _column_bounds,
    _integer_step,
    as_rational,
    pure_diagram,
    window_of,
)
from .errors import InvalidDiagram, NotInCone
from .functionals import _functional, derived_window
from .poset import _climb, leq


@dataclass(frozen=True)
class Decomposition:
    """Ordered positive combination sum coefficient * pi along a chain.

    Coefficients go through ``as_rational`` and must be positive; elements
    must be ``PureDiagram``s of this ``n``, strictly increasing."""

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

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def coefficients(self) -> list[Fraction]:
        return [c for c, _ in self.terms]

    def diagrams(self) -> list[PureDiagram]:
        return [p for _, p in self.terms]

    def reconstruct(self) -> BettiDiagram:
        if not self.terms:
            return BettiDiagram(self.n, {})
        scale, total = _integer_combination(self.terms)
        return BettiDiagram._of(self.n, {pos: Fraction(x, scale) for pos, x in total.items()})


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


def _leading_sequence(residual: dict, scale: int, n: int, partial):
    """Minimal nonzero degree per column, 0..projective dimension, of the
    residual ``residual`` / ``scale`` (integer numerators by position)."""
    bounds = _column_bounds(residual)
    if None in bounds:
        i, top = bounds.index(None), len(bounds) - 1
        raise NotInCone(
            NotInCone.INVALID_LEADING_SEQUENCE,
            f"column {i} is empty below the projective dimension {top}",
            partial=tuple(partial),
            residual=_diagram(residual, scale, n),
        )
    degs = [low for low, _ in bounds]
    if any(b <= a for a, b in zip(degs, degs[1:])):
        raise NotInCone(
            NotInCone.INVALID_LEADING_SEQUENCE,
            f"minimal degrees {tuple(degs)} are not strictly increasing",
            partial=tuple(partial),
            residual=_diagram(residual, scale, n),
        )
    return tuple(degs)


def _diagram(residual: dict, scale: int, n: int) -> BettiDiagram:
    """The diagram ``residual`` / ``scale``, for a failure report."""
    return BettiDiagram._of(n, {pos: Fraction(x, scale) for pos, x in residual.items()})


def greedy_decompose(b: BettiDiagram) -> Decomposition:
    """Decompose a nonnegative diagram, or raise ``NotInCone``.

    On success the terms reconstruct the input exactly, the chain is
    strictly increasing with weakly decreasing codimensions, and integer
    diagrams receive integer coefficients.  The residual is kept in
    integers, over one denominator, from the diagram's integer form.

    >>> from bettidecomp import BettiDiagram
    >>> koszul = BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    >>> [(c, tuple(p.degrees)) for c, p in greedy_decompose(koszul)]
    [(Fraction(6, 1), (0, 1, 2, 3))]
    """
    if b.is_zero:
        raise InvalidDiagram("cannot decompose the zero diagram")
    # L > 0, so L * v has the sign of v
    scale, entries = b._integer_form()
    negative = [pos for pos, x in entries if x < 0]
    if negative:
        i, j = min(negative)
        raise InvalidDiagram(f"negative entry {b[(i, j)]} at ({i}, {j})")
    terms: list[tuple[Fraction, PureDiagram]] = []
    residual = dict(entries)
    M, N = window_of(b)
    for _ in range((b.n + 1) * (N - M + 1) + 1):
        if not residual:
            return Decomposition(tuple(terms), b.n)
        degs = _leading_sequence(residual, scale, b.n, terms)
        element = pure_diagram(degs, b.n)
        # the first column where the residual over the element is least, by
        # cross-multiplication: both are positive there; r / q starts at +inf
        k, r, q = 0, 1, 0
        for col, (pos, x) in enumerate(element._integer[1]):
            y = residual[pos]
            if y * q < r * x:
                k, r, q = col, y, x
        coeff, residual, scale = _integer_step(residual, scale, element, k)
        terms.append((coeff, element))
    raise NotInCone(
        NotInCone.RESIDUAL,
        "residual did not reach zero within the chain bound",
        partial=tuple(terms),
        residual=_diagram(residual, scale, b.n),
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
    reconstruction, then every coefficient through the dual functional of
    its element in a maximal chain through the terms.  A failure's reason
    is ``ambient_mismatch``, ``reconstruction`` or ``functional_mismatch``.
    """
    if dec.n != b.n:
        return VerificationResult(False, "ambient_mismatch")
    if not dec.terms:
        return VerificationResult(b.is_zero, None if b.is_zero else "reconstruction")
    # sum c * p = x / D equals b = y / L exactly when x L = y D at each of
    # b's positions and the sum has no other position
    scale, total = _integer_combination(dec.terms)
    size, entries = b._integer_form()
    if len(total) != len(entries) or any(total.get(pos, 0) * size != y * scale for pos, y in entries):
        return VerificationResult(False, "reconstruction")
    # positive pure diagrams cannot cancel: the terms are a chain of w, and
    # the dual functionals of any maximal chain through them read b's coefficients
    w = derived_window(b)
    seqs, cells = _climb(w, [tuple(p.degrees) for _, p in dec.terms])
    for coeff, p in dec.terms:
        k = seqs.index(tuple(p.degrees))
        below, down = (pure_diagram(seqs[k - 1], w.n), cells[k - 1]) if k else (None, None)
        above, up = (pure_diagram(seqs[k + 1], w.n), cells[k]) if k < len(cells) else (None, None)
        if _functional(below, p, above, down, up, w)(b) != coeff:
            return VerificationResult(False, "functional_mismatch")
    return VerificationResult(True)
