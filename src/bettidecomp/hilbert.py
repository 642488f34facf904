"""Hilbert series, multiplicity, and the shift bounds.

The Hilbert series of a module with Betti diagram ``b`` over n variables is

    H(t) = S(b, t) / (1 - t)^n,        S(b, t) = sum (-1)^i beta[i, j] t^j.

Writing S = (1 - t)^s Q with s maximal (s is the codimension), the
multiplicity is the exact value e = Q(1); no interpolation is involved.

For a module generated in degree 0 with minimal shifts m_1 < ... < m_r and
maximal shifts M_1 < ... < M_s (r the projective dimension, s the
codimension), the Hilbert series is squeezed coefficientwise between the
series of the normalized pure diagrams of the two shift sequences,

    beta_0 * H(pi(0, m_1..m_r)-normalized)  <=  H  <=  beta_0 * H(pi(0, M_1..M_s)-normalized),

and in particular e <= beta_0 * M_1 ... M_s / s!, with equality exactly for
Cohen-Macaulay modules with a pure resolution.  Series comparisons here are
truncated at a user-chosen depth; nothing beyond the truncation is claimed.

The Hilbert series is strictly increasing along chains of normalized pure
diagrams generated in degree zero, which is what makes the squeeze work;
``check_monotonicity`` verifies that on explicit chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, lt

from .core import (
    BettiDiagram,
    LaurentPolynomial,
    NormalizedPureDiagram,
    _MAX_SERIES_LENGTH,
    _ZERO,
    _integer_form,
    _integer_numerator,
    _is_int,
    _need,
    _peeled_numerator,
    codimension,
    numerator_polynomial,
    pure_diagram,
    window_of,
)
from .errors import (
    InvalidDiagram,
    NotAChain,
    NotSingleDegreeGenerated,
    SeriesTooLong,
    UndefinedOnZero,
)
from .poset import leq


def _check_depth(depth) -> None:
    """A truncation depth is an int >= 0; anything else raises ``ValueError``."""
    if not _is_int(depth) or depth < 0:
        raise ValueError(f"depth must be an integer >= 0, got {depth!r}")


@dataclass(frozen=True)
class HilbertSeries:
    """Rational function numerator / (1 - t)^n with exact coefficients."""

    numerator: LaurentPolynomial
    n: int

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 0:
            raise InvalidDiagram(f"denominator exponent must be an integer >= 0, got {self.n!r}")

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def reduced(self) -> "HilbertSeries":
        """Cancel all common (1 - t) factors between numerator and denominator:
        equal series have equal reduced forms, the zero series with n = 0."""
        if self.is_zero:
            return HilbertSeries(self.numerator, 0)
        s, num = self.numerator.peel_one_minus_t(self.n)
        return HilbertSeries(num, self.n - s)

    def expand(self, depth: int) -> list[Fraction]:
        """Power-series coefficients of t^0 .. t^depth."""
        _check_depth(depth)
        scale, coeffs = self.numerator._integer_coefficients()
        return [Fraction(x, scale) for x in _series_integers(coeffs, self.n, depth)]

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        if self.n == other.n:
            return HilbertSeries(self.numerator + other.numerator, self.n)
        hi = max(self.n, other.n)
        a = self.numerator.times_one_minus_t(hi - self.n)
        b = other.numerator.times_one_minus_t(hi - other.n)
        return HilbertSeries(a + b, hi)

    def scaled(self, scalar) -> "HilbertSeries":
        return HilbertSeries(self.numerator.scaled(scalar), self.n)

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        a, b = self.reduced(), other.reduced()
        return a.n == b.n and a.numerator == b.numerator

    def __hash__(self):
        r = self.reduced()
        return hash((r.numerator, r.n))


def _series_integers(numerator: dict[int, int], n: int, depth: int) -> list[int]:
    """Coefficients of t^0 .. t^depth of numerator / (1 - t)^n, for integer
    coefficients: n prefix sums over the dense numerator from its lowest
    degree, or from 0 if that is higher.  ``SeriesTooLong`` past
    ``core._MAX_SERIES_LENGTH`` of them, before any is computed."""
    lo = min([0, *numerator])
    length = depth + 1 - lo
    if length > _MAX_SERIES_LENGTH:
        raise SeriesTooLong(f"series to t^{depth} has {length} coefficients, more than {_MAX_SERIES_LENGTH}")
    out = [0] * length
    for j, x in numerator.items():
        if j <= depth:
            out[j - lo] += x
    for _ in range(n):
        out = list(accumulate(out))
    return out[-lo:]


def hilbert_series(b: BettiDiagram) -> HilbertSeries:
    """Series recovered from the alternating column sums of the diagram."""
    _need(b, BettiDiagram, InvalidDiagram)
    return HilbertSeries(numerator_polynomial(b), b.n)


def multiplicity(b: BettiDiagram) -> Fraction:
    """e = Q(1) where S(b, t) = (1 - t)^s Q(t) with s maximal.

    For the diagram of a module this is the usual multiplicity; positive
    whenever the diagram is a positive combination of pure diagrams.
    """
    _need(b, BettiDiagram, InvalidDiagram)
    if b.is_zero:
        raise UndefinedOnZero("multiplicity undefined for the zero diagram")
    return _peeled_numerator(b)[1]


@dataclass(frozen=True)
class ShiftBounds:
    """Minimal shifts m_1..m_r and maximal shifts M_1..M_s of a diagram."""

    minimal: tuple[int, ...]
    maximal: tuple[int, ...]


def shift_bounds(b: BettiDiagram) -> ShiftBounds:
    """Read the per-column extreme degrees of a degree-zero-generated diagram.

    ``minimal[i-1] = min{j : beta[i, j] != 0}`` for i = 1..r (projective
    dimension) and ``maximal[i-1] = max{j : ...}`` for i = 1..s
    (codimension).  Generators must sit in degree 0 exactly; diagrams
    generated in several degrees, or in a single nonzero degree, are
    rejected rather than silently twisted.
    """
    _need(b, BettiDiagram, InvalidDiagram)
    return _shift_bounds(_check_generators(b), codimension(b))


def _check_generators(b: BettiDiagram) -> list[tuple[int, int] | None]:
    """b's column bounds, once b is known to be generated in degree 0 only."""
    if b.is_zero:
        raise UndefinedOnZero("shift bounds undefined for the zero diagram")
    bounds = b._column_bounds()
    if bounds[0] == (0, 0):
        return bounds
    gen_degrees = b.column_degrees(0)
    if not gen_degrees:
        raise NotSingleDegreeGenerated("the diagram has no generators: column 0 is empty")
    if len(gen_degrees) != 1:
        raise NotSingleDegreeGenerated(
            f"generators sit in degrees {gen_degrees}, expected a single degree"
        )
    raise NotSingleDegreeGenerated(
        f"generators sit in degree {gen_degrees[0]}, expected degree 0"
    )


def _shift_bounds(bounds: list[tuple[int, int] | None], s: int) -> ShiftBounds:
    """The column reading of :func:`shift_bounds` for codimension s, from
    the diagram's column bounds."""
    if None in bounds[1:]:
        i, r = bounds.index(None, 1), len(bounds) - 1
        raise InvalidDiagram(f"column {i} is empty below the projective dimension {r}")
    minimal = tuple(map(itemgetter(0), bounds[1:]))
    maximal = tuple(map(itemgetter(1), bounds[1 : s + 1]))
    return ShiftBounds(minimal, maximal)


@dataclass(frozen=True)
class PairMonotonicity:
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    nonnegative: bool
    strict: bool
    first_violation: int | None


@dataclass(frozen=True)
class MonotonicityReport:
    depth: int
    pairs: tuple[PairMonotonicity, ...]

    @property
    def passed(self) -> bool:
        return all(p.nonnegative and p.strict for p in self.pairs)


def check_monotonicity(chain, depth: int) -> MonotonicityReport:
    """Truncated coefficientwise comparison of consecutive normalized series.

    ``chain`` is a weakly increasing sequence of normalized pure diagrams in
    one ambient dimension.  Each consecutive pair must have a series
    difference that is componentwise >= 0 up to ``depth`` and not
    identically zero; an identical pair is reported as non-strict rather
    than rejected.  ``depth`` is checked first, as ``HilbertSeries.expand``
    checks it, whatever the chain's length.
    """
    _check_depth(depth)
    chain = list(chain)
    if not chain:
        raise NotAChain("empty chain")
    n = chain[0].n
    for p in chain:
        if not isinstance(p, NormalizedPureDiagram):
            raise NotAChain(f"{p!r} is not a normalized pure diagram")
        if p.n != n:
            raise NotAChain("chain elements live in different ambient dimensions")
    pairs = []
    ha = None
    for a, b in zip(chain, chain[1:]):
        pa, pb = pure_diagram(a.degrees, n), pure_diagram(b.degrees, n)
        if not leq(pa, pb):
            raise NotAChain(f"{a!r} and {b!r} are not comparable in order")
        if ha is None:
            ha = hilbert_series(a.betti).expand(depth)
        hb = hilbert_series(b.betti).expand(depth)
        diff = [x - y for x, y in zip(hb, ha)]
        bad = next((k for k, v in enumerate(diff) if v < 0), None)
        pairs.append(
            PairMonotonicity(
                tuple(a.degrees),
                tuple(b.degrees),
                bad is None,
                any(v > 0 for v in diff),
                bad,
            )
        )
        ha = hb
    return MonotonicityReport(depth, tuple(pairs))


class _Series:
    """A slack not yet divided: integer differences over one denominator."""

    def __init__(self, diffs: list[int], denominator: int):
        self.diffs = diffs
        self.denominator = denominator


class _Slack:
    """Data descriptor of a ``BoundsReport`` slack field, default None.

    It stores what the constructor is given; a ``_Series`` becomes its tuple
    of ``Fraction``s when the field is first read, so a report read only for
    its verdicts builds none."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        value = obj.__dict__[self.name]
        if type(value) is _Series:
            value = tuple(Fraction(d, value.denominator) if d else _ZERO for d in value.diffs)
            obj.__dict__[self.name] = value
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class BoundsReport:
    """Verdicts of the shift-bound comparisons for one diagram.

    ``lower_slack`` and ``upper_slack`` from :func:`multiplicity_bounds` are
    built when first read; equality, hash, repr and copies read them."""

    applicable: bool
    reason: str | None
    depth: int
    generator_count: Fraction | None = None
    shifts: ShiftBounds | None = None
    lower_ok: bool | None = None
    upper_ok: bool | None = None
    lower_slack: tuple[Fraction, ...] | None = _Slack()
    upper_slack: tuple[Fraction, ...] | None = _Slack()
    lower_equality: bool | None = None
    upper_equality: bool | None = None
    multiplicity_value: Fraction | None = None
    multiplicity_bound: Fraction | None = None
    multiplicity_ok: bool | None = None
    multiplicity_equality: bool | None = None
    is_pure: bool | None = None

    @classmethod
    def _of(cls, **fields) -> "BoundsReport":
        """Trusted constructor: every field by name, stored unchecked.  A
        slack may be a ``_Series``, which ``_Slack`` divides when first read."""
        r = object.__new__(cls)
        r.__dict__.update(fields)
        return r

    @property
    def passed(self) -> bool:
        return bool(self.applicable and self.lower_ok and self.upper_ok and self.multiplicity_ok)


def _is_pure(bounds: list[tuple[int, int] | None]) -> bool:
    """Whether the diagram with these column bounds is pure."""
    if any(col is None or col[0] != col[1] for col in bounds):
        return False
    return all(x < y for (x, _), (y, _) in zip(bounds, bounds[1:]))


def multiplicity_bounds(b: BettiDiagram, depth: int | None = None) -> BoundsReport:
    """Check the series squeeze and the multiplicity inequality.

    Truncation depth defaults to N + n + 10 where (M, N) is the support
    window.  When the shift sequences fail to be strictly increasing the
    report comes back ``applicable=False`` with a reason instead of a
    verdict.  Slack vectors are exact coefficient differences.  A ``depth``
    other than None or an integer >= 0 raises ``ValueError`` before any check.
    """
    if depth is not None:
        _check_depth(depth)
    _need(b, BettiDiagram, InvalidDiagram)
    bounds = _check_generators(b)
    # b's numerator in integers: its power sums give both the codimension
    # and the multiplicity e = Q(1), and it is the b half of both slacks
    scale, entries = b._integer
    num = _integer_numerator(entries)
    codim, e = _peeled_numerator(b, num)
    sb = _shift_bounds(bounds, codim)
    if depth is None:
        _, N = window_of(b)
        depth = N + b.n + 10
    beta0 = b[(0, 0)]
    for name, seq in (("minimal", sb.minimal), ("maximal", sb.maximal)):
        if not all(map(lt, (0,) + seq, seq)):
            return BoundsReport(
                False,
                f"{name} shifts {seq} are not strictly increasing above 0",
                depth,
                generator_count=beta0,
                shifts=sb,
            )
    s = len(sb.maximal)
    # each slack is the difference of b's series and beta_0 times a
    # normalized pure series, pi(0, m) scaled by the product of the shifts
    # m; the series is linear in the numerator, so each side expands one
    # difference numerator, formed in integers over one denominator
    x0 = beta0.numerator * (scale // beta0.denominator)
    # (slack, all >= 0, all zero) per side, the slack left undivided
    sides = []
    for seq, sign in ((sb.minimal, 1), (sb.maximal, -1)):
        # (0,) + seq is an int tuple, strictly increasing from 0 (checked
        # above): its integer form needs no PureDiagram
        size, pure = _integer_form((0,) + seq)
        weight = sign * x0 * math.prod(seq)
        diff = {j: sign * size * x for j, x in num.items()}
        for j, y in _integer_numerator(pure).items():
            diff[j] = diff[j] - weight * y if j in diff else -weight * y
        diffs = _series_integers(diff, b.n, depth)
        sides.append((_Series(diffs, scale * size), min(diffs) >= 0, not any(diffs)))
    (lower_slack, lower_ok, lower_equality), (upper_slack, upper_ok, upper_equality) = sides
    # e against the bound x0 prod(M) / (L s!), cross-multiplied in ints
    top, low = x0 * math.prod(sb.maximal), scale * math.factorial(s)
    lhs, rhs = e.numerator * low, top * e.denominator
    return BoundsReport._of(
        applicable=True,
        reason=None,
        depth=depth,
        generator_count=beta0,
        shifts=sb,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        lower_slack=lower_slack,
        upper_slack=upper_slack,
        lower_equality=lower_equality,
        upper_equality=upper_equality,
        multiplicity_value=e,
        multiplicity_bound=Fraction(top, low),
        multiplicity_ok=lhs <= rhs,
        multiplicity_equality=lhs == rhs,
        is_pure=_is_pure(bounds),
    )
