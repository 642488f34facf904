"""Integer dual functionals of chain bases, facets of the fan, membership.

For a maximal chain of pure diagrams and a consecutive triple
``pi0 < pi1 < pi2`` in it, there is an integer linear functional on diagrams
that evaluates to 1 on ``pi1`` and to 0 on every pure diagram below ``pi0``
or above ``pi2``.  Expanding a diagram of the window subspace in the chain
basis, the functional reads off the coefficient of ``pi1``.

Writing ``pi1 = pi(d_0, ..., d_m)``, the functional is read off the two grid
cells that the cover moves around ``pi1`` vacate.  Let ``D`` be the column
of the cell that ``pi0 -> pi1`` vacates (``m + 1`` when ``pi0`` drops its
last degree) and ``U`` the column of the cell that ``pi1 -> pi2`` vacates
(``m`` for a drop, and ``m`` above the window maximum).  Then

    sum (-1)^i (d_D - d_U) prod_{j <= m, j not in {D, U}} (d_j - deg) * beta[i, deg]

over ``M + i <= deg <= limit_i``, where the prefactor ``d_D - d_U`` reads
as 1 when ``D = m + 1``, and the column sums truncate at the degrees of
``pi0`` (columns above the codimension of ``pi0`` at the window ceiling
``N + i``).  Vanishing below ``pi0`` follows from the Herzog-Kuhl
equations, vanishing above ``pi2`` from the truncation.  In three
configurations the functional is instead a single scaled Betti number of
``pi1``, the one in column ``D`` when ``D = U`` (two moves in one column)
or when ``pi0`` raises into the window maximum, and below the window
minimum the one in column ``U`` (column 0 when the window holds a single
diagram).

Every coefficient is an integer, so integer diagrams expand with integer
coordinates.  A maximal chain minus one element is a boundary facet of the
fan spanned by the chains when the cover triple around the gap has a unique
middle, that is, when the two grid cells vacated around the gap share an
edge, so the numbers k and k + 1 on them cannot be swapped.  Every cover
triple lies on some maximal chain, so the facet hyperplanes are the
functionals of the boundary cover triples, found without enumerating
chains.  They are nonnegative on the whole fan (convexity): cone
membership is a finite list of inequalities with an explicit violation
certificate.

Functionals are evaluated in integers.  A diagram's entries scaled by the
lcm L of their denominators are integers, its integer form, computed once
per diagram; a functional sums in ``int`` over it, and its exact value is
that sum over L.  ``Functional.__call__`` returns that ``Fraction``.

:func:`verify_fan_convexity` and :func:`membership_by_inequalities` read
every hyperplane of the window at once, packed one field per hyperplane
into one ``int`` per grid cell (:mod:`.packing`), and build one
``Fraction``, the field they report over L.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .core import (
    BettiDiagram,
    PureDiagram,
    _integer_step,
    codimension,
    hk_residuals,
    pure_diagram,
    window_of,
)
from .errors import (
    ChainNotMaximal,
    InvariantViolated,
    NotACoverTriple,
    NotInSubspace,
    WindowMismatch,
)
from .packing import Packing
from .poset import Chain, Window, _cell, _diagrams, chain_length
from .poset import _moves as _cover_moves


class FacetKind(Enum):
    """Configurations of a maximal chain with one element removed."""

    INTERIOR = "interior"
    EXTREMAL = "kind_i_extremal"
    SAME_COLUMN_TWICE = "kind_ii_same_column_twice"
    ADJACENT_COLUMNS = "kind_iii_adjacent_columns"
    CODIMENSION_TWICE = "kind_iv_codim_twice"


class FunctionalCase(Enum):
    """The raise/drop shape of the two cover moves around a functional's middle.

    ``FIRST``: drop below, raise above; ``SECOND``: raise below, drop above;
    ``THIRD``: two raises; ``FOURTH``: two drops, or a drop into the window
    maximum.  One rule gives every functional, so the tag selects no
    formula; it labels the shape for the CLI ``case`` field and the
    fixtures.  ``ENTRY`` marks the configurations where the functional is
    a single scaled Betti number.
    """

    FIRST = "first"
    SECOND = "second"
    THIRD = "third"
    FOURTH = "fourth"
    ENTRY = "entry"


@dataclass(frozen=True)
class Functional:
    """Integer linear functional beta -> sum c[i, j] * beta[i, j] on a window."""

    window: Window
    coefficients: tuple[tuple[tuple[int, int], int], ...]
    case: FunctionalCase
    anchor: tuple[PureDiagram | None, PureDiagram, PureDiagram | None]

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], int]:
        return dict(self.coefficients)

    def coefficient(self, i: int, j: int) -> int:
        return self._lookup.get((i, j), 0)

    def grid(self) -> list[list[int]]:
        """Dense display grid, row = j - i - M, column = i."""
        w = self.window
        cols = w.n + 1
        grid = [[0] * cols for _ in range(w.rows)]
        # the coefficients placed into a zero grid; a position off the grid
        # (only a hand-built functional has one) is not displayed
        for (i, j), c in self.coefficients:
            r = j - i - w.M
            if 0 <= r < w.rows and 0 <= i < cols:
                grid[r][i] = c
        return grid

    def __call__(self, b: BettiDiagram) -> Fraction:
        scale, entries = b._integer_form()
        lookup = self._lookup
        total = 0
        for pos, x in entries:
            c = lookup.get(pos)
            if c:
                total += c * x
        return Fraction(total, scale)


def _step(down: PureDiagram, up: PureDiagram, w: Window) -> tuple[int, int]:
    """The grid cell that the cover move down -> up vacates."""
    cell = _cell(tuple(down.degrees), tuple(up.degrees), w)
    if cell is None:
        raise NotACoverTriple(f"{down!r} -> {up!r} is not a cover move in {w}")
    return cell


def _truncation_limits(p0: PureDiagram, w: Window) -> list[int]:
    """Per-column upper degree limits d_i(pi0); N + i above the codimension.

    A p0 in the window has d_i <= N + i, so no limit exceeds the ceiling."""
    c = p0.codimension
    return [p0.degrees[i] if i <= c else w.N + i for i in range(w.n + 1)]


def _indicator(p1: PureDiagram, pos: tuple[int, int], w: Window, anchor):
    # entry x / L of p1's integer form (L, entries) is the unit fraction
    # 1 / (L / x) exactly when x > 0 divides L
    scale, entries = p1._integer
    x = next((x for at, x in entries if at == pos), 0)
    if x <= 0 or scale % x:
        raise InvariantViolated(f"entry {pos} of {p1!r} is {Fraction(x, scale)}, not a unit fraction")
    return Functional(w, ((pos, scale // x),), FunctionalCase.ENTRY, anchor)


def _from_formula(case, p1, prefactor, product_indices, limits, w, anchor):
    d = p1.degrees
    M, top = w.M, max(limits)
    # prefactor * prod_j (d_j - deg) for deg in [M, top], one pass per factor:
    # the product does not depend on the column
    values = [prefactor] * (top - M + 1)
    for j in product_indices:
        values = list(map(mul, values, range(d[j] - M, d[j] - top - 1, -1)))
    # column i holds (-1)^i values[deg - M] for M + i <= deg <= limit_i; the
    # zeros dropped, in (i, deg) order
    coeffs = tuple(
        ((i, deg), -v if i & 1 else v)
        for i, limit in enumerate(limits)
        for deg, v in zip(range(M + i, limit + 1), values[i:limit - M + 1])
        if v
    )
    # value 1 on p1, read in int over its integer form (L, entries): p1 has one
    # entry per column, so sum c * x == L is O(s)
    scale, entries = p1._integer
    total = 0
    for (i, j), x in entries:
        if M + i <= j <= limits[i]:
            total += -values[j - M] * x if i & 1 else values[j - M] * x
    if total != scale:
        raise InvariantViolated(f"{case.value} formula is {Fraction(total, scale)} on {p1!r}, not 1")
    return Functional(w, coeffs, case, anchor)


def coefficient_functional(
    p0: PureDiagram | None,
    p1: PureDiagram | None,
    p2: PureDiagram | None,
    w: Window,
) -> Functional:
    """Dual functional of p1 for chain bases through p0 < p1 < p2.

    ``p0 = None`` / ``p2 = None`` are the sentinels below the window minimum
    and above the window maximum; they are only legal when p1 actually is
    that extreme.  Raises ``NotACoverTriple`` otherwise.
    """
    if p1 is None:
        raise NotACoverTriple("middle element of the triple must be a pure diagram")
    if not w.contains(p1):
        raise WindowMismatch(f"{p1!r} is not a valid diagram of {w}")
    if p0 is None:
        if p1 != w.min_element():
            raise NotACoverTriple("bottom sentinel is only valid below the window minimum")
    elif not w.contains(p0):
        raise WindowMismatch(f"{p0!r} is not a valid diagram of {w}")
    if p2 is None:
        if p1 != w.max_element():
            raise NotACoverTriple("top sentinel is only valid above the window maximum")
    elif not w.contains(p2):
        raise WindowMismatch(f"{p2!r} is not a valid diagram of {w}")
    down = None if p0 is None else _step(p0, p1, w)
    up = None if p2 is None else _step(p1, p2, w)
    return _functional(p0, p1, p2, down, up, w)


# the shape tag by (down is a raise, up is a raise)
_CASES = {
    (False, True): FunctionalCase.FIRST,
    (True, False): FunctionalCase.SECOND,
    (True, True): FunctionalCase.THIRD,
    (False, False): FunctionalCase.FOURTH,
}


def _functional(p0, p1, p2, down, up, w: Window) -> Functional:
    """Dual functional of p1 from the grid cells vacated by its cover moves
    ``down`` (p0 -> p1) and ``up`` (p1 -> p2), None at a sentinel.  A cell
    in the bottom row N - M is a drop, any other a raise."""
    anchor = (p0, p1, p2)
    m = p1.codimension
    d = p1.degrees
    if down is None:
        col = 0 if up is None else up[1]
        return _indicator(p1, (col, d[col]), w, anchor)
    D = down[1]
    U = m if up is None else up[1]
    if D == U or (up is None and D <= m):
        return _indicator(p1, (D, d[D]), w, anchor)
    bottom = w.N - w.M
    case = _CASES[down[0] < bottom, up is not None and up[0] < bottom]
    prefactor = 1 if D == m + 1 else d[D] - d[U]
    product = [j for j in range(m + 1) if j not in (D, U)]
    return _from_formula(case, p1, prefactor, product, _truncation_limits(p0, w), w, anchor)


def _check_in_subspace(b: BettiDiagram, w: Window) -> None:
    """Raise ``WindowMismatch`` unless b lives in w's rows, ``NotInSubspace``
    unless it satisfies w's s_min Herzog-Kuhl equations."""
    if b.n != w.n:
        raise WindowMismatch(f"diagram has n={b.n}, window has n={w.n}")
    for i, j in b.support():
        if not w.M <= j - i <= w.N:
            raise WindowMismatch(f"entry at ({i}, {j}) lies outside rows [{w.M}, {w.N}]")
    residuals = hk_residuals(b, w.s_min)
    if any(residuals):
        raise NotInSubspace(
            f"diagram violates the first {w.s_min} Herzog-Kuhl equations", residuals
        )


def expand_in_chain(b: BettiDiagram, c: Chain) -> list[Fraction]:
    """Coordinates of a diagram in the basis given by a maximal chain.

    The diagram must lie in the window's rows and satisfy its ``s_min``
    Herzog-Kuhl equations (``WindowMismatch``, ``NotInSubspace``), checked
    only on a nonzero residual: a zero one proves both.  Coordinates may be
    negative.  Triangular back-substitution along the chain's vacating order;
    :func:`coefficient_functional` is an independent route for cross-checks.
    """
    w = c.window
    if not c.is_maximal():
        raise ChainNotMaximal("expansion needs a maximal chain (a basis)")
    if b.n != w.n:
        raise WindowMismatch(f"diagram has n={b.n}, window has n={w.n}")
    # element k is nonzero on the cell its step vacates, its entry in the
    # cell's column, where all later elements vanish; the maximum is last,
    # read at its column-0 entry
    columns = [i for _, i in c.vacated] + [0]
    coords = []
    scale, entries = b._integer_form()
    residual = dict(entries)
    for element, i in zip(c.elements, columns):
        lam, residual, scale = _integer_step(residual, scale, element, i)
        coords.append(lam)
    if residual:
        _check_in_subspace(b, w)
        raise InvariantViolated(f"a maximal chain of {w} is not a basis of its subspace")
    return coords


def _middles(a: PureDiagram, c: PureDiagram, w: Window) -> list[PureDiagram]:
    """Elements x with a covered-by x covered-by c."""
    target = tuple(c.degrees)
    return [
        pure_diagram(nd, w.n)
        for nd, _ in _cover_moves(tuple(a.degrees), w)
        if _cell(nd, target, w) is not None
    ]


def classify_facet(c: Chain) -> FacetKind:
    """Classify a maximal chain with one element removed.

    Interior exactly when the missing element can be chosen in two or more
    ways.  The boundary configurations are: the removed element was extremal
    (kind i); the neighbours differ by two steps in one single column,
    including a last-column raise to the ceiling followed by the drop of
    that column (kind ii); two raises in adjacent columns crossing
    consecutive degrees (kind iii); a double codimension drop (kind iv).
    """
    w = c.window
    if len(c) != chain_length(w) - 1:
        raise ChainNotMaximal("expected a maximal chain minus exactly one element")
    if not c or c[0] != w.min_element() or c[-1] != w.max_element():
        return FacetKind.EXTREMAL
    gaps = [k for k, cell in enumerate(c.vacated) if cell is None]
    if len(gaps) != 1:
        raise ChainNotMaximal("chain does not have exactly one removed element")
    a, b = c[gaps[0]], c[gaps[0] + 1]
    middles = _middles(a, b, w)
    if len(middles) >= 2:
        return FacetKind.INTERIOR
    if not middles:
        raise ChainNotMaximal(f"no element fits between {a!r} and {b!r}")
    mid = middles[0]
    kind = _triple_kind(_step(a, mid, w), _step(mid, b, w), w)
    if kind is FacetKind.INTERIOR:
        raise InvariantViolated(f"{a!r} < {mid!r} < {b!r} has one middle but reads interior")
    return kind


@dataclass(frozen=True)
class BoundaryFacet:
    """A boundary hyperplane of the fan and the triple middle it is read from."""

    removed: PureDiagram
    kind: FacetKind
    functional: Functional


def _triple_kind(down, up, w: Window) -> FacetKind:
    """Classify a cover triple by the grid cells its two moves vacate.

    The triple is a boundary triple exactly when the two cells share an
    edge: one above the other (kind ii), or side by side, in the bottom row
    N - M for two drops (kind iv) and above it for two raises (kind iii).
    """
    (down_row, down_col), (up_row, up_col) = down, up
    if down_col == up_col and abs(down_row - up_row) == 1:
        return FacetKind.SAME_COLUMN_TWICE
    if down_row == up_row and abs(down_col - up_col) == 1:
        if down_row == w.N - w.M:
            return FacetKind.CODIMENSION_TWICE
        return FacetKind.ADJACENT_COLUMNS
    return FacetKind.INTERIOR


@lru_cache(maxsize=64)
def _boundary_facets_cached(w: Window) -> tuple[BoundaryFacet, ...]:
    # None stands below min and above max: the extremal triples are
    # (None, min, p1), (p0, max, None) and, when min == max, (None, min, None)
    # each diagram's cover moves, with their cells, are derived once
    facets = {}

    def keep(p0, p1, p2, down, up, kind):
        f = _functional(p0, p1, p2, down, up, w)
        facets.setdefault(f.coefficients, BoundaryFacet(p1, kind, f))

    table = _diagrams(w)
    moves = {d: _cover_moves(d, w) for d in table}
    # the window minimum and maximum by their degrees
    lo, hi = tuple(range(w.M, w.M + w.n + 1)), tuple(range(w.N, w.N + w.s_min + 1))
    if lo == hi:
        keep(None, table[lo], None, None, None, FacetKind.EXTREMAL)
    for d0, p0 in table.items():
        for d1, down in moves[d0]:
            p1 = table[d1]
            if d0 == lo:
                keep(None, p0, p1, None, down, FacetKind.EXTREMAL)
            if d1 == hi:
                keep(p0, p1, None, down, None, FacetKind.EXTREMAL)
            for d2, up in moves[d1]:
                kind = _triple_kind(down, up, w)
                if kind is not FacetKind.INTERIOR:
                    keep(p0, p1, table[d2], down, up, kind)
    return tuple(facets.values())


def boundary_facets(w: Window) -> list[BoundaryFacet]:
    """One boundary facet per distinct integer coefficient vector of the
    boundary hyperplanes of the fan of the window.

    Positive multiples of one hyperplane are separate facets: (1,0,2,0)
    lists 10 for 8 hyperplanes (ROADMAP item 2).  Read off the cover
    triples with a unique middle, without enumerating chains.  Order is
    deterministic: p0 over ``w.pure_diagrams()``, then its covers p1 (the
    extremal triples of p1 first), then the covers p2 of p1; the first
    triple of each coefficient vector supplies ``removed`` and ``kind``.
    """
    return list(_boundary_facets_cached(w))


@dataclass(frozen=True)
class ConvexityReport:
    window: Window
    passed: bool
    facets_checked: int
    diagrams_checked: int
    counterexample: tuple[BoundaryFacet, PureDiagram, Fraction] | None


def _signed_columns(facets) -> tuple[dict[tuple[int, int], int], list[int]]:
    """(offsets, flat): facet k's coefficient at pos is ``flat[offsets[pos] + k]``,
    for every position some facet reads."""
    offsets, flat, zeros = {}, [], [0] * len(facets)
    for k, facet in enumerate(facets):
        for pos, c in facet.functional.coefficients:
            at = offsets.get(pos)
            if at is None:
                at = offsets[pos] = len(flat)
                flat += zeros
            flat[at + k] = c
    return offsets, flat


class _FacetMatrix:
    """A window's boundary facets and their latest packing.

    A hyperplane's value on integer entries x is at most max|c| * sum |x|
    in size; W holds that bound's bits plus 2, so no field carries.  A
    reading past the width packs again, at least twice as wide.
    """

    __slots__ = ("facets", "_top", "_packing")

    def __init__(self, facets: tuple[BoundaryFacet, ...]):
        self.facets = facets
        self._top = 0  # max |c|, read off the signed matrix when it is packed
        self._packing = None

    def packing(self, total: int) -> Packing:
        """A packing that reads entries with sum |x| <= total exactly."""
        # at least one unit of entry, so that every coefficient fits its field
        total = max(total, 1)
        packing = self._packing
        if packing is not None and (self._top * total).bit_length() + 2 <= packing.width:
            return packing
        offsets, flat = _signed_columns(self.facets)
        self._top = top = max(map(abs, flat), default=0)
        bits = (top * total).bit_length() + 2
        if packing is not None:
            bits = max(bits, 2 * packing.width)
        packing = self._packing = Packing(offsets, flat, len(self.facets), -(-bits // 8))
        return packing


@lru_cache(maxsize=64)
def _facet_columns(w: Window) -> _FacetMatrix:
    """The window's facets and their packed coefficient columns, kept."""
    return _FacetMatrix(_boundary_facets_cached(w))


def verify_fan_convexity(w: Window) -> ConvexityReport:
    """Check that every boundary functional is >= 0 on every pure diagram.

    This is the extensional form of convexity of the fan: each facet of
    :func:`boundary_facets` is evaluated on each pure diagram of the
    window, no chain is enumerated, and ``facets_checked`` counts distinct
    integer coefficient vectors, so a positive multiple of a hyperplane is
    counted again (ROADMAP item 2).  Only signs matter, so they are read in integers,
    from each diagram's entries times the lcm of their denominators, every
    hyperplane at once from the window's packed matrix.  On failure the
    counterexample is the first negative pair, hyperplanes in order and
    then diagrams, with the exact ``Fraction`` value of the functional on
    the diagram, its one unpacked field.
    """
    matrix = _facet_columns(w)
    facets = matrix.facets
    diagrams = list(w.pure_diagrams())
    # a pure diagram's integer entries L / q_i are at most L each
    packing = matrix.packing((w.n + 1) * max(p._integer[0] for p in diagrams))
    bias = packing.bias
    # (hyperplane index, diagram, packed reading) of the first negative pair:
    # the earliest hyperplane that reads negative anywhere, then its earliest
    # diagram
    first = None
    for p in diagrams:
        acc = packing.read(p._integer_entries)
        if (acc & bias) != bias:
            k = packing.first_negative(acc)
            if first is None or k < first[0]:
                first = (k, p, acc)
    if first is None:
        return ConvexityReport(w, True, len(facets), len(diagrams), None)
    k, p, acc = first
    counterexample = (facets[k], p, Fraction(packing.field(acc, k), p._integer[0]))
    return ConvexityReport(w, False, len(facets), len(diagrams), counterexample)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    violated: BoundaryFacet | None = None
    value: Fraction | None = None

    def __bool__(self):
        return self.member


def membership_by_inequalities(b: BettiDiagram, w: Window) -> MembershipResult:
    """Decide cone membership by the boundary-facet inequalities.

    The diagram must be supported in the window and satisfy its ``s_min``
    Herzog-Kuhl equations.  Member exactly when every facet of
    :func:`boundary_facets`, one per distinct integer coefficient vector
    (no chain is enumerated), is nonnegative on it;
    otherwise the first violated facet in that order is the certificate,
    with its exact value.  All hyperplanes are read at once, in integers,
    on the diagram's integer form, from the window's packed matrix, packed
    wider first when the entries need it.
    """
    _check_in_subspace(b, w)
    matrix = _facet_columns(w)
    scale, entries = b._integer_form()
    packing = matrix.packing(sum(abs(x) for _, x in entries))
    acc = packing.read(entries)
    k = packing.first_negative(acc)
    if k is None:
        return MembershipResult(True)
    return MembershipResult(False, matrix.facets[k], Fraction(packing.field(acc, k), scale))


def derived_window(b: BettiDiagram) -> Window:
    """The natural window of a diagram: support rows, s_min = codimension."""
    M, N = window_of(b)
    s = min(codimension(b), b.n)
    return Window(b.n, M, N, s)
