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
that sum over L.  ``Functional.__call__`` returns that ``Fraction``;
``verify_decomposition`` reads the coefficient rule on b's integer entries.

A functional stores its coefficients as one flat row-major integer grid
of the window, cell ``(j - i - M) * (n + 1) + i`` for ``beta[i, j]``.  A
window's hyperplanes are built once, as records holding that grid, and
kept in one cache per window (:func:`_facet_columns`); a build takes the
grid of a triple that a live window differing only in s_min already holds
from that window's records.  Every reader reads the cache: the CLI
``facets`` listing writes its rows, the packed columns below are its
transpose, and a facet handed out stores its record's grid.

:func:`verify_fan_convexity` and :func:`membership_by_inequalities` read
every hyperplane of the window at once, packed one field per hyperplane
into one ``int`` per grid cell (:mod:`.packing`), and build one
``Fraction``, the field they report over L.  The window keeps one packing,
the one membership reads, packed again wider when a diagram needs more
bits; the fan check packs its own on each call and keeps none.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul, neg

from .core import (
    BettiDiagram,
    PureDiagram,
    _integer_step,
    _need,
    codimension,
    hk_residuals,
    pure_diagram,
    window_of,
)
from .errors import (
    ChainNotMaximal,
    InvalidDiagram,
    InvariantViolated,
    NotAChain,
    NotACoverTriple,
    NotInSubspace,
    UndefinedOnZero,
    WindowMismatch,
)
from .packing import Packing
from .poset import Chain, Window, _cell, _diagrams, _layer, _moves, chain_length


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
    """Integer linear functional beta -> sum c[i, j] * beta[i, j] on a window.

    ``cells`` is its one stored form: the window's flat row-major grid, cell
    ``(j - i - M) * (n + 1) + i`` holding c[i, j], as a hyperplane record
    holds it.  A position off the grid reads 0.
    """

    window: Window
    cells: tuple[int, ...]
    case: FunctionalCase
    anchor: tuple[PureDiagram | None, PureDiagram, PureDiagram | None]

    def __post_init__(self):
        w, cells = self.window, self.cells
        if not (isinstance(w, Window) and type(cells) is tuple and len(cells) == w.grid_size
                and all(type(c) is int for c in cells)):
            raise WindowMismatch(f"cells must be a tuple of one int per grid cell of {w}")

    @property
    def coefficients(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """The nonzero cells as ((i, j), c), in (i, j) order."""
        cols, M, cells = self.window.n + 1, self.window.M, self.cells
        return tuple(
            ((i, M + i + r), c)
            for i in range(cols)
            for r, c in enumerate(cells[i::cols])
            if c
        )

    def coefficient(self, i: int, j: int) -> int:
        w = self.window
        r = j - i - w.M
        return self.cells[r * (w.n + 1) + i] if 0 <= i <= w.n and 0 <= r < w.rows else 0

    def grid(self) -> list[list[int]]:
        """Dense display grid, row = j - i - M, column = i."""
        return _rows(self.cells, self.window.n + 1)

    def __call__(self, b: BettiDiagram) -> Fraction:
        scale, entries = b._integer
        coefficient = self.coefficient
        return Fraction(sum(coefficient(i, j) * x for (i, j), x in entries), scale)


def _rows(cells, cols: int) -> list[list[int]]:
    """A flat row-major grid of ``cols`` columns as a list of row lists:
    one iterator zipped ``cols`` times reads it a row at a time."""
    return list(map(list, zip(*[iter(cells)] * cols)))


def _step(down: PureDiagram, up: PureDiagram, w: Window) -> tuple[int, int]:
    """The grid cell that the cover move down -> up vacates."""
    cell = _cell(tuple(down.degrees), tuple(up.degrees), w)
    if cell is None:
        raise NotACoverTriple(f"{down!r} -> {up!r} is not a cover move in {w}")
    return cell


def _read(rule, entries, M: int) -> int:
    """sum c * x over integer entries ((i, j), x), each position once, for
    a :func:`_rule`; on an integer form (L, entries) the functional's value
    is this over L."""
    case, a, b = rule
    if case is FunctionalCase.ENTRY:
        return b * next((x for pos, x in entries if pos == a), 0)
    total, cols = 0, len(b)
    for (i, j), x in entries:
        if i < cols and M + i <= j <= b[i]:
            total += -a[j - M] * x if i & 1 else a[j - M] * x
    return total


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
    return Functional(w, *_coefficients(p0, p1, down, up, w), (p0, p1, p2))


# the shape tag by (down is a raise, up is a raise)
_CASES = {
    (False, True): FunctionalCase.FIRST,
    (True, False): FunctionalCase.SECOND,
    (True, True): FunctionalCase.THIRD,
    (False, False): FunctionalCase.FOURTH,
}


def _rule(d0, p1: PureDiagram, down, up, w: Window):
    """p1's dual functional from p0's degrees d0 and the cells ``down``
    (p0 -> p1) and ``up`` (p1 -> p2) vacate, None at a sentinel (a cell in
    row N - M is a drop): ``(ENTRY, pos, c)``, c * beta[pos], or ``(case,
    values, limits)``, column i holding (-1)^i values[deg - M] for
    M + i <= deg <= limits[i].  :func:`_coefficients` builds it; :func:`_read`
    sums it over integer entries, b's in ``verify_decomposition``."""
    d = p1.degrees
    m = len(d) - 1
    if down is None:
        col = 0 if up is None else up[1]
    else:
        col, U = down[1], m if up is None else up[1]
        if col != U and (up is not None or col > m):
            bottom = w.N - w.M
            case = _CASES[down[0] < bottom, up is not None and up[0] < bottom]
            # p0's degrees, and the ceiling N + i above its codimension: d0
            # ends below N + len(d0), so the limits strictly increase
            limits = [*d0, *range(w.N + len(d0), w.N + w.n + 1)]
            M, top = w.M, limits[-1]
            # prefactor * prod_j (d_j - deg) for deg in [M, top], one pass per
            # factor: the product does not depend on the column
            values = [1 if col == m + 1 else d[col] - d[U]] * (top - M + 1)
            for j in range(m + 1):
                if j != col and j != U:
                    values = list(map(mul, values, range(d[j] - M, d[j] - top - 1, -1)))
            return case, values, limits
    # one scaled Betti number: entry x / L of p1's integer form (L, entries)
    # is the unit fraction 1 / (L / x) exactly when x > 0 divides L; a pure
    # diagram's form holds column i's entry at index i, any other position
    # reads 0
    pos = (col, d[col])
    scale, entries = p1._integer
    at, x = entries[col]
    if at != pos:
        x = 0
    if x <= 0 or scale % x:
        raise InvariantViolated(f"entry {pos} of {p1!r} is {Fraction(x, scale)}, not a unit fraction")
    return FunctionalCase.ENTRY, pos, scale // x


def _coefficients(p0, p1: PureDiagram, down, up, w: Window):
    """(cells, case) of p1's dual functional from :func:`_rule`: its
    coefficients on the window's flat row-major grid, cell (j - i - M) *
    (n + 1) + i holding c[i, j]; a formula must read 1 on p1."""
    rule = case, a, b = _rule(None if p0 is None else p0.degrees, p1, down, up, w)
    M, cols = w.M, w.n + 1
    cells = [0] * ((w.N - M + 1) * cols)
    if case is FunctionalCase.ENTRY:
        i, j = a
        cells[(j - i - M) * cols + i] = b
        return tuple(cells), case
    scale, entries = p1._integer
    total = _read(rule, entries, M)
    if total != scale:
        raise InvariantViolated(f"{case.value} formula is {Fraction(total, scale)} on {p1!r}, not 1")
    # column i holds (-1)^i values[deg - M] for M + i <= deg <= limit_i, in
    # rows 0 .. limit_i - M - i: one strided store per column
    for i, limit in enumerate(b):
        count = limit - M - i + 1
        column = a[i:i + count]
        cells[i:i + count * cols:cols] = map(neg, column) if i & 1 else column
    return tuple(cells), case


def _check_in_subspace(b: BettiDiagram, w: Window) -> None:
    """Raise ``WindowMismatch`` unless b lives in w's rows, ``NotInSubspace``
    unless it satisfies w's s_min Herzog-Kuhl equations.

    Both read facts kept on b: its window, and its codimension, the number
    of leading Herzog-Kuhl equations it satisfies.  The support is scanned
    only to name the first entry outside the rows, the residuals computed
    only for the error.  The zero diagram, and a diagram whose numerator
    polynomial is zero, satisfy every equation.
    """
    if b.n != w.n:
        raise WindowMismatch(f"diagram has n={b.n}, window has n={w.n}")
    if b.is_zero:
        return
    M, N = window_of(b)
    if M < w.M or N > w.N:
        i, j = next((i, j) for i, j in b.support() if not w.M <= j - i <= w.N)
        raise WindowMismatch(f"entry at ({i}, {j}) lies outside rows [{w.M}, {w.N}]")
    try:
        short = w.s_min > 0 and codimension(b) < w.s_min
    except UndefinedOnZero:  # a zero numerator
        return
    if short:
        raise NotInSubspace(
            f"diagram violates the first {w.s_min} Herzog-Kuhl equations", hk_residuals(b, w.s_min)
        )


def expand_in_chain(b: BettiDiagram, c: Chain) -> list[Fraction]:
    """Coordinates of a diagram in the basis given by a maximal chain.

    The diagram must lie in the window's rows and satisfy its ``s_min``
    Herzog-Kuhl equations (``WindowMismatch``, ``NotInSubspace``), checked
    only on a nonzero residual: a zero one proves both.  Coordinates may be
    negative.  Triangular back-substitution along the chain's vacating order;
    :func:`coefficient_functional` is an independent route for cross-checks.
    """
    _need(c, Chain, NotAChain)
    _need(b, BettiDiagram, InvalidDiagram)
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
    scale, entries = b._integer
    residual = dict(entries)
    for element, i in zip(c.elements, columns):
        lam, residual, scale = _integer_step(residual, scale, element, i)
        coords.append(lam)
    if residual:
        _check_in_subspace(b, w)
        raise InvariantViolated(f"a maximal chain of {w} is not a basis of its subspace")
    return coords


def _middles(a: PureDiagram, c: PureDiagram, w: Window) -> list[PureDiagram]:
    """Elements x with a covered-by x covered-by c, read off a's moves."""
    target = tuple(c.degrees)
    return [pure_diagram(nd, w.n) for nd, _ in _moves(tuple(a.degrees), w) if _cell(nd, target, w) is not None]


def classify_facet(c: Chain) -> FacetKind:
    """Classify a maximal chain with one element removed.

    Interior exactly when the missing element can be chosen in two or more
    ways.  The boundary configurations are: the removed element was extremal
    (kind i); the neighbours differ by two steps in one single column,
    including a last-column raise to the ceiling followed by the drop of
    that column (kind ii); two raises in adjacent columns crossing
    consecutive degrees (kind iii); a double codimension drop (kind iv).
    """
    _need(c, Chain, NotAChain)
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


def _records(w: Window) -> tuple[tuple, ...]:
    """One record (cells, kind, case, anchor) per hyperplane, in
    :func:`boundary_facets` order; cells is the flat grid of
    :func:`_coefficients`.  Built once per window, by :func:`_facet_columns`.

    A diagram has at most one cover move per column: a raise, or the drop
    of its last degree.  Let p0 -> p1 vacate (r, c).  A boundary triple's
    second move vacates a cell edge-adjacent to (r, c) (:func:`_triple_kind`
    is the rule), and only two are reachable: (r + 1, c), by p1's move in
    column c, whatever it is (kind ii), and (r, c - 1), by p1's move in
    column c - 1 from row r (kind iii, kind iv in the bottom row).  Above
    (r, c) lies a cell already vacated, and (r, c + 1) is vacated before
    (r, c) in every chain.  So each move into p1 reads p1's moves in columns
    c - 1 and c, in move order, and no interior triple is visited.

    A triple's (cells, case) reads only n, M, N and the triple's degrees,
    so it is taken from the records of a live sibling, a window of
    :func:`_facet_columns` that differs from w only in s_min, when one
    holds the triple, and computed otherwise.
    """
    # (cells, case) by the degrees of (p0, p1, p2), None at a sentinel, as
    # the live siblings' records hold them
    known = {}
    for s in range(w.n + 1):
        sibling = _live_layers.get((w.n, w.M, w.N, s))
        if sibling is not None:
            for cells, _, case, (p0, p1, p2) in sibling.records:
                key = None if p0 is None else p0.degrees, p1.degrees, None if p2 is None else p2.degrees
                known[key] = cells, case
    records = {}
    # the diagrams by rank, in the order of w's layer
    diagrams = _diagrams(w)
    layer = _layer(w)
    # read as lists, which index faster than arrays
    start, target, at = layer.start.tolist(), layer.target.tolist(), layer.at.tolist()
    cell_of = layer.cells
    cols = w.n + 1

    # None stands below min and above max: the extremal triples are
    # (None, min, p1), (p0, max, None) and, when min == max, (None, min, None)
    def keep(p0, p1, p2, down, up, kind):
        if known:
            found = known.get((None if p0 is None else p0.degrees, p1.degrees, None if p2 is None else p2.degrees))
        else:
            found = None
        cells, case = _coefficients(p0, p1, down, up, w) if found is None else found
        records.setdefault(cells, (cells, kind, case, (p0, p1, p2)))

    bottom = w.N - w.M
    # the window minimum and maximum are the first and the last rank
    hi = len(diagrams) - 1
    if hi == 0:
        keep(None, diagrams[0], None, None, None, FacetKind.EXTREMAL)
    for k0, p0 in enumerate(diagrams):
        for j in range(start[k0], start[k0 + 1]):
            k1, a = target[j], at[j]
            p1, down = diagrams[k1], cell_of[a]
            if k0 == 0:
                keep(None, p0, p1, None, down, FacetKind.EXTREMAL)
            if k1 == hi:
                keep(p0, p1, None, down, None, FacetKind.EXTREMAL)
            # p1's moves come in column order, so the one into column
            # c - 1 from row r, at index a - 1, before the one in column c
            # from row r + 1, at index a + cols
            r, c = down
            for i in range(start[k1], start[k1 + 1]):
                b = at[i]
                if b == a - 1 and c:
                    kind = FacetKind.CODIMENSION_TWICE if r == bottom else FacetKind.ADJACENT_COLUMNS
                    keep(p0, p1, diagrams[target[i]], down, cell_of[b], kind)
                elif b == a + cols:
                    keep(p0, p1, diagrams[target[i]], down, cell_of[b], FacetKind.SAME_COLUMN_TWICE)
    return tuple(records.values())


def boundary_facets(w: Window) -> list[BoundaryFacet]:
    """One boundary facet per distinct integer coefficient vector of the
    boundary hyperplanes of the fan of the window.

    Positive multiples of one hyperplane are separate facets: (1,0,2,0)
    lists 10 for 8 hyperplanes (ROADMAP item "List each facet hyperplane
    once").  Read off the cover triples with a unique middle, without
    enumerating chains.  Order is deterministic: p0 over
    ``w.pure_diagrams()``, then its covers p1 (the extremal triples of p1
    first), then the covers p2 of p1; the first triple of each coefficient
    vector supplies ``removed`` and ``kind``.  Each facet is built from its
    window's record on first request and kept: membership certificates and
    fan counterexamples are these objects.
    """
    _need(w, Window, WindowMismatch)
    return list(_facet_columns(w).facets)


@dataclass(frozen=True)
class ConvexityReport:
    window: Window
    passed: bool
    facets_checked: int
    diagrams_checked: int
    counterexample: tuple[BoundaryFacet, PureDiagram, Fraction] | None


class _FacetMatrix:
    """A window's hyperplane records, the one packing of their columns that
    :meth:`packing` hands out, and each facet built when :meth:`facet`
    first hands it out.

    A hyperplane's value on integer entries x is at most max|c| * sum |x|
    in size; W holds that bound's bits plus 2, so no field carries.  Only
    the packing that :meth:`packing` returns is kept; a reading past its
    width packs again, at least twice as wide.  :func:`verify_fan_convexity`
    packs the width of the window's pure diagrams on each call and keeps
    none, so a membership call on a large diagram never slows a check of
    the fan.
    """

    __slots__ = ("window", "records", "_built", "_top", "_kept", "__weakref__")

    def __init__(self, window: Window, records: tuple[tuple, ...]):
        self.window, self.records = window, records
        self._built = {}
        self._top = 0  # max |c|, read off the signed matrix when it is packed
        self._kept = None

    def facet(self, k: int) -> BoundaryFacet:
        """The facet of record k, built once."""
        facet = self._built.get(k)
        if facet is None:
            cells, kind, case, anchor = self.records[k]
            functional = Functional(self.window, cells, case, anchor)
            facet = self._built[k] = BoundaryFacet(anchor[1], kind, functional)
        return facet

    @property
    def facets(self) -> tuple[BoundaryFacet, ...]:
        return tuple(map(self.facet, range(len(self.records))))

    def packing(self, total: int) -> Packing:
        """The kept packing, packed again when it cannot read entries with
        sum |x| <= total exactly; at least one unit of entry, so that every
        coefficient fits its field."""
        kept = self._kept
        if kept is None or (self._top * max(total, 1)).bit_length() + 2 > kept.width:
            kept = self._kept = self.pack(total, 2 * kept.width if kept is not None else 0)
        return kept

    def pack(self, total: int, min_bits: int = 0) -> Packing:
        """A new packing, at least ``min_bits`` wide, that reads entries with
        sum |x| <= total exactly.  Hyperplane k's coefficient at pos is
        ``flat[offsets[pos] + k]``, for every position some hyperplane
        reads: the transpose of the records' grids, all-zero cells dropped."""
        cols, M = self.window.n + 1, self.window.M
        offsets, flat = {}, []
        for cell, column in enumerate(zip(*[record[0] for record in self.records])):
            if any(column):
                r, i = divmod(cell, cols)
                offsets[i, M + i + r] = len(flat)
                flat += column
        self._top = top = max(map(abs, flat), default=0)
        bits = max(min_bits, (top * max(total, 1)).bit_length() + 2)
        return Packing(offsets, flat, len(self.records), -(-bits // 8))


# every layer :func:`_facet_columns` has built and something still holds,
# by (n, M, N, s_min), held weakly: a build reads its live siblings'
# records and keeps none of them alive
_live_layers = weakref.WeakValueDictionary()


@lru_cache(maxsize=64)
def _facet_columns(w: Window) -> _FacetMatrix:
    """The window's hyperplane layer, kept: its records, built once, and
    the packing membership reads.  The one cache of the layer."""
    matrix = _live_layers[w.n, w.M, w.N, w.s_min] = _FacetMatrix(w, _records(w))
    return matrix


def verify_fan_convexity(w: Window) -> ConvexityReport:
    """Check that every boundary functional is >= 0 on every pure diagram.

    This is the extensional form of convexity of the fan: each facet of
    :func:`boundary_facets` is evaluated on each pure diagram of the
    window, no chain is enumerated, and ``facets_checked`` counts distinct
    integer coefficient vectors, so a positive multiple of a hyperplane is
    counted again (ROADMAP item "List each facet hyperplane once").  Only
    signs matter, so they are read in integers, from each diagram's entries
    times the lcm of their denominators, every hyperplane at once from the
    window's packed matrix.  On failure the counterexample is the first
    negative pair, hyperplanes in order and then diagrams, with the exact
    ``Fraction`` value of the functional on the diagram, its one unpacked
    field.
    """
    _need(w, Window, WindowMismatch)
    matrix = _facet_columns(w)
    size = len(matrix.records)
    diagrams = _diagrams(w)
    # a pure diagram's integer entries L / q_i are at most L each
    packing = matrix.pack((w.n + 1) * max(p._integer[0] for p in diagrams))
    bias = packing.bias
    # (hyperplane index, diagram, packed reading) of the first negative pair:
    # the earliest hyperplane that reads negative anywhere, then its earliest
    # diagram
    first = None
    for p in diagrams:
        acc = packing.read(p._integer[1])
        if (acc & bias) != bias:
            k = packing.first_negative(acc)
            if first is None or k < first[0]:
                first = (k, p, acc)
    if first is None:
        return ConvexityReport(w, True, size, len(diagrams), None)
    k, p, acc = first
    counterexample = (matrix.facet(k), p, Fraction(packing.field(acc, k), p._integer[0]))
    return ConvexityReport(w, False, size, len(diagrams), counterexample)


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
    _need(w, Window, WindowMismatch)
    _need(b, BettiDiagram, InvalidDiagram)
    _check_in_subspace(b, w)
    matrix = _facet_columns(w)
    scale, entries = b._integer
    packing = matrix.packing(sum(abs(x) for _, x in entries))
    acc = packing.read(entries)
    k = packing.first_negative(acc)
    if k is None:
        return MembershipResult(True)
    return MembershipResult(False, matrix.facet(k), Fraction(packing.field(acc, k), scale))


def derived_window(b: BettiDiagram) -> Window:
    """The natural window of a diagram: support rows, s_min = codimension,
    or n when the numerator polynomial vanishes (it satisfies every
    Herzog-Kuhl equation, and no nonzero cone member has one)."""
    _need(b, BettiDiagram, InvalidDiagram)
    M, N = window_of(b)
    try:
        s_min = min(codimension(b), b.n)
    except UndefinedOnZero:
        s_min = b.n
    return Window._of(b.n, M, N, s_min)
