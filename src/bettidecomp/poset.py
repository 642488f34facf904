"""The partial order on pure diagrams, maximal chains, and tableaux.

Pure diagrams are ordered by

    pi(d_0..d_s) <= pi(e_0..e_t)   iff   s >= t and d_i <= e_i for i <= t,

so going *up* means raising degrees and dropping codimension.  Inside a
bounded window ``M + i <= d_i <= N + i`` with codimension at least ``s_min``
the poset has a unique minimum ``pi(M, M+1, ..., M+n)`` and maximum
``pi(N, N+1, ..., N+s_min)``, and every maximal chain has

    (n + 1)(N - M) + n - s_min + 1

elements: each of the n + 1 degrees climbs N - M steps, and the codimension
drops n - s_min times.  There are

    F! / prod_{cells x} hook(x),   F = (n + 1)(N - M) + n - s_min,

maximal chains (Frame-Robinson-Thrall hook-length formula) for the Young
diagram of N - M rows of n + 1 cells over one row of n - s_min cells: the
display grid below, mirrored left to right, minus the s_min + 1 cells that
survive in the maximum.

The cover relation is one of two elementary moves:

  (a) raise a single degree d_i by one (staying strictly increasing and
      below the ceiling N + i), or
  (b) delete the last degree d_s, allowed exactly when d_s = N + s.

Walking up a maximal chain, each move permanently vacates one cell of the
(N - M + 1) x (n + 1) display grid.  Numbering the cells in vacating order
(survivors of the maximum last, bottom row right to left) yields a numbering
that increases to the left along rows and downwards along columns, and this
is a bijection between maximal chains and such numberings.  Counting the
chains therefore needs no walk; listing them does.  Refining a chain to a
maximal one takes a single greedy climb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Iterator

from .core import DegreeSequence, PureDiagram, _is_int, pure_diagram
from .errors import (
    ChainNotMaximal,
    InvalidTableau,
    InvariantViolated,
    NotAChain,
    WindowMismatch,
    WindowTooLarge,
)


@dataclass(frozen=True)
class Window:
    """Bounded region of pure diagrams: degrees M+i <= d_i <= N+i, codim >= s_min."""

    n: int
    M: int
    N: int
    s_min: int = 0

    def __post_init__(self):
        if not all(_is_int(v) for v in (self.n, self.M, self.N, self.s_min)):
            raise WindowMismatch(f"window bounds must be integers, got {self}")
        if self.n < 0:
            raise WindowMismatch("n must be >= 0")
        if self.M > self.N:
            raise WindowMismatch(f"need M <= N, got M={self.M}, N={self.N}")
        if not 0 <= self.s_min <= self.n:
            raise WindowMismatch(f"s_min={self.s_min} outside [0, {self.n}]")

    @property
    def rows(self) -> int:
        return self.N - self.M + 1

    @property
    def grid_size(self) -> int:
        return self.rows * (self.n + 1)

    def min_element(self) -> PureDiagram:
        return pure_diagram(range(self.M, self.M + self.n + 1), self.n)

    def max_element(self) -> PureDiagram:
        return pure_diagram(range(self.N, self.N + self.s_min + 1), self.n)

    def contains(self, p: PureDiagram) -> bool:
        if p.n != self.n or p.codimension < self.s_min:
            return False
        return all(self.M + i <= d <= self.N + i for i, d in enumerate(p.degrees))

    def pure_diagrams(self) -> Iterator[PureDiagram]:
        """All pure diagrams in the window, smallest codimension last.

        Deterministic order: codimension descending, then degrees
        lexicographically ascending.  The diagrams are built once per window
        and shared: every call yields the same frozen objects, whose
        ``betti`` and other cached properties are computed at most once.
        """
        return iter(_diagrams(self).values())


@lru_cache(maxsize=64)
def _diagrams(w: Window) -> dict[tuple[int, ...], PureDiagram]:
    """Every pure diagram of w by its degree tuple, in ``pure_diagrams`` order.

    The one table that the whole-window paths read; callers must not
    mutate it.
    """
    table = {}
    for s in range(w.n, w.s_min - 1, -1):
        for rows in combinations_with_replacement(range(w.M, w.N + 1), s + 1):
            d = tuple(r + i for i, r in enumerate(rows))
            table[d] = pure_diagram(d, w.n)
    return table


def _below(d: tuple, e: tuple) -> bool:
    """pi(d) <= pi(e) on degree sequences."""
    return len(d) >= len(e) and all(a <= b for a, b in zip(d, e))


def leq(p: PureDiagram, q: PureDiagram) -> bool:
    """Partial-order test; incomparable pairs fail in both directions."""
    return _below(p.degrees, q.degrees)


def _moves(d: tuple, w: Window):
    """All covers of pi(d) in w, as (new_degrees, vacated_cell) pairs.

    The only place that knows the cover rules: raise d_i by one while it
    stays below the ceiling N + i and below d_{i+1}, or drop the last degree
    once it sits on its ceiling and the codimension stays >= s_min.  The
    vacated cell is (row, column) on the display grid, row = j - i - M.  A
    drop's cell lies in the bottom row N - M, since the dropped degree sits
    on its ceiling; a raise's lies above it, since the raised degree is
    below its ceiling.  So the cell alone tells the two kinds apart.
    """
    out = []
    last = len(d) - 1
    for i, di in enumerate(d):
        if di < w.N + i and (i == last or di + 1 < d[i + 1]):
            out.append((d[:i] + (di + 1,) + d[i + 1:], (di - i - w.M, i)))
    if last > w.s_min and d[last] == w.N + last:
        out.append((d[:-1], (d[last] - last - w.M, last)))
    return out


def _cell(d: tuple, e: tuple, w: Window) -> tuple[int, int] | None:
    """The grid cell that the cover pi(d) -> pi(e) vacates, or None."""
    return next((cell for nd, cell in _moves(d, w) if nd == e), None)


def covers(p: PureDiagram, q: PureDiagram, w: Window) -> bool:
    """True when q is obtained from p by a single raise or ceiling drop."""
    for diag in (p, q):
        if not w.contains(diag):
            raise WindowMismatch(f"{diag!r} is not a valid diagram of {w}")
    return _cell(tuple(p.degrees), tuple(q.degrees), w) is not None


def chain_length(w: Window) -> int:
    """Number of elements in every maximal chain of the window."""
    return (w.n + 1) * (w.N - w.M) + w.n - w.s_min + 1


@dataclass(frozen=True)
class Chain:
    """Strictly increasing tuple of pure diagrams inside a window.

    The empty chain is allowed: it spans the zero cone, the one facet of the
    fan of a window holding a single pure diagram.
    """

    elements: tuple[PureDiagram, ...]
    window: Window

    def __post_init__(self):
        for p in self.elements:
            if not self.window.contains(p):
                raise WindowMismatch(f"{p!r} is not a valid diagram of {self.window}")
        for a, b in zip(self.elements, self.elements[1:]):
            if a == b or not leq(a, b):
                raise NotAChain(f"{a!r} and {b!r} are not strictly increasing")

    @classmethod
    def _of_moves(cls, elements, window, vacated):
        """A chain whose steps are moves of :func:`_moves`, built unchecked.

        Such steps stay in the window and go strictly up, so there is
        nothing to validate; ``vacated`` holds the cells of the moves.
        """
        chain = object.__new__(cls)
        # a frozen dataclass's fields and cached properties live in __dict__
        chain.__dict__.update(elements=elements, window=window, vacated=vacated)
        return chain

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def degree_sequences(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(p.degrees) for p in self.elements)

    @cached_property
    def vacated(self) -> tuple[tuple[int, int] | None, ...]:
        """Grid cell vacated by each step, or None where the step is not a cover."""
        w = self.window
        seqs = self.degree_sequences()
        return tuple(_cell(a, b, w) for a, b in zip(seqs, seqs[1:]))

    def is_maximal(self) -> bool:
        w = self.window
        return (
            len(self.elements) == chain_length(w)
            and self.elements[0] == w.min_element()
            and self.elements[-1] == w.max_element()
            and None not in self.vacated
        )


@dataclass(frozen=True)
class Tableau:
    """Numbering of the display grid, increasing to the left and downwards."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(map(tuple, self.rows))
        except TypeError:
            raise InvalidTableau("tableau must be a sequence of rows") from None
        object.__setattr__(self, "rows", rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise InvalidTableau("tableau must be rectangular and nonempty")
        size = len(rows) * len(rows[0])
        entries = [x for r in rows for x in r]
        if not all(map(_is_int, entries)) or sorted(entries) != list(range(1, size + 1)):
            raise InvalidTableau(f"entries must be the integers 1..{size}, each once")
        for r in rows:
            if any(r[c] <= r[c + 1] for c in range(len(r) - 1)):
                raise InvalidTableau("rows must increase to the left")
        for c in range(len(rows[0])):
            col = [r[c] for r in rows]
            if any(col[k] >= col[k + 1] for k in range(len(col) - 1)):
                raise InvalidTableau("columns must increase downwards")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def row_major(self) -> tuple[int, ...]:
        return tuple(x for r in self.rows for x in r)


def chain_from_tableau(t: Tableau, w: Window) -> Chain:
    """Rebuild the maximal chain whose k-th move vacates the cell numbered k.

    Inverse of :func:`tableau_from_chain`.  Raises ``InvalidTableau`` when
    the numbering does not describe a chain of the window: a wrong shape, or
    a step whose numbered cell no cover move vacates.  Once every step is a
    move, the chain ends at the window maximum and the row order of the
    tableau numbers the surviving cells right to left.
    """
    if t.shape != (w.rows, w.n + 1):
        raise InvalidTableau(f"tableau shape {t.shape} does not match window grid {(w.rows, w.n + 1)}")
    position = {}
    for r, row in enumerate(t.rows):
        for c, x in enumerate(row):
            position[x] = (r, c)
    cur = tuple(range(w.M, w.M + w.n + 1))
    seqs = [cur]
    cells = tuple(position[k] for k in range(1, chain_length(w)))
    for k, target in enumerate(cells, 1):
        cur = next((nd for nd, cell in _moves(cur, w) if cell == target), None)
        if cur is None:
            raise InvalidTableau(f"cell numbered {k} is not vacated at step {k}")
        seqs.append(cur)
    # one chain needs far fewer diagrams than the window's table holds
    return Chain._of_moves(tuple(pure_diagram(s, w.n) for s in seqs), w, cells)


def _row_major(cells, w: Window) -> tuple[int, ...]:
    """Row-major numbering of the grid of a maximal chain from its vacated cells.

    The survivors of the maximum are numbered last, bottom row right to left.
    """
    cols = w.n + 1
    flat = [0] * w.grid_size
    for k, (r, c) in enumerate(cells, 1):
        flat[r * cols + c] = k
    top = len(cells) + 1 + w.s_min
    for c in range(w.s_min + 1):
        flat[(w.rows - 1) * cols + c] = top - c
    return tuple(flat)


def tableau_from_chain(c: Chain) -> Tableau:
    """Number each grid cell by the chain step that vacates it."""
    if not c.is_maximal():
        raise ChainNotMaximal("tableau is defined for maximal chains only")
    w = c.window
    flat = _row_major(c.vacated, w)
    cols = w.n + 1
    return Tableau(tuple(flat[r * cols:(r + 1) * cols] for r in range(w.rows)))


def _walk(w: Window):
    """Lazily walk every maximal chain of w, depth first over :func:`_moves`.

    Yields the degree sequences and the vacated cells of each chain, in
    move order; :func:`_sorted_walk` sorts them into tableau order.  Each
    diagram's cover moves are derived once per walk, and not kept after it.
    """
    length = chain_length(w)
    seqs, cells = [None] * length, [None] * length
    pending = [iter(((tuple(range(w.M, w.M + w.n + 1)), None),))]
    moves_of = {}
    while pending:
        depth = len(pending) - 1
        move = next(pending[-1], None)
        if move is None:
            pending.pop()
            continue
        seqs[depth], cells[depth] = move
        if depth + 1 < length:
            d = move[0]
            out = moves_of.get(d)
            if out is None:
                out = moves_of[d] = _moves(d, w)
            pending.append(iter(out))
            continue
        yield tuple(seqs), tuple(cells[1:])


def _climb(w: Window, targets):
    """One maximal chain of w through a chain of targets, as _walk's (seqs, cells).

    From the window minimum, for each target and then the maximum, take the
    first move of :func:`_moves` still below it.  This never dead-ends: an
    element x strictly below a target t has a cover still below t (raise
    the largest index with x_i < t_i when the lengths agree, otherwise
    raise the last degree of x, or drop it on its ceiling).  The targets
    must form a chain in w; ``InvariantViolated`` if the climb is stuck.
    """
    cur = tuple(range(w.M, w.M + w.n + 1))
    seqs, cells = [cur], []
    for t in (*targets, tuple(w.max_element().degrees)):
        while cur != t:
            cur, cell = next((m for m in _moves(cur, w) if _below(m[0], t)), (None, None))
            if cur is None:
                raise InvariantViolated(f"no cover of {seqs[-1]} in {w} lies below {t}")
            seqs.append(cur)
            cells.append(cell)
    return tuple(seqs), tuple(cells)


def count_maximal_chains(w: Window) -> int:
    """Number of maximal chains by the hook-length formula; walks no chain."""
    shape = [w.n + 1] * (w.N - w.M)
    if w.n > w.s_min:
        shape.append(w.n - w.s_min)
    heights = [sum(1 for length in shape if length > c) for c in range(w.n + 1)]
    hooks = math.prod(
        length - c + heights[c] - r - 1 for r, length in enumerate(shape) for c in range(length)
    )
    return math.factorial(sum(shape)) // hooks


def _sorted_walk(w: Window, limit: int | None = None):
    """Every maximal chain of w as _walk's (seqs, cells), in tableau order.

    A generator: when the window has more than ``limit`` chains, the first
    ``next()`` raises ``WindowTooLarge`` with the count before any move is
    walked.  :func:`maximal_chains` wraps it; callers that need only the
    degree sequences read it directly and build no ``Chain``.
    """
    if limit is not None:
        if not _is_int(limit):
            raise ValueError(f"limit must be an integer, got {limit!r}")
        count = count_maximal_chains(w)
        if count > limit:
            raise WindowTooLarge(f"window has {count} maximal chains, more than {limit}")
    yield from sorted(_walk(w), key=lambda item: _row_major(item[1], w))


def maximal_chains(w: Window, limit: int | None = None) -> Iterator[Chain]:
    """Enumerate every maximal chain once, ordered by row-major tableau.

    The order is part of the contract: chains are sorted by the row-major
    reading of their tableau numbering, lexicographically.  When the window
    has more than ``limit`` chains, the first ``next()`` raises
    ``WindowTooLarge`` with the count before any move is walked.

    Every step of a walked chain is a legal cover move, so the chains are
    not re-validated; their elements are the shared diagrams of
    :meth:`Window.pure_diagrams`, and their vacated cells come from the walk.
    """
    table = None
    for seqs, cells in _sorted_walk(w, limit):
        table = table or _diagrams(w)  # once, and only past the limit check
        yield Chain._of_moves(tuple(map(table.__getitem__, seqs)), w, cells)
