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

The chain walk, the facet build and the CLI listing read a window through
one integer-indexed layer (:class:`_Layer`): its diagrams numbered 0 ... D-1
in ``pure_diagrams`` order, and each one's cover moves as target ranks and
vacated-cell indices in ``array``s, derived once per window by
:func:`_moves`.  No whole-window path hashes a degree tuple per move.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, repeat
from operator import add, itemgetter, le
from typing import Iterator

from .core import DegreeSequence, PureDiagram, _is_int, _need, _pure_diagram_of, pure_diagram
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

    @classmethod
    def _of(cls, n: int, M: int, N: int, s_min: int) -> "Window":
        """Trusted constructor: int bounds with n >= 0, M <= N and
        0 <= s_min <= n, read off a library diagram; stored unchecked."""
        w = object.__new__(cls)
        # a frozen dataclass's fields live in __dict__
        w.__dict__.update(n=n, M=M, N=N, s_min=s_min)
        return w

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
        ``WindowTooLarge`` past ``_MAX_DIAGRAMS`` diagrams (:func:`_diagrams`).
        """
        return iter(_diagrams(self).values())


# the most pure diagrams a window's table is built for: (6,0,5,0) has
# 1,715 and (5,0,12,1) 27,118
_MAX_DIAGRAMS = 10**5


def _diagram_count(w: Window) -> int:
    """The number of pure diagrams of w, built from none: codimension s
    places s + 1 degrees on R = N - M + 1 rows, C(R + s, s + 1) ways."""
    rows = w.N - w.M + 1
    return sum(math.comb(rows + s, s + 1) for s in range(w.s_min, w.n + 1))


@lru_cache(maxsize=64)
def _window_seqs(w: Window) -> tuple[tuple[int, ...], ...]:
    """Every degree tuple of w in ``pure_diagrams`` order: codimension
    descending, then lexicographically ascending.  Kept per window, so the
    keys of :func:`_diagrams` and the ranks of :func:`_window_layer` are
    the same tuples; callers count the window first."""
    seqs = []
    for s in range(w.n, w.s_min - 1, -1):
        for rows in combinations_with_replacement(range(w.M, w.N + 1), s + 1):
            seqs.append(tuple(map(add, rows, range(s + 1))))
    return tuple(seqs)


@lru_cache(maxsize=64)
def _diagrams(w: Window) -> dict[tuple[int, ...], PureDiagram]:
    """Every pure diagram of w by its degree tuple, in ``pure_diagrams`` order.

    Callers must not mutate it.  Its keys are :func:`_window_seqs`, the
    degree tuples that w's :func:`_window_layer` ranks.  Its diagrams are
    :func:`pure_diagram`'s shared ones, entered through the trusted
    ``core._pure_diagram_of``: the sequences are int tuples, strictly
    increasing and of length at most n + 1.  A window of more than
    ``_MAX_DIAGRAMS`` diagrams is refused with ``WindowTooLarge``, counted
    before any is built.
    """
    count = _diagram_count(w)
    if count > _MAX_DIAGRAMS:
        raise WindowTooLarge(f"window has {_count_of(count)} pure diagrams, more than {_MAX_DIAGRAMS}")
    n = w.n
    return {d: _pure_diagram_of(d, n) for d in _window_seqs(w)}


def _below(d: tuple, e: tuple) -> bool:
    """pi(d) <= pi(e) on degree sequences."""
    return len(d) >= len(e) and all(map(le, d, e))


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
    N, M = w.N, w.M
    # each raise writes its degree into one list copy of d, and back
    e = list(d)
    for i, di in enumerate(d):
        if di < N + i and (i == last or di + 1 < d[i + 1]):
            e[i] = di + 1
            out.append((tuple(e), (di - i - M, i)))
            e[i] = di
    if last > w.s_min and d[last] == N + last:
        out.append((d[:-1], (d[last] - last - M, last)))
    return out


class _Layer:
    """A window's pure diagrams by rank and their cover moves in arrays.

    ``seqs`` maps rank to degree tuple, in ``pure_diagrams`` order, so the
    window minimum is rank 0 and the maximum the last.  The moves of rank k
    are ``start[k]`` up to ``start[k + 1]``: move j goes to rank
    ``target[j]`` and vacates the display-grid cell of row-major index
    ``at[j]``, in :func:`_moves` order; ``cells`` reads an index as its
    (row, column).  The three are ``array``s of C ints, so the layer holds
    no Python object per move.  Every move is derived when the layer is
    built, and the layer is never changed after, so threads may share it.
    Callers must not mutate it.
    """

    __slots__ = ("window", "seqs", "start", "target", "at", "cells")

    def __init__(self, w: Window, seqs: tuple[tuple[int, ...], ...]):
        rank = {d: k for k, d in enumerate(seqs)}
        cols = w.n + 1
        # gathered in lists, which append faster than arrays
        ends, targets, cells = [0], [], []
        for d in seqs:
            for nd, (r, c) in _moves(d, w):
                targets.append(rank[nd])
                cells.append(r * cols + c)
            ends.append(len(targets))
        self.window, self.seqs = w, seqs
        self.start, self.target, self.at = array("i", ends), array("i", targets), array("i", cells)
        self.cells = [divmod(a, cols) for a in range(w.grid_size)]


@lru_cache(maxsize=64)
def _window_layer(w: Window) -> _Layer:
    """The kept layer of a window of at most ``_MAX_DIAGRAMS`` diagrams,
    built complete.  Read it through :func:`_layer`."""
    return _Layer(w, _window_seqs(w))


def _layer(w: Window) -> _Layer:
    """w's layer, as the chain walk and the facet build read it: the kept
    :func:`_window_layer`, or past ``_MAX_DIAGRAMS`` diagrams, counted
    without building any, a new layer over the same order that the caller
    alone holds."""
    if _diagram_count(w) <= _MAX_DIAGRAMS:
        return _window_layer(w)
    return _Layer(w, _window_seqs.__wrapped__(w))


def _cell(d: tuple, e: tuple, w: Window) -> tuple[int, int] | None:
    """The grid cell that the cover pi(d) -> pi(e) vacates, or None.

    Reads the one step directly, in O(s), by the rules of :func:`_moves`:
    e is d with its last degree dropped, or d raised by one at the first
    index where the two differ.  Tier-1 checks it against the ``_moves``
    scan on every pair of diagrams of the small windows.
    """
    last = len(d) - 1
    if len(e) == last:
        if last > w.s_min and d[last] == w.N + last and d[:-1] == e:
            return (w.N - w.M, last)
        return None
    if len(e) != last + 1 or d == e:
        return None
    i = 0
    while d[i] == e[i]:
        i += 1
    di = d[i]
    if e[i] == di + 1 and di < w.N + i and (i == last or di + 1 < d[i + 1]) and d[i + 1:] == e[i + 1:]:
        return (di - i - w.M, i)
    return None


def covers(p: PureDiagram, q: PureDiagram, w: Window) -> bool:
    """True when q is obtained from p by a single raise or ceiling drop."""
    _need(w, Window, WindowMismatch)
    for diag in (p, q):
        if not isinstance(diag, PureDiagram) or not w.contains(diag):
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

    ``vacated`` holds the grid cell each step vacates, or None where a step
    is not a cover.  Validation reads each step once.  A cover step from a
    diagram of the window stays in the window and goes strictly up, so a
    chain whose first element lies in the window and whose every step has a
    cell (:func:`_cell`) is valid.  Any other chain is checked element by
    element, then pair by pair: ``WindowMismatch`` for an element outside
    the window comes before ``NotAChain``.
    """

    elements: tuple[PureDiagram, ...]
    window: Window
    vacated: tuple[tuple[int, int] | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = self.window
        if not isinstance(w, Window):
            raise WindowMismatch(f"chain window must be a Window, got {w!r}")
        try:
            elements = tuple(self.elements)
        except TypeError:
            raise NotAChain(f"chain elements must be a sequence of pure diagrams, got {self.elements!r}") from None
        object.__setattr__(self, "elements", elements)
        n = w.n
        # the degrees of every element, when each is a pure diagram of w's n
        seqs = [p.degrees for p in elements if isinstance(p, PureDiagram) and p.n == n]
        if len(seqs) == len(elements) and (not seqs or w.contains(elements[0])):
            vacated = tuple(map(_cell, seqs, seqs[1:], repeat(w)))
            object.__setattr__(self, "vacated", vacated)
            if None not in vacated:
                return
        # a valid chain gets here only with a step that is not a cover, so
        # with its vacated already set
        for p in elements:
            if not isinstance(p, PureDiagram):
                raise WindowMismatch(f"chain element {p!r} is not a pure diagram")
            if not w.contains(p):
                raise WindowMismatch(f"{p!r} is not a valid diagram of {w}")
        for a, b in zip(elements, elements[1:]):
            if a == b or not leq(a, b):
                raise NotAChain(f"{a!r} and {b!r} are not strictly increasing")

    @classmethod
    def _of_moves(cls, elements, window, vacated):
        """A chain whose steps are moves of :func:`_moves`, built unchecked.

        Such steps stay in the window and go strictly up, so there is
        nothing to validate; ``vacated`` holds the cells of the moves.
        """
        chain = object.__new__(cls)
        # a frozen dataclass's fields live in __dict__
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

    def is_maximal(self) -> bool:
        # the elements are diagrams of w's n: the ends compare by degrees
        w, elements = self.window, self.elements
        return (
            len(elements) == chain_length(w)
            and elements[0].degrees == tuple(range(w.M, w.M + w.n + 1))
            and elements[-1].degrees == tuple(range(w.N, w.N + w.s_min + 1))
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
    _need(w, Window, WindowMismatch)
    _need(t, Tableau, InvalidTableau)
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


def _survivors(w: Window) -> list[int]:
    """The row-major grid of w numbered at the survivors of the maximum only.

    They are numbered after every step of a maximal chain, bottom row right
    to left; every other cell holds 0 until a step vacates it.
    """
    flat = [0] * w.grid_size
    top = chain_length(w) + w.s_min
    for c in range(w.s_min + 1):
        flat[(w.rows - 1) * (w.n + 1) + c] = top - c
    return flat


def _row_major(cells, w: Window) -> tuple[int, ...]:
    """Row-major numbering of the grid of a maximal chain from its vacated cells."""
    cols = w.n + 1
    flat = _survivors(w)
    for k, (r, c) in enumerate(cells, 1):
        flat[r * cols + c] = k
    return tuple(flat)


def tableau_from_chain(c: Chain) -> Tableau:
    """Number each grid cell by the chain step that vacates it."""
    _need(c, Chain, NotAChain)
    if not c.is_maximal():
        raise ChainNotMaximal("tableau is defined for maximal chains only")
    w = c.window
    flat = _row_major(c.vacated, w)
    cols = w.n + 1
    return Tableau(tuple(flat[r * cols:(r + 1) * cols] for r in range(w.rows)))


def _walk_ranks(layer: _Layer):
    """Lazily walk every maximal chain of the layer's window, depth first
    over its moves.

    Yields the ranks of each chain, in move order, and its row-major
    tableau numbering, the key by which :func:`_sorted_walk` sorts them and
    from which :func:`_vacated` reads its cells.  The walk reads ranks and
    the layer's moves only, starting from rank 0, the window minimum.  The
    numbering is kept in place: the survivors are numbered once, and each
    move stores its step number at its cell's row-major index.  Every chain
    vacates every other cell, so no number of an earlier chain is left
    over.  A rank with a single move is left by it within the same step;
    only a rank with a choice of moves gets a stack entry, which carries
    its depth.
    """
    w = layer.window
    length = chain_length(w)
    flat = _survivors(w)
    if length == 1:
        # a window of one diagram: one chain, no move
        yield (0,), tuple(flat)
        return
    # read as lists, which index faster than arrays
    start, target, at = layer.start.tolist(), layer.target.tolist(), layer.at.tolist()
    ranks = [0] * length
    # (k, the moves out of element k - 1 not yet taken) per rank of the
    # current chain that has a choice
    pending = [(1, iter(range(start[0], start[1])))]
    push, pop = pending.append, pending.pop
    while pending:
        depth, moves = pending[-1]
        # the next move at this depth, or back up when there is none
        for j in moves:
            break
        else:
            pop()
            continue
        while True:
            ranks[depth] = t = target[j]
            flat[at[j]] = depth
            depth += 1
            if depth == length:
                yield tuple(ranks), tuple(flat)
                break
            j, end = start[t], start[t + 1]
            if end - j > 1:
                push((depth, iter(range(j, end))))
                break


def _vacated(numbering: tuple[int, ...], layer: _Layer) -> tuple[tuple[int, int], ...]:
    """The cells that the steps of a walked chain vacate, in step order,
    read off its numbering in one pass: step k vacates the cell numbered
    k, and the survivors are numbered past the last step."""
    length = chain_length(layer.window)
    cells = [None] * (length - 1)
    for cell, k in zip(layer.cells, numbering):
        if k < length:
            cells[k - 1] = cell
    return tuple(cells)


def _steps_around(w: Window, targets) -> list[tuple]:
    """(d0, down, up) for each target of a chain of targets in w, on the
    maximal chain that climbs from the window minimum through the targets to
    the maximum: the degrees of the element below the target and the cells
    that the steps into and out of it vacate, None past either end.

    The climb takes, toward each next point t, one cover still below it:
    an element x of t's length raises x_i for the last i with x_i < t_i; a
    longer x raises its last degree, or drops it on its ceiling.  Each is a
    move of :func:`_moves` that stays below t, so the climb never dead-ends,
    and its two steps around each target are read directly, in O(s): the
    step out of a point is the climb's first toward the next one, and the
    step into t raises, last, the lowest index where the point before falls
    short of t, or else drops the degree N + len(t).  The targets must form
    a chain in w; ``InvariantViolated`` when a target is not in w or not
    above the point before it.
    """
    N, M, s_min = w.N, w.M, w.s_min
    x = tuple(range(M, M + w.n + 1))
    d0 = down = None  # the step into x
    out, waiting = [], 0  # the points reached at x, waiting for its step out
    for t in (*targets, tuple(range(N, N + s_min + 1))):
        last = len(t) - 1
        if last < s_min or t[last] > N + last or not _below(x, t):
            raise InvariantViolated(f"no cover of {x} in {w} lies below {t}")
        if x != t:
            # the step out of x: a longer x raises or drops its last degree,
            # and either vacates that degree's cell
            i = len(x) - 1
            if i == last:
                while x[i] == t[i]:
                    i -= 1
            up = (x[i] - i - M, i)
            out += [(d0, down, up)] * waiting
            waiting = 0
            # the lowest index where x falls short of t, last + 1 if none
            i = 0
            for a, b in zip(x, t):
                if a < b:
                    break
                i += 1
            if i > last:
                d0, down = (*t, N + i), (N - M, i)
            else:
                d0, down = t[:i] + (t[i] - 1,) + t[i + 1:], (t[i] - 1 - i - M, i)
            x = t
        waiting += 1
    # the last point reached is the maximum itself
    return out + [(d0, down, None)] * (waiting - 1)


def count_maximal_chains(w: Window) -> int:
    """Number of maximal chains by the hook-length formula; walks no chain."""
    _need(w, Window, WindowMismatch)
    shape = [w.n + 1] * (w.N - w.M)
    if w.n > w.s_min:
        shape.append(w.n - w.s_min)
    heights = [sum(1 for length in shape if length > c) for c in range(w.n + 1)]
    hooks = math.prod(
        length - c + heights[c] - r - 1 for r, length in enumerate(shape) for c in range(length)
    )
    return math.factorial(sum(shape)) // hooks


def _decimal(x: int, width: int = 0) -> str:
    """The decimal digits of an int x, zero-padded to ``width``, after a
    minus sign when x < 0.

    ``str`` refuses an int of more digits than ``sys.get_int_max_str_digits``
    allows (4,300 by default, never fewer than 640), and that limit is the
    whole process's to set.  So a long x is split at a power of ten into
    halves, each written the same way, until a piece has at most 600 digits.
    """
    if x < 0:
        return "-" + _decimal(-x, width - 1)
    bits = x.bit_length()
    if bits <= 1993:  # x < 2**1993 < 10**600
        return str(x).zfill(width)
    # about half x's digits: a bit is 0.301 digits
    k = bits * 3 // 20
    high, low = divmod(x, 10**k)
    return _decimal(high, width - k) + _decimal(low, k)


def _count_of(count: int) -> str:
    """A count for a message: its digits, or "a D-digit number of" when
    ``str`` refuses to write it."""
    try:
        return str(count)
    except ValueError:
        return f"a {len(_decimal(count))}-digit number of"


def _sorted_walk(w: Window, limit: int | None = None) -> tuple[_Layer, list[tuple]]:
    """w's :func:`_layer` and every maximal chain of w as :func:`_walk_ranks`
    yields it, (ranks, numbering), sorted on the numbering: tableau order.

    When the window has more than ``limit`` chains, ``WindowTooLarge``
    with the count, before any move is walked.  :func:`maximal_chains`
    wraps it; the CLI listing reads the ranks directly and builds no
    ``Chain``.
    """
    if limit is not None:
        if not _is_int(limit):
            raise ValueError(f"limit must be an integer, got {limit!r}")
        count = count_maximal_chains(w)
        if count > limit:
            raise WindowTooLarge(f"window has {_count_of(count)} maximal chains, more than {_decimal(limit)}")
    layer = _layer(w)
    return layer, sorted(_walk_ranks(layer), key=itemgetter(1))


def maximal_chains(w: Window, limit: int | None = None) -> Iterator[Chain]:
    """Enumerate every maximal chain once, ordered by row-major tableau.

    The order is part of the contract: chains are sorted by the row-major
    reading of their tableau numbering, lexicographically.  When the window
    has more than ``limit`` chains, the first ``next()`` raises
    ``WindowTooLarge`` with the count before any move is walked.

    Every step of a walked chain is a legal cover move, so the chains are
    not re-validated; their vacated cells are read off the numbering the
    walk hands out (:func:`_vacated`).  Each rank of
    the window's layer, every one of which some chain passes, is built
    once per listing (:func:`pure_diagram`) and shared by its chains, so a
    window of more pure diagrams than :func:`_diagrams` builds lists its
    chains too.
    """
    _need(w, Window, WindowMismatch)
    layer, walked = _sorted_walk(w, limit)
    diagrams = list(map(pure_diagram, layer.seqs, repeat(w.n)))
    for ranks, numbering in walked:
        yield Chain._of_moves(tuple(map(diagrams.__getitem__, ranks)), w, _vacated(numbering, layer))
