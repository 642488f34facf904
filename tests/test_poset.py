"""Partial order, covers, maximal chains, tableau bijection."""

import gc
import random
import sys
import threading
from array import array
from itertools import combinations, islice, permutations, zip_longest

import pytest

from bettidecomp import poset
from bettidecomp import (
    Chain,
    FacetKind,
    Tableau,
    Window,
    chain_from_tableau,
    chain_length,
    classify_facet,
    count_maximal_chains,
    covers,
    leq,
    maximal_chains,
    pure_diagram,
    tableau_from_chain,
)
from bettidecomp.errors import (
    ChainNotMaximal,
    InvalidTableau,
    InvariantViolated,
    NotAChain,
    WindowTooLarge,
)


def seqs(chain):
    return chain.degree_sequences()


def chains_as_seqs(w, **kw):
    return [seqs(c) for c in maximal_chains(w, **kw)]


class TestLeq:
    def test_reflexive(self):
        p = pure_diagram((0, 2, 3, 5), 3)
        assert leq(p, p)

    def test_expansion_chain_is_totally_ordered(self):
        steps = [(0, 2, 3, 5), (0, 2, 4, 5), (0, 3, 4), (0, 3)]
        ps = [pure_diagram(d, 3) for d in steps]
        for a, b in zip(ps, ps[1:]):
            assert leq(a, b) and not leq(b, a)

    def test_incomparable_pair(self):
        p = pure_diagram((0, 1, 2), 4)
        q = pure_diagram((1, 2, 3, 4), 4)
        assert not leq(p, q) and not leq(q, p)

    def test_antisymmetry_and_transitivity_exhaustive(self):
        for n in range(0, 5):
            w = Window(n, 0, 3)
            elems = list(w.pure_diagrams())
            rel = {(a.degrees, b.degrees) for a in elems for b in elems if leq(a, b)}
            for a in elems:
                for b in elems:
                    if (a.degrees, b.degrees) in rel and (b.degrees, a.degrees) in rel:
                        assert a == b
            upsets = {}
            for a in elems:
                upsets[a.degrees] = {b.degrees for b in elems if (a.degrees, b.degrees) in rel}
            for a, b in rel:
                assert upsets[b] <= upsets[a]  # transitivity

    def test_pure_diagrams_are_every_window_element_in_documented_order(self):
        for n in range(4):
            for M, N in ((-1, 1), (0, 2), (2, 4)):
                for s_min in range(n + 1):
                    w = Window(n, M, N, s_min)
                    listed = [p.degrees for p in w.pure_diagrams()]
                    every = [
                        d
                        for s in range(s_min, n + 1)
                        for d in combinations(range(M, N + s + 1), s + 1)
                        if all(M + i <= x <= N + i for i, x in enumerate(d))
                    ]
                    assert listed == sorted(every, key=lambda d: (-len(d), d)), w


class TestCovers:
    def test_raise_at_ceiling_allowed(self):
        w = Window(2, 0, 1)
        assert covers(pure_diagram((0, 1), 2), pure_diagram((0, 2), 2), w)

    def test_drop_at_ceiling(self):
        w = Window(2, 0, 1)
        assert covers(pure_diagram((0, 2), 2), pure_diagram((0,), 2), w)

    def test_irreflexive(self):
        w = Window(2, 0, 1)
        p = pure_diagram((0, 1), 2)
        assert not covers(p, p, w)

    def test_drop_needs_ceiling(self):
        w = Window(2, 0, 1)
        assert not covers(pure_diagram((0, 1), 2), pure_diagram((0,), 2), w)

    def test_no_two_step_raise(self):
        w = Window(3, 0, 2)
        assert not covers(pure_diagram((0, 1), 3), pure_diagram((0, 3), 3), w)


def small_windows():
    """Every window with n <= 3, width <= 2 and every s_min, and two with M != 0."""
    for n in range(4):
        for width in range(3):
            for s_min in range(n + 1):
                yield Window(n, 0, width, s_min)
    yield Window(2, -1, 1, 1)
    yield Window(3, 2, 3, 0)


class TestCell:
    def test_direct_read_matches_the_move_scan(self):
        # d and e range over a window one row wider on either side, at
        # codimension 0: pairs of every length, and e (or d) outside w
        pairs = 0
        for w in small_windows():
            pool = poset._window_seqs(Window(w.n, w.M - 1, w.N + 1, 0))
            for d in pool:
                scanned = dict(poset._moves(d, w))
                for e in pool:
                    assert poset._cell(d, e, w) == scanned.get(e), (w, d, e)
                    pairs += 1
        assert pairs == 108_984


class TestChainLength:
    @pytest.mark.parametrize(
        "w,expected",
        [
            (Window(3, 0, 2, 0), 12),
            (Window(2, 0, 1, 0), 6),
            (Window(0, 5, 5, 0), 1),
            (Window(1, 0, 1, 1), 3),
        ],
    )
    def test_formula(self, w, expected):
        assert chain_length(w) == expected

    def test_matches_enumeration(self):
        for n in range(0, 3):
            for width in range(0, 3):
                for s_min in range(0, n + 1):
                    w = Window(n, 0, width, s_min)
                    for c in maximal_chains(w):
                        assert len(c) == chain_length(w)


def brute_force_numbering_count(w: Window) -> int:
    """Count valid numberings by filtering all permutations of the grid.

    Monotone to the left along rows and down columns; for s_min > 0 the top
    s_min + 1 numbers must sit in the bottom row from column s_min leftwards.
    """
    rows, cols = w.rows, w.n + 1
    size = rows * cols
    count = 0
    for perm in permutations(range(1, size + 1)):
        grid = [perm[r * cols : (r + 1) * cols] for r in range(rows)]
        ok = all(
            grid[r][c] > grid[r][c + 1] for r in range(rows) for c in range(cols - 1)
        ) and all(
            grid[r][c] < grid[r + 1][c] for r in range(rows - 1) for c in range(cols)
        )
        if not ok:
            continue
        steps = chain_length(w) - 1
        if any(grid[rows - 1][c] != steps + 1 + (w.s_min - c) for c in range(w.s_min + 1)):
            continue
        count += 1
    return count


def hook_length_rectangle(rows: int, cols: int) -> int:
    """Standard-numbering count of a rows x cols rectangle via hook lengths."""
    import math

    product = 1
    for r in range(rows):
        for c in range(cols):
            product *= (rows - 1 - r) + (cols - 1 - c) + 1
    return math.factorial(rows * cols) // product


def walk(w):
    """Every maximal chain of w as poset._walk_ranks walks it on w's layer,
    as (degree sequences, vacated cells, numbering), in move order."""
    layer = poset._layer(w)
    for ranks, numbering in poset._walk_ranks(layer):
        yield tuple(map(layer.seqs.__getitem__, ranks)), poset._vacated(numbering, layer), numbering


def _walk_by_frames(w):
    """Every maximal chain of w as walk's (seqs, cells, numbering), depth
    first over _moves, one generator frame per move, forced or not."""
    length, cols = chain_length(w), w.n + 1

    def extend(seqs, cells):
        if len(seqs) == length:
            flat = [0] * w.grid_size
            # the survivors of the maximum, bottom row right to left
            for c in range(w.s_min + 1):
                flat[(w.rows - 1) * cols + c] = length + w.s_min - c
            for k, (r, c) in enumerate(cells, 1):
                flat[r * cols + c] = k
            yield tuple(seqs), tuple(cells), tuple(flat)
            return
        for d, cell in poset._moves(seqs[-1], w):
            yield from extend(seqs + [d], cells + [cell])

    yield from extend([tuple(range(w.M, w.M + w.n + 1))], [])


class TestMaximalChains:
    def test_five_chains_at_n2(self):
        w = Window(2, 0, 1)
        assert count_maximal_chains(w) == 5
        assert len(chains_as_seqs(w)) == 5

    def test_single_chain_degenerate(self):
        assert chains_as_seqs(Window(0, 0, 0)) == [((0,),)]

    def test_count_equals_hook_formula(self):
        # full windows (s_min = 0) have one chain per monotone numbering
        assert count_maximal_chains(Window(3, 0, 2)) == hook_length_rectangle(3, 4) == 462
        assert count_maximal_chains(Window(2, 0, 1)) == hook_length_rectangle(2, 3) == 5

    def test_count_matches_permutation_brute_force(self):
        for n in range(0, 3):
            for width in range(0, 2):
                for s_min in range(0, n + 1):
                    w = Window(n, 0, width, s_min)
                    if w.grid_size > 8:
                        continue
                    assert count_maximal_chains(w) == brute_force_numbering_count(w), w

    def test_deterministic_tableau_order(self):
        # the walk keeps each chain's numbering in place; _row_major, which
        # tableau_from_chain reads, is the oracle for it and for the order
        for w in small_windows():
            walked = list(walk(w))
            for seqs, cells, numbering in walked:
                assert numbering == poset._row_major(cells, w), (w, seqs)
            tabs = [tableau_from_chain(c).row_major() for c in maximal_chains(w)]
            assert len(tabs) == len(walked) == count_maximal_chains(w), w
            assert all(a < b for a, b in zip(tabs, tabs[1:])), w

    def test_walk_matches_a_stack_entry_per_move(self):
        # the walk leaves a diagram of one move within the step; the oracle,
        # one frame per move, yields the same (seqs, cells, numbering) in
        # the same order on every window with n <= 4, width <= 3, (3,0,3,0)
        # and its 24,024 chains among them.  Read in step, never held; the
        # three windows of more than 100,000 chains, (4,0,3,s) for s < 3,
        # are compared on their first 100,000
        windows = [Window(n, 0, width, s) for n in range(5) for width in range(4) for s in range(n + 1)]
        windows.append(Window(3, -1, 1, 0))
        for w in windows:
            walked = islice(zip_longest(walk(w), _walk_by_frames(w)), 100_000)
            assert all(a == b for a, b in walked), w

    def test_consecutive_pairs_are_covers(self):
        w = Window(2, 0, 2, 0)
        for c in maximal_chains(w):
            for a, b in zip(c.elements, c.elements[1:]):
                assert covers(a, b, w)

    def test_listed_chains_pass_public_validation(self):
        # chains are built unchecked from legal moves; the public constructor
        # and is_maximal are the oracle, on every window with n <= 4, width <= 2
        for n in range(5):
            for width in range(3):
                for s_min in range(n + 1):
                    w = Window(n, 0, width, s_min)
                    for c in maximal_chains(w):
                        checked = Chain(c.elements, w)
                        assert checked.is_maximal(), (w, seqs(c))
                        assert checked.vacated == c.vacated, (w, seqs(c))

    def test_chains_share_the_window_diagrams(self):
        w = Window(3, 0, 1, 1)
        shared = {p.degrees: p for p in w.pure_diagrams()}
        assert all(a is b for a, b in zip(w.pure_diagrams(), shared.values()))
        for c in maximal_chains(w):
            assert all(p is shared[p.degrees] for p in c)

    def test_listing_derives_each_diagrams_moves_once(self, monkeypatch):
        # the walk reads one move list per diagram, however many chains pass it
        w = Window(3, 0, 2, 0)
        calls = []
        real = poset._moves
        monkeypatch.setattr(poset, "_moves", lambda d, w: calls.append(d) or real(d, w))
        chains = list(maximal_chains(w))
        assert len(chains) == count_maximal_chains(w) == 462
        assert len(calls) == len(set(calls))
        assert set(calls) <= {tuple(p.degrees) for p in w.pure_diagrams()}

    def test_limit_guard(self):
        with pytest.raises(WindowTooLarge):
            list(maximal_chains(Window(3, 0, 2), limit=10))

    def test_closed_form_matches_walk(self):
        # the walk is the oracle: every window with n <= 4, width <= 2
        for n in range(5):
            for width in range(3):
                for s_min in range(n + 1):
                    w = Window(n, 0, width, s_min)
                    assert count_maximal_chains(w) == sum(1 for _ in walk(w)), w
        for w, count in ((Window(3, 0, 3, 0), 24_024), (Window(4, 0, 3, 3), 60_060)):
            assert count_maximal_chains(w) == sum(1 for _ in walk(w)) == count

    def test_closed_form_walks_no_chain(self, monkeypatch):
        monkeypatch.setattr(poset, "_walk_ranks", lambda *a, **k: pytest.fail("walked the poset"))
        monkeypatch.setattr(poset, "_moves", lambda *a: pytest.fail("walked the poset"))
        assert count_maximal_chains(Window(4, 0, 3, 0)) == 1_662_804
        assert count_maximal_chains(Window(6, 0, 5, 0)) == 9_490_348_077_234_178_440

    def test_diagram_table_is_counted_before_it_is_built(self, monkeypatch):
        # a window of exactly _MAX_DIAGRAMS diagrams is built, one more is
        # refused with its count before any diagram is made, and the refusal
        # is not cached
        w = Window(2, 3, 5, 1)
        count = poset._diagram_count(w)
        poset._diagrams.cache_clear()
        monkeypatch.setattr(poset, "_MAX_DIAGRAMS", count - 1)
        monkeypatch.setattr(poset, "pure_diagram", lambda *a: pytest.fail("built a diagram"))
        with pytest.raises(WindowTooLarge, match=f"window has {count} pure diagrams, more than {count - 1}"):
            poset._diagrams(w)
        with pytest.raises(WindowTooLarge):
            list(w.pure_diagrams())
        monkeypatch.undo()
        monkeypatch.setattr(poset, "_MAX_DIAGRAMS", count)
        assert len(poset._diagrams(w)) == count

    def test_chains_of_a_window_past_the_table_cap(self, monkeypatch):
        # n = 0: one chain through all N - M + 1 diagrams, more than the
        # table holds; the listing builds only its chains' diagrams, each
        # once, shared by the chains of one listing
        w = Window(0, 0, 10, 0)
        poset._diagrams.cache_clear()
        monkeypatch.setattr(poset, "_MAX_DIAGRAMS", 5)
        with pytest.raises(WindowTooLarge, match="window has 11 pure diagrams, more than 5"):
            poset._diagrams(w)
        (chain,) = maximal_chains(w)
        assert [tuple(p.degrees) for p in chain] == [(j,) for j in range(11)]
        monkeypatch.undo()
        built = []
        monkeypatch.setattr(poset, "pure_diagram", lambda d, n: built.append(d) or pure_diagram(d, n))
        chains = list(maximal_chains(Window(2, 0, 1, 0)))
        assert len(chains) == 5 and all(c[0] is chains[0][0] and c[-1] is chains[0][-1] for c in chains)
        assert sorted(built) == sorted({tuple(p.degrees) for c in chains for p in c})

    def test_limit_refuses_a_count_too_long_to_print(self, default_int_digits):
        # (3,0,10000,0) has a count of 24,055 digits, past the limit: the
        # refusal still raises WindowTooLarge, naming the digit count
        w = Window(3, 0, 10_000, 0)
        with pytest.raises(WindowTooLarge, match=r"^window has a 24055-digit number of maximal chains, more than 10$"):
            next(maximal_chains(w, limit=10))
        assert sys.get_int_max_str_digits() == default_int_digits

    def test_limit_too_long_to_print_is_written_in_digits(self, default_int_digits):
        # a limit of 5,001 digits, past the int-to-str limit, under a count
        # of 24,055: the refusal writes the limit's digits, as it writes
        # the count's digit count
        w = Window(3, 0, 10_000, 0)
        with pytest.raises(WindowTooLarge, match=r"^window has a 24055-digit number of maximal chains, more than 10{5000}$"):
            next(maximal_chains(w, limit=10**5000))
        assert sys.get_int_max_str_digits() == default_int_digits

    def test_decimal_writes_any_count(self, default_int_digits):
        # pieces of at most 600 digits, the lower ones zero-padded; read back
        # in pieces too, under the limit
        for x in (0, 7, 10**599, 2**1993 - 1, 2**1993, 10**600, 10**4300 - 1, 10**24_054 + 10**300, 3**50_000):
            text = poset._decimal(x)
            assert text.isdigit() and (text == "0" or text[0] != "0")
            value = 0
            for k in range(0, len(text), 600):
                piece = text[k:k + 600]
                value = value * 10**len(piece) + int(piece)
            assert value == x
        assert poset._decimal(12345, 8) == "00012345"

    def test_decimal_writes_negative_ints_as_str_does(self):
        # a minus sign, then the digits, zero-padded within the width as
        # str.zfill pads
        for x in (-1, -7, -10, -12345, -(2**64)):
            for width in range(0, 25):
                assert poset._decimal(x, width) == str(x).zfill(width), (x, width)
        text = poset._decimal(-(10**5000 + 7))
        assert text == "-1" + "0" * 4997 + "007"

    def test_limit_reports_count_before_walking(self, monkeypatch):
        monkeypatch.setattr(poset, "_moves", lambda *a: pytest.fail("walked the poset"))
        with pytest.raises(WindowTooLarge, match="window has 9490348077234178440 maximal chains, more than 10"):
            next(maximal_chains(Window(6, 0, 5, 0), limit=10))


class TestLayer:
    def test_ranks_and_moves_read_back_as_moves(self):
        # the oracle: rank order is pure_diagrams order, and the moves of
        # rank k read back as _moves(seqs[k], w), in order, on every window
        # with n <= 3, width <= 2, and on (3,-1,1,0) and (4,0,3,2)
        windows = [Window(n, 0, width, s) for n in range(4) for width in range(3) for s in range(n + 1)]
        windows += [Window(3, -1, 1, 0), Window(4, 0, 3, 2)]
        for w in windows:
            layer = poset._layer(w)
            seqs, start, target, at = layer.seqs, layer.start, layer.target, layer.at
            assert list(seqs) == [tuple(p.degrees) for p in w.pure_diagrams()], w
            assert len(start) == len(seqs) + 1 and start[-1] == len(target) == len(at), w
            for k, d in enumerate(seqs):
                moves = [(seqs[target[j]], divmod(at[j], w.n + 1)) for j in range(start[k], start[k + 1])]
                assert moves == poset._moves(d, w), (w, d)

    def test_kept_layer_is_built_complete(self, monkeypatch):
        # a kept layer is shared, so every move is in it when it is handed
        # out and reading it derives none; past the cap the layer is built
        # over the same order
        w = Window(3, 0, 2, 1)
        poset._window_layer.cache_clear()
        layer = poset._layer(w)
        assert len(layer.start) == len(layer.seqs) + 1 == poset._diagram_count(w) + 1
        monkeypatch.setattr(poset, "_moves", lambda *a: pytest.fail("derived a move"))
        assert sum(1 for _ in poset._walk_ranks(layer)) == count_maximal_chains(w)
        monkeypatch.undo()
        monkeypatch.setattr(poset, "_MAX_DIAGRAMS", 5)
        past = poset._layer(w)
        assert past is not layer
        assert (past.seqs, past.start, past.target, past.at) == (layer.seqs, layer.start, layer.target, layer.at)

    def test_threads_read_complete_layers(self):
        # threads walk the one chain of (0,0,4000,0) and classify a gap in
        # it at once, switching every microsecond, on a layer built afresh
        # each round: whichever layer each is handed, it holds every move,
        # so every walk and every later one reads the whole chain
        w = Window(0, 0, 4000, 0)
        chain = [pure_diagram((j,), 0) for j in range(4001)]
        gap = Chain(chain[:2000] + chain[2001:], w)
        walked, kinds, errors = [], [], []

        def walk_once():
            try:
                walked.append([ranks for ranks, _ in poset._walk_ranks(poset._layer(w))])
            except Exception as e:
                errors.append(e)

        def classify_once():
            try:
                kinds.append(classify_facet(gap))
            except Exception as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                poset._window_layer.cache_clear()
                threads = [threading.Thread(target=f) for f in (walk_once, classify_once) * 2]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                walked.append([ranks for ranks, _ in poset._walk_ranks(poset._layer(w))])
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert walked == [[tuple(range(4001))]] * 30
        assert kinds == [FacetKind.SAME_COLUMN_TWICE] * 20

    def test_layer_keeps_no_object_per_move(self):
        # the moves live in arrays of C ints: each array is one object, which
        # refers to no other but, where the collector tracks arrays (CPython
        # 3.11 on), its type; what the layer holds is one object per diagram
        # or per grid cell, never one per move
        w = Window(5, 0, 4, 1)
        layer = poset._layer(w)
        for moves in (layer.start, layer.target, layer.at):
            assert type(moves) is array and gc.get_referents(moves) in ([], [array])
        seen, todo = set(), [getattr(layer, slot) for slot in poset._Layer.__slots__ if slot != "window"]
        while todo:
            obj = todo.pop()
            if gc.is_tracked(obj) and not isinstance(obj, type) and id(obj) not in seen:
                seen.add(id(obj))
                todo += gc.get_referents(obj)
        # the three arrays, seqs and its tuples, cells and its tuples
        bound = 3 + 1 + len(layer.seqs) + 1 + w.grid_size
        assert len(seen) <= bound < len(layer.target), (len(seen), bound, len(layer.target))


class TestTableauBijection:
    def test_reference_numberings_cover_all_chains(self, five_tableaux):
        w = Window(2, 0, 1)
        got = {seqs(chain_from_tableau(Tableau(tuple(map(tuple, t))), w)) for t in five_tableaux["numberings"]}
        assert got == {seqs(c) for c in maximal_chains(w)}

    def test_known_numbering_round_trip(self):
        w = Window(2, 0, 1)
        t = Tableau(((4, 3, 1), (6, 5, 2)))
        chain = chain_from_tableau(t, w)
        assert seqs(chain) == ((0, 1, 2), (0, 1, 3), (0, 1), (0, 2), (1, 2), (1,))
        assert tableau_from_chain(chain) == t

    def test_single_cell(self):
        w = Window(0, 2, 2)
        chain = chain_from_tableau(Tableau(((1,),)), w)
        assert seqs(chain) == ((2,),)

    def test_bijection_exhaustive_small_windows(self):
        for n in range(0, 4):
            for width in range(0, 3):
                for s_min in range(0, n + 1):
                    w = Window(n, 0, width, s_min)
                    if w.grid_size > 12:
                        continue
                    for c in maximal_chains(w):
                        rebuilt = chain_from_tableau(tableau_from_chain(c), w)
                        assert seqs(rebuilt) == seqs(c)
                        # built unchecked: the public constructor is the oracle
                        assert Chain(rebuilt.elements, w).vacated == rebuilt.vacated

    def test_every_numbering_fits_codimension_zero(self):
        # the survivors at s_min carry the numbers of the drops down to pi(N)
        checked = 0
        for n in range(0, 4):
            for width in range(0, 3):
                for s_min in range(0, n + 1):
                    full = Window(n, 0, width, 0)
                    for c in maximal_chains(Window(n, 0, width, s_min)):
                        longer = chain_from_tableau(tableau_from_chain(c), full)
                        assert seqs(longer)[: len(c)] == seqs(c)
                        checked += 1
        assert checked == 939

    def test_invalid_numberings_rejected(self):
        w = Window(2, 0, 1)
        with pytest.raises(InvalidTableau):
            Tableau(((1, 2, 3), (4, 5, 6)))  # wrong monotonicity
        with pytest.raises(InvalidTableau):
            Tableau(((3, 2, 1), (6, 5, 7)))  # not a permutation
        with pytest.raises(InvalidTableau):
            # monotone but wrong shape for the window
            chain_from_tableau(Tableau(((2, 1), (4, 3), (6, 5))), w)
        with pytest.raises(InvalidTableau):
            # survivors not in the forced cells: valid SYT-style grid that
            # does not describe a chain (6 must be bottom-left)
            chain_from_tableau(Tableau(((6, 3, 1), (5, 4, 2))), w)

    @pytest.mark.parametrize("rows", [((2.9, 1.2),), ((2, True),), ((2.0, 1),), 5, (None,)])
    def test_non_integer_entries_rejected(self, rows):
        with pytest.raises(InvalidTableau):
            Tableau(rows)

    def test_non_maximal_chain_rejected(self):
        w = Window(2, 0, 1)
        chain = Chain((pure_diagram((0, 1, 2), 2), pure_diagram((0, 1), 2)), w)
        with pytest.raises(ChainNotMaximal):
            tableau_from_chain(chain)


class TestCompleteChain:
    """The completions of a partial chain are the maximal chains containing it."""

    @staticmethod
    def completions(partial, pool):
        return [seqs(c) for c in pool if set(partial) <= set(c)]

    def test_already_maximal(self):
        pool = list(maximal_chains(Window(2, 0, 1)))
        full = pool[0]
        assert self.completions(full, pool) == [seqs(full)]

    def test_boundary_deletion_has_one_completion(self):
        # delete the second element of a maximal chain whose neighbours
        # differ twice in the last column (raise to ceiling, then drop)
        w = Window(2, 0, 1)
        t = Tableau(((5, 3, 1), (6, 4, 2)))
        full = chain_from_tableau(t, w)
        partial = Chain(full.elements[:1] + full.elements[2:], w)
        assert self.completions(partial, maximal_chains(w)) == [seqs(full)]

    def test_interior_deletion_has_more_completions(self):
        # neighbours differing in two non-adjacent columns admit two orders
        w = Window(3, 0, 2)
        pool = list(maximal_chains(w))
        found = 0
        for c in pool:
            for k in range(1, len(c) - 1):
                lo, hi = c[k - 1].degrees, c[k + 1].degrees
                if len(lo) != len(hi):
                    continue
                diff = [i for i in range(len(lo)) if lo[i] != hi[i]]
                if len(diff) == 2 and diff[1] - diff[0] >= 2:
                    partial = Chain(c.elements[:k] + c.elements[k + 1 :], w)
                    assert len(self.completions(partial, pool)) >= 2
                    found += 1
            if found >= 3:
                return
        assert found, "no non-adjacent configuration found"


def reference_climb(w, targets):
    """The climb through targets to the window maximum, written from
    ``_moves``: toward each target, the cover still below it in the highest
    column.  Returns the degree sequences and the vacated cells."""
    cur = tuple(w.min_element().degrees)
    seqs, cells = [cur], []
    for t in (*targets, tuple(w.max_element().degrees)):
        while cur != t:
            cur, cell = max(
                (move for move in poset._moves(cur, w) if poset._below(move[0], t)),
                key=lambda move: move[1][1],
            )
            seqs.append(cur)
            cells.append(cell)
    return seqs, cells


def reference_steps(w, targets):
    """(d0, down, up) of each target on the reference climb."""
    seqs, cells = reference_climb(w, targets)
    out, k = [], 0
    for t in targets:
        while seqs[k] != tuple(t):
            k += 1
        d0, down = (seqs[k - 1], cells[k - 1]) if k else (None, None)
        out.append((d0, down, cells[k] if k < len(cells) else None))
    return out


class TestClimb:
    """``poset._steps_around`` reads the two cover steps around each target
    of the climb directly; the reference climb walks it move by move."""

    def assert_steps(self, w, sub):
        got = poset._steps_around(w, sub)
        assert got == reference_steps(w, sub), (w, sub)
        for t, (d0, down, up) in zip(sub, got):
            if d0 is not None:
                assert poset._cell(d0, tuple(t), w) == down, (w, sub, t)
            if up is not None:
                assert any(cell == up for _, cell in poset._moves(tuple(t), w)), (w, sub, t)

    def test_refines_every_other_element(self):
        for n in range(4):
            for width in range(3):
                for s_min in range(n + 1):
                    w = Window(n, 0, width, s_min)
                    for full in maximal_chains(w):
                        sub = seqs(full)[::2]
                        self.assert_steps(w, sub)
                        # the reference is a maximal chain through the targets
                        climbed, cells = reference_climb(w, sub)
                        chain = Chain(tuple(pure_diagram(d, n) for d in climbed), w)
                        assert chain.is_maximal(), (w, sub)
                        assert tuple(cells) == chain.vacated, (w, sub)
                        assert set(sub) <= set(climbed), (w, sub)

    def test_every_step_is_a_cover_move(self):
        # random sub-chains of mixed codimension, s_min > 0 included
        rng = random.Random(22)
        climbs = 0
        for n in range(5):
            for width in range(3):
                for s_min in range(n + 1):
                    w = Window(n, 0, width, s_min)
                    full = list(maximal_chains(w))
                    for chain in rng.sample(full, min(len(full), 30)):
                        sub = [d for d in seqs(chain) if rng.random() < 0.3]
                        self.assert_steps(w, sub)
                        climbs += 1
        assert climbs == 452

    def test_windows_below_zero(self):
        # M < 0, every s_min, targets of random sub-chains and both ends
        rng = random.Random(25)
        climbs = 0
        for n in range(4):
            for M, N in ((-1, 0), (-2, 0), (-1, 1), (-3, -1)):
                for s_min in range(n + 1):
                    w = Window(n, M, N, s_min)
                    full = list(maximal_chains(w))
                    for chain in rng.sample(full, min(len(full), 10)):
                        chain_seqs = seqs(chain)
                        self.assert_steps(w, [d for d in chain_seqs if rng.random() < 0.4])
                        self.assert_steps(w, [chain_seqs[0], chain_seqs[-1]])
                        climbs += 1
        assert climbs == 256

    def test_target_outside_window_raises(self):
        w = Window(2, 0, 1, 1)
        # above the ceiling, and below the codimension floor
        for target, message in (((0, 1, 4), r"^no cover of \(0, 1, 2\) in Window\(n=2, M=0, N=1, s_min=1\) lies below \(0, 1, 4\)$"),
                                ((1,), r"^no cover of \(0, 1, 2\) in Window\(n=2, M=0, N=1, s_min=1\) lies below \(1,\)$")):
            with pytest.raises(InvariantViolated, match=message):
                poset._steps_around(w, (target,))

    def test_stuck_climb_raises(self):
        # a target below the previous one leaves no cover to take
        with pytest.raises(InvariantViolated, match=r"^no cover of \(0, 1, 3\) in .* lies below \(0, 1, 2\)$"):
            poset._steps_around(Window(2, 0, 1), ((0, 1, 3), (0, 1, 2)))
