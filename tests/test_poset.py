"""Partial order, covers, maximal chains, tableau bijection."""

from itertools import combinations, permutations

import pytest

from bettidecomp import poset
from bettidecomp import (
    Chain,
    Tableau,
    Window,
    chain_from_tableau,
    chain_length,
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
        w = Window(2, 0, 1)
        tabs = [tableau_from_chain(c).row_major() for c in maximal_chains(w)]
        assert tabs == sorted(tabs)

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
                    assert count_maximal_chains(w) == sum(1 for _ in poset._walk(w)), w
        for w, count in ((Window(3, 0, 3, 0), 24_024), (Window(4, 0, 3, 3), 60_060)):
            assert count_maximal_chains(w) == sum(1 for _ in poset._walk(w)) == count

    def test_closed_form_walks_no_chain(self, monkeypatch):
        monkeypatch.setattr(poset, "_walk", lambda *a, **k: pytest.fail("walked the poset"))
        monkeypatch.setattr(poset, "_moves", lambda *a: pytest.fail("walked the poset"))
        assert count_maximal_chains(Window(4, 0, 3, 0)) == 1_662_804
        assert count_maximal_chains(Window(6, 0, 5, 0)) == 9_490_348_077_234_178_440

    def test_limit_reports_count_before_walking(self, monkeypatch):
        monkeypatch.setattr(poset, "_moves", lambda *a: pytest.fail("walked the poset"))
        with pytest.raises(WindowTooLarge, match="window has 9490348077234178440 maximal chains, more than 10"):
            next(maximal_chains(Window(6, 0, 5, 0), limit=10))


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


class TestClimb:
    def test_refines_every_other_element(self):
        for n in range(4):
            for width in range(3):
                for s_min in range(n + 1):
                    w = Window(n, 0, width, s_min)
                    for full in maximal_chains(w):
                        sub = seqs(full)[::2]
                        climbed, cells = poset._climb(w, sub)
                        chain = Chain(tuple(pure_diagram(d, n) for d in climbed), w)
                        assert chain.is_maximal(), (w, sub)
                        assert cells == chain.vacated, (w, sub)
                        assert set(sub) <= set(climbed), (w, sub)

    def test_stuck_climb_raises(self):
        # a target below the previous one leaves no cover to take
        with pytest.raises(InvariantViolated, match="no cover of"):
            poset._climb(Window(2, 0, 1), ((0, 1, 3), (0, 1, 2)))
