"""Dual functionals, expansion, facet classification, convexity, membership."""

import math
import random
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest

from bettidecomp import (
    BettiDiagram,
    Chain,
    FacetKind,
    FunctionalCase,
    Tableau,
    Window,
    boundary_facets,
    chain_from_tableau,
    classify_facet,
    coefficient_functional,
    expand_in_chain,
    hk_residuals,
    maximal_chains,
    membership_by_inequalities,
    normalize,
    pure_diagram,
    verify_fan_convexity,
)
from bettidecomp import cli, core, functionals, poset
from bettidecomp.core import codimension, window_of
from bettidecomp.errors import InvariantViolated, NotACoverTriple, NotInSubspace, UndefinedOnZero, WindowMismatch
from bettidecomp.hilbert import multiplicity
from bettidecomp.functionals import derived_window
from bettidecomp.packing import Packing
from bettidecomp.poset import _below, _diagrams, _moves


def cover_triple_sweep():
    """(window, diagrams by degrees, cover triples) for n <= 4, width <= 3,
    every s_min; the triples, sentinels included, read off the cover moves."""
    for n in range(0, 5):
        for width in range(0, 4):
            for s_min in range(0, n + 1):
                w = Window(n, 0, width, s_min)
                table = {tuple(p.degrees): p for p in w.pure_diagrams()}
                lo, hi = w.min_element(), w.max_element()
                trips = [(None, lo, None)] if lo == hi else []
                for d0, p0 in table.items():
                    for d1, _ in _moves(d0, w):
                        p1 = table[d1]
                        if p0 == lo:
                            trips.append((None, p0, p1))
                        if p1 == hi:
                            trips.append((p0, p1, None))
                        trips.extend((p0, p1, table[d2]) for d2, _ in _moves(d1, w))
                yield w, table, trips


def chain12(dual_functionals):
    w = Window(3, 0, 2, 0)
    t = Tableau(tuple(map(tuple, dual_functionals["numbering"])))
    return chain_from_tableau(t, w), w


def triple_functionals(chain, w):
    K = len(chain)
    out = {}
    for k in range(1, K + 1):
        out[k] = coefficient_functional(
            chain[k - 2] if k >= 2 else None,
            chain[k - 1],
            chain[k] if k <= K - 1 else None,
            w,
        )
    return out


def chain_sweep(w):
    """Functional coefficients -> {(removed, kind)} over all boundary facets
    found by removing each element of each maximal chain."""
    out = {}
    for chain in maximal_chains(w):
        K = len(chain)
        for r in range(K):
            kind = classify_facet(Chain(chain.elements[:r] + chain.elements[r + 1 :], w))
            if kind is FacetKind.INTERIOR:
                continue
            f = coefficient_functional(
                chain[r - 1] if r > 0 else None,
                chain[r],
                chain[r + 1] if r < K - 1 else None,
                w,
            )
            out.setdefault(f.coefficients, set()).add((chain[r], kind))
    return out


class TestCoefficientFunctional:
    def test_reproduces_reference_grids(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        funcs = triple_functionals(chain, w)
        for key, grid in dual_functionals["matrices"].items():
            assert funcs[int(key)].grid() == grid, f"matrix {key}"

    def test_case_tags(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        funcs = triple_functionals(chain, w)
        for key, case in dual_functionals["functional_cases"].items():
            assert funcs[int(key)].case == FunctionalCase(case), f"matrix {key}"

    def test_variant_grid_fails_duality(self, dual_functionals):
        # the alternative sign at [1][3] of matrix 5 cannot be a dual
        # functional: it does not vanish on the chain element (0, 1, 2, 4)
        chain, w = chain12(dual_functionals)
        variant = dual_functionals["matrix_5_variant_failing_duality"]
        probe = pure_diagram((0, 1, 2, 4), 3).betti
        value = sum(
            variant[r][i] * probe[(i, i + r)] for r in range(3) for i in range(4)
        )
        assert value != 0
        correct = dual_functionals["matrices"]["5"]
        value = sum(
            correct[r][i] * probe[(i, i + r)] for r in range(3) for i in range(4)
        )
        assert value == 0

    def test_integrality(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        for f in triple_functionals(chain, w).values():
            assert all(isinstance(c, int) for _, c in f.coefficients)

    def test_rejects_non_consecutive_triples(self):
        w = Window(3, 0, 2, 0)
        with pytest.raises(NotACoverTriple):
            coefficient_functional(
                pure_diagram((0, 1, 2, 3), 3),
                pure_diagram((0, 1, 2, 5), 3),  # two steps away
                pure_diagram((0, 1, 3, 5), 3),
                w,
            )
        with pytest.raises(NotACoverTriple):
            coefficient_functional(None, pure_diagram((0, 1, 2, 4), 3), None, w)

    def test_rejects_upper_neighbour_outside_window(self):
        w = Window(1, 0, 0, 0)
        with pytest.raises(WindowMismatch):
            coefficient_functional(
                None, pure_diagram((0, 1), 1), pure_diagram((0, 2), 1), w
            )

    def test_duality_on_every_cover_triple(self):
        """Every cover triple, sentinels included, read off the cover moves
        without enumerating chains: 1 on pi1, 0 on every pure diagram below
        pi0 or above pi2.  On a maximal chain through the triple that is the
        Kronecker delta of the chain basis."""
        triples = 0
        for w, table, trips in cover_triple_sweep():
            for p0, p1, p2 in trips:
                f = coefficient_functional(p0, p1, p2, w)
                assert f(p1.betti) == 1, (p0, p1, p2)
                for d, q in table.items():
                    if (p0 is not None and _below(d, p0.degrees)) or (
                        p2 is not None and _below(p2.degrees, d)
                    ):
                        # zero exactly when zero on the lcm-scaled entries
                        value = sum(f.coefficient(*pos) * v for pos, v in q._integer[1])
                        assert value == 0, (p0, p1, p2, q)
            triples += len(trips)
        assert triples == 5317

    def test_coefficients_are_canonical(self):
        """Positions strictly increasing and no zero coefficient, on every
        functional of the sweep and every boundary facet: the formula emits
        its coefficients in order unsorted, and facets are deduplicated on
        the coefficient tuple, so equal functionals must be equal tuples."""
        for w, _, trips in cover_triple_sweep():
            fs = [coefficient_functional(*t, w) for t in trips]
            fs += [facet.functional for facet in boundary_facets(w)]
            for f in fs:
                positions = [pos for pos, _ in f.coefficients]
                assert all(a < b for a, b in zip(positions, positions[1:])), f
                assert all(c != 0 for _, c in f.coefficients), f


# every window with n <= 3, width <= 2 at every s_min, two where distinct
# triples share a coefficient vector, and the n <= 6 windows that the
# benchmark's membership queries build
RULE_WINDOWS = [Window(n, 0, width, s) for n in range(4) for width in range(3) for s in range(n + 1)]
RULE_WINDOWS += [Window(2, 0, 4, 0), Window(3, 0, 3, 0)]
RULE_WINDOWS += [
    Window(*bounds)
    for bounds in (
        (2, 0, 0, 2), (3, 0, 0, 3), (2, 0, 1, 0), (2, 0, 2, 1), (3, 0, 1, 0), (3, 0, 2, 2),
        (3, 0, 2, 1), (4, 0, 1, 0), (4, 0, 2, 3), (5, 0, 1, 2), (6, 0, 1, 2),
    )
]


def _reference_rule(d0, p1, down, up, w):
    """The coefficient rule as first written: m read as p1's codimension,
    the top degree as max(limits), an entry found by scanning positions."""
    m = p1.codimension
    d = p1.degrees
    if down is None:
        col = 0 if up is None else up[1]
    else:
        col, U = down[1], m if up is None else up[1]
        if col != U and (up is not None or col > m):
            bottom = w.N - w.M
            case = functionals._CASES[down[0] < bottom, up is not None and up[0] < bottom]
            limits = [*d0, *range(w.N + len(d0), w.N + w.n + 1)]
            M, top = w.M, max(limits)
            values = [1 if col == m + 1 else d[col] - d[U]] * (top - M + 1)
            for j in range(m + 1):
                if j != col and j != U:
                    values = list(map(mul, values, range(d[j] - M, d[j] - top - 1, -1)))
            return case, values, limits
    pos = (col, d[col])
    scale, entries = p1._integer
    x = next((x for at, x in entries if at == pos), 0)
    if x <= 0 or scale % x:
        raise InvariantViolated(f"entry {pos} of {p1!r} is {Fraction(x, scale)}, not a unit fraction")
    return FunctionalCase.ENTRY, pos, scale // x


def _rule_arguments(w):
    """_rule's (d0, p1, down, up) for every cover triple of w, the
    sentinel triples at the window minimum and maximum included."""
    table = _diagrams(w)
    lo, hi = w.min_element(), w.max_element()
    if lo == hi:
        yield None, lo, None, None
    for d0, p0 in table.items():
        for d1, down in _moves(d0, w):
            p1 = table[d1]
            if p0 == lo:
                yield None, p0, None, down
            if p1 == hi:
                yield d0, p1, down, None
            for _, up in _moves(d1, w):
                yield d0, p1, down, up


class TestRuleReader:
    """The integer reader of a coefficient rule against the built Functional."""

    def test_rule_is_the_first_written_rule(self):
        cases = {}
        for w in RULE_WINDOWS:
            for d0, p1, down, up in _rule_arguments(w):
                rule = functionals._rule(d0, p1, down, up, w)
                assert rule == _reference_rule(d0, p1, down, up, w), (w, d0, p1.degrees, down, up)
                cases[rule[0]] = cases.get(rule[0], 0) + 1
        # every shape occurs, the single-entry functionals included
        assert set(cases) == set(FunctionalCase), cases
        assert sum(cases.values()) == 1655

    def test_reader_matches_functional_on_every_chain_triple(self):
        rng = random.Random(22)
        seen = set()
        for n in range(5):
            for width in range(3):
                for s_min in range(n + 1):
                    for M in (0, -1):
                        w = Window(n, M, M + width, s_min)
                        # the window's rows and one more on either side
                        cells = [(i, j) for i in range(n + 1) for j in range(M - 1 + i, M + width + 2 + i)]
                        table = _diagrams(w)
                        layer = poset._layer(w)
                        for ranks, numbering in poset._walk_ranks(layer):
                            chain = [layer.seqs[k] for k in ranks]
                            vacated = poset._vacated(numbering, layer)
                            last = len(chain) - 1
                            for k, d1 in enumerate(chain):
                                d0 = chain[k - 1] if k else None
                                d2 = chain[k + 1] if k < last else None
                                if (w, d0, d1, d2) in seen:
                                    continue
                                seen.add((w, d0, d1, d2))
                                p1 = table[d1]
                                down = vacated[k - 1] if k else None
                                up = vacated[k] if k < last else None
                                rule = functionals._rule(d0, p1, down, up, w)
                                f = coefficient_functional(table.get(d0), p1, table.get(d2), w)
                                assert rule[0] is f.case, (w, p1)
                                scale, entries = p1._integer
                                assert functionals._read(rule, entries, M) == scale, (w, p1)
                                for _ in range(2):
                                    picked = rng.sample(cells, min(len(cells), 6))
                                    b = BettiDiagram(n, {pos: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for pos in picked})
                                    scale, entries = b._integer
                                    assert functionals._read(rule, entries, M) == f(b) * scale, (w, p1, b)
        assert len(seen) == 2994


class TestEvaluate:
    def test_reference_values_on_quotient(self, dual_functionals, quotient_diagram):
        chain, w = chain12(dual_functionals)
        funcs = triple_functionals(chain, w)
        expected = dual_functionals["example_evaluations"]["values"]
        for key, value in expected.items():
            assert funcs[int(key)](quotient_diagram) == Fraction(value)

    def test_zero_diagram(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        f = triple_functionals(chain, w)[7]
        assert f(BettiDiagram(3, {})) == 0


class TestExpandInChain:
    def test_quotient_coordinates(self, dual_functionals, quotient_diagram):
        chain, w = chain12(dual_functionals)
        coords = expand_in_chain(quotient_diagram, chain)
        by_degrees = {tuple(p.degrees): c for p, c in zip(chain.elements, coords)}
        assert by_degrees[(0, 2, 3, 5)] == 6
        assert by_degrees[(0, 2, 4, 5)] == 12
        assert by_degrees[(0, 3, 4)] == 2
        assert by_degrees[(0, 3)] == 1
        assert sum(1 for c in coords if c) == 4

    def test_unit_vectors(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        for k, p in enumerate(chain.elements):
            coords = expand_in_chain(p.betti, chain)
            assert coords[k] == 1
            assert all(c == 0 for j, c in enumerate(coords) if j != k)

    def test_construct_then_expand_round_trip(self):
        rng = random.Random(424242)
        w = Window(3, 0, 2, 0)
        chains = list(maximal_chains(w))
        for _ in range(25):
            chain = rng.choice(chains)
            chosen = {k: Fraction(rng.randint(0, 9)) for k in rng.sample(range(len(chain)), 4)}
            b = BettiDiagram(3, {})
            for k, c in chosen.items():
                b = b + chain[k].betti.scaled(c)
            if b.is_zero:
                continue
            coords = expand_in_chain(b, chain)
            for k, c in enumerate(coords):
                assert c == chosen.get(k, 0)

    def test_coordinates_match_functionals(self, quotient_diagram, dual_functionals):
        chain, w = chain12(dual_functionals)
        funcs = triple_functionals(chain, w)
        coords = expand_in_chain(quotient_diagram, chain)
        for k, c in enumerate(coords, start=1):
            assert funcs[k](quotient_diagram) == c

    def test_negative_coordinates_allowed(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        b = chain[0].betti.scaled(-3) + chain[5].betti
        coords = expand_in_chain(b, chain)
        assert coords[0] == -3 and coords[5] == 1

    def test_requires_window_support(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        outside = BettiDiagram(3, {(0, 4): 1})
        with pytest.raises(WindowMismatch):
            expand_in_chain(outside, chain)

    def test_requires_subspace_when_s_positive(self):
        w = Window(3, 0, 2, 1)
        chain = next(iter(maximal_chains(w)))
        bad = BettiDiagram(3, {(0, 0): 1})  # fails the first equation
        with pytest.raises(NotInSubspace, match="^diagram violates the first 1 Herzog-Kuhl equations$") as info:
            expand_in_chain(bad, chain)
        assert info.value.residuals == hk_residuals(bad, w.s_min) == [1]


class TestClassifyFacet:
    def test_reference_kind_assignment(self, dual_functionals):
        chain, w = chain12(dual_functionals)
        for key, kind in dual_functionals["facet_kinds"].items():
            k = int(key) - 1
            partial = Chain(chain.elements[:k] + chain.elements[k + 1 :], w)
            assert classify_facet(partial) == FacetKind(kind), f"removed element {key}"

    def test_classification_matches_completion_count(self):
        for n in range(0, 4):
            for width in range(0, 2):
                for s_min in range(0, n + 1):
                    w = Window(n, 0, width, s_min)
                    chains = list(maximal_chains(w))
                    pool = [set(c) for c in chains]
                    for chain in chains:
                        if len(chain) < 2:
                            continue
                        for k in range(len(chain)):
                            partial = Chain(
                                chain.elements[:k] + chain.elements[k + 1 :], w
                            )
                            kind = classify_facet(partial)
                            completions = sum(set(partial) <= c for c in pool)
                            assert (completions == 1) == (kind != FacetKind.INTERIOR)

    def test_cell_adjacency_matches_middle_count(self):
        """A cover triple reads interior by its cells exactly when it has two
        or more middles, and a move vacates the bottom row exactly when it drops."""
        for n in range(5):
            for M, width in ((0, 0), (0, 1), (0, 2), (0, 3), (-1, 2)):
                for s_min in range(n + 1):
                    w = Window(n, M, M + width, s_min)
                    for p0 in w.pure_diagrams():
                        d0 = tuple(p0.degrees)
                        for d1, down in _moves(d0, w):
                            assert (down[0] == width) == (len(d1) < len(d0)), (w, d0, d1)
                            for d2, up in _moves(d1, w):
                                p2 = pure_diagram(d2, n)
                                interior = functionals._triple_kind(down, up, w) is FacetKind.INTERIOR
                                assert interior == (len(functionals._middles(p0, p2, w)) >= 2), (w, d0, d1, d2)


class TestBoundaryFacets:
    def test_reference_functionals_appear(self, dual_functionals):
        w = Window(3, 0, 2, 0)
        grids = {tuple(map(tuple, f.functional.grid())) for f in boundary_facets(w)}
        for key in ("1", "2", "4", "6", "8", "9", "11", "12"):
            grid = tuple(map(tuple, dual_functionals["matrices"][key]))
            assert grid in grids, f"matrix {key} missing from boundary facets"

    def test_build_derives_each_diagrams_moves_once(self, monkeypatch):
        # a chain listing and a facet build of one window read its one kept
        # layer: each diagram's moves are derived once in all
        w = Window(3, 0, 2, 0)
        poset._window_layer.cache_clear()
        calls = []
        real = poset._moves
        monkeypatch.setattr(poset, "_moves", lambda d, w: calls.append(d) or real(d, w))
        assert len(list(maximal_chains(w))) == 462
        # built past the cache, which other tests' facets live in
        assert len(functionals._records(w)) == 51
        assert sorted(calls) == sorted(tuple(p.degrees) for p in w.pure_diagrams())

    def test_window_past_the_cap_keeps_no_layer(self, monkeypatch):
        # n = 0: one chain through 11 diagrams, past a cap of 5; its listing
        # reads a layer of its own, the classification of a gap in it reads
        # the moves of the diagram below the gap, and neither is kept
        w = Window(0, 0, 10, 0)
        poset._window_layer.cache_clear()
        poset._window_seqs.cache_clear()
        monkeypatch.setattr(poset, "_MAX_DIAGRAMS", 5)
        (chain,) = maximal_chains(w)
        assert [tuple(p.degrees) for p in chain] == [(j,) for j in range(11)]
        partial = Chain(chain.elements[:5] + chain.elements[6:], w)
        assert classify_facet(partial) is FacetKind.SAME_COLUMN_TWICE
        assert poset._window_layer.cache_info().currsize == poset._window_seqs.cache_info().currsize == 0

    def test_single_diagram_window_has_one_extremal_facet(self):
        # the empty chain spans the zero cone, the facet of a one-ray fan
        w = Window(0, 0, 0, 0)
        (facet,) = boundary_facets(w)
        assert facet.kind is FacetKind.EXTREMAL
        assert facet.removed == w.min_element() == w.max_element()
        assert facet.functional(facet.removed.betti) == 1
        assert classify_facet(Chain((), w)) is FacetKind.EXTREMAL

    def test_facet_count_matches_brute_force(self):
        # a partial chain with one completion spans a boundary facet; its
        # hyperplane is the dual functional of the element it lacks
        w = Window(2, 0, 1, 0)
        seen = set()
        chains = list(maximal_chains(w))
        pool = [set(c) for c in chains]
        for chain in chains:
            K = len(chain)
            for k in range(K):
                partial = Chain(chain.elements[:k] + chain.elements[k + 1 :], w)
                if sum(set(partial) <= c for c in pool) == 1:
                    f = coefficient_functional(
                        chain[k - 1] if k > 0 else None,
                        chain[k],
                        chain[k + 1] if k < K - 1 else None,
                        w,
                    )
                    seen.add(f.coefficients)
        facets = boundary_facets(w)
        assert len(facets) == len(seen)
        assert {f.functional.coefficients for f in facets} == seen

    def test_deduplicated(self):
        w = Window(2, 0, 1, 0)
        keys = [f.functional.coefficients for f in boundary_facets(w)]
        assert len(keys) == len(set(keys))

    def test_local_hyperplanes_match_chain_sweep(self):
        """Oracle: every maximal chain minus each element, classified by
        counting middles, gives exactly the local hyperplane set."""
        windows = [Window(n, 0, width, s) for n in range(4) for width in range(3) for s in range(n + 1)]
        windows += [Window(4, 0, width, s) for width in range(2) for s in range(5)]
        for w in windows:
            facets = boundary_facets(w)
            swept = chain_sweep(w)
            assert {f.functional.coefficients for f in facets} == set(swept), w
            assert len({f.functional.coefficients for f in facets}) == len(facets), w
            for f in facets:
                assert (f.removed, f.kind) in swept[f.functional.coefficients], w

    def test_column_search_matches_the_scan_of_every_cover_pair(self):
        """Oracle: the records built the old way, every cover move of p1
        classified by its two cells, the first triple of each grid kept,
        are the records of the column search, in content and in order."""
        windows = [Window(n, 0, width, s) for n in range(5) for width in range(4) for s in range(n + 1)]
        windows += [Window(3, -1, 1, 0), Window(4, 0, 3, 2), Window(5, 0, 4, 0)]
        for w in windows:
            assert functionals._records(w) == _records_by_scan(w), w

    def test_window_with_24024_chains(self):
        # the chain sweep took about 40 s here
        assert len(boundary_facets(Window(3, 0, 3, 0))) == 119

    def test_window_with_1056_hyperplanes(self):
        assert len(boundary_facets(Window(5, 0, 4, 0))) == 1056


def _records_by_scan(w):
    """:func:`functionals._records` by a scan of every cover pair (p0 -> p1,
    p1 -> p2), each classified by ``_triple_kind``."""
    records = {}

    def keep(p0, p1, p2, down, up, kind):
        cells, case = functionals._coefficients(p0, p1, down, up, w)
        records.setdefault(cells, (cells, kind, case, (p0, p1, p2)))

    table = _diagrams(w)
    lo, hi = tuple(range(w.M, w.M + w.n + 1)), tuple(range(w.N, w.N + w.s_min + 1))
    if lo == hi:
        keep(None, table[lo], None, None, None, FacetKind.EXTREMAL)
    for d0, p0 in table.items():
        for d1, down in _moves(d0, w):
            p1 = table[d1]
            if d0 == lo:
                keep(None, p0, p1, None, down, FacetKind.EXTREMAL)
            if d1 == hi:
                keep(p0, p1, None, down, None, FacetKind.EXTREMAL)
            for d2, up in _moves(d1, w):
                kind = functionals._triple_kind(down, up, w)
                if kind is not FacetKind.INTERIOR:
                    keep(p0, p1, table[d2], down, up, kind)
    return tuple(records.values())


def _negated(facet):
    f = facet.functional
    negated = functionals.Functional(f.window, tuple(-c for c in f.cells), f.case, f.anchor)
    return functionals.BoundaryFacet(facet.removed, facet.kind, negated)


def _matrix_of(facets):
    """A _FacetMatrix of these facets' records that hands out these very facets."""
    facets = tuple(facets)
    records = tuple((f.functional.cells, f.kind, f.functional.case, f.functional.anchor) for f in facets)
    matrix = functionals._FacetMatrix(facets[0].functional.window, records)
    matrix._built.update(enumerate(facets))
    return matrix


def _use_facets(monkeypatch, facets):
    """Make verify_fan_convexity and membership read these facets, packed,
    on their window; every other window keeps its own."""
    built = _matrix_of(facets)
    real = functionals._facet_columns
    monkeypatch.setattr(functionals, "_facet_columns", lambda w: built if w == built.window else real(w))
    return built


def _first_negative_pair(facets, diagrams):
    """Every pair in exact arithmetic, hyperplanes in order, then diagrams."""
    for facet in facets:
        for p in diagrams:
            value = facet.functional(p.betti)
            if value < 0:
                return facet, p, value
    return None


def _fields(packing, acc, size):
    return [packing.field(acc, k) for k in range(size)]


def _pure_packing(facets, diagrams):
    """A packing of these facets wide enough for every pure diagram given."""
    matrix = _matrix_of(facets)
    return matrix.packing(max(sum(x for _, x in p._integer[1]) for p in diagrams))


# the windows of the route-agreement sweeps: n <= 4, width <= 2, every s_min,
# and a window below degree zero
PACKED_SWEEP = [Window(n, 0, width, s) for n in range(5) for width in range(3) for s in range(n + 1)]
PACKED_SWEEP.append(Window(3, -1, 1, 0))
INJECTED = (Window(2, 0, 2, 0), Window(3, 0, 2, 1), Window(3, -1, 1, 0))


class TestWindowCount:
    def test_closed_form_is_the_table_size(self):
        for w in PACKED_SWEEP:
            assert poset._diagram_count(w) == len(_diagrams(w)), w

    def test_documented_counts(self):
        # counted without building: the last is the derived window of
        # {"n": 12, "entries": [[0, -15, "1"], [1, 10, "1"]]}
        for w, count in (
            (Window(3, 0, 3, 0), 69),
            (Window(5, 0, 4, 0), 461),
            (Window(6, 0, 5, 0), 1_715),
            (Window(5, 0, 12, 1), 27_118),
            (Window(12, -15, 9, 1), 5_414_950_270),
        ):
            assert poset._diagram_count(w) == count, w
        assert poset._diagram_count(Window(5, 0, 12, 1)) < poset._MAX_DIAGRAMS


class TestPackedMatrix:
    def test_columns_unpack_to_the_coefficients(self):
        # one unit entry at each grid position reads every facet's
        # coefficient there; positions where all of them vanish have no column
        for w in PACKED_SWEEP:
            matrix = functionals._facet_columns(w)
            facets = matrix.facets
            assert list(facets) == boundary_facets(w)
            packing = matrix.packing(1)
            dense = {
                (i, j): [f.functional.coefficient(i, j) for f in facets]
                for i in range(w.n + 1)
                for j in range(w.M + i, w.N + i + 1)
            }
            assert set(packing.columns) == {pos for pos, column in dense.items() if any(column)}, w
            for pos, column in dense.items():
                assert _fields(packing, packing.read([(pos, 1)]), len(facets)) == column, (w, pos)

    def test_fields_are_scaled_exact_values(self):
        # every (hyperplane, pure diagram) pair: field k on p is
        # facets[k].functional(p.betti) times p's L, in int
        for w in PACKED_SWEEP:
            facets = functionals._facet_columns(w).facets
            diagrams = list(w.pure_diagrams())
            packing = _pure_packing(facets, diagrams)
            for p in diagrams:
                scale = math.lcm(*(v.denominator for _, v in p.betti.items()))
                acc = packing.read(p._integer[1])
                values = _fields(packing, acc, len(facets))
                exact = [facet.functional(p.betti) for facet in facets]
                assert all(type(v) is int for v in values), (w, p)
                assert values == [x * scale for x in exact], (w, p)
                assert packing.first_negative(acc) is None, (w, p)
                assert (acc & packing.bias) == packing.bias, (w, p)

    @pytest.mark.parametrize("w", INJECTED, ids=str)
    @pytest.mark.parametrize("step", [1, 3], ids=["all-negated", "every-third-negated"])
    def test_injected_negations_flag_the_exact_pairs(self, monkeypatch, w, step):
        facets = [_negated(f) if k % step == 0 else f for k, f in enumerate(boundary_facets(w))]
        diagrams = list(w.pure_diagrams())
        packing = _pure_packing(facets, diagrams)
        flagged = set()
        for p in diagrams:
            acc = packing.read(p._integer[1])
            values = _fields(packing, acc, len(facets))
            negative = [k for k, v in enumerate(values) if v < 0]
            assert packing.first_negative(acc) == (negative[0] if negative else None), (w, p)
            assert ((acc & packing.bias) == packing.bias) == (not negative), (w, p)
            flagged |= {(k, p) for k in negative}
        exact = {(k, p) for k, f in enumerate(facets) for p in diagrams if f.functional(p.betti) < 0}
        assert flagged == exact and exact, w
        _use_facets(monkeypatch, facets)
        report = verify_fan_convexity(w)
        assert not report.passed
        assert report.counterexample == _first_negative_pair(facets, diagrams), w
        assert report.counterexample[0] is facets[min(k for k, _ in exact)], w

    def test_large_entries_widen_the_packing(self, monkeypatch):
        # a member and a near-miss scaled by 10^40: both read past a width
        # packed for pure diagrams, so the matrix is packed again, wider
        w = Window(3, 0, 2, 1)
        matrix = _use_facets(monkeypatch, boundary_facets(w))
        facets = matrix.facets
        chain = next(iter(maximal_chains(w)))
        big = 10**40
        member = BettiDiagram(3, {})
        for k, p in enumerate(chain):
            member = member + p.betti.scaled(big * (k + 1))
        near = member - chain[3].betti.scaled(big * 4 + 1)
        assert verify_fan_convexity(w).passed
        narrow = matrix.packing(0).width
        for b, expected in ((member, True), (near, False)):
            result = membership_by_inequalities(b, w)
            exact = [f.functional(b) for f in facets]
            assert result.member is expected is all(v >= 0 for v in exact)
            if not expected:
                k = next(k for k, v in enumerate(exact) if v < 0)
                assert result.violated is facets[k]
                assert type(result.value) is Fraction and result.value == exact[k]
        # the widened packing is the one kept: small entries read it too
        wide = matrix.packing(sum(abs(x) for _, x in member._integer[1]))
        assert wide.width > narrow and matrix.packing(0) is wide

    def test_widening_at_least_doubles(self):
        # a reading one bit past the kept width packs at twice that width,
        # a reading far past it at the width it needs, and either is kept
        w = Window(3, 0, 2, 1)
        matrix = functionals._FacetMatrix(w, functionals._records(w))
        top = max(abs(c) for cells, *_ in matrix.records for c in cells)
        # wider than one byte, where twice the width is more than one byte more
        total = 1 << 20
        narrow = matrix.packing(total)
        assert narrow.width > 8
        while (top * total).bit_length() + 2 <= narrow.width:
            total *= 2
        wide = matrix.packing(total)
        assert wide.width == 2 * narrow.width and matrix.packing(1) is wide
        far = 10**60
        needed = -(-((top * far).bit_length() + 2) // 8) * 8
        assert needed > 2 * wide.width
        widest = matrix.packing(far)
        assert widest.width == needed and matrix.packing(total) is widest

    def test_wide_membership_leaves_the_fan_packing(self, monkeypatch):
        # verify_fan_convexity reads through a packing as wide as a cold
        # window's, whether a membership call on a large diagram came
        # before or after its first run
        w = Window(4, 0, 2, 0)
        big = 10**40
        member = BettiDiagram(4, {})
        for k, p in enumerate(next(iter(maximal_chains(w)))):
            member = member + p.betti.scaled(big * (k + 1))
        widths = []
        read = Packing.read

        def spy(packing, entries):
            widths.append(packing.width)
            return read(packing, entries)

        monkeypatch.setattr(Packing, "read", spy)

        def fan_widths():
            widths.clear()
            report = verify_fan_convexity(w)
            assert report.passed and report.diagrams_checked == len(list(w.pure_diagrams()))
            return set(widths)

        functionals._facet_columns.cache_clear()
        cold = fan_widths()
        widths.clear()
        assert membership_by_inequalities(member, w).member
        assert min(widths) > max(cold)
        assert fan_widths() == cold
        functionals._facet_columns.cache_clear()
        assert membership_by_inequalities(member, w).member
        assert fan_widths() == cold


def _count_facet_objects(monkeypatch):
    """Record every BoundaryFacet and Functional the functionals module builds."""
    built = []
    for name in ("BoundaryFacet", "Functional"):
        real = getattr(functionals, name)
        monkeypatch.setattr(functionals, name, lambda *args, real=real: built.append(real) or real(*args))
    return built


def _cold():
    """Drop every kept layer, and every live one from the registry a build
    reads its siblings from, so that the next build computes each grid."""
    functionals._facet_columns.cache_clear()
    functionals._live_layers.clear()


class TestFacetRecords:
    def test_one_build_serves_every_reader(self, monkeypatch, capsys):
        # the CLI listing, the fan check, membership (a wide diagram too) and
        # the facet list of one window read one build of its records,
        # whichever of them comes first
        calls = []
        real = functionals._records
        monkeypatch.setattr(functionals, "_records", lambda w: calls.append(w) or real(w))
        w = Window(3, 0, 2, 1)
        chain = next(iter(maximal_chains(w)))
        small = chain[0].betti + chain[-1].betti
        big = chain[1].betti.scaled(10**40) + chain[-2].betti
        readers = [
            lambda: cli.run(["--format", "json", "facets", "--n", "3", "--M", "0", "--N", "2", "--s", "1"]) == 0,
            lambda: verify_fan_convexity(w).passed,
            lambda: membership_by_inequalities(small, w).member and membership_by_inequalities(big, w).member,
            lambda: len(boundary_facets(w)) == len(functionals._facet_columns(w).records),
        ]
        for first in range(len(readers)):
            _cold()
            calls.clear()
            for read in readers[first:] + readers[:first]:
                assert read(), first
            assert calls == [w], first
        capsys.readouterr()

    def test_second_window_keeps_the_first(self, capsys):
        # another window's build, listing and checks leave the first one's
        # layer in place: the same matrix, records and kept packing
        _cold()
        w, other = Window(3, 0, 2, 1), Window(2, 0, 2, 0)
        matrix = functionals._facet_columns(w)
        records, packing = matrix.records, matrix.packing(1)
        assert boundary_facets(other) and verify_fan_convexity(other).passed
        assert cli.run(["--format", "json", "facets", "--n", "2", "--M", "0", "--N", "2", "--s", "0"]) == 0
        assert membership_by_inequalities(other.max_element().betti, other).member
        capsys.readouterr()
        assert functionals._facet_columns(w) is matrix
        assert matrix.records is records and matrix.packing(1) is packing

    def test_duplicate_triples_keep_the_first(self, monkeypatch):
        # distinct cover triples that give one coefficient vector: the
        # first in facet order keeps its record
        calls = []
        real = functionals._coefficients
        monkeypatch.setattr(functionals, "_coefficients", lambda *args: calls.append(args) or real(*args))
        for w, triples, kept in ((Window(2, 0, 4, 0), 91, 88), (Window(3, 0, 3, 0), 121, 119)):
            _cold()
            calls.clear()
            records = functionals._records(w)
            assert (len(calls), len(records)) == (triples, kept), w
            first = {}
            for p0, p1, down, up, _ in calls:
                first.setdefault(real(p0, p1, down, up, w)[0], p1)
            assert [anchor[1] for _, _, _, anchor in records] == list(first.values()), w

    def test_passing_fan_check_and_listing_build_no_facet(self, monkeypatch, capsys):
        built = _count_facet_objects(monkeypatch)
        _cold()
        for w in (*INJECTED, Window(0, 0, 0, 0)):
            assert verify_fan_convexity(w).passed
            argv = ["facets", "--n", str(w.n), "--M", str(w.M), "--N", str(w.N), "--s", str(w.s_min)]
            for fmt in ("json", "table"):
                assert cli.run(["--format", fmt, *argv]) == 0
        capsys.readouterr()
        assert built == []
        # listing builds each facet once, a BoundaryFacet and its Functional
        w = INJECTED[1]
        facets = boundary_facets(w)
        assert len(built) == 2 * len(facets)
        assert all(a is b for a, b in zip(boundary_facets(w), facets))
        assert len(built) == 2 * len(facets)

    def test_certificate_is_the_listed_facet(self):
        # membership first, then the list, and the other way round: the
        # violated facet is the one listed at its index
        rng = random.Random(24)
        for list_first, w in ((False, Window(3, 0, 2, 1)), (True, Window(2, 0, 2, 0))):
            _cold()
            diagrams = list(w.pure_diagrams())
            if list_first:
                listed = boundary_facets(w)
            violated = 0
            for _ in range(20):
                b = BettiDiagram(w.n, {})
                for p in (diagrams[0], diagrams[-1], *rng.sample(diagrams, 2)):
                    b = b + p.betti.scaled(rng.randint(1, 9))
                b = b - rng.choice(diagrams).betti.scaled(rng.randint(1, 30))
                result = membership_by_inequalities(b, w)
                if not list_first:
                    listed = boundary_facets(w)
                exact = [f.functional(b) for f in listed]
                negative = [k for k, v in enumerate(exact) if v < 0]
                assert result.member is (not negative), (w, b)
                if negative:
                    violated += 1
                    assert result.violated is listed[negative[0]], (w, b)
                    assert result.value == exact[negative[0]], (w, b)
            assert violated, w

    def test_counterexample_is_the_listed_facet(self, monkeypatch):
        # a matrix of negated records, none built yet: the counterexample
        # and the list hand out the one facet built from its record
        w = Window(3, 0, 2, 1)
        records = tuple(
            (tuple(-c for c in cells), kind, case, anchor)
            for cells, kind, case, anchor in functionals._facet_columns(w).records
        )
        matrix = functionals._FacetMatrix(w, records)
        monkeypatch.setattr(functionals, "_facet_columns", lambda v: matrix if v == w else None)
        built = _count_facet_objects(monkeypatch)
        report = verify_fan_convexity(w)
        assert not report.passed and report.facets_checked == len(records)
        assert len(built) == 2  # the counterexample's facet and its functional
        # the first negative pair, hyperplanes in order, then diagrams
        k, q = next(
            (k, q)
            for k, (cells, _, case, anchor) in enumerate(records)
            for q in w.pure_diagrams()
            if functionals.Functional(w, cells, case, anchor)(q.betti) < 0
        )
        facet, p, value = report.counterexample
        assert p is q
        assert facet is boundary_facets(w)[k] is matrix.facet(k)
        cells, kind, case, anchor = records[k]
        assert (facet.removed, facet.kind) == (anchor[1], kind)
        assert facet.functional.cells is cells
        assert (facet.functional.case, facet.functional.anchor) == (case, anchor)
        assert value == facet.functional(p.betti) < 0


# the windows of the perfbench ``windows`` workload: 26 windows in 10 groups
# that differ only in s_min
WORKLOAD_WINDOWS = [
    Window(n, 0, width, s) for n, width in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)) for s in range(n + 1)
]
WORKLOAD_WINDOWS += [Window(2, 0, 3, 2), Window(3, 0, 2, 1), Window(3, 0, 2, 2), Window(3, 0, 2, 3), Window(4, 0, 2, 4)]


def _degrees(anchor):
    return tuple(None if p is None else tuple(p.degrees) for p in anchor)


def _content(records):
    """Records as plain data, in order: cells, kind, case, anchor degrees."""
    return [(cells, kind, case, _degrees(anchor)) for cells, kind, case, anchor in records]


def _spy_coefficients(monkeypatch):
    """Record the triple of every _coefficients call: the degrees of p0 and
    p1 and the cell p1 -> p2 vacates."""
    calls = []
    real = functionals._coefficients

    def spy(p0, p1, down, up, w):
        calls.append((None if p0 is None else tuple(p0.degrees), tuple(p1.degrees), up))
        return real(p0, p1, down, up, w)

    monkeypatch.setattr(functionals, "_coefficients", spy)
    return calls


class TestSiblingGrids:
    @pytest.mark.parametrize("n", range(5))
    def test_records_equal_a_cold_build_in_either_order(self, monkeypatch, n):
        # every window with this n, width <= 3 and every s_min, built with
        # its siblings cached in ascending and in descending s_min order:
        # its records are a cold build's, and a grid is computed exactly
        # for the triples no sibling built before it keeps
        calls = _spy_coefficients(monkeypatch)
        for width in range(4):
            group = [Window(n, 0, width, s) for s in range(n + 1)]
            cold, triples, kept = {}, {}, {}
            for w in group:
                _cold()
                calls.clear()
                records = functionals._records(w)
                cold[w], triples[w] = _content(records), set(calls)
                kept[w] = {
                    (d0, d1, None if d2 is None else poset._cell(d1, d2, w))
                    for d0, d1, d2 in (_degrees(anchor) for _, _, _, anchor in records)
                }
            for order in (group, group[::-1]):
                _cold()
                calls.clear()
                for w in order:
                    assert _content(functionals._facet_columns(w).records) == cold[w], (w, order)
                expected = [t for k, w in enumerate(order) for t in triples[w] if not any(t in kept[v] for v in order[:k])]
                assert sorted(calls, key=repr) == sorted(expected, key=repr), (n, width, order)
            if n and width:
                assert len(calls) < sum(map(len, triples.values())), (n, width)

    @pytest.mark.parametrize("reverse", [False, True], ids=["listed", "reversed"])
    def test_workload_windows_compute_232_of_405_grids(self, monkeypatch, reverse):
        # 405 hyperplanes, 173 of them another s_min's grid of the same triple
        calls = _spy_coefficients(monkeypatch)
        _cold()
        windows = WORKLOAD_WINDOWS[::-1] if reverse else WORKLOAD_WINDOWS
        hyperplanes = sum(len(functionals._facet_columns(w).records) for w in windows)
        assert (len(calls), hyperplanes) == (232, 405)

    def test_cleared_layers_are_not_read(self, monkeypatch):
        # the registry holds layers weakly: once the cache drops a sibling,
        # a build computes every grid again
        calls = _spy_coefficients(monkeypatch)
        w, sibling = Window(3, 0, 2, 1), Window(3, 0, 2, 0)
        _cold()
        functionals._records(w)
        cold = len(calls)
        functionals._facet_columns(sibling)
        assert set(functionals._live_layers) == {(3, 0, 2, 0)}
        calls.clear()
        functionals._records(w)
        assert len(calls) < cold
        functionals._facet_columns.cache_clear()
        assert not functionals._live_layers
        calls.clear()
        functionals._facet_columns(w)
        assert len(calls) == cold
        assert set(functionals._live_layers) == {(3, 0, 2, 1)}


def _sparse_from_rule(p0, p1, p2, w):
    """A triple's nonzero coefficients ((i, deg), c) in (i, deg) order,
    written straight from its coefficient rule."""
    down = None if p0 is None else functionals._step(p0, p1, w)
    up = None if p2 is None else functionals._step(p1, p2, w)
    case, a, b = functionals._rule(None if p0 is None else p0.degrees, p1, down, up, w)
    if case is FunctionalCase.ENTRY:
        return ((a, b),)
    return tuple(
        ((i, deg), -v if i & 1 else v)
        for i, limit in enumerate(b)
        for deg, v in zip(range(w.M + i, limit + 1), a[i:limit - w.M + 1])
        if v
    )


class TestGridLayout:
    @pytest.mark.parametrize("w", [*PACKED_SWEEP, Window(3, 0, 3, 0)], ids=str)
    def test_records_are_flat_grids_of_the_rule(self, w):
        # a record's cells are the window's grid, row = j - i - M, column = i,
        # row-major: the facet handed out stores them, reads them back as
        # the rule's coefficients and shows them row by row
        records = functionals._facet_columns(w).records
        facets = boundary_facets(w)
        cols = w.n + 1
        assert len(facets) == len(records)
        for (cells, kind, case, anchor), facet in zip(records, facets):
            assert len(cells) == w.rows * cols and facet.functional.cells is cells
            sparse = _sparse_from_rule(*anchor, w)
            assert facet.functional.coefficients == sparse, (w, anchor)
            rows = [[0] * cols for _ in range(w.rows)]
            for (i, j), c in sparse:
                rows[j - i - w.M][i] = c
                assert facet.functional.coefficient(i, j) == c, (w, anchor, i, j)
            assert facet.functional.grid() == rows == [list(cells[r * cols:(r + 1) * cols]) for r in range(w.rows)]
            built = coefficient_functional(*anchor, w)
            assert built == facet.functional and built.grid() == rows, (w, anchor)
            assert (facet.removed, facet.kind, facet.functional.case) == (anchor[1], kind, case)

    def test_constructor_checks_the_cells(self):
        # a short or long tuple, or a column index past n, would read the
        # wrong row of the flat grid; a list or a non-int cell is refused too
        f = boundary_facets(Window(2, 0, 1, 0))[0].functional
        assert len(f.cells) == 6 and f.coefficient(3, 3) == 0
        head = f.cells[:-1]
        for cells in (head, (*f.cells, 0), (), list(f.cells), (*head, 1.0), (*head, Fraction(1)), (*head, "1")):
            with pytest.raises(WindowMismatch, match="one int per grid cell"):
                functionals.Functional(f.window, cells, f.case, f.anchor)
        with pytest.raises(WindowMismatch):
            functionals.Functional((2, 0, 1, 0), f.cells, f.case, f.anchor)
        assert functionals.Functional(f.window, (*head, 7), f.case, f.anchor).coefficient(2, 3) == 7


class TestConvexity:
    def test_failure_reports_exact_value(self, monkeypatch):
        w = Window(3, 0, 2, 1)
        bad = _negated(boundary_facets(w)[3])
        _use_facets(monkeypatch, [bad])
        report = verify_fan_convexity(w)
        assert not report.passed
        assert (report.facets_checked, report.diagrams_checked) == (1, len(list(w.pure_diagrams())))
        facet, p, value = report.counterexample
        assert facet is bad
        assert type(value) is Fraction and value == bad.functional(p.betti) == Fraction(-1, 6)
        assert report.counterexample == _first_negative_pair([bad], list(w.pure_diagrams()))

    def test_failure_is_first_negative_pair_in_facet_order(self, monkeypatch):
        for w in (Window(2, 0, 2, 0), Window(3, 0, 2, 1), Window(3, -1, 1, 0)):
            facets = boundary_facets(w)
            diagrams = list(w.pure_diagrams())
            # negate two hyperplanes, the later one positive on an earlier diagram
            first = [next(i for i, p in enumerate(diagrams) if f.functional(p.betti) > 0) for f in facets]
            a, b = next((a, b) for b in range(len(facets)) for a in range(b) if first[b] < first[a])
            mixed = [_negated(f) if k in (a, b) else f for k, f in enumerate(facets)]
            _use_facets(monkeypatch, mixed)
            report = verify_fan_convexity(w)
            assert not report.passed
            assert report.counterexample[:2] == (mixed[a], diagrams[first[a]]), w
            assert report.counterexample == _first_negative_pair(mixed, diagrams), w

    def test_small_windows_pass(self):
        for w in (Window(2, 0, 1, 0), Window(3, 0, 2, 0), Window(3, 0, 2, 1)):
            report = verify_fan_convexity(w)
            assert report.passed, report.counterexample

    def test_degenerate_window_checks_its_one_facet(self):
        report = verify_fan_convexity(Window(0, 0, 0, 0))
        assert report.passed and report.facets_checked == 1

    def test_translation_invariance_spot_check(self):
        for M in (-2, 1):
            report = verify_fan_convexity(Window(2, M, M + 1, 0))
            assert report.passed

    def test_window_beyond_chain_enumeration(self):
        # 1,662,804 maximal chains: more than the old enumeration cap
        report = verify_fan_convexity(Window(4, 0, 3, 0))
        assert report.passed, report.counterexample
        assert report.facets_checked == 242


class TestMembership:
    def test_quotient_is_member(self, quotient_diagram):
        w = derived_window(quotient_diagram)
        assert w == Window(3, 0, 2, 1)
        assert membership_by_inequalities(quotient_diagram, w).member

    def test_pure_diagram_is_member(self):
        p = pure_diagram((0, 2, 3), 3)
        b = p.betti
        assert membership_by_inequalities(b, derived_window(b)).member

    def test_broken_quotient_has_certificate(self, quotient_diagram):
        entries = dict(quotient_diagram.items())
        del entries[(1, 2)]
        broken = BettiDiagram(3, entries)
        w = derived_window(broken)
        assert w.s_min == 0  # removing the syzygies also breaks the first equation
        result = membership_by_inequalities(broken, w)
        assert not result.member
        assert result.value < 0
        assert result.violated.functional(broken) == result.value

    def test_negative_multiple_of_single_window_diagram_is_not_member(self):
        b = BettiDiagram(2, {(0, 0): -1, (1, 1): -2, (2, 2): -1})  # -2 * pi(0, 1, 2)
        w = derived_window(b)
        assert w == Window(2, 0, 0, 2)
        result = membership_by_inequalities(b, w)
        assert not result.member
        assert result.value == -2

    @pytest.mark.parametrize(
        "n, entries",
        [(1, {(0, 0): 1, (1, 0): 1}), (2, {(0, 1): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1})],
    )
    def test_vanishing_numerator_is_not_a_member(self, n, entries):
        # a zero numerator satisfies every Herzog-Kuhl equation, so the
        # derived window takes s_min = n, and a facet certifies it
        b = BettiDiagram(n, entries)
        with pytest.raises(UndefinedOnZero):
            codimension(b)
        w = derived_window(b)
        assert w == Window(n, *window_of(b), n)
        result = membership_by_inequalities(b, w)
        assert not result.member
        assert result.value < 0 and result.violated.functional(b) == result.value
        assert any(f is result.violated for f in boundary_facets(w))

    def test_requires_subspace(self, quotient_diagram):
        with pytest.raises(NotInSubspace):
            membership_by_inequalities(quotient_diagram, Window(3, 0, 2, 2))

    def test_requires_window_support(self, quotient_diagram):
        with pytest.raises(WindowMismatch):
            membership_by_inequalities(quotient_diagram, Window(3, 0, 1, 1))


def subspace_by_residuals(b, w):
    """The residual route of the subspace check, kept as its reference:
    rows by the sorted support, then the s_min Herzog-Kuhl residuals."""
    if b.n != w.n:
        raise WindowMismatch(f"diagram has n={b.n}, window has n={w.n}")
    for i, j in b.support():
        if not w.M <= j - i <= w.N:
            raise WindowMismatch(f"entry at ({i}, {j}) lies outside rows [{w.M}, {w.N}]")
    residuals = hk_residuals(b, w.s_min)
    if any(residuals):
        raise NotInSubspace(f"diagram violates the first {w.s_min} Herzog-Kuhl equations", residuals)


def check_outcome(check, b, w):
    """None when the check passes, else the error's class, message and residuals."""
    try:
        check(b, w)
    except (WindowMismatch, NotInSubspace) as exc:
        return type(exc), str(exc), getattr(exc, "residuals", None)
    return None


def subspace_diagrams(rng):
    """Seeded diagrams, n <= 5, for the subspace check: combinations of pure
    diagrams of one codimension (so at or above it), perturbed ones, random
    tables with negative entries and degrees, zero-numerator tables and the
    zero diagram, each once."""
    out = []
    for _ in range(320):
        n = rng.randint(0, 5)
        M = rng.randint(-3, 2)
        width = rng.randint(0, 2)
        kind = rng.randrange(4)
        entries = {}
        if kind < 2:
            s = rng.randint(0, n)
            seqs = list(_diagrams(Window(n, M, M + width, s)))
            for d in rng.sample(seqs, min(len(seqs), rng.randint(1, 3))):
                if len(d) - 1 != s and rng.random() < 0.5:
                    continue
                c = rng.choice((1, 2, Fraction(1, 3), -1))
                for pos, v in pure_diagram(d, n).betti.items():
                    entries[pos] = entries.get(pos, 0) + c * v
            if kind == 1:
                i = rng.randint(0, n)
                pos = (i, i + rng.randint(M - 1, M + width + 1))
                entries[pos] = entries.get(pos, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        elif kind == 2:
            for _ in range(rng.randint(1, 5)):
                i = rng.randint(0, n)
                entries[(i, i + rng.randint(M, M + width))] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        elif n:
            # beta[0, j] and beta[1, j] equal: the numerator vanishes
            j = rng.randint(M, M + width)
            v = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            entries = {(0, j): v, (1, j): v}
        out.append(BettiDiagram(n, entries))
    out.append(BettiDiagram(3, {}))
    return list(dict.fromkeys(out))


class TestIntegerSubspaceCheck:
    """The subspace check reads the diagram's kept window and codimension;
    the residual route is its reference."""

    def windows_for(self, b, rng):
        n = b.n
        if b.is_zero:
            M, N = rng.randint(-2, 1), rng.randint(1, 3)
        else:
            M, N = window_of(b)
        bounds = {(M, N), (M - 1, N), (M, N + 1), (M + 1, max(M + 1, N)), (M, max(M, N - 1)), (M - 2, N + 2)}
        out = [Window(n, lo, hi, s) for lo, hi in bounds for s in range(n + 1)]
        out.append(Window(n + 1, M, N, 0))
        return out

    def test_same_outcome_as_the_residual_route(self):
        rng = random.Random(25)
        seen = set()
        pairs = 0
        for b in subspace_diagrams(rng):
            n, entries = b.n, b._integer
            for w in self.windows_for(b, rng):
                expected = check_outcome(subspace_by_residuals, BettiDiagram._reduced(n, *entries), w)
                # on a fresh diagram, and on one whose window and peel are kept
                fresh = BettiDiagram._reduced(n, *entries)
                assert check_outcome(functionals._check_in_subspace, fresh, w) == expected, (b, w)
                assert check_outcome(functionals._check_in_subspace, b, w) == expected, (b, w)
                seen.add(None if expected is None else expected[0])
                if not b.is_zero and w.n == n:
                    try:
                        codim = codimension(b)
                    except UndefinedOnZero:
                        codim = None
                    if codim is not None:
                        seen.add(("codimension", (codim > w.s_min) - (codim < w.s_min)))
                pairs += 1
        assert pairs > 5000
        # every outcome, and codimension below, at and above s_min
        assert {None, WindowMismatch, NotInSubspace} <= seen
        assert {("codimension", -1), ("codimension", 0), ("codimension", 1)} <= seen

    def test_codimension_counts_the_vanishing_residuals(self):
        rng = random.Random(26)
        zero_numerators = 0
        for b in subspace_diagrams(rng):
            if b.is_zero:
                continue
            try:
                codim = codimension(b)
            except UndefinedOnZero:
                # a zero numerator satisfies every equation
                zero_numerators += 1
                assert not any(hk_residuals(b, b.n + 2)), b
                continue
            for s in range(b.n + 2):
                assert (codim >= s) == (not any(hk_residuals(b, s))), (b, s)
        assert zero_numerators

    def test_one_peel_and_one_window_pass_per_diagram(self, monkeypatch):
        peels, passes = [], []
        real_peel, real_window = core._order_at_one, core._window
        monkeypatch.setattr(core, "_order_at_one", lambda *args: peels.append(1) or real_peel(*args))
        monkeypatch.setattr(core, "_window", lambda b: passes.append(1) or real_window(b))
        rng = random.Random(27)
        diagrams = 0
        for w in (Window(2, 0, 1, 0), Window(3, 0, 2, 1), Window(3, -1, 1, 2)):
            chains = list(maximal_chains(w))
            for _ in range(5):
                chain = rng.choice(chains)
                entries = {}
                for p in rng.sample(chain.elements, 3):
                    c = rng.randint(1, 4)
                    for pos, v in p.betti.items():
                        entries[pos] = entries.get(pos, 0) + c * v
                b = BettiDiagram(w.n, entries)
                peels.clear()
                passes.clear()
                window = derived_window(b)
                assert membership_by_inequalities(b, window).member
                assert codimension(b) == window.s_min
                assert multiplicity(b) > 0
                assert derived_window(b) == window
                assert (len(peels), len(passes)) == (1, 1), b
                diagrams += 1
        assert diagrams == 15


class TestInvariantsRaise:
    """Internal invariants raise under ``python -O`` too."""

    def test_indicator_needs_a_unit_fraction(self):
        # below the window minimum with p1 -> p2 vacating a cell of column 1,
        # the functional is 6 times p1's entry at (1, 2)
        w = Window(3, 0, 5, 0)
        p = pure_diagram((0, 2, 3, 5), 3)
        assert functionals._rule(None, p, None, (0, 1), w) == (FunctionalCase.ENTRY, (1, 2), 6)
        # the indicator reads its element's integer form: one whose entry at
        # (1, 2) is 5, as the normalized diagram's is, is not a unit fraction
        normalized = normalize(p)
        assert normalized.betti[(1, 2)] == 5
        stand_in = SimpleNamespace(codimension=3, degrees=p.degrees, _integer=normalized.betti._integer)
        with pytest.raises(InvariantViolated, match="not a unit fraction"):
            functionals._rule(None, stand_in, None, (0, 1), w)
        # a position that is not one of the integer form's entries
        stand_in = SimpleNamespace(codimension=3, degrees=(0, 3, 4, 5), _integer=p._integer)
        with pytest.raises(InvariantViolated, match="not a unit fraction"):
            functionals._rule(None, stand_in, None, (0, 1), w)

    def test_formula_must_be_one_on_its_element(self, monkeypatch):
        # pi(2, 3, 4, 5) < pi(2, 3, 4) < pi(2, 3): two drops, the fourth formula
        w = Window(3, 0, 2, 0)
        p0, p1, p2 = pure_diagram((2, 3, 4, 5), 3), pure_diagram((2, 3, 4), 3), pure_diagram((2, 3), 3)
        down, up = functionals._step(p0, p1, w), functionals._step(p1, p2, w)
        case, values, limits = functionals._rule(p0.degrees, p1, down, up, w)
        assert case is FunctionalCase.FOURTH
        assert coefficient_functional(p0, p1, p2, w)(p1.betti) == 1
        # the same rule with prefactor 2 reads 2 on p1
        doubled = (case, [2 * v for v in values], limits)
        monkeypatch.setattr(functionals, "_rule", lambda *args: doubled)
        with pytest.raises(InvariantViolated, match="fourth formula is 2 on"):
            coefficient_functional(p0, p1, p2, w)

    def test_chain_expansion_residual_must_vanish_in_the_subspace(self, monkeypatch):
        # a maximal chain is a basis, so only a diagram outside the subspace
        # leaves a residual; with its check skipped that reads as a defect
        w = Window(3, 0, 2, 1)
        chain = next(iter(maximal_chains(w)))
        monkeypatch.setattr(functionals, "_check_in_subspace", lambda b, w: None)
        with pytest.raises(InvariantViolated, match="not a basis"):
            expand_in_chain(BettiDiagram(3, {(0, 0): 1}), chain)

    def test_unique_middle_must_not_read_interior(self, monkeypatch):
        # pi(0, 2, 3, 4) < pi(1, 2, 3) has two middles, an interior gap;
        # reporting only one of them breaks the classification invariant
        w = Window(3, 0, 1, 0)
        chain = next(c for c in maximal_chains(w) if c[4].degrees == (1, 2, 3, 4) and c[5].degrees == (1, 2, 3))
        partial = Chain(chain.elements[:4] + chain.elements[5:], w)
        assert classify_facet(partial) is FacetKind.INTERIOR
        real = functionals._middles
        monkeypatch.setattr(functionals, "_middles", lambda a, c, w: real(a, c, w)[:1])
        with pytest.raises(InvariantViolated):
            classify_facet(partial)
