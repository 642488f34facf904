"""Dual functionals, expansion, facet classification, convexity, membership."""

import math
import random
from fractions import Fraction
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
from bettidecomp import functionals
from bettidecomp.errors import InvariantViolated, NotACoverTriple, NotInSubspace, WindowMismatch
from bettidecomp.functionals import derived_window
from bettidecomp.poset import _below, _moves


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
                        value = sum(f.coefficient(*pos) * v for pos, v in q._integer_entries)
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
        # every cover triple through a diagram reads its one move list
        w = Window(3, 0, 2, 0)
        calls = []
        real = functionals._cover_moves
        monkeypatch.setattr(functionals, "_cover_moves", lambda d, w: calls.append(d) or real(d, w))
        # built past the cache, which other tests' facets live in
        assert len(functionals._boundary_facets_cached.__wrapped__(w)) == 51
        assert sorted(calls) == sorted(tuple(p.degrees) for p in w.pure_diagrams())

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

    def test_window_with_24024_chains(self):
        # the chain sweep took about 40 s here
        assert len(boundary_facets(Window(3, 0, 3, 0))) == 119


def _negated(facet):
    f = facet.functional
    negated = functionals.Functional(f.window, tuple((pos, -c) for pos, c in f.coefficients), f.case, f.anchor)
    return functionals.BoundaryFacet(facet.removed, facet.kind, negated)


def _use_facets(monkeypatch, facets):
    """Make verify_fan_convexity and membership read these facets, packed."""
    built = functionals._FacetMatrix(tuple(facets))
    monkeypatch.setattr(functionals, "_facet_columns", lambda _: built)
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
    matrix = functionals._FacetMatrix(tuple(facets))
    return matrix.packing(max(sum(x for _, x in p._integer_entries) for p in diagrams))


# the windows of the route-agreement sweeps: n <= 4, width <= 2, every s_min,
# and a window below degree zero
PACKED_SWEEP = [Window(n, 0, width, s) for n in range(5) for width in range(3) for s in range(n + 1)]
PACKED_SWEEP.append(Window(3, -1, 1, 0))
INJECTED = (Window(2, 0, 2, 0), Window(3, 0, 2, 1), Window(3, -1, 1, 0))


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
                acc = packing.read(p._integer_entries)
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
            acc = packing.read(p._integer_entries)
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
        assert matrix.packing(0).width > narrow


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

    def test_requires_subspace(self, quotient_diagram):
        with pytest.raises(NotInSubspace):
            membership_by_inequalities(quotient_diagram, Window(3, 0, 2, 2))

    def test_requires_window_support(self, quotient_diagram):
        with pytest.raises(WindowMismatch):
            membership_by_inequalities(quotient_diagram, Window(3, 0, 1, 1))


class TestInvariantsRaise:
    """Internal invariants raise under ``python -O`` too."""

    def test_indicator_needs_a_unit_fraction(self):
        w = Window(3, 0, 5, 0)
        p = pure_diagram((0, 2, 3, 5), 3)
        assert functionals._indicator(p, (1, 2), w, (None, p, None)).coefficients == (((1, 2), 6),)
        # the indicator reads its element's integer form: one whose entry at
        # (1, 2) is 5, as the normalized diagram's is, is not a unit fraction
        normalized = normalize(p)
        assert normalized.betti[(1, 2)] == 5
        stand_in = SimpleNamespace(_integer=normalized.betti._integer_form())
        with pytest.raises(InvariantViolated, match="not a unit fraction"):
            functionals._indicator(stand_in, (1, 2), w, (None, None, None))
        # a position that is not one of p's entries
        with pytest.raises(InvariantViolated, match="not a unit fraction"):
            functionals._indicator(p, (1, 3), w, (None, None, None))

    def test_formula_must_be_one_on_its_element(self):
        # pi(2, 3, 4, 5) < pi(2, 3, 4) < pi(2, 3): two drops, the fourth formula
        w = Window(3, 0, 2, 0)
        p0, p1, p2 = pure_diagram((2, 3, 4, 5), 3), pure_diagram((2, 3, 4), 3), pure_diagram((2, 3), 3)
        limits = functionals._truncation_limits(p0, w)
        args = (FunctionalCase.FOURTH, p1, 1, range(2), limits, w, (p0, p1, p2))
        assert functionals._from_formula(*args)(p1.betti) == 1
        with pytest.raises(InvariantViolated):
            functionals._from_formula(FunctionalCase.FOURTH, p1, 2, *args[3:])

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
