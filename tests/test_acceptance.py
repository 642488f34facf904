"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every expected value is exact; tolerances are equality of rationals.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from bettidecomp import (
    BettiDiagram,
    Chain,
    FacetKind,
    Tableau,
    Window,
    chain_from_tableau,
    chain_length,
    check_monotonicity,
    classify_facet,
    codimension,
    coefficient_functional,
    expand_in_chain,
    greedy_decompose,
    leq,
    maximal_chains,
    membership_by_inequalities,
    multiplicity,
    normalize,
    pure_diagram,
    tableau_from_chain,
    verify_fan_convexity,
)
from bettidecomp.errors import NotInCone
from bettidecomp.functionals import derived_window
from bettidecomp.poset import _moves


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS - {description}", flush=True)


def reference_chain(dual_functionals):
    w = Window(3, 0, 2, 0)
    t = Tableau(tuple(map(tuple, dual_functionals["numbering"])))
    return chain_from_tableau(t, w), w


def test_criterion_1_quotient_decomposition(quotient_diagram):
    with criterion(1, "quotient diagram decomposes into 6, 12, 2, 1 with zero residual in < 1 s"):
        start = time.perf_counter()
        dec = greedy_decompose(quotient_diagram)
        elapsed = time.perf_counter() - start
        assert [(c, tuple(p.degrees)) for c, p in dec.terms] == [
            (Fraction(6), (0, 2, 3, 5)),
            (Fraction(12), (0, 2, 4, 5)),
            (Fraction(2), (0, 3, 4)),
            (Fraction(1), (0, 3)),
        ]
        assert dec.reconstruct() == quotient_diagram
        assert elapsed < 1.0


def test_criterion_2_pure_summand_entries(pure_summands):
    with criterion(2, "the four pure summands match the product formula entry-for-entry"):
        for term in pure_summands["terms"]:
            p = pure_diagram(tuple(term["degrees"]), pure_summands["n"])
            expected = BettiDiagram(
                pure_summands["n"], {(i, j): Fraction(v) for i, j, v in term["entries"]}
            )
            assert p.betti == expected


def test_criterion_3_functional_golden_grids(dual_functionals, quotient_diagram):
    with criterion(3, "all twelve dual functionals match the golden grids; 5, 6, 8, 9 give 6, 12, 2, 1"):
        chain, w = reference_chain(dual_functionals)
        K = len(chain)
        funcs = {}
        for k in range(1, K + 1):
            funcs[k] = coefficient_functional(
                chain[k - 2] if k >= 2 else None,
                chain[k - 1],
                chain[k] if k <= K - 1 else None,
                w,
            )
        for key, grid in dual_functionals["matrices"].items():
            assert funcs[int(key)].grid() == grid, f"matrix {key}"
        for key, value in dual_functionals["example_evaluations"]["values"].items():
            assert funcs[int(key)](quotient_diagram) == Fraction(value)
        # the sign variant recorded for matrix 5 is not a dual functional
        variant = dual_functionals["matrix_5_variant_failing_duality"]
        probe = pure_diagram((0, 1, 2, 4), 3).betti
        assert sum(variant[r][i] * probe[(i, i + r)] for r in range(3) for i in range(4)) != 0


def test_criterion_4_chain_combinatorics(five_tableaux):
    with criterion(4, "five maximal chains at n=2 window [0,1] match the five numberings; chain length 12 at n=3 window [0,2]"):
        w = Window(2, 0, 1, 0)
        chains = list(maximal_chains(w))
        assert len(chains) == 5
        got = {tableau_from_chain(c).rows for c in chains}
        expected = {tuple(map(tuple, t)) for t in five_tableaux["numberings"]}
        assert got == expected
        assert chain_length(Window(3, 0, 2, 0)) == 12


def test_criterion_5_facet_classification(dual_functionals):
    with criterion(5, "facet kinds along the reference chain: 1,12 extremal; 2,11 same-column; 4,6 adjacent; 8,9 double-drop; 3,5,7,10 interior"):
        chain, w = reference_chain(dual_functionals)
        expected = {
            1: FacetKind.EXTREMAL,
            2: FacetKind.SAME_COLUMN_TWICE,
            3: FacetKind.INTERIOR,
            4: FacetKind.ADJACENT_COLUMNS,
            5: FacetKind.INTERIOR,
            6: FacetKind.ADJACENT_COLUMNS,
            7: FacetKind.INTERIOR,
            8: FacetKind.CODIMENSION_TWICE,
            9: FacetKind.CODIMENSION_TWICE,
            10: FacetKind.INTERIOR,
            11: FacetKind.SAME_COLUMN_TWICE,
            12: FacetKind.EXTREMAL,
        }
        for k, kind in expected.items():
            partial = Chain(chain.elements[: k - 1] + chain.elements[k:], w)
            assert classify_facet(partial) == kind, f"element {k}"


def test_criterion_6_convexity_small_windows():
    with criterion(6, "fan convexity holds on every window with n <= 3, width <= 2, all s, in < 60 s"):
        start = time.perf_counter()
        for n in range(0, 4):
            for width in range(0, 3):
                for s_min in range(0, n + 1):
                    report = verify_fan_convexity(Window(n, 0, width, s_min))
                    assert report.passed, report.counterexample
        assert time.perf_counter() - start < 60.0


def test_criterion_7_duality_and_integrality(quotient_diagram):
    with criterion(7, "Kronecker duality exhaustive; 500 integer members get integer coordinates; greedy agrees with expansion and membership on members and 100 near-misses"):
        # (a) duality, exhaustive over n <= 3, width <= 2, all s
        for n in range(0, 4):
            for width in range(0, 3):
                for s_min in range(0, n + 1):
                    w = Window(n, 0, width, s_min)
                    diagrams = list(w.pure_diagrams())
                    cache = {}
                    for chain in maximal_chains(w):
                        K = len(chain)
                        for k in range(K):
                            trip = (
                                chain[k - 1] if k > 0 else None,
                                chain[k],
                                chain[k + 1] if k < K - 1 else None,
                            )
                            if trip not in cache:
                                cache[trip] = coefficient_functional(*trip, w)
                            f = cache[trip]
                            for j, other in enumerate(chain):
                                assert f(other.betti) == (1 if j == k else 0)
                            p0, _, p2 = trip
                            for q in diagrams:
                                if p0 is not None and leq(q, p0):
                                    assert f(q.betti) == 0
                                if p2 is not None and leq(p2, q):
                                    assert f(q.betti) == 0

        # (b) 500 randomized integer cone members: integer coordinates both ways
        rng = random.Random(0xBD)
        windows = [Window(3, 0, 2, 0), Window(2, 0, 2, 0), Window(3, 0, 1, 0)]
        pools = {w: list(maximal_chains(w)) for w in windows}
        for _ in range(500):
            w = rng.choice(windows)
            chain = rng.choice(pools[w])
            b = BettiDiagram(w.n, {})
            for p in rng.sample(list(chain.elements), rng.randint(1, 4)):
                scale = lcm(*(v.denominator for _, v in p.betti.items()))
                b = b + p.betti.scaled(scale * rng.randint(1, 3))
            assert all(v.denominator == 1 for _, v in b.items())
            dec = greedy_decompose(b)
            assert all(c.denominator == 1 for c, _ in dec.terms)
            assert dec.reconstruct() == b
            coords = expand_in_chain(b, chain)
            assert all(c.denominator == 1 for c in coords)

        # (c) greedy coefficients equal chain-expansion coordinates
        for _ in range(40):
            w = rng.choice(windows)
            chain = rng.choice(pools[w])
            b = BettiDiagram(w.n, {})
            for k in rng.sample(range(len(chain)), 3):
                b = b + chain[k].betti.scaled(rng.randint(1, 6))
            dec = greedy_decompose(b)
            refinement = next(c for c in pools[w] if set(dec.diagrams()) <= set(c))
            coords = expand_in_chain(b, refinement)
            expected = {tuple(p.degrees): c for c, p in dec.terms}
            for coord, element in zip(coords, refinement.elements):
                assert coord == expected.get(tuple(element.degrees), 0)

        # (d) membership by inequalities agrees with greedy success,
        #     on members and on 100 perturbed near-misses
        cases = [quotient_diagram]
        w = Window(3, 0, 2, 0)
        chains = pools[w]
        perturbed = 0
        while perturbed < 100:
            chain = rng.choice(chains)
            b = BettiDiagram(3, {})
            for k in rng.sample(range(len(chain)), 3):
                b = b + chain[k].betti.scaled(rng.randint(1, 5))
            cases.append(b)
            entries = dict(b.items())
            pos = rng.choice(sorted(entries))
            entries[pos] = entries[pos] + Fraction(rng.randint(1, 4), rng.randint(2, 7))
            cases.append(BettiDiagram(3, entries))
            perturbed += 1
        verdicts = {True: 0, False: 0}
        for b in cases:
            try:
                greedy_decompose(b)
                in_cone = True
            except NotInCone:
                in_cone = False
            assert membership_by_inequalities(b, derived_window(b)).member == in_cone
            verdicts[in_cone] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 20  # both sides exercised


def test_criterion_8_multiplicity(quotient_diagram):
    with criterion(8, "multiplicity closed form for s <= n <= 4, top shift <= 8; quotient has e = 1 < 3; Koszul attains equality 1 = 6/3!"):
        for n in range(0, 5):
            for s in range(0, n + 1):
                for seq in combinations(range(1, 9), s):
                    nd = normalize(pure_diagram((0,) + seq, n))
                    assert multiplicity(nd.betti) == Fraction(
                        math.prod(seq), math.factorial(s)
                    )
        e = multiplicity(quotient_diagram)
        beta0 = quotient_diagram[(0, 0)]
        top_shift = max(quotient_diagram.column_degrees(1))
        assert codimension(quotient_diagram) == 1
        assert e == 1 and beta0 * top_shift == 3 and e < beta0 * top_shift
        koszul = BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
        assert multiplicity(koszul) == Fraction(1 * 2 * 3, math.factorial(3)) == 1


def test_criterion_9_series_monotonicity():
    with criterion(9, "series differences of cover pairs are componentwise >= 0 and nonzero to depth 20, for n <= 3, width <= 3, in < 60 s"):
        start = time.perf_counter()
        pairs = 0
        for n in range(0, 4):
            for width in range(0, 4):
                w = Window(n, 0, width, 0)
                for p in w.pure_diagrams():
                    if p.degrees[0] != 0:
                        continue
                    for nd, _ in _moves(tuple(p.degrees), w):
                        if nd[0] != 0:
                            continue
                        report = check_monotonicity(
                            [normalize(p), normalize(pure_diagram(nd, n))], 20
                        )
                        assert report.passed, (n, width, p.degrees, nd)
                        pairs += 1
        assert pairs > 100
        assert time.perf_counter() - start < 60.0
