"""Independent oracles: exact linear algebra, translation equivariance and
three routes to cone membership.

In a full window (s_min = 0) a maximal chain is a basis of the whole grid
space, so its dual basis is unique.  Solving for it with plain Gaussian
elimination over Fraction is a route entirely disjoint from the closed
formulas and must agree bit-for-bit.
"""

import math
import random
from fractions import Fraction
from itertools import takewhile

import pytest

from bettidecomp import (
    BettiDiagram,
    Chain,
    Window,
    chain_from_tableau,
    chain_length,
    codimension,
    coefficient_functional,
    derived_window,
    expand_in_chain,
    greedy_decompose,
    hk_residuals,
    leq,
    maximal_chains,
    membership_by_inequalities,
    multiplicity,
    multiplicity_bounds,
    pure_diagram,
    tableau_from_chain,
)
from bettidecomp import core
from bettidecomp.errors import InvalidDiagram, NotInCone, UndefinedOnZero
from bettidecomp.poset import _moves


def invert_exact(matrix):
    """Gauss-Jordan inverse over Fraction; matrix is a list of rows."""
    size = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [v / factor for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                scale = aug[r][col]
                aug[r] = [v - scale * w for v, w in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def dual_basis_by_elimination(chain, w):
    """Row k of the inverse-transpose of the basis matrix = functional k."""
    positions = [(i, w.M + i + r) for r in range(w.rows) for i in range(w.n + 1)]
    basis = [[p.betti[pos] for pos in positions] for p in chain.elements]
    inverse = invert_exact(basis)  # columns of inverse = dual functionals
    return [
        {pos: inverse[row][k] for row, pos in enumerate(positions) if inverse[row][k]}
        for k in range(len(chain))
    ]


class TestDualBasisAgainstLinearAlgebra:
    def test_full_windows_bit_exact(self):
        for w in (Window(2, 0, 1, 0), Window(1, 0, 2, 0), Window(3, 0, 1, 0)):
            for chain in maximal_chains(w):
                duals = dual_basis_by_elimination(chain, w)
                K = len(chain)
                for k in range(K):
                    f = coefficient_functional(
                        chain[k - 1] if k > 0 else None,
                        chain[k],
                        chain[k + 1] if k < K - 1 else None,
                        w,
                    )
                    assert dict(f.coefficients) == duals[k], (w, k)

    def test_reference_window_sampled_chains(self, dual_functionals):
        w = Window(3, 0, 2, 0)
        chains = list(maximal_chains(w))
        rng = random.Random(2718)
        for chain in rng.sample(chains, 12):
            duals = dual_basis_by_elimination(chain, w)
            K = len(chain)
            for k in range(K):
                f = coefficient_functional(
                    chain[k - 1] if k > 0 else None,
                    chain[k],
                    chain[k + 1] if k < K - 1 else None,
                    w,
                )
                assert dict(f.coefficients) == duals[k]


def shift_diagram(b: BettiDiagram, c: int) -> BettiDiagram:
    return BettiDiagram(b.n, {(i, j + c): v for (i, j), v in b.items()})


class TestTranslationEquivariance:
    def test_pure_entries_shift_invariant(self):
        for d in [(0, 2, 3, 5), (-2, 0, 1), (1, 4)]:
            base = pure_diagram(d, 3).betti
            for c in (-3, 1, 7):
                shifted = pure_diagram(tuple(x + c for x in d), 3).betti
                assert shifted == shift_diagram(base, c)

    def test_greedy_commutes_with_shift(self, quotient_diagram):
        for c in (-2, 4):
            dec = greedy_decompose(shift_diagram(quotient_diagram, c))
            assert [(coef, tuple(p.degrees)) for coef, p in dec.terms] == [
                (6, tuple(x + c for x in (0, 2, 3, 5))),
                (12, tuple(x + c for x in (0, 2, 4, 5))),
                (2, tuple(x + c for x in (0, 3, 4))),
                (1, tuple(x + c for x in (0, 3))),
            ]

    def test_tableau_bijection_off_origin(self):
        for M in (-2, 3):
            for n in range(0, 3):
                for width in range(0, 3):
                    for s_min in range(0, n + 1):
                        w = Window(n, M, M + width, s_min)
                        if w.grid_size > 9:
                            continue
                        for chain in maximal_chains(w):
                            t = tableau_from_chain(chain)
                            rebuilt = chain_from_tableau(t, w)
                            assert rebuilt.degree_sequences() == chain.degree_sequences()

    def test_functional_grids_shift_invariant(self):
        base = Window(2, 0, 1, 0)
        for M in (-1, 5):
            shifted = Window(2, M, M + 1, 0)
            base_grids = []
            shifted_grids = []
            for w, sink in ((base, base_grids), (shifted, shifted_grids)):
                for chain in maximal_chains(w):
                    K = len(chain)
                    for k in range(K):
                        f = coefficient_functional(
                            chain[k - 1] if k > 0 else None,
                            chain[k],
                            chain[k + 1] if k < K - 1 else None,
                            w,
                        )
                        sink.append(tuple(map(tuple, f.grid())))
            assert base_grids == shifted_grids


def random_maximal_chain(rng, w, through=()):
    """A random walk up the covers of w from its minimum to its maximum,
    passing through the increasing pure diagrams ``through``."""
    cur = w.min_element()
    elements = [cur]
    for target in [*through, w.max_element()]:
        while cur != target:
            ups = [pure_diagram(d, w.n) for d, _ in _moves(tuple(cur.degrees), w)]
            cur = rng.choice([p for p in ups if leq(p, target)])
            elements.append(cur)
    assert len(elements) == chain_length(w)
    return Chain(tuple(elements), w)


def greedy_verdict(b):
    try:
        return greedy_decompose(b)
    except (NotInCone, InvalidDiagram):  # a negative entry is not in the cone
        return None


class TestMembershipRoutesAgree:
    def test_greedy_inequalities_and_chain_expansion_up_to_n6(self):
        """Greedy decomposition, the boundary-hyperplane inequalities (in the
        sampling window and in the diagram's own window) and expansion in a
        maximal chain through the greedy chain agree on random members and
        on near-misses that push one chain coordinate below zero."""
        rng = random.Random(2008)
        verdicts = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(1, 6)
            M = rng.randint(-1, 1)
            w = Window(n, M, M + rng.randint(1, 2), rng.randint(0, n))
            chain = random_maximal_chain(rng, w)
            picked = sorted(rng.sample(range(len(chain)), rng.randint(1, min(4, len(chain)))))
            coeffs = {k: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for k in picked}
            b = BettiDiagram(n, {})
            for k, c in coeffs.items():
                b = b + chain[k].betti.scaled(c)
            assert list(greedy_decompose(b).terms) == [(coeffs[k], chain[k]) for k in picked]
            k = rng.randrange(len(chain))
            near = b - chain[k].betti.scaled(coeffs.get(k, 0) + Fraction(1, rng.randint(1, 5)))
            assert expand_in_chain(near, chain)[k] < 0
            for x in (b, near):
                dec = greedy_verdict(x)
                for window in (w, derived_window(x)):
                    assert membership_by_inequalities(x, window).member == (dec is not None)
                if dec is not None:
                    refined = random_maximal_chain(rng, w, dec.diagrams())
                    expected = dict(zip(dec.diagrams(), dec.coefficients()))
                    assert expand_in_chain(x, refined) == [expected.get(p, 0) for p in refined]
                verdicts[dec is not None] += 1
        assert verdicts[True] >= 60 and verdicts[False] >= 30  # both sides exercised


class TestMultiplicityFromDecomposition:
    def test_peel_equals_codimension_terms_of_greedy(self):
        """An unnormalized pure diagram of codimension c has multiplicity
        1/c!, and the multiplicity is additive over the terms of least
        codimension.  So the (1-t) peel must read the same e as the greedy
        terms a_k * pi(d^k): the sum of a_k / c! over the terms of
        codimension c = codim(b), on Cohen-Macaulay diagrams and on
        non-Cohen-Macaulay ones (codimension < projective dimension)."""
        rng = random.Random(2009)
        kinds = {"cm": 0, "non_cm": 0}
        for _ in range(240):
            n = rng.randint(1, 6)
            w = Window(n, 0, rng.randint(1, 3), rng.randint(0, n))
            chain = random_maximal_chain(rng, w)
            generated_in_zero = [p for p in chain if p.degrees[0] == 0]
            b = BettiDiagram(n, {})
            for p in rng.sample(generated_in_zero, rng.randint(1, min(5, len(generated_in_zero)))):
                b = b + p.betti.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
            c = codimension(b)
            terms = greedy_decompose(b).terms
            e = sum((a for a, p in terms if p.codimension == c), Fraction(0)) / math.factorial(c)
            assert multiplicity(b) == e, b
            report = multiplicity_bounds(b)
            assert report.applicable and report.multiplicity_value == e, b
            assert report.generator_count == sum(a / math.prod(p.degrees[1:]) for a, p in terms)
            # the bound term by term: each codimension-c term lies under the
            # maximal shifts, so its share a_k * prod M_j / (c! prod d^k_j)
            # is at least its a_k / c!, and the shares sum to at most beta_0's
            top = report.shifts.maximal
            termwise = Fraction(0)
            for a, p in terms:
                if p.codimension == c:
                    assert all(d <= m for d, m in zip(p.degrees[1:], top)), (b, p)
                    termwise += a * Fraction(math.prod(top), math.prod(p.degrees[1:]))
            termwise /= math.factorial(c)
            assert report.multiplicity_value <= termwise <= report.multiplicity_bound, b
            assert report.multiplicity_ok
            kinds["non_cm" if c < b.projective_dimension() else "cm"] += 1
        assert kinds["cm"] >= 50 and kinds["non_cm"] >= 50  # both cases exercised


class TestPeelBySums:
    def test_power_sums_read_the_dense_peel_on_every_small_window(self):
        """codimension and multiplicity come from the Herzog-Kuhl power sums
        of b's integer numerator (core._order_at_one); the dense synthetic
        division (core._peel) is a second route to the same (s, Q(1)).  On
        every pure diagram of every window with n <= 4 and width <= 3, and
        on seeded members and near-misses of each, the two agree, and s is
        the number of leading zeros of the Herzog-Kuhl residuals."""
        rng = random.Random(2032)
        diagrams = 0
        for n in range(5):
            for width in range(4):
                for s_min in range(n + 1):
                    M = rng.randint(-2, 1)
                    w = Window(n, M, M + width, s_min)
                    pool = [p.betti for p in w.pure_diagrams()]
                    for _ in range(3):
                        chain = random_maximal_chain(rng, w)
                        picked = rng.sample(range(len(chain)), rng.randint(1, min(4, len(chain))))
                        coeffs = {k: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for k in picked}
                        b = BettiDiagram(n, {})
                        for k, c in coeffs.items():
                            b = b + chain[k].betti.scaled(c)
                        k = rng.randrange(len(chain))
                        near = b - chain[k].betti.scaled(coeffs.get(k, 0) + Fraction(1, rng.randint(1, 5)))
                        pool += [b, near]
                    for b in pool:
                        if b.is_zero:
                            continue
                        scale, entries = b._integer
                        num = core._integer_numerator(entries)
                        try:
                            s, _, quotient = core._peel(num)
                        except UndefinedOnZero:
                            with pytest.raises(UndefinedOnZero, match="numerator of the diagram vanishes"):
                                codimension(b)
                            continue
                        assert core._order_at_one(num) == (s, sum(quotient)), b
                        assert core._peeled_numerator(b) == (s, Fraction(sum(quotient), scale)), b
                        # s <= terms - 1, so some residual below len(num) is nonzero
                        residuals = hk_residuals(b, len(num))
                        assert codimension(b) == len(list(takewhile(lambda r: r == 0, residuals))) == s, b
                        diagrams += 1
        assert diagrams > 1500
