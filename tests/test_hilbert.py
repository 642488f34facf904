"""Hilbert series, multiplicity, shift bounds, monotonicity."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from bettidecomp import (
    BettiDiagram,
    HilbertSeries,
    LaurentPolynomial,
    Window,
    check_monotonicity,
    codimension,
    hilbert_series,
    maximal_chains,
    multiplicity,
    multiplicity_bounds,
    normalize,
    numerator_polynomial,
    pure_diagram,
    shift_bounds,
)
from bettidecomp import core, hilbert
from bettidecomp.hilbert import BoundsReport
from bettidecomp.errors import NotAChain, NotSingleDegreeGenerated, SeriesTooLong, UndefinedOnZero
from bettidecomp.poset import _moves


def monomial_count_oracle(generators, degree, nvars=3):
    """Count monomials of the given degree outside the monomial ideal.

    ``generators`` are exponent tuples; brute-force over all monomials.
    """
    def monomials(d, k):
        if k == 1:
            yield (d,)
            return
        for e in range(d + 1):
            for rest in monomials(d - e, k - 1):
                yield (e,) + rest

    total = 0
    for mono in monomials(degree, nvars):
        divisible = any(all(m >= g for m, g in zip(mono, gen)) for gen in generators)
        if not divisible:
            total += 1
    return total


class TestHilbertSeries:
    def test_quotient_series(self, quotient_diagram):
        h = hilbert_series(quotient_diagram)
        assert h.n == 3
        assert h.numerator == LaurentPolynomial({0: 1, 2: -2, 4: 2, 5: -1})

    def test_normalized_koszul_on_two_variables_is_one(self):
        nd = normalize(pure_diagram((0, 1, 2), 2))
        h = hilbert_series(nd.betti)
        assert h == HilbertSeries(LaurentPolynomial({0: 1}), 0)
        assert h.reduced().n == 0

    def test_zero_diagram(self):
        h = hilbert_series(BettiDiagram(3, {}))
        assert h.is_zero
        assert h.expand(4) == [0] * 5

    def test_zero_series_equal_and_hashed_alike(self):
        a, b = hilbert_series(BettiDiagram(3, {})), hilbert_series(BettiDiagram(1, {}))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a.reduced().n == b.reduced().n == 0

    def test_linearity(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(0, 4)
            def rand_diag():
                return BettiDiagram(
                    n,
                    {
                        (rng.randint(0, n), rng.randint(0, 5)): Fraction(
                            rng.randint(-5, 5), rng.randint(1, 4)
                        )
                        for _ in range(rng.randint(1, 5))
                    },
                )
            x, y = rand_diag(), rand_diag()
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            assert hilbert_series(x.scaled(a) + y) == hilbert_series(x).scaled(a) + hilbert_series(y)

    def test_sum_across_n_expands_to_the_sum(self):
        # the smaller n's numerator is brought over the larger denominator
        rng = random.Random(37)
        for _ in range(40):
            a = HilbertSeries(LaurentPolynomial({rng.randint(0, 4): rng.randint(-3, 3) or 1 for _ in range(3)}), rng.randint(0, 4))
            b = HilbertSeries(LaurentPolynomial({rng.randint(0, 4): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}), rng.randint(0, 4))
            total = a + b
            assert total.n == max(a.n, b.n)
            assert total.expand(12) == [x + y for x, y in zip(a.expand(12), b.expand(12))], (a, b)
            assert total == b + a


class TestExpandSeries:
    def test_quotient_against_monomial_oracle(self, quotient_diagram):
        # x^2, x*y, x*z^2 as exponent vectors over (x, y, z)
        gens = [(2, 0, 0), (1, 1, 0), (1, 0, 2)]
        expected = [monomial_count_oracle(gens, d) for d in range(9)]
        assert expected[:4] == [1, 3, 4, 4]
        assert hilbert_series(quotient_diagram).expand(8) == expected

    def test_geometric_series(self):
        h = HilbertSeries(LaurentPolynomial({0: 1}), 1)
        assert h.expand(6) == [1] * 7

    def test_normalized_pure_convolution(self):
        nd = normalize(pure_diagram((0, 2, 3, 5), 3))
        coeffs = hilbert_series(nd.betti).expand(8)
        # direct convolution oracle of 1 - 5t^2 + 5t^3 - t^5 with C(k+2, 2)
        poly = {0: 1, 2: -5, 3: 5, 5: -1}
        expected = [
            sum(v * math.comb(k - j + 2, 2) for j, v in poly.items() if j <= k)
            for k in range(9)
        ]
        assert coeffs == expected
        assert coeffs[:4] == [1, 3, 1, 0]

    def test_negative_degree_numerator(self):
        h = HilbertSeries(LaurentPolynomial({-1: 1}), 1)
        assert h.expand(3) == [1, 1, 1, 1]


class TestSeriesLength:
    def test_series_past_the_cap_is_refused(self, monkeypatch, quotient_diagram):
        # the cap counts t^min(0, lowest degree) .. t^depth; every reader of
        # a truncated series is refused before any coefficient is computed
        monkeypatch.setattr(hilbert, "_MAX_SERIES_LENGTH", 10)
        h = hilbert_series(quotient_diagram)
        assert len(h.expand(9)) == 10
        with pytest.raises(SeriesTooLong, match=r"series to t\^10 has 11 coefficients, more than 10"):
            h.expand(10)
        with pytest.raises(SeriesTooLong, match="has 11 coefficients"):
            HilbertSeries(LaurentPolynomial({-2: 1}), 1).expand(8)
        with pytest.raises(SeriesTooLong):
            multiplicity_bounds(quotient_diagram, 10)
        assert multiplicity_bounds(quotient_diagram, 9).applicable
        chain = [normalize(pure_diagram((0, 1), 1)), normalize(pure_diagram((0, 2), 1))]
        with pytest.raises(SeriesTooLong):
            check_monotonicity(chain, 10)

    def test_documented_cap(self, quotient_diagram):
        cap = core._MAX_SERIES_LENGTH
        assert cap == hilbert._MAX_SERIES_LENGTH == 10**6
        with pytest.raises(SeriesTooLong, match=f"has {cap + 1} coefficients, more than {cap}"):
            hilbert_series(quotient_diagram).expand(cap)
        # codimension and multiplicity read the numerator's two terms only,
        # whatever their span; the bounds expand a series to the default
        # depth N + n + 10, past the cap
        wide = BettiDiagram(1, {(0, 0): 1, (1, 10**9): 1})
        assert (codimension(wide), multiplicity(wide)) == (1, 10**9)
        with pytest.raises(SeriesTooLong, match=f"series to t\\^1000000010 has 1000000011 coefficients, more than {cap}"):
            multiplicity_bounds(wide)
        # a quotient is dense over the numerator's degrees: a span past the
        # cap is refused before it is built
        numerator = numerator_polynomial(wide)
        assert numerator.one_minus_t_order() == 1
        for call in (numerator.peel_one_minus_t, HilbertSeries(numerator, 1).reduced):
            with pytest.raises(SeriesTooLong, match=f"numerator spans 1000000001 degrees, more than {cap}"):
                call()
        below = numerator_polynomial(BettiDiagram(1, {(0, 0): 1, (1, cap - 1): 1}))
        assert below.peel_one_minus_t()[0] == 1


class TestMultiplicity:
    def test_quotient(self, quotient_diagram):
        assert multiplicity(quotient_diagram) == 1

    def test_point(self):
        assert multiplicity(pure_diagram((0,), 5).betti) == 1

    def test_normalized_pure_closed_form_spot(self):
        nd = normalize(pure_diagram((0, 2, 3, 5), 3))
        assert multiplicity(nd.betti) == 5

    def test_closed_form_exhaustive(self):
        for n in range(0, 5):
            for s in range(0, n + 1):
                for seq in combinations(range(1, 9), s):
                    nd = normalize(pure_diagram((0,) + seq, n))
                    expected = Fraction(math.prod(seq), math.factorial(s))
                    assert multiplicity(nd.betti) == expected

    def test_zero_rejected(self):
        # the zero diagram, and a nonzero one whose numerator cancels to zero
        cancelling = BettiDiagram(1, {(0, 0): 1, (1, 0): 1})
        for b in (BettiDiagram(2, {}), cancelling):
            for f in (multiplicity, codimension, multiplicity_bounds):
                with pytest.raises(UndefinedOnZero):
                    f(b)

    def test_vanishing_numerator_is_named(self):
        # nonzero entries whose Hilbert numerator cancels: the error names it
        cancelling = BettiDiagram(1, {(0, 0): 1, (1, 0): 1})
        for f in (multiplicity, codimension, multiplicity_bounds):
            with pytest.raises(UndefinedOnZero, match="^the Hilbert numerator of the diagram vanishes, so its "
                               "codimension and multiplicity are undefined$"):
                f(cancelling)


class TestShiftBounds:
    def test_quotient(self, quotient_diagram):
        sb = shift_bounds(quotient_diagram)
        assert sb.minimal == (2, 3, 5)
        assert sb.maximal == (3,)

    def test_pure(self):
        sb = shift_bounds(pure_diagram((0, 2, 5), 3).betti)
        assert sb.minimal == sb.maximal == (2, 5)

    def test_koszul(self):
        b = BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
        sb = shift_bounds(b)
        assert sb.minimal == (1, 2, 3)
        assert sb.maximal == (1, 2, 3)

    def test_rejects_multiple_generator_degrees(self):
        b = BettiDiagram(2, {(0, 0): 1, (0, 1): 1})
        with pytest.raises(NotSingleDegreeGenerated):
            shift_bounds(b)

    def test_rejects_shifted_generator(self):
        b = BettiDiagram(2, {(0, 1): 1})
        with pytest.raises(NotSingleDegreeGenerated):
            shift_bounds(b)


class TestMonotonicity:
    def test_comparable_pair(self):
        chain = [normalize(pure_diagram((0, 1, 2, 3), 3)), normalize(pure_diagram((0, 2, 3, 5), 3))]
        report = check_monotonicity(chain, 10)
        assert report.passed

    def test_codimension_drop_pair(self):
        chain = [normalize(pure_diagram((0, 1, 2), 2)), normalize(pure_diagram((0, 1), 2))]
        report = check_monotonicity(chain, 10)
        assert report.passed
        assert report.pairs[0].strict

    def test_identical_pair_not_strict(self):
        p = normalize(pure_diagram((0, 2), 2))
        report = check_monotonicity([p, p], 10)
        assert not report.passed
        assert report.pairs[0].nonnegative and not report.pairs[0].strict

    def test_incomparable_rejected(self):
        a = normalize(pure_diagram((0, 1, 2), 3))
        b = normalize(pure_diagram((0, 5), 3))
        # (0,1,2) vs (0,5): codim 2 vs 1 and 1 <= 5: comparable; use truly
        # incomparable instead: (0,5) vs (0,1,2) reversed order
        with pytest.raises(NotAChain):
            check_monotonicity([b, a], 10)

    def test_refuses_what_is_not_a_chain_of_normalized_diagrams(self):
        with pytest.raises(NotAChain, match="empty chain"):
            check_monotonicity([], 5)
        with pytest.raises(NotAChain, match="is not a normalized pure diagram"):
            check_monotonicity([normalize(pure_diagram((0, 1), 2)), pure_diagram((0, 2), 2)], 5)
        with pytest.raises(NotAChain, match="different ambient dimensions"):
            check_monotonicity([normalize(pure_diagram((0, 1), 2)), normalize(pure_diagram((0, 2), 3))], 5)

    @pytest.mark.parametrize("depth", [-1, "x", 1.5, True, None])
    def test_depth_checked_whatever_the_length(self, depth):
        # a one-element chain compares nothing, so it must check depth first
        chain = [normalize(pure_diagram((0, 1), 1)), normalize(pure_diagram((0, 2), 1))]
        messages = set()
        for k in (1, 2):
            with pytest.raises(ValueError) as err:
                check_monotonicity(chain[:k], depth)
            messages.add(str(err.value))
        assert messages == {f"depth must be an integer >= 0, got {depth!r}"}

    def test_all_cover_pairs_small_windows(self):
        depth = 20
        for n in range(0, 4):
            for width in range(0, 4):
                w = Window(n, 0, width, 0)
                for p in w.pure_diagrams():
                    if p.degrees[0] != 0:
                        continue
                    for nd, _ in _moves(tuple(p.degrees), w):
                        if nd[0] != 0:
                            continue
                        chain = [normalize(p), normalize(pure_diagram(nd, n))]
                        report = check_monotonicity(chain, depth)
                        assert report.passed, (n, width, p, nd)


class TestMultiplicityBounds:
    def test_quotient_strict(self, quotient_diagram):
        report = multiplicity_bounds(quotient_diagram, 10)
        assert report.passed
        assert report.multiplicity_value == 1
        assert report.multiplicity_bound == 3
        assert not report.multiplicity_equality
        assert not report.is_pure

    def test_koszul_equality(self):
        b = BettiDiagram(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
        report = multiplicity_bounds(b, 10)
        assert report.passed
        assert report.multiplicity_value == 1
        assert report.multiplicity_bound == Fraction(6, 6)
        assert report.multiplicity_equality
        assert report.is_pure

    def test_pure_diagram_equalities(self):
        nd = normalize(pure_diagram((0, 2, 4), 2))
        report = multiplicity_bounds(nd.betti, 12)
        assert report.passed and report.multiplicity_equality
        assert report.lower_equality and report.upper_equality

    def test_not_applicable_on_flat_shifts(self):
        # columns 1 and 2 share their maximal shift: bounds do not apply
        b = BettiDiagram(2, {(0, 0): 2, (1, 3): 3, (2, 3): 1})
        report = multiplicity_bounds(b, 10)
        assert not report.applicable
        assert report.reason

    def test_trusted_report_sets_every_field(self, quotient_diagram):
        # multiplicity_bounds builds an applicable report through
        # BoundsReport._of, which stores fields without the constructor
        names = {f.name for f in dataclasses.fields(BoundsReport)}
        report = multiplicity_bounds(quotient_diagram, 10)
        assert report.applicable and set(vars(report)) == names
        rebuilt = BoundsReport(**{name: getattr(report, name) for name in names})
        assert rebuilt == report and repr(rebuilt) == repr(report)

    def test_default_depth(self, quotient_diagram):
        report = multiplicity_bounds(quotient_diagram)
        assert report.depth == 2 + 3 + 10

    def test_random_members_satisfy_bounds(self):
        rng = random.Random(64)
        w = Window(3, 0, 2, 0)
        chains = list(maximal_chains(w))
        checked = 0
        for _ in range(40):
            chain = rng.choice(chains)
            zero_gen = [p for p in chain.elements if p.degrees[0] == 0]
            b = BettiDiagram(3, {})
            for p in rng.sample(zero_gen, min(3, len(zero_gen))):
                b = b + p.betti.scaled(rng.randint(1, 4))
            try:
                report = multiplicity_bounds(b, 15)
            except NotSingleDegreeGenerated:
                continue
            if report.applicable:
                assert report.passed, b
                checked += 1
        assert checked >= 10
