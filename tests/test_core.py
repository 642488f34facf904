"""Core types and operations: diagrams, pure diagrams, residuals, windows."""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import pytest

from bettidecomp import (
    BettiDiagram,
    DegreeSequence,
    LaurentPolynomial,
    PureDiagram,
    Window,
    codimension,
    hk_residuals,
    normalize,
    numerator_polynomial,
    pure_diagram,
    window_of,
)
from bettidecomp import core, decompose, poset
from bettidecomp.errors import (
    BettiError,
    CodimensionExceedsAmbient,
    ColumnOutOfRange,
    InvalidDegreeSequence,
    InvalidDiagram,
    NotGeneratedInDegreeZero,
    UndefinedOnZero,
)


def brute_pure_entry(d, i):
    """Hand oracle: evaluate the product formula term by term."""
    value = Fraction((-1) ** i)
    for j, dj in enumerate(d):
        if j != i:
            value /= dj - d[i]
    return value


class TestPureDiagram:
    def test_boxed_example(self):
        p = pure_diagram((0, 2, 3, 5), 3)
        assert [p.entry(i) for i in range(4)] == [
            Fraction(1, 30),
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 30),
        ]

    def test_single_degree_is_empty_product(self):
        p = pure_diagram((5,), 3)
        assert p.betti == BettiDiagram(3, {(0, 5): 1})

    def test_koszul_sequence(self):
        p = pure_diagram((0, 1, 2, 3), 3)
        assert [p.entry(i) for i in range(4)] == [
            Fraction(1, 6),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 6),
        ]

    @pytest.mark.parametrize("d", [(0, 1), (0, 2, 5), (1, 3, 4, 7), (-2, 0, 1)])
    def test_matches_product_oracle(self, d):
        p = pure_diagram(d, 4)
        for i in range(len(d)):
            assert p.entry(i) == brute_pure_entry(d, i)

    def test_positivity_everywhere(self):
        for s in range(5):
            for d in combinations(range(-1, 7), s + 1):
                p = pure_diagram(d, 4)
                assert all(v > 0 for _, v in p.betti.items())

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidDegreeSequence):
            pure_diagram((0, 2, 2), 3)
        with pytest.raises(InvalidDegreeSequence):
            DegreeSequence((3, 1))

    def test_rejects_too_long(self):
        with pytest.raises(CodimensionExceedsAmbient):
            pure_diagram((0, 1, 2, 3), 2)

    @pytest.mark.parametrize("n", [2.5, True, 1.0, -1, "2", None])
    def test_rejects_n_that_is_not_a_count(self, n):
        with pytest.raises(InvalidDiagram):
            pure_diagram((0, 1), n)
        with pytest.raises(InvalidDiagram):
            PureDiagram(DegreeSequence((0,)), n)


class TestPureDiagramTable:
    """``pure_diagram`` keeps one diagram per (degrees, n) of ints, up to a
    cap, and a kept diagram never lets through what a new one would refuse."""

    def test_same_arguments_same_object(self):
        p = pure_diagram((0, 2, 3, 5), 3)
        assert pure_diagram((0, 2, 3, 5), 3) is p
        assert pure_diagram([0, 2, 3, 5], 3) is p
        assert pure_diagram(p.degrees, 3) is p
        assert pure_diagram((0, 2, 3, 5), 4) is not p
        # the constructor itself builds a fresh, equal diagram
        q = PureDiagram(DegreeSequence((0, 2, 3, 5)), 3)
        assert q == p and q is not p
        assert type(p.degrees) is DegreeSequence and p.codimension == 3

    @pytest.mark.parametrize("degrees", [(0, 1.0), (0, True), (Fraction(0), 1)])
    def test_equal_hash_is_not_an_int_degree(self, degrees):
        pure_diagram((0, 1), 1)
        with pytest.raises(InvalidDegreeSequence, match="is not an integer"):
            pure_diagram(degrees, 1)

    def test_equal_hash_is_not_an_int_n(self):
        pure_diagram((0, 1), 1)
        with pytest.raises(InvalidDiagram, match="integer >= 0"):
            pure_diagram((0, 1), True)

    def test_kept_sequence_still_checked_against_n(self):
        pure_diagram((0, 1, 2), 2)
        with pytest.raises(CodimensionExceedsAmbient):
            pure_diagram((0, 1, 2), 1)
        with pytest.raises(InvalidDiagram):
            pure_diagram((0,), -1)
        with pytest.raises(InvalidDegreeSequence, match="nonempty"):
            pure_diagram((), 2)
        with pytest.raises(InvalidDegreeSequence, match="strictly increasing"):
            pure_diagram((0, 2, 2), 3)

    def test_table_is_bounded(self):
        table = core._pure_diagram_of
        for k in range(10_000):
            p = pure_diagram((0, k + 1), 1)
            assert table.cache_info().currsize <= core._PURE_DIAGRAM_CAP
        assert table.cache_info().maxsize == core._PURE_DIAGRAM_CAP
        misses = table.cache_info().misses
        assert pure_diagram((0, 10_000), 1) is p
        assert table.cache_info().currsize == core._PURE_DIAGRAM_CAP
        # the least recently read went first, and a rebuilt diagram is equal
        assert pure_diagram((0, 1), 1).betti == BettiDiagram(1, {(0, 0): 1, (1, 1): 1})
        assert table.cache_info().misses == misses + 1

    def test_refused_pairs_are_not_kept(self):
        table = core._pure_diagram_of
        table.cache_clear()
        for degrees, n in [((0, 1, 2), 1), ((0, 2, 2), 3), ((2, 1), 3), ((0,), -1)]:
            with pytest.raises(BettiError):
                pure_diagram(degrees, n)
        assert table.cache_info().currsize == 0

    def test_threads_share_one_bounded_table(self):
        # eight threads read overlapping keys, more keys than the cap, each
        # in its own order; every diagram is the one the validating
        # constructor builds, and the table never grows past its cap
        keys = [((0, k + 1, k + 3), n) for k in range(3 * core._PURE_DIAGRAM_CAP // 2) for n in (2, 3)]
        start = threading.Barrier(8)
        wrong, sizes = [], []

        def read(seed):
            order = keys[:]
            random.Random(seed).shuffle(order)
            start.wait()
            for _ in range(3):
                for d, n in order:
                    p = pure_diagram(d, n)
                    if p != PureDiagram(DegreeSequence(d), n) or p._integer != core._integer_form(d):
                        wrong.append((d, n))
                sizes.append(core._pure_diagram_of.cache_info().currsize)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert len(sizes) == 24 and max(sizes) <= core._PURE_DIAGRAM_CAP
        assert core._pure_diagram_of.cache_info().currsize <= core._PURE_DIAGRAM_CAP

    @pytest.mark.parametrize("cap", [None, 5])
    def test_window_tables_enter_through_the_trusted_entry(self, monkeypatch, cap):
        # every entry of every window with n <= 4 and width <= 3: the
        # validating constructor accepts what the table built unchecked,
        # and while it is in the table it is the object pure_diagram
        # returns; under a cap of 5 the table still keeps the last read
        if cap is None:
            cap = core._PURE_DIAGRAM_CAP
        table = lru_cache(maxsize=cap)(core._pure_diagram_of.__wrapped__)
        monkeypatch.setattr(core, "_pure_diagram_of", table)
        monkeypatch.setattr(poset, "_pure_diagram_of", table)
        checked = expected = 0
        for n in range(5):
            for width in range(4):
                for s_min in range(n + 1):
                    w = Window(n, -1 if n & 1 else 0, (-1 if n & 1 else 0) + width, s_min)
                    # a fresh build into an empty table: the cached one may
                    # predate it
                    table.cache_clear()
                    diagrams = poset._diagrams.__wrapped__(w)
                    seqs = poset._window_seqs(w)
                    assert type(diagrams) is tuple and len(diagrams) == len(seqs)
                    assert table.cache_info().currsize == min(len(seqs), cap)
                    for d, p in zip(seqs, diagrams):
                        assert type(d) is tuple and type(p.degrees) is DegreeSequence
                        assert p == PureDiagram(DegreeSequence(d), n) and p.n == n and p.degrees == d
                    # the last cap read are kept: looking them up builds
                    # nothing, and the one read before them is gone
                    kept = len(seqs) - table.cache_info().currsize
                    misses = table.cache_info().misses
                    for d, p in zip(seqs[kept:], diagrams[kept:]):
                        assert pure_diagram(d, n) is p
                        checked += 1
                    assert table.cache_info().misses == misses
                    if kept:
                        assert pure_diagram(seqs[kept - 1], n) is not diagrams[kept - 1]
                    expected += min(len(seqs), cap)
        # 1,393 entries in 60 windows, all kept under the real cap
        assert checked == expected == (251 if cap == 5 else 1393)


def integer_form_reference(d):
    """Entry i is 1 / prod_{j != i} |d_j - d_i| as a Fraction; the form is
    (L, ((i, d_i), L * entry i)) with L the lcm of the denominators."""
    entries = []
    for di in d:
        value = Fraction(1)
        for dj in d:
            if dj != di:
                value /= abs(dj - di)
        entries.append(value)
    scale = math.lcm(*(v.denominator for v in entries))
    return scale, tuple(((i, di), int(v * scale)) for i, (di, v) in enumerate(zip(d, entries)))


class TestIntegerFormTable:
    """A pure diagram's integer form depends on its degrees only: one form
    per degree sequence, shared across n and across evictions from the
    ``(degrees, n)`` table."""

    def test_shared_across_n(self):
        for d in [(0,), (0, 1), (0, 2, 3, 5), (-1, 2, 4), (3, 4, 6, 9, 10)]:
            forms = [pure_diagram(d, n)._integer for n in range(len(d) - 1, len(d) + 3)]
            assert all(form is forms[0] for form in forms), d
            assert PureDiagram(DegreeSequence(d), len(d) + 5)._integer is forms[0]

    def test_shared_across_evictions(self):
        p = pure_diagram((0, 3, 4, 7), 3)
        core._pure_diagram_of.cache_clear()
        q = pure_diagram((0, 3, 4, 7), 3)
        assert q is not p and q._integer is p._integer

    def test_table_is_bounded_by_the_diagram_cap(self):
        assert core._integer_form.cache_info().maxsize == core._PURE_DIAGRAM_CAP

    def test_every_diagram_is_built_with_its_form(self):
        # the form is stored when the diagram is made, whichever way it is
        # made, and equals the table's form of its degrees
        d = (0, 2, 3, 5)
        p = pure_diagram(d, 3)
        built = [
            p,
            core._pure_diagram_of((-1, 2, 4), 2),
            PureDiagram(DegreeSequence((1, 4, 6)), 4),
            PureDiagram([0, 1], 1),
            dataclasses.replace(p, n=5),
            dataclasses.replace(p, degrees=DegreeSequence((0, 2, 4))),
            copy.copy(p),
            copy.deepcopy(p),
            pickle.loads(pickle.dumps(p)),
        ]
        for q in built:
            assert "_integer" in vars(q), q
            assert q._integer == core._integer_form(tuple(q.degrees)), q
        assert built[4].n == 5 and built[4]._integer == p._integer
        assert built[5]._integer == core._integer_form((0, 2, 4))

    def test_matches_fraction_reference_on_windows(self):
        checked = 0
        for n in range(5):
            for M in (-1, 0):
                for width in range(4):
                    for p in Window(n, M, M + width, 0).pure_diagrams():
                        d = tuple(p.degrees)
                        got = core._integer_form(d)
                        assert got == integer_form_reference(d), d
                        assert type(got[0]) is int and all(type(x) is int for _, x in got[1])
                        checked += 1
        # every pure diagram of the 40 windows, the same sequence once per n
        assert checked == 862

    def test_matches_fraction_reference_on_seeded_sequences(self):
        rng = random.Random(2008)
        for _ in range(200):
            d = tuple(sorted(rng.sample(range(-30, 60), rng.randint(1, 13))))
            assert core._integer_form(d) == integer_form_reference(d), d


class TestNormalize:
    def test_point(self):
        nd = normalize(pure_diagram((0,), 2))
        assert nd.betti == BettiDiagram(2, {(0, 0): 1})
        assert nd.scale == 1

    def test_codim_two(self):
        nd = normalize(pure_diagram((0, 1, 2), 2))
        assert nd.betti == BettiDiagram(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1})

    def test_example_sequence(self):
        nd = normalize(pure_diagram((0, 2, 3, 5), 3))
        assert nd.scale == 30
        assert [nd.betti[(i, d)] for i, d in enumerate((0, 2, 3, 5))] == [1, 5, 5, 1]

    def test_entry_at_origin_is_one(self):
        for d in [(0, 3), (0, 1, 4), (0, 2, 3, 5)]:
            assert normalize(pure_diagram(d, 3)).betti[(0, 0)] == 1

    def test_rejects_shifted(self):
        with pytest.raises(NotGeneratedInDegreeZero):
            normalize(pure_diagram((1, 2), 3))


class TestHerzogKuhl:
    def test_zero_diagram(self):
        assert hk_residuals(BettiDiagram(3, {}), 3) == [0, 0, 0]

    def test_pure_diagram_satisfies_its_codimension(self):
        assert hk_residuals(pure_diagram((0, 2, 3, 5), 3).betti, 3) == [0, 0, 0]

    def test_quotient_satisfies_one_equation(self, quotient_diagram):
        assert hk_residuals(quotient_diagram, 1) == [0]
        assert hk_residuals(quotient_diagram, 2)[1] != 0

    def test_direct_summation_oracle(self):
        b = BettiDiagram(2, {(0, 1): Fraction(1, 2), (1, 3): 5, (2, 2): -2})
        for s in range(4):
            expected = [
                sum((-1) ** i * v * Fraction(j) ** m for (i, j), v in b.items())
                for m in range(s)
            ]
            assert hk_residuals(b, s) == expected

    def test_every_pure_diagram_randomized(self):
        # windows up to n = 5, width up to 4
        rng = random.Random(20260809)
        for _ in range(200):
            n = rng.randint(0, 5)
            s = rng.randint(0, n)
            M = rng.randint(-3, 3)
            N = M + rng.randint(0, 4)
            degs = []
            for i in range(s + 1):
                lo = max(M + i, degs[-1] + 1 if degs else M)
                if lo > N + i:
                    break
                degs.append(rng.randint(lo, N + i))
            if len(degs) != s + 1:
                continue
            p = pure_diagram(degs, n)
            assert hk_residuals(p.betti, s) == [0] * s
            assert codimension(p.betti) == s


class TestNumeratorPolynomial:
    def test_zero(self):
        assert numerator_polynomial(BettiDiagram(2, {})).is_zero

    def test_quotient(self, quotient_diagram):
        s = numerator_polynomial(quotient_diagram)
        assert s.items() == [(0, 1), (2, -2), (4, 2), (5, -1)]

    def test_koszul_three(self):
        s = numerator_polynomial(pure_diagram((0, 1, 2, 3), 3).betti)
        assert s == LaurentPolynomial({0: Fraction(1, 6), 1: Fraction(-1, 2), 2: Fraction(1, 2), 3: Fraction(-1, 6)})
        # equals (1-t)^3 / 6
        cube = LaurentPolynomial({0: 1}).times_one_minus_t(3).scaled(Fraction(1, 6))
        assert s == cube

    def test_linearity(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(0, 4)
            def rand_diag():
                entries = {}
                for _ in range(rng.randint(0, 6)):
                    i = rng.randint(0, n)
                    j = rng.randint(-2, 6)
                    entries[(i, j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                return BettiDiagram(n, entries)
            x, y = rand_diag(), rand_diag()
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            lhs = numerator_polynomial(x.scaled(a) + y)
            rhs = numerator_polynomial(x).scaled(a) + numerator_polynomial(y)
            assert lhs == rhs


class TestCodimension:
    def test_point(self):
        assert codimension(pure_diagram((0,), 4).betti) == 0

    def test_koszul(self):
        assert codimension(pure_diagram((0, 1, 2, 3), 3).betti) == 3

    def test_quotient(self, quotient_diagram):
        assert codimension(quotient_diagram) == 1

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZero):
            codimension(BettiDiagram(3, {}))

    def test_agrees_with_residuals(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(0, 5)
            s = rng.randint(0, n)
            degs = sorted(rng.sample(range(0, s + 5), s + 1))
            b = pure_diagram(degs, n).betti
            c = codimension(b)
            assert all(r == 0 for r in hk_residuals(b, c))
            assert any(hk_residuals(b, c + 1))


class TestWindowOf:
    def test_single_entry(self):
        assert window_of(BettiDiagram(2, {(0, 0): 1})) == (0, 0)

    def test_quotient(self, quotient_diagram):
        assert window_of(quotient_diagram) == (0, 2)

    def test_linear_pure(self):
        assert window_of(pure_diagram((1, 2, 3), 3).betti) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZero):
            window_of(BettiDiagram(1, {}))


class TestBettiDiagram:
    def test_drops_zeros_and_sums_duplicates(self):
        b = BettiDiagram(2, [((0, 0), 1), ((0, 0), -1), ((1, 2), 3)])
        assert b.support() == ((1, 2),)

    def test_rejects_floats(self):
        with pytest.raises(InvalidDiagram):
            BettiDiagram(2, {(0, 0): 0.5})

    def test_sum_and_difference_need_one_n(self):
        a, b = BettiDiagram(1, {(0, 0): 1}), BettiDiagram(2, {(0, 0): 1})
        with pytest.raises(InvalidDiagram, match="cannot add diagrams with different ambient n"):
            a + b
        with pytest.raises(InvalidDiagram, match="cannot subtract diagrams with different ambient n"):
            b - a
        assert a + BettiDiagram(1, {(1, 1): 1}) == BettiDiagram(1, {(0, 0): 1, (1, 1): 1})

    @pytest.mark.parametrize("value", ["1.5", "1e3", True, False])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: BettiDiagram(2, {(0, 0): v}),
            lambda v: LaurentPolynomial({0: v}),
            lambda v: BettiDiagram(2, {(0, 0): 1}).scaled(v),
        ],
        ids=["BettiDiagram", "LaurentPolynomial", "scaled"],
    )
    def test_rejects_inexact_scalars(self, make, value):
        with pytest.raises(InvalidDiagram):
            make(value)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(IndexError):
            BettiDiagram(2, {(3, 3): 1})
        with pytest.raises(IndexError):
            BettiDiagram(2, {(-1, 0): 1})

    def test_out_of_range_column_is_a_domain_error(self):
        with pytest.raises(BettiError) as caught:
            BettiDiagram(1, {(2, 2): 1})
        assert isinstance(caught.value, ColumnOutOfRange)
        assert isinstance(caught.value, InvalidDiagram) and isinstance(caught.value, IndexError)

    def test_vector_space_ops(self):
        a = BettiDiagram(2, {(0, 0): 1, (1, 2): 2})
        b = BettiDiagram(2, {(1, 2): Fraction(1, 2)})
        assert (a - b)[(1, 2)] == Fraction(3, 2)
        assert (a + b).scaled(2)[(0, 0)] == 2
        assert 3 * b == BettiDiagram(2, {(1, 2): Fraction(3, 2)})

    def test_hash_and_eq(self):
        a = BettiDiagram(2, {(0, 0): Fraction(2, 4)})
        b = BettiDiagram(2, {(0, 0): Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)


class TestIntegerFields:
    """An integer field takes an int; a float or a bool is never truncated."""

    @pytest.mark.parametrize("degrees", [(0, 1.5, 3), (True, 2), (0, 2.0), (Fraction(1), 2), ("0", 1)])
    def test_degree_sequence(self, degrees):
        with pytest.raises(InvalidDegreeSequence, match="is not an integer"):
            pure_diagram(degrees, 2)

    @pytest.mark.parametrize(
        "n, key", [(2, (0, 0.5)), (2, (True, 1)), (2, (0, False)), (2.0, (0, 0)), (True, (0, 0))]
    )
    def test_betti_diagram(self, n, key):
        with pytest.raises(InvalidDiagram, match="integer"):
            BettiDiagram(n, {key: 1})

    @pytest.mark.parametrize("degree", [1.5, 1.0, True, Fraction(1)])
    def test_laurent_polynomial(self, degree):
        with pytest.raises(InvalidDiagram, match="is not an integer"):
            LaurentPolynomial({degree: 1})

    @pytest.mark.parametrize("token, value", [("0", 0), ("12", 12), ("-3", -3), ("007", 7), ("-0", 0)])
    def test_integer_literal(self, token, value):
        assert core._parse_int(token) == value

    @pytest.mark.parametrize("token", ["", "-", "--1", "+1", "1_0", "٣", "-٣", "²", " 1", "1 ", "1.0"])
    def test_integer_literal_refused(self, token):
        # exactly '-?[0-9]+' in ASCII digits: int() alone would take most of these
        with pytest.raises(ValueError, match="is not an integer literal"):
            core._parse_int(token)


class TestLaurentPolynomial:
    def test_exact_division(self):
        p = LaurentPolynomial({0: 1, 2: -2, 4: 2, 5: -1})
        q = p.exact_div_one_minus_t()
        assert q == LaurentPolynomial({0: 1, 1: 1, 2: -1, 3: -1, 4: 1})
        assert q.times_one_minus_t() == p

    def test_division_requires_root_at_one(self):
        with pytest.raises(ValueError):
            LaurentPolynomial({0: 1}).exact_div_one_minus_t()

    def test_negative_support(self):
        p = LaurentPolynomial({-2: 1, -1: -1})
        assert p.exact_div_one_minus_t() == LaurentPolynomial({-2: 1})

    def test_order(self):
        p = LaurentPolynomial({0: 1}).times_one_minus_t(3)
        assert p.one_minus_t_order() == 3

    def test_support_and_repr(self):
        p = LaurentPolynomial({-1: 2, 0: 1, 3: Fraction(-1, 2)})
        assert p.support() == (-1, 3)
        assert repr(p) == "2*t^-1 + 1 - 1/2*t^3"
        assert repr(LaurentPolynomial({1: 1, 2: -1})) == "t^1 - 1*t^2"

    def test_zero_has_no_support_and_no_order(self):
        zero = LaurentPolynomial({0: 1, 1: -1}) - LaurentPolynomial({0: 1, 1: -1})
        assert zero.is_zero and repr(zero) == "0"
        with pytest.raises(UndefinedOnZero, match="no support"):
            zero.support()
        with pytest.raises(UndefinedOnZero, match="order undefined"):
            zero.one_minus_t_order()

    def test_evaluation(self):
        p = LaurentPolynomial({-1: 2, 0: 1, 2: Fraction(1, 2)})
        assert p(2) == 1 + 1 + 2
        assert LaurentPolynomial({0: 3, 1: 1})(0) == 3

    def test_negative_degree_is_undefined_at_zero(self):
        # t^-1 has a pole at 0: a domain error naming the degree, not a bare
        # ZeroDivisionError from Fraction(1, 0)
        with pytest.raises(UndefinedOnZero, match="degree -1"):
            LaurentPolynomial({-1: 1})(0)
        with pytest.raises(UndefinedOnZero, match="degree -3"):
            LaurentPolynomial({-3: 1, -1: 2, 4: 1})("0")
        assert LaurentPolynomial({-1: 1})(Fraction(1, 2)) == 2


class TestTracedNames:
    """``perfbench/tracing.py`` wraps these names; without them its traced
    runs break, and it counts greedy steps by calls of ``pure_diagram``."""

    def test_pure_diagram_is_a_plain_function(self):
        assert inspect.isfunction(core.pure_diagram)
        assert core.pure_diagram.__module__ == "bettidecomp.core"
        # one call per greedy step, through the module-level name
        assert decompose.pure_diagram is core.pure_diagram
        assert "pure_diagram" in decompose.greedy_decompose.__code__.co_names

    @pytest.mark.parametrize(
        "module, cls, attr",
        [
            ("functionals", "Functional", "__call__"),
            ("poset", "Chain", "__init__"),
            ("core", "BettiDiagram", "__add__"),
            ("core", "BettiDiagram", "scaled"),
            ("core", "LaurentPolynomial", "exact_div_one_minus_t"),
            ("decompose", "Decomposition", "reconstruct"),
            ("hilbert", "HilbertSeries", "expand"),
        ],
    )
    def test_wrapped_method_exists(self, module, cls, attr):
        owner = getattr(importlib.import_module(f"bettidecomp.{module}"), cls)
        assert inspect.isfunction(vars(owner)[attr])

    def test_betti_is_a_cached_property(self):
        assert isinstance(vars(PureDiagram)["betti"], cached_property)
