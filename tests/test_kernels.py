"""The exact kernels of the multiplicity path, of functional evaluation and
of greedy decomposition and chain expansion against plain Fraction
references, and the trusted constructors and the diagram parsers against
the validating constructors.

The references are written here from the definitions: long division by
(1 - t) from the top degree down, a series as the binomial convolution of
the numerator with the coefficients of 1 / (1 - t)^n, and functionals and
Herzog-Kuhl residuals as sums of Fraction products, term by term.
Derandomized, so every run checks the same examples."""

import copy
import dataclasses
import json
import math
import pickle
import random
import re
from dataclasses import MISSING
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettidecomp import (
    BettiDiagram,
    HilbertSeries,
    LaurentPolynomial,
    Window,
    BoundsReport,
    Decomposition,
    DegreeSequence,
    PureDiagram,
    ShiftBounds,
    boundary_facets,
    codimension,
    emit_diagram,
    expand_in_chain,
    greedy_decompose,
    hk_residuals,
    membership_by_inequalities,
    multiplicity,
    multiplicity_bounds,
    parse_diagram,
    pure_diagram,
    verify_decomposition,
)
from bettidecomp import core, decompose, hilbert, io
from bettidecomp.core import parse_rational
from bettidecomp.errors import (
    InvalidDiagram,
    NotInCone,
    NotInSubspace,
    NotSingleDegreeGenerated,
    ParseError,
    UndefinedOnZero,
    WindowMismatch,
)
from bettidecomp.poset import leq, maximal_chains

exact = settings(max_examples=120, deadline=None, derandomize=True)
fewer = settings(max_examples=50, deadline=None, derandomize=True)

degrees = st.integers(min_value=-6, max_value=6)
# non-integer coefficients included
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)
polynomials = st.dictionaries(degrees, coefficients, max_size=7)


def dense(coeffs: dict) -> tuple[int, list[Fraction]]:
    """(lowest degree, coefficients lo..hi) of a nonzero polynomial."""
    lo, hi = min(coeffs), max(coeffs)
    return lo, [Fraction(coeffs.get(d, 0)) for d in range(lo, hi + 1)]


def long_division(coeffs: dict) -> tuple[dict, Fraction]:
    """(quotient, remainder) of p = (1 - t) q + r, dividing from the top.

    With p = t^lo P and P = (t - 1) B + r by synthetic division on the
    coefficients of P from the leading one down, q = -t^lo B.
    """
    lo, a = dense(coeffs)
    b = [Fraction(0)] * (len(a) - 1)
    carry = Fraction(0)
    for k in range(len(a) - 1, 0, -1):
        carry += a[k]
        b[k - 1] = carry
    remainder = a[0] + carry
    return {lo + k: -v for k, v in enumerate(b) if v}, remainder


def peel_reference(coeffs: dict, cap=None) -> tuple[int, dict]:
    s = 0
    while coeffs and (cap is None or s < cap):
        q, r = long_division(coeffs)
        if r:
            break
        coeffs, s = q, s + 1
    return s, coeffs


def times_one_minus_t(coeffs: dict, power: int) -> dict:
    for _ in range(power):
        out = dict(coeffs)
        for d, v in coeffs.items():
            out[d + 1] = out.get(d + 1, 0) - v
        coeffs = {d: v for d, v in out.items() if v}
    return coeffs


def series_reference(coeffs: dict, n: int, depth: int) -> list[Fraction]:
    """Coefficients of t^0..t^depth of p / (1 - t)^n: the coefficient of t^m
    in 1 / (1 - t)^n is C(m + n - 1, n - 1), and 1 itself when n = 0, so
    t^k reads sum v C(k - j + n - 1, n - 1) over the terms v t^j, j <= k."""
    if not n:
        return [Fraction(coeffs.get(k, 0)) for k in range(depth + 1)]
    return [
        sum((v * math.comb(k - j + n - 1, n - 1) for j, v in coeffs.items() if j <= k), Fraction(0))
        for k in range(depth + 1)
    ]


class TestDivisionAgainstLongDivision:
    @exact
    @given(polynomials, st.integers(0, 3))
    def test_exact_div_and_peel(self, coeffs, power):
        p = times_one_minus_t(coeffs, power)
        poly = LaurentPolynomial(p)
        if p:
            q, r = long_division(p)
            if r:
                with pytest.raises(ValueError):
                    poly.exact_div_one_minus_t()
            else:
                assert poly.exact_div_one_minus_t() == LaurentPolynomial(q)
        s, quotient = poly.peel_one_minus_t()
        ref_s, ref_q = peel_reference(p)
        assert (s, quotient) == (ref_s, LaurentPolynomial(ref_q))
        assert s >= power or not p
        capped = poly.peel_one_minus_t(1)
        ref_s, ref_q = peel_reference(p, 1)
        assert capped == (ref_s, LaurentPolynomial(ref_q))

    def test_not_divisible_raises(self):
        for coeffs in ({0: 1}, {-3: Fraction(1, 2), 2: Fraction(-1, 3)}, {5: 2, 7: -1}):
            assert long_division(coeffs)[1]
            with pytest.raises(ValueError):
                LaurentPolynomial(coeffs).exact_div_one_minus_t()

    def test_zero_polynomial(self):
        zero = LaurentPolynomial()
        assert zero.exact_div_one_minus_t() == zero
        assert zero.peel_one_minus_t() == (0, zero)

    @pytest.mark.parametrize("cap", [1.5, True, False, "1", Fraction(1)])
    def test_peel_cap_must_be_an_int(self, cap):
        for poly in (LaurentPolynomial({0: 1, 1: -1}), LaurentPolynomial()):
            with pytest.raises(ValueError, match="cap must be an integer"):
                poly.peel_one_minus_t(cap)

    def test_peel_int_caps(self):
        # (1 - t)^2 (1 + t): every int cap peels min(cap, 2) factors, a
        # cap <= 0 none; None peels both
        poly = LaurentPolynomial({0: 1, 1: -1, 2: -1, 3: 1})
        for cap in (-1, 0, 1, 2, 3, None):
            s, quotient = poly.peel_one_minus_t(cap)
            assert s == (2 if cap is None else max(0, min(cap, 2)))
            assert quotient.times_one_minus_t(s) == poly


class TestExpandAgainstBinomialSums:
    @exact
    @given(polynomials, st.integers(0, 5), st.integers(0, 12))
    def test_expand(self, coeffs, n, depth):
        got = HilbertSeries(LaurentPolynomial(coeffs), n).expand(depth)
        assert got == series_reference(coeffs, n, depth)
        assert all(type(v) is Fraction for v in got)

    def test_n_zero_and_negative_degrees(self):
        p = LaurentPolynomial({-2: Fraction(1, 2), 0: 3, 2: Fraction(-2, 3)})
        assert HilbertSeries(p, 0).expand(3) == [3, 0, Fraction(-2, 3), 0]
        # 1/2 t^-2 / (1 - t): every coefficient from t^-2 on reads 1/2
        assert HilbertSeries(p, 1).expand(3) == [Fraction(7, 2)] * 2 + [Fraction(17, 6)] * 2


class TestSeriesEqualityAgainstCrossMultiplication:
    """``HilbertSeries.__eq__`` compares reduced forms; the reference
    cross-multiplies: P / (1 - t)^a == R / (1 - t)^c exactly when
    P (1 - t)^c == R (1 - t)^a."""

    @exact
    @given(
        polynomials,
        st.none() | polynomials,
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(-1, 1),
    )
    def test_eq_and_hash(self, p, other, n, k1, k2, offset):
        # p (1 - t)^k1 / (1 - t)^(n + k1) against r (1 - t)^k2 over n + k2
        # + offset: equal series in different forms when r = p and offset
        # is 0, a Laurent polynomial when n = 0, zero when p is empty
        r = p if other is None else other
        num1, num2 = times_one_minus_t(p, k1), times_one_minus_t(r, k2)
        n1, n2 = n + k1, max(0, n + k2 + offset)
        h1 = HilbertSeries(LaurentPolynomial(num1), n1)
        h2 = HilbertSeries(LaurentPolynomial(num2), n2)
        expected = times_one_minus_t(num1, n2) == times_one_minus_t(num2, n1)
        assert (h1 == h2) is expected and (h2 == h1) is expected
        if expected:
            assert hash(h1) == hash(h2)


def assert_clean(b: BettiDiagram):
    """No stored zero, Fraction values, and the same diagram (with the same
    hash) as the validating constructor builds from the same entries, with
    the same canonical integer form (L, entry set): L the lcm of the
    values' reduced denominators."""
    items = b.items()
    assert all(v and type(v) is Fraction for _, v in items)
    rebuilt = BettiDiagram(b.n, dict(items))
    assert b == rebuilt and hash(b) == hash(rebuilt)
    scale, entries = b._integer
    assert (scale, set(entries)) == (rebuilt._integer[0], set(rebuilt._integer[1]))
    assert scale == math.lcm(*(v.denominator for _, v in items))
    assert len({pos for pos, _ in entries}) == len(entries) and all(x for _, x in entries)


class TestTrustedPathDoesNotLeak:
    @pytest.mark.parametrize("value", [0.5, 1.0, True, False, "1.5", "1e3", "٣", None])
    def test_public_constructors_still_validate(self, value):
        with pytest.raises(InvalidDiagram):
            BettiDiagram(2, {(0, 0): value})
        with pytest.raises(InvalidDiagram):
            LaurentPolynomial({0: value})
        with pytest.raises(InvalidDiagram):
            BettiDiagram(2, {(0, 0): 1}).scaled(value)
        with pytest.raises(InvalidDiagram):
            LaurentPolynomial({0: 1}).scaled(value)

    def test_shift_takes_an_int(self):
        with pytest.raises(InvalidDiagram):
            LaurentPolynomial({0: 1}).shifted(0.5)
        with pytest.raises(InvalidDiagram):
            LaurentPolynomial({0: 1}).shifted(True)

    def test_arithmetic_results_are_clean(self):
        a = BettiDiagram(2, {(0, 0): 1, (1, 2): Fraction(3, 2), (2, 3): -1})
        b = BettiDiagram(2, {(1, 2): Fraction(3, 2), (2, 4): Fraction(1, 3)})
        normalized = core.normalize(pure_diagram((0, 2, 3, 5), 3)).betti
        for result in (a + b, a - b, b - b, a - a.scaled(1), a.scaled(0), a.scaled("2/3"), 3 * b, normalized):
            assert_clean(result)
        assert (a - b).support() == ((0, 0), (2, 3), (2, 4))
        assert (b - b).is_zero and a.scaled(0).is_zero
        with pytest.raises(InvalidDiagram):
            a - BettiDiagram(3, {})

    def test_polynomial_results_are_clean(self):
        p = LaurentPolynomial({-1: Fraction(1, 2), 0: 1, 3: -2})
        q = LaurentPolynomial({-1: Fraction(1, 2), 2: 5})
        for result in (p + q, p - q, p - p, p.scaled(0), p.shifted(-2), p.times_one_minus_t(2)):
            rebuilt = LaurentPolynomial(dict(result.items()))
            assert result == rebuilt and hash(result) == hash(rebuilt)
            assert all(v and type(v) is Fraction for _, v in result.items())

    def test_greedy_residuals_are_clean(self):
        rng = random.Random(7)
        chains = list(maximal_chains(Window(3, 0, 2, 0)))
        for _ in range(30):
            chain = rng.choice(chains)
            b = BettiDiagram(3, {})
            for p in rng.sample(chain.elements, 3):
                b = b + p.betti.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
            residual = b
            for coeff, p in greedy_decompose(b).terms:
                assert_clean(p.betti)
                residual = residual - p.betti.scaled(coeff)
                assert_clean(residual)
            assert residual.is_zero
        # a failing decomposition carries its last residual
        near = pure_diagram((0, 2, 3, 5), 3).betti - pure_diagram((0, 2, 3), 3).betti.scaled(Fraction(1, 63))
        with pytest.raises(NotInCone) as caught:
            greedy_decompose(near)
        assert_clean(caught.value.residual)
        assert caught.value.residual.support() == ((1, 2), (2, 3), (3, 5))


# exact literals as a document may spell them: zero, signed zero, negative,
# zero-padded, unreduced, and beyond machine width
LITERALS = ["0", "-0", "1", "-3", "007", "-007/0012", "4/6", "-10/4", "0/5", "9" * 400,
            "-" + "7" * 400 + "/" + "3" * 400]


def seeded_document(rng: random.Random) -> tuple[int, dict]:
    """(n, {(i, j): literal}) with every column in [0, n]."""
    n = rng.randint(0, 12)
    entries = {}
    for _ in range(rng.randint(0, 2 * n + 3)):
        pos = (rng.randint(0, n), rng.randint(-3, 15))
        small = [str(rng.randint(-50, 50)), f"{rng.randint(-50, 50)}/{rng.randint(1, 12)}"]
        entries[pos] = rng.choice(LITERALS + small)
    return n, entries


class TestParsersAgainstTheConstructor:
    """The parsers validate every entry themselves and build trusted; the
    validating constructor, fed the same literals, is the second route."""

    def test_json_documents(self):
        rng = random.Random(13)
        for _ in range(300):
            n, entries = seeded_document(rng)
            doc = json.dumps({"n": n, "entries": [[i, j, raw] for (i, j), raw in entries.items()]})
            parsed = parse_diagram(doc, "json")
            expected = BettiDiagram(n, entries)
            assert parsed == expected and parsed.n == n
            assert parsed._integer == expected._integer
            assert parsed == BettiDiagram(n, {pos: Fraction(raw) for pos, raw in entries.items()})
            assert_clean(parsed)
            table = parse_diagram(emit_diagram(parsed, "table"), "table")
            assert table == expected and table.n == n
            assert_clean(table)

    def test_parse_rational_is_fraction_of_the_literal(self):
        for token in LITERALS:
            got = parse_rational(token)
            assert got == Fraction(token) and type(got) is Fraction

    def test_parse_rational_refusals_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^'3/0' has a zero denominator$"):
            parse_rational("3/0")
        for token in ("1" * 5000, "-1/" + "2" * 5000):
            with pytest.raises(ValueError) as stdlib:
                Fraction(token)
            with pytest.raises(ValueError) as ours:
                parse_rational(token)
            assert str(ours.value) == str(stdlib.value)


# tokens the literal grammar refuses: Unicode digits that str.isdigit
# accepts, signs, spaces, underscores, empty and bare signs, a zero
# denominator, and digits over int's conversion limit
REFUSED_LITERALS = ["\u00b2", "\u0663", "\uff11\uff12", "+5", " 5", "5 ", "5_0", "", "-", "--1", "1/0", "9" * 5000]


def refusal_message(token: str) -> str:
    """The message every reader of a literal refuses ``token`` with."""
    if len(token) > 4300:
        with pytest.raises(ValueError) as stdlib:
            Fraction(token)
        return str(stdlib.value)
    if token == "1/0":
        return "'1/0' has a zero denominator"
    return f"{token!r} is not an exact rational literal"


class TestIntegerLiteralFastPath:
    """Plain ASCII digits are read without the literal grammar; every other
    token still goes through it, with its refusals and messages."""

    @pytest.mark.parametrize("token", REFUSED_LITERALS, ids=repr)
    def test_refusals_keep_class_and_message(self, token):
        message = refusal_message(token)
        with pytest.raises(ValueError) as exc:
            parse_rational(token)
        assert (type(exc.value), str(exc.value)) == (ValueError, message)
        doc = json.dumps({"n": 1, "entries": [[0, 0, token]]})
        with pytest.raises(ParseError) as exc:
            parse_diagram(doc, "json")
        assert (type(exc.value), str(exc.value)) == (ParseError, message)
        # a table splits its rows on whitespace and reads '-' as a zero
        if token.split() == [token] and token != "-":
            with pytest.raises(ParseError) as exc:
                parse_diagram(f"0: 1 {token}\n", "table")
            assert (type(exc.value), str(exc.value)) == (ParseError, f"{message} (line 1, column 6)")

    def test_seeded_ascii_tokens_read_as_their_fractions(self):
        rng = random.Random(46)
        tokens = ["-0", "0/7", "0", "000", "-000/0010", "0012/0018"]
        for _ in range(400):
            zeros = "0" * rng.randint(0, 3)
            g = rng.randint(1, 60)
            p, q = rng.randint(0, 10 ** rng.randint(1, 30)) * g, rng.randint(1, 999) * g
            sign = rng.choice(("", "-"))
            tokens.append(rng.choice((f"{sign}{zeros}{p}", f"{sign}{zeros}{p}/{zeros}{q}")))
        plain = 0
        for token in tokens:
            value = Fraction(token)
            got = parse_rational(token)
            assert got == value and type(got) is Fraction, token
            expected = BettiDiagram(1, {(0, 0): value})
            doc = json.dumps({"n": 1, "entries": [[0, 0, token]]})
            for parsed in (parse_diagram(doc, "json"), parse_diagram(f"# n=1\n0: {token} -\n", "table")):
                assert parsed == expected and parsed._integer == expected._integer, token
            plain += token.isdigit()
        assert 100 <= plain <= len(tokens) - 100


def _read(reader, b):
    """reader(b), or the error class and message it raises."""
    try:
        return reader(b)
    except UndefinedOnZero as exc:
        return UndefinedOnZero, str(exc)


def _position_readers(n: int, positions) -> list:
    """Readers of a diagram's positions, and of its values at each position
    given and off the support."""
    absent = [(0, -99), (n, 99), (n, -4)]
    return [
        lambda b: b.is_zero,
        lambda b: b.support(),
        *(lambda b, pos=pos: (b[pos], type(b[pos])) for pos in [*positions, *absent]),
        *(lambda b, i=i: b.column_degrees(i) for i in range(n + 1)),
        lambda b: b._column_bounds(),
        lambda b: b.projective_dimension(),
        lambda b: core.window_of(b),
        # stored order is the document's: a table's is row by row
        lambda b: (b._integer[0], sorted(b._integer[1])),
    ]


def _reference_repr(n: int, reference: dict) -> str:
    """A diagram's repr, written from its Fraction values."""
    entries = ", ".join(f"({i},{j}): {v}" for (i, j), v in sorted(reference.items()))
    return f"BettiDiagram(n={n}, {{{entries}}})"


class TestCanonicalForm:
    """Integer forms with common factors, built through the trusted
    constructor, read as the Fraction values they stand for."""

    def test_reduced_matches_a_fraction_reference(self):
        rng = random.Random(28)
        built = []
        for _ in range(120):
            n = rng.randint(0, 2)
            scale = rng.randint(1, 6)
            positions = sorted({(rng.randint(0, n), rng.randint(0, 2)) for _ in range(rng.randint(0, 3))})
            numerators = [(pos, rng.randint(-3, 3)) for pos in positions]
            reference = {pos: Fraction(x, scale) for pos, x in numerators if x}
            # the same values twice, over scales with different common factors
            for _ in range(2):
                factor = rng.randint(1, 24)
                values = [(pos, x * factor) for pos, x in numerators]
                rng.shuffle(values)
                b = BettiDiagram._reduced(n, scale * factor, values)
                assert repr(b) == _reference_repr(n, reference)
                assert dict(b.items()) == reference
                assert_clean(b)
                built.append((b, (n, reference)))
        equal_pairs = 0
        for b1, r1 in built:
            for b2, r2 in built:
                assert (b1 == b2) is (r1 == r2), (b1, b2)
                if r1 == r2:
                    assert hash(b1) == hash(b2), (b1, b2)
                    equal_pairs += 1
        assert equal_pairs >= 4 * len(built) // 2


class TestIntegerFormParse:
    """The parsers build the canonical integer form from the literals read
    as integers: it must read as the constructor's diagram does."""

    def test_both_forms_agree(self):
        rng = random.Random(14)
        for _ in range(150):
            n, entries = seeded_document(rng)
            doc = json.dumps({"n": n, "entries": [[i, j, raw] for (i, j), raw in entries.items()]})
            table = emit_diagram(BettiDiagram(n, entries), "table")
            readers = [
                *_position_readers(n, entries),
                lambda b: b.items(),
                repr,
                hash,
            ]
            for text, fmt in ((doc, "json"), (table, "table")):
                if fmt == "table" and not BettiDiagram(n, entries).support():
                    continue  # its '# n=' line builds through the constructor
                for k, reader in enumerate(readers):
                    # each reader first on fresh diagrams, then again once
                    # they keep what the first read computed
                    parsed, expected = parse_diagram(text, fmt), BettiDiagram(n, entries)
                    for _ in range(2):
                        assert _read(reader, parsed) == _read(reader, expected), (text, k)
                for first, second in ((parse_diagram(text, fmt), BettiDiagram(n, entries)),
                                      (BettiDiagram(n, entries), parse_diagram(text, fmt))):
                    assert first == second and second == first, text
                    assert hash(first) == hash(second), text

    def test_tables_path_builds_no_entry_fraction(self, quotient_diagram, monkeypatch):
        # parse, greedy, emit and bounds on integer tables, as a tables
        # operation runs them: Fractions for the term coefficients and the
        # bounds' beta_0, multiplicity and bound only
        documents = [emit_diagram(quotient_diagram, fmt) for fmt in ("json", "table")]
        for b in list(table_inputs(random.Random(29), 20))[::5]:
            documents += [emit_diagram(b, fmt) for fmt in ("json", "table")]
        calls = []

        class Instances(type(Fraction)):
            # the library's isinstance checks still see every Fraction
            def __instancecheck__(cls, obj):
                return isinstance(obj, Fraction)

        class Counting(Fraction, metaclass=Instances):
            def __new__(cls, *args, **kwargs):
                calls.append(args)
                return Fraction(*args, **kwargs)

        for module in (core, io, decompose, hilbert):
            monkeypatch.setattr(module, "Fraction", Counting)
        steps = 0
        for text in documents:
            calls.clear()
            b = parse_diagram(text, "json" if text.startswith("{") else "table")
            assert calls == [], text
            dec = greedy_decompose(b)
            io.emit_decomposition(dec)
            report = multiplicity_bounds(b)
            assert report.passed and report.applicable, text
            assert len(calls) == len(dec.terms) + 3, text
            steps += len(dec.terms)
        assert steps >= 50


def functional_reference(f, b: BettiDiagram) -> Fraction:
    """sum c[i, j] * beta[i, j] in Fractions, term by term."""
    total = Fraction(0)
    for pos, c in f.coefficients:
        total += Fraction(c) * b[pos]
    return total


def hk_reference(b: BettiDiagram, s: int) -> list[Fraction]:
    return [
        sum((Fraction((-1) ** i) * v * Fraction(j) ** m for (i, j), v in b.items()), Fraction(0))
        for m in range(s)
    ]


def membership_reference(b: BettiDiagram, w: Window):
    """(member, first violated facet, its value): every facet in order."""
    for facet in boundary_facets(w):
        value = functional_reference(facet.functional, b)
        if value < 0:
            return False, facet, value
    return True, None, None


# s_min > 0 and a negative M included; (3, 0, 3, 0) has 119 facets
KERNEL_WINDOWS = [
    Window(1, 0, 2, 0),
    Window(2, 0, 2, 0),
    Window(2, 0, 3, 2),
    Window(3, 0, 2, 1),
    Window(3, -1, 1, 2),
    Window(3, 0, 3, 0),
    Window(4, 0, 2, 3),
]


def seeded_inputs(w: Window, rng: random.Random, count: int):
    """Members (positive non-integer combinations of the window's pure
    diagrams) and near-misses (a member minus a multiple of a pure diagram,
    so negative entries occur); both lie in the window's subspace."""
    diagrams = list(w.pure_diagrams())
    for _ in range(count):
        member = BettiDiagram(w.n, {})
        for p in rng.sample(diagrams, min(len(diagrams), rng.randint(1, 4))):
            member = member + p.betti.scaled(Fraction(rng.randint(1, 30), rng.randint(1, 7)))
        yield member
        yield member - rng.choice(diagrams).betti.scaled(Fraction(rng.randint(1, 60), rng.randint(1, 5)))


class TestFunctionalKernelAgainstFractionSums:
    def test_membership_verdict_certificate_and_value(self):
        rng = random.Random(11)
        verdicts = {True: 0, False: 0}
        for w in KERNEL_WINDOWS:
            for k, b in enumerate(seeded_inputs(w, rng, 12)):
                result = membership_by_inequalities(b, w)
                member, facet, value = membership_reference(b, w)
                assert result.member is member, (w, b)
                assert result.violated is facet, (w, b)
                assert result.value == value and type(result.value) is type(value), (w, b)
                if k % 2 == 0:
                    assert member, (w, b)  # a positive combination is in the cone
                verdicts[member] += 1
        # the near-misses exercise both verdicts
        assert verdicts[False] >= 20
        # an integer value of -1, the smallest violation there is
        b, w = pure_diagram((0, 1), 1).betti.scaled(-1), Window(1, 0, 0, 1)
        assert b._integer == (1, (((0, 0), -1), ((1, 1), -1)))
        result = membership_by_inequalities(b, w)
        assert (result.member, result.violated, result.value) == membership_reference(b, w)
        assert result.value == -1

    def test_functional_call(self):
        rng = random.Random(12)
        for w in KERNEL_WINDOWS:
            facets = boundary_facets(w)
            for b in seeded_inputs(w, rng, 3):
                for facet in facets:
                    got = facet.functional(b)
                    assert type(got) is Fraction and got == functional_reference(facet.functional, b)

    @fewer
    @given(
        st.integers(0, 4),
        st.integers(0, 2),
        st.dictionaries(st.tuples(st.integers(0, 6), degrees), coefficients, max_size=8),
    )
    def test_functional_call_off_the_window(self, n, extra, entries):
        # entries anywhere, in or out of the functional's support; in each
        # column past the window's n also a unit at every degree of its rows
        # and one past each end: those read 0, and an index into the flat
        # grid must not alias them into a neighbouring row
        spill = {(i, j): 1 for i in range(n + 1, n + extra + 1) for j in range(i - 2, i + 3)}
        b = BettiDiagram(n + extra, {**spill, **{(i, j): v for (i, j), v in entries.items() if i <= n + extra}})
        for facet in boundary_facets(Window(n, -1, 1, 0)):
            got = facet.functional(b)
            assert type(got) is Fraction and got == functional_reference(facet.functional, b)

    @fewer
    @given(
        st.integers(0, 4),
        st.dictionaries(st.tuples(st.integers(0, 4), degrees), coefficients, max_size=8),
        st.integers(0, 6),
    )
    def test_hk_residuals(self, n, entries, s):
        b = BettiDiagram(n, {(i, j): v for (i, j), v in entries.items() if i <= n})
        got = hk_residuals(b, s)
        assert got == hk_reference(b, s)
        assert all(type(v) is Fraction for v in got)

    def test_hk_residuals_on_seeded_inputs(self):
        rng = random.Random(13)
        for w in KERNEL_WINDOWS:
            for b in seeded_inputs(w, rng, 4):
                got = hk_residuals(b, w.n + 1)
                assert got == hk_reference(b, w.n + 1), (w, b)
                assert not any(got[: w.s_min]), (w, b)


def pure_reference(degrees) -> dict:
    """pi(d)[i, d_i] = (-1)^i / prod_{j != i} (d_j - d_i), from the definition."""
    out = {}
    for i, di in enumerate(degrees):
        prod = 1
        for j, dj in enumerate(degrees):
            if j != i:
                prod *= dj - di
        out[(i, di)] = Fraction((-1) ** i, prod)
    return out


def subtract(residual: dict, c: Fraction, entries: dict) -> None:
    """residual -= c * entries, one entry at a time, zeros dropped."""
    for pos, v in entries.items():
        x = residual.get(pos, Fraction(0)) - c * v
        if x:
            residual[pos] = x
        else:
            residual.pop(pos, None)


def greedy_reference(b: BettiDiagram):
    """(reason, message, terms, residual) of the greedy loop in Fractions;
    reason and message None on success.  Terms are (coefficient, degrees)."""
    residual = dict(b.items())
    offsets = [j - i for i, j in residual]
    terms = []
    for _ in range((b.n + 1) * (max(offsets) - min(offsets) + 1) + 1):
        if not residual:
            return None, None, terms, residual
        top = max(i for i, _ in residual)
        degs = [min((j for i, j in residual if i == col), default=None) for col in range(top + 1)]
        if None in degs:
            message = f"column {degs.index(None)} is empty below the projective dimension {top}"
            return NotInCone.INVALID_LEADING_SEQUENCE, message, terms, residual
        if any(y <= x for x, y in zip(degs, degs[1:])):
            message = f"minimal degrees {tuple(degs)} are not strictly increasing"
            return NotInCone.INVALID_LEADING_SEQUENCE, message, terms, residual
        entries = pure_reference(degs)
        c = min(residual.get(pos, Fraction(0)) / v for pos, v in entries.items())
        terms.append((c, tuple(degs)))
        subtract(residual, c, entries)
    return NotInCone.RESIDUAL, "residual did not reach zero within the chain bound", terms, residual


def check_greedy(b: BettiDiagram):
    """``greedy_decompose(b)`` against ``greedy_reference``: the terms, or
    the failure's reason, message, partial and residual.  Returns the
    reference's (reason, terms, residual), reason "negative" for a diagram
    with a negative entry."""
    if any(v < 0 for _, v in b.items()):
        with pytest.raises(InvalidDiagram, match="negative entry"):
            greedy_decompose(b)
        return "negative", [], {}
    reason, message, terms, residual = greedy_reference(b)
    if reason is None:
        got = [(c, tuple(p.degrees)) for c, p in greedy_decompose(b)]
        assert got == terms, b
        assert all(type(c) is Fraction for c, _ in got)
        return reason, terms, residual
    with pytest.raises(NotInCone) as caught:
        greedy_decompose(b)
    err = caught.value
    assert (err.reason, str(err)) == (reason, message), b
    assert [(c, tuple(p.degrees)) for c, p in err.partial] == terms, b
    assert all(p.n == b.n for _, p in err.partial)
    assert err.residual == BettiDiagram(b.n, residual), b
    assert_clean(err.residual)
    return reason, terms, residual


def numerator_reference(entries: dict) -> dict:
    acc = {}
    for (i, j), v in entries.items():
        acc[j] = acc.get(j, Fraction(0)) + (-v if i % 2 else v)
    return {j: v for j, v in acc.items() if v}


def bounds_reference(b: BettiDiagram, depth=None):
    """The BoundsReport of b with every field from the definitions, in
    Fractions, or the class of the error the library raises."""
    entries = dict(b.items())
    if sorted(j for i, j in entries if i == 0) != [0]:
        return NotSingleDegreeGenerated
    numerator = numerator_reference(entries)
    if not numerator:
        return UndefinedOnZero
    s, quotient = peel_reference(numerator)
    columns = [[j for i, j in entries if i == col] for col in range(max(i for i, _ in entries) + 1)]
    if not all(columns):
        return InvalidDiagram
    shifts = ShiftBounds(tuple(min(c) for c in columns[1:]), tuple(max(c) for c in columns[1 : s + 1]))
    if depth is None:
        depth = max(j - i for i, j in entries) + b.n + 10
    beta0 = entries[(0, 0)]
    for name, seq in (("minimal", shifts.minimal), ("maximal", shifts.maximal)):
        if any(y <= x for x, y in zip((0,) + seq, seq)):
            reason = f"{name} shifts {seq} are not strictly increasing above 0"
            return BoundsReport(False, reason, depth, generator_count=beta0, shifts=shifts)

    def normalized_series(seq):
        scale = math.prod(seq)
        pure = {pos: v * scale for pos, v in pure_reference((0,) + seq).items()}
        return series_reference(numerator_reference(pure), b.n, depth)

    series = series_reference(numerator, b.n, depth)
    lower = tuple(x - beta0 * y for x, y in zip(series, normalized_series(shifts.minimal)))
    upper = tuple(beta0 * y - x for x, y in zip(series, normalized_series(shifts.maximal)))
    e = sum(quotient.values(), Fraction(0))
    bound = beta0 * Fraction(math.prod(shifts.maximal), math.factorial(len(shifts.maximal)))
    degs = [c[0] for c in columns if len(c) == 1]
    pure = len(degs) == len(columns) and all(x < y for x, y in zip(degs, degs[1:]))
    return BoundsReport(
        True, None, depth, beta0, shifts,
        all(v >= 0 for v in lower), all(v >= 0 for v in upper), lower, upper,
        not any(lower), not any(upper), e, bound, e <= bound, e == bound, pure,
    )


def expand_reference(b: BettiDiagram, chain):
    """(coordinates, final residual) of back-substitution along the chain."""
    w = chain.window
    positions = [(i, w.M + i + r) for r, i in chain.vacated] + [(0, w.N)]
    residual = dict(b.items())
    coords = []
    for element, pos in zip(chain.elements, positions):
        entries = pure_reference(element.degrees)
        c = residual.get(pos, Fraction(0)) / entries[pos]
        coords.append(c)
        subtract(residual, c, entries)
    return coords, residual


def random_degrees(rng: random.Random, n: int, width: int) -> tuple:
    """A degree sequence of length <= n + 1, mostly starting at 0."""
    d = [0 if rng.random() < 0.8 else rng.randint(-2, 2)]
    for _ in range(rng.randint(0, n)):
        d.append(d[-1] + 1 + rng.randint(0, width))
    return tuple(d)


def greedy_inputs(rng: random.Random, count: int):
    """Members (positive non-integer combinations of pure diagrams, n up to
    12, fractional beta_0) and three near-misses of each: a pure diagram
    subtracted, one entry rescaled, one entry shifted."""
    for _ in range(count):
        n, width = rng.randint(1, 12), rng.randint(0, 3)
        member = BettiDiagram(n, {})
        for _ in range(rng.randint(1, 4)):
            p = pure_diagram(random_degrees(rng, n, width), n)
            member = member + p.betti.scaled(Fraction(rng.randint(1, 30), rng.randint(1, 7)))
        yield member
        p = pure_diagram(random_degrees(rng, n, width), n)
        yield member - p.betti.scaled(Fraction(rng.randint(1, 30), rng.randint(1, 7)))
        entries = dict(member.items())
        key = rng.choice(sorted(entries))
        yield BettiDiagram(n, {**entries, key: entries[key] * Fraction(rng.randint(1, 7), rng.randint(1, 5))})
        key = (rng.randint(0, n), rng.randint(-1, 2 * n + 2))
        yield BettiDiagram(n, {**entries, key: entries.get(key, 0) + Fraction(rng.randint(1, 9), rng.randint(1, 4))})


def chain_walk(rng: random.Random, n: int, width: int) -> list[tuple]:
    """A chain of degree sequences from (0, 1, .., n) upward: each step
    raises one degree d_i, i >= 1, by one within i + width, keeping the
    sequence strictly increasing, or drops the last degree."""
    d = list(range(n + 1))
    chain = [tuple(d)]
    while True:
        moves = [i for i in range(1, len(d)) if d[i] < i + width and (i == len(d) - 1 or d[i] + 1 < d[i + 1])]
        if len(d) > 1:
            moves.append(None)
        if not moves:
            return chain
        i = rng.choice(moves)
        if i is None:
            d.pop()
        else:
            d[i] += 1
        chain.append(tuple(d))


def integer_pure(degrees) -> dict:
    """pi(d) times the least integer making it integral, from the definition."""
    entries = pure_reference(degrees)
    scale = math.lcm(*(v.denominator for v in entries.values()))
    return {pos: v * scale for pos, v in entries.items()}


def table_inputs(rng: random.Random, count: int):
    """Integer tables generated in degree 0, each a combination of 1..12
    elements of one chain with weights 1..9 (n 3..12, width 1..6), and four
    near-misses of each: a rational multiple of one chain element
    subtracted, one entry rescaled, one entry raised, one entry dropped."""
    for _ in range(count):
        n, width = rng.randint(3, 12), rng.randint(1, 6)
        chain = chain_walk(rng, n, width)
        entries = {}
        for k in rng.sample(range(len(chain)), rng.randint(1, min(12, len(chain)))):
            w = rng.randint(1, 9)
            for pos, v in integer_pure(chain[k]).items():
                entries[pos] = entries.get(pos, 0) + w * v
        yield BettiDiagram(n, entries)
        other = integer_pure(rng.choice(chain))
        m = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        yield BettiDiagram(n, {pos: entries.get(pos, 0) - m * other.get(pos, 0) for pos in entries.keys() | other.keys()})
        key = rng.choice(sorted(entries))
        yield BettiDiagram(n, {**entries, key: entries[key] * Fraction(rng.randint(1, 7), rng.randint(1, 5))})
        key = (rng.randint(0, n), rng.randint(0, n + width))
        yield BettiDiagram(n, {**entries, key: entries.get(key, 0) + rng.randint(1, 9)})
        key = rng.choice(sorted(entries))
        yield BettiDiagram(n, {pos: v for pos, v in entries.items() if pos != key})


class TestIntegerGreedyAndBoundsAgainstFractions:
    def test_pure_integer_form(self):
        # every degree sequence of n <= 5, width <= 4: the integer form read
        # off the degrees is that of the diagram built from the definition,
        # whichever of the form and betti is computed first
        count = 0
        for n in range(6):
            for p in Window(n, 0, 4, 0).pure_diagrams():
                d = tuple(p.degrees)
                reference = BettiDiagram(n, pure_reference(d))
                # pure_diagram shares one diagram per (d, n): build the
                # second through the constructor, so its form comes first
                first, second = pure_diagram(d, n), PureDiagram(DegreeSequence(d), n)
                assert first.betti == reference
                assert first._integer == reference._integer == first.betti._integer
                assert second._integer == reference._integer
                assert second._integer[1] == reference._integer[1]
                assert all(x > 0 for _, x in second._integer[1])
                count += 1
        assert count == 917

    def test_greedy_terms_and_failures(self):
        rng = random.Random(21)
        outcomes = {"ok": 0, "negative": 0, NotInCone.INVALID_LEADING_SEQUENCE: 0}
        cases = list(greedy_inputs(rng, 60))
        near = pure_diagram((0, 2, 3, 5), 3).betti - pure_diagram((0, 2, 3), 3).betti.scaled(Fraction(1, 63))
        cases.append(near)
        for b in cases:
            reason, _, _ = check_greedy(b)
            outcomes["ok" if reason is None else reason] += 1
        # members, subtracted diagrams and non-members that stay nonnegative
        assert min(outcomes.values()) >= 20, outcomes

    def test_greedy_on_integer_chain_tables(self):
        # the cursor state: failures after two or more steps, and columns
        # that empty below the projective dimension after a step
        rng = random.Random(25)
        outcomes = {"ok": 0, "negative": 0, "failed after 2 steps": 0, "column emptied after a step": 0}
        for b in table_inputs(rng, 60):
            reason, terms, residual = check_greedy(b)
            if reason in (None, "negative"):
                outcomes["ok" if reason is None else reason] += 1
                continue
            outcomes["failed after 2 steps"] += len(terms) >= 2
            columns = {i for i, _ in residual}
            outcomes["column emptied after a step"] += bool(terms) and len(columns) <= max(columns)
        assert min(outcomes.values()) >= 10, outcomes

    # failures the step after a cursor moved, where greedy checks the
    # leading sequence only at the moved columns: (n, entries, message)
    LATE_FAILURES = [
        # a column below the top empties after two steps
        (1, {(0, 0): 1, (0, 2): 1, (1, 3): 3}, "column 0 is empty below the projective dimension 1"),
        # a moved front collides with its unmoved right neighbour; its
        # unmoved left neighbour stays below it
        (2, {(0, 0): 2, (1, 1): 1, (1, 2): 1, (1, 3): 4, (2, 3): 2}, "minimal degrees (0, 3, 3) are not strictly increasing"),
        # the first column's front moves onto the unmoved second one; a
        # front only rises, so it never meets an unmoved left neighbour
        (1, {(0, 0): 1, (0, 1): 1, (0, 2): 2, (1, 2): 3}, "minimal degrees (2, 2) are not strictly increasing"),
        # two fronts move in one step, onto one degree
        (2, {(0, 0): 3, (0, 2): 2, (1, 1): 4, (1, 2): 3, (2, 2): 1}, "minimal degrees (2, 2) are not strictly increasing"),
        # two fronts move in one step, and the lower column empties
        (1, {(0, 0): 2, (1, 1): 1, (1, 2): 1, (1, 3): 1}, "column 0 is empty below the projective dimension 1"),
        # the top column pops as a column below it empties
        (2, {(0, 0): 2, (1, 1): 2, (1, 2): 3, (2, 4): 1}, "column 0 is empty below the projective dimension 1"),
    ]

    @pytest.mark.parametrize("n, entries, message", LATE_FAILURES)
    def test_greedy_fails_after_a_cursor_moved(self, n, entries, message):
        b = BettiDiagram(n, entries)
        reason, terms, _ = check_greedy(b)
        assert (reason, len(terms)) == (NotInCone.INVALID_LEADING_SEQUENCE, 2)
        with pytest.raises(NotInCone, match=rf"^{re.escape(message)}$"):
            greedy_decompose(b)
        # the same diagram read from a document
        text = json.dumps({"n": n, "entries": [[i, j, str(v)] for (i, j), v in entries.items()]})
        with pytest.raises(NotInCone, match=rf"^{re.escape(message)}$"):
            greedy_decompose(parse_diagram(text))

    def test_greedy_near_misses_failing_late(self):
        # near-misses that fail at step 2 or later; a failing pair of
        # minimal degrees always has its lower column moved in the last step
        rng = random.Random(31)
        late = {"empty column": 0, "not increasing": 0}
        for k, b in enumerate(greedy_inputs(rng, 200)):
            if k % 4 == 0:
                continue  # the member
            reason, terms, residual = check_greedy(b)
            if reason in (None, "negative") or len(terms) < 2:
                continue
            assert reason == NotInCone.INVALID_LEADING_SEQUENCE, b
            top = max(i for i, _ in residual)
            degs = [min((j for i, j in residual if i == col), default=None) for col in range(top + 1)]
            if None in degs:
                late["empty column"] += 1
                continue
            late["not increasing"] += 1
            last = terms[-1][1]
            assert all(degs[i] != last[i] for i in range(top) if degs[i + 1] <= degs[i]), b
        assert min(late.values()) >= 10, late

    def test_one_pure_diagram_call_per_step(self, monkeypatch):
        # a traced run counts greedy steps by these calls
        calls = []

        def counted(degrees, n):
            calls.append(degrees)
            return core.pure_diagram(degrees, n)

        monkeypatch.setattr(decompose, "pure_diagram", counted)
        rng = random.Random(26)
        steps = 0
        for b in table_inputs(rng, 20):
            calls.clear()
            try:
                expected = len(greedy_decompose(b).terms)
            except NotInCone as err:
                expected = len(err.partial)
            except InvalidDiagram:
                expected = 0
            assert len(calls) == expected, b
            steps += expected
        assert steps >= 100

    def test_codimension_and_multiplicity(self):
        rng = random.Random(22)
        for b in greedy_inputs(rng, 60):
            numerator = numerator_reference(dict(b.items()))
            if not numerator:
                with pytest.raises(UndefinedOnZero):
                    codimension(b)
                continue
            s, quotient = peel_reference(numerator)
            e = multiplicity(b)
            assert codimension(b) == s, b
            assert e == sum(quotient.values(), Fraction(0)) and type(e) is Fraction, b

    def test_bounds_report(self):
        rng = random.Random(23)
        verdicts = {"applicable": 0, "not applicable": 0, "error": 0, "fractional beta0": 0}
        for k, b in enumerate(greedy_inputs(rng, 90)):
            depth = None if k % 3 else rng.randint(0, 8)
            expected = bounds_reference(b, depth)
            if isinstance(expected, type):
                with pytest.raises(expected):
                    multiplicity_bounds(b, depth)
                verdicts["error"] += 1
                continue
            got = multiplicity_bounds(b, depth)
            assert got == expected, b
            if got.applicable:
                assert all(type(v) is Fraction for v in got.lower_slack + got.upper_slack)
                verdicts["applicable"] += 1
                verdicts["fractional beta0"] += got.generator_count.denominator > 1
            else:
                verdicts["not applicable"] += 1
        assert min(verdicts.values()) >= 10, verdicts

    def test_multiplicity_bound_and_verdicts(self):
        # the bound and both verdicts against Fraction arithmetic on integer
        # tables, fractional members, their near-misses and pure diagrams
        rng = random.Random(47)
        pure = [
            pure_diagram(d, len(d) - 1 + rng.randint(0, 2)).betti.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
            for d in (random_degrees(rng, 6, 3) for _ in range(60))
            if d[0] == 0
        ]
        seen = []
        cases = [(b, False) for b in (*table_inputs(rng, 30), *greedy_inputs(rng, 30))] + [(b, True) for b in pure]
        for b, is_pure in cases:
            reference = bounds_reference(b)
            if isinstance(reference, type) or not reference.applicable:
                continue
            report = multiplicity_bounds(b)
            maximal = reference.shifts.maximal
            bound = b[(0, 0)] * Fraction(math.prod(maximal), math.factorial(len(maximal)))
            e = reference.multiplicity_value
            assert report.multiplicity_bound == bound and type(report.multiplicity_bound) is Fraction, b
            assert report.multiplicity_value == e and type(report.multiplicity_value) is Fraction, b
            assert (report.multiplicity_ok, report.multiplicity_equality) == (e <= bound, e == bound), b
            # a pure diagram reaches equality
            assert report.multiplicity_equality or not is_pure, b
            seen.append((report.multiplicity_ok, report.multiplicity_equality))
        assert {(True, True), (True, False), (False, False)} <= set(seen), seen
        assert seen.count((True, True)) >= 30 and seen.count((True, False)) >= 30, seen

    def test_expand_in_chain(self):
        rng = random.Random(24)
        windows = [w for w in KERNEL_WINDOWS if w != Window(3, 0, 3, 0)]
        for w in windows:
            chains = list(islice(maximal_chains(w), 300))
            outside = BettiDiagram(w.n, {(0, w.M): 1})
            for b in [*seeded_inputs(w, rng, 3), outside]:
                for chain in rng.sample(chains, min(4, len(chains))):
                    coords, residual = expand_reference(b, chain)
                    if residual:
                        with pytest.raises((NotInSubspace, WindowMismatch)):
                            expand_in_chain(b, chain)
                        continue
                    got = expand_in_chain(b, chain)
                    assert got == coords and all(type(c) is Fraction for c in got), (w, b)
                    rebuilt = BettiDiagram(w.n, {})
                    for c, p in zip(got, chain.elements):
                        rebuilt = rebuilt + p.betti.scaled(c)
                    assert rebuilt == b


def verify_reference(dec: Decomposition, b: BettiDiagram):
    """(ok, reason) of ``verify_decomposition`` from the definition: the
    terms summed as Fraction pure diagrams, entry by entry.  When the sum is
    b, the dual functionals read the unique chain coefficients, so the
    decomposition verifies."""
    if dec.n != b.n:
        return False, "ambient_mismatch"
    rebuilt = {}
    for c, p in dec.terms:
        for pos, v in pure_reference(tuple(p.degrees)).items():
            rebuilt[pos] = rebuilt.get(pos, Fraction(0)) + c * v
    if BettiDiagram(dec.n, rebuilt) != b:
        return False, "reconstruction"
    return True, None


def altered_decompositions(dec: Decomposition, rng: random.Random):
    """dec with one coefficient moved by 1/7, with one term dropped, and
    with the same terms in ambient n + 1."""
    terms = list(dec.terms)
    k = rng.randrange(len(terms))
    c, p = terms[k]
    step = Fraction(1, 7) if c <= Fraction(1, 7) or rng.random() < 0.5 else Fraction(-1, 7)
    yield Decomposition((*terms[:k], (c + step, p), *terms[k + 1 :]), dec.n)
    yield Decomposition((*terms[:k], *terms[k + 1 :]), dec.n)
    yield Decomposition(tuple((c, pure_diagram(p.degrees, dec.n + 1)) for c, p in terms), dec.n + 1)


class TestIntegerReconstructionCheck:
    def test_verification_matches_fraction_reconstruction(self):
        rng = random.Random(25)
        windows = [*KERNEL_WINDOWS, Window(5, 0, 1, 0), Window(6, 0, 1, 2), Window(6, -1, 1, 4)]
        outcomes = {"ok": 0, "ambient_mismatch": 0, "reconstruction": 0}
        for w in windows:
            inputs = list(seeded_inputs(w, rng, 6))
            for member, near in zip(inputs[::2], inputs[1::2]):
                lifted = BettiDiagram(w.n + 1, dict(member.items()))
                # every position but one: the sum has a position b lacks
                trimmed = BettiDiagram(w.n, dict(member.items()[1:]))
                dec = greedy_decompose(member)
                decs = [dec, *altered_decompositions(dec, rng)]
                for d in decs:
                    for b in (member, near, lifted, trimmed):
                        got = verify_decomposition(d, b)
                        assert (got.ok, got.reason) == verify_reference(d, b), (w, d, b)
                        if d.n == b.n:
                            # the parent route: a Fraction reconstruction
                            assert (got.reason == "reconstruction") is (d.reconstruct() != b), (w, d, b)
                        outcomes[got.reason or "ok"] += 1
        assert min(outcomes.values()) >= 40, outcomes

    def test_reconstruct(self):
        rng = random.Random(26)
        for w in KERNEL_WINDOWS:
            for member in list(seeded_inputs(w, rng, 4))[::2]:
                dec = greedy_decompose(member)
                for d in (dec, *altered_decompositions(dec, rng)):
                    rebuilt = d.reconstruct()
                    expected = BettiDiagram(d.n, {})
                    for c, p in d.terms:
                        expected = expected + p.betti.scaled(c)
                    assert rebuilt == expected and rebuilt.n == d.n, (w, d)
                    assert_clean(rebuilt)
        assert Decomposition((), 3).reconstruct() == BettiDiagram(3, {})
        assert_clean(Decomposition((), 3).reconstruct())


def greedy_results(quotient_diagram):
    """greedy_decompose of the fixture and of the seeded members among
    ``greedy_inputs`` and ``table_inputs``, the failures skipped."""
    yield greedy_decompose(quotient_diagram)
    rng = random.Random(27)
    for b in [*greedy_inputs(rng, 40), *table_inputs(rng, 20)]:
        try:
            yield greedy_decompose(b)
        except (NotInCone, InvalidDiagram):
            pass


class TestTrustedGreedyDecomposition:
    def test_greedy_output_would_pass_the_public_constructor(self, quotient_diagram):
        # greedy builds through Decomposition._of: what the constructor
        # would check holds by construction
        count = 0
        for dec in greedy_results(quotient_diagram):
            assert Decomposition(dec.terms, dec.n) == dec
            assert all(type(c) is Fraction and c > 0 for c in dec.coefficients()), dec
            assert all(type(p) is PureDiagram and p.n == dec.n for p in dec.diagrams()), dec
            assert all(a != b and leq(a, b) for a, b in zip(dec.diagrams(), dec.diagrams()[1:])), dec
            count += 1
        assert count >= 50


BOUNDS_FIELDS = [
    ("applicable", "bool", MISSING),
    ("reason", "str | None", MISSING),
    ("depth", "int", MISSING),
    ("generator_count", "Fraction | None", None),
    ("shifts", "ShiftBounds | None", None),
    ("lower_ok", "bool | None", None),
    ("upper_ok", "bool | None", None),
    ("lower_slack", "tuple[Fraction, ...] | None", None),
    ("upper_slack", "tuple[Fraction, ...] | None", None),
    ("lower_equality", "bool | None", None),
    ("upper_equality", "bool | None", None),
    ("multiplicity_value", "Fraction | None", None),
    ("multiplicity_bound", "Fraction | None", None),
    ("multiplicity_ok", "bool | None", None),
    ("multiplicity_equality", "bool | None", None),
    ("is_pure", "bool | None", None),
]


def applicable_reports(quotient_diagram):
    """(b, depth) of the fixture and of seeded inputs whose report applies."""
    yield quotient_diagram, None
    rng = random.Random(28)
    for k, b in enumerate(greedy_inputs(rng, 60)):
        depth = None if k % 3 else rng.randint(0, 8)
        expected = bounds_reference(b, depth)
        if not isinstance(expected, type) and expected.applicable:
            yield b, depth


class TestLazySlack:
    def test_fields_are_unchanged(self):
        got = [(f.name, f.type, f.default) for f in dataclasses.fields(BoundsReport)]
        assert got == BOUNDS_FIELDS
        assert BoundsReport(False, "r", 3).lower_slack is None

    def test_repr_and_equality_match_an_eager_report(self, quotient_diagram):
        count = 0
        for b, depth in applicable_reports(quotient_diagram):
            eager = bounds_reference(b, depth)
            assert type(eager.lower_slack) is tuple
            # each read first on a report that has built no slack yet
            assert repr(multiplicity_bounds(b, depth)) == repr(eager), b
            assert multiplicity_bounds(b, depth) == eager, b
            assert eager == multiplicity_bounds(b, depth), b
            assert hash(multiplicity_bounds(b, depth)) == hash(eager), b
            assert io.encode(multiplicity_bounds(b, depth)) == io.encode(eager), b
            count += 1
        assert count >= 20

    def test_copies(self, quotient_diagram):
        for b, depth in islice(applicable_reports(quotient_diagram), 10):
            eager = bounds_reference(b, depth)
            assert dataclasses.asdict(multiplicity_bounds(b, depth)) == dataclasses.asdict(eager), b
            assert copy.copy(multiplicity_bounds(b, depth)) == eager, b
            assert copy.deepcopy(multiplicity_bounds(b, depth)) == eager, b
            assert pickle.loads(pickle.dumps(multiplicity_bounds(b, depth))) == eager, b
            assert dataclasses.replace(multiplicity_bounds(b, depth)) == eager, b

    def test_passed_builds_no_slack(self, quotient_diagram, monkeypatch):
        calls = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                calls.append(args)
                return Fraction(*args, **kwargs)

        monkeypatch.setattr(hilbert, "Fraction", Counting)
        for b, depth in islice(applicable_reports(quotient_diagram), 20):
            calls.clear()
            report = multiplicity_bounds(b, depth)
            assert report.passed in (True, False)
            # the multiplicity bound only
            assert len(calls) == 1, b
            lower = report.lower_slack
            assert len(calls) == 1 + sum(1 for v in lower if v), b
            assert report.lower_slack is lower
            upper = report.upper_slack
            assert len(calls) == 1 + sum(1 for v in lower + upper if v), b
            assert all(type(v) is Fraction for v in lower + upper)
