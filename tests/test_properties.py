"""Property tests of the integer fields and the parsers.

Integer fields: ints pass through unchanged, and a float or a bool anywhere
raises the constructor's own error.  Parsers and ``as_rational``: exact
input gives exact output, and anything else raises a domain error, never a
bare exception.  Derandomized, so every run checks the same examples."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettidecomp import (
    BettiDiagram,
    HilbertSeries,
    LaurentPolynomial,
    Tableau,
    Window,
    emit_diagram,
    hilbert_series,
    hk_residuals,
    maximal_chains,
    multiplicity_bounds,
    parse_diagram,
    pure_diagram,
)
from bettidecomp.core import as_rational, parse_rational
from bettidecomp.errors import (
    DuplicateEntry,
    InvalidDegreeSequence,
    InvalidDiagram,
    InvalidTableau,
    ParseError,
)

ints = st.integers(min_value=-50, max_value=50)
nonzero = st.fractions(max_denominator=12).filter(bool)


def inexact(value: int):
    """A float or bool, including the float equal to ``value``."""
    return st.one_of(st.just(float(value)), st.floats(), st.booleans())


def replace_one(data, cells):
    """Swap one drawn entry of the list ``cells`` for an inexact look-alike."""
    k = data.draw(st.integers(0, len(cells) - 1))
    cells = list(cells)
    cells[k] = data.draw(inexact(cells[k]))
    return cells


exact = settings(max_examples=50, deadline=None, derandomize=True)


@exact
@given(st.lists(ints, min_size=1, max_size=6, unique=True), st.data())
def test_degrees(degrees, data):
    d = sorted(degrees)
    p = pure_diagram(d, len(d) - 1)
    assert p.degrees == tuple(d) and all(type(x) is int for x in p.degrees)
    with pytest.raises(InvalidDegreeSequence):
        pure_diagram(replace_one(data, d), len(d) - 1)


@exact
@given(st.integers(0, 4), ints, nonzero, st.data())
def test_indices(n, j, v, data):
    i = data.draw(st.integers(0, n))
    b = BettiDiagram(n, {(i, j): v})
    assert b.support() == ((i, j),) and b[(i, j)] == v
    bad_n, bad_i, bad_j = replace_one(data, [n, i, j])
    with pytest.raises(InvalidDiagram):
        BettiDiagram(bad_n, {(bad_i, bad_j): v})


@exact
@given(st.dictionaries(ints, nonzero, min_size=1, max_size=6), st.data())
def test_laurent_degrees(coeffs, data):
    p = LaurentPolynomial(coeffs)
    assert p.items() == sorted(coeffs.items())
    degrees = replace_one(data, list(coeffs))
    with pytest.raises(InvalidDiagram):
        # pairs, not a dict: a dict would merge 1.0 or True into the key 1
        LaurentPolynomial(list(zip(degrees, coeffs.values())))


@exact
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_tableau_entries(rows, cols, data):
    # row r holds r*cols + cols, ..., r*cols + 1: decreasing along rows,
    # increasing down columns
    grid = tuple(tuple(range(r * cols + cols, r * cols, -1)) for r in range(rows))
    assert Tableau(grid).rows == grid
    flat = replace_one(data, [x for r in grid for x in r])
    with pytest.raises(InvalidTableau):
        Tableau(tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows)))



@exact
@given(st.integers(0, 5), st.data())
def test_integer_parameters(k, data):
    # s, n, depth and limit take an int; the look-alike is refused with the
    # error of each parameter's range check
    b = pure_diagram((0, 2, 3), 2).betti.scaled(6)
    assert len(hk_residuals(b, k)) == k
    assert pure_diagram((0,), k).betti.n == k
    assert HilbertSeries(LaurentPolynomial({0: 1}), k).n == k
    assert len(hilbert_series(b).expand(k)) == k + 1
    assert multiplicity_bounds(b, k).depth == k
    assert len(list(maximal_chains(Window(1, 0, 1), k + 2))) == 2
    bad = data.draw(inexact(k))
    with pytest.raises(ValueError):
        hk_residuals(b, bad)
    with pytest.raises(InvalidDiagram):
        HilbertSeries(LaurentPolynomial({0: 1}), bad)
    with pytest.raises(InvalidDiagram):
        pure_diagram((0,), bad)
    with pytest.raises(ValueError):
        hilbert_series(b).expand(bad)
    with pytest.raises(ValueError):
        multiplicity_bounds(b, bad)
    with pytest.raises(ValueError):
        next(maximal_chains(Window(1, 0, 1), bad))


# -- parsers: exact in, exact out; anything else a domain error -------------

# what as_rational and the diagram parsers may raise
PARSE_ERRORS = (ParseError, InvalidDiagram, DuplicateEntry)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
# 'p' or 'p/q' with q > 0, unreduced and zero-padded ones included
literals = st.builds(
    lambda p, q, pad, bare: str(p) if bare else f"{p}/{'0' * pad}{q}",
    st.integers(-10**9, 10**9),
    st.integers(1, 10**6),
    st.integers(0, 2),
    st.booleans(),
)
# signs, slashes, digits and a stray '.', 'e' or space: literals and near-misses
near_literals = st.builds(
    lambda sign, p, slash, q, tail: sign + p + slash + q + tail,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", max_size=3),
    st.sampled_from(["", "/"]),
    st.text("-0123456789", max_size=3),
    st.sampled_from(["", ".", "e", " "]),
)
inexact_scalars = st.one_of(
    st.floats(), st.booleans(), st.none(), st.complex_numbers(), st.decimals(),
    st.lists(st.integers(), max_size=2),
)


def is_literal(token: str) -> bool:
    """'p' or 'p/q' in ASCII digits, q > 0, from the definition."""
    p, slash, q = token.partition("/")
    digits = p[1:] if p.startswith("-") else p

    def ascii_digits(x):
        return x.isascii() and x.isdigit()

    return ascii_digits(digits) and (not slash or (ascii_digits(q) and int(q) > 0))


@exact
@given(literals)
def test_rational_literals_are_exact(token):
    p, _, q = token.partition("/")
    expected = Fraction(int(p), int(q or 1))
    for value in (parse_rational(token), as_rational(token)):
        assert type(value) is Fraction and value == expected


@exact
@given(st.one_of(st.text(max_size=12), near_literals))
def test_other_tokens_are_refused(token):
    if is_literal(token):
        p, _, q = token.partition("/")
        assert parse_rational(token) == Fraction(int(p), int(q or 1))
        return
    # ValueError is parse_rational's own refusal: the parsers turn it into
    # ParseError, and as_rational into InvalidDiagram
    with pytest.raises(ValueError):
        parse_rational(token)
    with pytest.raises(InvalidDiagram):
        as_rational(token)


@exact
@given(st.one_of(rationals, st.integers(-10**12, 10**12)), inexact_scalars)
def test_as_rational(value, other):
    got = as_rational(value)
    assert type(got) is Fraction and got == value
    with pytest.raises(InvalidDiagram):
        as_rational(other)


def diagrams():
    return st.integers(0, 5).flatmap(
        lambda n: st.builds(
            lambda entries: (n, entries),
            st.dictionaries(st.tuples(st.integers(0, n), st.integers(-4, 8)), rationals, max_size=8),
        )
    )


@exact
@given(diagrams())
def test_parsers_are_exact(drawn):
    n, entries = drawn
    doc = {"n": n, "entries": [[i, j, str(v)] for (i, j), v in entries.items()]}
    b = parse_diagram(json.dumps(doc), "json")
    assert b == BettiDiagram(n, entries)
    assert all(type(v) is Fraction for _, v in b.items())
    for fmt in ("json", "table"):
        again = parse_diagram(emit_diagram(b, fmt), fmt)
        assert again == b and again.n == n


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.floats(), st.text(max_size=4), literals),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["n", "entries", "metadata"]), children, max_size=3),
    ),
    max_leaves=12,
)
json_documents = st.one_of(
    json_values,
    st.fixed_dictionaries({
        "n": st.one_of(st.integers(-1, 4), json_values),
        "entries": st.lists(
            st.one_of(
                json_values,
                st.tuples(st.integers(-1, 5), st.integers(-3, 5), st.one_of(literals, json_values)).map(list),
            ),
            max_size=4,
        ),
    }),
)
table_lines = st.one_of(
    st.text(max_size=15),
    st.from_regex(r"#\s*n\s*=\s*-?[0-9]{1,2}", fullmatch=True),
    st.builds(
        lambda label, cells: f"{label}: " + " ".join(cells),
        st.integers(-3, 3),
        st.lists(st.one_of(st.just("-"), literals, near_literals, st.text(max_size=3)), max_size=4),
    ),
)


def parses_exactly_or_refuses(text: str, fmt: str) -> None:
    try:
        b = parse_diagram(text, fmt)
    except PARSE_ERRORS:
        return
    assert all(type(v) is Fraction for _, v in b.items())


@exact
@given(st.one_of(json_documents.map(json.dumps), st.text(max_size=30)))
def test_json_parser_refuses_with_domain_errors(text):
    parses_exactly_or_refuses(text, "json")


@exact
@given(st.one_of(st.lists(table_lines, max_size=4).map("\n".join), st.text(max_size=30)))
def test_table_parser_refuses_with_domain_errors(text):
    parses_exactly_or_refuses(text, "table")
