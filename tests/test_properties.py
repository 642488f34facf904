"""Property tests of the integer fields: ints pass through unchanged, and a
float or a bool anywhere raises the constructor's own error.  Derandomized,
so every run checks the same examples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettidecomp import (
    BettiDiagram,
    HilbertSeries,
    LaurentPolynomial,
    Tableau,
    Window,
    hilbert_series,
    hk_residuals,
    maximal_chains,
    multiplicity_bounds,
    pure_diagram,
)
from bettidecomp.errors import InvalidDegreeSequence, InvalidDiagram, InvalidTableau

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
