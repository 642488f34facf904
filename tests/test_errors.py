"""Error surface: every domain exception is reachable and well-formed."""

import ast
import doctest
from fractions import Fraction
from pathlib import Path

import pytest

import bettidecomp
from bettidecomp import (
    BettiDiagram,
    Chain,
    Decomposition,
    LaurentPolynomial,
    Tableau,
    Window,
    boundary_facets,
    chain_from_tableau,
    codimension,
    count_maximal_chains,
    covers,
    derived_window,
    expand_in_chain,
    classify_facet,
    greedy_decompose,
    hilbert_series,
    hk_residuals,
    maximal_chains,
    membership_by_inequalities,
    multiplicity,
    multiplicity_bounds,
    normalize,
    numerator_polynomial,
    pure_diagram,
    shift_bounds,
    tableau_from_chain,
    verify_decomposition,
    verify_fan_convexity,
    window_of,
)
from bettidecomp.errors import (
    BettiError,
    ChainNotMaximal,
    ColumnOutOfRange,
    InvalidDiagram,
    InvalidTableau,
    NotAChain,
    WindowMismatch,
)


class TestErrorHierarchy:
    def test_all_domain_errors_share_a_base(self):
        import bettidecomp.errors as errors

        names = [
            "InvalidDiagram", "InvalidDegreeSequence", "CodimensionExceedsAmbient",
            "NotGeneratedInDegreeZero", "UndefinedOnZero", "WindowMismatch",
            "NotInSubspace", "NotACoverTriple", "InvalidTableau", "ChainNotMaximal",
            "NotAChain", "NotInCone", "NotSingleDegreeGenerated", "WindowTooLarge",
            "ParseError", "DuplicateEntry",
        ]
        for name in names:
            assert issubclass(getattr(errors, name), BettiError), name


class TestNoAssertInLibrary:
    def test_no_invariant_relies_on_assert(self):
        # python -O strips assert statements, so a check must raise instead
        sources = sorted(Path(bettidecomp.__file__).parent.glob("*.py"))
        assert sources
        for path in sources:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, f"{path.name} uses assert on lines {lines}"


class TestWindowValidation:
    def test_inverted_rows(self):
        with pytest.raises(WindowMismatch):
            Window(2, 3, 1)

    def test_s_min_out_of_range(self):
        with pytest.raises(WindowMismatch):
            Window(2, 0, 1, 3)

    def test_negative_n(self):
        with pytest.raises(WindowMismatch):
            Window(-1, 0, 0)

    @pytest.mark.parametrize("fields", [(2, 0.0, 1.0), (2.0, 0, 1), (2, 0, 1, True), (True, 0, 1), (2, "0", 1)])
    def test_non_integer_fields(self, fields):
        with pytest.raises(WindowMismatch, match="must be integers"):
            Window(*fields)


class TestChainValidation:
    def test_not_increasing(self):
        w = Window(2, 0, 1)
        with pytest.raises(NotAChain):
            Chain((pure_diagram((0, 2), 2), pure_diagram((0, 1), 2)), w)

    def test_incomparable_elements(self):
        w = Window(2, 0, 1)
        with pytest.raises(NotAChain):
            Chain((pure_diagram((0,), 2), pure_diagram((1, 2, 3), 2)), w)

    def test_element_outside_window(self):
        w = Window(2, 0, 1)
        with pytest.raises(WindowMismatch):
            Chain((pure_diagram((0, 5), 2),), w)

    def test_window_error_comes_before_order_error(self):
        w = Window(2, 0, 1)
        down = (pure_diagram((0, 2), 2), pure_diagram((0, 1), 2))
        with pytest.raises(WindowMismatch, match=r"pi\(0, 5\) is not a valid diagram"):
            Chain((*down, pure_diagram((0, 5), 2)), w)
        # cover steps throughout, but the last element has another n
        with pytest.raises(WindowMismatch, match=r"pi\(0, 1, 3\) is not a valid diagram"):
            Chain((pure_diagram((0, 1, 2), 2), pure_diagram((0, 1, 3), 3)), w)

    def test_elements_are_stored_as_a_tuple(self):
        w = Window(2, 0, 1)
        steps = [pure_diagram((0, 1, 2), 2), pure_diagram((0, 1), 2)]
        chain = Chain(steps, w)
        assert chain == Chain(tuple(steps), w)
        assert hash(chain) == hash(Chain(tuple(steps), w))
        assert chain.elements == tuple(steps)

    @pytest.mark.parametrize(
        "elements,window,error,named",
        [
            (((0, 1, 2),), Window(2, 0, 1), WindowMismatch, r"\(0, 1, 2\) is not a pure diagram"),
            ((pure_diagram((0, 1), 2),), (2, 0, 1), WindowMismatch, r"must be a Window, got \(2, 0, 1\)"),
            (None, Window(2, 0, 1), NotAChain, "got None"),
        ],
        ids=["tuple-element", "tuple-window", "no-elements"],
    )
    def test_bad_arguments_are_named(self, elements, window, error, named):
        with pytest.raises(error, match=named):
            Chain(elements, window)

    def test_covers_rejects_foreign_diagrams(self):
        w = Window(2, 0, 1)
        with pytest.raises(WindowMismatch):
            covers(pure_diagram((0, 9), 2), pure_diagram((0,), 2), w)


_W = Window(2, 0, 1)
_P = pure_diagram((0, 1, 2), 2)
# a maximal chain of _W as a plain tuple of its diagrams
_ELEMENTS = tuple(pure_diagram(d, 2) for d in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 2), (1,)))
_CHAIN = Chain(_ELEMENTS, _W)
# a diagram, a decomposition and a tableau as the plain values they hold
_ENTRIES = {(0, 0): 1}
_DEC = greedy_decompose(_P.betti)


class TestWrongArgumentTypes:
    """A plain value in place of a Window, a Chain, a diagram, a
    decomposition or a tableau is named in the error, not met by an
    AttributeError."""

    @pytest.mark.parametrize(
        "call,error,named",
        [
            (lambda: covers(_P, _P, (2, 0, 1)), WindowMismatch, r"Window, got \(2, 0, 1\)"),
            (lambda: covers((0, 1, 2), _P, _W), WindowMismatch, r"\(0, 1, 2\) is not a valid diagram"),
            (lambda: tableau_from_chain(_ELEMENTS), NotAChain, r"Chain, got \(pi\(0, 1, 2\)"),
            (lambda: classify_facet(_ELEMENTS[1:]), NotAChain, r"Chain, got \(pi\(0, 1, 3\)"),
            (lambda: expand_in_chain(_P.betti, _ELEMENTS), NotAChain, r"Chain, got \(pi\(0, 1, 2\)"),
            (lambda: chain_from_tableau(Tableau(((1,),)), (0, 2, 2)), WindowMismatch, r"Window, got \(0, 2, 2\)"),
            (lambda: next(maximal_chains((2, 0, 1))), WindowMismatch, r"Window, got \(2, 0, 1\)"),
            (lambda: count_maximal_chains((2, 0, 1)), WindowMismatch, r"Window, got \(2, 0, 1\)"),
            (lambda: boundary_facets((2, 0, 1)), WindowMismatch, r"Window, got \(2, 0, 1\)"),
            (lambda: verify_fan_convexity((2, 0, 1)), WindowMismatch, r"Window, got \(2, 0, 1\)"),
            (lambda: membership_by_inequalities(_P.betti, (2, 0, 1)), WindowMismatch, r"Window, got \(2, 0, 1\)"),
            (lambda: greedy_decompose(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: derived_window(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: membership_by_inequalities(_ENTRIES, _W), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: expand_in_chain(((0, 0), 1), _CHAIN), InvalidDiagram, r"BettiDiagram, got \(\(0, 0\), 1\)"),
            (lambda: verify_decomposition(((1, (0, 1)),), _P.betti), InvalidDiagram, r"Decomposition, got \(\(1, \(0, 1\)\),\)"),
            (lambda: verify_decomposition(_DEC, _ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: chain_from_tableau(((1,),), _W), InvalidTableau, r"Tableau, got \(\(1,\),\)"),
            (lambda: codimension(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: numerator_polynomial(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: hk_residuals(_ENTRIES, 1), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: window_of(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: hilbert_series(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: multiplicity(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: shift_bounds(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: multiplicity_bounds(_ENTRIES), InvalidDiagram, r"BettiDiagram, got \{\(0, 0\): 1\}"),
            (lambda: normalize((0, 1, 2)), InvalidDiagram, r"PureDiagram, got \(0, 1, 2\)"),
        ],
        ids=[
            "covers-window", "covers-diagram", "tableau_from_chain", "classify_facet", "expand_in_chain",
            "chain_from_tableau", "maximal_chains", "count_maximal_chains", "boundary_facets",
            "verify_fan_convexity", "membership_by_inequalities", "greedy_decompose-diagram",
            "derived_window-diagram", "membership_by_inequalities-diagram", "expand_in_chain-diagram",
            "verify_decomposition-decomposition", "verify_decomposition-diagram", "chain_from_tableau-tableau",
            "codimension", "numerator_polynomial", "hk_residuals", "window_of", "hilbert_series",
            "multiplicity", "shift_bounds", "multiplicity_bounds", "normalize",
        ],
    )
    def test_bad_argument_is_named(self, call, error, named):
        with pytest.raises(error, match=named):
            call()

    def test_tuple_is_the_chain_of_its_window(self):
        # the stand-in above is a real maximal chain, so only its type fails
        assert Chain(_ELEMENTS, _W).is_maximal()


_B = BettiDiagram(2, {(0, 0): 1, (1, 2): "3/2"})


class TestIndexReads:
    """An index read takes an int (pair) and nothing else: 1.0 and True
    hash like 1, and must not read column or degree 1.  A pure diagram's
    column lies in [0, codimension]."""

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: _B[(1.0, 2)], InvalidDiagram),
            (lambda: _B[(True, 2)], InvalidDiagram),
            (lambda: _B[(1, 2.0)], InvalidDiagram),
            (lambda: _B[0], InvalidDiagram),
            (lambda: _B[(1, 2, 3)], InvalidDiagram),
            (lambda: _B.column_degrees(1.5), InvalidDiagram),
            (lambda: _B.column_degrees(True), InvalidDiagram),
            (lambda: _P.entry(True), InvalidDiagram),
            (lambda: _P.entry(1.0), InvalidDiagram),
            (lambda: _P.entry(-1), ColumnOutOfRange),
            (lambda: _P.entry(5), ColumnOutOfRange),
            (lambda: LaurentPolynomial({1: 2}).coefficient(1.0), InvalidDiagram),
            (lambda: LaurentPolynomial({1: 2}).coefficient(True), InvalidDiagram),
        ],
        ids=[
            "getitem-float-column", "getitem-bool-column", "getitem-float-degree", "getitem-int",
            "getitem-triple", "column_degrees-float", "column_degrees-bool", "entry-bool", "entry-float",
            "entry-negative", "entry-past-codimension", "coefficient-float", "coefficient-bool",
        ],
    )
    def test_bad_index_is_refused(self, call, error):
        with pytest.raises(error):
            call()

    def test_int_reads_still_read(self):
        assert _B[(1, 2)] == Fraction(3, 2) and _B[(2, 2)] == 0
        assert _B.column_degrees(1) == (2,) and _B.column_degrees(2) == ()
        assert [_P.entry(i) for i in range(3)] == [Fraction(1, 2), Fraction(1), Fraction(1, 2)]
        assert LaurentPolynomial({1: 2}).coefficient(1) == 2


class TestMaximalityRequirements:
    def test_expand_needs_maximal_chain(self, quotient_diagram):
        w = Window(3, 0, 2, 0)
        partial = Chain((pure_diagram((0, 1, 2, 3), 3), pure_diagram((0, 3), 3)), w)
        with pytest.raises(ChainNotMaximal):
            expand_in_chain(quotient_diagram, partial)

    def test_classify_needs_one_missing_element(self):
        w = Window(2, 0, 1)
        full = next(iter(maximal_chains(w)))
        with pytest.raises(ChainNotMaximal):
            classify_facet(full)  # nothing was removed
        two_short = Chain(full.elements[2:], w)
        with pytest.raises(ChainNotMaximal):
            classify_facet(two_short)


class TestDecompositionValidation:
    def test_nonpositive_coefficient(self):
        with pytest.raises(InvalidDiagram):
            Decomposition(((Fraction(0), pure_diagram((0,), 2)),), 2)

    @pytest.mark.parametrize("coeff", [0.5, 1.0, True, "1.5", "1/0", None])
    def test_inexact_coefficient(self, coeff):
        with pytest.raises(InvalidDiagram):
            Decomposition(((coeff, pure_diagram((0,), 2)),), 2)

    @pytest.mark.parametrize(
        "element",
        [pure_diagram((0, 1), 1), pure_diagram((0, 1), 3), (0, 1), pure_diagram((0, 1), 2).betti, None],
    )
    def test_element_not_a_pure_diagram_of_its_n(self, element):
        with pytest.raises(InvalidDiagram):
            Decomposition(((Fraction(1), element),), 2)

    def test_coefficients_stored_as_fractions(self):
        dec = Decomposition(((1, pure_diagram((0, 1), 2)), ("3/2", pure_diagram((0, 2), 2))), 2)
        assert dec.coefficients() == [Fraction(1), Fraction(3, 2)]
        assert all(type(c) is Fraction for c in dec.coefficients())
        assert isinstance(dec.terms, tuple)

    def test_unordered_terms(self):
        with pytest.raises(InvalidDiagram):
            Decomposition(
                (
                    (Fraction(1), pure_diagram((0, 2), 2)),
                    (Fraction(1), pure_diagram((0, 1), 2)),
                ),
                2,
            )


def test_doctests_in_public_modules():
    failures = 0
    for module in (bettidecomp.core, bettidecomp.decompose, bettidecomp.io):
        result = doctest.testmod(module, verbose=False)
        failures += result.failed
    assert failures == 0
