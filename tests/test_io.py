"""Serialization: table/json parsing, canonical emission, report encoding."""

import json
import random
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettidecomp import (
    BettiDiagram,
    Decomposition,
    DegreeSequence,
    PureDiagram,
    Tableau,
    Window,
    boundary_facets,
    chain_from_tableau,
    coefficient_functional,
    emit_decomposition,
    emit_diagram,
    emit_report,
    greedy_decompose,
    membership_by_inequalities,
    multiplicity_bounds,
    parse_diagram,
    pure_diagram,
    verify_decomposition,
    verify_fan_convexity,
)
from bettidecomp import io as dio
from bettidecomp.cli import run
from bettidecomp.decompose import VerificationResult
from bettidecomp.errors import DuplicateEntry, InvalidDiagram, ParseError
from bettidecomp.functionals import ConvexityReport, derived_window
from bettidecomp.io import encode, format_rational, parse_rational


QUOTIENT_TABLE = """\
0: 1 - - -
1: - 2 1 -
2: - 1 2 1
"""


class TestParseTable:
    def test_quotient(self, quotient_diagram):
        assert parse_diagram(QUOTIENT_TABLE, "table") == quotient_diagram

    def test_rational_literal(self):
        b = parse_diagram("0: 1/6", "table")
        assert b == BettiDiagram(0, {(0, 0): Fraction(1, 6)})

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n0: 1 -\n1: - 1\n"
        b = parse_diagram(text, "table")
        assert b.support() == ((0, 0), (1, 2))

    def test_zero_diagram_needs_declared_n(self):
        assert parse_diagram("# n=3\n", "table") == BettiDiagram(3, {})
        with pytest.raises(ParseError):
            parse_diagram("", "table")

    def test_float_rejected_with_position(self):
        with pytest.raises(ParseError) as info:
            parse_diagram("0: 1.5 -", "table")
        assert info.value.line == 1
        assert info.value.column == 4

    def test_bad_label(self):
        with pytest.raises(ParseError):
            parse_diagram("x: 1 -", "table")

    @pytest.mark.parametrize("label", ["\u0663", "+3", "1_0", "\u0661\u0660"])
    def test_labels_are_ascii_integers(self, label):
        with pytest.raises(ParseError) as info:
            parse_diagram(f"{label}: 1", "table")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_negative_label(self):
        assert parse_diagram("-2: 1", "table") == BettiDiagram(0, {(0, -2): 1})

    @pytest.mark.parametrize("value", ["\u0663", "+3", "3_0", "x"])
    def test_declared_n_is_an_ascii_integer(self, value):
        with pytest.raises(ParseError) as info:
            parse_diagram(f"# a comment\n# n = {value}\n", "table")
        assert info.value.line == 2

    def test_non_consecutive_labels(self):
        with pytest.raises(ParseError):
            parse_diagram("0: 1 -\n2: - 1", "table")

    def test_ragged_rows(self):
        with pytest.raises(ParseError):
            parse_diagram("0: 1 -\n1: 1", "table")


class TestParseJson:
    def test_quotient(self, fixtures_dir, quotient_diagram):
        text = (fixtures_dir / "quotient_x2_xy_xz2.json").read_text()
        assert parse_diagram(text, "json") == quotient_diagram

    def test_empty_entries(self):
        assert parse_diagram('{"n": 2, "entries": []}', "json") == BettiDiagram(2, {})

    def test_duplicate_entry(self):
        doc = '{"n": 1, "entries": [[0, 0, "1"], [0, 0, "2"]]}'
        with pytest.raises(DuplicateEntry):
            parse_diagram(doc, "json")

    def test_out_of_range_column(self):
        with pytest.raises(ParseError, match=r"column 2 outside \[0, 1\]"):
            parse_diagram('{"n": 1, "entries": [[2, 2, "1"]]}', "json")

    def test_float_value_rejected(self):
        with pytest.raises(ParseError):
            parse_diagram('{"n": 1, "entries": [[0, 0, "0.5"]]}', "json")

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": true, "entries": [[false, true, "1"], [true, 2, "1"]]}',
            '{"n": 2, "entries": [[false, true, "1"]]}',
            '{"n": 2, "entries": [[0, 1.0, "1"]]}',
            '{"n": 2.0, "entries": []}',
        ],
    )
    def test_non_integer_fields_rejected(self, doc):
        with pytest.raises(ParseError, match="integer"):
            parse_diagram(doc, "json")

    @pytest.mark.parametrize("entries", ["5", "null", '{"0": "1"}'])
    def test_entries_must_be_a_list(self, entries):
        with pytest.raises(ParseError, match="'entries' must be a list"):
            parse_diagram('{"n": 1, "entries": %s}' % entries, "json")

    def test_malformed_json_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_diagram('{"n": 1,', "json")
        assert info.value.line is not None


class TestEmit:
    def test_json_round_trip(self, quotient_diagram):
        text = emit_diagram(quotient_diagram, "json")
        assert parse_diagram(text, "json") == quotient_diagram

    def test_table_round_trip(self, quotient_diagram):
        text = emit_diagram(quotient_diagram, "table")
        assert parse_diagram(text, "table") == quotient_diagram

    def test_json_sorted_entries(self):
        b = BettiDiagram(1, {(1, 2): 1, (0, 0): 2, (1, 1): 3})
        doc = json.loads(emit_diagram(b, "json"))
        assert doc["entries"] == sorted(doc["entries"])

    def test_zero_diagram_round_trips_both_ways(self):
        z = BettiDiagram(4, {})
        assert parse_diagram(emit_diagram(z, "json"), "json") == z
        assert parse_diagram(emit_diagram(z, "table"), "table") == z

    def test_deterministic(self, quotient_diagram):
        a = emit_diagram(quotient_diagram, "json")
        b = emit_diagram(BettiDiagram(3, dict(quotient_diagram.items())), "json")
        assert a == b


diagram_strategy = st.builds(
    lambda n, raw: BettiDiagram(
        n,
        {
            (i % (n + 1), (i % (n + 1)) + off): Fraction(p, q)
            for (i, off, p, q) in raw
        },
    ),
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-3, max_value=5),
            st.integers(min_value=-99, max_value=99),
            st.integers(min_value=1, max_value=20),
        ),
        max_size=10,
    ),
)


class TestFuzzRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(diagram_strategy)
    def test_json(self, b):
        assert parse_diagram(emit_diagram(b, "json"), "json") == b

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(diagram_strategy)
    def test_table(self, b):
        assert parse_diagram(emit_diagram(b, "table"), "table") == b


def _chain_members(seed, count):
    """Positive rational combinations of the pure diagrams of one chain of
    degree sequences, each raising the tail of the one before by one."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        d = list(range(rng.randint(1, n) + 1))
        b = BettiDiagram(n, {})
        for _ in range(rng.randint(1, 6)):
            b = b + pure_diagram(d, n).betti.scaled(Fraction(rng.randint(1, 60), rng.randint(1, 9)))
            i = rng.randint(1, len(d) - 1)
            d[i:] = [x + 1 for x in d[i:]]
        yield b


class TestEmitDecomposition:
    def test_quotient(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        assert emit_decomposition(dec) == (
            '[["6", [0, 2, 3, 5]], ["12", [0, 2, 4, 5]], ["2", [0, 3, 4]], ["1", [0, 3]]]'
        )

    def test_bytes_are_those_of_json_dumps(self, capsys, tmp_path):
        # the text written by hand is json.dumps of the one payload, and the
        # CLI prints it for the same diagram read from a table
        assert emit_decomposition(Decomposition((), 3)) == json.dumps(dio._decomposition_payload(Decomposition((), 3)))
        fractional = 0
        path = tmp_path / "member.table"
        for k, b in enumerate(_chain_members(44, 200)):
            dec = greedy_decompose(b)
            text = emit_decomposition(dec)
            assert text == json.dumps(dio._decomposition_payload(dec)), b
            fractional += any(c.denominator > 1 for c in dec.coefficients())
            if k % 10 == 0:
                path.write_text(emit_diagram(b, "table"))
                assert run(["--format", "json", "decompose", "--input-format", "table", str(path)]) == 0
                assert capsys.readouterr().out == text + "\n", b
        assert fractional >= 150

    def test_int_subclass_degrees_emit_as_ints(self):
        class Degree(IntEnum):
            ZERO, TWO = 0, 2

        dec = Decomposition([(Fraction(1, 2), PureDiagram(DegreeSequence([Degree.ZERO, Degree.TWO]), 1))], 1)
        assert emit_decomposition(dec) == json.dumps(dio._decomposition_payload(dec)) == '[["1/2", [0, 2]]]'


class TestEmitReport:
    def test_empty_facet_list(self):
        assert emit_report([]) == "[]"

    def test_functional_grid_row_major(self, dual_functionals):
        w = Window(3, 0, 2, 0)
        chain = chain_from_tableau(Tableau(tuple(map(tuple, dual_functionals["numbering"]))), w)
        f = coefficient_functional(chain[5], chain[6], chain[7], w)
        doc = json.loads(emit_report(f))
        assert doc["grid"] == dual_functionals["matrices"]["7"]
        assert doc["case"] == "second"

    def test_rationals_as_strings(self):
        text = emit_report({"value": Fraction(1, 3), "count": 2, "flag": True})
        assert json.loads(text) == {"value": "1/3", "count": 2, "flag": True}

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            emit_report({"x": 0.5})

    def test_deterministic_key_order(self):
        a = emit_report({"b": 1, "a": 2})
        assert a == '{"a": 2, "b": 1}'


@dataclass(frozen=True)
class _NotedResult(VerificationResult):
    """A report subclass with one field more than its base."""

    note: str = "extra"


def _seeded_diagrams(seed, count):
    rng = random.Random(seed)
    yield BettiDiagram(2, {})
    for _ in range(count):
        n = rng.randint(0, 4)
        entries = {}
        for _ in range(rng.randint(1, 8)):
            i = rng.randint(0, n)
            entries[i, i + rng.randint(-3, 5)] = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        yield BettiDiagram(n, entries)


class TestSharedEncoder:
    """One kept sorted encoder writes the bytes json.dumps(..., sort_keys=True) writes."""

    def reports(self, quotient_diagram):
        w = Window(3, 0, 2, 0)
        facet = boundary_facets(w)[3]
        broken = BettiDiagram(3, {(0, 0): 1, (1, 3): 1, (2, 3): 1, (2, 4): 2, (3, 5): 1})
        dec = greedy_decompose(quotient_diagram)
        return {
            "fan passes": verify_fan_convexity(w),
            # a failing report built by hand: its counterexample need not be true
            "fan fails": ConvexityReport(w, False, 51, 34, (facet, pure_diagram((0, 1, 2, 3), 3), Fraction(-1, 6))),
            "member": membership_by_inequalities(quotient_diagram, derived_window(quotient_diagram)),
            "not a member": membership_by_inequalities(broken, derived_window(broken)),
            "bounds apply": multiplicity_bounds(quotient_diagram),
            "bounds do not apply": multiplicity_bounds(BettiDiagram(2, {(0, 0): 2, (1, 3): 3, (2, 3): 1}), 10),
            "verified": verify_decomposition(dec, quotient_diagram),
            "not verified": verify_decomposition(dec, 2 * quotient_diagram),
        }

    def test_every_cli_report(self, quotient_diagram):
        reports = self.reports(quotient_diagram)
        # each report is the kind its name says
        assert [bool(reports[k].passed) for k in ("fan passes", "fan fails")] == [True, False]
        assert [reports[k].member for k in ("member", "not a member")] == [True, False]
        assert [reports[k].applicable for k in ("bounds apply", "bounds do not apply")] == [True, False]
        assert [reports[k].ok for k in ("verified", "not verified")] == [True, False]
        for name, report in reports.items():
            assert emit_report(report) == json.dumps(encode(report), sort_keys=True), name

    def test_diagrams(self):
        for b in _seeded_diagrams(27, 200):
            assert emit_diagram(b) == json.dumps(encode(b), sort_keys=True), b

    def test_field_names_are_read_per_exact_class(self):
        base, noted = VerificationResult(True), _NotedResult(True)
        for first, second in ((base, noted), (noted, base)):
            dio._field_names.cache_clear()
            encode(first), encode(second)
            assert encode(base) == {"ok": True, "reason": None}
            assert encode(noted) == {"ok": True, "reason": None, "note": "extra"}
            assert emit_report(noted) == '{"note": "extra", "ok": true, "reason": null}'


class TestShippedSchema:
    def test_fixture_and_emission_validate(self, fixtures_dir, quotient_diagram):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (fixtures_dir.parent / "schemas" / "diagram.schema.json").read_text()
        )
        jsonschema.validate(
            json.loads((fixtures_dir / "quotient_x2_xy_xz2.json").read_text()), schema
        )
        jsonschema.validate(json.loads(emit_diagram(quotient_diagram, "json")), schema)

    def test_schema_rejects_float_values(self, fixtures_dir):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (fixtures_dir.parent / "schemas" / "diagram.schema.json").read_text()
        )
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"n": 1, "entries": [[0, 0, "0.5"]]}, schema)


class TestRationalTokens:
    @pytest.mark.parametrize("token", ["0", "-5", "7/3", "-12/5"])
    def test_round_trip(self, token):
        assert format_rational(parse_rational(token)) == token

    @pytest.mark.parametrize(
        "token", ["1.5", "1e3", "1/0x2", "", "/3", "2/", "1/0", "5\n", "\u0663"]
    )
    def test_rejects_non_rationals(self, token):
        with pytest.raises(ValueError):
            parse_rational(token)

    def test_unreduced_input_canonicalizes(self):
        assert format_rational(parse_rational("4/6")) == "2/3"

    @pytest.mark.parametrize("value", [0.1, 2.0, True, "0.5"])
    def test_format_refuses_inexact_values(self, value):
        with pytest.raises(InvalidDiagram):
            format_rational(value)
