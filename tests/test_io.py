"""Serialization: table/json parsing, canonical emission, report encoding."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettidecomp import (
    BettiDiagram,
    Tableau,
    Window,
    chain_from_tableau,
    coefficient_functional,
    emit_decomposition,
    emit_diagram,
    emit_report,
    greedy_decompose,
    parse_diagram,
)
from bettidecomp.errors import DuplicateEntry, InvalidDiagram, ParseError
from bettidecomp.io import format_rational, parse_rational


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


class TestEmitDecomposition:
    def test_quotient(self, quotient_diagram):
        dec = greedy_decompose(quotient_diagram)
        assert emit_decomposition(dec) == (
            '[["6", [0, 2, 3, 5]], ["12", [0, 2, 4, 5]], ["2", [0, 3, 4]], ["1", [0, 3]]]'
        )


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
