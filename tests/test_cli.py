"""Command-line surface: outputs, determinism, exit codes."""

import hashlib
import importlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettidecomp import Window, cli, count_maximal_chains, functionals, greedy_decompose, maximal_chains, poset, pure_diagram
from bettidecomp import io as dio
from bettidecomp.cli import run


@pytest.fixture()
def quotient_path(fixtures_dir):
    return str(fixtures_dir / "quotient_x2_xy_xz2.json")


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPure:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "pure", "--degrees", "0,2,3,5", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [
            [0, 0, "1/30"],
            [1, 2, "1/6"],
            [2, 3, "1/6"],
            [3, 5, "1/30"],
        ]

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "pure", "--degrees", "0,3", "--n", "1", "--format", "table")
        assert code == 0
        assert out == "0: 1/3   -\n1:   -   -\n2:   - 1/3\n"

    def test_bad_degrees_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "pure", "--degrees", "3,1", "--n", "3")
        assert code == 2
        assert "increasing" in err

    @pytest.mark.parametrize("degrees", ["\u0660,\u0661_0", "0,+3", "0,1_0", "0,3.0"])
    def test_degrees_are_ascii_integers(self, capsys, degrees):
        code, out, err = run_cli(capsys, "pure", "--degrees", degrees, "--n", "1")
        assert (code, out, err) == (2, "", "error: --degrees must be comma-separated integers\n")

    def test_degrees_allow_spaces_and_signs(self, capsys):
        code, out, _ = run_cli(capsys, "pure", "--degrees", " -1, 2", "--n", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["entries"] == [[0, -1, "1/3"], [1, 2, "1/3"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ("pure", "--degrees", "-1,2", "--n", "1"),
            ("pure", "--n", "1", "--degrees", "-1,2"),
            ("--format", "json", "pure", "--degrees", "-1,2", "--n", "1"),
            ("pure", "--degrees", "-1,2", "--n", "1", "--format", "json"),
            ("pure", "--degrees=-1,2", "--n", "1"),
            # a prefix argparse reads as --degrees takes the list too
            ("pure", "--deg", "-1,2", "--n", "1"),
            ("pure", "--n", "1", "--d", "-1,2"),
            ("pure", "--degree", "-1,2", "--n", "1", "--format", "json"),
        ],
    )
    def test_negative_first_degree(self, capsys, argv):
        # a degree list is a value of --degrees, though it starts with '-'
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, '{"entries": [[0, -1, "1/3"], [1, 2, "1/3"]], "n": 1}\n', "")

    @pytest.mark.parametrize(
        "argv, error",
        [
            # the same line with a usage error: argparse reports that error
            (("pure", "--degrees", "-1,2", "--n", "1", "--bogus"), "unrecognized arguments: --bogus"),
            (("pure", "--degrees", "-1,2"), "the following arguments are required: --n"),
            # not a degree list: a flag to argparse, as before
            (("pure", "--degrees", "-1,x", "--n", "1"), "argument --degrees: expected one argument"),
            (("pure", "--n", "1", "--", "--degrees", "-1,2"), "the following arguments are required: --degrees"),
        ],
    )
    def test_negative_first_degree_usage_errors(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {error}\n")


class TestDecompose:
    def test_quotient_fixture(self, capsys, quotient_path):
        code, out, _ = run_cli(capsys, "decompose", quotient_path, "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            ["6", [0, 2, 3, 5]],
            ["12", [0, 2, 4, 5]],
            ["2", [0, 3, 4]],
            ["1", [0, 3]],
        ]

    def test_table_input_from_stdin(self, capsys, monkeypatch, fixtures_dir):
        text = (fixtures_dir / "quotient_x2_xy_xz2.table").read_text()
        import io as _io

        monkeypatch.setattr(sys, "stdin", _io.StringIO(text))
        code, out, _ = run_cli(capsys, "decompose", "-", "--format", "json")
        assert code == 0
        assert json.loads(out)[0] == ["6", [0, 2, 3, 5]]

    def test_not_in_cone_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "entries": [[0, 1, "1"], [1, 1, "1"]]}')
        code, out, _ = run_cli(capsys, "decompose", str(path), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "not_in_cone"
        assert doc["reason"] == "invalid_leading_sequence"

    def test_determinism(self, capsys, quotient_path):
        outs = set()
        for _ in range(3):
            _, out, _ = run_cli(capsys, "decompose", quotient_path, "--format", "json")
            outs.add(out)
        assert len(outs) == 1


class TestFixtureOutputBytes:
    """SHA-1 of stdout, in json and in table, for the commands that parse
    the fixture and print a decomposition, a membership or a bounds report;
    each exits 0 with nothing on stderr."""

    DIGESTS = {
        ("decompose", "json"): "ff18f45cad08307191cab6f406cd5fc82f6e4dfc",
        ("decompose", "table"): "fb1abfa8f8a3c5f5aa6faafab9945acbe855f130",
        ("membership", "json"): "773c5b0ab826e18b86cca0221fd6e7e7fe3419f2",
        ("membership", "table"): "be00aacb3ce055eff96fb234f17e30314924263e",
        ("bounds", "json"): "75ef6d4065993234c5bdce9ed73aca1cd8692fb8",
        ("bounds", "table"): "1f1cdb3ab25b09c613b064e90cb217a68d19f6cb",
    }

    @pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
    def test_bytes(self, capsys, quotient_path, command, fmt):
        code, out, err = run_cli(capsys, command, quotient_path, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha1(out.encode()).hexdigest() == self.DIGESTS[command, fmt]

    def test_decomposition_encodes_as_it_emits(self, fixtures_dir):
        text = (fixtures_dir / "quotient_x2_xy_xz2.json").read_text()
        dec = greedy_decompose(dio.parse_diagram(text))
        assert dio.encode(dec) == json.loads(dio.emit_decomposition(dec))


class TestExpand:
    def test_quotient_in_reference_chain(self, capsys, quotient_path, tmp_path, dual_functionals):
        tab = tmp_path / "numbering.json"
        tab.write_text(json.dumps(dual_functionals["numbering"]))
        code, out, _ = run_cli(capsys, "expand", quotient_path, "--tableau", str(tab), "--format", "json")
        assert code == 0
        coords = json.loads(out)
        nonzero = [(c, tuple(d)) for c, d in coords if c != "0"]
        assert nonzero == [
            ("6", (0, 2, 3, 5)),
            ("12", (0, 2, 4, 5)),
            ("2", (0, 3, 4)),
            ("1", (0, 3)),
        ]

    def test_bad_tableau_exit_2(self, capsys, quotient_path, tmp_path):
        tab = tmp_path / "numbering.json"
        tab.write_text("[[1, 2], [3, 4]]")
        code, _, err = run_cli(capsys, "expand", quotient_path, "--tableau", str(tab))
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("[[10.9, 4, 3, true], [8, 7, 6, 5]]", "error: entries must be the integers 1..8, each once\n"),
            ("5", "error: tableau must be a sequence of rows\n"),
            ("[[2, 1], [4, 3]]", "error: tableau shape (2, 2) does not match window grid (3, 4)\n"),
        ],
    )
    def test_library_message_exit_2(self, capsys, quotient_path, tmp_path, rows, message):
        tab = tmp_path / "numbering.json"
        tab.write_text(rows)
        code, out, err = run_cli(capsys, "expand", quotient_path, "--tableau", str(tab))
        assert (code, out, err) == (2, "", message)


class TestChains:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "chains", "--n", "2", "--M", "0", "--N", "1", "--count-only")
        assert code == 0
        assert out.strip() == "5"

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "chains", "--n", "2", "--M", "0", "--N", "1", "--format", "json")
        assert code == 0
        chains = json.loads(out)
        assert len(chains) == 5
        assert all(len(c) == 6 for c in chains)
        # matches the library's documented tableau order
        from bettidecomp import Window, maximal_chains

        expected = [
            [list(p.degrees) for p in c.elements] for c in maximal_chains(Window(2, 0, 1))
        ]
        assert chains == expected

    def test_count_only_is_closed_form_and_uncapped(self, capsys, monkeypatch):
        monkeypatch.setenv("BS_DECOMP_MAX_ENUM", "3")
        code, out, _ = run_cli(capsys, "chains", "--count-only", "--n", "4", "--M", "0", "--N", "3")
        assert code == 0
        assert out == "1662804\n"

    def test_count_past_the_int_to_str_limit(self, capsys, default_int_digits):
        # (3,0,10000,0) has a count of 24,055 digits: printed whole, and the
        # process-wide limit is left as it was
        code, out, err = run_cli(capsys, "chains", "--count-only", "--n", "3", "--M", "0", "--N", "10000")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == default_int_digits
        digits, end = out[:-1], out[-1:]
        assert end == "\n" and len(digits) == 24_055 and digits.isdigit()
        value = 0
        for k in range(0, len(digits), 1000):
            piece = digits[k:k + 1000]
            value = value * 10**len(piece) + int(piece)
        assert value == count_maximal_chains(Window(3, 0, 10_000, 0))

    def test_listing_past_the_int_to_str_limit_is_refused(self, capsys, default_int_digits):
        # the cap's refusal names the count's digits: exit 2, no traceback
        code, out, err = run_cli(capsys, "chains", "--n", "3", "--M", "0", "--N", "10000")
        assert (code, out) == (2, "")
        assert err.startswith("error: window has a 24055-digit number of maximal chains, more than 1000000 ")
        assert err.count("\n") == 1

    def test_cap_past_the_int_to_str_limit(self, capsys, monkeypatch, default_int_digits):
        # a cap of 5,000 digits is read as digits, never made an int: the
        # listing is written
        monkeypatch.setenv("BS_DECOMP_MAX_ENUM", "1" * 5000)
        code, out, err = run_cli(capsys, "--format", "json", "chains", "--n", "1", "--M", "0", "--N", "1")
        assert (code, out, err) == (0, "[[[0, 1], [0, 2], [1, 2], [1]], [[0, 1], [0, 2], [0], [1]]]\n", "")
        # one less than a count of 24,055 digits is refused, naming both
        count = count_maximal_chains(Window(3, 0, 10_000, 0))
        monkeypatch.setenv("BS_DECOMP_MAX_ENUM", poset._decimal(count - 1))
        code, out, err = run_cli(capsys, "chains", "--n", "3", "--M", "0", "--N", "10000")
        assert (code, out) == (2, "")
        assert err.startswith("error: window has a 24055-digit number of maximal chains, more than ")
        assert poset._decimal(count - 1) in err and err.count("\n") == 1
        # the 42 chains of (2,0,2,0) against caps of one, two and three
        # digits, leading zeros ignored: the longer digits are the larger
        for cap, listed in (("9", False), ("41", False), ("42", True), ("0042", True), ("43", True), ("100", True)):
            monkeypatch.setenv("BS_DECOMP_MAX_ENUM", cap)
            code, out, err = run_cli(capsys, "--format", "json", "chains", "--n", "2", "--M", "0", "--N", "2")
            if listed:
                assert code == 0 and len(json.loads(out)) == 42, cap
            else:
                refusal = f"error: window has 42 maximal chains, more than {cap} (raise BS_DECOMP_MAX_ENUM to allow more)\n"
                assert (code, out, err) == (2, "", refusal), cap
        # a value that is not a positive integer is a usage error still
        for bad in ("0", "x", "-1", "000"):
            monkeypatch.setenv("BS_DECOMP_MAX_ENUM", bad)
            code, out, err = run_cli(capsys, "chains", "--n", "1", "--M", "0", "--N", "1")
            assert (code, out) == (2, ""), bad
            assert err == f"error: BS_DECOMP_MAX_ENUM must be a positive integer, got {bad!r}\n", bad

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("batch", [1, 2, 4096])
    def test_streamed_listing_is_the_whole_document(self, capsys, monkeypatch, fmt, batch):
        # (2, 0, 5, 2) has 6,006 chains: two batches at 4096
        monkeypatch.setattr(cli, "_CHAIN_BATCH", batch)
        for n, M, N, s in [(0, 0, 2, 0), (1, 0, 3, 1), (2, 0, 2, 1), (3, 0, 2, 0), (2, 0, 5, 2), (2, -2, 0, 1)]:
            code, out, err = run_cli(
                capsys, "chains", "--n", str(n), "--M", str(M), "--N", str(N), "--s", str(s), "--format", fmt
            )
            chains = list(maximal_chains(Window(n, M, N, s)))
            if fmt == "json":
                expected = json.dumps([dio.encode(c) for c in chains]) + "\n"
            else:
                cli._print_struct(chains, fmt)
                expected = capsys.readouterr().out
            assert (code, err) == (0, ""), (n, M, N, s)
            assert out == expected, (n, M, N, s)

    def test_enum_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BS_DECOMP_MAX_ENUM", "3")
        code, out, err = run_cli(capsys, "chains", "--n", "2", "--M", "0", "--N", "1")
        assert (code, out) == (2, "")
        assert "BS_DECOMP_MAX_ENUM" in err
        for bad in ("-5", "0", "abc"):
            monkeypatch.setenv("BS_DECOMP_MAX_ENUM", bad)
            code, _, err = run_cli(capsys, "chains", "--n", "2", "--M", "0", "--N", "1")
            assert code == 2
            assert f"BS_DECOMP_MAX_ENUM must be a positive integer, got {bad!r}" in err


class TestFacets:
    def test_reference_window(self, capsys, dual_functionals):
        code, out, _ = run_cli(
            capsys, "facets", "--n", "3", "--M", "0", "--N", "2", "--s", "0", "--format", "json"
        )
        assert code == 0
        grids = [f["grid"] for f in json.loads(out)]
        for key in ("1", "2", "4", "6", "8", "9", "11", "12"):
            assert dual_functionals["matrices"][key] in grids


    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_grids_go_to_output_unencoded(self, capsys, monkeypatch, fmt):
        # the bytes io.encode makes of the payload with its enum fields
        facets = functionals.boundary_facets(Window(3, 0, 2, 0))
        payload = [
            {"kind": f.kind, "removed": list(f.removed.degrees), "case": f.functional.case,
             "grid": f.functional.grid()}
            for f in facets
        ]
        encoded = dio.encode(payload)
        expected = json.dumps(encoded, sort_keys=True) if fmt == "json" else cli._human(encoded)
        monkeypatch.setattr(dio, "encode", lambda obj: pytest.fail("facets went through io.encode"))
        code, out, _ = run_cli(
            capsys, "facets", "--n", "3", "--M", "0", "--N", "2", "--s", "0", "--format", fmt
        )
        assert (code, out) == (0, expected + "\n")


# every window with n <= 3, width <= 2 at every s_min, and two windows where
# distinct triples give one coefficient vector (91 -> 88, 121 -> 119)
RECORD_WINDOWS = [Window(n, 0, width, s) for n in range(4) for width in range(3) for s in range(n + 1)]
RECORD_WINDOWS += [Window(2, 0, 4, 0), Window(3, 0, 3, 0)]


class TestFacetsFromRecords:
    @pytest.mark.parametrize("w", RECORD_WINDOWS, ids=str)
    def test_bytes_are_the_object_routes(self, capsys, w):
        # the listing is written from the hyperplane records; the payload
        # built from the facet objects prints the same bytes in both formats
        payload = [
            {"kind": f.kind.value, "removed": list(f.removed.degrees), "case": f.functional.case.value,
             "grid": f.functional.grid()}
            for f in functionals.boundary_facets(w)
        ]
        for fmt, expected in (("json", json.dumps(payload, sort_keys=True)), ("table", cli._human(payload))):
            code, out, _ = run_cli(
                capsys, "--format", fmt, "facets", "--n", str(w.n), "--M", str(w.M), "--N", str(w.N), "--s", str(w.s_min)
            )
            assert (code, out) == (0, expected + "\n"), (w, fmt)


class TestVerifyFan:
    @pytest.mark.parametrize("n", range(5))
    def test_json_report_is_the_encoded_report(self, capsys, n):
        # written from the report's fields: the bytes of the generic
        # encoder, on every window with n <= 4, width <= 3
        for width in range(4):
            for s in range(n + 1):
                w = Window(n, 0, width, s)
                code, out, _ = run_cli(capsys, "--format", "json", "verify-fan", "--n", str(n), "--M", "0", "--N", str(width), "--s", str(s))
                assert (code, out) == (0, dio.emit_report(functionals.verify_fan_convexity(w)) + "\n"), w

    def test_failing_json_report_is_the_encoded_report(self, capsys, monkeypatch):
        # a matrix of the window's records with the fourth negated: the
        # counterexample goes through the generic encoder, inside the
        # report's own text
        w = Window(3, 0, 2, 0)
        records = list(functionals._facet_columns(w).records)
        cells, kind, case, anchor = records[3]
        records[3] = (tuple(-c for c in cells), kind, case, anchor)
        built = functionals._FacetMatrix(w, tuple(records))
        monkeypatch.setattr(functionals, "_facet_columns", lambda _: built)
        report = functionals.verify_fan_convexity(w)
        assert not report.passed and report.counterexample[0] is built.facet(3)
        code, out, _ = run_cli(capsys, "--format", "json", "verify-fan", "--n", "3", "--M", "0", "--N", "2")
        assert (code, out) == (1, dio.emit_report(report) + "\n")

    def test_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-fan", "--n", "3", "--M", "0", "--N", "2", "--s", "0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["counterexample"] is None


    def test_failure_exit_1_with_exact_value(self, capsys, monkeypatch):
        w = Window(3, 0, 2, 0)
        # the first diagram this hyperplane reads positive on reads 1/6
        facet = functionals.boundary_facets(w)[3]
        f = facet.functional
        negated = functionals.Functional(w, tuple(-c for c in f.cells), f.case, f.anchor)
        bad = functionals.BoundaryFacet(facet.removed, facet.kind, negated)
        built = functionals._FacetMatrix(w, ((negated.cells, bad.kind, negated.case, negated.anchor),))
        built._built[0] = bad  # hand out the injected facet itself
        monkeypatch.setattr(functionals, "_facet_columns", lambda _: built)
        code, out, _ = run_cli(
            capsys, "verify-fan", "--n", "3", "--M", "0", "--N", "2", "--s", "0", "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False and doc["facets_checked"] == 1
        _, diagram, value = doc["counterexample"]
        exact = negated(pure_diagram(diagram["degrees"], 3).betti)
        assert value == str(exact) == "-1/6"


class TestHilbert:
    def test_quotient(self, capsys, quotient_path):
        code, out, _ = run_cli(capsys, "hilbert", quotient_path, "--truncate", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == ["1", "3", "4", "4", "5", "6", "7", "8", "9"]
        assert doc["denominator_power"] == 3


class TestBounds:
    def test_quotient(self, capsys, quotient_path):
        code, out, _ = run_cli(capsys, "bounds", quotient_path, "--truncate", "10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["multiplicity_value"] == "1"
        assert doc["multiplicity_bound"] == "3"
        assert doc["multiplicity_equality"] is False

    def test_multi_degree_generators_exit_2(self, capsys, tmp_path):
        path = tmp_path / "twisted.json"
        path.write_text('{"n": 1, "entries": [[0, 0, "1"], [0, 1, "1"]]}')
        code, _, err = run_cli(capsys, "bounds", str(path))
        assert code == 2

    def test_vanishing_numerator_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cancelling.json"
        path.write_text('{"n": 1, "entries": [[0, 0, "1"], [1, 0, "1"]]}')
        code, out, err = run_cli(capsys, "bounds", str(path))
        assert (code, out) == (2, "")
        assert err == "error: the Hilbert numerator of the diagram vanishes, so its codimension and multiplicity are undefined\n"

    def test_empty_generator_column_exit_2(self, capsys, tmp_path):
        # column 0 holds no degree at all: say so, not "degrees ()"
        path = tmp_path / "no_generators.json"
        path.write_text('{"n": 2, "entries": [[1, 1, "1"]]}')
        code, out, err = run_cli(capsys, "bounds", str(path))
        assert (code, out) == (2, "")
        assert err == "error: the diagram has no generators: column 0 is empty\n"


class TestCheckHk:
    def test_zero_diagram(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"n": 3, "entries": []}')
        code, out, _ = run_cli(capsys, "check-hk", str(path), "--s", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["residuals"] == ["0", "0"]
        assert doc["satisfied"] is True

    def test_quotient_one_equation(self, capsys, quotient_path):
        code, out, _ = run_cli(capsys, "check-hk", quotient_path, "--s", "1", "--format", "json")
        assert code == 0

    def test_quotient_two_equations_exit_1(self, capsys, quotient_path):
        code, out, _ = run_cli(capsys, "check-hk", quotient_path, "--s", "2", "--format", "json")
        assert code == 1
        assert json.loads(out)["satisfied"] is False


class TestResourceLimits:
    # the derived window of this document, (12,-15,9,1), has 5,414,950,270
    # pure diagrams: it is refused by its count, before any is built
    HUGE = '{"n": 12, "entries": [[0, -15, "1"], [1, 10, "1"]]}'

    @pytest.mark.parametrize(
        "argv",
        [
            ("membership", "-"),
            ("facets", "--n", "12", "--M", "-15", "--N", "9", "--s", "1"),
            ("verify-fan", "--n", "12", "--M", "-15", "--N", "9", "--s", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_oversized_window_exits_2_quickly(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.HUGE))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        # one error line, without the chains cap's hint
        assert err == "error: window has 5414950270 pure diagrams, more than 100000\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("hilbert", "FIXTURE", "--truncate", "2000000000"),
             "series to t^2000000000 has 2000000001 coefficients, more than 1000000"),
            (("bounds", "FIXTURE", "--truncate", "2000000000"),
             "series to t^2000000000 has 2000000001 coefficients, more than 1000000"),
            # the default depth N + n + 10: codimension and multiplicity are
            # read off the numerator's two terms, and the series is refused
            (("bounds", "-"), "series to t^1000000010 has 1000000011 coefficients, more than 1000000"),
            # the derived window (1,0,999999999,1), refused by its count
            (("membership", "-"), "window has 500000000500000000 pure diagrams, more than 100000"),
        ],
        ids=["hilbert", "bounds-truncate", "bounds-default", "membership"],
    )
    def test_long_series_exits_2_quickly(self, capsys, monkeypatch, quotient_path, argv, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 1, "entries": [[0, 0, "1"], [1, 1000000000, "1"]]}'))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *(quotient_path if a == "FIXTURE" else a for a in argv))
        assert time.perf_counter() - start < 5
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["hilbert", "membership"])
    def test_memory_error_exits_2(self, capsys, monkeypatch, quotient_path, command):
        # exit 1 means a checked negative only
        def exhausted(args, fmt):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, command, (exhausted, *cli._COMMANDS[command][1:]))
        code, out, err = run_cli(capsys, command, quotient_path)
        assert (code, out, err) == (2, "", f"error: out of memory in {command}\n")


class TestMembership:
    def test_member(self, capsys, quotient_path):
        code, out, _ = run_cli(capsys, "membership", quotient_path, "--format", "json")
        assert code == 0
        assert json.loads(out)["member"] is True

    def test_non_member_certificate(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            '{"n": 3, "entries": [[0, 0, "1"], [1, 3, "1"], [2, 3, "1"], [2, 4, "2"], [3, 5, "1"]]}'
        )
        code, out, _ = run_cli(capsys, "membership", str(path), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["member"] is False
        assert doc["certificate"]["value"].startswith("-")

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 0, "1"], [1, 3, "1"], [2, 3, "1"], [2, 4, "2"], [3, 5, "1"]],
            # non-integer and negative entries, s_min = 1, a formula functional
            [[0, 0, "-11/20"], [0, 2, "1/2"], [1, 3, "2"], [2, 4, "11/4"], [3, 5, "7/10"]],
            [[0, 1, "19/4"], [0, 2, "-3"], [1, 2, "26/3"], [1, 3, "-5/2"], [2, 3, "9/2"], [3, 5, "1/12"]],
            [[0, -1, "-1/2"], [1, 0, "-3/2"], [2, 1, "-3/2"], [3, 2, "-1/2"]],
        ],
    )
    def test_certificate_reproduces_its_value(self, capsys, tmp_path, entries):
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"n": 3, "entries": entries}))
        code, out, _ = run_cli(capsys, "membership", str(path), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        cert, w = doc["certificate"], doc["window"]
        assert set(cert) == {"kind", "case", "removed", "grid", "value"}
        # the value is the grid on the input, recomputed in Fractions
        value = sum(
            (cert["grid"][j - i - w["M"]][i] * Fraction(v) for i, j, v in entries), Fraction(0)
        )
        assert value < 0 and cert["value"] == str(value)
        # the certificate is a facet of the window, with its kind and case
        code, out, _ = run_cli(
            capsys, "facets", "--n", "3", "--M", str(w["M"]), "--N", str(w["N"]),
            "--s", str(w["s_min"]), "--format", "json",
        )
        assert code == 0
        listed = {k: v for k, v in cert.items() if k != "value"}
        assert listed in json.loads(out)

    def test_vanishing_numerator_exit_1(self, capsys, tmp_path):
        # a nonzero diagram whose numerator cancels is not a member: the
        # derived window takes s_min = n, and a facet reads -2 on it
        path = tmp_path / "cancelling.json"
        path.write_text('{"n": 1, "entries": [[0, 0, "1"], [1, 0, "1"]]}')
        code, out, _ = run_cli(capsys, "membership", str(path), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["window"] == {"M": -1, "N": 0, "n": 1, "s_min": 1}
        assert doc["member"] is False
        assert doc["certificate"] == {
            "case": "third", "grid": [[2, -2], [0, 0]], "kind": "kind_iii_adjacent_columns",
            "removed": [-1, 1], "value": "-2",
        }

    def test_negative_multiple_of_single_window_diagram_exit_1(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text('{"n": 2, "entries": [[0, 0, "-1"], [1, 1, "-2"], [2, 2, "-1"]]}')
        code, out, _ = run_cli(capsys, "membership", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out)["certificate"]["value"] == "-2"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "membership", "/nonexistent/d.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["membership", "decompose"])
    def test_file_not_utf8_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "utf16.table"
        path.write_bytes(b"\xff\xfe0\x00:\x00 \x001\x00")
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"

    def test_tableau_not_utf8_exit_2(self, capsys, tmp_path, quotient_path):
        path = tmp_path / "numbering.json"
        path.write_bytes(b"[[1, \xe9]]")
        code, out, err = run_cli(capsys, "expand", quotient_path, "--tableau", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not UTF-8 text: invalid continuation byte at byte 5\n"


class TestUsage:
    def test_reused_parser_matches_fresh(self, capsys):
        calls = [
            ("chains", "--n", "2", "--bogus"),
            ("chains", "--count-only", "--n", "2", "--M", "0", "--N", "1"),
            ("--format", "table", "facets", "--n", "2", "--M", "0", "--N", "1"),
            ("--format", "json", "facets", "--n", "2", "--M", "0", "--N", "1"),
            ("--help",),
        ]
        # every subcommand's help, and one usage error of each, which argparse
        # reports from the cached parser as from a fresh one
        calls += [(name, "--help") for name in cli._COMMANDS]
        calls += [(name, "--bogus") for name in cli._COMMANDS]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        parser = cli._build_parser()
        assert [run_cli(capsys, *argv) for argv in calls] == fresh
        assert cli._build_parser() is parser
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0] + [0] * 11 + [2] * 10
        for (name, *_), (_, out, err) in zip(calls[5:], fresh[5:]):
            assert out.startswith(f"usage: bettidecomp {name}") or err.startswith(f"usage: bettidecomp {name}")

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "pure", "--degrees", "0", "--n", "1", "--bogus")[0] == 2

    def test_module_entry_point(self, quotient_path):
        proc = subprocess.run(
            [sys.executable, "-m", "bettidecomp", "decompose", quotient_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0] == ["6", [0, 2, 3, 5]]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("check-hk", "--s", "-1"), "--s"),
            (("hilbert", "--truncate", "-1"), "--truncate"),
            (("bounds", "--truncate", "-1"), "--truncate"),
            (("check-hk", "--s", "1.5"), "--s"),
        ],
    )
    def test_count_flags_take_nonnegative_integers(self, capsys, quotient_path, argv, flag):
        code, out, err = run_cli(capsys, argv[0], quotient_path, *argv[1:])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: expected an integer >= 0, got {argv[2]!r}\n")

    @pytest.mark.parametrize("value", ["\u0662", "1_0", "+3", "3.0", ""])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("chains", "--count-only", "--n", "{}", "--M", "0", "--N", "1"), "--n"),
            (("chains", "--count-only", "--n", "2", "--M", "0", "--N", "{}"), "--N"),
            (("facets", "--n", "2", "--M", "{}", "--N", "1"), "--M"),
            (("verify-fan", "--n", "2", "--M", "0", "--N", "1", "--s", "{}"), "--s"),
            (("pure", "--degrees", "0,1", "--n", "{}"), "--n"),
        ],
    )
    def test_integer_flags_are_ascii_integers(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *(a.format(value) for a in argv))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: {value!r} is not an integer literal\n")

    def test_negative_row_bound(self, capsys):
        code, out, _ = run_cli(capsys, "chains", "--count-only", "--n", "2", "--M", "-1", "--N", "0")
        assert (code, out) == (0, "5\n")

    def test_boolean_ambient_size_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bools.json"
        path.write_text('{"n": true, "entries": [[false, true, "1"], [true, 2, "1"]]}')
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out, err) == (2, "", "error: 'n' must be a nonnegative integer, got True\n")

    def test_directory_path_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "decompose", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "directory" in err

    def test_out_of_range_column_exit_2(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text('{"n": 1, "entries": [[0, 0, "1"], [2, 2, "1"]]}')
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (2, "")
        assert err == "error: entry [2, 2, '1'] has column 2 outside [0, 1]\n"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2
        assert "error" in err


def _argparse_namespace(argv):
    return vars(cli._build_parser().parse_args(cli._joined_degrees(argv)))


FORMATS = ["json", "table"]
# values for every kind of option, and the tokens the fast path leaves to
# argparse: '-' as stdin, flags, '--', '-h', signs, non-ASCII digits, ''
TOKENS = [
    "0", "3", "-1", "-0", "07", "\u0663", "-\u0663", "1_0", "+3", "", "x.json", "-", "--", "-h", "--help", "-x",
    "json", "table", "auto", "yaml", "0,1,3", "-1,2", "-1,x", "-1,", "\u00e9", "a b", "--n", "chains", "frobnicate",
    "pure", "--degrees",
]


def _value(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    kind = kwargs.get("type")
    if kind is cli._integer:
        return st.integers(-10**20, 10**20).map(str)
    if kind is cli._nonnegative:
        return st.integers(0, 10**20).map(str)
    return st.just("-") | st.text(max_size=6).filter(lambda t: not t.startswith("-"))


# --degrees values that start with '-': argparse reads them only when joined
DEGREE_LISTS = st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=4).map(
    lambda ds: ",".join(map(str, [-abs(ds[0]) - 1, *ds[1:]]))
)


@st.composite
def well_formed_lines(draw):
    """A command's required options, some optional ones, each once in any
    order, and --format before the command, after it, on both sides or not."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = []
    for flag, kwargs in cli._options(name):
        if flag.startswith("-") and not kwargs.get("required") and draw(st.booleans()):
            continue
        if kwargs.get("action") == "store_true":
            pieces.append([flag])
        elif flag == "--degrees":
            pieces.append([flag, draw(_value(kwargs) | DEGREE_LISTS)])
        elif flag.startswith("-"):
            pieces.append([flag, draw(_value(kwargs))])
        else:
            pieces.append([draw(_value(kwargs))])
    head = draw(st.sampled_from([[], *(["--format", f] for f in FORMATS)]))
    return [*head, name, *(t for p in draw(st.permutations(pieces)) for t in p)]


@st.composite
def command_lines(draw):
    """Well-formed lines with up to three edits: one or two tokens dropped
    or replaced, or an exact, abbreviated or '=' flag, a flag with a value,
    a repeat or a stray token put in anywhere."""
    argv = draw(well_formed_lines())
    flags = st.sampled_from(sorted({flag for name in cli._COMMANDS for flag, _ in cli._options(name) if flag[0] == "-"}))
    if any(t.startswith("--") for t in argv):
        flags |= st.sampled_from([t for t in argv if t.startswith("--")])
    token = st.sampled_from(TOKENS) | st.integers(-10**20, 10**20).map(str)
    piece = st.one_of(
        st.tuples(flags, token).map(list),
        flags.map(lambda flag: [flag]),
        st.tuples(flags, token).map(lambda p: ["=".join(p)]),
        st.tuples(flags, st.integers(1, 9)).map(lambda p: [p[0][:-p[1]]]),
        token.map(lambda t: [t]),
        st.sampled_from(argv).map(lambda t: [t]),
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["drop", "drop two", "replace", "insert"]))
        if edit != "insert":
            del argv[at:at + 1 + (edit == "drop two")]
        if edit in ("replace", "insert"):
            argv[at:at] = draw(piece)
    return argv


class TestFastParse:
    """cli._parse against argparse: whenever it returns a namespace, that is
    the one argparse returns, and well-formed lines always get one."""

    # lines the compiled matcher must read as argparse does, or leave to it:
    # an option and --count-only given twice, a missing required option,
    # integers argparse's int would take but _integer refuses
    REPEATS_AND_REFUSALS = [
        ["facets", "--n", "2", "--M", "0", "--N", "1", "--n", "3"],
        ["chains", "--n", "2", "--M", "0", "--N", "1", "--count-only", "--count-only"],
        ["chains", "--n", "2", "--M", "0", "--count-only"],
        ["facets", "--n", "\u0663", "--M", "0", "--N", "1"],
        ["facets", "--n", "+1", "--M", "0", "--N", "1"],
        ["facets", "--n", "1_0", "--M", "0", "--N", "1"],
    ]
    # well-formed: a subcommand --format after the command, a first negative
    # degree, a positional after the flags
    WELL_FORMED = [
        ["chains", "--format", "table", "--n", "2", "--M", "0", "--N", "1", "--count-only"],
        ["--format", "json", "facets", "--n", "2", "--M", "0", "--N", "1", "--format", "table"],
        ["pure", "--degrees", "-1,2", "--n", "1"],
        ["hilbert", "--truncate", "3", "--input-format", "json", "x.json"],
    ]

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    @example(REPEATS_AND_REFUSALS[0])
    @example(REPEATS_AND_REFUSALS[1])
    @example(REPEATS_AND_REFUSALS[2])
    @example(REPEATS_AND_REFUSALS[3])
    @example(REPEATS_AND_REFUSALS[4])
    @example(REPEATS_AND_REFUSALS[5])
    @example(WELL_FORMED[0])
    @example(WELL_FORMED[1])
    @example(WELL_FORMED[2])
    @example(WELL_FORMED[3])
    def test_equals_argparse_when_it_matches(self, argv):
        parsed = cli._parse(argv)
        if parsed is not None:
            assert vars(parsed) == _argparse_namespace(argv)
        if argv in self.REPEATS_AND_REFUSALS:
            assert parsed is None
        if argv in self.WELL_FORMED:
            assert parsed is not None

    @settings(max_examples=300, deadline=None)
    @given(well_formed_lines())
    def test_well_formed_lines_match(self, argv):
        parsed = cli._parse(argv)
        assert parsed is not None
        assert vars(parsed) == _argparse_namespace(argv)

    WINDOW = ["--n", "2", "--M", "0", "--N", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["facets", *WINDOW, "-h"],
            ["facets", *WINDOW, "--help"],
            ["facets", *WINDOW, "--bogus"],
            ["frobnicate", *WINDOW],
            ["facets", *WINDOW, "--forma", "json"],
            ["--form", "json", "facets", *WINDOW],
            ["decompose", "x.json", "--input", "json"],
            ["facets", "--n=2", "--M", "0", "--N", "1"],
            ["--format=json", "facets", *WINDOW],
            ["decompose", "--", "x.json"],
            ["facets", *WINDOW, "--"],
            ["pure", "--degrees", "--", "--n", "1"],
            ["facets", *WINDOW, "--n", "3"],
            ["chains", *WINDOW, "--count-only", "--count-only"],
            ["--format", "json", "--format", "table", "facets", *WINDOW],
            ["facets", *WINDOW, "--format", "json", "--format", "table"],
            ["facets", "--n", "2", "--M", "0"],
            ["decompose"],
            ["--format", "json"],
            ["--format"],
            [],
            ["facets", "--n", "x", "--M", "0", "--N", "1"],
            ["facets", "--n", "\u0663", "--M", "0", "--N", "1"],
            ["check-hk", "x.json", "--s", "-1"],
            ["decompose", "x.json", "--input-format", "yaml"],
            ["facets", *WINDOW, "--format", "xml"],
            ["--format", "xml", "facets", *WINDOW],
            ["pure", "--degrees", "-1,x", "--n", "1"],
            ["decompose", "-x"],
            ["decompose", "--input-format", "-", "x.json"],
            ["decompose", "a.json", "b.json"],
            ["chains", *WINDOW, "--count-only", "1"],
        ],
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        # help, unknown, abbreviated, '=' and repeated flags, '--', missing
        # required options, values the converter or choices refuse, values
        # that start with '-', and stray tokens
        assert cli._parse(argv) is None

    @pytest.mark.parametrize("degrees", ["-1,2", "-3", "-0,1", "-10,-4,0,7", "-" + "9" * 30 + ",0"])
    def test_degree_lists_match(self, degrees):
        # a --degrees value that starts with '-' and is a degree list
        for argv in (
            ["pure", "--degrees", degrees, "--n", "3"],
            ["--format", "json", "pure", "--n", "3", "--degrees", degrees],
        ):
            parsed = cli._parse(argv)
            assert parsed is not None and parsed.degrees == degrees
            assert vars(parsed) == vars(cli._build_parser().parse_args(cli._joined_degrees(argv)))

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--degrees", "-1,2"],
            ["pure", "--n", "1", "--", "--degrees", "-1,2"],
            ["pure", "--degrees", "-1,x", "--n", "1"],
            ["pure", "--degrees"],
        ],
    )
    def test_joins_only_degree_lists_of_pure(self, argv):
        assert cli._joined_degrees(argv) == argv

    def test_bench_lines_match(self, monkeypatch):
        # every command line of the benchmark's windows workload
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        windows = workloads.Windows.__new__(workloads.Windows)
        lines = [windows._argv(w, c) for w in workloads.WINDOWS + workloads.COUNT_ONLY for c in workloads.COMMANDS]
        assert len(lines) == 4 * (len(workloads.WINDOWS) + len(workloads.COUNT_ONLY))
        for argv in lines:
            parsed = cli._parse(argv)
            assert parsed is not None and vars(parsed) == _argparse_namespace(argv), argv

    def test_well_formed_runs_never_build_argparse(self, capsys, quotient_path, tmp_path, dual_functionals):
        tableau = tmp_path / "numbering.json"
        tableau.write_text(json.dumps(dual_functionals["numbering"]))
        window = ("--n", "2", "--M", "0", "--N", "1")
        calls = {
            "pure": ("--degrees", "0,2", "--n", "1"),
            "decompose": (quotient_path,),
            "expand": (quotient_path, "--tableau", str(tableau)),
            "chains": (*window, "--count-only"),
            "facets": window,
            "verify-fan": (*window, "--s", "1"),
            "hilbert": (quotient_path, "--truncate", "3"),
            "bounds": (quotient_path, "--input-format", "json"),
            "check-hk": (quotient_path, "--s", "1"),
            "membership": ("--format", "table", quotient_path),
        }
        assert set(calls) == set(cli._COMMANDS)
        cli._build_parser.cache_clear()
        for name, args in calls.items():
            code, _, err = run_cli(capsys, "--format", "json", name, *args)
            assert (code, err) == (0, ""), name
        assert cli._build_parser.cache_info().misses == 0
