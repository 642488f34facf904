"""Command-line surface: outputs, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bettidecomp import Window, cli, functionals, greedy_decompose, maximal_chains, pure_diagram
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

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("batch", [1, 2, 4096])
    def test_streamed_listing_is_the_whole_document(self, capsys, monkeypatch, fmt, batch):
        # (2, 0, 5, 2) has 6,006 chains: two batches at 4096
        monkeypatch.setattr(cli, "_CHAIN_BATCH", batch)
        for n, M, N, s in [(0, 0, 2, 0), (1, 0, 3, 1), (2, 0, 2, 1), (3, 0, 2, 0), (2, 0, 5, 2)]:
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


class TestVerifyFan:
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
        negated = functionals.Functional(w, tuple((pos, -c) for pos, c in f.coefficients), f.case, f.anchor)
        bad = functionals.BoundaryFacet(facet.removed, facet.kind, negated)
        built = functionals._FacetMatrix((bad,))
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
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        parser = cli._build_parser()
        assert [run_cli(capsys, *argv) for argv in calls] == fresh
        assert cli._build_parser() is parser
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0]

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
