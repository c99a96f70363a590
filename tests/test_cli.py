"""Command-line behavior: outputs, exit codes, headers, determinism."""

from __future__ import annotations

import csv
import importlib
import inspect
import io
import json
import multiprocessing
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import hsograph
from hsograph import cli, enumeration, search, verify
from hsograph.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
    run_verify_campaign,
)
from hsograph.families import build, star
from hsograph.graph import GraphError, canonical_form, parse_graph6
from hsograph.search import (
    check_conjecture_star_max,
    extremal_table,
    find_monotonicity_counterexamples,
)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def star_lowered(monkeypatch):
    """closed_form_hso less 1, so the star and C^ beat the star's value at
    n = 4.  closed_form_bound memoizes its values, so its cache is emptied
    before the patched values are read and again after the test."""
    closed_form_hso = verify.closed_form_hso
    monkeypatch.setattr(verify, "closed_form_hso", lambda spec: closed_form_hso(spec) - 1.0)
    verify.closed_form_bound.cache_clear()
    yield
    verify.closed_form_bound.cache_clear()


class TestCompute:
    def test_family_spec(self, capsys):
        assert run_cli("compute", "star:5") == EXIT_OK
        out = capsys.readouterr().out
        assert "16.492422502470642" in out
        assert "class=tree" in out

    def test_cycle_value(self, capsys):
        assert run_cli("compute", "cycle:6") == EXIT_OK
        assert "8.485281374238571" in capsys.readouterr().out

    def test_graph6_input(self, capsys):
        assert run_cli("compute", "Bw") == EXIT_OK
        out = capsys.readouterr().out
        assert "4.24264068711928" in out

    def test_per_edge(self, capsys):
        assert run_cli("compute", "path:3", "--per-edge") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("edge (") == 2

    def test_json_format(self, capsys):
        assert run_cli("compute", "star:4", "--format", "json") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["n"] == 4
        assert doc["tool"].startswith("hsograph")

    def test_file_input(self, tmp_path, capsys):
        src = tmp_path / "graphs.g6"
        src.write_text("Bw\nBg\n")
        assert run_cli("compute", "--file", str(src), "--format", "json") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 2

    def test_bad_family(self, capsys):
        # an input fault exits 2, and its message is the whole of stderr
        for text, message in (("star:notanumber", "non-integer family parameters in 'star:notanumber'"),
                              ("tripend:1,2", "tripend:A1,A2,A3 takes three integers")):
            assert run_cli("compute", text) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_graph6(self, capsys):
        for text, message in (("B", "graph6 body needs 1 characters, got 0"),
                              ("B!", "illegal graph6 body character '!'"),
                              ("~", "extended graph6 headers (n > 62) are not supported")):
            assert run_cli("compute", text) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_nothing_to_do(self, capsys):
        assert run_cli("compute") == EXIT_USAGE


class TestVerify:
    def test_tree_bounds_clean(self, capsys):
        assert run_cli("verify", "tree-bounds", "--n", "3..8") == EXIT_OK

    def test_reports_to_csv(self, tmp_path):
        out = tmp_path / "reports.csv"
        code = run_cli("verify", "sandwich", "--n", "3..4", "--format", "csv",
                       "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# hsograph")
        assert "tolerance=" in lines[0] and "check=sandwich" in lines[0]
        assert lines[1].split(",")[0] == "theorem"
        assert len(lines) == 2 + 2 + 6  # header, columns, orders 3 and 4

    def test_reports_to_json(self, tmp_path):
        out = tmp_path / "reports.json"
        assert run_cli("verify", "general-lower", "--n", "3..5",
                       "--format", "json", "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["check"] == "general-lower"
        assert len(doc["reports"]) == 2 + 6 + 21
        assert all(r["holds"] and r["consistent"] for r in doc["reports"])

    def test_pendant_split_check(self, capsys):
        assert run_cli("verify", "f-monotone", "--n", "5..60") == EXIT_OK
        # a float grid overshot the domain at n = 255 and exited 2
        assert run_cli("verify", "f-monotone", "--n", "5..10000") == EXIT_OK

    def test_pendant_split_takes_no_grid(self, capsys):
        assert run_cli("verify", "f-monotone", "--n", "5..40", "--grid", "10") == EXIT_USAGE
        assert "--grid" in capsys.readouterr().err

    def test_star_max_equality_is_the_star(self, tmp_path, capsys):
        out = tmp_path / "star-max.csv"
        assert run_cli("verify", "star-max", "--n", "2..8", "--format", "csv",
                       "--out", str(out)) == EXIT_OK
        assert ", 0 violations," in capsys.readouterr().err
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert len(rows) == 12112
        equal = {}
        greatest = {}
        for row in rows:
            g = parse_graph6(row["graph6"])
            if row["eq_upper"] == "1":
                assert g.n not in equal
                equal[g.n] = g
            if g.n not in greatest or float(row["value"]) > greatest[g.n][1]:
                greatest[g.n] = (row["graph6"], float(row["value"]))
        assert sorted(equal) == list(range(2, 9))
        for n, g in equal.items():
            assert canonical_form(g) == canonical_form(build(star(n)))
        for n in range(2, 9):
            assert greatest[n] == check_conjecture_star_max(n).extremal_max[n]

    def test_violations_exit_1_and_reach_the_summary(self, star_lowered, capsys):
        assert run_cli("verify", "star-max", "--n", "4", "--format", "csv") == EXIT_VIOLATION
        assert ", 2 violations, " in capsys.readouterr().err
        summary = run_verify_campaign("star-max", 4, 4)
        assert [v["graph6"] for v in summary.violations] == ["CF", "C^"]

    @pytest.mark.parametrize("argv, line", [
        (("verify", "sandwich", "--n", "2..5"),
         r"verify:sandwich: examined 30 graphs, 0 violations, \d+\.\d\ds"),
        (("verify", "f-monotone", "--n", "5..9"),
         r"verify:f-monotone: examined 5 orders, 0 violations, \d+\.\d\ds"),
    ], ids=["sandwich", "f-monotone"])
    def test_summary_line_on_stderr(self, argv, line, capsys):
        assert run_cli(*argv) == EXIT_OK
        (summary,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(line, summary)

    def test_range_below_statement_is_usage_error(self):
        assert run_cli("verify", "tree-bounds", "--n", "2..5") == EXIT_USAGE

    def test_bad_range(self):
        assert run_cli("verify", "sandwich", "--n", "5..3") == EXIT_USAGE
        assert run_cli("verify", "sandwich", "--n", "x..3") == EXIT_USAGE

    def test_large_needs_flag(self):
        assert run_cli("verify", "sandwich", "--n", "2..9") == EXIT_USAGE

    def test_bad_tolerance(self):
        assert run_cli("verify", "sandwich", "--n", "3..4", "--tolerance", "0.5") == EXIT_USAGE
        assert run_cli("verify", "sandwich", "--n", "3..4", "--tolerance", "0") == EXIT_USAGE

    @pytest.mark.parametrize("argv, name", [
        (("verify", "sandwich", "--n", "3..5"), "check_theorem"),
        (("search", "monotonicity", "--n-max", "4"), "find_monotonicity_counterexamples"),
    ], ids=["verify", "search"])
    def test_valid_tolerance_reaches_the_checks(self, argv, name, monkeypatch, tmp_path):
        # a _tolerance that returned the default would pass every other test
        seen = []
        work = getattr(cli, name)

        def recording(*args, **kwargs):
            seen.append(inspect.signature(work).bind(*args, **kwargs).arguments["tolerance"])
            return work(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--tolerance", "1e-6", "--format", "json",
                       "--out", str(out)) == EXIT_OK
        assert '"tolerance": 1e-06' in out.read_text()
        assert set(seen) == {1e-06}

    def test_class_override(self, capsys):
        assert run_cli("verify", "sandwich", "--n", "3..6", "--class", "tree") == EXIT_OK

    def test_class_mismatch_rejected_before_enumerating(self, monkeypatch, capsys):
        def no_enumeration(graph_class, n):
            raise AssertionError("graphs_in_class called")

        monkeypatch.setattr(cli, "graphs_in_class", no_enumeration)
        assert run_cli("verify", "tree-bounds", "--n", "3..5", "--class", "unicyclic") == EXIT_USAGE
        assert "stated over tree graphs" in capsys.readouterr().err
        assert run_cli("verify", "bicyclic-lower", "--n", "4", "--class", "connected") == EXIT_USAGE


class TestErrorExits:
    def test_order_zero_is_usage_error(self, capsys):
        assert run_cli("enumerate", "--n", "0") == EXIT_USAGE
        assert capsys.readouterr().err == "error: argument --n: orders start at 1, got '0'\n"
        assert run_cli("search", "extremal-table", "--class", "tree", "--n", "0..2") == EXIT_USAGE
        assert capsys.readouterr().err == "error: argument --n: orders start at 1, got '0..2'\n"

    @pytest.fixture
    def no_work(self, monkeypatch):
        """The level builders and cli.check_theorem fail if called."""
        def fail(*args, **kwargs):
            raise AssertionError("work done before the order check")

        for name in ("_connected_level", "_class_level"):
            monkeypatch.setattr(enumeration, name, fail)
        monkeypatch.setattr(cli, "check_theorem", fail)

    @pytest.mark.parametrize("argv", [
        ("verify", "bicyclic-lower", "--n", "4..13"),
        ("verify", "unicyclic-bounds", "--n", "3..13"),
        ("verify", "sandwich", "--n", "2..10", "--allow-large"),
        ("search", "extremal-table", "--class", "unicyclic", "--n", "3..13"),
        ("verify", "star-max", "--n", "2..10", "--allow-large"),
        ("enumerate", "--class", "bicyclic", "--n", "4..13"),
        ("enumerate", "--class", "tree", "--n", "10..13"),
    ])
    def test_order_past_cap_fails_before_any_work(self, argv, no_work, capsys):
        # the top order is past its class cap: no level is built, no graph checked
        assert run_cli(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "enumeration supports n <=" in err
        assert err.endswith(f", got {argv[argv.index('--n') + 1].split('..')[-1]}\n")

    @pytest.mark.parametrize("argv, message", [
        (("enumerate", "--class", "unicyclic", "--n", "2..5"),
         "no connected graph on 2 vertices has 2 edges"),
        (("enumerate", "--class", "unicyclic", "--n", "1"),
         "no connected graph on 1 vertex has 1 edge"),
        (("search", "extremal-table", "--class", "bicyclic", "--n", "3..6"),
         "no connected graph on 3 vertices has 4 edges"),
        (("verify", "star-max", "--n", "1..3"), "star-max is stated for n >= 2"),
        (("search", "monotonicity", "--n-max", "2"),
         "monotonicity search supports 3 <= n_max <= 8"),
        (("verify", "f-monotone", "--n", "4..9"), "f-monotone needs n >= 5"),
    ])
    def test_order_below_floor_fails_before_any_work(self, argv, message, no_work, tmp_path,
                                                     capsys):
        # the bottom order is below its class floor: no level is built, no file opened
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (("compute", "Bw", "--class", "tree"), "--class"),
        (("verify", "star-max", "--n", "4", "--n-max", "6"), "--n-max"),
        (("search", "monotonicity", "--n", "4"), "--n"),
        (("search", "monotonicity", "--class", "tree"), "--class"),
        (("search", "monotonicity", "--allow-large"), "--allow-large"),
        (("search", "extremal-table", "--n", "4", "--tolerance", "1e-6"), "--tolerance"),
        (("search", "extremal-table", "--n", "4", "--target-delta", "-1"), "--target-delta"),
        (("verify", "f-monotone", "--n", "5..9", "--class", "tree"), "--class"),
        (("verify", "f-monotone", "--n", "5..9", "--tolerance", "1e-6"), "--tolerance"),
        (("verify", "f-monotone", "--n", "5..9", "--allow-large"), "--allow-large"),
        (("verify", "f-monotone", "--n", "5..9", "--jobs", "2"), "--jobs"),
        # no command filters witnesses by their drop
        (("search", "monotonicity", "--target-delta", "1"), "--target-delta"),
    ])
    def test_unread_option_is_usage_error(self, argv, option, monkeypatch, capsys):
        # each subparser declares only the options its command reads, so the
        # others are refused at parse time: the sweeps are patched to fail if called
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the option check")

        for name in ("check_theorem", "extremal_table", "find_monotonicity_counterexamples",
                     "check_pendant_split_monotone", "hso"):
            monkeypatch.setattr(cli, name, no_work)
        assert run_cli(*argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: unrecognized arguments: {option}")

    @pytest.mark.parametrize("argv, message", [
        (("verify",), "required: check"),
        (("verify", "sandwich"), "required: --n"),
        (("verify", "sandwich", "--n", "3", "--jobs", "x"), "argument --jobs"),
        (("search", "nonesuch"), "invalid choice: 'nonesuch'"),
        (("search", "monotonicity", "--tolerance", "nan"), "argument --tolerance"),
        (("search", "monotonicity", "--tolerance", "-inf"), "argument --tolerance"),
        (("search", "monotonicity", "--tolerance", "abc"), "argument --tolerance"),
        # verify star-max is the one campaign for the star-max claim
        (("search", "conjecture", "--n", "4"), "invalid choice: 'conjecture'"),
    ])
    def test_parse_error_returns_usage(self, argv, message, capsys):
        # argparse would raise SystemExit; main() returns 2 like any usage error
        assert run_cli(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_internal_value_error_propagates(self, monkeypatch):
        def faulty(theorem, g, tolerance):
            raise ValueError("internal fault")

        record = verify.THEOREMS["sandwich"]
        monkeypatch.setitem(verify.THEOREMS, "sandwich", record._replace(checker=faulty))
        with pytest.raises(ValueError, match="internal fault"):
            run_cli("verify", "sandwich", "--n", "3..4")

    def test_internal_graph_error_propagates(self, monkeypatch):
        # a graph error that no input can cause is a fault, not a usage error
        def faulty(theorem, g, tolerance):
            raise GraphError("edge (0, 1) not present")

        record = verify.THEOREMS["sandwich"]
        monkeypatch.setitem(verify.THEOREMS, "sandwich", record._replace(checker=faulty))
        with pytest.raises(GraphError, match=r"edge \(0, 1\) not present"):
            run_cli("verify", "sandwich", "--n", "3..4")


def test_one_exception_type_per_kind_of_fault():
    # each message says which value or statement the input falls outside of,
    # so no caller needs a finer type than these nine
    defined = set()
    for info in pkgutil.iter_modules(hsograph.__path__):
        module = importlib.import_module(f"hsograph.{info.name}")
        defined.update(name for name, obj in vars(module).items()
                       if isinstance(obj, type) and issubclass(obj, Exception)
                       and obj.__module__ == module.__name__)
    assert defined == {"GraphError", "Graph6Error", "OrderTooLargeError", "DomainViolationError",
                       "OrderTooSmallError", "UnknownCheckError", "InvalidParametersError",
                       "InfeasibleEdgeCountError", "UsageError"}
    assert issubclass(verify.OrderTooSmallError, verify.DomainViolationError)


class TestSearch:
    def test_monotonicity_includes_triangle_pair(self, capsys):
        assert run_cli("search", "monotonicity", "--n-max", "4") == EXIT_OK
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert "BW Bw" in lines

    def test_monotonicity_writes_each_witness_as_it_comes(self, tmp_path, monkeypatch):
        # the search fails on its first n = 5 graph: every earlier witness is
        # already written, under the header of the run that failed
        whole = tmp_path / "n4.csv"
        assert run_cli("search", "monotonicity", "--n-max", "4", "--format", "csv",
                       "--jobs", "1", "--out", str(whole)) == EXIT_OK
        edge_drops = search._edge_drops

        def fail_at_five(g, tolerance):
            if g.n == 5:
                raise RuntimeError("planted fault at n = 5")
            return edge_drops(g, tolerance)

        monkeypatch.setattr(search, "_edge_drops", fail_at_five)
        out = tmp_path / "n5.csv"
        with pytest.raises(RuntimeError, match="planted fault"):
            run_cli("search", "monotonicity", "--n-max", "5", "--format", "csv",
                    "--jobs", "1", "--out", str(out))
        expected = whole.read_text().replace("n_max=4", "n_max=5", 1)
        assert expected.count("\n") > 2  # a header line, the column names and witnesses
        assert out.read_text() == expected

    def test_monotonicity_json(self, tmp_path):
        out = tmp_path / "witnesses.json"
        assert run_cli("search", "monotonicity", "--n-max", "4", "--format", "json",
                       "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["witnesses"]
        w = doc["witnesses"][0]
        assert w["delta"] < 0

    def test_extremal_table(self, tmp_path):
        out = tmp_path / "table.json"
        assert run_cli("search", "extremal-table", "--class", "unicyclic",
                       "--n", "3..6", "--format", "json", "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["summary"]["violations"] == []
        assert set(doc["summary"]["extremal_min"]) == {"3", "4", "5", "6"}

    def test_extremal_table_mismatch_exits_1(self, monkeypatch, capsys):
        # no graph is a member of any family, so both witnesses of each order mismatch
        monkeypatch.setattr(search, "is_member", lambda g, kind: False)
        assert run_cli("search", "extremal-table", "--class", "tree",
                       "--n", "3..5") == EXIT_VIOLATION
        assert capsys.readouterr().out.count("  VIOLATION ") == 6

    def test_extremal_table_small_orders(self):
        # K1 and K2 are the only connected graphs at n = 1, 2: no cycle to match
        assert run_cli("search", "extremal-table", "--class", "connected", "--n", "1") == EXIT_OK
        assert run_cli("search", "extremal-table", "--class", "connected",
                       "--n", "2..6") == EXIT_OK


class TestEnumerate:
    def test_tree_counts(self, tmp_path, capsys):
        out = tmp_path / "trees.g6"
        assert run_cli("enumerate", "--class", "tree", "--n", "7", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        assert lines == sorted(lines)
        for line in lines:
            g = parse_graph6(line)
            assert g.n == 7 and g.classify() == "tree"

    def test_connected_small(self, capsys):
        assert run_cli("enumerate", "--class", "connected", "--n", "3") == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 2

    def test_bicyclic_four(self, capsys):
        assert run_cli("enumerate", "--class", "bicyclic", "--n", "4") == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_edges_override(self, capsys):
        assert run_cli("enumerate", "--n", "5", "--edges", "5") == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_large_needs_flag(self):
        assert run_cli("enumerate", "--class", "connected", "--n", "9") == EXIT_USAGE

    def test_edges_gated_as_connected(self, capsys):
        # --edges streams connected graphs, so --class tree does not lift the gate
        assert run_cli("enumerate", "--class", "tree", "--n", "9", "--edges", "8") == EXIT_USAGE
        assert run_cli("enumerate", "--class", "tree", "--n", "9", "--edges", "8",
                       "--allow-large") == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 47

    def test_bad_path(self, tmp_path):
        assert run_cli("enumerate", "--class", "tree", "--n", "5",
                       "--out", str(tmp_path / "nodir" / "x.g6")) == EXIT_USAGE

    def test_bad_order_in_range_writes_nothing(self, tmp_path, capsys):
        # output is streamed, so every order is checked before the first line
        out = tmp_path / "trees.g6"
        assert run_cli("enumerate", "--class", "tree", "--n", "11..13",
                       "--out", str(out)) == EXIT_USAGE
        assert not out.exists()
        assert run_cli("enumerate", "--n", "3..5", "--edges", "3") == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestDeterminismAndParallel:
    def test_outputs_identical_across_jobs(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert run_cli("verify", "sandwich", "--n", "3..6", "--format", "csv",
                       "--jobs", "1", "--out", str(serial)) == EXIT_OK
        assert run_cli("verify", "sandwich", "--n", "3..6", "--format", "csv",
                       "--jobs", "3", "--out", str(parallel)) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_repeat_runs_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            assert run_cli("verify", "unicyclic-bounds", "--n", "3..6",
                           "--format", "json", "--out", str(target)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_campaign_api_matches_cli_counts(self):
        reports = []
        summary = run_verify_campaign("tree-bounds", 3, 7, write=reports.extend)
        assert summary.graphs_examined == 1 + 2 + 3 + 6 + 11
        assert len(reports) == summary.graphs_examined
        assert not summary.violations

    def test_one_pool_per_campaign(self, monkeypatch):
        opened = []
        real_pool = multiprocessing.Pool

        def counting_pool(*args, **kwargs):
            opened.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counting_pool)

        def verify(jobs):
            reports = []
            summary = run_verify_campaign("sandwich", 2, 6, jobs=jobs, write=reports.extend)
            return summary.to_dict(), reports

        def table(jobs):
            return extremal_table("connected", 3, 6, jobs=jobs).to_dict()

        def monotonicity(jobs):
            return [w.to_dict() for w in find_monotonicity_counterexamples(6, jobs=jobs)]

        for campaign in (verify, table, monotonicity):
            opened.clear()
            serial = campaign(1)
            assert opened == []
            assert campaign(2) == serial
            assert opened == [(2,)]


class TestHelp:
    @pytest.mark.parametrize("argv, shown", [
        ((), ["--version", "{compute,verify,search,enumerate}"]),
        (("compute",), ["--out OUT", "--file FILE", "--per-edge", "--format {text,json}", "[input]"]),
        (("verify",), ["{" + ",".join([*verify.THEOREMS, "f-monotone"]) + "}"]),
        (("verify", "sandwich"), ["--n N", "--tolerance TOLERANCE", "--jobs JOBS",
                                  "--format {text,csv,json}", "--out OUT", "--allow-large",
                                  "narrow a check stated over connected graphs"]),
        (("verify", "f-monotone"), ["--n N", "--format {text,csv,json}", "--out OUT"]),
        (("search",), ["{monotonicity,extremal-table}"]),
        (("search", "monotonicity"), ["--n-max N_MAX", "--tolerance TOLERANCE",
                                      "--jobs JOBS", "(default: 1)"]),
        (("search", "extremal-table"), ["--class {tree,unicyclic,bicyclic,connected}"]),
        (("enumerate",), ["--edges EDGES", "--class {tree,unicyclic,bicyclic,connected}"]),
    ])
    def test_each_parser_shows_its_own_arguments(self, argv, shown, monkeypatch, capsys):
        # each parser's help lists the options of its own command
        monkeypatch.setenv("COLUMNS", "400")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--help")
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: {' '.join(('hsograph', *argv))} [-h]")
        for text in shown:
            assert text in out

    def test_help_before_any_parse_shows_the_arguments(self):
        parser = cli._Parser(prog="p")
        parser.add_argument("--alpha", help="first")
        assert "--alpha ALPHA  first" in parser.format_help()
        assert parser.parse_args(["--alpha", "1"]).alpha == "1"


class TestStreamedCampaign:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_writer_gets_reports_while_the_stream_is_drawn(self, jobs, monkeypatch):
        # each order's stream is its level repeated to 2,000 graphs, 8,000 in all:
        # more than a pooled sweep's window at two jobs
        drawn = []

        def instrumented(cls, n):
            level = list(enumeration.graphs_in_class(cls, n))
            for i in range(2000):
                drawn.append(n)
                yield level[i % len(level)]

        monkeypatch.setattr(cli, "graphs_in_class", instrumented)
        window = 1 if jobs == 1 else (search.SLICES_PER_JOB * jobs + 1) * search.SLICE
        seen = []

        def write(reports):
            for r in reports:
                if not seen:
                    assert len(drawn) < 8000
                seen.append(r.n)
                assert len(drawn) - len(seen) <= window

        summary = run_verify_campaign("sandwich", 3, 6, jobs=jobs, write=write)
        assert summary.graphs_examined == len(seen) == len(drawn) == 8000
        assert seen == drawn
        assert not summary.violations

    def test_campaign_without_writer_runs_to_the_end(self):
        summary = run_verify_campaign("sandwich", 2, 6, jobs=2)
        assert summary.graphs_examined == 1 + 2 + 6 + 21 + 112

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_json_writer_bytes(self, count):
        # the one writer in each format against a reference built here: with
        # no items only the header lines remain, as verify f-monotone writes
        graphs = list(enumeration.connected_graphs(5))[:count]
        reports = [verify.check_theorem("sandwich", g) for g in graphs]
        witnesses = list(find_monotonicity_counterexamples(5))[:count]
        assert len(reports) == len(witnesses) == count
        meta = {"check": "sandwich", "tolerance": 1e-9, "n": "5..5"}
        header = f"# {cli._TOOL} check=sandwich tolerance=1e-09 n=5..5\n"
        # the sandwich bounds both sides, so no bound cell is empty
        report_table = [["theorem", "graph6", "value", "lower", "upper", "eq_lower", "eq_upper",
                         "structural_class", "consistent"]] + [
            [r.theorem, r.graph6, repr(r.value), repr(r.bound_lower), repr(r.bound_upper),
             int(r.equality_lower), int(r.equality_upper), r.structural_class, int(r.consistent)]
            for r in reports]
        witness_table = [["graph6_before", "graph6_after", "u", "v", "hso_before", "hso_after",
                          "delta"]] + [
            [w.graph6_before, w.graph6_after, *w.added_edge, repr(w.hso_before),
             repr(w.hso_after), repr(w.delta)] for w in witnesses]
        report_lines = [f"{r.theorem} {r.graph6} value={r.value!r} lower={r.bound_lower!r} "
                        f"upper={r.bound_upper!r} eq_lower={r.equality_lower} "
                        f"eq_upper={r.equality_upper} class={r.structural_class} "
                        f"consistent={r.consistent} holds={r.holds}" for r in reports]
        witness_lines = [f"{w.graph6_before} {w.graph6_after}" for w in witnesses]
        for key, columns, items, table, lines in (
            ("reports", verify.CSV_COLUMNS, reports, report_table, report_lines),
            ("witnesses", search.MonotonicityWitness.CSV_COLUMNS, witnesses, witness_table,
             witness_lines),
        ):
            def write(fmt):
                fh = io.StringIO()
                cli._write_items(fh, iter(items), fmt, meta, key, columns)
                return fh.getvalue()

            doc = {"tool": cli._TOOL, **meta, key: [item.to_dict() for item in items]}
            assert write("json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
            reference = io.StringIO()
            csv.writer(reference).writerows(table)
            assert write("csv") == header + reference.getvalue()
            assert write("text") == header + "".join(line + "\n" for line in lines)


class TestSubprocessEntry:
    @pytest.mark.parametrize("module", ["hsograph", "hsograph.cli"])
    def test_import_leaves_out_heavy_modules(self, module):
        # no dataclasses (which brings inspect, ast and dis), and json only
        # once JSON is written
        code = (f"import sys, {module}\n"
                "print(*sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"

    def test_json_output_imports_json(self):
        # a fresh process writes JSON through the import it defers
        proc = subprocess.run(
            [sys.executable, "-m", "hsograph.cli", "compute", "Bw", "--per-edge",
             "--format", "json"], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        golden = os.path.join(os.path.dirname(__file__), "golden", "compute-Bw-per-edge.json")
        with open(golden) as fh:
            assert proc.stdout == fh.read()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hsograph.cli", "compute", "star:4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "9.486832980505138" in proc.stdout

    def test_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hsograph.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("hsograph")

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hsograph.cli", "verify", "sandwich", "--n", "bad"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_spawned_workers_write_the_serial_bytes(self, tmp_path):
        # spawned workers start in a fresh interpreter and import what they
        # run, as under the default start method of macOS and Windows, and of
        # Linux from Python 3.14 (forkserver): the same bytes as one process
        code = ("import multiprocessing, sys\n"
                "from hsograph import cli\n"
                "multiprocessing.set_start_method('spawn')\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        outs = []
        for jobs in ("1", "2"):
            outs.append(tmp_path / f"jobs{jobs}.csv")
            proc = subprocess.run(
                [sys.executable, "-c", code, "verify", "sandwich", "--n", "2..6",
                 "--jobs", jobs, "--format", "csv", "--out", str(outs[-1])],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_env_jobs(self, tmp_path):
        # The child inherits the environment (PYTHONPATH included, so an
        # uninstalled checkout still imports).  --jobs alone sets the worker
        # count: HSO_JOBS is not read, so even the count that --jobs refuses
        # leaves the run and its bytes as they are without it.
        env = {k: v for k, v in os.environ.items() if k != "HSO_JOBS"}
        outs = []
        for value in (None, "2", "0"):
            outs.append(tmp_path / f"env-{value}.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "hsograph.cli", "verify", "sandwich", "--n", "3..5",
                 "--format", "csv", "--out", str(outs[-1])],
                capture_output=True, text=True,
                env=env if value is None else {**env, "HSO_JOBS": value},
            )
            assert proc.returncode == EXIT_OK, proc.stderr
        assert outs[0].read_text().startswith("# hsograph")
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
