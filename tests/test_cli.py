"""Command-line behaviour: exit codes, determinism, JSON schema."""

import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3mukai.checks
import k3mukai.cli
import k3mukai.dual_surface
from k3mukai.cli import (
    CENSUS_GRID_MAX,
    DUAL_K_SPAN_MAX,
    EQUIV_DET_MAX,
    _SUBCOMMANDS,
    build_parser,
    census_records,
    ledger_checks,
    main,
)
from k3mukai.dual_surface import DualSurfaceReport, build_dual, solve_transform_constraints
from k3mukai.quadforms import EquivalenceResult
from k3mukai.value import Value
from test_golden import DUAL_SPAN_CAP, PARSER_CASES, TRANSCRIPTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--g", "2", "--n", "2")
        assert code == 0
        assert "checks passed" in out

    def test_usage_error_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--bogus"])
        assert exc.value.code == 2

    def test_usage_error_bad_vector(self, capsys):
        code, _, err = run_cli(capsys, "pair", "--v", "1,2", "--u", "1,0,1", "--c2", "8")
        assert code == 2
        assert "r,c,s" in err

    def test_usage_error_odd_c2(self, capsys):
        code, _, err = run_cli(capsys, "square", "--v", "1,0,1", "--c2", "7")
        assert code == 2
        assert "even" in err

    def test_verification_failure_is_exit_one(self, capsys, monkeypatch):
        # sabotage one check so the ledger honestly reports a failure
        original = k3mukai.checks.extension_square

        def broken(g, n):
            computed, claimed = original(g, n)
            return computed, claimed + 1

        monkeypatch.setattr("k3mukai.checks.extension_square", broken)
        code, out, _ = run_cli(capsys, "verify-paper", "--g", "2", "--n", "2")
        assert code == 1
        assert "FAIL" in out

    def test_broken_kernel_square_bound_is_the_claimed_side(self, capsys, monkeypatch):
        # the raw scan over N is computed; the closed form is what is claimed
        monkeypatch.setattr("k3mukai.checks.kernel_square_bound", lambda g, n, length: 99)
        code, out, _ = run_cli(capsys, "verify-paper", "--g", "3", "--n", "2", "--json")
        records = [json.loads(line) for line in out.splitlines()]
        failed = [r for r in records if not r["pass"]]
        assert code == 1
        assert [r["inputs"]["check"] for r in failed] == ["kernel_square_bound"] * 3
        assert [r["outputs"] for r in failed] == [
            {"computed": 3, "claimed": 99},
            {"computed": 1, "claimed": 99},
            {"computed": 0, "claimed": 99},
        ]


class TestPairAndSquare:
    def test_pair_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair", "--v", "2,1,2", "--u", "2,1,2", "--c2", "8", "--json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["pairing"] == 0

    def test_square_value(self, capsys):
        code, out, _ = run_cli(capsys, "square", "--v", "1,0,-1", "--c2", "8", "--json")
        record = json.loads(out)
        assert record["outputs"]["square"] == 2


class TestIsotropic:
    def test_motivating_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "isotropic", "--c2", "8", "--g", "2", "--bound", "10", "--json"
        )
        record = json.loads(out)
        assert record["outputs"]["classes"] == [{"a": 1, "b": 2}, {"a": 1, "b": -2}]
        assert record["outputs"]["exists_nontrivial"] is True

    def test_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "isotropic", "--c2", "4", "--g", "2", "--bound", "50", "--json"
        )
        record = json.loads(out)
        assert record["outputs"]["classes"] == []
        assert record["outputs"]["exists_nontrivial"] is False


class TestDual:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "--g", "2", "--n", "2", "--json")
        record = json.loads(out)
        outputs = record["outputs"]
        assert outputs["w"] == {"r": 2, "c": [1], "s": 2}
        assert outputs["d_square"] == 2
        assert outputs["gerbe_order"] == 2
        assert outputs["base_dim"] == 2
        assert outputs["fine"] is False
        assert outputs["d_ample_assumed"] is True
        solutions = outputs["solutions"]
        assert all(sol["de"] == 1 - 2 * sol["k"] for sol in solutions)
        assert all(sol["e2"] == 4 * sol["l"] for sol in solutions)

    def test_k_span_at_cap(self, capsys):
        assert DUAL_K_SPAN_MAX == 40
        code, out, _ = run_cli(
            capsys, "dual", "--g", "2", "--n", "2", "--k-min", "-20", "--k-max", "20",
            "--json",
        )
        assert code == 0
        assert len(json.loads(out)["outputs"]["solutions"]) == 41 * 81

    def test_k_span_above_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "dual", "--g", "2", "--n", "2", "--k-min", "-20", "--k-max", "21"
        )
        assert code == 2
        assert out == ""
        assert "at most 40" in err


class TestCriterion:
    def test_default_vector_from_g_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "criterion", "--g", "2", "--n", "2", "--bound", "5", "--json"
        )
        record = json.loads(out)
        hits = record["outputs"]["hits"]
        assert {"w": {"r": 2, "c": [1], "s": 2}, "branch": "dual-surface",
                "d_square": 2, "gerbe_order": 2} in hits

    def test_explicit_vector_needs_c2(self, capsys):
        code, _, err = run_cli(capsys, "criterion", "--v", "1,0,-1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["--v=1,0,-1", "--c2", "8", "--g", "2"], ["--v=1,0,-1", "--c2", "8", "--n", "2"],
         ["--g", "2", "--n", "2", "--c2", "8"]],
    )
    def test_conflicting_flags_are_usage_errors(self, capsys, argv):
        # each flag here would otherwise be ignored
        code, out, err = run_cli(capsys, "criterion", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["--v", "1,0,-1", "--c2", "-8"], ["--v", "1,0,-1", "--c2", "0"],
         ["--g", "2", "--c2", "-2"]],
    )
    def test_nonpositive_c2_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "criterion", *argv)
        assert code == 2
        assert out == ""
        assert "C^2 > 0" in err


class TestEquiv:
    def test_picard_family_comparison(self, capsys):
        code, out, _ = run_cli(
            capsys, "equiv", "--g", "2", "--n", "2", "--d", "2", "--json"
        )
        record = json.loads(out)
        assert record["outputs"]["verdict"] == "not_equivalent"
        assert record["outputs"]["certificate"] == "determinant"

    def test_raw_forms(self, capsys):
        code, out, _ = run_cli(
            capsys, "equiv", "--f1", "8,0,-2", "--f2", "8,0,-2", "--bound", "2",
            "--json",
        )
        record = json.loads(out)
        assert record["outputs"]["verdict"] == "equivalent"
        assert "witness" in record["outputs"]

    def test_missing_inputs(self, capsys):
        code, _, err = run_cli(capsys, "equiv", "--g", "2")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--g", "--n", "--d"])
    def test_forms_exclude_picard_flags(self, capsys, flag):
        argv = ["equiv", "--f1", "8,0,-2", "--f2", "0,-2,2", flag, "2"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: --f1/--f2 cannot be combined with --g, --n or --d\n"

    def test_shared_determinant_certified_by_canonical_forms(self, capsys):
        # contents 1 and 2, but only the canonical forms are reported
        argv = ["equiv", "--f1", "1,0,8", "--f2", "2,0,4"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "  certificate = reduced_form\n" in out
        assert "  values      = [[[1, 0], [0, 8]], [[2, 0], [0, 4]]]\n" in out
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["outputs"]["certificate"] == "reduced_form"
        assert record["outputs"]["values"] == [
            {"m11": 1, "m12": 0, "m22": 8}, {"m11": 2, "m12": 0, "m22": 4},
        ]

    @pytest.mark.parametrize("bound", ["26", "1000000"])
    def test_bound_has_no_effect(self, capsys, bound):
        # --bound is accepted and echoed, but no search depends on it
        for forms in (["1,0,14", "2,0,7"], ["1,0,-14", "2,0,-7"], ["3,1,5", "3,-1,5"]):
            argv = ["equiv", "--f1", forms[0], "--f2", forms[1], "--json"]
            code, out, _ = run_cli(capsys, *argv, "--bound", bound)
            _, base, _ = run_cli(capsys, *argv, "--bound", "1")
            record, expected = json.loads(out), json.loads(base)
            assert code == 0
            assert record["inputs"].pop("bound") == int(bound)
            assert expected["inputs"].pop("bound") == 1
            assert record == expected

    def test_non_square_determinant_at_cap(self, capsys):
        assert EQUIV_DET_MAX == 10**6
        # -det = 999,769 is not a square and has a cycle of 4,306 reduced
        # forms; the witness entries run to about 800 digits
        code, out, _ = run_cli(
            capsys, "equiv", "--f1", "1,0,-999769", "--f2", "-1968,979,21", "--json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["outputs"]["verdict"] == "equivalent"
        code, out, _ = run_cli(
            capsys, "equiv", "--f1", "1,0,-999999", "--f2", "2,1,-499999", "--json"
        )
        assert code == 0
        assert json.loads(out)["outputs"]["certificate"] == "reduced_form"

    def test_non_square_determinant_above_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "equiv", "--f1", "1,0,-1000001", "--f2", "-1,0,1000001"
        )
        assert (code, out) == (2, "")
        assert f"-{EQUIV_DET_MAX}" in err

    def test_uncapped_inputs(self, capsys):
        # a square -det, a definite pair and a determinant-separated pair are
        # each decided without a cycle walk, whatever their size
        for f1, f2, verdict in [
            ("1,0,-1002001", "-1,0,1002001", "not_equivalent"),
            ("1,0,-1002001", "1,1001,0", "equivalent"),
            ("1000000007,3,1000000009", "1000000009,-3,1000000007", "equivalent"),
            ("1000000000,1,-1000000000", "1000000000,2,-1000000000", "not_equivalent"),
        ]:
            code, out, _ = run_cli(capsys, "equiv", "--f1", f1, "--f2", f2, "--json")
            assert code == 0
            assert json.loads(out)["outputs"]["verdict"] == verdict


class TestVerifyPaper:
    def test_motivating_record_present(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--g", "2", "--n", "2", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        summary = [
            r for r in records if r["inputs"].get("check") == "dual_surface"
        ]
        assert len(summary) == 1
        outputs = summary[0]["outputs"]
        assert outputs["w"] == {"r": 2, "c": [1], "s": 2}
        assert outputs["d_square"] == 2
        assert outputs["gerbe_order"] == 2
        assert all(r["pass"] for r in records)

    def test_every_line_parses_independently(self, capsys):
        _, out, _ = run_cli(capsys, "verify-paper", "--g", "3", "--n", "2", "--json")
        for line in out.splitlines():
            record = json.loads(line)
            assert set(record) == {"command", "inputs", "outputs", "pass"}

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "verify-paper", "--g", "2", "--n", "3", "--json")
        encode = json.JSONEncoder(separators=(",", ":")).encode
        for line in out.splitlines():
            assert encode(json.loads(line)) == line

    def test_g_at_cap(self, capsys):
        assert CENSUS_GRID_MAX == 100
        code, out, _ = run_cli(capsys, "verify-paper", "--g", "100", "--json")
        assert code == 0
        # the records that grow with g: 10g + 1 per n
        checks = [json.loads(line)["inputs"]["check"] for line in out.splitlines()]
        grown = checks.count("kernel_square") + checks.count("picard_form_inequivalence")
        assert grown == 9 * (10 * 100 + 1)

    def test_g_above_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper", "--g", "101", "--n", "2")
        assert (code, out) == (2, "")
        assert "at most 100" in err


# Each wrapper breaks exactly one claim of a record kind that makes more than
# one (computed, claimed) claim; it replaces a name in its home module, where
# k3mukai.checks._point_checks looks it up: the six checks as module globals
# of `checks`, every other library name by an import at each call.
def fine_dual(build_dual):
    return lambda g, n: DualSurfaceReport(**{**vars(build_dual(g, n)), "fine": True})


def violation_at_length_zero(double_dual_square):
    # the square equals its claim, so only the Bogomolov-violation claim breaks
    def broken(g, n, length):
        return (-4, -4) if length == 0 else double_dual_square(g, n, length)
    return broken


def m_two_allowed(torsion_degree):
    def broken(g, n, m):
        degree, allowed = torsion_degree(g, n, m)
        return degree, allowed or m == 2
    return broken


def off_by_one(gen_picard_determinant):
    return lambda c2: gen_picard_determinant(c2) + 1


def reduced_form_certificate(equivalent):
    def broken(*args, **kwargs):
        result = equivalent(*args, **kwargs)
        return EquivalenceResult(**{**vars(result), "certificate": "reduced_form"})
    return broken


def family_fails(family_holds):
    return lambda g, n: False


@pytest.mark.parametrize("kind, name, breaks", [
    ("dual_surface", "build_dual", fine_dual),
    ("double_dual_square", "double_dual_square", violation_at_length_zero),
    ("torsion_degree", "torsion_degree", m_two_allowed),
    ("picard_determinants", "gen_picard_determinant", off_by_one),
    ("picard_form_inequivalence", "equivalent", reduced_form_certificate),
    ("transform_constraints", "family_holds", family_fails),
])
def test_one_broken_claim_fails_only_its_kind(capsys, monkeypatch, kind, name, breaks):
    home = sys.modules[getattr(k3mukai, name).__module__]
    monkeypatch.setattr(home, name, breaks(getattr(home, name)))
    code, out, _ = run_cli(capsys, "verify-paper", "--g", "3", "--n", "2", "--json")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert {r["inputs"]["check"] for r in records if not r["pass"]} == {kind}


def test_wrong_dual_square_fails_every_row_that_reads_it(monkeypatch):
    # tensor_degree measures n^2 D^2 with the D^2 build_dual computed, so a
    # wrong D^2 fails it beside the two rows that already checked that D^2
    def wrong_d_square(g, n):
        report = build_dual(g, n)
        return DualSurfaceReport(**{**vars(report), "d_square": report.d_square + 2})

    monkeypatch.setattr(k3mukai.dual_surface, "build_dual", wrong_d_square)
    failing = {r["inputs"]["check"] for r in ledger_checks([3], [2]) if not r["pass"]}
    assert failing == {"dual_curve_square", "picard_determinants", "tensor_degree"}


# the library names `_point_checks` imports at each call
LEDGER_LOOKUPS = [
    "BBLattice", "fujiki_degree", "build_dual", "family_holds",
    "equivalent", "gen_picard_determinant", "picard_scheme_form",
]


def test_ledger_reads_each_name_off_its_home_module(monkeypatch):
    # a name bound at import would skip a replacement in its home module, which
    # the broken-claim test above and perfbench's tracer both rely on
    calls = dict.fromkeys(LEDGER_LOOKUPS, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in LEDGER_LOOKUPS:
        home = sys.modules[getattr(k3mukai, name).__module__]
        monkeypatch.setattr(home, name, counting(name, getattr(home, name)))
    assert all(record["pass"] for record in ledger_checks([3], [2]))
    assert [name for name, count in calls.items() if count == 0] == []


class TestCensus:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--g-max", "2", "--n-max", "2", "--json")
        record = json.loads(out)
        assert record["inputs"] == {"g": 2, "n": 2}
        assert record["outputs"]["c2"] == 8
        assert record["outputs"]["d_square"] == 2
        assert record["outputs"]["gerbe_order"] == 2

    def test_genus_three_row(self, capsys):
        _, out, _ = run_cli(capsys, "census", "--g-max", "3", "--n-max", "2", "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        row = next(r for r in rows if r["inputs"] == {"g": 3, "n": 2})
        assert row["outputs"]["c2"] == 16
        assert row["outputs"]["d_square"] == 4

    def test_json_round_trip_without_pass_field(self, capsys):
        _, out, _ = run_cli(capsys, "census", "--g-max", "3", "--n-max", "3", "--json")
        encode = json.JSONEncoder(separators=(",", ":")).encode
        for line in out.splitlines():
            record = json.loads(line)
            assert "pass" not in record
            assert encode(record) == line

    def test_row_order_deterministic(self, capsys):
        _, out, _ = run_cli(capsys, "census", "--g-max", "4", "--n-max", "3", "--json")
        keys = [
            (json.loads(line)["inputs"]["g"], json.loads(line)["inputs"]["n"])
            for line in out.splitlines()
        ]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("flag", ["--g-max", "--n-max"])
    def test_grid_side_at_cap(self, capsys, flag):
        assert CENSUS_GRID_MAX == 100
        other = "--n-max" if flag == "--g-max" else "--g-max"
        code, out, _ = run_cli(capsys, "census", flag, "100", other, "2", "--json")
        assert code == 0
        assert len(out.splitlines()) == 99

    @pytest.mark.parametrize("flag", ["--g-max", "--n-max"])
    def test_grid_side_above_cap(self, capsys, flag):
        code, out, err = run_cli(capsys, "census", flag, "101")
        assert (code, out) == (2, "")
        assert "at most 100" in err

    def test_table_and_json_carry_identical_data(self, capsys):
        _, table, _ = run_cli(capsys, "census", "--g-max", "3", "--n-max", "3")
        _, stream, _ = run_cli(capsys, "census", "--g-max", "3", "--n-max", "3", "--json")
        table_lines = table.splitlines()
        header = table_lines[0]
        columns = header.split()
        # columns are left-aligned below their header names
        starts = [header.index(col) for col in columns]
        ends = starts[1:] + [None]

        def cell(line, i):
            return line[starts[i] : ends[i]].strip()

        records = [json.loads(line) for line in stream.splitlines()]
        assert len(table_lines) - 1 == len(records)
        for line, record in zip(table_lines[1:], records):
            merged = {**record["inputs"], **record["outputs"]}
            for column in ("g", "n", "c2", "d_square", "gerbe_order", "base_dim"):
                assert cell(line, columns.index(column)) == str(merged[column])
            assert cell(line, columns.index("fine")) == (
                "true" if merged["fine"] else "false"
            )
            w = merged["w"]
            assert cell(line, columns.index("w")) == f"({w['r']}, {w['c'][0]}, {w['s']})"


# DualSurfaceReport's fields in the order `dual` prints them
REPORT_FIELDS = ["c2", "w", "d_square", "gerbe_order", "fine", "base_dim"]


class TestRecordsCarryLibraryValues:
    """A record prints the value the library returned, not a copy of its
    formula: the report's own fields, in the report's order."""

    def test_dual_report_fields_over_the_grid(self):
        grid = range(2, 11)
        ledger = {
            (r["inputs"]["g"], r["inputs"]["n"]): r["outputs"]
            for r in ledger_checks(grid, grid)
            if r["inputs"]["check"] == "dual_surface"
        }
        census = {(r["inputs"]["g"], r["inputs"]["n"]): r["outputs"]
                  for r in census_records(10, 10)}
        assert set(ledger) == set(census) == {(g, n) for g in grid for n in grid}
        for g, n in census:
            report = build_dual(g, n)
            assert report.c2 == 2 * (g - 1) * n * n
            assert list(vars(report)) == REPORT_FIELDS
            args = build_parser("dual").parse_args(["--g", str(g), "--n", str(n)])
            [record] = k3mukai.cli.cmd_dual(args)
            family = solve_transform_constraints(g, n, (-2, 2))
            assert list(record["outputs"].items()) == [
                *vars(report).items(),
                ("polarization_dual", family.polarization_dual),
                ("d_ample_assumed", True),
                ("constraints", family.constraints),
                ("solutions", family.solutions),
            ]
            # the ledger row and the census row: the report as built
            surface = list(vars(report).items())
            assert list(ledger[g, n].items()) == list(census[g, n].items()) == surface

    def test_census_columns_are_the_report_fields(self, capsys):
        _, table, _ = run_cli(capsys, "census", "--g-max", "2", "--n-max", "2")
        assert table.splitlines()[0].split() == ["g", "n", *vars(build_dual(2, 2))]

    @pytest.mark.parametrize(
        "argv, library",
        [
            (["criterion", "--g", "2", "--n", "2"], "general_fibration_criterion"),
            (["dual", "--g", "2", "--n", "2"], "build_dual"),
        ],
        ids=["criterion", "dual"],
    )
    def test_writing_into_outputs_leaves_the_value_unchanged(
        self, monkeypatch, argv, library
    ):
        returned = []
        original = getattr(k3mukai.dual_surface, library)

        def recording(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(k3mukai.dual_surface, library, recording)
        args = build_parser(argv[0]).parse_args(argv[1:])
        [record] = getattr(k3mukai.cli, "cmd_" + argv[0])(args)
        [value] = returned
        before = dict(vars(value))
        outputs = record["outputs"]
        for name in before:
            outputs[name] = None
        outputs["added"] = 1
        assert vars(value) == before


# Products of this with itself pass Python's 4,300-digit limit on int-to-str
# conversion, so rendering them raises ValueError.
HUGE = "9" * 2200


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestUnprintableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["square", f"--v=1,{HUGE},1", "--c2", "8"],
            ["square", f"--v=1,{HUGE},1", "--c2", "8", "--json"],
            ["pair", f"--v=1,{HUGE},1", f"--u=1,{HUGE},1", "--c2", "8" * 2200],
            ["equiv", f"--f1=1,{HUGE},1", "--f2=1,0,1", "--json"],
        ],
        ids=["square", "square-json", "pair-huge-c2", "equiv-json"],
    )
    def test_exit_two_with_nothing_on_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "integer string conversion" in err
        assert err.count("\n") == 1


# every argv whose output a golden or a digest pins
GOLDEN_ARGV = {
    **TRANSCRIPTS, "verify_paper_full": ["verify-paper"], "dual_span_cap": DUAL_SPAN_CAP,
}


def assert_encodable(value):
    """`value` holds only int, str, bool and None leaves, inside lists,
    tuples, str-keyed dicts and library values: the types `main`'s encoder
    writes, a library value as its `vars`."""
    if isinstance(value, Value):
        value = vars(value)
    if type(value) is dict:
        assert all(type(key) is str for key in value), value
        value = value.values()
    elif type(value) not in (list, tuple):
        assert type(value) in (int, str, bool, type(None)), value
        return
    for item in value:
        assert_encodable(item)


class TestEncoding:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
    def test_records_hold_only_encodable_types(self, name):
        argv = GOLDEN_ARGV[name]
        args = build_parser(argv[0]).parse_args(argv[1:])
        records = getattr(k3mukai.cli, "cmd_" + argv[0].replace("-", "_"))(args)
        assert records
        for record in records:
            assert_encodable(record)

    @pytest.mark.parametrize("value", [{1}, object()], ids=["set", "object"])
    def test_walk_rejects_other_types(self, value):
        with pytest.raises(AssertionError):
            assert_encodable({"outputs": {"x": [value]}})

    def test_set_in_a_record_raises(self, monkeypatch):
        record = {"command": "pair", "inputs": {}, "outputs": {"pairing": {1}}}
        monkeypatch.setattr(k3mukai.cli, "cmd_pair", lambda args: [record])
        with pytest.raises(TypeError):
            main(["pair", "--v", "1,0,1", "--u", "1,0,1", "--c2", "2", "--json"])


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify-paper", "--g", "2", "--n", "2")
        _, second, _ = run_cli(capsys, "verify-paper", "--g", "2", "--n", "2")
        assert first == second

    def test_subprocess_runs_byte_identical(self):
        cmd = [sys.executable, "-m", "k3mukai", "census", "--g-max", "3", "--n-max", "3"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout


class TestParser:
    def test_import_leaves_thread_pool_unloaded(self):
        # census runs no thread pool, json is imported on first use,
        # fractions never, and no value type uses dataclasses
        # (whose import pulls in inspect) or typing; -S keeps `site` from
        # preloading modules, so the probe puts the package's directory on
        # sys.path itself, and modules loaded before k3mukai are not counted
        src = os.path.dirname(os.path.dirname(k3mukai.checks.__file__))
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            "import k3mukai.cli; "
            "watched = ('dataclasses', 'inspect', 'json', 'fractions', 'decimal', "
            "'concurrent.futures', 'typing'); "
            "print(sorted(m for m in watched if m in sys.modules and m not in before))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout == "[]\n"

    def test_package_import_leaves_cli_unloaded(self):
        # the package republishes library modules only; a wildcard import of
        # cli would load argparse and the CLI on every library import
        src = os.path.dirname(os.path.dirname(k3mukai.checks.__file__))
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            "import k3mukai; "
            "watched = ('k3mukai.cli', 'argparse', 'json'); "
            "print(sorted(m for m in watched if m in sys.modules and m not in before))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (None, []),
            (TRANSCRIPTS["pair.txt"], ["cli", "mukai", "value"]),
            (TRANSCRIPTS["square.txt"], ["cli", "mukai", "value"]),
            (
                ["equiv", "--f1", "8,0,-2", "--f2", "0,-2,2"],
                ["cli", "mukai", "quadforms", "value"],
            ),
            (
                ["equiv", "--g", "2", "--n", "2", "--d", "2"],
                ["bb", "cli", "dual_surface", "hermite", "mukai", "quadforms", "value"],
            ),
            (
                ["verify-paper", "--g", "2", "--n", "2"],
                ["bb", "checks", "cli", "dual_surface", "hermite", "mukai", "quadforms", "value"],
            ),
        ],
        ids=["package", "pair", "square", "equiv_forms", "equiv_picard", "verify_paper"],
    )
    def test_call_loads_only_the_modules_it_runs(self, argv, loaded):
        # the package loads a library module on first use of one of its names,
        # and the CLI imports each one in the handler that calls it, so every
        # cold start compiles only the modules its subcommand runs
        src = os.path.dirname(os.path.dirname(k3mukai.checks.__file__))
        call = "import k3mukai\ncode = 0\n" if argv is None else (
            "import contextlib, io, k3mukai.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = k3mukai.cli.main({argv!r})\n"
        )
        probe = (
            f"import sys\nsys.path.insert(0, {src!r})\n{call}"
            "print(code, sorted(m for m in sys.modules if m.startswith('k3mukai.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout == f"0 {[f'k3mukai.{m}' for m in loaded]}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["equiv", "--help"],
            PARSER_CASES["trailing_argument"][0],
            PARSER_CASES["unknown_command"][0],
            TRANSCRIPTS["pair.txt"],
        ],
        ids=["help", "equiv_help", "usage_error", "full_usage_error", "pair"],
    )
    def test_main_never_reads_terminal_width(self, monkeypatch, argv):
        # help and usage wrap at a fixed width, so output cannot follow the terminal
        def refuse():
            raise AssertionError("shutil.get_terminal_size called")

        monkeypatch.setattr(shutil, "get_terminal_size", refuse)
        with contextlib.suppress(SystemExit):
            main(list(argv))

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (
                ["pair", "--v", "-3,1,2", "--u", "-1,0,-1", "--c2", "8"],
                ["pair", "--v=-3,1,2", "--u=-1,0,-1", "--c2", "8"],
            ),
            (
                ["square", "--v", "-3,1,2", "--c2", "8", "--json"],
                ["square", "--v=-3,1,2", "--c2", "8", "--json"],
            ),
            (
                ["criterion", "--v", "-1,0,1", "--c2", "8", "--bound", "3"],
                ["criterion", "--v=-1,0,1", "--c2", "8", "--bound", "3"],
            ),
            (
                ["equiv", "--f1", "-2,0,6", "--f2", "-2,4,-2", "--bound", "3"],
                ["equiv", "--f1=-2,0,6", "--f2=-2,4,-2", "--bound", "3"],
            ),
        ],
        ids=["pair", "square", "criterion", "equiv"],
    )
    def test_spaced_negative_vector_equals_joined(self, capsys, spaced, joined):
        code, out, _ = run_cli(capsys, *spaced)
        assert code == 0 and out
        assert (code, out) == run_cli(capsys, *joined)[:2]

    def test_negative_number_after_list_flag_stays_a_value(self, capsys):
        code, _, err = run_cli(capsys, "square", "--v", "-3", "--c2", "8")
        assert code == 2
        assert "r,c,s" in err


def test_ledger_checks_cover_every_advertised_check():
    records = ledger_checks([2], [2])
    names = {record["inputs"]["check"] for record in records}
    assert names == {
        "dual_surface",
        "w_isotropic",
        "w_primitive",
        "gerbe_order",
        "dual_curve_square",
        "euler_characteristic",
        "base_dimension",
        "fujiki_isotropic_degree",
        "fujiki_ample_degree",
        "fujiki_constant_degree",
        "double_dual_square",
        "extension_square",
        "kernel_square",
        "kernel_square_bound",
        "torsion_degree",
        "tensor_degree",
        "brill_noether_unit",
        "picard_determinants",
        "picard_form_inequivalence",
        "transform_constraints",
    }


# flags each subcommand accepts; the fuzz below drops some of them, gives
# them values of the wrong kind, and may add one that does not belong
FUZZ_FLAGS = {
    "pair": ("--v", "--u", "--c2"),
    "square": ("--v", "--c2"),
    "isotropic": ("--c2", "--g", "--bound"),
    "dual": ("--g", "--n", "--k-min", "--k-max"),
    "criterion": ("--v", "--c2", "--g", "--n", "--bound"),
    "equiv": ("--f1", "--f2", "--g", "--n", "--d", "--bound"),
    "verify-paper": ("--g", "--n"),
    "census": ("--g-max", "--n-max"),
}
LIST_FLAGS = frozenset({"--v", "--u", "--f1", "--f2"})
SMALL = st.integers(-3, 12).map(str)
EDGE = st.sampled_from(["0", "-1", "25", "26", "40", "41", "100", "101", "10000000"])
TRIPLES = st.tuples(*[st.integers(-4, 8)] * 3).map(lambda xs: ",".join(map(str, xs)))
BAD_LISTS = st.sampled_from(["", "x", "1,2", "1,,2", "1,2,3,4", "0,0,0", "-3"])
HUGE_VALUES = st.sampled_from([HUGE, f"1,{HUGE},1"])
INT_VALUES = st.one_of(SMALL, SMALL, SMALL, SMALL, EDGE, EDGE, TRIPLES, HUGE_VALUES)
LIST_VALUES = st.one_of(TRIPLES, TRIPLES, TRIPLES, BAD_LISTS, SMALL, HUGE_VALUES)


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from([*FUZZ_FLAGS, "bogus", "--json", "--help"]))
    argv = [command]
    for name in draw(st.permutations(FUZZ_FLAGS.get(command, ()))):
        if draw(st.integers(0, 7)):
            argv += [name, draw(LIST_VALUES if name in LIST_FLAGS else INT_VALUES)]
    if draw(st.integers(0, 5)) == 0:
        argv += [draw(st.sampled_from(["--v", "--g", "--bogus"])), draw(INT_VALUES)]
    # census has no --jobs: its parser must refuse it as an unknown flag
    if command == "census" and draw(st.booleans()):
        argv += ["--jobs", str(draw(st.integers()))]
    if command == "equiv" and draw(st.booleans()):
        argv.append("--proper")
    if draw(st.booleans()):
        argv.insert(draw(st.sampled_from([1, len(argv)])), "--json")
    return argv


@settings(max_examples=400, deadline=None)
@given(fuzz_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # a parser's exit: help on stdout, or a usage error on stderr,
            # under its usage line
            if exc.code == 0:
                assert out.getvalue() and err.getvalue() == ""
                return
            text = err.getvalue()
            assert (exc.code, out.getvalue()) == (2, "")
            assert text.startswith("usage: ") and text.endswith("\n")
            *usage, error = text.splitlines()
            assert ": error: " in error and not any(": error: " in line for line in usage)
            return
    # a refused input prints one `error:` line and nothing else; a run prints
    # nothing to stderr
    if code == 2:
        text = err.getvalue()
        assert out.getvalue() == ""
        assert text.startswith("error: ") and text.endswith("\n") and text.count("\n") == 1
        return
    assert code in (0, 1)
    assert err.getvalue() == ""
    if "--json" in argv:
        for line in out.getvalue().splitlines():
            json.loads(line)


def run_main(argv):
    """(exit or SystemExit code, stdout, stderr) of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def recorded_builds(monkeypatch):
    """Record the `command` of every `build_parser` call `main` makes."""
    built = []
    original = k3mukai.cli.build_parser

    def recording(command):
        built.append(command)
        return original(command)

    monkeypatch.setattr(k3mukai.cli, "build_parser", recording)
    return built


@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_well_formed_call_builds_only_its_subcommand_parser(capsys, monkeypatch, name):
    argv = TRANSCRIPTS[name]
    built = recorded_builds(monkeypatch)
    assert main(list(argv)) == 0
    assert built == [argv[0]]


@pytest.mark.parametrize("name", PARSER_CASES)
def test_main_builds_one_parser_per_call(monkeypatch, name):
    argv = PARSER_CASES[name][0]
    built = recorded_builds(monkeypatch)
    run_main(argv)
    # usage errors included: the parser that meets one reports it, and a call
    # that does not start with a subcommand is answered without a parser
    assert built == ([argv[0]] if argv and argv[0] in _SUBCOMMANDS else [])


def test_fuzz_flags_are_the_declared_flags():
    # a flag declared in _SUBCOMMANDS but missing here would escape the fuzz;
    # the fuzz adds --proper on its own
    declared = {
        name: tuple(flag for flag, _ in flags if flag != "--proper")
        for name, (_, flags) in _SUBCOMMANDS.items()
    }
    assert FUZZ_FLAGS == declared


def test_readme_examples_exit_0():
    # every `k3mukai ...` line of README's "Command line" block, so an example
    # cannot keep a flag the CLI no longer takes
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [line for line in block.splitlines() if line.startswith("k3mukai ")]
    assert examples
    codes = {line: run_main(shlex.split(line)[1:])[0] for line in examples}
    assert codes == dict.fromkeys(examples, 0)
