"""Golden transcripts: the stdout of `main(argv)` is pinned byte for byte.

The files under tests/golden/ and the digests below hold the CLI's output,
so any change in what it prints shows up here.  A deliberate output change
regenerates the file and says why in CHANGES.md.

The parser goldens under tests/golden/parser/ pin the parser's output:
help text and usage errors, with the exit code.  The top-level help and usage
errors, for a call that does not start with a subcommand, are the CLI's own
text; a subcommand's are argparse's, wrapped at a fixed 78 columns.  So the
output is the same whatever the terminal width or COLUMNS says, and on every
supported Python.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3mukai.cli import _MINIMUMS, _SUBCOMMANDS, main

GOLDEN = Path(__file__).parent / "golden"

TRANSCRIPTS = {
    "verify_paper_g3_n2.txt": ["verify-paper", "--g", "3", "--n", "2"],
    "verify_paper_g3_n2.ndjson": ["verify-paper", "--g", "3", "--n", "2", "--json"],
    "dual_g2_n2.txt": ["dual", "--g", "2", "--n", "2"],
    "dual_g2_n2.ndjson": ["dual", "--g", "2", "--n", "2", "--json"],
    "dual_g3_n4_k6.ndjson": [
        "dual", "--g", "3", "--n", "4", "--k-min", "-6", "--k-max", "6", "--json",
    ],
    "criterion_g2_n2_b5.txt": ["criterion", "--g", "2", "--n", "2", "--bound", "5"],
    "criterion_g2_n2_b5.ndjson": [
        "criterion", "--g", "2", "--n", "2", "--bound", "5", "--json",
    ],
    # one elliptic and one dual-surface hit
    "criterion_v010_c2_2_b2.ndjson": [
        "criterion", "--v=0,1,0", "--c2", "2", "--bound", "2", "--json",
    ],
    # the bound admits (1, 0, 0) but not the other line (1, 1, 2)
    "criterion_v210_c2_4_b1.ndjson": [
        "criterion", "--v=2,1,0", "--c2", "4", "--bound", "1", "--json",
    ],
    # both hits come out of the closed form with negative entries and are
    # printed negated, lexicographically positive
    "criterion_vm3m4m4_c2_2_b100.txt": [
        "criterion", "--v=-3,-4,-4", "--c2", "2", "--bound", "100",
    ],
    # imprimitive v: genus and d_square come from v itself, not v / 2
    "criterion_v20m2_c2_8_b5.ndjson": [
        "criterion", "--v=2,0,-2", "--c2", "8", "--bound", "5", "--json",
    ],
    "isotropic_c2_8_g2_b10.txt": ["isotropic", "--c2", "8", "--g", "2", "--bound", "10"],
    "isotropic_c2_8_g2_b10.ndjson": [
        "isotropic", "--c2", "8", "--g", "2", "--bound", "10", "--json",
    ],
    "isotropic_c2_4_g2_b50.ndjson": [
        "isotropic", "--c2", "4", "--g", "2", "--bound", "50", "--json",
    ],
    "pair.txt": ["pair", "--v", "2,1,2", "--u", "2,1,2", "--c2", "8"],
    "pair.ndjson": ["pair", "--v", "2,1,2", "--u", "2,1,2", "--c2", "8", "--json"],
    "square.txt": ["square", "--v", "1,0,-1", "--c2", "8"],
    "square.ndjson": ["square", "--v", "1,0,-1", "--c2", "8", "--json"],
    "equiv_g2_n2_d2.txt": ["equiv", "--g", "2", "--n", "2", "--d", "2"],
    "equiv_g2_n2_d2.ndjson": ["equiv", "--g", "2", "--n", "2", "--d", "2", "--json"],
    "equiv_forms.txt": ["equiv", "--f1", "8,0,-2", "--f2", "0,-2,2"],
    "equiv_forms.ndjson": ["equiv", "--f1", "8,0,-2", "--f2", "0,-2,2", "--json"],
    # an equivalent pair, whose record ends in its witness
    "equiv_witness.txt": ["equiv", "--f1", "2,1,3", "--f2", "3,-1,2"],
    "equiv_witness.ndjson": ["equiv", "--f1", "2,1,3", "--f2", "3,-1,2", "--json"],
    # one determinant, two canonical forms: the reduced_form certificate
    "equiv_reduced_form.txt": ["equiv", "--f1", "1,0,14", "--f2", "2,0,7"],
    "equiv_reduced_form.ndjson": [
        "equiv", "--f1", "1,0,14", "--f2", "2,0,7", "--json",
    ],
    # entries near 5e12 reduce in a few dozen steps to the class of (3, -4, -7)
    "equiv_large_entries.txt": [
        "equiv", "--f1=-4997768334588,3331874330749,-2221268736903", "--f2=3,-4,-7",
    ],
    "census_10_10.txt": ["census", "--g-max", "10", "--n-max", "10"],
    "census_10_10.ndjson": ["census", "--g-max", "10", "--n-max", "10", "--json"],
    # argparse spellings that run: a unique prefix of a flag, and a flag given
    # twice, where the last value wins
    "abbreviated_flag.txt": ["pair", "--v", "1,0,1", "--u", "1,0,1", "--c", "8"],
    "abbreviated_json.ndjson": [
        "pair", "--v", "1,0,1", "--u", "1,0,1", "--c2", "8", "--js",
    ],
    "repeated_flag.txt": ["square", "--v", "1,0,1", "--v", "2,0,1", "--c2", "8"],
    "repeated_switch.txt": [
        "equiv", "--g", "2", "--n", "2", "--d", "2", "--proper", "--proper",
    ],
}

_PAIR = ["pair", "--v", "1,0,1", "--u", "1,0,1"]

# name -> (argv, exit code); help prints to stdout, a usage error to stderr
PARSER_CASES = {
    "help": (["--help"], 0),
    **{
        f"help_{sub.replace('-', '_')}": ([sub, "--help"], 0)
        for sub in (
            "pair", "square", "isotropic", "dual", "criterion", "equiv",
            "verify-paper", "census",
        )
    },
    "no_command": ([], 2),
    "unknown_command": (["bogus"], 2),
    # the subcommand's own parser reports a trailing argument, under its usage line
    "trailing_argument": (_PAIR + ["--c2", "2", "--bogus"], 2),
    "bad_integer": (_PAIR + ["--c2", "x"], 2),
    "missing_u": (["pair", "--v", "1,0,1", "--c2", "2"], 2),
    # --json belongs to the subcommands, not to the top level; a call that does
    # not start with a subcommand is refused on its first token, so not even
    # `--help` after it is read
    "json_before_command": (["--json"] + _PAIR + ["--c2", "2"], 2),
    "json_before_command_help": (["--json", "pair", "--help"], 2),
    # census has no --jobs: the flag is refused like any other unknown one
    "census_jobs": (["census", "--jobs", "4"], 2),
    "census_jobs_bare": (["census", "--g-max", "3", "--n-max", "3", "--jobs"], 2),
    # argparse spellings a subcommand's parser refuses or answers with its help
    "json_with_value": (_PAIR + ["--c2", "8", "--json=1"], 2),
    "double_dash_first": (["pair", "--", "--v", "1,0,1"], 2),
    "double_dash_last": (_PAIR + ["--c2", "8", "--", "x"], 2),
    "short_help_last": (["square", "--v", "1,0,1", "--c2", "8", "-h"], 0),
    "abbreviated_help_last": (["square", "--v", "1,0,1", "--c2", "8", "--he"], 0),
    "flag_without_value": (["verify-paper", "--g", "2", "--n"], 2),
    "repeated_command": (["verify-paper", "verify-paper"], 2),
    "single_dash_flag": (["dual", "-g", "2"], 2),
}

# name -> argv that parses but is refused: `main` returns 2 and prints one
# `error:` line to stderr, from a ValueError raised by `main`, a handler or the
# library
ERROR_CASES = {
    # one case per bounded flag of each subcommand, named <subcommand>_<dest>_below_min
    "isotropic_g_below_min": ["isotropic", "--c2", "8", "--g", "1"],
    "isotropic_bound_below_min": ["isotropic", "--c2", "8", "--g", "2", "--bound", "0"],
    "dual_g_below_min": ["dual", "--g", "1", "--n", "2"],
    "dual_n_below_min": ["dual", "--g", "2", "--n", "1"],
    "criterion_g_below_min": ["criterion", "--g", "1", "--n", "2"],
    "criterion_n_below_min": ["criterion", "--g", "2", "--n", "1"],
    "criterion_bound_below_min": ["criterion", "--g", "2", "--n", "2", "--bound", "0"],
    "equiv_g_below_min": ["equiv", "--g", "1", "--n", "2", "--d", "0"],
    "equiv_n_below_min": ["equiv", "--g", "2", "--n", "1", "--d", "0"],
    "equiv_d_below_min": ["equiv", "--g", "2", "--n", "2", "--d", "-1"],
    "equiv_bound_below_min": ["equiv", "--g", "2", "--n", "2", "--d", "0", "--bound", "0"],
    "verify_paper_g_below_min": ["verify-paper", "--g", "1"],
    "verify_paper_n_below_min": ["verify-paper", "--n", "1"],
    "census_g_max_below_min": ["census", "--g-max", "1"],
    "census_n_max_below_min": ["census", "--n-max", "1"],
    # a lower bound is checked before any other rule, so it is the one named
    "criterion_v_with_n_below_min": ["criterion", "--v=1,0,-1", "--c2", "8", "--n", "1"],
    "dual_empty_k_range": ["dual", "--g", "2", "--n", "2", "--k-min", "3", "--k-max", "1"],
    "isotropic_odd_c2": ["isotropic", "--c2", "7", "--g", "2"],
    "criterion_nonpositive_square": ["criterion", "--v", "1,0,1", "--c2", "8"],
    "criterion_short_vector": ["criterion", "--v=1,2", "--c2", "8"],
    "pair_bad_vector": ["pair", "--v", "1,x,2", "--u", "1,0,1", "--c2", "8"],
    "equiv_missing_flags": ["equiv", "--g", "2"],
    "equiv_f1_alone": ["equiv", "--f1", "1,0,1"],
    "criterion_no_flags": ["criterion"],
    "criterion_g_alone": ["criterion", "--g", "3"],
    # flags that would otherwise be ignored
    "criterion_v_with_g_n": [
        "criterion", "--v=1,0,-1", "--c2", "8", "--g", "7", "--n", "3",
    ],
    "criterion_g_with_n_and_c2": ["criterion", "--g", "3", "--n", "2", "--c2", "100"],
    "equiv_forms_with_g_n_d": [
        "equiv", "--f1", "8,0,-2", "--f2", "0,-2,2", "--g", "5", "--n", "3", "--d", "1",
    ],
    "census_g_max_above_cap": ["census", "--g-max", "101"],
}

# full 2 <= g, n <= 10 ledger: 7,220 records, 1,145,567 bytes as NDJSON
FULL_GRID_JSON_SHA256 = "b21d13682cdbd3de1aef67278f7bb84ae5f3ffeda2bb830311d2fa79c8085a6e"
FULL_GRID_TABLE_SHA256 = "7ed3ebb5167d3474e6e67318a9c2bb43b9aa373a3e226b8ccbcd9f1e20ea333e"
# `dual` at its span cap, 41 k by 81 l: 3,321 members, 111,040 bytes as
# NDJSON and 97,871 as a table
DUAL_SPAN_CAP = ["dual", "--g", "3", "--n", "2", "--k-min", "-20", "--k-max", "20"]
DUAL_SPAN_CAP_JSON_SHA256 = "4c7bb0394087d5e280711dc3c812bc5c33bfc4b868feb6acba5ad437fb473e65"
DUAL_SPAN_CAP_TABLE_SHA256 = "6282e179cff9c4678afa30d62e0a4b8172f21693de1aa119ffb9676b10c7b0b4"


def stdout_of(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_matches(capsys, name):
    expected = (GOLDEN / name).read_bytes()
    assert stdout_of(capsys, TRANSCRIPTS[name]).encode() == expected


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify-paper", "--json"], FULL_GRID_JSON_SHA256),
        (["verify-paper"], FULL_GRID_TABLE_SHA256),
    ],
    ids=["json", "table"],
)
def test_full_grid_digest(capsys, argv, digest):
    out = stdout_of(capsys, argv).encode()
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize(
    "flags, digest",
    [(["--json"], DUAL_SPAN_CAP_JSON_SHA256), ([], DUAL_SPAN_CAP_TABLE_SHA256)],
    ids=["json", "table"],
)
def test_dual_span_cap_digest(capsys, flags, digest):
    out = stdout_of(capsys, DUAL_SPAN_CAP + flags).encode()
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PARSER_CASES))
def test_parser_output_matches(capsys, name):
    argv, expected_code = PARSER_CASES[name]
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    expected = (GOLDEN / "parser" / f"{name}.txt").read_text()
    shown, silent = (
        (captured.out, captured.err) if expected_code == 0 else (captured.err, captured.out)
    )
    assert exc.value.code == expected_code
    assert (shown, silent) == (expected, "")


def test_every_golden_has_its_case():
    # a golden whose case is deleted would otherwise stay on disk unchecked
    def names(folder):
        return sorted(path.name for path in folder.iterdir() if path.is_file())

    assert names(GOLDEN) == sorted(TRANSCRIPTS)
    assert names(GOLDEN / "parser") == sorted(f"{name}.txt" for name in PARSER_CASES)
    assert names(GOLDEN / "errors") == sorted(f"{name}.txt" for name in ERROR_CASES)


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_output_matches(capsys, name):
    code = main(list(ERROR_CASES[name]))
    captured = capsys.readouterr()
    expected = (GOLDEN / "errors" / f"{name}.txt").read_text()
    assert (code, captured.out, captured.err) == (2, "", expected)


def test_every_lower_bound_has_its_error_case():
    # a bounded flag added to a subcommand cannot ship without a pinned message
    for name, (_, flags) in _SUBCOMMANDS.items():
        for flag, _ in flags:
            dest = flag.lstrip("-").replace("-", "_")
            if dest in _MINIMUMS:
                assert f"{name.replace('-', '_')}_{dest}_below_min" in ERROR_CASES


@pytest.mark.parametrize("seed", ["0", "1"])
def test_output_independent_of_hash_seed(seed):
    # each run is a fresh interpreter, so set and dict order is re-seeded
    env = {**os.environ, "PYTHONHASHSEED": seed}
    command = [sys.executable, "-m", "k3mukai"]

    def run(*argv) -> bytes:
        done = subprocess.run(command + list(argv), capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (0, b"")
        return done.stdout

    ledger = run("verify-paper", "--json")
    assert hashlib.sha256(ledger).hexdigest() == FULL_GRID_JSON_SHA256
    census = run(*TRANSCRIPTS["census_10_10.ndjson"])
    assert census == (GOLDEN / "census_10_10.ndjson").read_bytes()


def test_module_entry_point():
    # `python -m k3mukai` reads sys.argv through main(None)
    command = [sys.executable, "-m", "k3mukai"]
    pair = subprocess.run(command + TRANSCRIPTS["pair.txt"], capture_output=True, text=True)
    assert (pair.returncode, pair.stdout, pair.stderr) == (
        0, (GOLDEN / "pair.txt").read_text(), ""
    )
    argv, code = PARSER_CASES["bad_integer"]
    bad = subprocess.run(command + argv, capture_output=True, text=True)
    assert (bad.returncode, bad.stdout, bad.stderr) == (
        code, "", (GOLDEN / "parser" / "bad_integer.txt").read_text()
    )
