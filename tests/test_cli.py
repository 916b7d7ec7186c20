"""Command-line behaviour: outputs, formats, exit codes."""

from __future__ import annotations

import ast
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import surdlab
import surdlab.cli as cli
import surdlab.harness as harness
import surdlab.surd as surd
from surdlab.cli import main
from surdlab.expansion import sqrt_approximation
from surdlab.forms import parse_form

from oracles import (
    brute_force_pell,
    interval_error_table,
    is_perfect_square,
    per_term_eval,
    plain_period_word,
    plain_states,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cf_sqrt_text(capsys):
    code, out, _ = run(capsys, "cf", "sqrt", "33")
    assert code == 0
    assert "a0: 5" in out
    assert "r: 4" in out
    assert "period: 1 2 1 10" in out


def test_cf_sqrt_json(capsys):
    code, out, _ = run(capsys, "cf", "sqrt", "129", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "D": 129,
        "a0": 11,
        "r": 10,
        "period": [2, 1, 3, 1, 6, 1, 3, 1, 2, 22],
    }


def test_cf_sqrt_rejects_squares(capsys):
    code, _, err = run(capsys, "cf", "sqrt", "9")
    assert code == 2
    assert "perfect square" in err


def test_cf_period(capsys):
    code, out, _ = run(capsys, "cf", "period", "33")
    assert code == 0
    assert "r: 4" in out
    assert "sqrt(D) ln D" in out

    # sqrt(D) is past the float range.
    code, out, _ = run(capsys, "cf", "period", str(10**400 + 2))
    assert code == 0
    assert "r: 2" in out


def test_cf_pell(capsys):
    code, out, _ = run(capsys, "cf", "pell", "33", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"D": 33, "X": 23, "Y": 4, "value": 1}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("D", [5_000_000_009, 5_000_000_029])
def test_cf_pell_prints_the_digits_of_a_big_solution(capsys, fmt, D):
    # X and Y of 5000000009 (r even) and 5000000029 (r odd) have ~54,000
    # bits: text and CSV cells print them from their half-size factors in
    # decimal, JSON through json.dumps.
    X, Y, value = surd.fundamental_pell(D)
    assert value == {5_000_000_009: 1, 5_000_000_029: -1}[D]  # (-1)**r
    assert Y.bit_length() > harness._STR_BITS
    code, out, _ = run(capsys, "cf", "pell", str(D), "--format", fmt)
    assert code == 0
    expected = {
        "text": f"X: {X}\nY: {Y}\nvalue: {value}\n",
        "csv": f"D,X,Y,value\n{D},{X},{Y},{value}\n",
        "json": f'{{"D": {D}, "X": {X}, "Y": {Y}, "value": {value}}}\n',
    }
    assert out == expected[fmt]


def test_cf_sqrt_strict_word_cap(capsys):
    code, out, _ = run(capsys, "cf", "sqrt", "129", "--word-cap", "4", "--strict")
    assert code == 3
    assert "r: 10" in out


def test_pell_scan_single_d(capsys):
    code, out, _ = run(capsys, "pell", "scan", "--D", "33", "--C", "4",
                       "--y-limit", "10")
    assert code == 0
    assert out.splitlines() == ["X,Y,value", "6,1,3", "23,4,1"]


def test_pell_scan_incomplete_warns(capsys):
    code, _, err = run(capsys, "pell", "scan", "--D", "33", "--C", "7",
                       "--y-limit", "10")
    assert code == 0
    assert "incomplete" in err


def test_pell_scan_family(capsys):
    code, out, err = run(
        capsys, "pell", "scan", "--form", "2*4^n + 1", "--C", "2", "--n", "1..4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,D,Y_min,value,log_Y_min"
    assert lines[1].startswith("2,33,4,1,")
    assert "# n=1 skipped: square" in err
    assert "slope" in err


PELL_SCAN_ALL_ARGS = ("pell", "scan", "--form", "2*4^n + 1", "--C", "3", "--n", "1..4",
                      "--all", "--y-limit", "1000000")
PELL_SCAN_ALL_ROWS = [
    (2, 33, 23, 4, 1),
    (2, 33, 1057, 184, 1),
    (2, 33, 48599, 8460, 1),
    (2, 33, 2234497, 388976, 1),
    (3, 129, 16855, 1484, 1),
    (4, 513, 13771351, 608020, 1),
]


def test_pell_scan_all_csv_golden_bytes(capsys):
    code, out, err = run(capsys, *PELL_SCAN_ALL_ARGS)
    assert code == 0
    assert out == "n,D,X,Y,value\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in PELL_SCAN_ALL_ROWS
    )
    assert "# n=1 skipped" in err


def test_pell_scan_all_json(capsys):
    code, out, err = run(capsys, *PELL_SCAN_ALL_ARGS, "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        dict(zip(("n", "D", "X", "Y", "value"), row)) for row in PELL_SCAN_ALL_ROWS
    ]
    assert "# n=1 skipped" in err


def test_pell_scan_all_warns_for_each_incomplete_row(capsys):
    # C^2 > D for D = f(3) = 3 only; the scan of D = f(4) = 11 is complete.
    code, _, err = run(capsys, "pell", "scan", "--form", "2^n - 5", "--C", "3",
                       "--n", "1..4", "--all", "--y-limit", "100")
    assert code == 0
    assert [line for line in err.splitlines() if "warning" in line] == [
        "# warning: C=3 > sqrt(3); scan may be incomplete"]


@pytest.mark.parametrize("form, n", [("(1/2)*4^n + 2^n - 8", "0..5"), ("2^n - 5", "1..4"),
                                     ("4^n", "1..3")])
def test_family_commands_skip_the_rows_family_notes(capsys, form, n):
    # One rule: a row with no period is named and skipped, never an error.
    code, out, _ = run(capsys, "family", "--form", form, "--n", n, "--format", "json")
    assert code == 0
    want = [(rec["n"], rec["notes"]) for rec in json.loads(out) if rec["notes"]]
    assert want
    for argv in (("pell", "scan", "--form", form, "--C", "3", "--n", n),
                 ("pell", "scan", "--form", form, "--C", "3", "--n", n, "--all",
                  "--y-limit", "100"),
                 ("profile", "pq", "--form", form, "--n", n, "--c", "3")):
        code, _, err = run(capsys, *argv)
        got = [(int(m[1]), m[2]) for m in re.finditer(r"^# n=(\d+) skipped: (.*)$", err, re.M)]
        assert (code, got) == (0, want), argv


@pytest.mark.parametrize("argv, error", [
    (["--D", "33", "--C", "4", "--all"], "pell scan --D does not read --all"),
    (["--D", "33", "--C", "4", "--n", "1..3"], "pell scan --D does not read --n"),
    (["--D", "33", "--C", "4", "--strict"], "pell scan --D does not read --strict"),
    (["--form", "2^n - 5", "--C", "3", "--n", "1..4", "--all", "--strict"],
     "pell scan --form --all does not read --strict"),
])
def test_pell_scan_refuses_flags_its_mode_never_reads(capsys, monkeypatch, argv, error):
    import surdlab.growth as growth

    def no_scan(*args, **kwargs):
        raise AssertionError("no scan may run")

    monkeypatch.setattr(growth, "bounded_pell_solutions", no_scan)
    monkeypatch.setattr(growth, "min_solution_growth", no_scan)
    assert run(capsys, "pell", "scan", *argv) == (2, "", f"error: {error}\n")


def test_pell_scan_needs_exactly_one_target(capsys):
    code, _, err = run(capsys, "pell", "scan", "--C", "2")
    assert code == 2
    assert "exactly one" in err


def test_growth_denom(capsys):
    code, out, _ = run(
        capsys, "growth", "denom", "--form", "3^n + 1", "--b", "2", "--n", "1..5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,denominator,log_denominator,flagged"
    assert lines[1].startswith("1,1,")
    assert lines[1].endswith("true")
    assert lines[4].startswith("4,8,")
    assert lines[4].endswith("false")


def test_profile_pq(capsys):
    code, out, err = run(
        capsys, "profile", "pq", "--form", "2*4^n + 1", "--n", "1..3", "--c", "10"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,D,prefix_len,max_partial_quotient")
    assert lines[1].split(",")[:4] == ["2", "33", lines[1].split(",")[2], "10"]
    assert lines[2].split(",")[3] == "22"
    assert "n=1 skipped: square" in err


def test_hypothesis_check_text(capsys):
    code, out, _ = run(capsys, "hypothesis", "check", "--form", "2*4^n + 1")
    assert code == 0
    assert "verdict: holds-by-trivial-criterion" in out

    code, out, _ = run(capsys, "hypothesis", "check", "--form", "4^n + 1")
    assert code == 0
    assert "verdict: fails" in out
    assert "j=0: h = 4^n, g = 1" in out

    # The witness bases are past the float range.
    code, out, _ = run(capsys, "hypothesis", "check", "--form", f"{10**200}^n + 2^n")
    assert code == 0
    assert "verdict: fails" in out


def test_hypothesis_check_json(capsys):
    code, out, _ = run(
        capsys, "hypothesis", "check", "--form", "4^n + 2^n + 1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "fails"
    assert {"j": 0, "h": "4^n + 1/2", "g": "3/4", "delta": "-inf"} not in payload["witnesses"]
    assert payload["witnesses"][0]["h"] == "4^n + 1/2"
    assert payload["witnesses"][0]["g"] == "3/4"


def test_expand_sqrt(capsys):
    code, out, err = run(
        capsys, "expand", "sqrt", "--form", "2*4^n + 1", "--j", "0",
        "--n-range", "2..6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,error_low,error_high,decay_low,decay_high"
    assert len(lines) == 6
    decay = float(lines[2].split(",")[3])
    assert 7 < decay < 9
    assert "f1 = 16^n + (1/4)*4^n" in err

    # The error base, 5*10^599, is past the float range.
    code, out, _ = run(capsys, "expand", "sqrt", "--form", f"{10**400}^n + 2^n", "--j", "0",
                       "--n-range", "1..2")
    assert code == 0
    assert len(out.splitlines()) == 3
    assert "error_base = 8" in err


def test_family_preset(capsys):
    code, out, _ = run(capsys, "family", "--preset", "title", "--n", "1..3")
    assert code == 0
    assert out == (
        "n,D,is_square,r,palindrome_ok,pell_sign,max_pq_prefix,notes\n"
        '1,9,true,,,,,"square"\n'
        "2,33,false,4,true,1,10,\n"
        "3,129,false,10,true,1,22,\n"
    )


def test_family_preset_range(capsys):
    # A preset runs its own n range unless --n replaces it.
    code, out, _ = run(capsys, "family", "--preset", "v2w2")
    assert code == 0
    assert out == run(capsys, "family", "--form", "36^n + 2*3^n", "--n", "1..8")[1]
    assert [row.split(",")[:2] for row in out.splitlines()[1:3]] == [["1", "42"],
                                                                     ["2", "1314"]]
    assert len(out.splitlines()) == 9
    code, out, _ = run(capsys, "family", "--preset", "v2w2", "--n", "2..5")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["2", "3", "4", "5"]
    with pytest.raises(SystemExit) as exc:
        main(["family", "--preset", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_family_json(capsys):
    code, out, _ = run(
        capsys, "family", "--form", "4^n + 1", "--n", "1..2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [rec["r"] for rec in payload] == [1, 1]


def test_family_summary_stderr(capsys):
    code, _, err = run(
        capsys, "family", "--preset", "title", "--n", "1..4", "--summary"
    )
    assert code == 0
    assert "suffix-min r" in err


# The decay bounds, ~2^1993, are past the float range.
HUGE_DECAY = ["expand", "sqrt", "--form", f"{10**400}^n + 1", "--j", "0", "--n-range", "1..3"]


def test_expand_sqrt_decay_past_the_float_range_csv(capsys):
    assert run(capsys, *HUGE_DECAY, "--format", "csv")[:2] == (0, (
        "n,error_low,error_high,decay_low,decay_high\n"
        "1,0.000000e+00,0.000000e+00,,\n"
        "2,0.000000e+00,0.000000e+00,inf,inf\n"
        "3,0.000000e+00,0.000000e+00,inf,inf\n"))


def test_expand_sqrt_decay_past_the_float_range_json(capsys):
    code, out, _ = run(capsys, *HUGE_DECAY, "--format", "json")
    assert code == 0
    assert out.count('"decay_low": Infinity,\n') == 2
    rows = json.loads(out)["rows"]
    assert [(row["decay_low"], row["decay_high"]) for row in rows] == [
        (None, None), (math.inf, math.inf), (math.inf, math.inf)]


def test_out_that_cannot_be_written_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.txt"
    assert run(capsys, "cf", "sqrt", "129", "--out", str(missing)) == (
        2, "", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    code, out, err = run(capsys, "cf", "sqrt", "129", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 21] Is a directory: ")


def test_out_is_checked_before_the_work(tmp_path, capsys, monkeypatch):
    def no_row(*args):
        raise AssertionError("no row may run")

    monkeypatch.setattr(harness, "_family_row", no_row)
    argv = ("family", "--form", "2*4^n + 1", "--n", "20..22", "--out")
    missing = tmp_path / "missing" / "x.csv"
    assert run(capsys, *argv, str(missing)) == (
        2, "", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    assert run(capsys, *argv, str(tmp_path)) == (
        2, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    assert not missing.parent.exists()
    # An empty path is open's error too, not stdout; by either spelling.
    for empty in ((*argv, ""), (*argv[:-1], "--out=")):
        assert run(capsys, *empty) == (2, "", "error: [Errno 2] No such file or directory: ''\n")


def test_out_is_untouched_when_the_run_exits_3(tmp_path, capsys):
    target = tmp_path / "x.txt"
    target.write_text("kept\n")
    code, out, err = run(capsys, "cf", "pell", "137438953473", "--digit-budget", "10",
                         "--out", str(target))
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: ")
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_expand_sqrt_formats_f1_once(capsys, monkeypatch, fmt):
    import surdlab.forms as forms
    calls = []
    real = forms.format_form

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(forms, "format_form", spy)
    code, _, err = run(capsys, "expand", "sqrt", "--form", "2*4^n + 1", "--j", "0",
                       "--n-range", "1..3", "--format", fmt)
    assert code == 0
    assert len(calls) == 1
    assert err.startswith(f"# f1 = {real(calls[0])}, ")


def test_family_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "family", "--preset", "title", "--n", "1..2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,D,is_square")


def test_family_parallel_output_is_byte_identical(tmp_path, capsys):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert run(capsys, "family", "--preset", "title", "--n", "1..8",
               "--jobs", "1", "--out", str(seq))[0] == 0
    assert run(capsys, "family", "--preset", "title", "--n", "1..8",
               "--jobs", "3", "--out", str(par))[0] == 0
    assert seq.read_bytes() == par.read_bytes()


def test_family_needs_target(capsys):
    code, _, err = run(capsys, "family", "--n", "1..2")
    assert code == 2
    assert "exactly one" in err


def test_bad_form_is_exit_2(capsys):
    code, _, err = run(capsys, "family", "--form", "totally^wrong", "--n", "1..2")
    assert code == 2
    assert "error" in err


def test_identities(capsys):
    code, out, _ = run(capsys, "identities", "--n-max", "3")
    assert code == 0
    assert "failures: 0" in out


def test_identities_json(capsys):
    code, out, _ = run(capsys, "identities", "--n-max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


# Golden bytes of two documented outputs; any change to a digit or a
# separator fails here.
PROFILE_PQ_GOLDEN = (
    "n,D,prefix_len,max_partial_quotient,min_eff_exponent,max_eff_exponent\n"
    "2,33,18,10,2.019347,3.713132\n"
    "3,129,25,22,2.014391,3.362303\n"
    "4,513,32,44,2.012216,3.686962\n"
    "5,2049,35,30,2.008973,2.986147\n"
    "6,8193,44,60,2.007580,6.036423\n"
    "7,32769,45,45,2.003517,2.600004\n"
    "8,131073,50,45,2.002983,3.058380\n"
    "9,524289,64,60,2.003294,2.651939\n"
    "10,2097153,69,37,2.003244,2.626285\n"
    "11,8388609,80,40,2.001583,3.403064\n"
    "12,33554433,79,180,2.000176,3.072857\n"
)

FAMILY_TITLE_JSON_GOLDEN = (
    '[\n'
    '  {\n'
    '    "n": 1,\n'
    '    "D": 9,\n'
    '    "is_square": true,\n'
    '    "r": null,\n'
    '    "palindrome_ok": null,\n'
    '    "pell_sign": null,\n'
    '    "max_pq_prefix": null,\n'
    '    "notes": "square"\n'
    '  },\n'
    '  {\n'
    '    "n": 2,\n'
    '    "D": 33,\n'
    '    "is_square": false,\n'
    '    "r": 4,\n'
    '    "palindrome_ok": true,\n'
    '    "pell_sign": 1,\n'
    '    "max_pq_prefix": 10,\n'
    '    "notes": ""\n'
    '  },\n'
    '  {\n'
    '    "n": 3,\n'
    '    "D": 129,\n'
    '    "is_square": false,\n'
    '    "r": 10,\n'
    '    "palindrome_ok": true,\n'
    '    "pell_sign": 1,\n'
    '    "max_pq_prefix": 22,\n'
    '    "notes": ""\n'
    '  },\n'
    '  {\n'
    '    "n": 4,\n'
    '    "D": 513,\n'
    '    "is_square": false,\n'
    '    "r": 16,\n'
    '    "palindrome_ok": true,\n'
    '    "pell_sign": 1,\n'
    '    "max_pq_prefix": 44,\n'
    '    "notes": ""\n'
    '  },\n'
    '  {\n'
    '    "n": 5,\n'
    '    "D": 2049,\n'
    '    "is_square": false,\n'
    '    "r": 44,\n'
    '    "palindrome_ok": true,\n'
    '    "pell_sign": 1,\n'
    '    "max_pq_prefix": 90,\n'
    '    "notes": ""\n'
    '  },\n'
    '  {\n'
    '    "n": 6,\n'
    '    "D": 8193,\n'
    '    "is_square": false,\n'
    '    "r": 74,\n'
    '    "palindrome_ok": true,\n'
    '    "pell_sign": 1,\n'
    '    "max_pq_prefix": 180,\n'
    '    "notes": ""\n'
    '  }\n'
    ']\n'
)


def test_profile_pq_golden_bytes(capsys):
    code, out, _ = run(
        capsys, "profile", "pq", "--form", "2*4^n + 1", "--n", "2..12", "--c", "8"
    )
    assert code == 0
    assert out == PROFILE_PQ_GOLDEN


@pytest.mark.parametrize("n, c", [("2..2", "200000"), ("2..2", "1e308"), ("1..3", "100000")])
def test_profile_pq_past_the_digit_budget_exits_3(capsys, n, c):
    # exp(c*n) has over DEFAULT_DIGIT_BUDGET digits at the last n: refused
    # before the first row, though rows 1 (a square) and 2 are within it.
    start = time.perf_counter()
    code, out, err = run(capsys, "profile", "pq", "--form", "2*4^n + 1", "--n", n, "--c", c)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: ")


@pytest.mark.parametrize("n, c, why", [
    ("2..2", "inf", "finite"),
    ("0..0", "inf", "finite"),  # c*n is inf*0, a nan
    ("0..3", "nan", "positive"),
    ("0..3", "-inf", "positive"),
    ("0..3", "0", "positive"),
    ("0..3", "-1.5", "positive"),
])
def test_profile_pq_refuses_a_c_not_finite_and_positive(capsys, n, c, why):
    # Refused before any row, the first n (a skipped square at n = 0) included.
    for form in ("2*4^n + 1", "4^n"):
        code, out, err = run(capsys, "profile", "pq", "--form", form, "--n", n, f"--c={c}")
        assert (code, out, err) == (2, "", f"error: invalid c={float(c)}: must be {why}\n")


def test_family_title_json_golden_bytes(capsys):
    code, out, _ = run(
        capsys, "family", "--preset", "title", "--n", "1..6", "--format", "json"
    )
    assert code == 0
    assert out == FAMILY_TITLE_JSON_GOLDEN


# One subcommand that offers each count flag.
COUNT_FLAG_ARGV = {
    "--digit-budget": ["pell", "scan", "--D", "33", "--C", "2"],
    "--word-cap": ["cf", "sqrt", "33"],
    "--jobs": ["family", "--preset", "title", "--n", "1..2"],
    "--n-max": ["identities"],
}


@pytest.mark.parametrize("flag", ["--digit-budget", "--word-cap", "--jobs", "--n-max"])
@pytest.mark.parametrize("value", ["0", "-5", "x"])
def test_count_flags_reject_non_positive_values(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(COUNT_FLAG_ARGV[flag] + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r} is not a positive integer" in capsys.readouterr().err


# Each flag is offered only by the subcommands that read it: --jobs by
# family, --word-cap by cf sqrt, --strict by cf sqrt and the minimal-Y pell
# scan --form (pell scan --D and --form ... --all refuse it with exit 2).
# Everywhere else argparse rejects it.
@pytest.mark.parametrize("argv, flag", [
    (["identities", "--n-max", "3"], "--jobs 7"),
    (["identities", "--n-max", "3"], "--word-cap 1"),
    (["identities", "--n-max", "3"], "--strict"),
    (["expand", "sqrt", "--form", "4^n + 1", "--j", "0", "--n-range", "1..2"], "--jobs 9"),
    (["expand", "sqrt", "--form", "4^n + 1", "--j", "0", "--n-range", "1..2"], "--word-cap 1"),
    (["cf", "sqrt", "33"], "--jobs 2"),
    (["cf", "period", "33"], "--word-cap 1"),
    (["cf", "period", "33"], "--strict"),
    (["cf", "pell", "33"], "--strict"),
    (["pell", "scan", "--D", "33", "--C", "2"], "--jobs 2"),
    (["pell", "scan", "--D", "33", "--C", "2"], "--word-cap 1"),
    (["growth", "denom", "--form", "3^n + 1", "--b", "2", "--n", "1..5"], "--strict"),
    (["profile", "pq", "--form", "2*4^n + 1", "--n", "2..3", "--c", "8"], "--jobs 2"),
    (["hypothesis", "check", "--form", "4^n + 1"], "--word-cap 1"),
    (["family", "--preset", "title", "--n", "1..2"], "--word-cap 1"),
    (["family", "--preset", "title", "--n", "1..2"], "--strict"),
])
def test_flags_only_where_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + flag.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["family", "--preset", "title", "--n", "1..4"],
    ["cf", "sqrt", "33"],
    ["growth", "denom", "--form", "3^n + 1", "--b", "2", "--n", "1..5"],
])
def test_digit_budget_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--digit-budget", "1"])
    assert exc.value.code == 2
    assert "--digit-budget" in capsys.readouterr().err


def test_cf_pell_digit_budget_is_exit_3(capsys, monkeypatch):
    # D = 2*4^18 + 1: r = 65,096 and X has ~34,000 digits.  The walk's
    # bound on Y passes the budget first, so X is never built.
    def no_build(*args):
        raise AssertionError("X must not be built past the budget")

    monkeypatch.setattr(surd, "_pell_from_half", no_build)
    code, out, err = run(capsys, "cf", "pell", "137438953473", "--digit-budget", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap: ")
    assert "10-digit budget" in err


def test_cf_pell_digit_budget_boundary(capsys):
    # X = 48 for D = 47: two digits pass a 2-digit budget, not a 1-digit one.
    code, out, _ = run(capsys, "cf", "pell", "47", "--digit-budget", "2")
    assert code == 0
    assert out == "X: 48\nY: 7\nvalue: 1\n"
    code, out, err = run(capsys, "cf", "pell", "47", "--digit-budget", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap: ")


def test_hypothesis_near_one_base_ratio_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "hypothesis", "check", "--form", "1001^n + 1000^n")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "verdict: holds" in out.splitlines()


def test_hypothesis_root_depth_cap_is_exit_3(capsys):
    # Integer first tail base (9900^2/10000 = 9801), so the root series
    # is needed, and it takes 458 terms.
    code, out, err = run(capsys, "hypothesis", "check", "--form", "10000^n + 9900^n")
    assert code == 3
    assert out == ""
    assert "exceeds cap 256" in err


# Exit code and the sha256 (first 16 hex digits) of stdout and stderr for
# every subcommand under each --format, plus edge cases: an elided word, a
# period of 1, empty and incomplete scans, a digit-capped min-Y row, --all
# over squares, profiles without exponents or rows, every family note, and
# exit 2 and 3 paths.  Taken from the CLI before its emission was shared.
GOLDEN_MATRIX = [
    ('cf sqrt 129', 0, "399e8b9a62ff8900", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --format text', 0, "399e8b9a62ff8900", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --format csv', 0, "6d488eee0e746107", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --format json', 0, "5747d804955a164a", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --word-cap 3', 0, "ddb1684ebce5ea4f", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --word-cap 3 --format text', 0, "ddb1684ebce5ea4f", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --word-cap 3 --format csv', 0, "87d6f22eb0bc328a", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --word-cap 3 --format json', 0, "5fd797051cf2ef44", "e3b0c44298fc1c14"),
    ('cf sqrt 2', 0, "a050c2a41bd72eab", "e3b0c44298fc1c14"),
    ('cf sqrt 2 --format text', 0, "a050c2a41bd72eab", "e3b0c44298fc1c14"),
    ('cf sqrt 2 --format csv', 0, "90d031cb74c28927", "e3b0c44298fc1c14"),
    ('cf sqrt 2 --format json', 0, "f24d763418fb296a", "e3b0c44298fc1c14"),
    ('cf period 129', 0, "a11deaca34facbbe", "e3b0c44298fc1c14"),
    ('cf period 129 --format text', 0, "a11deaca34facbbe", "e3b0c44298fc1c14"),
    ('cf period 129 --format csv', 0, "3c4a229748d72809", "e3b0c44298fc1c14"),
    ('cf period 129 --format json', 0, "8bef6d729ec1377f", "e3b0c44298fc1c14"),
    ('cf pell 129', 0, "1d857e5082e611a3", "e3b0c44298fc1c14"),
    ('cf pell 129 --format text', 0, "1d857e5082e611a3", "e3b0c44298fc1c14"),
    ('cf pell 129 --format csv', 0, "95d0ab7ebb2802b8", "e3b0c44298fc1c14"),
    ('cf pell 129 --format json', 0, "b7a05bbcac1aed91", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 4 --y-limit 10', 0, "b948f0d7152e8779", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 4 --y-limit 10 --format text', 0, "b948f0d7152e8779", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 4 --y-limit 10 --format csv', 0, "b948f0d7152e8779", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 4 --y-limit 10 --format json', 0, "c0b24a7cdf97fda9", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 1 --y-limit 3', 0, "ff99d9c768e808ea", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 1 --y-limit 3 --format text', 0, "ff99d9c768e808ea", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 1 --y-limit 3 --format csv', 0, "ff99d9c768e808ea", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 1 --y-limit 3 --format json', 0, "e5ce3fa5e684168a", "e3b0c44298fc1c14"),
    ('pell scan --D 33 --C 40 --y-limit 10', 0, "38403be0318737af", "0afcb50d47081977"),
    ('pell scan --D 33 --C 40 --y-limit 10 --format text', 0, "38403be0318737af", "0afcb50d47081977"),
    ('pell scan --D 33 --C 40 --y-limit 10 --format csv', 0, "38403be0318737af", "0afcb50d47081977"),
    ('pell scan --D 33 --C 40 --y-limit 10 --format json', 0, "7521370fbe66b118", "0afcb50d47081977"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..6", 0, "6a96b1320f5a151c", "42bac1d2c36967a9"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..6 --format text", 0, "6a96b1320f5a151c", "42bac1d2c36967a9"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..6 --format csv", 0, "6a96b1320f5a151c", "42bac1d2c36967a9"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..6 --format json", 0, "3fe10c9b2f94d98d", "42bac1d2c36967a9"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..8 --digit-budget 40", 0, "08cc2e6651bf2c9a", "d9a4e3c292694d4f"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..8 --digit-budget 40 --format text", 0, "08cc2e6651bf2c9a", "d9a4e3c292694d4f"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..8 --digit-budget 40 --format csv", 0, "08cc2e6651bf2c9a", "d9a4e3c292694d4f"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..8 --digit-budget 40 --format json", 0, "011f5b27626315c9", "d9a4e3c292694d4f"),
    ("pell scan --form '4^n + 1' --C 2 --n 1..3", 0, "b9bdf7519d258142", "e848ba5ebbbfc096"),
    ("pell scan --form '4^n + 1' --C 2 --n 1..3 --format text", 0, "b9bdf7519d258142", "e848ba5ebbbfc096"),
    ("pell scan --form '4^n + 1' --C 2 --n 1..3 --format csv", 0, "b9bdf7519d258142", "e848ba5ebbbfc096"),
    ("pell scan --form '4^n + 1' --C 2 --n 1..3 --format json", 0, "f6e209fb15ab8680", "e848ba5ebbbfc096"),
    ("pell scan --form '2*4^n + 1' --C 3 --n 1..3 --all --y-limit 100000", 0, "788473fce339f214", "0f0ad02fc3515af7"),
    ("pell scan --form '2*4^n + 1' --C 3 --n 1..3 --all --y-limit 100000 --format text", 0, "788473fce339f214", "0f0ad02fc3515af7"),
    ("pell scan --form '2*4^n + 1' --C 3 --n 1..3 --all --y-limit 100000 --format csv", 0, "788473fce339f214", "0f0ad02fc3515af7"),
    ("pell scan --form '2*4^n + 1' --C 3 --n 1..3 --all --y-limit 100000 --format json", 0, "d0f316e5429a3e2f", "0f0ad02fc3515af7"),
    ("pell scan --form '4^n' --C 2 --n 1..3 --all", 0, "afc8276fd682e23a", "3200eabc06dd62b9"),
    ("pell scan --form '4^n' --C 2 --n 1..3 --all --format text", 0, "afc8276fd682e23a", "3200eabc06dd62b9"),
    ("pell scan --form '4^n' --C 2 --n 1..3 --all --format csv", 0, "afc8276fd682e23a", "3200eabc06dd62b9"),
    ("pell scan --form '4^n' --C 2 --n 1..3 --all --format json", 0, "37517e5f3dc66819", "3200eabc06dd62b9"),
    ("growth denom --form '3^n + 1' --b 2 --n 1..6", 0, "f9d19081d11e6489", "e3b0c44298fc1c14"),
    ("growth denom --form '3^n + 1' --b 2 --n 1..6 --format text", 0, "f9d19081d11e6489", "e3b0c44298fc1c14"),
    ("growth denom --form '3^n + 1' --b 2 --n 1..6 --format csv", 0, "f9d19081d11e6489", "e3b0c44298fc1c14"),
    ("growth denom --form '3^n + 1' --b 2 --n 1..6 --format json", 0, "899c4eae35cd8d68", "e3b0c44298fc1c14"),
    ("profile pq --form '2*4^n + 1' --n 1..4 --c 8", 0, "b4a340a8cc9c418e", "0f0ad02fc3515af7"),
    ("profile pq --form '2*4^n + 1' --n 1..4 --c 8 --format text", 0, "b4a340a8cc9c418e", "0f0ad02fc3515af7"),
    ("profile pq --form '2*4^n + 1' --n 1..4 --c 8 --format csv", 0, "b4a340a8cc9c418e", "0f0ad02fc3515af7"),
    ("profile pq --form '2*4^n + 1' --n 1..4 --c 8 --format json", 0, "5e8c4fa9c70c73b5", "0f0ad02fc3515af7"),
    ("profile pq --form '2*4^n + 1' --n 2..3 --c 0.1", 0, "8c1f7c091b856de5", "e3b0c44298fc1c14"),
    ("profile pq --form '2*4^n + 1' --n 2..3 --c 0.1 --format text", 0, "8c1f7c091b856de5", "e3b0c44298fc1c14"),
    ("profile pq --form '2*4^n + 1' --n 2..3 --c 0.1 --format csv", 0, "8c1f7c091b856de5", "e3b0c44298fc1c14"),
    ("profile pq --form '2*4^n + 1' --n 2..3 --c 0.1 --format json", 0, "ff31dda7302466fb", "e3b0c44298fc1c14"),
    ("profile pq --form '4^n' --n 1..3 --c 8", 0, "c52f3f7e84e946bd", "3200eabc06dd62b9"),
    ("profile pq --form '4^n' --n 1..3 --c 8 --format text", 0, "c52f3f7e84e946bd", "3200eabc06dd62b9"),
    ("profile pq --form '4^n' --n 1..3 --c 8 --format csv", 0, "c52f3f7e84e946bd", "3200eabc06dd62b9"),
    ("profile pq --form '4^n' --n 1..3 --c 8 --format json", 0, "37517e5f3dc66819", "3200eabc06dd62b9"),
    ("profile pq --form '(1/2)*4^n + 2^n - 8' --n 0..5 --c 3", 0, "82fbec1ec38b2ff1", "9529248fa6957e2c"),
    ("profile pq --form '(1/2)*4^n + 2^n - 8' --n 0..5 --c 3 --format text", 0, "82fbec1ec38b2ff1", "9529248fa6957e2c"),
    ("profile pq --form '(1/2)*4^n + 2^n - 8' --n 0..5 --c 3 --format csv", 0, "82fbec1ec38b2ff1", "9529248fa6957e2c"),
    ("profile pq --form '(1/2)*4^n + 2^n - 8' --n 0..5 --c 3 --format json", 0, "a29e605ecaacf986", "9529248fa6957e2c"),
    ("hypothesis check --form '4^n + 2^n + 1'", 0, "6a0ec7f28ebb1fd9", "e3b0c44298fc1c14"),
    ("hypothesis check --form '4^n + 2^n + 1' --format text", 0, "6a0ec7f28ebb1fd9", "e3b0c44298fc1c14"),
    ("hypothesis check --form '4^n + 2^n + 1' --format csv", 0, "6a0ec7f28ebb1fd9", "e3b0c44298fc1c14"),
    ("hypothesis check --form '4^n + 2^n + 1' --format json", 0, "0f8f69753770429a", "e3b0c44298fc1c14"),
    ("hypothesis check --form '2*4^n + 1'", 0, "bfd9e4cd257a8b11", "e3b0c44298fc1c14"),
    ("hypothesis check --form '2*4^n + 1' --format text", 0, "bfd9e4cd257a8b11", "e3b0c44298fc1c14"),
    ("hypothesis check --form '2*4^n + 1' --format csv", 0, "bfd9e4cd257a8b11", "e3b0c44298fc1c14"),
    ("hypothesis check --form '2*4^n + 1' --format json", 0, "31c9692e49acfa0f", "e3b0c44298fc1c14"),
    ("expand sqrt --form '2*4^n + 1' --j 0 --n-range 2..5", 0, "10632a9872c756d2", "615a0a9e3f53c79b"),
    ("expand sqrt --form '2*4^n + 1' --j 0 --n-range 2..5 --format text", 0, "10632a9872c756d2", "615a0a9e3f53c79b"),
    ("expand sqrt --form '2*4^n + 1' --j 0 --n-range 2..5 --format csv", 0, "10632a9872c756d2", "615a0a9e3f53c79b"),
    ("expand sqrt --form '2*4^n + 1' --j 0 --n-range 2..5 --format json", 0, "05aaf70451e4b3d8", "615a0a9e3f53c79b"),
    ('family --preset title --n 1..4', 0, "f9419bb7a6a5e779", "e3b0c44298fc1c14"),
    ('family --preset title --n 1..4 --format text', 0, "f9419bb7a6a5e779", "e3b0c44298fc1c14"),
    ('family --preset title --n 1..4 --format csv', 0, "f9419bb7a6a5e779", "e3b0c44298fc1c14"),
    ('family --preset title --n 1..4 --format json', 0, "e01c893aa90677ba", "e3b0c44298fc1c14"),
    ("family --form '2^n - 10' --n 1..5", 0, "dedc77ea7fedb4cc", "e3b0c44298fc1c14"),
    ("family --form '2^n - 10' --n 1..5 --format text", 0, "dedc77ea7fedb4cc", "e3b0c44298fc1c14"),
    ("family --form '2^n - 10' --n 1..5 --format csv", 0, "dedc77ea7fedb4cc", "e3b0c44298fc1c14"),
    ("family --form '2^n - 10' --n 1..5 --format json", 0, "1e8d9e89d5d68a2e", "e3b0c44298fc1c14"),
    ("family --form '(1/2)*4^n + 1' --n 0..2", 0, "5020820a27ec1eef", "e3b0c44298fc1c14"),
    ("family --form '(1/2)*4^n + 1' --n 0..2 --format text", 0, "5020820a27ec1eef", "e3b0c44298fc1c14"),
    ("family --form '(1/2)*4^n + 1' --n 0..2 --format csv", 0, "5020820a27ec1eef", "e3b0c44298fc1c14"),
    ("family --form '(1/2)*4^n + 1' --n 0..2 --format json", 0, "975eed354c7820c7", "e3b0c44298fc1c14"),
    ('identities --n-max 2', 0, "767ce1a2f3540b66", "e3b0c44298fc1c14"),
    ('identities --n-max 2 --format text', 0, "767ce1a2f3540b66", "e3b0c44298fc1c14"),
    ('identities --n-max 2 --format csv', 0, "767ce1a2f3540b66", "e3b0c44298fc1c14"),
    ('identities --n-max 2 --format json', 0, "2a5e602e9833944f", "e3b0c44298fc1c14"),
    ('cf sqrt 129 --word-cap 4 --strict', 3, "ddb1684ebce5ea4f", "e3b0c44298fc1c14"),
    ('cf sqrt 9', 2, "e3b0c44298fc1c14", "601083e14b9c0a3e"),
    ('cf pell 47 --digit-budget 1', 3, "e3b0c44298fc1c14", "4e787eaf5496d59f"),
    ('pell scan --C 2', 2, "e3b0c44298fc1c14", "15d11588835a29bd"),
    ("pell scan --form '2*4^n + 1' --C 2 --n 1..8 --digit-budget 40 --strict", 3, "08cc2e6651bf2c9a", "d9a4e3c292694d4f"),
    ("family --form 'totally^wrong' --n 1..2", 2, "e3b0c44298fc1c14", "54cf005d5d0bc5b3"),
    ("hypothesis check --form '(1/0)^n'", 2, "e3b0c44298fc1c14", "99510ce77e626b33"),
    ("family --form '(2/0)*3^n' --n 1..2", 2, "e3b0c44298fc1c14", "eb93237a66b044c2"),
    ("hypothesis check --form '10000^n + 9900^n'", 3, "e3b0c44298fc1c14", "b5654e01ced94d07"),
    # C = 1 is a cap at once, with the bytes a step-by-step walk to the
    # digit budget prints (~8 s); C < 1 is bad input, as for `pell scan --D`.
    ("pell scan --form '2*4^n + 1' --C 1 --n 3..3", 0, "a35e94d47f2c458e", "0813df1585dcd896"),
    ("pell scan --form '2*4^n + 1' --C 0 --n 3..3", 2, "e3b0c44298fc1c14", "b3ae932c29790d1d"),
    # Refused before any row is walked, so n = 40 (hours of walking) never starts.
    ("family --form '2*4^n + 1' --n=-1..40 --jobs 2", 2, "e3b0c44298fc1c14", "14d0a30a11973e3e"),
    # expand sqrt beyond n = 2..5, taken while the bounds were reduced
    # Fractions: the three benchmark anchor forms to their full ranges,
    # rational and negative coefficients, a single-term form (zero error,
    # empty decay cells) and both exit-2 paths.
    ("expand sqrt --form '3*7^n - 5*5^n + 2*3^n' --j 1 --n-range 2..150", 0, "9e0379242508f6f2", "912d2b8e3b34a228"),
    ("expand sqrt --form '3*7^n - 5*5^n + 2*3^n' --j 1 --n-range 2..150 --format json", 0, "751915b98879d651", "912d2b8e3b34a228"),
    ("expand sqrt --form '9*15^n + 6*7^n - 2^n + 5' --j 1 --n-range 1..140", 0, "2233c201541476ca", "77f0b9c28c508a17"),
    ("expand sqrt --form '9*15^n + 6*7^n - 2^n + 5' --j 1 --n-range 1..140 --format json", 0, "ce101aac11a8d66c", "77f0b9c28c508a17"),
    ("expand sqrt --form '7*16^n + 3*9^n - 4*5^n + 2' --j 1 --n-range 1..140", 0, "c2b992e1c41d8c1d", "b0f4e0e8959b4391"),
    ("expand sqrt --form '7*16^n + 3*9^n - 4*5^n + 2' --j 1 --n-range 1..140 --format json", 0, "1997b0e0e5f91fde", "b0f4e0e8959b4391"),
    ("expand sqrt --form '(7/2)*9^n - (5/3)*4^n + 2' --j 1 --n-range 1..6", 0, "d78a25aa55766b61", "981b48b8b5b01574"),
    ("expand sqrt --form '(7/2)*9^n - (5/3)*4^n + 2' --j 1 --n-range 1..6 --format json", 0, "149781ae63a256e3", "981b48b8b5b01574"),
    ("expand sqrt --form '5^n' --j 0 --n-range 1..3", 0, "8813263e222f4ad5", "3c726ff94138523c"),
    ("expand sqrt --form '5^n' --j 0 --n-range 1..3 --format json", 0, "74a93dc07d1e8a1f", "3c726ff94138523c"),
    ("expand sqrt --form '4^n - 3*3^n' --j 0 --n-range 0..5", 2, "e3b0c44298fc1c14", "c54cce97a4404a25"),
    # A negative row past the first refuses at once over a huge range.
    ("expand sqrt --form '4^n - 3*3^n + 3' --j 0 --n-range 0..10000000000", 2, "e3b0c44298fc1c14", "6d93413780af0146"),
    ("expand sqrt --form '2*4^n + 1' --j 0 --n-range=-1..2", 2, "e3b0c44298fc1c14", "329a6a6093a4ddb1"),
    # Negative n exits 2 under the min-Y scan too, as under every family command.
    ("pell scan --form '2*4^n + 1' --C 2 --n=-2..2", 2, "e3b0c44298fc1c14", "14d0a30a11973e3e"),
    # The skip rule where the rows above do not reach it: non-positive and
    # non-integer f(n) under --all, profile pq and the min-Y scan.
    ("pell scan --form '2^n - 5' --C 3 --n 1..4 --all", 0, "1cc15a93136d8ff0", "48e73927f1256dc5"),
    ("profile pq --form '2^n - 5' --n 1..4 --c 3", 0, "709000e9837a312f", "fad34d63a334dfc4"),
    ("pell scan --form '(1/2)*4^n + 1' --C 3 --n 0..2 --all", 0, "52685cb9363b841b", "8d40a2eb7282ccee"),
    ("pell scan --form '2^n - 5' --C 2 --n 1..4", 0, "80bdcc48f0a3497e", "8b6aedc30dbbee20"),
    ("pell scan --form '(1/2)*4^n + 1' --C 3 --n 0..2", 0, "5f0cfbcdf49315ce", "56179347b908b3fb"),
    # Refused before the first row: profile pq prices exp(c*n) at the last
    # n (no skip line for the square at n = 1, no walk of row 2), and every
    # pell scan mode checks --C before it skips a row.
    ("profile pq --form '2*4^n + 1' --n 1..3 --c 100000", 3, "e3b0c44298fc1c14", "75596369f1cc5c0c"),
    ("profile pq --form 4 --n 1..2 --c 1e308", 3, "e3b0c44298fc1c14", "1e8ff97a129fbe4d"),
    ("pell scan --form '2^n - 9' --C 0 --n 1..3 --all", 2, "e3b0c44298fc1c14", "b3ae932c29790d1d"),
    ("pell scan --form '2^n - 5' --C 0 --n 1..4 --all", 2, "e3b0c44298fc1c14", "b3ae932c29790d1d"),
    # The min-Y scan decides the hypothesis first, so the root series' depth
    # cap exits 3 though each D answers at once; and the product cap.
    ("pell scan --form '100000000^n + 99990000^n' --C 2 --n 1..2", 3, "e3b0c44298fc1c14", "977a13d5949500f6"),
    ("expand sqrt --form '(65/8)*9964^n - (165/4)*9000^n - (3/8)*9373^n' --j 0 --n-range 1..2", 3, "e3b0c44298fc1c14", "42abac141c30a92e"),
]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", GOLDEN_MATRIX,
                         ids=[case[0] for case in GOLDEN_MATRIX])
def test_golden_matrix(capsys, argv, code, out_sha, err_sha):
    got_code, out, err = run(capsys, *shlex.split(argv))
    assert (got_code, _digest(out), _digest(err)) == (code, out_sha, err_sha), (out, err)


# Help, usage and argparse errors, as (argv, exit code, stdout sha, stderr
# sha) under COLUMNS=80: -h and --help at the top, at every command group
# and at every runnable command; no command, unknown commands and
# subcommands; unrecognized arguments after a valid command; a bad type,
# bad choices and a missing required option; "--" placement; an option
# before the command; and an option abbreviation.  Taken from the CLI while
# every call built the whole parser tree.
ARGPARSE_GOLDEN = [
    ('-h', 0, "39e4f77346d99a55", "e3b0c44298fc1c14"),
    ('--help', 0, "39e4f77346d99a55", "e3b0c44298fc1c14"),
    ('cf -h', 0, "df26583f9610352c", "e3b0c44298fc1c14"),
    ('cf --help', 0, "df26583f9610352c", "e3b0c44298fc1c14"),
    ('pell -h', 0, "7c007ccb83489f10", "e3b0c44298fc1c14"),
    ('pell --help', 0, "7c007ccb83489f10", "e3b0c44298fc1c14"),
    ('growth -h', 0, "b76dfb6618e97b82", "e3b0c44298fc1c14"),
    ('growth --help', 0, "b76dfb6618e97b82", "e3b0c44298fc1c14"),
    ('profile -h', 0, "737a7c449485a605", "e3b0c44298fc1c14"),
    ('profile --help', 0, "737a7c449485a605", "e3b0c44298fc1c14"),
    ('hypothesis -h', 0, "35ce07bdd91bc738", "e3b0c44298fc1c14"),
    ('hypothesis --help', 0, "35ce07bdd91bc738", "e3b0c44298fc1c14"),
    ('expand -h', 0, "c9641f907024c86b", "e3b0c44298fc1c14"),
    ('expand --help', 0, "c9641f907024c86b", "e3b0c44298fc1c14"),
    ('cf sqrt -h', 0, "896dbb442bbc7aff", "e3b0c44298fc1c14"),
    ('cf sqrt --help', 0, "896dbb442bbc7aff", "e3b0c44298fc1c14"),
    ('cf period -h', 0, "28aa42acf87fd9b0", "e3b0c44298fc1c14"),
    ('cf period --help', 0, "28aa42acf87fd9b0", "e3b0c44298fc1c14"),
    ('cf pell -h', 0, "e84ef9398d9804b4", "e3b0c44298fc1c14"),
    ('cf pell --help', 0, "e84ef9398d9804b4", "e3b0c44298fc1c14"),
    ('pell scan -h', 0, "654cd876e725998d", "e3b0c44298fc1c14"),
    ('pell scan --help', 0, "654cd876e725998d", "e3b0c44298fc1c14"),
    ('growth denom -h', 0, "99ee7afe33f24c65", "e3b0c44298fc1c14"),
    ('growth denom --help', 0, "99ee7afe33f24c65", "e3b0c44298fc1c14"),
    ('profile pq -h', 0, "cff398a9009fc04e", "e3b0c44298fc1c14"),
    ('profile pq --help', 0, "cff398a9009fc04e", "e3b0c44298fc1c14"),
    ('hypothesis check -h', 0, "0f4282508ab8d35b", "e3b0c44298fc1c14"),
    ('hypothesis check --help', 0, "0f4282508ab8d35b", "e3b0c44298fc1c14"),
    ('expand sqrt -h', 0, "2daf36e4eb037d80", "e3b0c44298fc1c14"),
    ('expand sqrt --help', 0, "2daf36e4eb037d80", "e3b0c44298fc1c14"),
    ('family -h', 0, "25de802a3d6dfbc2", "e3b0c44298fc1c14"),
    ('family --help', 0, "25de802a3d6dfbc2", "e3b0c44298fc1c14"),
    ('identities -h', 0, "c59e561d8bf806f6", "e3b0c44298fc1c14"),
    ('identities --help', 0, "c59e561d8bf806f6", "e3b0c44298fc1c14"),
    ('', 2, "e3b0c44298fc1c14", "bd67faa8c590c03a"),
    ('bogus', 2, "e3b0c44298fc1c14", "3ce853df8af44a13"),
    ('cf', 2, "e3b0c44298fc1c14", "82936bded1a304e3"),
    ('cf bogus', 2, "e3b0c44298fc1c14", "358deaf8c85b3056"),
    ('cf sqrt 5 --bogus', 2, "e3b0c44298fc1c14", "98ac4f4d08f22426"),
    ('identities --n-max 3 --jobs 7', 2, "e3b0c44298fc1c14", "23d7ed95da14b2f4"),
    ('cf sqrt x', 2, "e3b0c44298fc1c14", "51fb479c20de7cad"),
    ("expand sqrt --form '4^n + 1' --j 2 --n-range 1..2", 2, "e3b0c44298fc1c14", "28944ac3e798a303"),
    ('cf sqrt 5 --format xml', 2, "e3b0c44298fc1c14", "b2cd6363b5abec60"),
    ('hypothesis check', 2, "e3b0c44298fc1c14", "eb8a0d06db18a02c"),
    ('cf sqrt -- 5', 0, "5f4149018b1083dd", "e3b0c44298fc1c14"),
    ('cf -- sqrt 5', 2, "e3b0c44298fc1c14", "f7cf50be1e1f05de"),
    ('--format csv cf sqrt 5', 2, "e3b0c44298fc1c14", "b2471ab1b639fa55"),
    ('cf sqrt 129 --word 3', 0, "ddb1684ebce5ea4f", "e3b0c44298fc1c14"),
    # family reads no word cap: its rows keep no word.
    ('family --preset title --n 3..4 --word-cap 4', 2, "e3b0c44298fc1c14", "6a5fbffb865a35c3"),
    ('family --preset title --n 3..4 --word-cap 4 --format text', 2, "e3b0c44298fc1c14", "6a5fbffb865a35c3"),
    ('family --preset title --n 3..4 --word-cap 4 --format csv', 2, "e3b0c44298fc1c14", "6a5fbffb865a35c3"),
    ('family --preset title --n 3..4 --word-cap 4 --format json', 2, "e3b0c44298fc1c14", "6a5fbffb865a35c3"),
    ('family --preset title --n 3..4 --word-cap 4 --strict', 2, "e3b0c44298fc1c14", "4d2c3291324c7278"),
]


def run_exit(capsys, argv):
    """``run`` for argv that may end in argparse's SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, out_sha, err_sha", ARGPARSE_GOLDEN,
                         ids=[case[0] or "(none)" for case in ARGPARSE_GOLDEN])
def test_argparse_golden(capsys, monkeypatch, argv, code, out_sha, err_sha):
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, err = run_exit(capsys, shlex.split(argv))
    assert (got_code, _digest(out), _digest(err)) == (code, out_sha, err_sha), (out, err)


def _parsed(capsys, parse, argv):
    """``vars`` of the namespace, or argparse's exit code, stdout and stderr."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def _without_subparser_dests(reading):
    """A ``vars`` dict less the tree's subparser dests, which name its
    "required" errors; no command reads them, and ``_read_argv`` sets neither."""
    if not isinstance(reading, dict):
        return reading
    return {key: value for key, value in reading.items()
            if key != "command" and not key.endswith("_command")}


@pytest.mark.parametrize("argv", [case[0] for case in GOLDEN_MATRIX + ARGPARSE_GOLDEN])
def test_parse_args_equals_full_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = shlex.split(argv)
    full = _parsed(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    assert (_without_subparser_dests(_parsed(capsys, cli._parse_args, argv))
            == _without_subparser_dests(full))


@pytest.mark.parametrize("declined, spelled", [
    ("cf sqrt 129 --word-cap=3", "cf sqrt 129 --word-cap 3"),
    ("cf sqrt 129 --word 3", "cf sqrt 129 --word-cap 3"),
    ("cf sqrt -- 129", "cf sqrt 129"),
    ("family --pre title --n 1..3", "family --preset title --n 1..3"),
    ("expand sqrt --form=-2^n+9^n --j 0 --n-range 1..3",
     "expand sqrt --form '9^n - 2^n' --j 0 --n-range 1..3"),
])
def test_declined_valid_argv_runs_through_the_tree(capsys, monkeypatch, declined, spelled):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    expected = run_exit(capsys, shlex.split(spelled))
    assert built == []
    assert run_exit(capsys, shlex.split(declined)) == expected
    assert built == [1]
    assert expected[0] == 0


RUNNABLE = ["cf sqrt", "cf period", "cf pell", "pell scan", "growth denom", "profile pq",
            "hypothesis check", "expand sqrt", "family", "identities"]
# ARGPARSE_GOLDEN argv that name a runnable command but that ``_read_argv``
# declines: help, errors and spellings it leaves to the tree.
DECLINED_ARGV = [f"{command} {flag}" for command in RUNNABLE for flag in ("-h", "--help")] + [
    "cf sqrt x",
    "expand sqrt --form '4^n + 1' --j 2 --n-range 1..2",
    "cf sqrt 5 --format xml",
    "hypothesis check",
    "cf sqrt -- 5",
    "cf sqrt 129 --word 3",
]
ARGPARSE_BY_ARGV = {case[0]: case for case in ARGPARSE_GOLDEN}
RUN_CASES = [case for case in GOLDEN_MATRIX if case[1] == 0]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", RUN_CASES,
                         ids=[case[0] for case in RUN_CASES])
def test_runnable_commands_never_build_the_full_tree(capsys, monkeypatch, argv, code,
                                                      out_sha, err_sha):
    def full_tree():
        raise AssertionError("the full parser tree was built")

    monkeypatch.setattr(cli, "build_parser", full_tree)
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, err = run_exit(capsys, shlex.split(argv))
    assert (got_code, _digest(out), _digest(err)) == (code, out_sha, err_sha), (out, err)


@pytest.mark.parametrize("argv, code, out_sha, err_sha",
                         [ARGPARSE_BY_ARGV[argv] for argv in DECLINED_ARGV], ids=DECLINED_ARGV)
def test_declined_argv_build_the_full_tree_once(capsys, monkeypatch, argv, code,
                                                out_sha, err_sha):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, err = run_exit(capsys, shlex.split(argv))
    assert (got_code, _digest(out), _digest(err)) == (code, out_sha, err_sha), (out, err)
    assert built == [1]


def _leaf(command):
    """The ``_COMMANDS`` entry of a runnable command such as "cf sqrt"."""
    first, *rest = command.split()
    entry = cli._COMMANDS[first]
    return entry[1][rest[0]] if rest else entry


@functools.cache
def _tree():
    return cli.build_parser()


def _reprs(namespace):
    """``vars`` with each value's repr, so that two nan read the same."""
    return {key: repr(value) for key, value in vars(namespace).items()}


def _argparse_reading(command, tokens):
    """The tree's namespace for command and tokens, less its subparser dests,
    or None where it exits or leaves extras."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extras = _tree().parse_known_args([*command.split(), *tokens])
        except SystemExit:
            return None
    return None if extras else _without_subparser_dests(_reprs(args))


def _fast_reading(command, tokens):
    args = cli._read_argv(_leaf(command), tokens)
    return None if args is None else _reprs(args)


def _runnable(argv):
    """``(command, tokens after it)``, or None when argv names no runnable command."""
    return next(((command, argv[len(command.split()):]) for command in RUNNABLE
                 if argv[:len(command.split())] == command.split()), None)


GOLDEN_ARGV = [case for case in dict.fromkeys(case[0] for case in GOLDEN_MATRIX + ARGPARSE_GOLDEN)
               if _runnable(shlex.split(case))]
SERVED_ARGV = {case[0] for case in GOLDEN_MATRIX if case[1] == 0}


@pytest.mark.parametrize("argv", GOLDEN_ARGV)
def test_read_argv_declines_or_equals_argparse_on_golden_argv(argv):
    # Every exit-0 argv of the golden matrix, the benchmark's command
    # shapes, is read without argparse.
    command, tokens = _runnable(shlex.split(argv))
    fast = _fast_reading(command, tokens)
    assert fast is None or fast == _argparse_reading(command, tokens)
    if argv in SERVED_ARGV:
        assert fast is not None


@pytest.mark.parametrize("command, tokens", [
    ("cf sqrt", ["129", "-h"]),
    ("cf sqrt", ["--help", "129"]),
    ("cf sqrt", ["129", "--word", "3"]),
    ("cf sqrt", ["129", "--word-cap=3"]),
    ("cf sqrt", ["--", "129"]),
    ("cf sqrt", ["-5"]),
    ("cf sqrt", ["129", "--word-cap", "-3"]),
    ("cf sqrt", ["129", "--strict", "--strict"]),
    ("cf sqrt", ["129", "--format", "csv", "--format", "json"]),
    ("cf sqrt", ["129", "130"]),
    ("cf sqrt", ["129", "--format"]),
    ("cf sqrt", []),
    ("cf sqrt", ["x"]),
    ("cf sqrt", ["129", "--format", "xml"]),
    ("cf sqrt", ["129", "--word-cap", "0"]),
    ("cf sqrt", ["129", "--jobs", "2"]),
    ("expand sqrt", ["--form", "4^n + 1", "--n-range", "1..2"]),
    ("expand sqrt", ["--form", "4^n + 1", "--j", "2", "--n-range", "1..2"]),
    ("expand sqrt", ["--form", "4^n + 1", "--j", "0", "--n-range", "-2..1"]),
    ("pell scan", ["--D", "33", "--C", "-1"]),
    ("identities", ["3"]),
])
def test_read_argv_leaves_everything_else_to_argparse(command, tokens):
    assert cli._read_argv(_leaf(command), tokens) is None


def _mangled(rng, command):
    """A FUZZ draw for command, its items shuffled, some shortened, joined
    with "=", repeated, dropped or given bad, negative, empty or -h values,
    and sometimes an extra token."""
    flags = dict(cli._COMMON + _leaf(command)[2])
    tokens = iter(FUZZ[command](rng) + ["--format", rng.choice(["text", "csv", "json"])])
    items = [[token, next(tokens)] if token.startswith("--") and "action" not in flags[token]
             else [token] for token in tokens]
    for item in list(items):
        edit = rng.randrange(40)
        if edit == 0 and len(item[0]) > 4:
            item[0] = item[0][:rng.randrange(3, len(item[0]))]
        elif edit == 1 and len(item) == 2:
            item[:] = ["=".join(item)]
        elif edit == 2:
            items.append(list(item))
        elif edit == 3:
            item.clear()
        elif edit < 8:
            item[-1] = rng.choice(["", "-5", "-h", "--help", "x", "0", "1.5", " 7", "-1..2"])
    if rng.randrange(8) == 0:
        items.append([rng.choice(["5", "-h", "--", "--bogus", "--jobs", "-1", "--strict"])])
    if rng.randrange(2):
        rng.shuffle(items)
    return [token for item in items for token in item]


def test_read_argv_declines_or_equals_argparse_on_fuzzed_argv():
    rng = random.Random(23)
    read = 0
    for _ in range(600):
        for command in RUNNABLE:
            tokens = _mangled(rng, command)
            fast = _fast_reading(command, tokens)
            assert fast is None or fast == _argparse_reading(command, tokens), (command, tokens)
            read += fast is not None
    # Both outcomes are exercised: about a third of the lists are read.
    assert 1000 < read < 5000


def test_main_reads_sys_argv(capsys):
    code, out, err = run(capsys, "cf", "sqrt", "129")
    proc = _python("-m", "surdlab.cli", "cf", "sqrt", "129")
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)


def test_main_reads_sys_argv_unrecognized_arguments(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["cf", "sqrt", "129", "--bogus"]
    proc = _python("-m", "surdlab.cli", *argv)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout.decode(), err) == run_exit(capsys, argv)
    assert proc.returncode == 2
    assert err.startswith("usage: surdlab [-h]\n")
    assert "{cf,pell,growth,profile,hypothesis,expand,family,identities}" in err
    assert err.endswith("surdlab: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv, code", [
    ("family --form '2^n' --n 1..2 --jobs 0", 2),
    ("cf sqrt -h", 0),
    ("cf sqrt 129 --word-cap=3", 0),
])
def test_argparse_answers_in_a_fresh_interpreter(capsys, monkeypatch, argv, code):
    # argparse is imported only where help, an error or a declined spelling
    # needs it, so these paths must import it themselves; in-process it is
    # loaded already.
    monkeypatch.setenv("COLUMNS", "80")
    argv = shlex.split(argv)
    proc = _python("-S", "-m", "surdlab.cli", *argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == run_exit(capsys, argv)
    assert proc.returncode == code


def test_expand_single_term_form_refuses_negative_n(capsys):
    # As multi-term forms do: the header line, then the error, and no rows.
    assert run(capsys, "expand", "sqrt", "--form", "5^n", "--j", "0", "--n-range=-2..1") == (
        2, "", "# f1 = 0, k = 1, lead = 1, error_base = None\n"
        "error: evaluation at negative n is not defined\n")


def test_output_integers_have_no_str_digit_limit(capsys):
    # D = 4^34000 + 1 has 20,471 digits; its least Y is 1, well inside a
    # 1-digit budget, so the row must print whatever the budget.
    code, out, _ = run(capsys, "pell", "scan", "--form", "4^n + 1", "--C", "2",
                       "--n", "34000..34000", "--digit-budget", "1")
    assert code == 0
    row = out.splitlines()[1]
    assert row.startswith("34000,1") and row.endswith(",1,-1,0.000000")


def _python(*args, **kwargs):
    src = str(Path(surdlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("module", ["multiprocessing", "ctypes", "surdlab.intervals",
                                    "dataclasses", "typing", "inspect", "argparse", "re"])
def test_cli_import_leaves_multiprocessing_out(module):
    # -S: without site, whose .pth files may import typing themselves.
    proc = _python("-S", "-c", f"import sys, surdlab.cli; print({module!r} in sys.modules)")
    assert proc.stdout == b"False\n", proc.stderr


# Runs the CLI on argv, then writes to stderr the surdlab modules and the
# heavier stdlib modules it loaded.
_LOADED_BY = (
    "import sys\n"
    "from surdlab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print((sorted(m for m in sys.modules if m.partition('.')[0] == 'surdlab'),\n"
    "       [m for m in ('fractions', 'decimal', 'json', 'multiprocessing', 'ctypes',\n"
    "                    'argparse', 're') if m in sys.modules]),\n"
    "      file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("argv", ["cf sqrt 129", "cf period 129", "cf pell 129",
                                  "cf sqrt 129 --format json"])
def test_cf_commands_load_only_surd_and_the_emitter(argv):
    _, code, out_sha, _ = next(case for case in GOLDEN_MATRIX if case[0] == argv)
    proc = _python("-S", "-c", _LOADED_BY, *shlex.split(argv))
    assert (proc.returncode, _digest(proc.stdout.decode())) == (code, out_sha), proc.stderr
    modules, stdlib = ast.literal_eval(proc.stderr.decode())
    assert modules == ["surdlab", "surdlab.cli", "surdlab.harness", "surdlab.surd"]
    # json only where json is printed, and re with it (json's decoder
    # imports it); argparse never.
    assert stdlib == (["json", "re"] if "json" in argv else [])


@pytest.mark.parametrize("argv, decimal", [
    ("cf pell 5000000029 --format json", False),
    ("cf pell 5000000029 --format csv", True),
])
def test_cf_pell_loads_decimal_only_to_print_big_cells(argv, decimal):
    # cf pell 129, whose cells are small, loads none either
    # (test_cf_commands_load_only_surd_and_the_emitter).
    proc = _python("-S", "-c", _LOADED_BY, *shlex.split(argv))
    assert proc.returncode == 0, proc.stderr
    _, stdlib = ast.literal_eval(proc.stderr.decode())
    assert ("decimal" in stdlib) == decimal


def test_family_with_children_loads_no_pool_module(capsys):
    argv = ["family", "--preset", "title", "--n", "1..4"]
    code, out, _ = run(capsys, *argv)
    proc = _python("-S", "-c", _LOADED_BY, *argv, "--jobs", "2")
    assert (proc.returncode, proc.stdout.decode()) == (code, out), proc.stderr
    _, stdlib = ast.literal_eval(proc.stderr.decode())
    assert "multiprocessing" not in stdlib and "ctypes" not in stdlib


def test_import_surdlab_loads_no_submodule():
    proc = _python("-S", "-c", "import sys, surdlab; "
                   "print([m for m in sys.modules if m.startswith('surdlab.')])")
    assert proc.stdout == b"[]\n", proc.stderr


README_NAMES = ["cf_sqrt", "cf_stream", "decide_hypothesis", "eval_int", "fundamental_pell",
                "min_solution_growth", "parse_form", "pell_value_stream", "period_length",
                "sqrt_approximation"]


@pytest.mark.parametrize("lookup", ["from surdlab import {0} as value",
                                    "import surdlab; value = surdlab.{0}"])
@pytest.mark.parametrize("name", README_NAMES)
def test_readme_names_resolve_in_a_fresh_interpreter(name, lookup):
    value = getattr(surdlab, name)
    assert value is getattr(sys.modules[value.__module__], name)
    script = lookup.format(name) + "; print(value.__module__, value.__qualname__)"
    proc = _python("-S", "-c", script)
    assert proc.stdout.decode() == f"{value.__module__} {value.__qualname__}\n", proc.stderr


def test_unknown_package_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        surdlab.nope
    proc = _python("-S", "-c", "from surdlab import surd, expansion; "
                   "print(surd.__name__, expansion.__name__)")
    assert proc.stdout == b"surdlab.surd surdlab.expansion\n", proc.stderr


MIXED_FAMILY = ["family", "--form", "(1/2)*4^n + 2^n - 8", "--n", "0..14"]


# Leaves text unflushed in a block-buffered stdout (fd 1, whatever
# PYTHONUNBUFFERED says) while family rows are walked; a child that flushed
# it would print it twice.
_UNFLUSHED = (
    "import sys\n"
    "from surdlab.cli import main\n"
    "sys.stdout = open(1, 'w', closefd=False)\n"
    "sys.stdout.write('# before the rows\\n')\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_family_bytes_in_a_fresh_process_match_one_job(capsys, jobs):
    for fmt in ("csv", "json"):
        argv = MIXED_FAMILY + ["--format", fmt]
        code, out, err = run(capsys, *argv, "--jobs", "1")
        proc = _python("-c", _UNFLUSHED, *argv, "--jobs", jobs)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            code, "# before the rows\n" + out, err)


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="the patched row reaches child processes only by fork")
def test_family_row_failure_is_the_same_for_any_jobs(capsys, monkeypatch):
    real = harness._family_row

    def row(form, n):
        if n == 9:
            raise ValueError("row 9 failed")
        return real(form, n)

    monkeypatch.setattr(harness, "_family_row", row)
    results = {jobs: run(capsys, *MIXED_FAMILY, "--jobs", jobs) for jobs in ("1", "2", "3")}
    assert results["1"] == (2, "", "error: row 9 failed\n")
    assert results["2"] == results["3"] == results["1"]
    with pytest.raises(ChildProcessError):  # every child was waited for
        os.waitpid(-1, os.WNOHANG)


def _fuzz_form(rng, bases):
    """``(text, weight, top)``: one to three ``coef*base^n`` terms, maybe a
    constant and rarely a term with a zero denominator, where
    |f(n)| <= weight * top**n for n >= 0 when the text parses."""
    parts, weight, top = [], 0, 1
    for _ in range(rng.randrange(1, 4)):
        num, den = rng.choice([(1, 1), (2, 1), (3, 1), (1, 2), (3, 4), (5, 2)])
        coef = "" if num == den else f"{num}*" if den == 1 else f"({num}/{den})*"
        base = rng.choice(bases)
        parts.append(f"{rng.choice('+-')} {coef}{base}^n")
        weight, top = weight + num, max(top, base)
    if rng.random() < 0.6:
        parts.append(f"{rng.choice('+-')} {rng.choice(['1', '2', '5', '(1/4)'])}")
        weight += 5
    if rng.random() < 0.1:  # a zero denominator, refused before any value
        parts.append(f"+ {rng.choice(['1/0', '(1/0)^n', '(2/0)*3^n', '(0/0)^n'])}")
    return " ".join(parts).removeprefix("+ "), weight, top


def _fuzz_n(rng, hi):
    lo = rng.randrange(-1, hi + 1)
    return f"{lo}..{rng.randrange(lo, hi + 1)}"


def _fuzz_family(rng):
    """``["--form", f, "--n", range]`` with |f(n)| <= 10**12 over the range."""
    form, weight, top = _fuzz_form(rng, [2, 3, 4, 5, 9, 16, 36, rng.randrange(2, 1000)])
    hi = 0
    while weight * top ** (hi + 1) <= 10**12:
        hi += 1
    return ["--form", form, "--n", _fuzz_n(rng, hi)]


def _fuzz_big_form(rng):
    form, _, _ = _fuzz_form(rng, [2, 4, 10**400, 10 ** rng.randrange(2, 401),
                                  rng.randrange(2, 10**6)])
    return ["--form", form]


def _fuzz_D(rng):
    return str(rng.choice([rng.randrange(-3, 200), rng.randrange(10 ** rng.randrange(1, 13)),
                           rng.randrange(1, 10**6) ** 2]))


def _fuzz_flag(rng, *flag):
    """``flag`` or nothing, at even odds."""
    return list(flag) if rng.randrange(2) else []


def _fuzz_pell_scan(rng):
    if rng.randrange(3):
        argv = _fuzz_family(rng) + _fuzz_flag(rng, "--all")
    else:
        argv = ["--D", _fuzz_D(rng)]
    return argv + ["--C", str(rng.randrange(-1, 20)),
                   "--digit-budget", str(rng.randrange(1, 200)),
                   *_fuzz_flag(rng, "--y-limit", str(rng.randrange(-1, 10**12))),
                   *_fuzz_flag(rng, "--strict")]


def _fuzz_family_argv(rng):
    if rng.randrange(3):
        argv = _fuzz_family(rng)
    else:
        preset, hi = rng.choice([("title", 19), ("even-exponent", 19), ("v2w2", 7)])
        argv = ["--preset", preset, "--n", _fuzz_n(rng, hi)]
    return argv + _fuzz_flag(rng, "--summary")


# Runnable command -> a draw of the argv after it.  expand sqrt, hypothesis
# check and growth denom take bases up to 10^400 with n <= 4; the others
# keep |f(n)| <= 10^12, as nothing bounds their walks in advance yet.
FUZZ = {
    "cf sqrt": lambda rng: [_fuzz_D(rng), "--word-cap", str(rng.randrange(1, 50)),
                            *_fuzz_flag(rng, "--strict")],
    "cf period": lambda rng: [_fuzz_D(rng)],
    "cf pell": lambda rng: [_fuzz_D(rng), "--digit-budget", str(rng.randrange(1, 200))],
    "pell scan": _fuzz_pell_scan,
    "growth denom": lambda rng: _fuzz_big_form(rng) + ["--b", str(rng.randrange(-2, 50)),
                                                        "--n", _fuzz_n(rng, 4)],
    "profile pq": lambda rng: _fuzz_family(rng) + [
        "--c", rng.choice(["-1", "0", "0.5", "3", "inf", "nan"])],
    "hypothesis check": _fuzz_big_form,
    "expand sqrt": lambda rng: _fuzz_big_form(rng) + ["--j", str(rng.randrange(2)),
                                                       "--n-range", _fuzz_n(rng, 4)],
    "family": _fuzz_family_argv,
    "identities": lambda rng: ["--n-max", str(rng.randrange(1, 4))],
}


def test_fuzzed_argv_never_gives_a_traceback(tmp_path, capsys):
    # Seeded draws over every runnable command and every --format, some
    # with an --out that cannot be written: each ends in a documented exit
    # code or in argparse's SystemExit, never in another exception.
    assert sorted(FUZZ) == sorted(RUNNABLE)
    rng = random.Random(20)
    outs = [str(tmp_path / "out.txt"), str(tmp_path / "missing" / "x.txt"), str(tmp_path)]
    codes = set()
    for _ in range(12):
        for command in RUNNABLE:
            for fmt in ("text", "csv", "json"):
                argv = [*command.split(), *FUZZ[command](rng), "--format", fmt,
                        *_fuzz_flag(rng, "--out", rng.choice(outs))]
                code, _, _ = run_exit(capsys, argv)
                assert code in (0, 1, 2, 3), argv
                codes.add(code)
    assert {0, 2, 3} <= codes


def test_fuzzed_family_rows_match_the_oracle_for_any_jobs(capsys):
    # Seeded family draws: every row's r is the period length of the plain
    # recurrence, CSV bytes are the same for --jobs 1, 2 and 3, and each CSV
    # cell is the JSON value under the cell rule (CSV quotes a note).
    rng = random.Random(31)
    periods = 0
    for _ in range(40):
        argv = ["family", *_fuzz_family(rng), "--format"]
        code, out, err = run_exit(capsys, argv + ["csv"])
        for jobs in ("2", "3"):
            assert run_exit(capsys, argv + ["csv", "--jobs", jobs]) == (code, out, err), argv
        json_code, json_out, json_err = run_exit(capsys, argv + ["json"])
        assert (json_code, json_err) == (code, err), argv
        if code:
            continue
        header, *lines = out.splitlines()
        assert header == ",".join(harness.FAMILY_COLUMNS)
        for line, row in zip(lines, json.loads(json_out), strict=True):
            assert tuple(row) == harness.FAMILY_COLUMNS
            cells = [harness._cell(value) for value in row.values()]
            if row["notes"]:
                cells[-1] = f'"{row["notes"]}"'
            assert line == ",".join(cells), argv
            if row["r"] is not None:
                assert row["r"] == len(plain_period_word(row["D"])), argv
                periods += 1
    assert periods >= 30


# Table commands print CSV for --format text; report commands print text
# for --format csv.
TEXT_IS_CSV = {"pell scan", "growth denom", "profile pq", "expand sqrt", "family"}
CSV_IS_TEXT = {"hypothesis check", "identities"}


def _csv_line(command, columns, row):
    """The CSV line of one JSON row: the ``_cell`` rule, or the command's own."""
    cells = []
    for column in columns:
        value = row.get(column)
        if command == "expand sqrt" and column != "n":
            value = None if value is None else format(
                value, ".6e" if column.startswith("error") else ".4f")
        elif command == "cf sqrt" and column == "period":
            value = f'"{" ".join(map(str, value or ()))}"'
        elif command == "family" and column == "notes" and value:
            value = f'"{value}"'
        elif command == "profile pq" and column.endswith("_eff_exponent"):
            pick = min if column.startswith("min") else max
            value = pick(row["effective_exponents"], default=None)
        cells.append(harness._cell(value))
    return ",".join(cells)


def _nearest(x):
    """The float nearest the Fraction ``x``, inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _assert_expand_rows_match_the_oracle(argv, rows):
    """Each JSON row is the Fraction-interval oracle's row, rounded to floats."""
    args = cli._parse_args(argv)
    approx = sqrt_approximation(parse_form(args.form), args.j)
    want = interval_error_table(approx, cli._parse_n_range(args.n_range))
    for row, (n, err, decay) in zip(rows, want, strict=True):
        ends = [err.lo, err.hi] + ([None, None] if decay is None else [decay.lo, decay.hi])
        assert list(row.values()) == [n, *(x if x is None else _nearest(x) for x in ends)], (
            argv, n)


def _assert_answers_match_the_oracles(command, argv, rows):
    """The JSON rows of a command that has a plain oracle are the oracle's.

    Returns the number of rows checked: 0 for a command or mode with none.
    """
    args = cli._parse_args(argv)
    if command in ("cf sqrt", "cf period", "cf pell"):
        (row,) = rows
        word = plain_period_word(row["D"])
        if command == "cf sqrt":
            assert row["a0"] == math.isqrt(row["D"]), argv
            assert row["period"] == (None if len(word) > args.word_cap else word), argv
        if command != "cf pell":
            assert row["r"] == len(word), argv
            return 1
        # The least Y of X^2 - D*Y^2 = +-1 is the first convergent that hits it.
        D, (p, q), (p0, q0) = row["D"], (1, 0), (0, 1)
        for a, _, _ in plain_states(D):
            (p, q), (p0, q0) = (a * p + p0, a * q + q0), (p, q)
            if abs(p * p - D * q * q) == 1:
                break
        assert (row["X"], row["Y"]) == (p, q), argv
        assert row["value"] == p * p - D * q * q == (-1) ** len(word), argv
        return 1
    if command == "pell scan" and args.D is not None and args.C ** 2 <= args.D:
        # Complete: every solution with Y up to a small bound inside the box.
        y_top = min(args.y_limit or 10**12, 10**args.digit_budget, 2000)
        got = sorted((s["X"], s["Y"], s["value"]) for s in rows if s["Y"] <= y_top)
        assert got == sorted(map(tuple, brute_force_pell(args.D, args.C, y_top))), argv
        return len(got)
    if command == "growth denom":
        f = parse_form(args.form)
        for row, n in zip(rows, cli._parse_n_range(args.n), strict=True):
            den = (per_term_eval(f, n) / Fraction(args.b) ** n).denominator
            assert row == {"n": n, "denominator": den, "log_denominator": math.log(den),
                           "flagged": den * den < 2**n}, argv
        return len(rows)
    if command == "family":
        f = parse_form(args.form or harness.PRESETS[args.preset][0])
        for row in rows:
            value = per_term_eval(f, row["n"])
            D = value.numerator if value.denominator == 1 else None
            assert row["D"] == D, argv
            if row["r"] is None:
                assert row["is_square"] == (D is not None and is_perfect_square(D)), argv
                continue
            word = plain_period_word(D)
            assert (row["r"], row["palindrome_ok"], row["pell_sign"], row["max_pq_prefix"]) == (
                len(word), word[:-1] == word[-2::-1], (-1) ** len(word), max(word)), argv
        return len(rows)
    return 0


def test_text_csv_and_json_agree_on_golden_and_fuzzed_argv(capsys):
    # The golden argv without --format and seeded FUZZ draws, each run in
    # all three formats: one exit code and one stderr; each CSV line is its
    # JSON row under the cell rule; every expand sqrt row is the oracle's,
    # and so is every answer of cf, pell scan --D (C^2 <= D), growth denom
    # and family.
    rng = random.Random(34)
    argvs = [shlex.split(case[0]) for case in GOLDEN_MATRIX if "--format" not in case[0]]
    argvs += [[*command.split(), *FUZZ[command](rng)] for _ in range(30) for command in RUNNABLE]
    tables, expand_rows, checked = [], 0, dict.fromkeys(RUNNABLE, 0)
    for argv in argvs:
        command, _ = _runnable(argv)
        code, text, err = run_exit(capsys, argv + ["--format", "text"])
        csv_code, csv, csv_err = run_exit(capsys, argv + ["--format", "csv"])
        json_code, out, json_err = run_exit(capsys, argv + ["--format", "json"])
        assert (csv_code, csv_err) == (json_code, json_err) == (code, err), argv
        if command in TEXT_IS_CSV | CSV_IS_TEXT:
            assert csv == text, argv
        if code != 0 or command in CSV_IS_TEXT:
            continue
        payload = json.loads(out)
        if isinstance(payload, dict):
            payload = next((payload[key] for key in ("rows", "records", "solutions")
                            if key in payload), [payload])
        header, *lines = csv.splitlines()
        columns = header.split(",")
        for line, row in zip(lines, payload, strict=True):
            assert line == _csv_line(command, columns, row), argv
        tables.append(command)
        if command == "expand sqrt":
            _assert_expand_rows_match_the_oracle(argv, payload)
            expand_rows += len(payload)
        else:
            checked[command] += _assert_answers_match_the_oracles(command, argv, payload)
    assert len(tables) > 100 and set(tables) == set(RUNNABLE) - CSV_IS_TEXT
    assert expand_rows > 400
    assert all(checked[command] for command in (
        "cf sqrt", "cf period", "cf pell", "pell scan", "growth denom", "family")), checked
