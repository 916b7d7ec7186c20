"""Family experiments, identity checks, and byte-stable emission."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import time

import pytest

import surdlab.harness as harness
from surdlab.forms import parse_form
from surdlab.harness import (
    ExperimentConfig,
    FamilyRecord,
    emit,
    emit_table,
    preset_config,
    run_family,
    run_identity_checks,
    suffix_min_periods,
)
from surdlab.surd import cf_sqrt

from oracles import plain_period_word

TITLE = parse_form("2*4^n + 1")


def _config(form, lo, hi, **kw):
    return ExperimentConfig(form, lo, hi, **kw)


def test_title_family_first_rows():
    records = run_family(_config(TITLE, 1, 3))
    assert records[0] == FamilyRecord(1, 9, True, None, None, None, None, "square")
    assert records[1] == FamilyRecord(2, 33, False, 4, True, 1, 10, "")
    assert records[2] == FamilyRecord(3, 129, False, 10, True, 1, 22, "")


def test_even_exponent_family_constant_period():
    records = run_family(_config(parse_form("4^n + 1"), 1, 10))
    assert all(rec.r == 1 for rec in records)
    assert all(rec.pell_sign == -1 for rec in records)
    assert all(rec.max_pq_prefix == 2 * 2**rec.n for rec in records)


def test_v2w2_family_period_two():
    records = run_family(_config(parse_form("36^n + 2*3^n"), 1, 8))
    for rec in records:
        assert rec.r == 2
        assert rec.pell_sign == 1
        assert rec.palindrome_ok
        # Word is {v(n), 2 v(n) w(n)} with v = 2^n, w = 3^n.
        word = cf_sqrt(rec.D).period
        assert word == (2**rec.n, 2 * 6**rec.n)
        assert rec.max_pq_prefix == 2 * 6**rec.n


def test_family_flags_word_cap():
    records = run_family(_config(TITLE, 3, 3, word_cap=4))
    rec = records[0]
    assert rec.notes == "word-cap"
    assert rec.r == 10  # still exact
    assert rec.palindrome_ok is None
    assert rec.pell_sign == 1
    assert rec.max_pq_prefix == 22
    assert rec == FamilyRecord(3, 129, False, 10, None, 1, 22, "word-cap")


def test_family_rows_match_full_walk_at_word_cap_boundary():
    # Rows keep no word: r, the sign and 2*a0 come from the midpoint walk,
    # and palindrome_ok is true exactly up to the word cap.
    for n in range(2, 13):
        word = plain_period_word(2 * 4**n + 1)
        r = len(word)
        for cap in (r - 1, r):
            (rec,) = run_family(_config(TITLE, n, n, word_cap=cap))
            kept = cap >= r
            assert rec == FamilyRecord(n, 2 * 4**n + 1, False, r, True if kept else None,
                                       (-1) ** r, word[-1], "" if kept else "word-cap")


def test_family_non_integer_values():
    from fractions import Fraction

    from surdlab.forms import normalize

    records = run_family(_config(normalize([(Fraction(1, 2), 3)]), 1, 2))
    assert all(rec.notes == "non-integer" for rec in records)
    assert all(rec.D is None and rec.r is None for rec in records)


def test_family_negative_value():
    records = run_family(_config(parse_form("2^n - 100"), 1, 2))
    assert all(rec.notes == "non-positive" for rec in records)


def test_run_family_parallel_is_deterministic():
    seq = run_family(_config(TITLE, 1, 8, jobs=1))
    par = run_family(_config(TITLE, 1, 8, jobs=2))
    assert seq == par
    assert emit(seq, "csv") == emit(par, "csv")


def test_suffix_min_periods_nondecreasing():
    records = run_family(_config(TITLE, 1, 9))
    pairs = suffix_min_periods(records)
    values = [v for _, v in pairs]
    assert values == sorted(values)
    assert pairs[0][1] == min(rec.r for rec in records if rec.r is not None)


CSV_HEADER = "n,D,is_square,r,palindrome_ok,pell_sign,max_pq_prefix,notes"


def test_emit_csv_exact_bytes():
    records = run_family(_config(TITLE, 1, 3))
    expected = (
        f"{CSV_HEADER}\n"
        '1,9,true,,,,,"square"\n'
        "2,33,false,4,true,1,10,\n"
        "3,129,false,10,true,1,22,\n"
    )
    assert emit(records, "csv") == expected.encode("utf-8")


def test_emit_csv_empty_is_header_only():
    assert emit([], "csv") == (CSV_HEADER + "\n").encode("utf-8")


def test_emit_json_mirrors_fields():
    records = run_family(_config(TITLE, 1, 2))
    payload = json.loads(emit(records, "json"))
    assert payload[0] == {
        "n": 1, "D": 9, "is_square": True, "r": None, "palindrome_ok": None,
        "pell_sign": None, "max_pq_prefix": None, "notes": "square",
    }
    assert payload[1]["r"] == 4 and payload[1]["pell_sign"] == 1


def test_emit_table_cell_rule_and_json_shapes():
    columns, rows = ("a", "b", "c", "d", "e"), [(None, True, 0.5, "x", 7)]
    assert emit_table(columns, rows, "csv") == "a,b,c,d,e\n,true,0.500000,x,7\n"
    assert emit_table(columns, rows, "text") == (
        "a: \nb: true\nc: 0.500000\nd: x\ne: 7\n"
    )
    objects = [{"a": None, "b": True, "c": 0.5, "d": "x", "e": 7}]
    assert json.loads(emit_table(columns, rows, "json")) == objects
    wrapped = emit_table(columns, rows, "json", wrap=lambda rows: {"rows": rows}, indent=2)
    assert wrapped.startswith('{\n  "rows": [')
    assert json.loads(wrapped) == {"rows": objects}


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([], "xml")


def test_config_validation():
    with pytest.raises(ValueError, match="empty n range"):
        ExperimentConfig(TITLE, 5, 4)
    with pytest.raises(ValueError):
        ExperimentConfig(TITLE, 1, 2, jobs=0)


def test_preset_config():
    config = preset_config("title")
    assert config.form == TITLE
    assert (config.n_start, config.n_end) == (1, 20)
    config = preset_config("v2w2", n_start=2, n_end=5)
    assert (config.n_start, config.n_end) == (2, 5)
    with pytest.raises(ValueError, match="unknown preset"):
        preset_config("nope")


def test_identity_checks_pass_on_default_grids():
    report = run_identity_checks(n_max=10)
    assert report.ok
    assert report.checks == 100  # 5 h-forms + 5 (v, w) pairs, 10 n each


def test_identity_checks_report_counterexamples():
    # A deliberately wrong family member: w = -1 breaks the identity.
    report = run_identity_checks(
        n_max=2,
        h_grid=[],
        vw_grid=[(parse_form("2^n"), parse_form("-1"))],
    )
    assert not report.ok
    assert len(report.failures) == 2
    assert "expected" in report.failures[0]


def test_run_family_clamps_pool_to_task_count(monkeypatch):
    started = []

    class CountingProcess(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    expected = emit(run_family(_config(TITLE, 5, 6)), "csv")
    monkeypatch.setattr(multiprocessing, "Process", CountingProcess)
    # One row: no process at all, however many jobs are asked for.
    assert run_family(_config(TITLE, 5, 5, jobs=64)) == run_family(_config(TITLE, 5, 5))
    assert started == []
    # Two rows: this process walks one share, exactly one child the other.
    assert emit(run_family(_config(TITLE, 5, 6, jobs=64)), "csv") == expected
    assert len(started) == 1


# Square, non-integer, non-positive, plain and word-cap rows over n = 0..14.
MIXED = parse_form("(1/2)*4^n + 2^n - 8")


def test_run_family_is_identical_for_one_two_and_three_jobs():
    records = run_family(_config(MIXED, 0, 14, word_cap=20))
    assert {rec.notes for rec in records} == {"non-integer", "non-positive", "square",
                                               "", "word-cap"}
    assert [rec.n for rec in records] == list(range(15))
    for jobs in (2, 3):
        assert run_family(_config(MIXED, 0, 14, word_cap=20, jobs=jobs)) == records


def test_config_rejects_negative_n_before_any_row():
    with pytest.raises(ValueError, match="evaluation at negative n is not defined"):
        ExperimentConfig(TITLE, -1, 40, jobs=2)
    assert ExperimentConfig(TITLE, 0, 0).n_range == range(0, 1)


# A failing row reaches a child only through fork, which inherits the patch.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched rows reach child processes only under fork",
)


def _in_child() -> bool:
    return multiprocessing.parent_process() is not None


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body outlives ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
def test_failing_row_here_terminates_a_child_mid_row(monkeypatch):
    def row(form, n, word_cap):
        # The child claims the other row while this one waits, then sleeps.
        time.sleep(2 if _in_child() else 0.2)
        raise ValueError(f"row {n} failed")

    monkeypatch.setattr(harness, "_family_row", row)
    start = time.perf_counter()
    with _deadline(10), pytest.raises(ValueError, match=r"row \d failed"):
        run_family(_config(TITLE, 1, 2, jobs=2))
    assert time.perf_counter() - start < 1
    assert multiprocessing.active_children() == []


@needs_fork
def test_failing_row_in_a_child_reaches_the_caller(monkeypatch):
    real = harness._family_row

    def row(form, n, word_cap):
        if _in_child():
            raise ArithmeticError(f"row {n} failed in a child")
        time.sleep(0.2)
        return real(form, n, word_cap)

    monkeypatch.setattr(harness, "_family_row", row)
    start = time.perf_counter()
    with _deadline(10), pytest.raises(ArithmeticError, match=r"row \d+ failed in a child"):
        run_family(_config(TITLE, 1, 12, jobs=3))
    # The failing child stops every process from claiming another row.
    assert time.perf_counter() - start < 1
    assert multiprocessing.active_children() == []


@needs_fork
def test_child_dying_without_rows_is_an_error(monkeypatch):
    real = harness._family_row

    def row(form, n, word_cap):
        if _in_child():
            os._exit(7)
        time.sleep(0.1)
        return real(form, n, word_cap)

    monkeypatch.setattr(harness, "_family_row", row)
    with _deadline(10), pytest.raises(RuntimeError,
                                      match="exited with code 7 before sending its rows"):
        run_family(_config(TITLE, 1, 12, jobs=2))
    assert multiprocessing.active_children() == []
