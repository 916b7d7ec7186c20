"""Family experiments, identity checks, and byte-stable emission."""

from __future__ import annotations

import json

import pytest

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
    import surdlab.harness as harness

    def no_pool(*args, **kwargs):
        raise AssertionError("pool started")

    expected = emit(run_family(_config(TITLE, 5, 5)), "csv")
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    assert emit(run_family(_config(TITLE, 5, 5, jobs=64)), "csv") == expected
    with pytest.raises(AssertionError, match="pool started"):
        run_family(_config(TITLE, 5, 6, jobs=64))
