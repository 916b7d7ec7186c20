"""Family experiments, identity checks, and byte-stable emission."""

from __future__ import annotations

import contextlib
import decimal
import json
import os
import random
import signal
import sys
import time

import pytest

import surdlab.harness as harness
from surdlab.forms import add, constant, mul, parse_form, scale
from surdlab.harness import (
    ExperimentConfig,
    FamilyRecord,
    emit,
    emit_table,
    int_str,
    run_family,
    run_identity_checks,
    suffix_min_periods,
)
from surdlab.surd import PellSolution, cf_sqrt, fundamental_pell

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


def test_family_rows_match_full_walk():
    # Rows keep no word: r, the sign and 2*a0 come from the midpoint walk,
    # and palindrome_ok is true by the walk's stop rule.
    records = run_family(_config(TITLE, 2, 12))
    for n, rec in zip(range(2, 13), records, strict=True):
        D = 2 * 4**n + 1
        word = plain_period_word(D)
        assert rec == FamilyRecord(n, D, False, len(word), True, (-1) ** len(word), word[-1])


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


@contextlib.contextmanager
def digit_limit(limit):
    """Set the interpreter's int str() digit limit; 0 lifts it, as ``cli.main`` does."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _int_str_cases():
    """Seeded ints around ``_STR_BITS`` and past it, both signs."""
    rng = random.Random(24)
    bits = harness._STR_BITS
    sizes = [rng.randrange(1, 2 * bits) for _ in range(40)]
    sizes += [rng.randrange(bits - 40, bits + 40) for _ in range(30)]
    sizes += [rng.randrange(2 * bits, 250_000) for _ in range(6)]
    values = [rng.getrandbits(b) | 1 << (b - 1) for b in sizes]
    values += [2**k for k in (bits - 1, bits, bits + 1, 65_536, 250_001)]
    values += [10**k + e for k in (9_632, 9_633, 20_000, 60_000) for e in (-1, 0, 1)]
    # Long runs of zeros, binary and decimal, in the lower half.
    for b in (bits + 1, 2 * bits + 7, 5 * bits):
        values += [(1 << b) + 1, (rng.getrandbits(b // 2) << b) + rng.getrandbits(40)]
        values += [rng.getrandbits(b) * 10**(b // 5) + rng.randrange(10**6)]
    return values + [-v for v in values] + [rng.getrandbits(1_000_000)]


def test_int_str_equals_str():
    values = _int_str_cases()
    assert sum(abs(v).bit_length() > harness._STR_BITS for v in values) > 100
    with digit_limit(0):
        for v in values:
            assert int_str(v) == str(v), v.bit_length()
        for v in (0, 1, -1, 10**100):
            assert int_str(v) == str(v)
    # Its exact context was a local one.
    assert decimal.getcontext().prec == decimal.Context().prec


@pytest.mark.parametrize("D", [5_000_000_009, 5_000_000_029])
def test_pell_cells_refuse_a_corrupted_factor(D):
    sol = fundamental_pell(D)
    assert sol.X.bit_length() > harness._STR_BITS
    with digit_limit(0):
        assert harness.pell_cells(D, sol) == (str(sol.X), str(sol.Y))
        # (r, d, m, x, y): each half-size factor and the midpoint state, off by one.
        for i in range(1, 5):
            for delta in (-1, 1):
                bad = PellSolution(*sol)
                bad._factors = (*sol._factors[:i], sol._factors[i] + delta,
                                *sol._factors[i + 1:])
                with pytest.raises(AssertionError, match="pell value identity violated"):
                    harness.pell_cells(D, bad)
    # Under a digit limit the cells stay ints, which ``str`` refuses to print.
    with digit_limit(4300):
        assert harness.pell_cells(D, sol) == (sol.X, sol.Y)


def test_int_str_keeps_the_digit_limit_of_str():
    big = 3**40_000
    assert big.bit_length() > harness._STR_BITS
    with digit_limit(4300), pytest.raises(ValueError, match="limit"):
        int_str(big)


def test_emit_table_cells_render_big_ints_exactly():
    big = 3**40_000
    rows = [(big, -big, True)]
    with digit_limit(0):
        assert emit_table(("a", "b", "c"), rows, "csv") == f"a,b,c\n{big},{-big},true\n"
        assert emit_table(("a", "b", "c"), rows, "text") == f"a: {big}\nb: {-big}\nc: true\n"


def test_config_validation():
    with pytest.raises(ValueError, match="empty n range"):
        ExperimentConfig(TITLE, 5, 4)
    with pytest.raises(ValueError):
        ExperimentConfig(TITLE, 1, 2, jobs=0)


def test_identity_checks_pass_on_default_grids():
    report = run_identity_checks(n_max=10)
    assert report.ok
    assert report.checks == 100  # 5 h-forms + 5 (v, w) pairs, 10 n each


def test_identity_checks_report_counterexamples(monkeypatch):
    # Deliberately wrong family members: h and w negative break the
    # identities, and h = 0 or v = w = 0 give a D with no period.
    def families():
        for text in ("-2^n + 1", "0"):
            h = parse_form(text)
            yield f"h={h}", add(mul(h, h), constant(1)), h, ()
        for v_text, w_text in (("2^n", "-1"), ("0", "0")):
            v, w = parse_form(v_text), parse_form(w_text)
            vw = mul(v, w)
            yield f"v={v}, w={w}", add(mul(vw, vw), scale(w, 2)), vw, (v,)

    monkeypatch.setattr(harness, "_identity_families", families)
    report = run_identity_checks(n_max=4)
    assert report.checks == 16
    # Taken from the two loops the table replaced.
    assert report.failures == (
        "h=-2^n + 1, n=1: expected [-1; {-2}], got [1; (2,)]",
        "h=-2^n + 1, n=2: expected [-3; {-6}], got [3; (6,)]",
        "h=-2^n + 1, n=3: expected [-7; {-14}], got [7; (14,)]",
        "h=-2^n + 1, n=4: expected [-15; {-30}], got [15; (30,)]",
        *(f"h=0, n={n}: expansion failed (D=1 is a perfect square)" for n in range(1, 5)),
        "v=2^n, w=-1, n=1: expected [-2; {2, -4}], got [1; (2,)]",
        "v=2^n, w=-1, n=2: expected [-4; {4, -8}], got [3; (1, 2, 1, 6)]",
        "v=2^n, w=-1, n=3: expected [-8; {8, -16}], got [7; (1, 6, 1, 14)]",
        "v=2^n, w=-1, n=4: expected [-16; {16, -32}], got [15; (1, 14, 1, 30)]",
        *(f"v=0, w=0, n={n}: expansion failed (invalid D=0: must be positive)"
          for n in range(1, 5)),
    )


# Rows walk in children only where os.fork exists; a patched row reaches
# them because a forked child inherits the patch.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="family rows walk in children only where os.fork exists")

_PARENT = os.getpid()


def _in_child() -> bool:
    return os.getpid() != _PARENT


def _no_child_left():
    """Every child of this process has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_run_family_clamps_pool_to_task_count(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    expected = emit(run_family(_config(TITLE, 5, 6)), "csv")
    monkeypatch.setattr(os, "fork", counting_fork)
    # One row: no process at all, however many jobs are asked for.
    assert run_family(_config(TITLE, 5, 5, jobs=64)) == run_family(_config(TITLE, 5, 5))
    assert forks == []
    # Two rows: this process walks one share, exactly one child the other.
    assert emit(run_family(_config(TITLE, 5, 6, jobs=64)), "csv") == expected
    assert len(forks) == 1
    _no_child_left()


# Square, non-integer, non-positive and plain rows over n = 0..14.
MIXED = parse_form("(1/2)*4^n + 2^n - 8")


def test_run_family_is_identical_for_one_two_and_three_jobs():
    records = run_family(_config(MIXED, 0, 14))
    assert {rec.notes for rec in records} == {"non-integer", "non-positive", "square", ""}
    assert [rec.n for rec in records] == list(range(15))
    for jobs in (2, 3):
        assert run_family(_config(MIXED, 0, 14, jobs=jobs)) == records


def test_run_family_without_fork_walks_every_row_here(monkeypatch):
    expected = run_family(_config(MIXED, 0, 14))
    real = harness._family_row
    pids = set()

    def row(form, n):
        pids.add(os.getpid())
        return real(form, n)

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(harness, "_family_row", row)
    assert run_family(_config(MIXED, 0, 14, jobs=3)) == expected
    assert pids == {os.getpid()}
    _no_child_left()


def test_config_rejects_negative_n_before_any_row():
    with pytest.raises(ValueError, match="evaluation at negative n is not defined"):
        ExperimentConfig(TITLE, -1, 40, jobs=2)
    assert ExperimentConfig(TITLE, 0, 0).n_range == range(0, 1)


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
    def row(form, n):
        # The child claims the other row while this one waits, then sleeps.
        time.sleep(2 if _in_child() else 0.2)
        raise ValueError(f"row {n} failed")

    monkeypatch.setattr(harness, "_family_row", row)
    start = time.perf_counter()
    with _deadline(10), pytest.raises(ValueError, match=r"row \d failed"):
        run_family(_config(TITLE, 1, 2, jobs=2))
    assert time.perf_counter() - start < 1
    _no_child_left()


@needs_fork
def test_failing_row_in_a_child_reaches_the_caller(monkeypatch):
    real = harness._family_row

    def row(form, n):
        if _in_child():
            raise ArithmeticError(f"row {n} failed in a child")
        time.sleep(0.2)
        return real(form, n)

    monkeypatch.setattr(harness, "_family_row", row)
    start = time.perf_counter()
    with _deadline(10), pytest.raises(ArithmeticError, match=r"row \d+ failed in a child"):
        run_family(_config(TITLE, 1, 12, jobs=3))
    # The failing child stops every process from claiming another row.
    assert time.perf_counter() - start < 1
    _no_child_left()


@needs_fork
def test_child_dying_without_rows_is_an_error(monkeypatch):
    real = harness._family_row

    def row(form, n):
        if _in_child():
            os._exit(7)
        time.sleep(0.1)
        return real(form, n)

    monkeypatch.setattr(harness, "_family_row", row)
    with _deadline(10), pytest.raises(RuntimeError,
                                      match="exited with code 7 before sending its rows"):
        run_family(_config(TITLE, 1, 12, jobs=2))
    _no_child_left()


@needs_fork
def test_interrupt_here_kills_and_reaps_a_child_mid_row(monkeypatch):
    def row(form, n):
        time.sleep(2 if _in_child() else 0.2)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_family_row", row)
    start = time.perf_counter()
    with _deadline(10), pytest.raises(KeyboardInterrupt):
        run_family(_config(TITLE, 1, 2, jobs=2))
    assert time.perf_counter() - start < 1
    _no_child_left()


_ROW = harness._family_row


# Each failing row is slow where it does not fail, so that the failing side
# claims a row before the other takes them all.
def _fail_here(form, n):
    if not _in_child():
        raise ValueError("row failed here")
    time.sleep(0.2)
    return _ROW(form, n)


def _fail_in_child(form, n):
    if _in_child():
        raise ValueError("row failed in a child")
    time.sleep(0.1)
    return _ROW(form, n)


def _die_in_child(form, n):
    if _in_child():
        os._exit(7)
    time.sleep(0.1)
    return _ROW(form, n)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@needs_fork
@pytest.mark.parametrize("row, error", [(None, None), (_fail_here, ValueError),
                                        (_fail_in_child, ValueError),
                                        (_die_in_child, RuntimeError)])
def test_run_family_leaves_no_fd_open(monkeypatch, row, error):
    if row is not None:
        monkeypatch.setattr(harness, "_family_row", row)
    before = len(os.listdir("/proc/self/fd"))
    with _deadline(10), contextlib.ExitStack() as stack:
        if error is not None:
            stack.enter_context(pytest.raises(error))
        run_family(_config(TITLE, 1, 6, jobs=3))
    assert len(os.listdir("/proc/self/fd")) == before
    _no_child_left()
