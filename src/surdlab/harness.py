"""Family experiments and the one byte-stable emission layer.

``run_family`` expands sqrt(f(n)) over a range of n and collects one
record per n: the integer f(n), squareness, the period length r, the
palindrome flag (true up to the word cap, null past it), the sign of
the fundamental Pell value, and the largest partial quotient of the
period, which is the closing quotient 2*a0.  A row walks only to the
palindrome midpoint and keeps no word.

With ``jobs`` > 1 the calling process walks rows itself beside
``jobs - 1`` child processes (self-scheduling): every process claims the
next unclaimed row from one shared counter, largest n first, since a
family's last rows are its longest walks, and each child sends its rows
once, when the rows run out.  No thread and no executor is started, and
``multiprocessing`` is imported only when a child will run.  Every value
is exact, so the records are byte-identical across runs, worker counts
and start methods.

``emit_table`` turns columns and rows of raw values into CSV, JSON or
``label: value`` text; every CLI subcommand prints through it, and
``emit`` is its entry point for family records.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import partial

from .forms import (
    PowerSumForm,
    add,
    constant,
    eval_exact,
    eval_int,
    mul,
    parse_form,
    scale,
)
from .surd import (
    DEFAULT_WORD_CAP,
    cf_sqrt,
    is_perfect_square,
    period_length,
)

PRESETS: dict[str, tuple[str, int, int]] = {
    # Families with known period behaviour, ready to run by name:
    # name -> (form, n_start, n_end).
    "title": ("2*4^n + 1", 1, 20),
    "even-exponent": ("4^n + 1", 1, 12),
    "v2w2": ("36^n + 2*3^n", 1, 8),
}

FAMILY_COLUMNS = ("n", "D", "is_square", "r", "palindrome_ok", "pell_sign",
                  "max_pq_prefix", "notes")


class ExperimentConfig(namedtuple("ExperimentConfig", "form n_start n_end word_cap jobs",
                                  defaults=(DEFAULT_WORD_CAP, 1))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.n_end < self.n_start:
            raise ValueError("empty n range")
        if self.n_start < 0:
            # Checked before any row runs: rows are walked largest n first.
            raise ValueError("evaluation at negative n is not defined")
        if self.word_cap < 1 or self.jobs < 1:
            raise ValueError("caps and worker counts must be positive")
        return self

    @property
    def n_range(self) -> range:
        return range(self.n_start, self.n_end + 1)


# One family row, its fields in the order of the emitted columns.
FamilyRecord = namedtuple("FamilyRecord", FAMILY_COLUMNS, defaults=("",))


def _family_row(form: PowerSumForm, n: int, word_cap: int) -> FamilyRecord:
    value = eval_exact(form, n)
    if value.denominator != 1:
        return FamilyRecord(n, None, False, None, None, None, None, "non-integer")
    D = value.numerator
    if D <= 0:
        return FamilyRecord(n, D, False, None, None, None, None, "non-positive")
    if is_perfect_square(D):
        return FamilyRecord(n, D, True, None, None, None, None, "square")

    r = period_length(D)
    capped = r > word_cap
    return FamilyRecord(
        n, D, False, r,
        # The walk's stop rule is the palindrome midpoint, so the word is a
        # palindrome by construction; past the cap it is not reported.
        None if capped else True,
        -1 if r % 2 else 1,
        # The closing quotient 2*a0 is the largest of the period: for
        # 0 < k < r, d_k >= 2 and m_k <= a0 give a_k <= a0.
        2 * math.isqrt(D),
        "word-cap" if capped else "",
    )


def run_family(config: ExperimentConfig) -> list[FamilyRecord]:
    """One record per n, ascending; deterministic for any worker count.

    An exception raised by a row, in this process or in a child, reaches
    the caller with its type and message; children still walking are
    terminated on the way out.
    """
    # Largest n first: a family's last rows are its longest walks.
    tasks = [(config.form, n, config.word_cap) for n in reversed(config.n_range)]
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        done = _walk_with_children(tasks, workers - 1)
    else:
        done = _walk(tasks, itertools.count().__next__)
    done.sort(key=lambda item: item[0], reverse=True)
    return [record for _, record in done]


def _walk(tasks: list, claim: Callable[[], int]) -> list[tuple[int, FamilyRecord]]:
    """Walk the rows ``claim`` hands out until it runs past the last."""
    done = []
    while (i := claim()) < len(tasks):
        done.append((i, _family_row(*tasks[i])))
    return done


def _claim(counter) -> int:
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i


def _child_walk(tasks: list, counter, conn) -> None:
    """Child process body: send the walked rows, or the failure, once."""
    try:
        result = _walk(tasks, partial(_claim, counter))
    except Exception as exc:
        with counter.get_lock():
            counter.value = len(tasks)  # no process claims another row
        result = exc
    conn.send(result)
    conn.close()


def _walk_with_children(tasks: list, children: int) -> list[tuple[int, FamilyRecord]]:
    """Walk rows here and in ``children`` processes; merge what they send."""
    import multiprocessing

    counter = multiprocessing.Value("q", 0)
    procs, conns = [], []
    try:
        for _ in range(children):
            recv, send = multiprocessing.Pipe(duplex=False)
            conns.append(recv)
            proc = multiprocessing.Process(target=_child_walk, args=(tasks, counter, send),
                                           daemon=True)
            proc.start()
            procs.append(proc)
            # Only the child holds the write end, so its death reads as EOF.
            send.close()
        done = _walk(tasks, partial(_claim, counter))
        for proc, recv in zip(procs, conns):
            try:
                result = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"family worker exited with code {proc.exitcode} "
                                   "before sending its rows") from None
            if isinstance(result, BaseException):
                raise result
            done += result
        return done
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for recv in conns:
            recv.close()


def suffix_min_periods(records: list[FamilyRecord]) -> list[tuple[int, int]]:
    """(n, min r over all m >= n) for rows with a period; nondecreasing."""
    out: list[tuple[int, int]] = []
    best: int | None = None
    for rec in reversed(records):
        if rec.r is not None:
            best = rec.r if best is None else min(best, rec.r)
            out.append((rec.n, best))
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Identity families: expansions with provably constant period words.
# ---------------------------------------------------------------------------


class IdentityReport(namedtuple("IdentityReport", "checks failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _default_h_grid() -> list[PowerSumForm]:
    return [
        parse_form("2^n + 1"),
        parse_form("3^n"),
        parse_form("2*4^n + 3*2^n + 1"),
        parse_form("5"),
        parse_form("7^n + 2*3^n"),
    ]


def _default_vw_grid() -> list[tuple[PowerSumForm, PowerSumForm]]:
    return [
        (parse_form("2^n"), parse_form("3^n")),
        (parse_form("1"), parse_form("2^n")),
        (parse_form("3"), parse_form("2^n + 1")),
        (parse_form("2^n + 1"), parse_form("2^n + 1")),
        (parse_form("2"), parse_form("5")),
    ]


def run_identity_checks(
    n_max: int = 10,
    h_grid: list[PowerSumForm] | None = None,
    vw_grid: list[tuple[PowerSumForm, PowerSumForm]] | None = None,
) -> IdentityReport:
    """Verify the two constant-period families against the CF engine.

    For h with positive coefficients, sqrt(h(n)**2 + 1) expands as
    [h(n); {2*h(n)}]; for positive v, w, sqrt(v**2*w**2 + 2*w) expands as
    [v(n)*w(n); {v(n), 2*v(n)*w(n)}].  Any mismatch is reported with the
    offending family member and n.
    """
    checks = 0
    failures: list[str] = []

    for h in h_grid if h_grid is not None else _default_h_grid():
        f = add(mul(h, h), constant(1))
        for n in range(1, n_max + 1):
            checks += 1
            hn = eval_int(h, n)
            try:
                exp = cf_sqrt(eval_int(f, n))
            except ValueError as exc:
                failures.append(f"h={h}, n={n}: expansion failed ({exc})")
                continue
            if exp.a0 != hn or exp.period != (2 * hn,):
                failures.append(
                    f"h={h}, n={n}: expected [{hn}; {{{2*hn}}}], got "
                    f"[{exp.a0}; {exp.period}]"
                )

    for v, w in vw_grid if vw_grid is not None else _default_vw_grid():
        f = add(mul(mul(v, v), mul(w, w)), scale(w, 2))
        for n in range(1, n_max + 1):
            checks += 1
            vn, wn = eval_int(v, n), eval_int(w, n)
            try:
                exp = cf_sqrt(eval_int(f, n))
            except ValueError as exc:
                failures.append(f"v={v}, w={w}, n={n}: expansion failed ({exc})")
                continue
            if exp.a0 != vn * wn or exp.period != (vn, 2 * vn * wn):
                failures.append(
                    f"v={v}, w={w}, n={n}: expected [{vn*wn}; {{{vn}, {2*vn*wn}}}], "
                    f"got [{exp.a0}; {exp.period}]"
                )

    return IdentityReport(checks, tuple(failures))


# ---------------------------------------------------------------------------
# Emission: one byte-stable layer for family records and every CLI command.
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_table(
    columns: Sequence[str],
    rows: Iterable[Sequence],
    format: str,
    *,
    wrap: Callable[[list[dict]], object] | None = None,
    indent: int | None = None,
) -> str:
    """Serialize rows of raw values under ``columns``, byte-stably.

    ``csv`` is a header line and one line per row.  ``text`` is one
    ``label: value`` line per cell, for one-record commands.  Their cells
    follow one rule: None is empty, booleans are ``true``/``false``,
    floats get six decimals, anything else is ``str``; a cell that needs
    another rendering is passed as a string.  ``json`` is one object per
    row, as a list or as whatever ``wrap`` builds from that list, on one
    line unless ``indent`` is given.  Every line ends in a newline.
    """
    if format == "json":
        objects = [dict(zip(columns, row)) for row in rows]
        payload = objects if wrap is None else wrap(objects)
        return json.dumps(payload, indent=indent) + "\n"
    if format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(map(_cell, row)) for row in rows]
    elif format == "text":
        lines = [f"{label}: {_cell(value)}"
                 for row in rows for label, value in zip(columns, row)]
    else:
        raise ValueError(f"unknown format {format!r}")
    return "".join(line + "\n" for line in lines)


def emit(records: list[FamilyRecord], format: str) -> bytes:
    """Serialize family records; the bytes are identical across platforms.

    A record is a row of ``FAMILY_COLUMNS``.  CSV double-quotes a note when
    there is one; JSON keeps the bare note.
    """
    if format == "csv":
        records = [rec._replace(notes=f'"{rec.notes}"') if rec.notes else rec
                   for rec in records]
    return emit_table(FAMILY_COLUMNS, records, format, indent=2).encode("utf-8")


def preset_config(name: str, n_start: int | None = None, n_end: int | None = None,
                  **kwargs) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    form, lo, hi = PRESETS[name]
    return ExperimentConfig(
        parse_form(form),
        n_start if n_start is not None else lo,
        n_end if n_end is not None else hi,
        **kwargs,
    )
