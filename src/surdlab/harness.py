"""Family experiments and the one byte-stable emission layer.

``run_family`` expands sqrt(f(n)) over a range of n and collects one
record per n: the integer f(n), squareness, the period length r, the
palindrome flag (true up to the word cap, null past it), the sign of
the fundamental Pell value, and the largest partial quotient of the
period, which is the closing quotient 2*a0.  A row walks only to the
palindrome midpoint and keeps no word.  Output is byte-identical across
runs and worker counts; per-n work may fan out to processes since every
value involved is exact.

``emit_table`` turns columns and rows of raw values into CSV, JSON or
``label: value`` text; every CLI subcommand prints through it, and
``emit`` is its entry point for family records.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
    isqrt,
    is_perfect_square,
    period_length,
)

PRESETS: dict[str, str] = {
    # Families with known period behaviour, ready to run by name.
    "title": "2*4^n + 1",
    "even-exponent": "4^n + 1",
    "v2w2": "36^n + 2*3^n",
}

PRESET_RANGES: dict[str, tuple[int, int]] = {
    "title": (1, 20),
    "even-exponent": (1, 12),
    "v2w2": (1, 8),
}

FAMILY_COLUMNS = ("n", "D", "is_square", "r", "palindrome_ok", "pell_sign",
                  "max_pq_prefix", "notes")


@dataclass(frozen=True)
class ExperimentConfig:
    form: PowerSumForm
    n_start: int
    n_end: int
    word_cap: int = DEFAULT_WORD_CAP
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.n_end < self.n_start:
            raise ValueError("empty n range")
        if self.word_cap < 1 or self.jobs < 1:
            raise ValueError("caps and worker counts must be positive")

    @property
    def n_range(self) -> range:
        return range(self.n_start, self.n_end + 1)


@dataclass(frozen=True)
class FamilyRecord:
    n: int
    D: int | None
    is_square: bool
    r: int | None
    palindrome_ok: bool | None
    pell_sign: int | None
    max_pq_prefix: int | None
    notes: str = ""


def _family_row(args: tuple[PowerSumForm, int, int]) -> FamilyRecord:
    form, n, word_cap = args
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
        2 * isqrt(D),
        "word-cap" if capped else "",
    )


def run_family(config: ExperimentConfig) -> list[FamilyRecord]:
    """One record per n, ascending; deterministic for any worker count."""
    tasks = [(config.form, n, config.word_cap) for n in config.n_range]
    workers = min(config.jobs, len(tasks))
    if workers <= 1:
        return [_family_row(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_family_row, tasks))


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


@dataclass(frozen=True)
class IdentityReport:
    checks: int
    failures: tuple[str, ...]

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

    CSV double-quotes a note when there is one; JSON keeps the bare note.
    """
    rows = [
        (rec.n, rec.D, rec.is_square, rec.r, rec.palindrome_ok, rec.pell_sign,
         rec.max_pq_prefix,
         f'"{rec.notes}"' if format == "csv" and rec.notes else rec.notes)
        for rec in records
    ]
    return emit_table(FAMILY_COLUMNS, rows, format, indent=2).encode("utf-8")


def preset_config(name: str, n_start: int | None = None, n_end: int | None = None,
                  **kwargs) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    lo, hi = PRESET_RANGES[name]
    return ExperimentConfig(
        parse_form(PRESETS[name]),
        n_start if n_start is not None else lo,
        n_end if n_end is not None else hi,
        **kwargs,
    )
