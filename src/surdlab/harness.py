"""Family experiments and the one byte-stable emission layer.

``run_family`` expands sqrt(f(n)) over a range of n and collects one
record per n: the integer f(n), squareness, the period length r, the
palindrome flag, the sign of the fundamental Pell value, and the largest
partial quotient of the period, which is the closing quotient 2*a0.  A
row walks only to the palindrome midpoint and keeps no word, so its
palindrome flag is true by construction.

With ``jobs`` > 1 the calling process walks rows beside ``jobs - 1``
children started by ``os.fork`` (self-scheduling): each process claims the
next row, largest n first, by taking the one 8-byte counter token from a
pipe and putting back its successor; each child pickles its rows down its
own pipe once and leaves by ``os._exit``.  Without ``os.fork``, this
process walks every row.  Every value is exact, so the records are
byte-identical across runs, worker counts and platforms.

``run_identity_checks`` runs one loop over one table of constant-period
families, ``_identity_families``: h**2 + 1 and (v*w)**2 + 2*w.

``emit_table`` turns columns and rows of raw values into CSV, JSON or
``label: value`` text; every CLI subcommand prints through it, and
``emit`` is its entry point for family records.  Its text and CSV cells
print ints with ``int_str``, which ``forms`` shares; ``pell_cells`` prints
a big fundamental Pell solution from its half-size factors.  Both convert
in the one exact context of ``_exact_decimal``.  ``forms``, ``json``,
``decimal`` and ``pickle`` are imported where they are used, so a command
that only emits small numbers, such as ``cf sqrt``, loads none of them.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from functools import cache

from .surd import _midpoint_walk, _radicand, _unit, cf_sqrt
# PowerSumForm, in annotations only, is forms.PowerSumForm.

PRESETS: dict[str, tuple[str, int, int]] = {
    # Families with known period behaviour, ready to run by name:
    # name -> (form, n_start, n_end).
    "title": ("2*4^n + 1", 1, 20),
    "even-exponent": ("4^n + 1", 1, 12),
    "v2w2": ("36^n + 2*3^n", 1, 8),
}

FAMILY_COLUMNS = ("n", "D", "is_square", "r", "palindrome_ok", "pell_sign",
                  "max_pq_prefix", "notes")


class ExperimentConfig(namedtuple("ExperimentConfig", "form n_start n_end jobs",
                                  defaults=(1,))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.n_end < self.n_start:
            raise ValueError("empty n range")
        from .forms import _check_n
        _check_n(self.n_start)  # before any row runs: rows go largest n first
        if self.jobs < 1:
            raise ValueError("the worker count must be positive")
        return self

    @property
    def n_range(self) -> range:
        return range(self.n_start, self.n_end + 1)


# One family row, its fields in the order of the emitted columns.
FamilyRecord = namedtuple("FamilyRecord", FAMILY_COLUMNS, defaults=("",))


def _family_row(form: PowerSumForm, n: int) -> FamilyRecord:
    from .forms import eval_exact
    D, a0, note = _radicand(eval_exact(form, n))
    if note:
        return FamilyRecord(n, D, note == "square", None, None, None, None, note)

    r = _midpoint_walk(D, a0)[0]
    # The walk's stop rule is the palindrome midpoint, so the word is a
    # palindrome by construction.  The closing quotient 2*a0 is the largest
    # of the period: for 0 < k < r, d_k >= 2 and m_k <= a0 give a_k <= a0.
    return FamilyRecord(n, D, False, r, True, -1 if r % 2 else 1, 2 * a0)


def run_family(config: ExperimentConfig) -> list[FamilyRecord]:
    """One record per n, ascending; deterministic for any worker count.

    An exception raised by a row, in this process or in a child, reaches
    the caller with its type and message, and kills every child on the way
    out.  Every child is waited for before this returns or raises.
    """
    import os
    # Largest n first: a family's last rows are its longest walks.
    tasks = [(config.form, n) for n in reversed(config.n_range)]
    workers = min(config.jobs, len(tasks)) if hasattr(os, "fork") else 1
    done = (_walk_with_children(tasks, workers - 1) if workers > 1
            else _walk(tasks, itertools.count().__next__))
    done.sort(key=lambda rec: rec.n)
    return done


def _walk(tasks: list, claim: Callable[[], int]) -> list[FamilyRecord]:
    """Walk the rows ``claim`` hands out until it runs past the last."""
    done = []
    while (i := claim()) < len(tasks):
        done.append(_family_row(*tasks[i]))
    return done


def _walk_with_children(tasks: list, children: int) -> list[FamilyRecord]:
    """Walk rows here and in ``children`` forked processes; merge what they send."""
    import os
    import pickle

    fds = list(os.pipe())  # the claim pipe: it holds one 8-byte token, the next row
    kids = []  # (pid, read end of its row pipe) of each child not yet waited for

    def claim(after: int | None = None) -> int:
        i = int.from_bytes(os.read(fds[0], 8), "little")
        os.write(fds[1], (i + 1 if after is None else after).to_bytes(8, "little"))
        return i

    def child(send: int) -> None:  # walk, send the rows or the failure once, exit
        code = 1
        try:
            try:
                result = _walk(tasks, claim)
            except Exception as exc:
                claim(len(tasks))  # no process claims another row
                result = exc
            with open(send, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            code = 0
        finally:
            os._exit(code)  # no atexit handler, no flush of an inherited stdio buffer

    try:
        os.write(fds[1], bytes(8))
        for _ in range(children):
            fds += os.pipe()
            if (pid := os.fork()) == 0:
                child(fds[-1])
            os.close(fds.pop())  # only the child holds the write end: its death reads as EOF
            kids.append((pid, fds[-1]))
        done = _walk(tasks, claim)
        for pid, recv in kids:
            with open(recv, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                kids.remove((pid, recv))
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"family worker exited with code {code} "
                                   "before sending its rows")
            if isinstance(result := pickle.loads(data), BaseException):
                raise result
            done += result
        return done
    except BaseException:
        import signal
        for pid, _ in kids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, _ in kids:
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


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


def _identity_families():
    """Yield each family as forms ``(label, f, a0, middle)``.

    sqrt(f(n)) = [a0(n); {*middle(n), 2*a0(n)}] for n >= 1: sqrt(h**2 + 1)
    = [h; {2*h}] for five h with positive coefficients, and
    sqrt((v*w)**2 + 2*w) = [v*w; {v, 2*v*w}] for five positive pairs (v, w).
    """
    from .forms import add, constant, mul, parse_form, scale
    for text in ("2^n + 1", "3^n", "2*4^n + 3*2^n + 1", "5", "7^n + 2*3^n"):
        h = parse_form(text)
        yield f"h={h}", add(mul(h, h), constant(1)), h, ()
    for v_text, w_text in (("2^n", "3^n"), ("1", "2^n"), ("3", "2^n + 1"),
                           ("2^n + 1", "2^n + 1"), ("2", "5")):
        v, w = parse_form(v_text), parse_form(w_text)
        vw = mul(v, w)
        yield f"v={v}, w={w}", add(mul(vw, vw), scale(w, 2)), vw, (v,)


def run_identity_checks(n_max: int = 10) -> IdentityReport:
    """Check every ``_identity_families`` member for n = 1..n_max with ``cf_sqrt``.

    A mismatch or a failed expansion is reported with its family and n.
    """
    from .forms import eval_int
    checks = 0
    failures: list[str] = []
    for label, f, a0, middle in _identity_families():
        for n in range(1, n_max + 1):
            checks += 1
            a0n = eval_int(a0, n)
            word = (*(eval_int(m, n) for m in middle), 2 * a0n)
            try:
                exp = cf_sqrt(eval_int(f, n))
            except ValueError as exc:
                failures.append(f"{label}, n={n}: expansion failed ({exc})")
                continue
            if exp.a0 != a0n or exp.period != word:
                failures.append(
                    f"{label}, n={n}: expected [{a0n}; {{{', '.join(map(str, word))}}}], "
                    f"got [{exp.a0}; {exp.period}]"
                )
    return IdentityReport(checks, tuple(failures))


# ---------------------------------------------------------------------------
# Emission: one byte-stable layer for family records and every CLI command.
# ---------------------------------------------------------------------------


# Bits past which ``int_str`` beats Python 3.11's quadratic ``str``:
# both take ~1.4 ms at 32,000 bits, measured on a 2-core VM.
_STR_BITS = 32_000


def _exact_decimal():
    """An exact ``decimal`` context and ``digits(m, w)``, m >= 0 as a Decimal.

    The context has the widest precision and exponent range, with Inexact
    and Rounded trapped, so an operation in it is exact or raises instead
    of printing a wrong digit.  ``digits`` is CPython 3.12's method
    (``_pylong.int_to_decimal_string``; Brent & Zimmermann, *Modern
    Computer Arithmetic*, 1.7) for m < 2**w: split at bit w/2 and form
    lo + hi*2**(w/2) in the context, whose products are subquadratic, down
    to ``Decimal(m)`` at 2,048 bits.  The powers of 2 are kept for the
    caller's conversions, which share them when they pass the same w.
    """
    import decimal
    ctx = decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True

    @cache
    def power(w: int) -> decimal.Decimal:  # 2**w
        return decimal.Decimal(2) ** w if w <= 2048 else power(w >> 1) * power(w - (w >> 1))

    def digits(m: int, w: int) -> decimal.Decimal:
        if w <= 2048:
            return decimal.Decimal(m)
        w2 = w >> 1
        hi = m >> w2
        return digits(m - (hi << w2), w2) + digits(hi, w - w2) * power(w2)

    return decimal.localcontext(ctx), digits


def int_str(n: int) -> str:
    """``str(n)`` for any int, by ``_exact_decimal`` past ``_STR_BITS`` bits.

    While the interpreter's int digit limit is set, ``str`` answers, and
    refuses past it; ``cli.main`` lifts that limit.
    """
    if n.bit_length() <= _STR_BITS or sys.get_int_max_str_digits():
        return str(n)
    exact, digits = _exact_decimal()
    with exact:
        return ("-" if n < 0 else "") + str(digits(abs(n), n.bit_length()))


def pell_cells(D: int, sol) -> tuple:
    """X and Y of ``sol = fundamental_pell(D)`` as text or CSV cells.

    Past ``_STR_BITS`` they print from the half-size row the answer was
    built from (``surd._pell_from_half``): its two numbers are converted
    by ``_exact_decimal`` and ``surd._unit`` builds X and Y again from
    them in the exact context, with its certificate, so a wrong factor
    raises instead of printing.  Below that size, or under a digit limit,
    the cells are the ints, as ``int_str`` prints them.
    """
    if sol.X.bit_length() <= _STR_BITS or sys.get_int_max_str_digits():
        return sol.X, sol.Y
    r, d, m, x, y = sol._factors
    exact, digits = _exact_decimal()
    with exact:
        w = x.bit_length()  # x >= y: the powers of 2 are shared
        return tuple(map(str, _unit(D, r, d, m, digits(x, w), digits(y, w))))


def _cell(value) -> str:
    """One text or CSV cell, by the rule ``emit_table`` states."""
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, int) and value.bit_length() > _STR_BITS:
        return int_str(value)
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
    floats get six decimals, ints are ``int_str`` (the bytes of ``str``,
    by divide and conquer past ~32,000 bits), anything else is ``str``; a
    cell that needs another rendering is passed as a string.  ``json``
    is ``json.dumps`` of one object per row, as a list or as whatever
    ``wrap`` builds from that list, on one line unless ``indent`` is
    given.  Every line ends in a newline.
    """
    if format == "json":
        import json
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

