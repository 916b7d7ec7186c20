"""Command-line front end.

Subcommands: cf, pell, growth, profile, hypothesis, expand, family,
identities.  Exit codes: 0 success, 1 identity-check failure,
2 invalid input, 3 resource cap hit: always for a fatal cap; a run returns
3 for a soft cap, which ``main`` alone keeps under --strict and turns into
0 otherwise.  ``_COMMANDS`` holds each command's help, run function
and flags, and is the only place a flag is declared.  ``main`` reads
well-formed argv of a runnable command straight from that entry, without
argparse; every other argv goes to the one parser tree (``build_parser``),
which imports argparse and writes every help, usage and error byte.  It
then calls ``args.run``, which either reading sets, and writes the output
it collected once, to --out or stdout (an --out it cannot write is exit 2,
before the run where it can tell).
A run function imports the modules its command uses when it runs, so the
``cf`` commands load only ``surd`` and ``harness``, and no argparse.
"""

from __future__ import annotations

import errno
import math
import os
import sys
import types

from . import harness
from .surd import (
    DEFAULT_DIGIT_BUDGET,
    DEFAULT_WORD_CAP,
    ResourceLimitError,
    _radicand,
    cf_sqrt,
    fundamental_pell,
    period_bound_ratio,
    period_length,
)


def _parse_n_range(text: str) -> range:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty n range {text!r}")
    return range(lo, hi + 1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


# A flag is a pair (name, argparse keywords).  Flags several commands take:
_D = ("D", dict(type=int))
_FORM = ("--form", dict(required=True))
_DIGIT_BUDGET = ("--digit-budget", dict(type=_positive_int, default=DEFAULT_DIGIT_BUDGET,
                                        help="decimal-digit cap for Pell solutions"))
_STRICT = ("--strict", dict(action="store_true",
                            help="exit 3 when any resource cap was hit"))


# Flags every runnable command takes, before its own.
_COMMON = (
    ("--format", dict(choices=("text", "csv", "json"), default=None,
                      help="output format (default: text for cf, hypothesis and "
                      "identities, csv otherwise)")),
    ("--out", dict(default=None, help="write output to FILE instead of stdout")),
)


def _format(args, *formats: str) -> str:
    """The requested --format when the command offers it, else its first.

    Table commands offer csv and json, so text prints CSV; report commands
    offer text and json, so csv prints text.
    """
    return args.format if args.format in formats else formats[0]


def _record(fmt: str, columns, values) -> str:
    """One record: ``label: value`` lines, a one-row table or one object."""
    return harness.emit_table(columns, [values], fmt, wrap=lambda objects: objects[0])


def _run_cf_sqrt(args, out: list[str]) -> int:
    fmt = _format(args, "text", "csv", "json")
    exp = cf_sqrt(args.D, word_cap=args.word_cap)
    word = " ".join(map(str, exp.period or ()))
    if fmt == "json":
        period = None if exp.period is None else list(exp.period)
    elif fmt == "csv":
        period = f'"{word}"'
    else:
        period = word or "(elided)"
    out.append(_record(fmt, ("D", "a0", "r", "period"), (exp.D, exp.a0, exp.r, period)))
    return 3 if exp.period is None else 0


def _run_cf_period(args, out: list[str]) -> int:
    fmt = _format(args, "text", "csv", "json")
    r = period_length(args.D)
    label = "r / (sqrt(D) ln D)" if fmt == "text" else "bound_ratio"
    out.append(_record(fmt, ("D", "r", label),
                       (args.D, r, period_bound_ratio(args.D, r))))
    return 0


def _run_cf_pell(args, out: list[str]) -> int:
    fmt = _format(args, "text", "csv", "json")
    sol = fundamental_pell(args.D, args.digit_budget)
    columns, values = ("D", "X", "Y", "value"), (args.D, sol.X, sol.Y, sol.value)
    if fmt == "text":
        columns, values = columns[1:], values[1:]
    out.append(_record(fmt, columns, values))
    return 0


def _skipped(n: int, note: str) -> None:
    """Name a family row that has no value, and why, on stderr."""
    print(f"# n={n} skipped: {note}", file=sys.stderr)


def _run_pell_scan(args, out: list[str]) -> int:
    from .forms import eval_exact, parse_form
    from .growth import _check_box, bounded_pell_solutions, min_solution_growth
    if (args.D is None) == (args.form is None):
        raise ValueError("pell scan needs exactly one of --D or --form")
    mode, unread = (("--D", ("n", "all", "strict")) if args.D is not None
                    else ("--form --all", ("strict",) if args.all else ()))
    given = [f"--{name}" for name in unread if getattr(args, name) not in (None, False)]
    if given:
        raise ValueError(f"pell scan {mode} does not read {', '.join(given)}")
    _check_box(args.C, args.y_limit)
    fmt = _format(args, "csv", "json")
    scan_y_limit = args.y_limit if args.y_limit is not None else 10**12

    def scan_of(D: int):
        scan = bounded_pell_solutions(D, args.C, scan_y_limit, args.digit_budget)
        if not scan.complete:
            print(f"# warning: C={args.C} > sqrt({D}); scan may be incomplete",
                  file=sys.stderr)
        return scan
    if args.D is not None:
        scan = scan_of(args.D)
        out.append(harness.emit_table(
            ("X", "Y", "value"), [(s.X, s.Y, s.value) for s in scan.solutions], fmt,
            wrap=lambda solutions: {"D": args.D, "C": args.C, "complete": scan.complete,
                                    "solutions": solutions},
        ))
        return 0

    form = parse_form(args.form)
    if args.n is None:
        raise ValueError("pell scan over a family needs --n a..b")
    n_range = _parse_n_range(args.n)
    if args.all:
        rows = []
        for n in n_range:
            D, _, note = _radicand(eval_exact(form, n))
            if note:
                _skipped(n, note)
                continue
            rows += [(n, D, s.X, s.Y, s.value) for s in scan_of(D).solutions]
        out.append(harness.emit_table(("n", "D", "X", "Y", "value"), rows, fmt))
        return 0
    result = min_solution_growth(
        form, args.C, n_range,
        y_limit=args.y_limit, digit_budget=args.digit_budget,
    )
    out.append(harness.emit_table(
        ("n", "D", "Y_min", "value", "log_Y_min"),
        [(rec.n, rec.D, rec.Y, rec.value, rec.log_Y) for rec in result.records],
        fmt, indent=2,
        wrap=lambda records: {
            "slope": result.slope,
            "hypothesis_holds": result.hypothesis.holds,
            "records": records,
            "skipped": [{"n": n, "reason": reason} for n, reason in result.skipped],
        },
    ))
    for n, reason in result.skipped:
        _skipped(n, reason)
    if result.slope is not None:
        print(f"# least-squares slope of log Y_min: {result.slope:.6f}",
              file=sys.stderr)
    if not result.hypothesis.holds:
        print("# warning: the square-decomposition hypothesis fails for this form",
              file=sys.stderr)
    return 3 if any(reason == "cap" for _, reason in result.skipped) else 0


def _run_growth_denom(args, out: list[str]) -> int:
    from .forms import parse_form
    from .growth import denominator_growth
    form = parse_form(args.form)
    records = denominator_growth(form, args.b, _parse_n_range(args.n))
    out.append(harness.emit_table(
        ("n", "denominator", "log_denominator", "flagged"), records,
        _format(args, "csv", "json"), indent=2,
    ))
    return 0


def _run_profile_pq(args, out: list[str]) -> int:
    from .forms import parse_form
    from .growth import partial_quotient_profile
    form = parse_form(args.form)
    fmt = _format(args, "csv", "json")
    columns = ["n", "D", "prefix_len", "max_partial_quotient"]
    if fmt == "json":
        columns.append("effective_exponents")
    else:
        columns += ["min_eff_exponent", "max_eff_exponent"]
    profiles, skipped = partial_quotient_profile(form, _parse_n_range(args.n), args.c)
    for n, note in skipped:
        _skipped(n, note)
    rows = []
    for n, D, length, max_a, exps in profiles:
        ends = [list(exps)] if fmt == "json" else [min(exps, default=None), max(exps, default=None)]
        rows.append((n, D, length, max_a, *ends))
    out.append(harness.emit_table(columns, rows, fmt, indent=2))
    return 0


def _run_hypothesis(args, out: list[str]) -> int:
    from .expansion import decide_hypothesis
    from .forms import format_form, parse_form
    form = parse_form(args.form)
    report = decide_hypothesis(form)
    fmt = _format(args, "text", "json")
    if fmt == "json":
        columns = ("form", "verdict", "witnesses", "warnings")
        values = (format_form(form), report.verdict, [
            {"j": w.parity, "h": format_form(w.root),
             "g": format_form(w.remainder),
             "delta": None if w.remainder_exponent == float("-inf")
             else str(w.remainder_exponent)}
            for w in report.witnesses
        ], list(report.warnings))
    else:
        columns = ["form", "verdict", *(f"j={w.parity}" for w in report.witnesses),
                   *("warning" for _ in report.warnings)]
        values = [format_form(form), report.verdict,
                  *(f"h = {format_form(w.root)}, g = {format_form(w.remainder)}"
                    for w in report.witnesses),
                  *report.warnings]
    out.append(_record(fmt, columns, values))
    return 0


def _float(num: int, den: int) -> float:
    """``num / den`` for non-negative integers; inf past the float range.

    inf is what IEEE round-to-nearest gives there; int / int raises
    OverflowError instead.
    """
    try:
        return num / den
    except OverflowError:
        return math.inf


def _run_expand(args, out: list[str]) -> int:
    from .expansion import error_table, sqrt_approximation
    from .forms import format_form, parse_form
    form = parse_form(args.form)
    approx = sqrt_approximation(form, args.j)
    f1 = format_form(approx.series_form)
    print(f"# f1 = {f1}, k = {approx.depth}, lead = {approx.lead_coefficient}, "
          f"error_base = {approx.error_base}", file=sys.stderr)
    fmt = _format(args, "csv", "json")
    csv, rows = fmt == "csv", []
    for n, (lo, hi), decay in error_table(approx, _parse_n_range(args.n_range)):
        lo, hi = _float(*lo), _float(*hi)
        row = [n, f"{lo:.6e}", f"{hi:.6e}"] if csv else [n, lo, hi]
        if decay is None:
            row += (None, None)
        else:
            lo, hi = _float(*decay[0]), _float(*decay[1])
            row += (f"{lo:.4f}", f"{hi:.4f}") if csv else (lo, hi)
        rows.append(row)
    out.append(harness.emit_table(
        ("n", "error_low", "error_high", "decay_low", "decay_high"), rows, fmt, indent=2,
        wrap=lambda objects: {
            "f1": f1,
            "k": approx.depth,
            "lead_coefficient": str(approx.lead_coefficient),
            "error_base": None if approx.error_base is None else str(approx.error_base),
            "rows": objects,
        },
    ))
    return 0


def _run_family(args, out: list[str]) -> int:
    from .forms import parse_form
    if (args.preset is None) == (args.form is None):
        raise ValueError("family needs exactly one of --preset or --form")
    if args.preset:
        form, start, end = harness.PRESETS[args.preset]
        n_range = _parse_n_range(args.n) if args.n else range(start, end + 1)
    elif args.n is None:
        raise ValueError("family with --form needs --n a..b")
    else:
        form, n_range = args.form, _parse_n_range(args.n)
    config = harness.ExperimentConfig(parse_form(form), n_range.start, n_range[-1], args.jobs)
    records = harness.run_family(config)
    out.append(harness.emit(records, _format(args, "csv", "json")).decode("utf-8"))
    if args.summary:
        for n, rmin in harness.suffix_min_periods(records):
            print(f"# suffix-min r from n={n}: {rmin}", file=sys.stderr)
    return 0


def _run_identities(args, out: list[str]) -> int:
    report = harness.run_identity_checks(n_max=args.n_max)
    fmt = _format(args, "text", "json")
    if fmt == "json":
        out.append(_record(fmt, ("checks", "failures", "ok"),
                           (report.checks, list(report.failures), report.ok)))
    else:
        out.append(_record(fmt, ("identity checks", "failures"),
                           (report.checks, len(report.failures))))
        out.append("".join(f"  {failure}\n" for failure in report.failures))
    return 0 if report.ok else 1


# command -> (help, run, flags) for a runnable command, or
# command -> (help, {subcommand: (help, run, flags)}) for a group; a
# command's parser takes _COMMON and then its flags, and sets ``run``.  The
# one definition of the command line: build_parser() builds all of it,
# _read_argv() reads one command's well-formed argv, and main() calls args.run.
_COMMANDS = {
    "cf": ("continued fraction of sqrt(D)", {
        "sqrt": ("a0, period word and r", _run_cf_sqrt, (
            _D,
            ("--word-cap", dict(type=_positive_int, default=DEFAULT_WORD_CAP,
                                help="longest period word kept in memory; a longer one "
                                "is elided")),
            _STRICT,
        )),
        "period": ("period length and bound ratio", _run_cf_period, (_D,)),
        "pell": ("fundamental Pell solution", _run_cf_pell, (_D, _DIGIT_BUDGET)),
    }),
    "pell": ("bounded Pell-type solution scans", {
        "scan": ("solutions of |X^2 - D Y^2| < C", _run_pell_scan, (
            ("--form", dict(help="family f(n); scans D = f(n) over --n")),
            ("--D", dict(type=int, help="single D instead of a family")),
            ("--C", dict(type=int, required=True)),
            ("--n", dict(help="n range a..b (with --form)")),
            ("--y-limit", dict(type=int, default=None,
                               help="largest Y searched; collect-all scans default to "
                               "10^12 (an unbounded default would balloon), minimal-Y "
                               "family scans default to the digit budget")),
            ("--all", dict(action="store_true",
                           help="with --form: list every solution, not just the minimal one")),
            _DIGIT_BUDGET,
            _STRICT,
        )),
    }),
    "growth": ("growth statistics along a family", {
        "denom": ("exact denominators of f(n)/b^n", _run_growth_denom, (
            _FORM,
            ("--b", dict(type=int, required=True)),
            ("--n", dict(required=True)),
        )),
    }),
    "profile": ("partial-quotient profiles", {
        "pq": ("max partial quotient while q_j < exp(c*n)", _run_profile_pq, (
            _FORM,
            ("--n", dict(required=True)),
            ("--c", dict(type=float, required=True)),
        )),
    }),
    "hypothesis": ("square-decomposition hypothesis", {
        "check": ("decide and show witnesses", _run_hypothesis, (_FORM,)),
    }),
    "expand": ("truncated square-root expansions", {
        "sqrt": ("certified error table", _run_expand, (
            _FORM,
            ("--j", dict(type=int, choices=(0, 1), required=True)),
            ("--n-range", dict(required=True)),
        )),
    }),
    "family": ("period records for D = f(n) over an n range", _run_family, (
        ("--preset", dict(choices=sorted(harness.PRESETS))),
        ("--form", dict()),
        ("--n", dict(help="n range a..b")),
        ("--summary", dict(action="store_true",
                           help="print the suffix minimum of r to stderr")),
        ("--jobs", dict(type=_positive_int, default=1,
                        help="processes that walk rows, this one included")),
    )),
    "identities": ("verify the constant-period identity families", _run_identities, (
        ("--n-max", dict(type=_positive_int, default=10)),
    )),
}


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="surdlab",
        description="Exact continued fractions of sqrt(D), Pell equations and "
        "power-sum family experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, entry in _COMMANDS.items():
        if isinstance(entry[1], dict):
            group = sub.add_parser(command, help=entry[0]).add_subparsers(
                dest=f"{command}_command", required=True)
            leaves = [(group.add_parser(name, help=leaf[0]), leaf)
                      for name, leaf in entry[1].items()]
        else:
            leaves = [(sub.add_parser(command, help=entry[0]), entry)]
        for p, leaf in leaves:
            for name, kwargs in _COMMON + leaf[2]:
                p.add_argument(name, **kwargs)
            p.set_defaults(run=leaf[1])
    return parser


def _read_argv(leaf: tuple, tokens: list[str]):
    """The namespace argparse gives ``leaf``'s parser for tokens, or None.

    Reads only an exact ``--name value``, an exact ``--name`` of a
    store_true flag and the one positional, with the parser's types,
    choices and defaults.  Anything else is None, for argparse to answer:
    help, abbreviations, ``--x=v`` and ``--``, a token or value that starts
    with "-", a repeated flag or positional, a missing value, positional or
    required flag, and a value that its type raises on or its choices lack.
    """
    flags, given, tokens = dict(_COMMON + leaf[2]), {}, iter(tokens)
    for token in tokens:
        name = token if token.startswith("-") else _D[0]
        kwargs = flags.get(name)
        if kwargs is None or name in given:
            return None
        if kwargs.get("action") == "store_true":
            given[name] = True
            continue
        value = token if name == _D[0] else next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            given[name] = kwargs.get("type", str)(value)
        except Exception:  # argparse reports it or lets it raise
            return None
        if given[name] not in kwargs.get("choices", (given[name],)):
            return None
    args = types.SimpleNamespace(run=leaf[1])
    for name, kwargs in flags.items():
        if name not in given and (kwargs.get("required") or not name.startswith("-")):
            return None
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, default))
    return args


def _parse_args(argv: list[str]):
    """``build_parser().parse_args(argv)``, reading argv without argparse if it can.

    When argv starts with a runnable command, ``_read_argv`` reads it from
    that command's entry in ``_COMMANDS``, and argparse is not imported.
    Argv it declines, and argv that names no runnable command, goes to the
    full tree.
    """
    entry, tokens = (None, _COMMANDS), argv  # the root, shaped as a group
    while isinstance(entry[1], dict) and tokens and tokens[0] in entry[1]:
        entry, tokens = entry[1][tokens[0]], tokens[1:]
    if not isinstance(entry[1], dict):
        args = _read_argv(entry, tokens)
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def _check_out(path: str) -> None:
    """Raise open(path, "w")'s error, as ValueError, where the path alone decides it."""
    try:
        os.stat(os.path.join(os.path.dirname(path), ".") if path else path)
    except OSError as exc:
        exc.filename = path
        raise ValueError(exc) from None
    if os.path.isdir(path):
        raise ValueError(OSError(errno.EISDIR, os.strerror(errno.EISDIR), path))


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # Large output integers are bounded by the digit budget and the scans'
    # caps where those apply, never by the interpreter's str() limit.
    sys.set_int_max_str_digits(0)
    out: list[str] = []
    try:
        if args.out is not None:
            _check_out(args.out)
        code = args.run(args, out)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = "".join(out)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(data)
    return 0 if code == 3 and not getattr(args, "strict", False) else code


if __name__ == "__main__":
    sys.exit(main())
