"""Command-line front end.

Subcommands: cf, pell, growth, profile, hypothesis, expand, family,
identities.  Exit codes: 0 success, 1 identity-check failure,
2 invalid input, 3 resource cap hit (fatal caps always; soft caps only
under --strict).
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .expansion import (
    decide_hypothesis,
    error_table,
    sqrt_approximation,
)
from .forms import FormSyntaxError, eval_int, format_form, parse_form
from .growth import (
    PellQuery,
    bounded_pell_solutions,
    denominator_growth,
    min_solution_growth,
    partial_quotient_profile,
)
from .surd import (
    DEFAULT_DIGIT_BUDGET,
    DEFAULT_WORD_CAP,
    ResourceLimitError,
    SquareInputError,
    _digit_budget_bits,
    cf_sqrt,
    fundamental_pell,
    is_perfect_square,
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
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default=None,
                        help="output format (default: text for cf, hypothesis and "
                        "identities, csv otherwise)")
    common.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    return common


# Options offered only by the subcommands that read them.
def _add_digit_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--digit-budget", type=_positive_int, default=DEFAULT_DIGIT_BUDGET,
                   help="decimal-digit cap for Pell solutions")


def _add_word_cap(p: argparse.ArgumentParser, help_text: str) -> None:
    p.add_argument("--word-cap", type=_positive_int, default=DEFAULT_WORD_CAP,
                   help=help_text)


def _add_strict(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any resource cap was hit")


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="surdlab",
        description="Exact continued fractions of sqrt(D), Pell equations and "
        "power-sum family experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cf = sub.add_parser("cf", help="continued fraction of sqrt(D)")
    cf_sub = cf.add_subparsers(dest="cf_command", required=True)
    p = cf_sub.add_parser("sqrt", parents=[common], help="a0, period word and r")
    p.add_argument("D", type=int)
    _add_word_cap(p, "longest period word kept in memory; a longer one is elided")
    _add_strict(p)
    p = cf_sub.add_parser("period", parents=[common], help="period length and bound ratio")
    p.add_argument("D", type=int)
    p = cf_sub.add_parser("pell", parents=[common], help="fundamental Pell solution")
    p.add_argument("D", type=int)
    _add_digit_budget(p)

    pell = sub.add_parser("pell", help="bounded Pell-type solution scans")
    pell_sub = pell.add_subparsers(dest="pell_command", required=True)
    p = pell_sub.add_parser("scan", parents=[common],
                            help="solutions of |X^2 - D Y^2| < C")
    p.add_argument("--form", help="family f(n); scans D = f(n) over --n")
    p.add_argument("--D", type=int, help="single D instead of a family")
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--n", help="n range a..b (with --form)")
    p.add_argument("--y-limit", type=int, default=None,
                   help="largest Y searched; collect-all scans default to "
                   "10^12 (an unbounded default would balloon), minimal-Y "
                   "family scans default to the digit budget")
    p.add_argument("--all", action="store_true",
                   help="with --form: list every solution, not just the minimal one")
    _add_digit_budget(p)
    _add_strict(p)

    growth = sub.add_parser("growth", help="growth statistics along a family")
    growth_sub = growth.add_subparsers(dest="growth_command", required=True)
    p = growth_sub.add_parser("denom", parents=[common],
                              help="exact denominators of f(n)/b^n")
    p.add_argument("--form", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", required=True)

    profile = sub.add_parser("profile", help="partial-quotient profiles")
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)
    p = profile_sub.add_parser("pq", parents=[common],
                               help="max partial quotient while q_j < exp(c*n)")
    p.add_argument("--form", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--c", type=float, required=True)

    hyp = sub.add_parser("hypothesis", help="square-decomposition hypothesis")
    hyp_sub = hyp.add_subparsers(dest="hypothesis_command", required=True)
    p = hyp_sub.add_parser("check", parents=[common], help="decide and show witnesses")
    p.add_argument("--form", required=True)

    exp = sub.add_parser("expand", help="truncated square-root expansions")
    exp_sub = exp.add_subparsers(dest="expand_command", required=True)
    p = exp_sub.add_parser("sqrt", parents=[common], help="certified error table")
    p.add_argument("--form", required=True)
    p.add_argument("--j", type=int, choices=(0, 1), required=True)
    p.add_argument("--n-range", required=True)

    p = sub.add_parser("family", parents=[common],
                       help="period records for D = f(n) over an n range")
    p.add_argument("--preset", choices=sorted(harness.PRESETS))
    p.add_argument("--form")
    p.add_argument("--n", help="n range a..b")
    p.add_argument("--summary", action="store_true",
                   help="print the suffix minimum of r to stderr")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="processes that walk rows, this one included")
    _add_word_cap(p, "longest r whose palindrome_ok is reported; longer rows get "
                  "null and the word-cap note (rows keep no word in memory)")
    _add_strict(p)

    p = sub.add_parser("identities", parents=[common],
                       help="verify the constant-period identity families")
    p.add_argument("--n-max", type=int, default=10)

    return parser


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.chunks: list[str] = []

    def write(self, text: str) -> None:
        self.chunks.append(text)

    def flush(self) -> None:
        data = "".join(self.chunks)
        if self.path:
            with open(self.path, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data)


def _format(args, *formats: str) -> str:
    """The requested --format when the command offers it, else its first.

    Table commands offer csv and json, so text prints CSV; report commands
    offer text and json, so csv prints text.
    """
    return args.format if args.format in formats else formats[0]


def _record(fmt: str, columns, values) -> str:
    """One record: ``label: value`` lines, a one-row table or one object."""
    return harness.emit_table(columns, [values], fmt, wrap=lambda objects: objects[0])


def _run_cf(args, out: _Output) -> int:
    fmt = _format(args, "text", "csv", "json")
    if args.cf_command == "sqrt":
        exp = cf_sqrt(args.D, word_cap=args.word_cap)
        word = " ".join(map(str, exp.period or ()))
        if fmt == "json":
            period = None if exp.period is None else list(exp.period)
        elif fmt == "csv":
            period = f'"{word}"'
        else:
            period = word or "(elided)"
        out.write(_record(fmt, ("D", "a0", "r", "period"), (exp.D, exp.a0, exp.r, period)))
        if args.strict and exp.period is None:
            return 3
        return 0
    if args.cf_command == "period":
        r = period_length(args.D)
        label = "r / (sqrt(D) ln D)" if fmt == "text" else "bound_ratio"
        out.write(_record(fmt, ("D", "r", label),
                          (args.D, r, period_bound_ratio(args.D, r))))
        return 0
    if args.cf_command == "pell":
        sol = fundamental_pell(args.D)
        # Before any decimal conversion, which would cost more than the
        # solution itself.
        if sol.X.bit_length() > _digit_budget_bits(args.digit_budget):
            raise ResourceLimitError(
                f"X for D={args.D} has {sol.X.bit_length()} bits, "
                f"over the {args.digit_budget}-digit budget"
            )
        columns, values = ("D", "X", "Y", "value"), (args.D, sol.X, sol.Y, sol.value)
        if fmt == "text":
            columns, values = columns[1:], values[1:]
        out.write(_record(fmt, columns, values))
        return 0
    raise AssertionError


def _run_pell_scan(args, out: _Output) -> int:
    if (args.D is None) == (args.form is None):
        raise ValueError("pell scan needs exactly one of --D or --form")
    fmt = _format(args, "csv", "json")
    scan_y_limit = args.y_limit if args.y_limit is not None else 10**12
    if args.D is not None:
        scan = bounded_pell_solutions(
            PellQuery(args.D, args.C, y_limit=scan_y_limit,
                      digit_budget=args.digit_budget)
        )
        out.write(harness.emit_table(
            ("X", "Y", "value"), [(s.X, s.Y, s.value) for s in scan.solutions], fmt,
            wrap=lambda solutions: {"D": args.D, "C": args.C, "complete": scan.complete,
                                    "solutions": solutions},
        ))
        if not scan.complete:
            print(f"# warning: C={args.C} > sqrt({args.D}); scan may be incomplete",
                  file=sys.stderr)
        return 0

    form = parse_form(args.form)
    if args.n is None:
        raise ValueError("pell scan over a family needs --n a..b")
    n_range = _parse_n_range(args.n)
    if args.all:
        rows = []
        for n in n_range:
            D = eval_int(form, n)
            if D <= 0 or is_perfect_square(D):
                print(f"# n={n} skipped", file=sys.stderr)
                continue
            scan = bounded_pell_solutions(
                PellQuery(D, args.C, y_limit=scan_y_limit,
                          digit_budget=args.digit_budget)
            )
            rows += [(n, D, s.X, s.Y, s.value) for s in scan.solutions]
        out.write(harness.emit_table(("n", "D", "X", "Y", "value"), rows, fmt))
        return 0
    result = min_solution_growth(
        form, args.C, n_range,
        y_limit=args.y_limit, digit_budget=args.digit_budget,
    )
    out.write(harness.emit_table(
        ("n", "D", "Y_min", "value", "log_Y_min"),
        [(rec.n, rec.metadata["D"], rec.metadata["Y"], rec.metadata["value"], rec.statistic)
         for rec in result.records],
        fmt, indent=2,
        wrap=lambda records: {
            "slope": result.slope,
            "hypothesis_holds": None if result.hypothesis is None
            else result.hypothesis.holds,
            "records": records,
            "skipped": [{"n": n, "reason": reason} for n, reason in result.skipped],
        },
    ))
    for n, reason in result.skipped:
        print(f"# n={n} skipped: {reason}", file=sys.stderr)
    if result.slope is not None:
        print(f"# least-squares slope of log Y_min: {result.slope:.6f}",
              file=sys.stderr)
    if result.hypothesis is not None and not result.hypothesis.holds:
        print("# warning: the square-decomposition hypothesis fails for this form",
              file=sys.stderr)
    if args.strict and any(reason == "cap" for _, reason in result.skipped):
        return 3
    return 0


def _run_growth_denom(args, out: _Output) -> int:
    form = parse_form(args.form)
    records = denominator_growth(form, args.b, _parse_n_range(args.n))
    out.write(harness.emit_table(
        ("n", "denominator", "log_denominator", "flagged"),
        [(r.n, r.metadata["denominator"], r.statistic, r.flagged) for r in records],
        _format(args, "csv", "json"), indent=2,
    ))
    return 0


def _run_profile_pq(args, out: _Output) -> int:
    form = parse_form(args.form)
    fmt = _format(args, "csv", "json")
    columns = ["n", "D", "prefix_len", "max_partial_quotient"]
    if fmt == "json":
        columns.append("effective_exponents")
    else:
        columns += ["min_eff_exponent", "max_eff_exponent"]
    rows = []
    for n in _parse_n_range(args.n):
        prof = partial_quotient_profile(form, n, args.c)
        if prof is None:
            print(f"# n={n} skipped: square", file=sys.stderr)
            continue
        exps = prof.effective_exponents
        if fmt == "json":
            ends = [list(exps)]
        else:
            ends = [min(exps, default=None), max(exps, default=None)]
        rows.append((prof.n, prof.D, prof.prefix_length, prof.max_partial_quotient, *ends))
    out.write(harness.emit_table(columns, rows, fmt, indent=2))
    return 0


def _run_hypothesis(args, out: _Output) -> int:
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
    out.write(_record(fmt, columns, values))
    return 0


def _run_expand(args, out: _Output) -> int:
    form = parse_form(args.form)
    approx = sqrt_approximation(form, args.j)
    print(
        f"# f1 = {format_form(approx.series_form)}, k = {approx.depth}, "
        f"lead = {approx.lead_coefficient}, error_base = {approx.error_base}",
        file=sys.stderr,
    )
    fmt = _format(args, "csv", "json")
    rows = []
    for n, err, decay in error_table(approx, _parse_n_range(args.n_range)):
        errors = [float(err.lo), float(err.hi)]
        decays = [None, None] if decay is None else [float(decay.lo), float(decay.hi)]
        if fmt == "csv":
            errors = [f"{e:.6e}" for e in errors]
            decays = [None if d is None else f"{d:.4f}" for d in decays]
        rows.append((n, *errors, *decays))
    out.write(harness.emit_table(
        ("n", "error_low", "error_high", "decay_low", "decay_high"), rows, fmt, indent=2,
        wrap=lambda objects: {
            "f1": format_form(approx.series_form),
            "k": approx.depth,
            "lead_coefficient": str(approx.lead_coefficient),
            "error_base": None if approx.error_base is None else str(approx.error_base),
            "rows": objects,
        },
    ))
    return 0


def _run_family(args, out: _Output) -> int:
    if (args.preset is None) == (args.form is None):
        raise ValueError("family needs exactly one of --preset or --form")
    kwargs = dict(word_cap=args.word_cap, jobs=args.jobs)
    if args.preset:
        n_range = _parse_n_range(args.n) if args.n else None
        config = harness.preset_config(
            args.preset,
            n_start=n_range.start if n_range else None,
            n_end=(n_range[-1] if n_range else None),
            **kwargs,
        )
    else:
        if args.n is None:
            raise ValueError("family with --form needs --n a..b")
        n_range = _parse_n_range(args.n)
        config = harness.ExperimentConfig(
            parse_form(args.form), n_range.start, n_range[-1], **kwargs
        )
    records = harness.run_family(config)
    out.write(harness.emit(records, _format(args, "csv", "json")).decode("utf-8"))
    if args.summary:
        for n, rmin in harness.suffix_min_periods(records):
            print(f"# suffix-min r from n={n}: {rmin}", file=sys.stderr)
    if args.strict and any(rec.notes == "word-cap" for rec in records):
        return 3
    return 0


def _run_identities(args, out: _Output) -> int:
    report = harness.run_identity_checks(n_max=args.n_max)
    fmt = _format(args, "text", "json")
    if fmt == "json":
        out.write(_record(fmt, ("checks", "failures", "ok"),
                          (report.checks, list(report.failures), report.ok)))
    else:
        out.write(_record(fmt, ("identity checks", "failures"),
                          (report.checks, len(report.failures))))
        out.write("".join(f"  {failure}\n" for failure in report.failures))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Large output integers are bounded by the digit budget and the scans'
    # caps where those apply, never by the interpreter's str() limit.
    sys.set_int_max_str_digits(0)
    out = _Output(getattr(args, "out", None))
    try:
        if args.command == "cf":
            code = _run_cf(args, out)
        elif args.command == "pell":
            code = _run_pell_scan(args, out)
        elif args.command == "growth":
            code = _run_growth_denom(args, out)
        elif args.command == "profile":
            code = _run_profile_pq(args, out)
        elif args.command == "hypothesis":
            code = _run_hypothesis(args, out)
        elif args.command == "expand":
            code = _run_expand(args, out)
        elif args.command == "family":
            code = _run_family(args, out)
        elif args.command == "identities":
            code = _run_identities(args, out)
        else:
            raise AssertionError(args.command)
    except (FormSyntaxError, SquareInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
