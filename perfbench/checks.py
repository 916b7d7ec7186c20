"""Output checks that do not trust the code under test.

Each check takes a generated ``Command`` and the captured ``{"code",
"stdout", "stderr"}`` of its first run and returns ``(items, failures)``:
the number of items judged (a command, or one row of family or scan
output) and a list of messages, one per failed item.  Expected values
come from the reference arithmetic in ``workloads``: plain surd
recurrences, ``Fraction`` evaluation and integer square roots.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import workloads as W

FAMILY_HEADER = "n,D,is_square,r,palindrome_ok,pell_sign,max_pq_prefix,notes"
SYMPY_D_MAX = 10**4  # sympy's symbolic expansion is slow; small D are enough
SYMPY_ROWS = 15


def _lines(text: str) -> list[str]:
    return text.splitlines()


def _isqrt_frac(x: Fraction, bits: int) -> int:
    """floor(sqrt(x) * 2**bits) for a non-negative rational x."""
    return math.isqrt((x.numerator << (2 * bits)) // x.denominator)


def check_family(cmd, out) -> tuple[int, list[str]]:
    rows = cmd.ref["rows"]
    lines = _lines(out["stdout"])
    fails = []
    if not lines or lines[0] != FAMILY_HEADER:
        return len(rows), [f"{cmd.argv}: bad header"] * len(rows)
    got = lines[1:]
    if len(got) != len(rows):
        fails.append(f"{cmd.argv}: {len(got)} rows, expected {len(rows)}")
    for row, line in zip(rows, got):
        n, D, r = row["n"], row["D"], row["r"]
        if r is None:
            want = f'{n},{D},true,,,,,"square"'
        else:
            pal, note = ("true", "") if r <= W.WORD_CAP else ("", '"word-cap"')
            sign = -1 if r % 2 else 1
            want = f"{n},{D},false,{r},{pal},{sign},{2 * math.isqrt(D)},{note}"
        if line != want:
            fails.append(f"{cmd.argv}: row {line[:80]!r} != {want[:80]!r}")
    return len(rows), fails


def sympy_cross_check(rows: list[dict]) -> list[str]:
    """Compare the reference recurrence with sympy on the small D."""
    try:
        from sympy.ntheory.continued_fraction import continued_fraction_periodic
    except ImportError:
        return []
    fails = []
    small = sorted({(row["D"], row["r"]) for row in rows
                    if row["r"] is not None and row["D"] <= SYMPY_D_MAX})
    for D, r in small[-SYMPY_ROWS:]:
        if len(continued_fraction_periodic(0, 1, D)[-1]) != r:
            fails.append(f"reference period of sqrt({D}) disagrees with sympy")
    return fails


def check_identities(cmd, out):
    want = f"identity checks: {cmd.ref['checks']}\nfailures: 0\n"
    return 1, [] if out["stdout"] == want else [f"{cmd.argv}: {out['stdout'][:80]!r}"]


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in _lines(text) if ": " in line)


def check_cf_pell(cmd, out):
    D, r = cmd.ref["D"], cmd.ref["r"]
    try:
        f = _fields(out["stdout"])
        X, Y, value = int(f["X"]), int(f["Y"]), int(f["value"])
    except (KeyError, ValueError):
        return 1, [f"{cmd.argv}: unparsable output"]
    if X <= 0 or Y <= 0 or X * X - D * Y * Y != value or value != (-1 if r % 2 else 1):
        return 1, [f"{cmd.argv}: X^2 - D*Y^2 != {value} or wrong sign"]
    # Minimality: the fundamental solution is the convergent at index r-1.
    j, log2_q = W.first_small_value(D, 2, r + 1)
    if j != r - 1 or abs(Y.bit_length() - log2_q) > 2:
        return 1, [f"{cmd.argv}: Y has {Y.bit_length()} bits, expected ~{log2_q:.0f}"]
    return 1, []


def check_pell_scan_D(cmd, out):
    D, C = cmd.ref["D"], cmd.ref["C"]
    want = ["X,Y,value"] + [f"{X},{Y},{v}" for X, Y, v in W.scan_solutions(D, C, W.SCAN_Y_LIMIT)]
    ok = _lines(out["stdout"]) == want and all(
        X * X - D * Y * Y == v for X, Y, v in (map(int, line.split(",")) for line in want[1:]))
    return 1, [] if ok else [f"{cmd.argv}: solutions differ from the convergent reference"]


_SKIP = re.compile(r"^# n=(\d+) skipped: (\S+)$", re.M)


def check_pell_scan_form(cmd, out):
    terms, C = cmd.ref["terms"], cmd.ref["C"]
    skips = {int(n): reason for n, reason in _SKIP.findall(out["stderr"])}
    lines = _lines(out["stdout"])
    fails = []
    if not lines or lines[0] != "n,D,Y_min,value,log_Y_min":
        return 1, [f"{cmd.argv}: bad header"]
    lo, hi = map(int, cmd.argv[cmd.argv.index("--n") + 1].split(".."))
    want_skips = {int(n): v for n, v in cmd.ref["skips"].items()}
    if skips != want_skips:
        fails.append(f"{cmd.argv}: skipped {skips}, expected {want_skips}")
    rows = lines[1:]
    if [int(line.split(",", 1)[0]) for line in rows] != [
            n for n in range(lo, hi + 1) if n not in want_skips]:
        fails.append(f"{cmd.argv}: wrong row set")
    for line in rows:
        n_s, D_s, Y_s, v_s, log_s = line.split(",")
        n, D, Y, value = int(n_s), int(D_s), int(Y_s), int(v_s)
        X2 = D * Y * Y + value
        ok = (D == W.evaluate(terms, n) and abs(value) < C and Y > 0
              and W.is_square(X2) and log_s == f"{math.log(Y):.6f}")
        if ok:
            # Least Y: the first convergent with |value| < C.
            hit = W.first_small_value(D, C, 10**7)
            ok = hit is not None and abs(Y.bit_length() - hit[1]) <= 2
        if not ok:
            fails.append(f"{cmd.argv}: bad row n={n_s}")
    return len(rows) + len(want_skips), fails


def check_profile(cmd, out):
    terms = cmd.ref["terms"]
    c = float(cmd.argv[cmd.argv.index("--c") + 1])
    lines = _lines(out["stdout"])
    fails = []
    for line in lines[1:]:
        n_s, D_s, plen_s, amax_s = line.split(",")[:4]
        n, D = int(n_s), int(D_s)
        a0 = math.isqrt(D)
        m, d, a, q, qm1, steps, amax = 0, 1, a0, 1, 0, 0, 0
        while steps < 10**6 and math.log(q) < c * n:
            m = d * a - m
            d = (D - m * m) // d
            a = (a0 + m) // d
            amax = max(amax, a)
            q, qm1 = a * q + qm1, q
            steps += 1
        if D != W.evaluate(terms, n) or (int(plen_s), int(amax_s)) != (steps, amax):
            fails.append(f"{cmd.argv}: bad row n={n_s}")
    return 1, fails[:1]


def check_denom(cmd, out):
    terms, b = cmd.ref["terms"], cmd.ref["b"]
    lo, hi = map(int, cmd.argv[cmd.argv.index("--n") + 1].split(".."))
    want = ["n,denominator,log_denominator,flagged"]
    for n in range(lo, hi + 1):
        den = (W.evaluate(terms, n) / Fraction(b) ** n).denominator
        want.append(f"{n},{den},{math.log(den):.6f},{'true' if den * den < 2**n else 'false'}")
    return 1, [] if _lines(out["stdout"]) == want else [f"{cmd.argv}: table differs"]


def _trivial(terms) -> bool:
    a1, b1 = Fraction(terms[0][0]), Fraction(terms[0][1])

    def square(x: Fraction) -> bool:
        return W.is_square(x.numerator) and W.is_square(x.denominator)

    return not square(a1) and not square(a1 * b1)


def check_hypothesis(cmd, out):
    terms = cmd.ref["terms"]
    f = _fields(out["stdout"])
    verdict = f.get("verdict")
    b1 = terms[0][1]
    fails = []
    if sorted(W.parse_terms(f.get("form", ""))) != sorted(
            (Fraction(c), Fraction(b)) for c, b in terms):
        fails.append("form line")
    witnesses = re.findall(r"^j=(\d): h = (.*), g = (.*)$", out["stdout"], re.M)
    for j_s, h_s, g_s in witnesses:
        j, h, g = int(j_s), W.parse_terms(h_s), W.parse_terms(g_s)
        for n in (0, 1, 2, 5, 11):
            if W.evaluate(terms, 2 * n + j) != W.evaluate(h, n) ** 2 + W.evaluate(g, n):
                fails.append(f"witness j={j} fails at n={n}")
        # g grows slower than sqrt(f(2n+j)) ~ b1^n: its bases stay below b1.
        if g_s != "0" and max(b for _, b in g) >= b1:
            fails.append(f"witness j={j}: remainder too large")
    if verdict == "fails":
        ok = bool(witnesses)
    elif verdict == "holds-by-trivial-criterion":
        ok = not witnesses and _trivial(terms)
    elif verdict == "holds":
        ok = not witnesses and not _trivial(terms)
    else:
        ok = False
    if not ok:
        fails.append(f"verdict {verdict!r} with {len(witnesses)} witnesses")
    return 1, [f"{cmd.argv}: {'; '.join(fails)}"] if fails else []


_HEAD = re.compile(r"^# f1 = (.*), k = (\d+), lead = (\S+), error_base = (\S+)$", re.M)


def _true_error(terms, j, f1, k, lead, n, bits) -> Fraction:
    """|sqrt(source(n)) - sqrt(lead*B^n) * f1(n) / B^(k*n)| to ~2^-bits."""
    src = W._source(terms, j)
    B = Fraction(src[0][1])
    root = Fraction(_isqrt_frac(W.evaluate(src, n), bits), 1 << bits)
    approx = Fraction(_isqrt_frac(lead * B**n, bits), 1 << bits)
    approx *= W.evaluate(f1, n) / B ** (k * n)
    return abs(root - approx)


def check_expand(cmd, out):
    terms, j = cmd.ref["terms"], cmd.ref["j"]
    head = _HEAD.search(out["stderr"])
    lines = _lines(out["stdout"])
    lo, hi = map(int, cmd.argv[cmd.argv.index("--n-range") + 1].split(".."))
    if head is None or not lines or lines[0] != "n,error_low,error_high,decay_low,decay_high":
        return 1, [f"{cmd.argv}: bad output"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(lo, hi + 1)):
        return 1, [f"{cmd.argv}: wrong rows"]
    f1 = W.parse_terms(head.group(1)) if head.group(1) != "0" else []
    k, lead = int(head.group(2)), Fraction(head.group(3))
    if not f1:
        bad = [r for r in rows if float(r[1]) != 0 or float(r[2]) != 0]
        return 1, [f"{cmd.argv}: exact root with nonzero error"] if bad else []
    # Containment of the true error in the printed enclosure, on rows whose
    # printed bound is a normal float (smaller values underflow to 0.0).
    normal = [i for i in range(1, len(rows)) if float(rows[i][2]) >= 1e-300]
    for i in sorted({normal[0], normal[len(normal) // 2], normal[-1]} if normal else ()):
        n = lo + i
        lo_e, hi_e = float(rows[i][1]), float(rows[i][2])
        bits = 64 - math.frexp(hi_e)[1]
        err, prev = (_true_error(terms, j, f1, k, lead, m, bits) for m in (n, n - 1))
        if not lo_e * (1 - 1e-5) <= err <= hi_e * (1 + 1e-5):
            return 1, [f"{cmd.argv}: error at n={n} is {float(err):.6e}, printed "
                       f"[{lo_e:.6e}, {hi_e:.6e}]"]
        if rows[i][3] and err > 0:
            ratio = float(prev / err)
            d_lo, d_hi = float(rows[i][3]), float(rows[i][4])
            if not d_lo * (1 - 1e-6) - 1e-3 <= ratio <= d_hi * (1 + 1e-6) + 1e-3:
                return 1, [f"{cmd.argv}: decay at n={n} is {ratio:.4f}, printed {rows[i][3:]}"]
    return 1, []


CHECKS = {
    "family": check_family,
    "identities": check_identities,
    "cf_pell": check_cf_pell,
    "pell_scan_D": check_pell_scan_D,
    "pell_scan_form": check_pell_scan_form,
    "profile": check_profile,
    "denom": check_denom,
    "hypothesis": check_hypothesis,
    "expand": check_expand,
}


def check(cmd, out) -> tuple[int, list[str]]:
    """Judge one command's first run: exit code 0, then its output."""
    if out["code"] != 0:
        items = len(cmd.ref.get("rows", [])) or 1
        return items, [f"{cmd.argv}: exit {out['code']}: {out['stderr'][-200:]!r}"] * items
    try:
        return CHECKS[cmd.kind](cmd, out)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return 1, [f"{cmd.argv}: output not as documented ({exc!r})"]
