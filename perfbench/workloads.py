"""Seeded workload generators and the reference arithmetic the checks use.

Every generator is a pure function of its seed: ``random.Random`` seeded
with a string hashes it with SHA-512, so the same seed gives the same
argv list on every machine and interpreter run.  Inputs are sized by a
cost model fixed here (surd steps for family rows, squared period for Pell
convergents, a fixed mix of series depths for expansions), never by
timing, so every seed asks for about the same amount of work.  Every
generated command must exit 0 at the seed commit.

Nothing in this module imports surdlab: the reference values the checks
compare against come from the plain recurrences below.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("family_sweep", "pell_solutions", "form_algebra")
JOBS = 2  # the pool size used by every family command; <= nproc on the reference machine

# Documented program defaults the generators size against.
WORD_CAP = 10**6
PERIOD_CAP = 10**5


@dataclass
class Command:
    """One CLI invocation plus what the checks need to judge its output."""

    argv: list[str]
    kind: str
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    size: dict  # stated input size, printed beside wall_s

    def argvs(self) -> list[list[str]]:
        return [c.argv for c in self.commands]


# ---------------------------------------------------------------------------
# Reference arithmetic (independent of the code under test)
# ---------------------------------------------------------------------------


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def period(D: int, cap: int | None = None) -> int:
    """Period length of sqrt(D) by the plain surd recurrence.

    With ``cap``, the walk stops early and returns ``cap + 1`` once the
    period is known to exceed ``cap``.
    """
    a0 = math.isqrt(D)
    m, d, a, r = 0, 1, a0, 0
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        r += 1
        if d == 1:
            return r
        if r == cap:
            return cap + 1


def first_small_value(D: int, C: int, max_steps: int) -> tuple[int, float] | None:
    """(j, log2 q_j) for the first convergent with |p_j^2 - D q_j^2| < C.

    Uses |p_j^2 - D q_j^2| = d_{j+1} from the recurrence and tracks
    log2 q_j in floating point (only used to keep rows far from the
    digit cap).
    """
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    lq, lqm1 = 0.0, float("-inf")  # log2 q_0 = 0, q_{-1} = 0
    for j in range(max_steps):
        m = d * a - m
        d = (D - m * m) // d
        if d < C:
            return j, lq
        a = (a0 + m) // d
        # q_{j+1} = a*q_j + q_{j-1}
        lq, lqm1 = lq + math.log2(a + 2.0 ** (lqm1 - lq)), lq
    return None


def scan_solutions(D: int, C: int, y_limit: int) -> list[tuple[int, int, int]]:
    """(X, Y, X^2 - D*Y^2) with |value| < C and Y <= y_limit, for C <= sqrt(D).

    Classical: such solutions in lowest terms are convergents p_j/q_j,
    and the others are multiples g*(p_j, q_j) with g^2*|value| < C.
    """
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p, pm1, q, qm1 = a0, 1, 1, 0
    out = []
    while q <= y_limit:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        value = p * p - D * q * q
        g = 1
        while g * g * abs(value) < C and g * q <= y_limit:
            out.append((g * p, g * q, g * g * value))
            g += 1
        p, pm1 = a * p + pm1, p
        q, qm1 = a * q + qm1, q
    return sorted(out, key=lambda s: s[1])


Terms = list[tuple[Fraction, int]]  # (coefficient, integer base), base 1 = constant


def form_text(terms: Terms) -> str:
    """Text accepted by the program's form parser."""
    parts = []
    for i, (c, b) in enumerate(terms):
        mag = abs(c)
        mag_s = str(mag) if mag.denominator == 1 else f"({mag})"
        if b == 1:
            body = str(mag)
        elif mag == 1:
            body = f"{b}^n"
        else:
            body = f"{mag_s}*{b}^n"
        sign = "-" if c < 0 else "+"
        parts.append(body if i == 0 and c > 0 else (f"-{body}" if i == 0 else f" {sign} {body}"))
    return "".join(parts)


_TERM = re.compile(r"^(?:(\(?\d+(?:/\d+)?\)?)\*)?(\d+|\(\d+/\d+\))\^n$")


def parse_terms(text: str) -> list[tuple[Fraction, Fraction]]:
    """Terms of a form printed as ``a*b^n + b^n - c``, as (coefficient, base).

    Accepts what the program prints (`` + ``/`` - `` between terms,
    parenthesized fractions) and what ``form_text`` writes.
    """
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r"\s*([+-])\s*", text)
    terms = []
    for i in range(0, len(pieces), 2):
        if i:
            sign = -1 if pieces[i - 1] == "-" else 1
        body = pieces[i]
        m = _TERM.match(body)
        if m:
            coef = Fraction(m.group(1).strip("()")) if m.group(1) else Fraction(1)
            terms.append((sign * coef, Fraction(m.group(2).strip("()"))))
        else:
            terms.append((sign * Fraction(body.strip("()")), Fraction(1)))
    return terms


def evaluate(terms, n: int) -> Fraction:
    return sum((Fraction(c) * Fraction(b) ** n for c, b in terms), Fraction(0))


def _floor_log(x: Fraction, base: Fraction) -> int:
    t, p = 0, Fraction(1)
    while p * base <= x:
        p *= base
        t += 1
    return t


def _source(terms: Terms, j: int) -> Terms:
    """Terms of the form the expansion works on (see ``expand sqrt``)."""
    b1 = terms[0][1]
    if j == 0 and is_square(b1):
        return terms
    return [(c * Fraction(b) ** j, b * b) for c, b in terms]


def expansion_depth(terms: Terms, j: int) -> int:
    src = _source(terms, j)
    if len(src) == 1:
        return 1
    base, ratio = Fraction(src[0][1]), Fraction(src[0][1], src[1][1])
    return _floor_log(base, ratio) + 1


def positive_from(terms: Terms, j: int) -> int:
    """Least n0 with source(n) > 0 for every n >= n0.

    Past the first n where the leading term outweighs the sum of the
    absolute values of the others, it keeps doing so.
    """
    src = _source(terms, j)
    (c1, b1), rest = src[0], src[1:]
    n = 0
    while c1 * Fraction(b1) ** n <= sum(abs(c) * Fraction(b) ** n for c, b in rest):
        n += 1
    return n


# ---------------------------------------------------------------------------
# family_sweep
# ---------------------------------------------------------------------------

# Pool cost of a family command in surd steps: ascending rows share two
# workers until the largest (last) row runs alone, ~ (sum + max) / 2.
FAMILY_COST = 3_600_000
FAMILY_COUNT = 16
ROW_OVERHEAD = 600        # eval, pickling and emission per row, in steps
CMD_OVERHEAD = 40_000     # pool start-up per command, in steps
# Below the title row n=19 (r = 404,762), which then sets the peak memory:
# the pool keeps each row's period word, so RSS follows the largest r.
ROW_R_MAX = 250_000
# Fixed families heavier than any seeded one (cost ~500k vs <= 225k), so the
# latency tail falls on the same inputs for every seed.
ANCHOR_FAMILIES = (("2*7^n + 2", 1, 15), ("2*5^n + 2", 1, 18))


def _family_cost(rs: list[int]) -> float:
    return (sum(rs) + max(rs, default=0)) / 2 + ROW_OVERHEAD * len(rs) + CMD_OVERHEAD


def _family_rows(terms, ns, cap: int | None = None) -> list[dict]:
    rows = []
    for n in ns:
        D = evaluate(terms, n).numerator
        rows.append({"n": n, "D": D, "r": None if is_square(D) else period(D, cap)})
    return rows


def _family(argv: list[str], text: str, lo: int, hi: int, rows=None) -> Command:
    """A ``family`` command over ``text`` for n = lo..hi (pool of JOBS)."""
    if rows is None:
        rows = _family_rows(parse_terms(text), range(lo, hi + 1))
    return Command(argv + ["--jobs", str(JOBS)], "family",
                   {"form": text, "n": [lo, hi], "rows": rows})


def _window(rows: list[dict], share: float) -> tuple[int, int] | None:
    """Slice bounds of rows ending at the last one and costing 75-100 % of share."""
    rs = [row["r"] or 0 for row in rows]
    for lo in range(len(rs) - 1, -1, -1):
        cost = _family_cost(rs[lo:])
        if cost > share:
            return None
        if cost >= 0.75 * share:
            return lo, len(rs)
    return None


def family_sweep(seed: int) -> Workload:
    """Word-size surd walks spread over the family process pool.

    Why: most of the time is the period walk of D up to 2^42..2^44 and
    the two-worker pool, with the constant-period presets and identities
    adding multi-limb steps on short walks.  Bypasses big-integer
    convergents (no Pell solutions) and all form algebra beyond parsing.
    """
    rng = random.Random(f"family_sweep:{seed}")
    cmds = [_family(["family", "--preset", "title"], "2*4^n + 1", 1, 20)]
    cmds.append(_family(["family", "--preset", "even-exponent", "--n", "1..180"],
                        "4^n + 1", 1, 180))
    cmds.append(_family(["family", "--preset", "v2w2", "--n", "1..50"],
                        "36^n + 2*3^n", 1, 50))
    cmds.append(Command(["identities", "--n-max", "90"], "identities", {"checks": 900}))
    for text, lo, hi in ANCHOR_FAMILIES:
        cmds.append(_family(["family", "--form", text, "--n", f"{lo}..{hi}"], text, lo, hi))

    # Exactly FAMILY_COUNT seeded families c*b^n + e. Each candidate's rows
    # are walked up from the first n with D >= 2, and the family runs the
    # first window of n that costs 75-100 % of its share; a candidate whose
    # D passes 2^42..2^44 or whose row exceeds ROW_R_MAX steps first is
    # dropped.
    remaining, used = FAMILY_COST, set()
    for k in range(FAMILY_COUNT):
        share = remaining / (FAMILY_COUNT - k)
        window = None
        while window is None:
            c, b = rng.randint(1, 9), rng.randint(2, 4)
            e = rng.choice([-3, -2, -1, 1, 2, 3, 5, 7])
            terms = [(Fraction(c), b), (Fraction(e), 1)]
            if form_text(terms) in used:
                continue
            d_cap = 2 ** rng.uniform(42, 44)
            n = 1
            while c * b**n + e < 2:
                n += 1
            rows = []
            while window is None and c * b**n + e <= d_cap:
                cap = min(ROW_R_MAX, int(share))  # a longer row cannot fit the share
                (row,) = _family_rows(terms, [n], cap)
                if (row["r"] or 0) > cap:
                    break
                rows.append(row)
                window = _window(rows, share)
                n += 1
        rows = rows[window[0]:window[1]]
        remaining -= _family_cost([row["r"] or 0 for row in rows])
        text = form_text(terms)
        used.add(text)
        lo, hi = rows[0]["n"], rows[-1]["n"]
        cmds.append(_family(["family", "--form", text, "--n", f"{lo}..{hi}"], text, lo, hi, rows))

    rows = [row for cmd in cmds for row in cmd.ref.get("rows", [])]
    size = {"rows": len(rows), "sum_r_steps": sum(row["r"] or 0 for row in rows),
            "commands": len(cmds)}
    return Workload("family_sweep", seed, cmds, size)


# ---------------------------------------------------------------------------
# pell_solutions
# ---------------------------------------------------------------------------

# Cost of `cf pell D` in units of (period / 10^4)^2: the convergents grow
# linearly with the step count, so building them is quadratic in the period.
PELL_COST = 80.0
PELL_COUNT = 25
# Fixed D with periods near 31,000, heavier than any seeded `cf pell`
# (cost ~13 vs <= 3.7), so the latency tail falls on the same inputs.
ANCHOR_PELL_D = (5000000009, 5000000029, 5000000030, 5000000046, 5000000071)
SCAN_COUNT = 10
SCAN_Y_LIMIT = 10**12  # the program's default for `pell scan --D`


def _pell_cost(r: int) -> float:
    return 0.2 + r / 1e4 + (r / 1e4) ** 2


def pell_solutions(seed: int) -> Workload:
    """Big-integer convergents: fundamental Pell solutions and scans.

    Why: most of the time is building p_j, q_j as big integers in
    ``fundamental_pell`` and the growth scans, plus decimal emission of
    large X and Y.  One family scan walks to the digit cap on purpose
    (reduced ``--digit-budget``) so the work spent on a row that gets no
    answer is measured.  Bypasses the family pool and form expansion.
    """
    rng = random.Random(f"pell_solutions:{seed}")
    cmds: list[Command] = []
    pell_D: list[int] = []

    remaining = PELL_COST
    while len(pell_D) < PELL_COUNT:
        slots = PELL_COUNT - len(pell_D)
        target = remaining / slots
        lo, hi = (0.9, 1.1) if slots == 1 else (0.85, 1.15)
        D = rng.randrange(10**8, 10**10)
        if is_square(D):
            continue
        r = period(D, PERIOD_CAP)
        cost = _pell_cost(r)
        if r > PERIOD_CAP * 9 // 10 or not lo * target <= cost <= hi * target:
            continue
        pell_D.append(D)
        remaining -= cost
        cmds.append(Command(["cf", "pell", str(D)], "cf_pell", {"D": D, "r": r}))

    for D in ANCHOR_PELL_D:
        cmds.append(Command(["cf", "pell", str(D)], "cf_pell", {"D": D, "r": period(D)}))

    scans = 0
    while scans < SCAN_COUNT:
        D = rng.randrange(10**8, 10**10)
        C = math.isqrt(math.isqrt(D))
        if is_square(D) or not scan_solutions(D, C, SCAN_Y_LIMIT):
            continue
        scans += 1
        cmds.append(Command(["pell", "scan", "--D", str(D), "--C", str(C)], "pell_scan_D",
                            {"D": D, "C": C}))

    # A seeded family scan with every row answered well inside the caps.
    while True:
        c, b, e = rng.randint(1, 9), rng.randint(2, 9), rng.choice([1, 2, 3, 5, 7])
        C = rng.choice([20, 50, 100, 200])
        n1 = 4
        while c * b ** (n1 + 1) + e < 10**14:
            n1 += 1
        ns = range(3, n1 + 1)
        expect = {}
        for n in ns:
            D = c * b**n + e
            hit = None if is_square(D) else first_small_value(D, C, 200_000)
            expect[n] = "square" if is_square(D) else hit
        if all(v == "square" or (v is not None and v[1] < 2000) for v in expect.values()):
            break
    cmds.append(Command(
        ["pell", "scan", "--form", form_text([(Fraction(c), b), (Fraction(e), 1)]),
         "--C", str(C), "--n", f"3..{n1}"],
        "pell_scan_form",
        {"terms": [(c, b), (e, 1)], "C": C,
         "skips": {n: "square" for n, v in expect.items() if v == "square"}}))

    # The title family under a small digit budget: the last row walks to
    # the cap and is skipped with reason "cap", by design.
    budget = rng.choice([6000, 7000, 8000])
    cmds.append(Command(
        ["pell", "scan", "--form", "2*4^n + 1", "--C", "2", "--n", "10..17",
         "--digit-budget", str(budget)],
        "pell_scan_form",
        {"terms": [(2, 4), (1, 1)], "C": 2, "skips": {17: "cap"}}))

    pq_n0 = rng.randint(30, 40)
    cmds.append(Command(
        ["profile", "pq", "--form", "2*4^n + 1", "--n", f"{pq_n0}..{pq_n0 + 20}", "--c", "6"],
        "profile", {"terms": [(2, 4), (1, 1)]}))

    size = {"cf_pell": PELL_COUNT + len(ANCHOR_PELL_D),
            "sum_r_steps": sum(c.ref["r"] for c in cmds if c.kind == "cf_pell"),
            "commands": len(cmds)}
    return Workload("pell_solutions", seed, cmds, size)


# ---------------------------------------------------------------------------
# form_algebra
# ---------------------------------------------------------------------------

FORM_COUNT = 60
N_TOP = 100
DENOM_COUNT = 5
# Fixed expansions heavier than any seeded one (~100-140 ms vs <= ~70 ms on
# the reference machine), so the latency tail falls on the same inputs.
ANCHOR_EXPANSIONS = (
    ([(Fraction(3), 7), (Fraction(-5), 5), (Fraction(2), 3)], 1, 150),
    ([(Fraction(9), 15), (Fraction(6), 7), (Fraction(-1), 2), (Fraction(5), 1)], 1, 140),
    ([(Fraction(7), 16), (Fraction(3), 9), (Fraction(-4), 5), (Fraction(2), 1)], 1, 140),
)
# Depth classes, one per form slot, so every seed runs the same mix of
# shallow and deep series (cost grows with the series depth).
DEPTHS = (1, 2, 2, 3, 3, 4)


def _random_form(rng: random.Random) -> Terms:
    k = rng.choice((1, 2, 2, 3, 3))
    bases = sorted(rng.sample(range(2, 17), k), reverse=True)
    terms: Terms = []
    for i, b in enumerate(bases):
        mag = Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 2, 3, 4)))
        sign = 1 if i == 0 else rng.choice((1, -1))
        terms.append((sign * mag, b))
    if rng.random() < 0.5:
        terms.append((Fraction(rng.choice((1, -1)) * rng.randint(1, 9)), 1))
    return terms


def form_algebra(seed: int) -> Workload:
    """Exact form algebra and certified square-root enclosures.

    Why: the time is Fraction arithmetic in ``forms``/``expansion`` and
    integer square roots in ``intervals``; no surd walk, no pool, no big
    convergents, so this is the "predict no change" side for every surd
    or pool optimisation.  Bases stay <= 16 and the two leading bases of
    the expanded form differ by a fixed depth class: near-1 base ratios
    (e.g. ``1001^n + 1000^n``) make the root extraction loop without a
    bound at this version and are left to the robustness tests.
    """
    rng = random.Random(f"form_algebra:{seed}")
    cmds: list[Command] = []
    for slot in range(FORM_COUNT):
        want = DEPTHS[slot % len(DEPTHS)]
        j = slot % 2
        while True:
            terms = _random_form(rng)
            if expansion_depth(terms, j) == want and (want > 1) == (len(terms) > 1):
                break
        text = form_text(terms)
        n0 = positive_from(terms, j) + 1
        cmds.append(Command(["hypothesis", "check", "--form", text], "hypothesis",
                            {"terms": terms}))
        cmds.append(Command(["expand", "sqrt", "--form", text, "--j", str(j),
                             "--n-range", f"{n0}..{N_TOP - rng.randint(0, 4)}"],
                            "expand", {"terms": terms, "j": j}))
    for terms, j, n_hi in ANCHOR_EXPANSIONS:
        cmds.append(Command(["expand", "sqrt", "--form", form_text(terms), "--j", str(j),
                             "--n-range", f"{positive_from(terms, j) + 1}..{n_hi}"],
                            "expand", {"terms": terms, "j": j}))
    for _ in range(DENOM_COUNT):
        while True:
            terms = _random_form(rng)
            if all(c.denominator == 1 for c, _ in terms):
                break
        b = rng.randint(2, 12)
        cmds.append(Command(["growth", "denom", "--form", form_text(terms), "--b", str(b),
                             "--n", f"1..{rng.randint(40, 60)}"], "denom",
                            {"terms": terms, "b": b}))
    size = {"forms": FORM_COUNT + len(ANCHOR_EXPANSIONS) + DENOM_COUNT, "commands": len(cmds)}
    return Workload("form_algebra", seed, cmds, size)


GENERATORS = {"family_sweep": family_sweep, "pell_solutions": pell_solutions,
              "form_algebra": form_algebra}


def generate(name: str, seed: int) -> Workload:
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; have {sorted(GENERATORS)}")
    return GENERATORS[name](seed)


def probe_commands() -> list[Command]:
    """Small fixed commands that touch every layer, run only in traced runs.

    They keep every per-layer metric measured on every workload (a layer
    the workload itself bypasses then reads the probe's small, steady
    time), and give the pool metrics a family to look at.
    """
    D = 1000099
    return [
        _family(["family", "--form", "2*4^n + 1", "--n", "2..18"], "2*4^n + 1", 2, 18),
        Command(["identities", "--n-max", "3"], "identities", {"checks": 30}),
        Command(["cf", "pell", str(D)], "cf_pell", {"D": D, "r": period(D)}),
        Command(["pell", "scan", "--D", str(D), "--C", "31"], "pell_scan_D", {"D": D, "C": 31}),
        Command(["pell", "scan", "--form", "2*4^n + 1", "--C", "2", "--n", "2..8"],
                "pell_scan_form", {"terms": [(2, 4), (1, 1)], "C": 2, "skips": {}}),
        Command(["profile", "pq", "--form", "2*4^n + 1", "--n", "2..6", "--c", "8"],
                "profile", {"terms": [(2, 4), (1, 1)]}),
        Command(["growth", "denom", "--form", "3^n + 1", "--b", "2", "--n", "1..16"],
                "denom", {"terms": [(1, 3), (1, 1)], "b": 2}),
        Command(["hypothesis", "check", "--form", "4^n + 2^n + 1"], "hypothesis",
                {"terms": [(Fraction(1), 4), (Fraction(1), 2), (Fraction(1), 1)]}),
        Command(["expand", "sqrt", "--form", "2*4^n + 1", "--j", "0", "--n-range", "2..24"],
                "expand", {"terms": [(Fraction(2), 4), (Fraction(1), 1)], "j": 0}),
    ]
