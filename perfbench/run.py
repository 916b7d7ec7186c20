"""surdlab benchmark: one seeded workload, measured end to end or traced.

Usage (from the root of a checkout that holds ``src/surdlab``):

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes;
``--trace 1`` prints the per-layer metrics from traced passes, the layer
probes and the tracing overhead.  Every command's output is checked
(``checks.py``); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without
a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.set_int_max_str_digits(0)  # Pell solutions print with tens of thousands of digits

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from surdlab import cli; "
              "sys.exit(cli.main(['cf', 'sqrt', '129']))")
MIN_PASSES = 3
TRACED_SHARE = 0.8  # of --seconds spent on untraced/traced pass pairs
WORD_PROBE = [2 * 4**n + 1 for n in (17, 18, 19)]  # word-size D, r = 23578, 65096, 404762
MULTILIMB_PROBE = (2 * 4**50 + 1, 50_000)  # 101-bit D, steps walked by cf_stream
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI and running it
    once: at nominal machine speed, and as measured."""
    times, scaled = [], []
    for _ in range(SETUP_REPS):
        k = statistics.mean(calibrate.kernel() for _ in range(3))
        t0 = time.perf_counter()
        # -S: without site hooks, which belong to the machine, not the program.
        # No timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run([sys.executable, "-S", "-c", SETUP_CODE, str(SRC)], check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * calibrate.NOMINAL_S / k)
    return statistics.median(scaled), statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        if (1 - p / 100) * len(ordered) >= 10:
            return p, ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]
    return 50.0, statistics.median(ordered)


def workload_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def judge(commands, res, workload: W.Workload, expected: dict) -> tuple[int, list[str]]:
    """Items attempted and failure messages over every check."""
    attempted, fails = 0, []
    for cmd, out in zip(commands, res["outputs"]):
        items, bad = checks.check(cmd, out)
        attempted += items
        fails += bad
    rows = [row for cmd in commands if cmd.kind == "family" for row in cmd.ref["rows"]]
    fails += checks.sympy_cross_check(rows)
    # Byte-identical stdout on every pass, traced or not.
    first = res["first_digests"]
    changed = {i for p in res["passes"] + res.get("traced", [])
               for i, d in enumerate(p["digests"]) if d != first[i]}
    fails += [f"{commands[i].argv}: stdout changed between passes" for i in sorted(changed)]
    for i in res.get("probes", {}).get("serial_mismatch", []):
        fails.append(f"{commands[i].argv}: serial rows differ from the jobs={W.JOBS} rows")
    # The stored digest of the default seed at the seed commit.
    want = expected["digests"].get(workload.name)
    if workload.seed == expected["default_seed"] and want is not None:
        attempted += 1
        got = workload_digest(first[:len(workload.commands)])
        if got != want:
            fails.append(f"workload stdout digest {got} != stored {want}")
    return attempted, fails


def speed(p: dict) -> float:
    """Factor that turns a time measured in pass ``p`` into one at nominal speed."""
    return calibrate.NOMINAL_S / statistics.mean(p["kernel_s"])


def end_to_end(res, setup: tuple[float, float]) -> tuple[dict, str]:
    """End-to-end metrics; ``setup`` is (scaled, as measured) from measure_setup."""
    passes = res["passes"]
    lat = [[x * speed(p) for x in p["lat"]] for p in passes]
    cpu = [[x * speed(p) for x in p["cpu"]] for p in passes]
    samples = [x for row in lat for x in row]
    pct, tail_s = tail(samples)
    # A pass is closed-loop, so its time is the sum of its commands' times;
    # summing per-command medians over passes keeps one slow stretch of a
    # shared machine from moving the whole pass.
    metrics = {
        "wall_s": (sum(statistics.median(c) for c in zip(*lat)), "s"),
        "cpu_s": (sum(statistics.median(c) for c in zip(*cpu)), "s"),
        "cmd_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "cmd_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (setup[0], "s"),
    }
    raw = sum(statistics.median(c) for c in zip(*(p["lat"] for p in passes)))
    factors = sorted(speed(p) for p in passes)
    note = (f"times are at nominal machine speed (calibrate.py): pass factors "
            f"{factors[0]:.3f}..{factors[-1]:.3f}; as measured, wall_s = {raw:.4f} s and "
            f"setup_s = {setup[1]:.4f} s\n"
            f"# wall_s sums per-command medians over {len(passes)} passes; "
            f"cmd_tail_ms is p{pct:g} of {len(samples)} command samples")
    return metrics, note


def per_layer(res) -> tuple[dict, str]:
    spans, probes = res["spans"], res["probes"]
    metrics = {}
    for name in spans[0]:
        unit = "ms" if name.endswith("_ms") else "count"
        values = [s[name] * (speed(p) if unit == "ms" else 1)
                  for s, p in zip(spans, res["traced"])]
        metrics[name] = (statistics.median(values), unit)
    row_s, run_family_ms = probes["row_s"], metrics["harness.run_family_ms"][0]
    metrics.update({
        "surd.word_ns_per_step": (probes["surd.word_ns_per_step"], "ns"),
        "surd.multilimb_ns_per_step": (probes["surd.multilimb_ns_per_step"], "ns"),
        "harness.row_ns_per_step": (sum(row_s) * 1e9 / probes["sum_r"], "ns"),
        "harness.pool_efficiency": (sum(row_s) * 1e3 / (W.JOBS * run_family_ms), "ratio"),
        "harness.max_row_share": (max(row_s) / sum(row_s), "ratio"),
        "cli.out_bytes": (res["traced"][0]["out_bytes"], "bytes"),
        "trace.overhead_share": (
            statistics.median(p["wall"] * speed(p) for p in res["traced"])
            / statistics.median(p["wall"] * speed(p) for p in res["passes"]) - 1, "ratio"),
    })
    note = (f"times are at nominal machine speed (calibrate.py); "
            f"{len(res['traced'])} traced passes, {res['trace_spans']} spans in the last; "
            f"{len(row_s)} family rows re-run serially")
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    expected = json.loads((HERE / "expected.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=expected["default_seed"])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "surdlab" / "cli.py").is_file():
        print(f"error: no surdlab sources under {SRC}", file=sys.stderr)
        return 2

    workload = W.generate(args.workload, args.seed)
    commands = workload.commands + (W.probe_commands() if args.trace else [])
    setup = None if args.trace else measure_setup()
    spec = {
        "src": str(SRC),
        "argvs": [c.argv for c in commands],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "min_passes": MIN_PASSES if not args.trace else 2,
        "traced_share": TRACED_SHARE,
        "trace_file": str(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"),
        "probe": {"word_D": [[D, W.period(D)] for D in WORD_PROBE],
                  "multilimb_D": MULTILIMB_PROBE[0], "multilimb_steps": MULTILIMB_PROBE[1]},
        "families": [{"form": c.ref["form"], "n": c.ref["n"], "index": i}
                     for i, c in enumerate(commands) if c.kind == "family"],
    }
    proc = subprocess.run([sys.executable, str(HERE / "measure.py")], input=json.dumps(spec),
                          capture_output=True, text=True, cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print("error: the measuring process failed", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout)

    attempted, fails = judge(commands, res, workload, expected)
    metrics, note = per_layer(res) if args.trace else end_to_end(res, setup)
    size = ", ".join(f"{k} {v:,}" for k, v in workload.size.items())
    print(f"# {workload.name} seed {workload.seed}, input size per pass: {size}")
    print(f"# {note}")
    for msg in fails[:20]:
        print(f"# FAILED {msg}")
    print(f"# failed_ops {len(fails)}/{attempted} = {len(fails) / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
