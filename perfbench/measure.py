"""Measuring process: runs one workload's commands in-process, pass after pass.

Started by ``run.py`` as a fresh interpreter so that its peak RSS (and
that of its pool workers) belongs to the workload alone.  Reads a JSON
spec on stdin, drives ``surdlab.cli.main(argv)`` closed-loop (one
caller, next command after the previous returns), and writes one JSON
result on stdout.  Command output is captured per command; the stdout
of every timed pass is digested so the caller can check that the bytes
never change.

Usage: python3 measure.py < spec.json   (spec written by run.py)
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    def __init__(self, argvs: list[list[str]], main, tracer=None):
        self.argvs = argvs
        self.main = main
        self.tracer = tracer

    def one_pass(self, keep_output: bool = False) -> dict:
        """Run every command once; the reference kernel (calibrate.py) runs
        between commands at least every ``calibrate.EVERY_S`` seconds."""
        lat, cpu, outputs, digests, kernels = [], [], [], [], []
        out_bytes = 0
        real_out, real_err = sys.stdout, sys.stderr
        last_kernel = -calibrate.EVERY_S
        try:
            for i, argv in enumerate(self.argvs):
                if time.perf_counter() - last_kernel >= calibrate.EVERY_S:
                    kernels.append(calibrate.kernel())
                    last_kernel = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.command = i
                sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
                c0, t0 = _cpu(), time.perf_counter()
                code = self.main(argv)
                lat.append(time.perf_counter() - t0)
                cpu.append(_cpu() - c0)
                out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
                sys.stdout, sys.stderr = real_out, real_err
                data = out.encode("utf-8")
                out_bytes += len(data)
                digests.append(hashlib.sha256(data + b"\0exit=%d" % code).hexdigest())
                if keep_output:
                    outputs.append({"code": code, "stdout": out, "stderr": err})
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        return {"wall": sum(lat), "lat": lat, "cpu": cpu, "kernel_s": kernels,
                "digests": digests, "out_bytes": out_bytes, "outputs": outputs}


def _median_time(fn, reps: int) -> float:
    """Median time of ``fn`` at nominal machine speed (see calibrate.py)."""
    times = []
    for _ in range(reps):
        k = statistics.mean(calibrate.kernel() for _ in range(3))
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * calibrate.NOMINAL_S / k)
    return statistics.median(times)


def layer_probes(spec: dict, outputs: list[dict]) -> dict:
    """Layer timings measured from outside through public functions."""
    from surdlab import harness, surd
    from surdlab.forms import parse_form

    word = spec["probe"]["word_D"]  # [[D, r], ...], word-size D
    word_ns = _median_time(lambda: [surd.period_length(D) for D, _ in word], 3)
    word_ns *= 1e9 / sum(r for _, r in word)

    D, steps = spec["probe"]["multilimb_D"], spec["probe"]["multilimb_steps"]

    def walk():
        stream = surd.cf_stream(D)
        for _ in range(steps):
            next(stream)

    multi_ns = _median_time(walk, 3) * 1e9 / steps

    # Family rows re-run one at a time (jobs=1) through run_family.
    row_times, sum_r, mismatched = [], 0, []
    for fam in spec["families"]:
        form = parse_form(fam["form"])
        records = []
        speed = calibrate.NOMINAL_S / statistics.mean(calibrate.kernel() for _ in range(5))
        for n in range(fam["n"][0], fam["n"][1] + 1):
            config = harness.ExperimentConfig(form, n, n, jobs=1)
            t0 = time.perf_counter()
            records += harness.run_family(config)
            row_times.append((time.perf_counter() - t0) * speed)
        sum_r += sum(rec.r or 0 for rec in records)
        if harness.emit(records, "csv").decode("utf-8") != outputs[fam["index"]]["stdout"]:
            mismatched.append(fam["index"])
    return {
        "surd.word_ns_per_step": word_ns,
        "surd.multilimb_ns_per_step": multi_ns,
        "row_s": row_times,
        "sum_r": sum_r,
        "serial_mismatch": mismatched,
    }


def span_metrics(tracer) -> dict:
    ms = 1e-6
    g = tracer.group_ns
    out = {
        "surd.pell_ms": g(("surd.fundamental_pell",)) * ms,
        "growth.min_solution_ms": g(("growth.min_solution_growth",)) * ms,
        "growth.bounded_scan_ms": g(("growth.bounded_pell_solutions",)) * ms,
        "growth.profile_ms": g(("growth.partial_quotient_profile",)) * ms,
        "growth.denominator_ms": g(("growth.denominator_growth",)) * ms,
        "harness.run_family_ms": g(("harness.run_family",)) * ms,
        "harness.identity_ms": g(("harness.run_identity_checks",)) * ms,
        "harness.emit_ms": g(("harness.emit",)) * ms,
        "expansion.decide_ms": g(("expansion.decide_hypothesis",)) * ms,
        "expansion.approx_ms": g(("expansion.sqrt_approximation",)) * ms,
        "expansion.error_table_ms": g(("expansion.error_table",)) * ms,
        "intervals.sqrt_ms": g(("intervals.sqrt_interval",)) * ms,
        "forms.parse_ms": g(("forms.parse_form",)) * ms,
        "forms.eval_ms": g(("forms.eval_exact", "forms.eval_int")) * ms,
        "forms.algebra_ms": g(("forms.mul", "forms.add", "forms.compose_affine",
                               "forms.normalize")) * ms,
        "forms.calls": tracer.count(("forms.",)),
        "cli.self_ms": tracer.module_self_ns("cli") * ms,
    }
    out.update(tracer.counts)
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    from surdlab import cli

    def main_(argv):  # looks cli.main up per call, so an installed tracer sees it
        return cli.main(argv)

    result: dict = {}
    runner = Runner(spec["argvs"], main_)
    first = runner.one_pass(keep_output=True)
    result["outputs"] = first.pop("outputs")
    result["first_digests"] = first["digests"]
    passes = []
    deadline = time.perf_counter() + spec["seconds"]

    if not spec["trace"]:
        while time.perf_counter() < deadline or len(passes) < spec["min_passes"]:
            passes.append(runner.one_pass())
    else:
        from tracer import Tracer

        tracer = Tracer()
        traced_runner = Runner(spec["argvs"], main_, tracer)
        traced, spans = [], []
        # Alternate untraced and traced passes; the layer probes get the rest.
        until = time.perf_counter() + spec["seconds"] * spec["traced_share"]
        while time.perf_counter() < until or len(traced) < spec["min_passes"]:
            passes.append(runner.one_pass())
            tracer.reset()
            tracer.install()
            try:
                traced.append(traced_runner.one_pass())
            finally:
                tracer.uninstall()
            spans.append(span_metrics(tracer))
        result["trace_spans"] = len(tracer)
        Path(spec["trace_file"]).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spec["trace_file"])
        result["traced"] = [{k: p[k] for k in ("wall", "kernel_s", "digests", "out_bytes")}
                            for p in traced]
        result["spans"] = spans
        result["probes"] = layer_probes(spec, result["outputs"])

    keys = ("wall", "cpu", "lat", "kernel_s", "digests", "out_bytes")
    result["passes"] = [{k: p[k] for k in keys} for p in passes]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(own, kids)
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
