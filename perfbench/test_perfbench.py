"""Tests of the benchmark itself: seeded generators, expected exits, metric names.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.set_int_max_str_digits(0)

import checks  # noqa: E402
import workloads as W  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_same_argv_other_seed_other_argv(name):
    first = W.generate(name, 7).argvs()
    assert W.generate(name, 7).argvs() == first
    assert W.generate(name, 8).argvs() != first


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_generated_commands_exit_as_expected_and_pass_checks(name):
    from surdlab import cli

    workload = W.generate(name, EXPECTED["default_seed"])
    for cmd in workload.commands + W.probe_commands():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(cmd.argv)
        assert code == 0, (cmd.argv, err.getvalue())
        _, fails = checks.check(cmd, {"code": code, "stdout": out.getvalue(),
                                      "stderr": err.getvalue()})
        assert not fails, fails


def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pell_solutions", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(NAME.match(name) for name in printed)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "form_algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
