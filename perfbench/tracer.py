"""In-memory span recorder around surdlab's public functions.

``Tracer.install`` replaces every public, non-generator function of the
seven surdlab modules with a wrapper that records one span per call:
name, start, end, parent span and command id.  A function re-bound by
``from .x import y`` (``cli.decide_hypothesis``, ``growth.eval_int``, ...)
is replaced in every namespace that holds it, by the same wrapper, so
calls through any binding are seen.  Generator functions (``cf_stream``,
``pell_value_stream``) are left alone: their work is interleaved with the
caller and shows up in the caller's span.  ``uninstall`` restores the
originals.  Nothing in ``src/`` is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

MODULES = ("surd", "forms", "expansion", "intervals", "growth", "harness", "cli")


def _count_hooks():
    """Counts taken at span boundaries from arguments and results."""

    def pell_bits(args, kwargs, sol):
        return sol.X.bit_length() + sol.Y.bit_length()

    def cap_skips(args, kwargs, result):
        return sum(1 for _, reason in result.skipped if reason == "cap")

    def word_cap_rows(args, kwargs, records):
        return sum(1 for rec in records if rec.notes == "word-cap")

    def series_terms(args, kwargs, approx):
        return len(approx.series_form)

    def sqrt_bits(args, kwargs, result):
        return args[1] if len(args) > 1 else kwargs["bits"]

    return {
        "surd.fundamental_pell": ("surd.pell_result_bits", pell_bits),
        "growth.min_solution_growth": ("growth.cap_skips", cap_skips),
        "harness.run_family": ("harness.word_cap_rows", word_cap_rows),
        "expansion.sqrt_approximation": ("expansion.series_terms", series_terms),
        "intervals.sqrt_interval": ("intervals.sqrt_bits", sqrt_bits),
    }


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._hooks = _count_hooks()
        self._patches: list[tuple[object, str, object]] = []
        self.command = -1
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.cmd = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {key: 0 for key, _ in self._hooks.values()}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, fn, qualname: str):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        hook = self._hooks.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.cmd.append(self.command)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                key, count = hook
                self.counts[key] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"surdlab.{short}")
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("surdlab.")
                        or inspect.isgeneratorfunction(value)):
                    continue
                key = id(value)
                if key not in wrappers:
                    owner = value.__module__.rsplit(".", 1)[1]
                    wrappers[key] = self._wrap(value, f"{owner}.{value.__qualname__}")
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[key])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[int]:
        """Span duration minus the time its direct child spans cover."""
        dur = self.durations()
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def group_ns(self, prefixes: tuple[str, ...]) -> int:
        """Wall time inside spans whose name starts with one of ``prefixes``.

        Nested spans of the group are counted once, through their
        outermost ancestor in the group.
        """
        member = [n.startswith(prefixes) for n in self.names]
        inside = [False] * len(self.name)  # has an ancestor in the group
        total = 0
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            if p >= 0:
                inside[i] = inside[p] or member[self.name[p]]
            if member[nid] and not inside[i]:
                total += self.end[i] - self.start[i]
        return total

    def count(self, prefixes: tuple[str, ...]) -> int:
        member = [n.startswith(prefixes) for n in self.names]
        return sum(1 for nid in self.name if member[nid])

    def module_self_ns(self, module: str) -> int:
        member = [n.split(".", 1)[0] == module for n in self.names]
        return sum(t for nid, t in zip(self.name, self.self_times()) if member[nid])

    def write(self, path) -> None:
        """One JSON file: span columns plus per-name totals and self times."""
        dur, self_t = self.durations(), self.self_times()
        totals = {n: {"calls": 0, "total_ns": 0, "self_ns": 0} for n in self.names}
        for nid, d, s in zip(self.name, dur, self_t):
            row = totals[self.names[nid]]
            row["calls"] += 1
            row["total_ns"] += d
            row["self_ns"] += s
        payload = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "command"],
            "spans": [list(row) for row in zip(self.name, self.start, self.end,
                                               self.parent, self.cmd)],
            "totals": {n: v for n, v in totals.items() if v["calls"]},
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
