"""Call-boundary tracing of library functions, installed from outside.

Each traced function object is wrapped once, and the wrapper replaces
every ``pcgraph.*`` module attribute bound to that object, so calls
through ``pcgraph.verify.project_z`` or ``pcgraph.graph.rank`` are
recorded like direct ones.  Spans live in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

TRACED = (
    "gf2.rank",
    "gf2.solve",
    "graph.validate",
    "graph.is_colorable",
    "graph.is_irreducible",
    "graph.brute_force_colorings",
    "states.build_state",
    "states.project_z",
    "states.x_product_distribution",
    "states.joint_z_probability",
    "states.build_qudit_family",
    "verify.verify",
    "verify.verify_qudit_family",
    "search.enumerate_pcgs",
    "search.canonical_form",
    "search.classify",
    "fileio.load_pcg_file",
    "cli.main",
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Work counts observed at the call boundary: counter name -> how to read
# one call's contribution from (args, kwargs, result).
COUNTERS = {
    "gf2.rank": ("gf2.rows_eliminated", lambda a, k, r: _first_arg(a, k, "m").rows),
    "gf2.solve": ("gf2.rows_eliminated", lambda a, k, r: _first_arg(a, k, "a").rows),
    "graph.brute_force_colorings": ("graph.census.assignments", lambda a, k, r: r.total),
    "states.project_z": (
        "states.project_z.amps_scanned", lambda a, k, r: len(_first_arg(a, k, "state").amplitudes),
    ),
    "search.enumerate_pcgs": ("search.forms_emitted", lambda a, k, r: len(r)),
}
COUNT_NAMES = ("gf2.rows_eliminated", "graph.census.assignments", "states.project_z.amps_scanned")


class Tracer:
    """Records (name, start, end, parent index) spans and boundary counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._wrappers: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Bind each function's single wrapper wherever the original is bound."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pcgraph" or name.startswith("pcgraph."))]
        for target in TRACED:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"pcgraph.{module_name}"), func_name)
            if target not in self._wrappers:
                self._wrappers[target] = self._wrap(target, original)
            wrapper = self._wrappers[target]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                key, read = counter
                self.counts[key] += read(args, kwargs, result)
            return result

        return wrapper

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per traced name: (calls, self seconds).

        Self time is a span's duration minus the durations of its child
        spans; calls run on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: (0, 0.0) for name in TRACED}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = totals[name]
            totals[name] = (calls + 1, self_s + (end - start) - child_time[i])
        return totals

    def root_time(self) -> float:
        """Summed duration of spans with no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: [name, start, end, parent index]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
