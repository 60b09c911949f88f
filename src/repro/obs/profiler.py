"""Event-kernel profiling: where does the wall clock go?

Attached to a :class:`repro.sim.core.Simulator` as ``sim.profiler``, the
:class:`KernelProfiler` times every event callback the kernel fires and
attributes it to a coarse layer (derived from the callback's module:
``repro.paxos.engine`` -> ``paxos``), so a run can report *events
processed per simulated second* and *wall-clock per event category* --
the baseline numbers any future hot-path optimisation has to beat.
A process resume is the kernel's own ``Process._resume`` only in name:
the time is spent in the generator it drives, so it is attributed to
the module that defines that generator (the layer owning the process).

The hook costs one attribute check per event when disabled (the kernel
tests ``sim.profiler is None``); when enabled it adds two
``perf_counter`` reads per event.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict


def category_of_module(module: str) -> str:
    """Map a callback's module to a coarse layer name.

    ``repro.paxos.engine`` -> ``paxos``; anything outside ``repro``
    keeps its top-level package name; unknowable callables -> ``other``.
    """
    if not module:
        return "other"
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


def _module_of_file(filename: str) -> str:
    """The imported module whose source file is ``filename``."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return ""


class KernelProfiler:
    """Per-category event counts and wall-clock, for one simulator."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.events = 0
        self.wall_s = 0.0
        # category -> [event count, wall seconds]
        self.by_category: Dict[str, list] = {}
        # callback module name, or process-body source file -> category
        self._category_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def record(self, fn, wall_s: float) -> None:
        """Called by the kernel after each event callback returns."""
        self.events += 1
        self.wall_s += wall_s
        # A process resume (``Process._resume``) belongs to the layer
        # that wrote the generator, not to the kernel.
        gen = getattr(getattr(fn, "__self__", None), "_gen", None)
        if gen is None:
            key = getattr(fn, "__module__", "") or ""
        else:
            key = gen.gi_code.co_filename
        category = self._category_cache.get(key)
        if category is None:
            module = key if gen is None else _module_of_file(key)
            category = self._category_cache[key] = category_of_module(module)
        entry = self.by_category.get(category)
        if entry is None:
            entry = self.by_category[category] = [0, 0.0]
        entry[0] += 1
        entry[1] += wall_s

    # ------------------------------------------------------------------
    def summary(self, sim_elapsed_s: float) -> dict:
        """JSON-serializable profile over ``sim_elapsed_s`` of sim time."""
        categories = {}
        for category, (count, wall) in sorted(
                self.by_category.items(),
                key=lambda item: item[1][1], reverse=True):
            categories[category] = {
                "events": count,
                "wall_s": round(wall, 6),
                "wall_us_per_event": round(1e6 * wall / count, 3)
                if count else 0.0,
            }
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "sim_s": sim_elapsed_s,
            "events_per_sim_s": round(self.events / sim_elapsed_s, 3)
            if sim_elapsed_s > 0 else 0.0,
            "events_per_wall_s": round(self.events / self.wall_s, 1)
            if self.wall_s > 0 else 0.0,
            "by_category": categories,
        }
