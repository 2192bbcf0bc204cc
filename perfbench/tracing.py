"""Span tracing of the `acp` layers, installed from outside the package.

The package imports functions by name (``from .seeding import subseed``),
so wrapping only the defining module would miss most calls. ``Tracer``
replaces every attribute of every loaded ``acp`` module that refers to a
traced function, and the method on its class for traced methods, and puts
the originals back on exit.

Each call records a span: layer name, start, end, parent span and command
id. Spans stay in growable arrays in memory and are written out once, at the
end of the run. A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Layer name -> (module, attribute path) of each traced function.
LAYERS: dict[str, tuple[str, str]] = {
    "cli.main": ("acp.cli", "main"),
    "cli.write_csv": ("acp.cli", "write_csv"),
    "seeding.subseed": ("acp.seeding", "subseed"),
    "seeding.map_indexed": ("acp.seeding", "map_indexed"),
    "stopping.simulate_stopping": ("acp.stopping", "simulate_stopping"),
    "stopping.draw_gains": ("acp.stopping", "GainSequenceSpec.draw_gains"),
    "stopping.summarize_trials": ("acp.stopping", "summarize_trials"),
    "gp.a_priori_estimate": ("acp.gp", "a_priori_estimate"),
    "gp.information_gain": ("acp.gp", "information_gain"),
    "slope.run_slope_agent": ("acp.slope", "run_slope_agent"),
    "info.select_action": ("acp.info", "select_action"),
    "coloring.gen_erdos_renyi": ("acp.coloring", "gen_erdos_renyi"),
    "coloring.is_k_colorable": ("acp.coloring", "is_k_colorable"),
    "coloring.solve": ("acp.coloring", "solve"),
    "approx.to_instance": ("acp.approx", "KnapsackSpec.to_instance"),
    "approx.information_vs_epsilon": ("acp.approx", "information_vs_epsilon"),
}

#: Counts taken from arguments and return values: name -> unit.
COUNTS: dict[str, str] = {
    "cli.write_csv.rows": "count",
    "cli.write_csv.bytes": "bytes",
    "stopping.steps": "count",
    "gp.information_gain.cells": "count",
    "slope.agent_steps": "count",
    "slope.trials": "count",
    "slope.completed": "count",
    "coloring.generated": "count",
    "coloring.kept": "count",
    "coloring.expansions": "count",
    "approx.candidates": "count",
}


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_hooks(tracer: "Tracer") -> dict:
    """Layer name -> hook(fn, args, kwargs, result) that adds to tracer.counts."""
    c = tracer.counts

    def write_csv(fn, args, kwargs, result):
        c["cli.write_csv.rows"] += len(_argument(fn, args, kwargs, "rows"))
        c["cli.write_csv.bytes"] += os.path.getsize(_argument(fn, args, kwargs, "path"))

    def simulate_stopping(fn, args, kwargs, result):
        c["stopping.steps"] += result.n_steps

    def information_gain(fn, args, kwargs, result):
        grid = _argument(fn, args, kwargs, "grid")
        c["gp.information_gain.cells"] += _argument(fn, args, kwargs, "n_outcome_samples") * grid.values.size

    def run_slope_agent(fn, args, kwargs, result):
        c["slope.agent_steps"] += result.steps
        c["slope.trials"] += 1
        c["slope.completed"] += bool(result.completed)

    def is_k_colorable(fn, args, kwargs, result):
        c["coloring.generated"] += 1
        c["coloring.kept"] += bool(result)

    def solve(fn, args, kwargs, result):
        c["coloring.expansions"] += result.expansions

    def to_instance(fn, args, kwargs, result):
        c["approx.candidates"] += result.size

    return {
        "cli.write_csv": write_csv,
        "stopping.simulate_stopping": simulate_stopping,
        "gp.information_gain": information_gain,
        "slope.run_slope_agent": run_slope_agent,
        "coloring.is_k_colorable": is_k_colorable,
        "coloring.solve": solve,
        "approx.to_instance": to_instance,
    }


class Tracer:
    """Context manager that traces the LAYERS while it is active.

    Set ``command`` before each command; spans record it as their id.
    """

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.layer = array("H")
        self.parent = array("i")
        self.command_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.command = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn, hook):
        layer, parent, command_of, start, end = self.layer, self.parent, self.command_of, self.start, self.end
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            command_of.append(tracer.command)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        hooks = _count_hooks(self)
        modules = [m for name, m in list(sys.modules.items()) if name == "acp" or name.startswith("acp.")]
        for layer_id, (name, (module_name, path)) in enumerate(LAYERS.items()):
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer_id, original, hooks.get(name))
            if classes:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self seconds) per layer over spans[first:stop], which must hold whole commands."""
        n = stop - first
        layer = np.frombuffer(self.layer[first:stop], dtype=np.uint16)
        parent = np.frombuffer(self.parent[first:stop], dtype=np.int32)
        dur = np.frombuffer(self.end[first:stop]) - np.frombuffer(self.start[first:stop])
        child = parent >= 0
        child_time = np.bincount(parent[child] - first, weights=dur[child], minlength=n)
        own = dur - child_time
        k = len(self.names)
        return np.bincount(layer, minlength=k), np.bincount(layer, weights=own, minlength=k)

    def write(self, path: Path) -> None:
        """Write every span to an .npz file: layer index, parent, command, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            layer=np.array(self.layer, dtype=np.uint16),
            parent=np.array(self.parent, dtype=np.int32),
            command=np.array(self.command_of, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
