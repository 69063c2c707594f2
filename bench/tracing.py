"""Spans and captures recorded by wrappers around the program's public functions.

A wrapper is installed in every ``memsim`` module namespace that binds the
wrapped function (``memsim.learning.edge_currents`` as well as
``memsim.network.edge_currents``), so every call site is seen.  The program
itself is not changed; ``Patches.restore`` puts the originals back.

Spans stay in memory.  Calls of the hot leaf functions (thousands per
experiment) are only aggregated; every other span is kept with its start,
end and parent so the call tree can be written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


class Patches:
    """Replaces functions in every loaded ``memsim`` namespace that binds them."""

    def __init__(self):
        self._undo = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name != "memsim" and not name.startswith("memsim."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def replace_attr(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def replace_item(self, mapping: dict, key, make_wrapper) -> None:
        original = mapping[key]
        self._undo.append((mapping, key, original))
        mapping[key] = make_wrapper(original)

    def restore(self) -> None:
        for owner, key, val in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = val
            else:
                setattr(owner, key, val)
        self._undo.clear()


class Capture:
    """Keeps (args, kwargs, result) of selected calls while ``active``."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(list)

    def wrapper(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.active:
                    self.calls[name].append((args, kwargs, result))
                return result
            return wrapped
        return make


class Tracer:
    """Aggregates span time (total and self) and counters per span name."""

    def __init__(self, hot=()):
        self.hot = frozenset(hot)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []  # (span_id, parent_id, name, start, end) of non-hot spans
        self._stack = []  # [span_id, child_time]
        self._next_id = 0

    def wrapper(self, name: str, counter=None):
        """Span ``name`` around each call; ``counter(args, kwargs, result)`` adds to counts."""
        record = name not in self.hot
        stack = self._stack
        clock = time.perf_counter
        calls_key = name + ".calls"
        total, self_time, counts, spans = self.total, self.self_time, self.counts, self.spans

        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                self._next_id += 1
                frame = [self._next_id, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - start
                    counts[calls_key] += 1
                    total[name] += dur
                    self_time[name] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    if record:
                        spans.append((frame[0], stack[-1][0] if stack else 0, name, start, end))
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        counts[name + "." + key] += value
                return result
            return wrapped
        return make

    def snapshot(self) -> dict[str, float]:
        """Cumulative ``<name>.s``, ``<name>.self_s`` and counters so far."""
        out = dict(self.counts)
        for name, value in self.total.items():
            out[name + ".s"] = value
            out[name + ".self_s"] = self.self_time[name]
        return out


def install_layer_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap the layer boundaries the benchmark reports (see README.md)."""
    import memsim.cli as cli
    from memsim.core import Trace

    def steps_of_spec(args, kwargs, result):
        spec = kwargs["spec"] if "spec" in kwargs else args[2]
        return {"steps": spec.n_steps}

    def steps_of_run(args, kwargs, result):
        return {"steps": result.trace.n_samples - 1}

    def csv_bytes(args, kwargs, result):
        target = kwargs.get("path_or_file", args[1] if len(args) > 1 else None)
        ok = isinstance(target, (str, bytes, os.PathLike))
        return {"bytes": os.path.getsize(target) if ok else 0}

    spans = {
        "memsim.network": ["edge_currents", "simulate_network", "linearize", "soc_experiment",
                           "cycle_projector", "solve_maze"],
        "memsim.core": ["integrate", "eval_signal", "loop_area", "power_spectrum_exponent"],
        "memsim.devices": ["simulate_hp_voltage_driven"],
        "memsim.circuits": ["plant_simulate", "hh_simulate", "amoeba_simulate", "mc_simulate"],
        "memsim.crossbar": ["write_pulse", "read_bit", "read_mvm", "nodal_oracle"],
        "memsim.learning": ["rc_run", "lca_simulate", "fit_readout"],
    }
    counters = {"integrate": steps_of_spec, "simulate_network": steps_of_run}
    for module, names in spans.items():
        layer = module.split(".")[1]
        for fn in names:
            patches.replace(module, fn, tracer.wrapper(f"{layer}.{fn}", counters.get(fn)))
    patches.replace_attr(Trace, "to_csv", tracer.wrapper("core.Trace.to_csv", csv_bytes))
    for key in list(cli.RUNNERS):
        patches.replace_item(cli.RUNNERS, key, tracer.wrapper("cli.runner"))


HOT_SPANS = ("network.edge_currents", "core.eval_signal")
