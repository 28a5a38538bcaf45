"""In-memory call spans around percolab's module boundaries, and the
per-layer metrics derived from them.

A ``Tracer`` replaces each traced function at every place it is looked up:
the modules bind each other's names with ``from .x import y``, so wrapping
only the defining module would miss most calls.  Each call records one span
``[name, start_ns, end_ns, parent, n]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``n`` is a work count taken from the
call's arguments or result after the span's clock has stopped (its small
cost lands in the parent's self time).

Self time is a span's duration minus the durations of its direct children.
Calls are single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

LAYERS = ("rng", "percolation", "qsampler", "holes", "estimators", "experiments", "cli")


def _size(x) -> int:
    return int(getattr(x, "size", 0))


def _nothing(args, result) -> int:
    return 0


def _retained(args, result) -> int:
    # levels[0] is the start word itself; it is looked up, not hashed.
    # count_nonzero keeps this tracing cost small next to the expansion.
    return sum(int(np.count_nonzero(level)) for level in result[1:])


# (module, attribute, span name, work count).  An attribute "Class.method"
# is wrapped on the class.  Private replica workers are the per-replica
# boundary of the batch drivers, so they are traced too.
TARGETS = (
    ("rng", "child_keys", "rng.child_keys", lambda a, r: _size(r)),
    ("rng", "unit_draws", "rng.unit_draws", lambda a, r: _size(a[0])),
    ("percolation", "LazyTree.expand_retained", "percolation.expand_retained", _retained),
    ("percolation", "LazyTree.count_profile", "percolation.count_profile", _nothing),
    ("percolation", "grid_from_digit_order", "percolation.grid_from_digit_order", _nothing),
    ("qsampler", "sample_step", "qsampler.sample_step", _nothing),
    ("qsampler", "sample_qpath", "qsampler.sample_qpath", lambda a, r: int(r.attempts)),
    ("qsampler", "ensemble_view", "qsampler.ensemble_view", _nothing),
    ("holes", "empty_block_sides", "holes.empty_block_sides", lambda a, r: _size(r)),
    ("holes", "max_empty_block", "holes.max_empty_block", _nothing),
    ("holes", "restricted_max_empty_block", "holes.restricted_max_empty_block", _nothing),
    ("holes", "window_min_sweep", "holes.window_min_sweep", _nothing),
    ("holes", "ball_porosities", "holes.ball_porosities", _nothing),
    ("estimators", "path_average_bracket", "estimators.path_average_bracket", _nothing),
    ("estimators", "ensemble_from_sweep", "estimators.ensemble_from_sweep", _nothing),
    ("estimators", "porosity_extremes", "estimators.porosity_extremes", _nothing),
    ("experiments", "run_path_batch_partial", "experiments.run_path_batch_partial", _nothing),
    ("experiments", "ensemble_sweep_parallel", "experiments.ensemble_sweep_parallel", _nothing),
    ("experiments", "dimension_slope", "experiments.dimension_slope",
     lambda a, r: int(r.candidates)),
    ("experiments", "_path_worker", "experiments.replica", _nothing),
    ("experiments", "_sweep_worker", "experiments.replica", _nothing),
    ("experiments", "_profile_worker", "experiments.replica", _nothing),
    ("cli", "run", "cli.run", _nothing),
)


class Tracer:
    """Records spans while installed; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: List[list] = []
        self._open: List[int] = []
        self._undo: List[tuple] = []

    def _wrap(self, fn: Callable, name: str, count: Callable) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, open_[-1] if open_ else -1, 0]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            span[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        owners = {t[0]: importlib.import_module("percolab." + t[0]) for t in TARGETS}
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "percolab"]
        for module_name, attr, name, count in TARGETS:
            owner = owners[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(original, name, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


# -- span arithmetic ----------------------------------------------------------


def durations(spans: Sequence[list]) -> List[float]:
    return [(s[2] - s[1]) * 1e-9 for s in spans]


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus its direct children's durations, seconds."""
    own = durations(spans)
    out = list(own)
    for span, dur in zip(spans, own):
        if span[3] >= 0:
            out[span[3]] -= dur
    return out


def layer_self_times(spans: Sequence[list]) -> Dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0].split(".")[0]] += own
    return totals


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[list], bytes_written: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run (no trace.overhead_frac)."""
    dur = durations(spans)
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, times: Sequence[float] = dur) -> float:
        return sum(times[i] for i in by_name.get(name, ()))

    def count(name: str) -> int:
        return sum(spans[i][4] for i in by_name.get(name, ()))

    rng_names = ("rng.child_keys", "rng.unit_draws")
    keys = sum(count(n) for n in rng_names)
    busy = sum(total(n) for n in rng_names)
    expand = set(by_name.get("percolation.expand_retained", ()))
    hashed = sum(spans[i][4] for i in by_name.get("rng.child_keys", ()) if spans[i][3] in expand)
    cells = count("holes.empty_block_sides")
    block_s = total("holes.empty_block_sides")
    replica = sorted(dur[i] for i in by_name.get("experiments.replica", ()))
    estimators = sum(total(n) for n in by_name if n.startswith("estimators."))
    # only dimension_slope consumes profiles as candidates
    candidates = count("experiments.dimension_slope")
    return {
        "rng.keys": keys,
        "rng.busy_s": busy,
        "rng.ns_per_key": _ratio(busy * 1e9, keys),
        "percolation.expand_calls": calls("percolation.expand_retained"),
        "percolation.expand_self_s": total("percolation.expand_retained", own),
        "percolation.nodes_hashed": hashed,
        "percolation.live_ratio": _ratio(count("percolation.expand_retained"), hashed),
        "percolation.profile_calls": calls("percolation.count_profile"),
        "percolation.profile_s": total("percolation.count_profile"),
        "percolation.reorder_s": total("percolation.grid_from_digit_order"),
        "qsampler.descent_steps": calls("qsampler.sample_step"),
        "qsampler.descent_s": total("qsampler.sample_step"),
        "qsampler.record_self_s": total("qsampler.sample_qpath", own),
        "qsampler.attempts_per_path": _ratio(
            count("qsampler.sample_qpath"), calls("qsampler.sample_qpath")
        ),
        "qsampler.view_s": total("qsampler.ensemble_view"),
        "holes.empty_block_calls": calls("holes.empty_block_sides"),
        "holes.empty_block_cells": cells,
        "holes.empty_block_s": block_s,
        "holes.ns_per_cell": _ratio(block_s * 1e9, cells),
        "holes.window_sweep_calls": calls("holes.window_min_sweep"),
        "holes.window_sweep_s": total("holes.window_min_sweep"),
        "holes.ball_self_s": total("holes.ball_porosities", own),
        "estimators.s": estimators,
        "experiments.replica_s_p50": statistics.median(replica) if replica else 0.0,
        "experiments.replica_s_max": replica[-1] if replica else 0.0,
        "experiments.profile_yield": _ratio(candidates, calls("percolation.count_profile"))
        if candidates else 0.0,
        "cli.self_s": total("cli.run", own),
        "cli.bytes_written": bytes_written,
    }

