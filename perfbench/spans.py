"""Spans recorded from outside the package, around calls into its layers.

``instrument`` rebinds module attributes of ``levyhjm`` (and one method of
``VolatilitySpec``) to timing wrappers for the duration of a ``with`` block
and restores the originals afterwards, so no source file is edited and an
untraced run in the same process executes the original functions.  Every
module attribute that is the same function object is rebound, which covers
names imported with ``from .x import y`` as well as calls inside the
defining module.

Spans stay in memory in a :class:`Recorder`.  The benchmark runs the
package in one thread (``LEVYHJM_WORKERS`` unset), so one stack of open
spans gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, attribute, layer span name).  The layer name is the package
# module followed by the function name without a leading underscore.
TARGETS = [
    ("levyhjm.levy", "increment_table", "levy.increment_table"),
    ("levyhjm.levy", "grad_components", "levy.grad_components"),
    ("levyhjm.curvespace", "grid_derivative", "curvespace.grid_derivative"),
    ("levyhjm.curvespace", "norm_H", "curvespace.norm_H"),
    ("levyhjm.curvespace", "norm_star", "curvespace.norm_star"),
    ("levyhjm.curvespace", "partial_integral", "curvespace.partial_integral"),
    ("levyhjm.curvespace", "_shift_values", "curvespace.shift_values"),
    ("levyhjm.model", "VolatilitySpec.sigma_at", "model.sigma_at"),
    ("levyhjm.model", "running_volatility_integral", "model.running_volatility_integral"),
    ("levyhjm.model", "drift_functional", "model.drift_functional"),
    ("levyhjm.solver", "euler_transitions", "solver.euler_transitions"),
    ("levyhjm.solver", "picard_solve", "solver.picard_solve"),
    ("levyhjm.checks", "step_integrands", "checks.step_integrands"),
    ("levyhjm.checks", "verify_isometry", "checks.verify_isometry"),
    ("levyhjm.checks", "verify_bichteler_jacod", "checks.verify_bichteler_jacod"),
    ("levyhjm.checks", "verify_convolution_inequality", "checks.verify_convolution_inequality"),
    ("levyhjm.checks", "verify_martingale_bonds", "checks.verify_martingale_bonds"),
    ("levyhjm.checks", "verify_cumulant_derivatives", "checks.verify_cumulant_derivatives"),
    ("levyhjm.checks", "verify_exponential_moment", "checks.verify_exponential_moment"),
    ("levyhjm.cli", "load_scenario", "cli.load_scenario"),
    ("levyhjm.cli", "build_bundle", "cli.build_bundle"),
    ("levyhjm.cli", "_write_curves_csv", "cli.write_curves_csv"),
    ("levyhjm.cli", "_write_summary_csv", "cli.write_summary_csv"),
    ("levyhjm.cli", "_write_checks_csv", "cli.write_checks_csv"),
]


@dataclass
class Span:
    """One call into a layer: ``parent`` indexes the enclosing span or is -1."""

    name: str
    start: float
    end: float
    parent: int
    op: str


class Recorder:
    """In-memory spans and counters, grouped by the operation label ``op``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.op = ""
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        token = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        self._open.append(token)
        return token

    def end(self, token: int) -> None:
        self.spans[token].end = time.perf_counter()
        self._open.remove(token)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.op, name)] += amount


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per operation label: self seconds per layer name, plus the counters."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(rec.spans, self_times(rec.spans)):
        totals[span.op][span.name] += own
    for (op, name), value in rec.counts.items():
        totals[op][name] += value
    return {op: dict(v) for op, v in totals.items()}


def _n_curves(args, kwargs) -> int:
    curve = args[0] if args else kwargs["curve"]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    values = np.asarray(getattr(curve, "values", curve))
    return values.size // grid.n_nodes


def _after_call(rec: Recorder, layer: str, args, kwargs, result) -> None:
    """Work counters read from a layer call's arguments and result."""
    if layer == "curvespace.norm_H":
        rec.count("curvespace.norm_H.curves", _n_curves(args, kwargs))
    elif layer == "levy.increment_table":
        rec.count("levy.increment_table.draws", result.size)
    elif layer == "solver.picard_solve":
        rec.count("solver.picard.sweeps", result.sweeps)
        ens = result.ensemble
        rec.count("solver.alive", int((ens.exit_index >= ens.n_times).sum()))
        rec.count("solver.paths", ens.n_paths)
    elif layer == "cli.write_curves_csv":
        rec.count("cli.curves_csv.bytes", os.path.getsize(args[0]))


def _wrap_function(rec: Recorder, fn, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = rec.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(token)
        rec.count(layer + ".calls")
        _after_call(rec, layer, args, kwargs, result)
        return result

    return wrapper


def _wrap_transitions(rec: Recorder, fn, layer: str):
    """Time each resume of the ``euler_transitions`` generator as one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        rec.count(layer + ".calls")

        def traced():
            last = None
            try:
                while True:
                    token = rec.begin(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        rec.end(token)
                    if item[0] > 0:
                        rec.count("solver.steps")
                    last = item
                    yield item
            finally:
                gen.close()
            if last is not None:
                j, _t, states, exit_index = last
                rec.count("solver.alive", int((exit_index > j).sum()))
                rec.count("solver.paths", states.shape[0])

        return traced()

    return wrapper


@contextmanager
def instrument(rec: Recorder):
    """Rebind every target in the ``levyhjm`` modules while active."""
    restore: list[tuple[object, str, object]] = []
    # Import every module first: one imported while rebinding is under way
    # would bind wrappers into its namespace, and they would outlive the block.
    modules = {name: importlib.import_module(name) for name, _, _ in TARGETS}
    holders = [importlib.import_module("levyhjm"), *modules.values()]
    try:
        for module_name, attr, layer in TARGETS:
            owner = modules[module_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            make = _wrap_transitions if layer == "solver.euler_transitions" else _wrap_function
            wrapper = make(rec, original, layer)
            if path:  # a method: rebind on its class only
                restore.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield rec
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)
