"""Spans around the program's layer boundaries, recorded from outside it.

:class:`Tracer` replaces each layer function under every name a loaded
``hwvqe`` module binds it to (``hwvqe.partition.run_subansatz`` and the
``run_subansatz`` that ``vqe`` imported by name) with one wrapper that records a
span: name, start, end, parent span, and the work the call did. Spans stay in
memory; :meth:`Tracer.summary` derives per-layer counts and self time (a
span's duration minus that of its child spans) when the command has ended.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    work: dict[str, int] = field(default_factory=dict)


def _simulate_work(args, kwargs, out) -> dict[str, int]:
    qubits = out.num_qubits
    return {"amplitudes": 1 << qubits, "max_qubits": qubits}


def _sample_work(args, kwargs, out) -> dict[str, int]:
    return {"shots": int(kwargs["shots"] if "shots" in kwargs else args[1])}


def _subspace_work(args, kwargs, out) -> dict[str, int]:
    sa = args[0] if args else kwargs["sa"]
    return {"states": math.prod(math.comb(f.n, f.k) for f in sa.fragments())}


def _cost_work(args, kwargs, out) -> dict[str, int]:
    return {"states": len(args[0])}


def _optimize_work(args, kwargs, out) -> dict[str, int]:
    return {"evals": len(out[2])}


# (defining module, function, span name, work counter): one row per layer
# function. install() wraps it under every name a loaded hwvqe module binds it
# to, so callers that imported it by name are traced too. batch_evaluator is a
# factory: its wrapper traces the cost function it returns. COBYLA is scipy's
# minimize as vqe calls it.
BOUNDARIES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("hwvqe.qsim", "simulate", "qsim.simulate", _simulate_work),
    ("hwvqe.qsim", "sample", "qsim.sample", _sample_work),
    ("hwvqe.ansatz", "build_for", "ansatz.build_for", None),
    ("hwvqe.partition", "run_subansatz", "partition.run_subansatz", None),
    ("hwvqe.vqe", "optimize", "vqe.optimize", _optimize_work),
    ("scipy.optimize", "minimize", "vqe.minimize", None),
    ("hwvqe.vqe", "close_to_solution_theta", "vqe.close_to_solution_theta", None),
    ("hwvqe.problem", "batch_evaluator", "problem.cost", None),
    ("hwvqe.locate", "subspace_min", "locate.subspace_min", _subspace_work),
    ("hwvqe.locate", "locate_soft", "locate.locate", None),
    ("hwvqe.locate", "locate_hard", "locate.locate", None),
    ("hwvqe.locate", "greedy_bitstring", "locate.greedy_bitstring", None),
)

# The per-layer metrics the benchmark reports: (span, quantity, unit).
# "vqe.optimize" self time counts the COBYLA runs inside it (span
# "vqe.minimize"), so it holds COBYLA plus the objective's bookkeeping.
METRICS: tuple[tuple[str, str, str], ...] = (
    ("qsim.simulate", "calls", "count"),
    ("qsim.simulate", "amplitudes", "count"),
    ("qsim.simulate", "self_s", "s"),
    ("qsim.sample", "calls", "count"),
    ("qsim.sample", "shots", "count"),
    ("qsim.sample", "self_s", "s"),
    ("ansatz.build_for", "calls", "count"),
    ("ansatz.build_for", "self_s", "s"),
    ("partition.run_subansatz", "calls", "count"),
    ("partition.run_subansatz", "self_s", "s"),
    ("vqe.optimize", "evals", "count"),
    ("vqe.optimize", "self_s", "s"),
    ("vqe.close_to_solution_theta", "self_s", "s"),
    ("problem.cost", "calls", "count"),
    ("problem.cost", "states", "count"),
    ("problem.cost", "self_s", "s"),
    ("locate.subspace_min", "calls", "count"),
    ("locate.subspace_min", "states", "count"),
    ("locate.subspace_min", "self_s", "s"),
    ("locate.locate", "self_s", "s"),
    ("locate.greedy_bitstring", "steps", "count"),
    ("locate.greedy_bitstring", "self_s", "s"),
    ("cli", "self_s", "s"),
)


class Tracer:
    """Records spans for the wrapped boundaries of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.wrapped: set[str] = {"cli"}  # child.py wraps cli.main itself
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else -1, time.perf_counter())
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if work is not None:
                span.work = work(args, kwargs, out)
            return out

        return traced

    def _cost_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap("problem.cost", factory(*args, **kwargs), _cost_work)

        return traced_factory

    def install(self) -> None:
        """Wrap every boundary under each name a loaded hwvqe module binds it to.

        A boundary whose function does not exist, or that no hwvqe module
        binds, is listed in ``missing``.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hwvqe" or name.startswith("hwvqe."))]
        for module_name, attr, name, work in BOUNDARIES:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self._cost_factory(fn) if attr == "batch_evaluator" else self.wrap(name, fn, work)
            bound = [(m, key) for m in modules for key, value in list(vars(m).items()) if value is fn]
            for module, key in bound:
                setattr(module, key, traced)
            if bound:
                self.wrapped.add(name)
            else:
                self.missing.append(f"{module_name}.{attr}")

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, work and self time per wrapped layer, from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        layers = {name: {"calls": 0, "self_s": 0.0} for name in self.wrapped}
        if "locate.greedy_bitstring" in layers:
            layers["locate.greedy_bitstring"]["steps"] = 0
        for i, span in enumerate(self.spans):
            layer = layers[span.name]
            layer["calls"] += 1
            layer["self_s"] += span.end - span.start - child_time[i]
            for key, value in span.work.items():
                if key.startswith("max_"):
                    layer[key] = max(layer.get(key, 0), value)
                else:
                    layer[key] = layer.get(key, 0) + value
            parent = self.spans[span.parent].name if span.parent >= 0 else None
            if span.name == "problem.cost" and parent == "locate.greedy_bitstring":
                layers["locate.greedy_bitstring"]["steps"] += 1
        return layers


def per_layer_metrics(layers: dict[str, dict[str, float]]) -> dict[str, float]:
    """The reported metrics; those of a layer that was never wrapped are absent.

    COBYLA's own time (span "vqe.minimize") counts as self time of
    vqe.optimize, so that holds COBYLA plus the objective's bookkeeping.
    """
    out = {}
    for span, quantity, _ in METRICS:
        if span not in layers:
            continue
        value = layers[span].get(quantity, 0)
        if (span, quantity) == ("vqe.optimize", "self_s"):
            value += layers.get("vqe.minimize", {}).get("self_s", 0.0)
        out[f"{span}.{quantity}"] = value
    return out
