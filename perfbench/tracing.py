"""Per-layer tracing from outside the library.

``Tracer.install`` rebinds each traced public function, at every library
module that holds it by name (``desirable_set`` lives in ``desirability``
and is imported by ``ample``, ``modest``, ``stability`` and the package),
to a wrapper that records a span: name, start, end, parent span and op id.
``Instance.__post_init__`` is wrapped on the class as ``instance.build``.
``ChoiceFunction.evaluate`` is only counted, per family and per aggregate
side, because power-set tabulation calls it millions of times.
``Tracer.remove`` restores every original; the untraced run installs
nothing.

A layer's self time is its spans' total duration minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

from stablecontracts.choice import ChoiceFunction
from stablecontracts.instance import Instance

# Span name -> (home module, function name).
SPANS = {
    "choice.validate_plott": ("choice", "validate_plott"),
    "choice.dense_table": ("choice", "dense_table"),
    "fileformat.parse_instance": ("fileformat", "parse_instance"),
    "instance.reduce_to_two_agents": ("instance", "reduce_to_two_agents"),
    "desirability.desirable_set": ("desirability", "desirable_set"),
    "ample.ag_solve": ("ample", "ag_solve"),
    "ample.ag_step": ("ample", "ag_step"),
    "ample.enumerate_stable_via_ample": ("ample", "enumerate_stable_via_ample"),
    "modest.yang_solve": ("modest", "yang_solve"),
    "stability.is_stable": ("stability", "is_stable"),
    "stability.is_stable_multi": ("stability", "is_stable_multi"),
    "stability.blocking_contracts": ("stability", "blocking_contracts"),
    "oracle.brute_force_stable": ("oracle", "brute_force_stable"),
    "classical.gale_shapley": ("classical", "gale_shapley"),
    "classical.sotomayor_insert_solve": ("classical", "sotomayor_insert_solve"),
}
BUILD = "instance.build"
LAYERS = [*SPANS, BUILD]

_FAMILY = {"LinearOrder": "linear", "Quota": "quota", "Table": "table",
           "Aggregate": "aggregate"}


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stablecontracts"
                                  or name.startswith("stablecontracts."))]


class Tracer:
    """Spans and counters for one traced region; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sides: dict[int, str] = {}
        self._side_refs: list = []
        self._desirability_target: int | None = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _library_modules()
        for name, (home, attr) in SPANS.items():
            original = getattr(sys.modules[f"stablecontracts.{home}"], attr)
            wrapper = self._span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(Instance, "__post_init__",
                    self._span(BUILD, Instance.__post_init__))
        self._patch(ChoiceFunction, "evaluate",
                    self._counting_evaluate(ChoiceFunction.evaluate))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._sides.clear()
        self._side_refs.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- recording ------------------------------------------------------------

    def start_op(self, op: str) -> None:
        """Tag later spans with ``op``; aggregates of earlier ops are
        forgotten so their ids cannot be reused."""
        self.op = op
        self._sides.clear()
        self._side_refs.clear()

    def _span(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        desirability = name == "desirability.desirable_set"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if desirability:
                tracer._desirability_target = id(args[0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
                if desirability:
                    tracer._desirability_target = None
            tracer._after(name, args, result)
            return result

        wrapper.perfbench_trace = True
        return wrapper

    def _after(self, name: str, args, result) -> None:
        counts = self.counts
        if name == "choice.validate_plott":
            counts["choice.validate_plott.menu_pairs"] += 4 ** args[0].ground.bit_count()
        elif name == "fileformat.parse_instance":
            counts["fileformat.bytes_read"] += os.path.getsize(args[0])
        elif name == "modest.yang_solve":
            counts["modest.yang_solve.steps"] += result.steps
        elif name == "instance.reduce_to_two_agents":
            self._side_refs.append(result)
            self._sides[id(result.firm)] = "firm"
            self._sides[id(result.worker)] = "worker"

    def _counting_evaluate(self, evaluate):
        counts = self.counts
        sides = self._sides
        tracer = self

        @functools.wraps(evaluate)
        def counted(cf, menu):
            counts[_FAMILY.get(type(cf).__name__, "other")] += 1
            key = id(cf)
            side = sides.get(key)
            if side is not None:
                counts[side] += 1
            if key == tracer._desirability_target:
                counts["desirable_set.evals"] += 1
            return evaluate(cf, menu)

        counted.perfbench_trace = True
        return counted

    # -- results --------------------------------------------------------------

    def layer_totals(self, keep=None) -> dict[str, dict[str, float]]:
        """Calls and self time of every layer, over the spans whose op id
        passes ``keep`` (all spans when it is None)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (name, start, end, _, op), covered in zip(self.spans, child):
            if keep is None or keep(op):
                out[name]["calls"] += 1
                out[name]["self_s"] += end - start - covered
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")


def installed_wrappers() -> list[str]:
    """Library attributes that are still tracing wrappers (should be none)."""
    owners = [(m.__name__, vars(m)) for m in _library_modules()]
    owners += [(c.__name__, vars(c)) for c in (Instance, ChoiceFunction)]
    return [f"{name}.{key}" for name, namespace in owners
            for key, value in namespace.items()
            if getattr(value, "perfbench_trace", False)]
