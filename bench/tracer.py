"""Span recorder for the traced run.

The engine has no tracing of its own, so the recorder wraps the public
functions of each layer from outside, for the length of one run, and puts
the originals back afterwards. Every wrapped call becomes a span: name,
start, end and the span that was open when it began. Spans stay in memory
(flat arrays) and are written out when the run ends. A span's self time is
its duration minus the time its child spans cover.

Layers are the modules of ``src/instants/``; ``core`` and ``keypad`` are
plumbing or example code and are not timed.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from instants import cli, dsl, program, world
from instants.kernel import Environment
from instants.world import World

# Node kinds reported one by one; a kind missing from a run reads 0.
NODE_KINDS = ("BasicNode", "MergeNode", "RifNode", "CloseNode",
              "LoopNode", "RepeatNode", "InitNode", "AwaitNode")
OUTCOMES = ("SUSP", "STOP", "END")


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: list[int] = []
        self.outer_s: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
            self.outer_s.append(0.0)
        return self._ids[name]

    def _wrapper(self, original: Callable, name: str, before: Callable | None,
                 after: Callable | None) -> Callable:
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, open_, outer = self._stack, self._open, self.outer_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(*args) if before is not None else None
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            open_[nid] += 1
            began = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                open_[nid] -= 1
                starts[index] = began
                ends[index] = ended
                if open_[nid] == 0:
                    outer[nid] += ended - began
            if after is not None:
                after(token, result, *args)
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str,
                    before: Callable | None = None, after: Callable | None = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, before, after))
        self._undo.append((cls, attr, original))

    def wrap_function(self, module, attr: str, name: str,
                      before: Callable | None = None, after: Callable | None = None) -> None:
        """Wrap a module-level function under every name that an engine
        module imported it as, so internal callers go through the wrapper."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "instants" and not mod_name.startswith("instants."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, outermost duration, self time, and the part
        of the self time spent inside a ``kernel.react`` span."""
        count = len(self.start)
        child_s = [0.0] * count
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child_s[p] += ends[i] - starts[i]
        react = self._ids.get("kernel.react", -1)
        under = bytearray(count)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        react_self_s = [0.0] * len(self.names)
        for i in range(count):
            nid = names[i]
            own = ends[i] - starts[i] - child_s[i]
            calls[nid] += 1
            self_s[nid] += own
            p = parents[i]
            if p >= 0 and (under[p] or names[p] == react):
                under[i] = 1
                react_self_s[nid] += own
        return {
            name: {"calls": calls[i], "s": self.outer_s[i], "self_s": self_s[i],
                   "self_under_react_s": react_self_s[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated row: id, parent id, name,
        start and end in microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                          f"{(self.start[i] - origin) * 1e6:.3f}\t"
                          f"{(self.end[i] - origin) * 1e6:.3f}\n")


@dataclass
class Probes:
    """Counts taken at the wrapped boundaries."""

    step_kinds: Counter = field(default_factory=Counter)
    step_outcomes: Counter = field(default_factory=Counter)
    dup_nodes_copied: int = 0
    nodes_at_react: list[int] = field(default_factory=list)
    nodes_compiled: int = 0


def install_layer_hooks(recorder: SpanRecorder) -> Probes:
    probes = Probes()

    def step_kind(env, r, *_):
        probes.step_kinds[type(env.nodes.get(r)).__name__] += 1

    def step_outcome(_token, status, *_):
        probes.step_outcomes[status.name] += 1

    def nodes_before(env, *_):
        return len(env.nodes)

    def dup_copied(before, _result, env, *_):
        probes.dup_nodes_copied += len(env.nodes) - before

    def react_sample(env, *_):
        probes.nodes_at_react.append(len(env.nodes))

    def compiled(_token, _root, _ast, env, *_):
        # The outermost compile_expr returns last, so its count stays.
        probes.nodes_compiled = len(env.nodes)

    recorder.wrap_function(dsl, "parse_program", "dsl.parse_program")
    recorder.wrap_function(dsl, "parse_trace", "dsl.parse_trace")
    recorder.wrap_function(dsl, "compile_expr", "dsl.compile_expr", after=compiled)
    recorder.wrap_method(Environment, "react", "kernel.react", before=react_sample)
    recorder.wrap_method(Environment, "step", "kernel.step", before=step_kind, after=step_outcome)
    recorder.wrap_method(Environment, "dup", "kernel.dup", before=nodes_before, after=dup_copied)
    recorder.wrap_method(Environment, "alloc", "kernel.alloc")
    recorder.wrap_method(Environment, "run_action", "kernel.run_action")
    recorder.wrap_function(program, "run_resumption", "program.run_resumption")
    recorder.wrap_method(World, "apply_instant", "world.apply_instant")
    recorder.wrap_function(world, "eval_cond", "world.eval_cond")
    recorder.wrap_method(World, "drain_output", "world.drain_output")
    recorder.wrap_function(cli, "run", "cli.run")
    recorder.wrap_function(cli, "format_trace", "cli.format_trace")
    return probes


def slope(values: list[int]) -> float:
    """Least-squares slope of values against their index."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2
    mean_y = sum(values) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in enumerate(values))
    den = sum((x - mean_x) ** 2 for x in range(n))
    return num / den


def layer_metrics(spans: dict, probes: Probes) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit)."""

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    steps = span("kernel.step", "calls")
    metrics = {
        "kernel.dup.calls": (span("kernel.dup", "calls"), "count"),
        "kernel.dup.s": (span("kernel.dup", "s"), "s"),
        "kernel.dup.nodes_copied": (probes.dup_nodes_copied, "count"),
        "kernel.alloc.calls": (span("kernel.alloc", "calls"), "count"),
        "kernel.nodes_per_instant": (slope(probes.nodes_at_react), "nodes/instant"),
        "kernel.step.calls": (steps, "count"),
    }
    for kind in NODE_KINDS:
        metrics[f"kernel.step.{kind}.calls"] = (probes.step_kinds[kind], "count")
    for outcome in OUTCOMES:
        metrics[f"kernel.step.outcome.{outcome}"] = (probes.step_outcomes[outcome], "count")
    metrics.update({
        "kernel.step.self_s": (span("kernel.step", "self_s"), "s"),
        "kernel.step.susp_share": (probes.step_outcomes["SUSP"] / steps if steps else 0.0, "share"),
        "kernel.react.calls": (span("kernel.react", "calls"), "count"),
        "kernel.react.self_s": (span("kernel.react", "self_s"), "s"),
        "kernel.run_action.calls": (span("kernel.run_action", "calls"), "count"),
        "program.run_resumption.calls": (span("program.run_resumption", "calls"), "count"),
        "program.run_resumption.self_s": (span("program.run_resumption", "self_s"), "s"),
        "world.apply_instant.s": (span("world.apply_instant", "s"), "s"),
        "world.eval_cond.calls": (span("world.eval_cond", "calls"), "count"),
        "world.eval_cond.s": (span("world.eval_cond", "s"), "s"),
        "world.drain_output.s": (span("world.drain_output", "s"), "s"),
        "dsl.parse_program.s": (span("dsl.parse_program", "s"), "s"),
        "dsl.parse_trace.s": (span("dsl.parse_trace", "s"), "s"),
        "dsl.compile_expr.s": (span("dsl.compile_expr", "s"), "s"),
        "dsl.nodes_compiled": (probes.nodes_compiled, "count"),
        "cli.format_trace.s": (span("cli.format_trace", "s"), "s"),
    })
    return metrics
