"""One timed run of a generated workload, in a fresh process.

Run as ``python3 bench/sample.py DIR``, where DIR holds ``program.rx``,
``events.trace`` and the oracle's ``expected.json``. Prints one JSON object:

- ``run_s``: wall times of whole in-process CLI runs, ``cli.run`` +
  ``cli.format_trace``, one per run;
- ``setup_s``: wall times of parse_program + parse_trace + compile_expr,
  one per set-up;
- ``latency_s``, ``instants``: the instant loop through the
  public API (apply_instant + react + drain_output per instant), closed
  loop, with no tracing;
- ``nodes_final`` and ``peak_rss_mb``: node count at the end of that loop,
  and this process's resident high-water mark, which all its runs share;
- ``attempted``/``failed``: instants of every run checked against the oracle;
- ``run_scale``, ``setup_scale``, ``latency_scale``: what brings each CLI
  run, the set-ups and each instant to the reference speed, from speed
  probes (``speed.py``) taken just before and just after them.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import checkout

checkout.use_sources()

from check import count_failures, load_expected  # noqa: E402
from instants.cli import RunConfig, format_trace, run  # noqa: E402
from instants.core import ReactiveError  # noqa: E402
from instants.dsl import compile_expr, parse_program, parse_trace  # noqa: E402
from instants.kernel import Environment  # noqa: E402
from speed import REFERENCE_S, probe_s  # noqa: E402

SETUPS = 3
CLI_RUNS = 2
SEGMENT_S = 0.05


def scale(before: float, after: float) -> float:
    """What brings a time measured between two speed probes to the
    reference speed."""
    return 2 * REFERENCE_S / (before + after)


def setup(program_text: str, trace_text: str):
    """Parse and compile as the CLI does; return the state and its wall time."""
    start = time.perf_counter()
    ast = parse_program(program_text)
    events = parse_trace(trace_text)
    env = Environment()
    root = compile_expr(ast, env)
    return (env, root, events), time.perf_counter() - start


def instant_loop(env: Environment, root, events) -> dict:
    """React once per trace entry, timing each instant. Between instants, a
    speed probe runs about every SEGMENT_S seconds, outside the timed part;
    each instant gets the scale of the two probes around it."""
    world = env.world
    latency = []
    latency_scale = []
    rows = []
    terminated = False
    error = None
    probes = [probe_s()]
    next_probe = time.perf_counter() + SEGMENT_S
    for instant in events:
        began = time.perf_counter()
        world.apply_instant(instant)
        try:
            done = env.react(root)
        except ReactiveError as exc:
            error = type(exc).__name__
            break
        outputs = world.drain_output()
        latency.append(time.perf_counter() - began)
        rows.append([outputs, env.statuses[root].name])
        if done:
            terminated = True
            break
        if time.perf_counter() >= next_probe:
            probes.append(probe_s())
            latency_scale += [scale(*probes[-2:])] * (len(latency) - len(latency_scale))
            next_probe = time.perf_counter() + SEGMENT_S
    probes.append(probe_s())
    latency_scale += [scale(*probes[-2:])] * (len(latency) - len(latency_scale))
    return {"latency": latency, "latency_scale": latency_scale, "rows": rows,
            "terminated": terminated, "error": error}


def main() -> int:
    parser = argparse.ArgumentParser(description="one timed run of a generated workload")
    parser.add_argument("dir", type=Path)
    args = parser.parse_args()
    program_path = args.dir / "program.rx"
    trace_path = args.dir / "events.trace"
    program_text = program_path.read_text(encoding="utf-8")
    trace_text = trace_path.read_text(encoding="utf-8")
    expected = load_expected(args.dir / "expected.json")

    # The first CLI run comes first, as in a fresh user process; the later
    # runs, the set-ups and the instant loop run on memory it has touched.
    config = RunConfig(program_path=str(program_path), trace_path=str(trace_path),
                       max_instants=max(1, expected["trace_instants"]))
    run_s = []
    probes = []
    attempted = failed = 0
    for _ in range(CLI_RUNS):
        gc.collect()
        probes.append(probe_s())
        start = time.perf_counter()
        trace, _code = run(config)
        text = format_trace(trace)
        run_s.append(time.perf_counter() - start)
        rows = [[record.outputs, record.status.name] for record in trace.instants]
        attempted += len(expected["instants"])
        failed += count_failures(expected, rows, trace.terminated, trace.error, text)
        trace = text = rows = None

    probes.append(probe_s())
    run_scale = [scale(before, after) for before, after in zip(probes, probes[1:])]

    setup_s = []
    state = None
    before = probe_s()
    for _ in range(SETUPS):
        state = None
        gc.collect()
        state, seconds = setup(program_text, trace_text)
        setup_s.append(seconds)
    env, root, events = state
    state = None
    gc.collect()
    setup_scale = scale(before, probe_s())

    loop = instant_loop(env, root, events)
    nodes_final = len(env.nodes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted += len(expected["instants"])
    failed += count_failures(expected, loop["rows"], loop["terminated"], loop["error"])

    json.dump({
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "latency_s": loop["latency"],
        "latency_scale": loop["latency_scale"],
        "instants": len(loop["rows"]),
        "nodes_final": nodes_final,
        "peak_rss_mb": peak_rss_mb,
        "run_s": run_s,
        "run_scale": run_scale,
        "attempted": attempted,
        "failed": failed,
    }, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
