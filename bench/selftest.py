#!/usr/bin/env python3
"""Self-test of the benchmark at a small size: ``python3 bench/selftest.py``.

For every workload: two generations from one seed must be byte-identical;
two traced runs must give identical per-layer counts; a timed run must have
no failed instant. ``kernel.dup.calls`` must be 0 on big_program, whose
program has no loop. Exits 0 when every check holds.
"""
from __future__ import annotations

import sys

import checkout
import run
from workloads import WORKLOADS, write_inputs

SEED = 7
SCALE = 0.05


def layer_counts(directory, expected) -> dict:
    """Every per-layer metric of one traced run that is not a time."""
    config = run.cli.RunConfig(
        program_path=str(directory / "program.rx"),
        trace_path=str(directory / "events.trace"),
        max_instants=max(1, expected["trace_instants"]),
    )
    trace, text, _seconds, recorder, probes = run.trace_layers(config)
    if run.cli_failures(expected, trace, text):
        raise AssertionError("traced run differs from the oracle")
    metrics = run.tracer.layer_metrics(recorder.summary(), probes)
    return {name: value for name, (value, unit) in metrics.items() if unit != "s"}


def check(workload: str) -> list[str]:
    problems = []
    base = checkout.OUT / "selftest" / workload
    first = write_inputs(workload, SEED, base / "a", SCALE)
    second = write_inputs(workload, SEED, base / "b", SCALE)
    for a, b in zip(first, second):
        if a.read_bytes() != b.read_bytes():
            problems.append(f"{a.name} differs between two generations")
    expected = run.prepare(workload, SEED, base / "a", SCALE)
    counts = layer_counts(base / "a", expected)
    again = layer_counts(base / "a", expected)
    for name in counts:
        if counts[name] != again[name]:
            problems.append(f"{name} differs between two traced runs: {counts[name]} != {again[name]}")
    if workload == "big_program" and counts["kernel.dup.calls"] != 0:
        problems.append(f"kernel.dup.calls is {counts['kernel.dup.calls']}, expected 0")
    sample = run.run_sample(base / "a")
    if sample["failed"]:
        problems.append(f"{sample['failed']} of {sample['attempted']} instants failed")
    return problems


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        problems = check(workload)
        failures += len(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
