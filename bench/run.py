#!/usr/bin/env python3
"""Benchmark of the instant engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's program and event trace from the seed, checks the
shipped demos against their goldens and computes the reference
interpreter's expected run (untimed). Then:

- ``--trace 0`` measures end to end for ``--seconds`` seconds. Load is one
  closed loop: each instant starts only when the previous ``react`` has
  returned, and timed runs go one after another, each in a fresh process
  (``sample.py``). Every time is brought to a reference host speed by the
  speed probes around it (``speed.py``). Reports medians over the runs.
  Every run reacts to the same instants, so each instant's latency is taken
  as its median over the runs; the latency percentiles and instants per
  second are over that per-instant profile, which keeps a burst of other
  work on the host out of the tail.
- ``--trace 1`` runs the workload once more with every layer's public
  functions wrapped by the span recorder (``tracer.py``), reports per-layer
  counts and times, writes the spans to ``.bench_out/``, and prints the
  ROADMAP's W1-W5 rows for information.

Every run's outputs are compared with the oracle's. The last line of
standard output is the JSON result; the lines before it repeat every metric
by name and unit for people.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

checkout.use_sources()

import roadmap  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from check import count_failures, demo_mismatches, expected_run, save_expected  # noqa: E402
from instants import cli  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
MIN_SAMPLES = 3
REPEATS = 3
SAMPLE_TIMEOUT_S = 150


def prepare(workload: str, seed: int, directory: Path, scale: float = 1.0) -> dict:
    """Write the workload's inputs and the oracle's expected run."""
    program_path, trace_path = write_inputs(workload, seed, directory, scale)
    expected = expected_run(program_path, trace_path)
    if expected["error"] is not None:
        # Workloads are chosen so that no instant fails in the oracle.
        raise SystemExit(f"bench: oracle reports {expected['error']} on {workload} seed {seed}")
    save_expected(expected, directory / "expected.json")
    return expected


def run_sample(directory: Path) -> dict:
    """One timed run in a fresh process; see sample.py."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), str(directory)],
        capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: timed run exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The p99 when at least ten samples lie beyond it, otherwise the
    highest percentile that has ten beyond it; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, min(math.ceil(0.99 * n) - 1, n - 11))
    return ordered[k], 100 * (k + 1) / n


def timings(samples: list[dict], at_reference: bool) -> tuple[dict, float]:
    """The timed metrics over the runs, at the reference host speed or as
    measured; also returns the percentile that react_p99_us uses."""
    def k(scale: float) -> float:
        return scale if at_reference else 1.0

    setups = [s * k(sample["setup_scale"]) for sample in samples for s in sample["setup_s"]]
    cli_runs = [s * k(scale) for sample in samples
                for s, scale in zip(sample["run_s"], sample["run_scale"])]
    # Runs that stopped early have already failed the oracle check.
    reacted = min(len(sample["latency_s"]) for sample in samples)
    profile = [statistics.median(sample["latency_s"][i] * k(sample["latency_scale"][i])
                                 for sample in samples)
               for i in range(reacted)]
    p99, percentile = tail(profile)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(cli_runs), "s"),
        "instants_per_s": (reacted / sum(profile), "1/s"),
        "react_p50_us": (statistics.median(profile) * 1e6, "us"),
        "react_p99_us": (p99 * 1e6, "us"),
    }, percentile


def timed(directory: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        samples.append(run_sample(directory))
    metrics, percentile = timings(samples, at_reference=True)
    raw, _ = timings(samples, at_reference=False)
    scales = [k for sample in samples
              for k in (*sample["run_scale"], sample["setup_scale"], *sample["latency_scale"])]
    nodes = {sample["nodes_final"] for sample in samples}
    attempted = sum(sample["attempted"] for sample in samples)
    failed = sum(sample["failed"] for sample in samples)
    if len(nodes) != 1:
        failed += 1
    metrics.update({
        "peak_rss_mb": (statistics.median(sample["peak_rss_mb"] for sample in samples), "MB"),
        "nodes_final": (max(nodes), "count"),
        "ok_share": (1 - failed / attempted, "share"),
    })
    notes = [
        f"{len(samples)} timed runs, each in a fresh process; "
        f"{samples[0]['instants']} instants per run",
        f"setup_s is the median of {sum(len(s['setup_s']) for s in samples)} set-ups, "
        f"run_s of {sum(len(s['run_s']) for s in samples)} CLI runs; instants_per_s is "
        f"instants over the summed per-instant latency",
        f"react_p99_us is the p{percentile:.2f} of {samples[0]['instants']} instants, "
        f"each the median of {len(samples)} runs",
        f"times are at the reference host speed: each is multiplied by "
        f"{speed.REFERENCE_S * 1e3:.2f} ms over the speed probes around it "
        f"(scales {min(scales):.3f} to {max(scales):.3f}); as measured:",
        *(f"  raw {name:<28} {value:>16.6f} {unit}" for name, (value, unit) in raw.items()),
        f"failed_share {failed / attempted:.6f} ({failed} of {attempted} instants); "
        f"ok_share = 1 - failed_share",
    ]
    if len(nodes) != 1:
        notes.append(f"nodes_final differs between identical runs: {sorted(nodes)}")
    return metrics, attempted, failed, notes


def cli_run(config: cli.RunConfig):
    """One in-process CLI run: cli.run + cli.format_trace, and its wall time."""
    start = time.perf_counter()
    trace, _code = cli.run(config)
    text = cli.format_trace(trace)
    return trace, text, time.perf_counter() - start


def cli_failures(expected: dict, trace, text: str) -> int:
    rows = [[record.outputs, record.status.name] for record in trace.instants]
    return count_failures(expected, rows, trace.terminated, trace.error, text)


def trace_layers(config: cli.RunConfig):
    """One CLI run with every layer's public functions wrapped."""
    recorder = tracer.SpanRecorder()
    probes = tracer.install_layer_hooks(recorder)
    try:
        trace, text, seconds = cli_run(config)
    finally:
        recorder.restore()
    return trace, text, seconds, recorder, probes


def traced(directory: Path, expected: dict) -> tuple[dict, int, int, list[str]]:
    config = cli.RunConfig(
        program_path=str(directory / "program.rx"),
        trace_path=str(directory / "events.trace"),
        max_instants=max(1, expected["trace_instants"]),
    )
    failed = 0
    untraced, traced_s = [], []
    for _ in range(REPEATS):
        gc.collect()
        trace, text, seconds = cli_run(config)
        failed += cli_failures(expected, trace, text)
        untraced.append(seconds)
        trace = text = None
        gc.collect()
        trace, text, seconds, recorder, probes = trace_layers(config)
        failed += cli_failures(expected, trace, text)
        traced_s.append(seconds)
    attempted = 2 * REPEATS * len(expected["instants"])

    spans = recorder.summary()
    spans_path = directory / "spans.tsv.gz"
    recorder.write(spans_path)
    metrics = tracer.layer_metrics(spans, probes)
    metrics["trace_overhead"] = (statistics.median(traced_s) / statistics.median(untraced), "ratio")

    notes = [f"{len(recorder.start)} spans written to {spans_path.relative_to(checkout.ROOT)}",
             "self time inside kernel.react, by span name:"]
    under = sorted(((v["self_under_react_s"], name) for name, v in spans.items()
                    if v["self_under_react_s"] > 0), reverse=True)
    notes += [f"  {name:<24} {seconds:.6f} s" for seconds, name in under]
    if spans["kernel.dup"]["calls"]:
        dup_s = spans["kernel.dup"]["s"]
        largest = dup_s > max((seconds for seconds, name in under if name != "kernel.dup"), default=0.0)
        notes.append(f"kernel.dup.s ({dup_s:.6f} s) is larger than every other self time "
                     f"inside kernel.react: {'yes' if largest else 'no'}")
    others = sorted(set(probes.step_kinds) - set(tracer.NODE_KINDS))
    if others:
        notes.append(f"steps of unlisted node kinds: {dict((k, probes.step_kinds[k]) for k in others)}")
    rows, rows_failed = roadmap.rows(checkout.OUT / "roadmap")
    notes.append(f"ROADMAP baseline rows (information only; {rows_failed} of "
                 f"{len(roadmap.THROUGHPUT_ROWS) + len(roadmap.CLI_ROWS)} failed, not gated):")
    notes += [f"  {line}" for line in rows]
    return metrics, attempted, failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the instant engine.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bad_demos = demo_mismatches()
    if bad_demos:
        print(f"bench: shipped demos differ from their goldens: {', '.join(bad_demos)}",
              file=sys.stderr)
        return 1
    directory = checkout.OUT / f"{args.workload}-{args.seed}"
    expected = prepare(args.workload, args.seed, directory)
    if args.trace:
        metrics, attempted, failed, notes = traced(directory, expected)
    else:
        metrics, attempted, failed, notes = timed(directory, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'}")
    print(f"  why: {WORKLOADS[args.workload].why}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6f} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
