"""Seeded input generators for the benchmark workloads.

Each workload turns a seed into a program source and an event trace. The
engine only ever sees these two texts, written to files; the same seed gives
byte-identical texts. ``scale`` shrinks or grows the run length (instants,
or steps per branch) without changing the shape, and is 1 for timed runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checkout import DEMOS

WIDE_PAR_WIDTH = 64
BIG_PROGRAM_BRANCHES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, float], tuple[str, str]]


def _keypad_stream(seed: int, scale: float) -> tuple[str, str]:
    rng = random.Random(seed)
    count = max(20, round(2500 * scale))
    # A fixed mix in seeded order: the seed moves which instant gets which
    # event, not how many of each there are, so counts vary little by seed.
    enters, clears, quiet = count * 15 // 100, count * 10 // 100, count * 5 // 100
    kinds = ["enter"] * enters + ["clear"] * clears + [""] * quiet
    kinds += ["digit"] * (count - len(kinds))
    rng.shuffle(kinds)
    lines = [f"digit={rng.randrange(10)}" if kind == "digit" else kind for kind in kinds]
    return (DEMOS / "keypad.rx").read_text(encoding="utf-8"), "\n".join(lines) + "\n"


def _wide_par(seed: int, scale: float) -> tuple[str, str]:
    rng = random.Random(seed)
    branches = []
    for i in range(WIDE_PAR_WIDTH):
        label = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4)) + str(i)
        if i % 2:
            branches.append(
                f'(rexp (seq (print "{label}") (suspend) (print "{label}b") (stop)))'
            )
        else:
            branches.append(f'(rexp (seq (print "{label}") (stop)))')
    program = "(loop\n (par\n  " + "\n  ".join(branches) + "))\n"
    # No events: every trace line is an empty instant.
    return program, "\n" * max(1, round(1000 * scale))


def _big_program(seed: int, scale: float) -> tuple[str, str]:
    rng = random.Random(seed)
    steps = max(1, round(120 * scale))
    branches = []
    for i in range(BIG_PROGRAM_BRANCHES):
        step = f'(set c{i} (+ (cell c{i}) (value v))) (print "c{i}={{cell:c{i}}}") (stop)'
        branches.append("(rexp (seq\n  " + "\n  ".join([step] * steps) + "))")
    program = "(par\n" + "\n".join(branches) + ")\n"
    # One instant per step, plus the one in which every branch ends.
    trace = "".join(f"v={rng.randrange(-50, 100)}\n" for _ in range(steps + 1))
    return program, trace


# Why each workload was chosen; BENCHMARK.json carries a one-line summary.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "keypad_stream",
            "The shipped demos/keypad.rx driven by a long seeded trace (digit=d about "
            "70%, enter 15%, clear 10%, quiet 5%). This is the paper's worked example. "
            "Every enter/clear raises Clear through the handler, and loop restarts read "
            "events, so restarts are deferred. Most of the work is kernel.dup and node "
            "growth (ROADMAP W2).",
            _keypad_stream,
        ),
        Workload(
            "wide_par",
            "(loop (par B0 ... B63)), where odd branches (print)(suspend)(print)(stop) "
            "and even ones (print)(stop). It has no events. Most of the work is merge "
            "stepping, micro-step re-steps under the implicit close, and same-instant "
            "restarts that copy the whole loop body, with 96 outputs per instant "
            "(ROADMAP W3). Width 64 stays below the binary-fold depth that breaks W4.",
            _wide_par,
        ),
        Workload(
            "big_program",
            "A generated, terminating (par ...) of 16 long branches. Each step does "
            "(set cI (+ (cell cI) (value v))), prints it and stops. The workload is "
            "dominated by setup and has no loop, so kernel.dup never runs. It is the dsl "
            "workload, and it also runs program over long frames.",
            _big_program,
        ),
    )
}


def write_inputs(name: str, seed: int, directory: Path, scale: float = 1.0) -> tuple[Path, Path]:
    """Generate the workload's inputs into ``directory``; return their paths."""
    program, trace = WORKLOADS[name].generate(seed, scale)
    directory.mkdir(parents=True, exist_ok=True)
    program_path = directory / "program.rx"
    trace_path = directory / "events.trace"
    program_path.write_text(program, encoding="utf-8")
    trace_path.write_text(trace, encoding="utf-8")
    return program_path, trace_path
