"""Correctness checks against the reference interpreter and the demo goldens.

The expected run of a workload comes from ``tests/reference.py::oracle_run``,
an independent interpreter of the same AST, computed once per seed and never
timed. Engine runs are compared instant by instant: outputs and root status,
then the terminal summary, then the rendered text.
"""
from __future__ import annotations

import json
from pathlib import Path

from checkout import DEMOS
from instants.cli import RunConfig, format_trace, run
from instants.dsl import parse_program, parse_trace
from reference import oracle_run

# (program, trace, golden, format), as shipped in demos/.
DEMO_GOLDENS = (
    ("merge_pair.rx", None, "merge_pair.golden", "text"),
    ("suspend_close.rx", None, "suspend_close.golden", "text"),
    ("keypad.rx", "keypad_enter.trace", "keypad_enter.golden", "text"),
    ("keypad.rx", "keypad_clear.trace", "keypad_clear.golden", "text"),
    ("keypad.rx", "keypad_enter.trace", "keypad_enter.golden.json", "json"),
)


def render_text(instants: list, terminated: bool, error: str | None) -> str:
    """The CLI's text format, written from the oracle's result."""
    lines = [f"{i}: " + "|".join(outputs) if outputs else f"{i}:"
             for i, (outputs, _status) in enumerate(instants, start=1)]
    if error is not None:
        lines.append(f"error: {error}")
    else:
        lines.append("terminated" if terminated else "alive")
    return "\n".join(lines) + "\n"


def expected_run(program_path: Path, trace_path: Path) -> dict:
    """Run the oracle on the workload's files; the result is JSON-ready."""
    ast = parse_program(program_path.read_text(encoding="utf-8"))
    events = parse_trace(trace_path.read_text(encoding="utf-8"))
    instants, terminated, error = oracle_run(ast, events)
    rows = [[list(outputs), status] for outputs, status in instants]
    return {
        "instants": rows,
        "terminated": terminated,
        "error": error,
        "text": render_text(rows, terminated, error),
        "trace_instants": len(events),
    }


def save_expected(expected: dict, path: Path) -> None:
    path.write_text(json.dumps(expected), encoding="utf-8")


def load_expected(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def count_failures(expected: dict, rows: list, terminated: bool, error: str | None,
                   text: str | None = None) -> int:
    """Instants of one run that disagree with the oracle.

    An instant fails when its outputs or status differ, or when the run
    never reached it or ran past the oracle's end (a runtime error ends a run
    early). A differing terminal summary or rendered line also counts. The
    result is capped at the number of instants the run should attempt.
    """
    want = expected["instants"]
    failed = sum(1 for a, b in zip(want, rows) if a != b) + abs(len(want) - len(rows))
    if (terminated, error) != (expected["terminated"], expected["error"]):
        failed += 1
    if text is not None and text != expected["text"]:
        got, exp = text.splitlines(), expected["text"].splitlines()
        failed += max(1, sum(1 for a, b in zip(got, exp) if a != b) + abs(len(got) - len(exp)))
    return min(failed, max(1, len(want)))


def demo_mismatches() -> list[str]:
    """Shipped demos whose CLI output differs from their golden file."""
    bad = []
    for program, trace, golden, fmt in DEMO_GOLDENS:
        config = RunConfig(
            program_path=str(DEMOS / program),
            trace_path=str(DEMOS / trace) if trace else None,
            format=fmt,
        )
        result, _code = run(config)
        if format_trace(result, fmt) != (DEMOS / golden).read_text(encoding="utf-8"):
            bad.append(golden)
    return bad
