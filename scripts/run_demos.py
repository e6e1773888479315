#!/usr/bin/env python3
"""Run every shipped demo program through the CLI and show the results.

Demos with a golden file (named after the trace, or after the program when
there is no trace) are compared with it; any difference exits 1. When the
reader of standard output closes it early, as ``| head -1`` does, the script
stops without a traceback and exits 141, what a shell reports for a writer
ended by SIGPIPE.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from instants.cli import RunConfig, format_trace, run  # noqa: E402

EXIT_OUTPUT_CLOSED = 141

DEMOS = [
    ("merge_pair.rx", None),
    ("suspend_close.rx", None),
    ("keypad.rx", "keypad_enter.trace"),
    ("keypad.rx", "keypad_clear.trace"),
    ("keypad.rx", "keypad_overflow.trace"),
]


def main() -> int:
    demo_dir = REPO / "demos"
    mismatches = 0
    for program, trace in DEMOS:
        label = program if trace is None else f"{program} + {trace}"
        print(f"=== {label}")
        config = RunConfig(
            program_path=str(demo_dir / program),
            trace_path=str(demo_dir / trace) if trace else None,
        )
        result, code = run(config)
        text = format_trace(result)
        sys.stdout.write(text)
        print(f"exit code: {code}")
        golden = demo_dir / (Path(trace or program).stem + ".golden")
        if golden.exists():
            matches = text == golden.read_text(encoding="utf-8")
            mismatches += not matches
            print(f"golden {golden.name}: {'match' if matches else 'MISMATCH'}")
        print()
    return 1 if mismatches else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing more can be shown. Standard output goes to the null
        # device, so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OUTPUT_CLOSED
    raise SystemExit(code)
