"""Command-line runner: load a program and a trace, execute instants.

Exit codes: 0 the program terminated, 2 a malformed command line (a
missing --program, a non-integer limit, an unknown format), which argparse
reports, 3 still alive when the run stopped, 4 a limit below 1, or the
program or trace could not be read as UTF-8 text (a leading byte-order mark
is skipped), or failed to parse or compile (including programs nested too
deeply for the host's recursion limit), 5 a runtime failure (uncaught
abort, micro-step limit, instantaneous loop, an integer too large to print,
or an activation nested too deeply, labelled RecursionError), 141 the
reader of standard output closed it before the whole trace was written,
as ``| head -1`` does (what a shell reports for a writer ended by SIGPIPE);
nothing more is written then, and no traceback.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import InstantTrace, Limits
from .dsl import CompileError, ParseError, compile_expr, parse_program, parse_trace
from .kernel import Environment

EXIT_TERMINATED = 0
EXIT_ALIVE = 3
EXIT_INPUT_ERROR = 4
EXIT_RUNTIME_ERROR = 5
EXIT_OUTPUT_CLOSED = 141


@dataclass
class RunConfig:
    program_path: str
    trace_path: str | None = None
    max_instants: int = 1000
    max_micro: int = Limits.max_micro_steps
    max_loop_restarts: int = Limits.max_loop_restarts
    format: str = "text"
    run_to_termination: bool = False

    def __post_init__(self) -> None:
        if self.max_instants < 1 or self.max_micro < 1 or self.max_loop_restarts < 1:
            raise ValueError("limits must be positive")
        if self.format not in ("text", "json"):
            raise ValueError(f"unknown format {self.format!r}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as error:
        raise ParseError(f"{path}: {error}") from None


def run(config: RunConfig) -> tuple[InstantTrace, int]:
    """Parse, compile, and react instant by instant.

    Each instant installs the next trace entry (an empty event set when no
    trace is given or the trace is exhausted under --run-to-termination),
    reacts once, and records the outputs and the root status. The run stops
    at termination, at the end of the trace, or at the instant budget.
    """
    env = Environment(
        limits=Limits(
            max_micro_steps=config.max_micro,
            max_loop_restarts=config.max_loop_restarts,
        )
    )
    events = None
    try:
        ast = parse_program(_read(config.program_path))
        if config.trace_path is not None:
            events = parse_trace(_read(config.trace_path))
        root = compile_expr(ast, env)
    except RecursionError:
        raise CompileError("program is nested too deeply to compile") from None
    if events is not None and config.run_to_termination:
        events = itertools.chain(events, itertools.repeat(None))

    trace = env.react_t(root, config.max_instants, events)
    if trace.terminated:
        code = EXIT_TERMINATED
    elif trace.error is not None:
        code = EXIT_RUNTIME_ERROR
    else:
        code = EXIT_ALIVE
    return trace, code


def format_trace(trace: InstantTrace, format: str = "text") -> str:
    """Render a trace deterministically, one instant per line in text mode."""
    if format == "json":
        payload = {
            "instants": [
                {
                    "instant": record.index,
                    "outputs": record.outputs,
                    "status": record.status.name,
                }
                for record in trace.instants
            ],
            "summary": {
                "terminated": trace.terminated,
                "instants_run": trace.instants_run,
                "error": trace.error,
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = []
    for record in trace.instants:
        if record.outputs:
            lines.append(f"{record.index}: " + "|".join(record.outputs))
        else:
            lines.append(f"{record.index}:")
    if trace.error is not None:
        lines.append(f"error: {trace.error}")
    else:
        lines.append("terminated" if trace.terminated else "alive")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    # Options left out stay out of the namespace, so RunConfig's defaults
    # are the only ones.
    parser = argparse.ArgumentParser(
        prog="instants",
        description="Run a reactive program against a scripted event trace.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--program", dest="program_path", required=True, metavar="FILE",
                        help="program source file")
    parser.add_argument("--trace", dest="trace_path", metavar="FILE",
                        help="event trace file, one instant per line")
    parser.add_argument("--max-instants", type=int, metavar="N")
    parser.add_argument("--max-micro", type=int, metavar="N")
    parser.add_argument("--max-loop-restarts", type=int, metavar="N")
    parser.add_argument("--format", choices=("text", "json"))
    parser.add_argument(
        "--run-to-termination",
        action="store_true",
        help="keep reacting with empty instants after the trace ends",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as error:
        print(f"instants: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        trace, code = run(config)
    except (ParseError, CompileError, OSError) as error:
        print(f"instants: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        print(format_trace(trace, config.format), end="", flush=True)
    except BrokenPipeError:
        # Nothing more can be shown. Standard output goes to the null
        # device, so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED
    if trace.error is not None:
        print(f"instants: runtime error: {trace.error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
