#!/usr/bin/env python3
"""Differential fuzzing: the engine versus the reference interpreter.

Generates random programs and event traces, runs both implementations, and
reports any divergence. The engine runs each program after a round trip
through its source text (render, then parse), so every case also exercises
the lexer, reader, builder and renderer; the oracle runs the generated AST.
The engine also runs what the reader's line read alone reads from two
renderings over lines (genprog.line_reads), each of which must equal the
generated AST.
Every engine run also asserts that the node table ends the size it had
after compiling, so loop restarts are checked to allocate nothing.
The reference interpreter lives with the tests, so this script adds both
src/ and tests/ to the path.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from genprog import gen_case, line_reads  # noqa: E402
from instants.dsl import ParseError, parse_program, render  # noqa: E402
from reference import engine_run, oracle_run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=5000, help="number of cases")
    parser.add_argument("--seed-start", type=int, default=0)
    parser.add_argument("--max-micro", type=int, default=200)
    parser.add_argument("--max-restarts", type=int, default=60)
    args = parser.parse_args()

    started = time.time()
    mismatches = 0
    outcomes = {"terminated": 0, "alive": 0, "error": 0}
    for seed in range(args.seed_start, args.seed_start + args.count):
        ast, trace = gen_case(seed)
        want = oracle_run(ast, trace, max_micro=args.max_micro, max_restarts=args.max_restarts)
        try:
            reads = [parse_program(render(ast)), *line_reads(ast)]
        except ParseError as error:
            reads = [error]
        # A read that is not the AST, or a ParseError, stands in its run's place.
        got = [engine_run(read, trace, max_micro=args.max_micro, max_restarts=args.max_restarts)
               if read == ast else read for read in reads]
        if got != [want] * 3:
            mismatches += 1
            print(f"MISMATCH seed={seed}")
            print(f"  engine: {got}")
            print(f"  oracle: {want}")
        if want[2] is not None:
            outcomes["error"] += 1
        elif want[1]:
            outcomes["terminated"] += 1
        else:
            outcomes["alive"] += 1

    elapsed = time.time() - started
    print(f"{args.count} cases in {elapsed:.2f}s: {mismatches} mismatches, outcomes {outcomes}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
