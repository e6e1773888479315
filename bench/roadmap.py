"""The ROADMAP's baseline rows W1-W5, for information only.

Nothing gates on these rows. W1-W3 measure throughput and node growth
through the public API; W4 and W5 run ``cli.main`` (``python3 -m instants``)
and report the exit code and whether a Python traceback escaped. A row whose
CLI exit code is outside the documented 0/3/4/5, or that prints a traceback,
is counted as a failure; the rows are never resized to avoid one. Each row
runs in a child process of its own.

``python3 bench/roadmap.py ROW`` is the child for a throughput row.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checkout

BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150


def _branch(i: int) -> str:
    return f'(rexp (seq (print "b{i}") (stop)))'


def _keypad_events(count: int) -> str:
    return "".join("enter\n" if i % 5 == 4 else f"digit={i % 10}\n" for i in range(count))


# name: (description, program source, trace text or None, instants)
THROUGHPUT_ROWS = {
    "W1": ('(loop (rexp (seq (print "x") (stop)))), 20k empty instants',
           '(loop (rexp (seq (print "x") (stop))))', None, 20_000),
    "W2": ("demos/keypad.rx, digit=i%10 x4 then enter, 50k instants",
           None, _keypad_events(50_000), 50_000),
    "W3": ("(loop (par B0 ... B99)), 2k empty instants",
           "(loop (par " + " ".join(_branch(i) for i in range(100)) + "))", None, 2_000),
}

_SQUARED = ('(rexp (seq (set x 2) (activate (loop (rexp (seq (set x (* (cell x) (cell x))) '
            '(print "{cell:x}") (stop)))))))')

# name: (description, program source, extra CLI arguments)
CLI_ROWS = {
    "W4a": ("(par ...) of 400 branches", "(par " + " ".join(_branch(i) for i in range(400)) + ")", []),
    "W4b": ("1000 nested (close ...)", "(close " * 1000 + _branch(0) + ")" * 1000, []),
    "W5": ("a cell squared every instant and printed", _SQUARED, ["--max-instants", "100"]),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout.SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def throughput_child(row: str) -> None:
    """Run one throughput row in this process and print its JSON line."""
    checkout.use_sources()
    from instants.dsl import compile_expr, parse_program, parse_trace
    from instants.kernel import Environment

    _desc, source, trace, instants = THROUGHPUT_ROWS[row]
    if source is None:
        source = (checkout.DEMOS / "keypad.rx").read_text(encoding="utf-8")
    events = parse_trace(trace) if trace is not None else [None] * instants
    env = Environment()
    root = compile_expr(parse_program(source), env)
    nodes_start = len(env.nodes)
    world = env.world
    start = time.perf_counter()
    for instant in events:
        world.apply_instant(instant)
        env.react(root)
        world.drain_output()
    seconds = time.perf_counter() - start
    print(json.dumps({
        "instants_per_s": len(events) / seconds,
        "nodes_start": nodes_start,
        "nodes_end": len(env.nodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


def rows(directory: Path) -> tuple[list[str], int]:
    """Run every row in its own child process; return report lines and the
    number of rows that failed."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    failed = 0
    for name, (desc, *_rest) in THROUGHPUT_ROWS.items():
        proc = subprocess.run(
            [sys.executable, str(BENCH / "roadmap.py"), name],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=_child_env(),
        )
        if proc.returncode != 0:
            failed += 1
            lines.append(f"{name} {desc}: FAILED, exit {proc.returncode}")
            continue
        r = json.loads(proc.stdout.splitlines()[-1])
        lines.append(f"{name} {desc}: {r['instants_per_s']:.0f} instants/s, nodes "
                     f"{r['nodes_start']} -> {r['nodes_end']}, peak RSS {r['peak_rss_mb']:.1f} MB")
    for name, (desc, source, extra) in CLI_ROWS.items():
        program = directory / f"{name}.rx"
        program.write_text(source, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "instants", "--program", str(program), *extra],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=_child_env(),
        )
        traceback = "Traceback (most recent call last)" in proc.stderr
        ok = proc.returncode in (0, 3, 4, 5) and not traceback
        failed += not ok
        verdict = "ok" if ok else "FAILED"
        lines.append(f"{name} {desc}: {verdict}, exit {proc.returncode}, "
                     f"traceback {'escaped' if traceback else 'none'}")
    return lines, failed


if __name__ == "__main__":
    throughput_child(sys.argv[1])
