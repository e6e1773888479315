"""The command-line runner's cases, as one table.

Each row is one run: a program and a trace in, and an exit code, a standard
output and a standard error out, each exact. Two runners read the table.
tests/test_cli.py runs every row through cli.main in process, or through
``python -m instants`` when the row needs a real process. Run as a script,
this module runs every row through the command given as its arguments,
compares each result byte for byte, and exits 1 on any difference:

    python tests/cli_cases.py python -m instants   # this checkout's src
    python tests/cli_cases.py instants             # the installed console script

Commands run in the checkout's src directory, so ``python -m instants``
finds its package there without an install.
"""
from __future__ import annotations

import decimal
import importlib.util
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DEMO_DIR = REPO / "demos"
sys.path.insert(0, str(SRC))

from instants.cli import (  # noqa: E402
    EXIT_ALIVE,
    EXIT_INPUT_ERROR,
    EXIT_OUTPUT_CLOSED,
    EXIT_RUNTIME_ERROR,
    EXIT_TERMINATED,
)

EXIT_USAGE = 2


@dataclass(frozen=True)
class Case:
    """One run of the CLI.

    program and trace are written to {tmp}/program.rx and {tmp}/events.trace
    and passed as --program and --trace: text as UTF-8, bytes as they are.
    A program of None passes no --program, so args say what they want.
    {tmp} in args, out and err stands for the row's temporary directory.
    An out of None means the reader closes standard output before the run
    writes to it. A usage row is argparse's: err is its usage text, then a
    last line that starts with the row's err; the rest differs between
    Python versions. A row runs in a real process in tier-1 too when it
    says so or sets an environment variable.
    """

    id: str
    program: str | bytes | None
    code: int
    out: str | None = ""
    err: str = ""
    trace: str | bytes | None = None
    args: tuple[str, ...] = ()
    env: dict[str, str] = field(default_factory=dict)
    process: bool = False
    usage: bool = False


def _load_demos() -> list[tuple[str, str | None]]:
    # scripts/run_demos.py states the demo list; it is a script, not a
    # package module, so it is loaded by path.
    spec = importlib.util.spec_from_file_location("run_demos", REPO / "scripts" / "run_demos.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DEMOS


def _demo(name: str) -> str:
    return (DEMO_DIR / name).read_text(encoding="utf-8")


def _demo_case(program: str, trace: str | None) -> Case:
    golden = _demo(Path(trace or program).stem + ".golden")
    code = EXIT_TERMINATED if golden.endswith("terminated\n") else EXIT_ALIVE
    return Case(f"demo_{Path(trace or program).stem}", _demo(program), code, golden,
                trace=_demo(trace) if trace else None)


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _squares(count: int) -> str:
    # 2, squared once per instant. Decimal prints them whatever the host's
    # int-to-str limit, which these rows set for the CLI they run.
    with decimal.localcontext() as context:
        context.prec = 5000
        return "".join(f"{i}: {decimal.Decimal(2) ** (2 ** i)}\n" for i in range(1, count + 1))


def _par(count: int) -> str:
    return "(par " + " ".join(f'(rexp (seq (print "b{i}") (stop)))' for i in range(count)) + ")"


def _numbered(count: int) -> str:
    return "|".join(f"b{i}" for i in range(count))


def cases() -> list[Case]:
    """Every row, in a fresh list."""
    wide = "(par\n" + '  (rexp (seq (print "b") (stop) (print "c")))\n' * 5000 + ")\n"
    b5000, c5000 = "|".join(["b"] * 5000), "|".join(["c"] * 5000)
    squared = ('(rexp (seq (set x 2) (activate (loop (rexp (seq (set x (* (cell x) (cell x)))'
               ' (print "{cell:x}") (stop)))))))\n')
    go = "go\ngo\n\ngo\n"
    late = '(rexp (seq (stop) (print "late")))'
    nines = "9" * 5000
    keypad = (DEMO_DIR / "keypad.rx").read_bytes()
    keypad_enter = (DEMO_DIR / "keypad_enter.trace").read_bytes()
    undecodable = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    return [
        *(_demo_case(program, trace) for program, trace in _load_demos()),
        Case("demo_keypad_enter_json", _demo("keypad.rx"), EXIT_ALIVE,
             _demo("keypad_enter.golden.json"), trace=_demo("keypad_enter.trace"),
             args=("--format", "json")),
        # A leading byte-order mark is skipped in the program and the trace.
        Case("byte_order_marks", b"\xef\xbb\xbf" + keypad, EXIT_ALIVE,
             _demo("keypad_enter.golden"), trace=b"\xef\xbb\xbf" + keypad_enter),
        Case("merge_to_termination",
             '(merge (rexp (seq (print "1") (stop) (print "2")))'
             ' (rexp (seq (print "A") (stop) (print "B"))))',
             EXIT_TERMINATED, _lines("1: 1|A", "2: 2|B", "terminated")),
        Case("halt_budget", "(halt)", EXIT_ALIVE, _lines("1:", "2:", "3:", "alive"),
             args=("--max-instants", "3")),
        Case("trace_end_stops_the_run", late, EXIT_ALIVE, _lines("1:", "alive"), trace="a\n"),
        Case("run_to_termination", late, EXIT_TERMINATED, _lines("1:", "2: late", "terminated"),
             trace="a\n", args=("--run-to-termination",)),
        # Runtime errors: the trace up to the failed instant, and a label.
        Case("instantaneous_loop", "(loop (nothing))", EXIT_RUNTIME_ERROR,
             _lines("error: InstantaneousLoop"), "instants: runtime error: InstantaneousLoop\n",
             args=("--max-loop-restarts", "100")),
        Case("forever_suspension", "(close (loop (rexp (seq (suspend)))))", EXIT_RUNTIME_ERROR,
             _lines("error: MicroStepLimitExceeded"),
             "instants: runtime error: MicroStepLimitExceeded\n", args=("--max-micro", "50")),
        Case("uncaught_abort", "(rexp (seq (raise T)))", EXIT_RUNTIME_ERROR,
             _lines("error: UncaughtAbort:T"), "instants: runtime error: UncaughtAbort:T\n"),
        # Input errors: exit code 4 and one line, with the line and column
        # where the text gives one.
        Case("unclosed_form", "(merge (nothing)", EXIT_INPUT_ERROR,
             err="instants: unclosed parenthesis at line 1, column 1\n"),
        Case("missing_file", None, EXIT_INPUT_ERROR,
             err="instants: [Errno 2] No such file or directory: '{tmp}/absent.rx'\n",
             args=("--program", "{tmp}/absent.rx")),
        Case("unknown_escape", '(rexp\n  (seq (print "a\\q")))\n', EXIT_INPUT_ERROR,
             err="instants: unknown escape \\q at line 2, column 17\n"),
        # An escape of a character that does not print names its code point,
        # so the message stays on one line.
        Case("unknown_escape_before_newline", '(rexp (print "ab\\\n"))\n', EXIT_INPUT_ERROR,
             err="instants: unknown escape U+000A after a backslash at line 1, column 17\n"),
        # A repeat's count is checked where it is read.
        Case("negative_repeat", "(repeat -1 (halt))\n", EXIT_INPUT_ERROR,
             err="instants: expected a non-negative integer literal at line 1, column 9\n"),
        Case("empty_par", "(par)\n", EXIT_INPUT_ERROR,
             err="instants: (par ...) takes at least 1 argument(s), got 0 at line 1, column 1\n"),
        # A bad trace line that repeats later is reported at its first line.
        Case("repeated_bad_trace_line", _demo("merge_pair.rx"), EXIT_INPUT_ERROR,
             err="instants: bad signal name '9b' at line 2, column 5\n",
             trace="a\nx=1 9b\nc\nx=1 9b\n"),
        # A form read once as a program form is reported where it is out of
        # place as an expression.
        Case("repeated_form_misplaced", '(rexp (seq (print "x")\n  (activate (print "x"))))\n',
             EXIT_INPUT_ERROR, err="instants: unknown expression form 'print' at line 2, column 13\n"),
        # A repeated line that closes one paren too many is reported at its
        # last occurrence.
        Case("overclosed_repeated_line", "(par (par\n  (halt))\n  (halt))\n  (halt))\n",
             EXIT_INPUT_ERROR, err="instants: trailing content after expression at line 4, column 3\n"),
        Case("oversized_literal", f"(rexp (set x {nines}))", EXIT_INPUT_ERROR,
             err="instants: integer literal has too many digits at line 1, column 14\n"),
        Case("oversized_payload", "(nothing)", EXIT_INPUT_ERROR,
             err="instants: integer literal has too many digits at line 1, column 1\n",
             trace=f"v={nines}\n"),
        Case("undecodable_program", b"\xff(nothing)", EXIT_INPUT_ERROR,
             err=f"instants: {{tmp}}/program.rx: {undecodable}\n"),
        Case("undecodable_trace", "(nothing)", EXIT_INPUT_ERROR,
             err=f"instants: {{tmp}}/events.trace: {undecodable}\n", trace=b"\xffsig\n"),
        Case("deep_close", "(close " * 1000 + _par(1) + ")" * 1000, EXIT_INPUT_ERROR,
             err="instants: program is nested too deeply to compile\n"),
        # The builder tests that a head is a str before it looks the head up:
        # hashing a tuple nested this deeply crashes the interpreter.
        Case("form_head_200000_deep", "(rexp (seq " + "(" * 200_000 + ")" * 200_000 + "))",
             EXIT_INPUT_ERROR, err="instants: form head must be a symbol at line 1, column 12\n",
             process=True),
        # Command lines: argparse rejects a malformed one, RunConfig a bad value.
        Case("no_program", None, EXIT_USAGE,
             err="instants: error: the following arguments are required: --program", usage=True),
        Case("max_instants_not_an_int", "(nothing)", EXIT_USAGE,
             err="instants: error: argument --max-instants: invalid int value: 'x'",
             args=("--max-instants", "x"), usage=True),
        Case("unknown_format", "(nothing)", EXIT_USAGE,
             err="instants: error: argument --format: invalid choice: 'xml'",
             args=("--format", "xml"), usage=True),
        Case("max_instants_zero", "(nothing)", EXIT_INPUT_ERROR,
             err="instants: limits must be positive\n", args=("--max-instants", "0")),
        # One n-ary merge: width does not become activation depth.
        Case("wide_par_400", _par(400), EXIT_TERMINATED,
             _lines("1: " + _numbered(400), "2:", "terminated")),
        Case("wide_par_5000", _par(5000), EXIT_TERMINATED,
             _lines("1: " + _numbered(5000), "2:", "terminated")),
        Case("loop_wide_par_5000", f"(loop {_par(5000)})", EXIT_ALIVE,
             _lines(*(f"{i}: {_numbered(5000)}" for i in (1, 2, 3)), "alive"),
             args=("--max-instants", "3")),
        # 5,000 identical branch lines: each distinct line is read once, and
        # every branch still runs and prints.
        Case("par_5000_identical_lines", wide, EXIT_TERMINATED,
             _lines("1: " + b5000, "2: " + c5000, "terminated")),
        # 5,000 suspending branches: the merge re-steps all of them within
        # the instant, left to right, before any stops.
        Case("par_5000_suspending_lines",
             "(par\n" + '  (rexp (seq (print "b") (suspend) (print "c") (stop)))\n' * 5000 + ")\n",
             EXIT_TERMINATED, _lines(f"1: {b5000}|{c5000}", "2:", "terminated")),
        # Layout reuses the op of each leaf it has laid out, and the body
        # still runs one step per instant.
        Case("body_20000_repeated_lines", "(rexp (seq\n" + '  (print "x") (stop)\n' * 20000 + "))\n",
             EXIT_ALIVE, _lines("1: x", "2: x", "3: x", "alive"), args=("--max-instants", "3")),
        # The reader and builder take no stack for a chain of last arguments,
        # and layout walks each seq in place.
        Case("body_5000_nested_seqs", "(rexp " + '(seq (print "a") ' * 5000 + "(stop)" + ")" * 5001 + "\n",
             EXIT_TERMINATED, _lines("1: " + "|".join(["a"] * 5000), "2:", "terminated")),
        # A body that never runs is parsed, not compiled, so its depth is
        # only the reader's, which takes no stack for it.
        Case("repeat_zero_deep_close", "(repeat 0 " + "(close " * 1200 + "(halt)" + ")" * 1201,
             EXIT_TERMINATED, _lines("1:", "terminated")),
        # A loop's await or rif counts its event read, so a body that ends
        # after it restarts at the next instant, not again in place.
        Case("loop_await_reads_events", '(loop (await (sig go) (rexp (seq (print "x")))))\n',
             EXIT_ALIVE, _lines("1: x", "2: x", "3:", "4: x", "alive"), trace=go),
        Case("loop_rif_reads_events",
             '(loop (rif (sig go) (rexp (seq (print "x"))) (rexp (seq (print "y")))))\n',
             EXIT_ALIVE, _lines("1: x", "2: x", "3: y", "4: x", "alive"), trace=go),
        # A payload sets its signal, alone or with others on its line.
        Case("payload_sets_its_signal",
             '(loop (rif (sig v) (rexp (seq (print "v={value:v}"))) (rexp (seq (print "no v")))))\n',
             EXIT_ALIVE, _lines("1: v=3", "2: no v", "3: no v", "4: v=-4", "alive"),
             trace="v=3\n\nw\nv=-4 w\n"),
        # A print fused with the stop after it: a caught abort enters the
        # handler on the fused print, and a body that ends jumps over the
        # handler onto the stop alone.
        Case("handler_caught_before_fused_stop",
             '(rexp (seq (handle A (seq (print "a") (raise A)) (print "h")) (stop) (print "z")))\n',
             EXIT_TERMINATED, _lines("1: a|h", "2: z", "terminated")),
        Case("handler_ended_before_fused_stop",
             '(rexp (seq (handle A (seq (print "a")) (print "h")) (stop) (print "z")))\n',
             EXIT_TERMINATED, _lines("1: a", "2: z", "terminated")),
        # Every expression form, over four instants, the last with no event.
        Case("every_expression_form",
             '(par (rif (sig a) (rexp (seq (print "rif-a") (stop))) (rexp (seq (print "rif-else") (stop))))'
             ' (when (sig a) (rexp (seq (print "when")))) (terminate (sig b) (loop (rexp (seq (print "t")'
             ' (stop))))) (await (sig b) (rexp (seq (print "await")))) (init (set n (+ (cell n) 1))'
             ' (repeat 2 (rexp (seq (print "r{cell:n}") (stop))))) (repeat 0 (halt)) (close (merge'
             ' (rexp (seq (print "m1") (suspend) (print "m2"))) (nothing))) (halt))\n',
             EXIT_ALIVE, _lines("1: rif-a|when|t|r1|m1|m2", "2: rif-else|t|r2", "3: await", "4:", "alive"),
             trace="a\n\nb\n\n"),
        # A reader gone before the first write: exit code 141, no traceback.
        Case("reader_closes_early", wide, EXIT_OUTPUT_CLOSED, None, process=True),
        # A cell squared each instant outgrows the host's default int-to-str
        # limit at its 14th square. With the limit off, the engine holds
        # integers to that default itself, so the run ends the same way.
        *(Case(f"squared_cell_limit_{limit}", squared, EXIT_RUNTIME_ERROR,
               _squares(13) + "error: IntegerTooLarge\n", "instants: runtime error: IntegerTooLarge\n",
               args=("--max-instants", "100"), env={"PYTHONINTMAXSTRDIGITS": limit})
          for limit in ("4300", "0")),
        # Unprinted, the square still stops at the same bound.
        Case("squared_cell_unprinted",
             "(rexp (seq (set x 2) (activate (loop (rexp (seq (set x (* (cell x) (cell x))) (stop)))))))",
             EXIT_RUNTIME_ERROR, _lines(*(f"{i}:" for i in range(1, 14)), "error: IntegerTooLarge"),
             "instants: runtime error: IntegerTooLarge\n", args=("--max-instants", "100"),
             env={"PYTHONINTMAXSTRDIGITS": "4300"}),
    ]


def arguments(row: Case, tmp: Path) -> list[str]:
    """Write the row's files into tmp and return its command-line arguments."""
    argv = []
    for option, name, content in (("--program", "program.rx", row.program),
                                   ("--trace", "events.trace", row.trace)):
        if content is not None:
            path = tmp / name
            path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
            argv += [option, str(path)]
    return argv + [arg.replace("{tmp}", str(tmp)) for arg in row.args]


def run_command(command: list[str], row: Case, tmp: Path) -> tuple[int, bytes | None, bytes]:
    """Run the row through command in a process: (exit code, stdout, stderr).
    stdout is None when the reader closes it early."""
    argv = [*command, *arguments(row, tmp)]
    env = {**os.environ, **row.env}
    if row.out is None:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=SRC)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        return proc.wait(timeout=120), None, err
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=SRC, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _short(text: bytes | None) -> str:
    shown = repr(text)
    return shown if len(shown) <= 200 else f"{shown[:200]}... ({len(text)} bytes)"


def differences(row: Case, tmp: Path, code: int, out: bytes | None, err: bytes) -> list[str]:
    """How a run's exit code, stdout and stderr differ from the row's."""
    def expected(text):
        return None if text is None else text.replace("{tmp}", str(tmp)).encode("utf-8")

    found = []
    if code != row.code:
        found.append(f"exit code {code}, expected {row.code}")
    if out != expected(row.out):
        found.append(f"stdout {_short(out)}, expected {_short(expected(row.out))}")
    if row.usage:
        matches = err.startswith(b"usage: instants ") and err.splitlines()[-1].startswith(expected(row.err))
    else:
        matches = err == expected(row.err)
    if not matches:
        found.append(f"stderr {_short(err)}, expected {_short(expected(row.err))}")
    return found


def main(command: list[str]) -> int:
    failures = 0
    rows = cases()
    for row in rows:
        with tempfile.TemporaryDirectory() as tmp:
            found = differences(row, Path(tmp), *run_command(command, row, Path(tmp)))
        print(f"{'FAIL' if found else 'ok'} {row.id}", *(f"\n  {line}" for line in found), sep="")
        failures += bool(found)
    print(f"{len(rows) - failures} of {len(rows)} rows match")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py COMMAND [ARG...]")
    sys.exit(main(sys.argv[1:]))
