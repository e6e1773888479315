"""CLI runner: exit codes, formats, golden outputs, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from instants import Environment, compile_expr, parse_program, parse_trace
from instants.cli import (
    EXIT_ALIVE,
    EXIT_INPUT_ERROR,
    EXIT_OUTPUT_CLOSED,
    EXIT_RUNTIME_ERROR,
    EXIT_TERMINATED,
    RunConfig,
    format_trace,
    main,
    run,
)
from instants.core import InstantTrace, STOP

from helpers import needs_print_limit

DEMOS = Path(__file__).resolve().parent.parent / "demos"
MERGE_SRC = (
    '(merge (rexp (seq (print "1") (stop) (print "2")))'
    ' (rexp (seq (print "A") (stop) (print "B"))))'
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_merge_program_runs_to_termination(tmp_path):
    trace, code = run(RunConfig(program_path=write(tmp_path, "m.rx", MERGE_SRC)))
    assert code == EXIT_TERMINATED
    assert [r.outputs for r in trace.instants] == [["1", "A"], ["2", "B"]]
    assert format_trace(trace) == "1: 1|A\n2: 2|B\nterminated\n"


def test_halt_exhausts_instant_budget(tmp_path):
    trace, code = run(RunConfig(program_path=write(tmp_path, "h.rx", "(halt)"), max_instants=3))
    assert code == EXIT_ALIVE
    assert trace.instants_run == 3 and not trace.terminated
    assert format_trace(trace) == "1:\n2:\n3:\nalive\n"


def test_instantaneous_loop_exits_5(tmp_path):
    trace, code = run(
        RunConfig(program_path=write(tmp_path, "l.rx", "(loop (nothing))"), max_loop_restarts=100)
    )
    assert code == EXIT_RUNTIME_ERROR
    assert trace.error == "InstantaneousLoop"


def test_forever_suspension_exits_5(tmp_path):
    src = "(close (loop (rexp (seq (suspend)))))"
    trace, code = run(RunConfig(program_path=write(tmp_path, "s.rx", src), max_micro=50))
    assert code == EXIT_RUNTIME_ERROR
    assert trace.error == "MicroStepLimitExceeded"


def test_uncaught_abort_exits_5(tmp_path):
    trace, code = run(RunConfig(program_path=write(tmp_path, "a.rx", "(rexp (seq (raise T)))")))
    assert code == EXIT_RUNTIME_ERROR
    assert trace.error == "UncaughtAbort:T"
    assert format_trace(trace) == "error: UncaughtAbort:T\n"


def test_parse_error_exits_4(tmp_path, capsys):
    assert main(["--program", write(tmp_path, "bad.rx", "(merge (nothing)")]) == EXIT_INPUT_ERROR
    assert "instants:" in capsys.readouterr().err


def test_missing_file_exits_4(tmp_path, capsys):
    assert main(["--program", str(tmp_path / "absent.rx")]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_trace_end_stops_the_run(tmp_path):
    program = write(tmp_path, "p.rx", "(rexp (seq (stop) (print \"late\")))")
    trace_file = write(tmp_path, "t.trace", "a\n")
    trace, code = run(RunConfig(program_path=program, trace_path=trace_file))
    assert code == EXIT_ALIVE
    assert trace.instants_run == 1


def test_run_to_termination_continues_past_trace(tmp_path):
    program = write(tmp_path, "p.rx", "(rexp (seq (stop) (print \"late\")))")
    trace_file = write(tmp_path, "t.trace", "a\n")
    trace, code = run(
        RunConfig(program_path=program, trace_path=trace_file, run_to_termination=True)
    )
    assert code == EXIT_TERMINATED
    assert [r.outputs for r in trace.instants] == [[], ["late"]]


def test_run_to_termination_flag_continues_past_trace(tmp_path, capsys):
    program = write(tmp_path, "p.rx", "(rexp (seq (stop) (print \"late\")))")
    trace_file = write(tmp_path, "t.trace", "a\n")
    argv = ["--program", program, "--trace", trace_file, "--run-to-termination"]
    assert main(argv) == EXIT_TERMINATED
    assert capsys.readouterr().out == "1:\n2: late\nterminated\n"


def test_keypad_trace_run(tmp_path):
    trace, code = run(
        RunConfig(
            program_path=str(DEMOS / "keypad.rx"),
            trace_path=str(DEMOS / "keypad_enter.trace"),
        )
    )
    assert code == EXIT_ALIVE
    assert [r.outputs for r in trace.instants] == [[], [], [], ["123"], [], []]
    assert all(r.status is STOP for r in trace.instants)


def test_shared_trace_events_are_only_read():
    # Equal trace lines share one InstantEvents, so one parsed trace drives
    # two runs alike only if the engine never writes to it.
    text = (DEMOS / "keypad_enter.trace").read_text(encoding="utf-8")
    events = parse_trace(text)
    assert events[-1] is events[-2]
    ast = parse_program((DEMOS / "keypad.rx").read_text(encoding="utf-8"))
    golden = (DEMOS / "keypad_enter.golden").read_text(encoding="utf-8")
    for _ in range(2):
        env = Environment()
        assert format_trace(env.react_t(compile_expr(ast, env), 1000, events)) == golden
    assert events == parse_trace(text)


def test_json_format_round_trips(tmp_path):
    trace, _ = run(
        RunConfig(program_path=write(tmp_path, "m.rx", MERGE_SRC), format="json")
    )
    payload = json.loads(format_trace(trace, "json"))
    assert payload["instants"][0] == {"instant": 1, "outputs": ["1", "A"], "status": "STOP"}
    assert payload["summary"] == {"terminated": True, "instants_run": 2, "error": None}


def test_empty_trace_formats_summary_only():
    assert format_trace(InstantTrace(terminated=True)) == "terminated\n"
    assert format_trace(InstantTrace()) == "alive\n"


def test_formatting_is_deterministic(tmp_path):
    config = RunConfig(program_path=str(DEMOS / "keypad.rx"), trace_path=str(DEMOS / "keypad_clear.trace"))
    first = format_trace(run(config)[0])
    second = format_trace(run(config)[0])
    assert first == second


@pytest.mark.parametrize(
    "program,trace,golden",
    [
        ("merge_pair.rx", None, "merge_pair.golden"),
        ("suspend_close.rx", None, "suspend_close.golden"),
        ("keypad.rx", "keypad_enter.trace", "keypad_enter.golden"),
        ("keypad.rx", "keypad_clear.trace", "keypad_clear.golden"),
        ("keypad.rx", "keypad_overflow.trace", "keypad_overflow.golden"),
    ],
)
def test_demo_goldens(capsys, program, trace, golden):
    argv = ["--program", str(DEMOS / program)]
    if trace:
        argv += ["--trace", str(DEMOS / trace)]
    main(argv)
    out = capsys.readouterr().out
    assert out == (DEMOS / golden).read_text(encoding="utf-8")


def test_demo_golden_json(capsys):
    main(
        [
            "--program",
            str(DEMOS / "keypad.rx"),
            "--trace",
            str(DEMOS / "keypad_enter.trace"),
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert out == (DEMOS / "keypad_enter.golden.json").read_text(encoding="utf-8")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(program_path="x", max_instants=0)
    with pytest.raises(ValueError):
        RunConfig(program_path="x", format="yaml")


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _branch(i):
    return f'(rexp (seq (print "b{i}") (stop)))'


def _wide(count):
    return "(par " + " ".join(_branch(i) for i in range(count)) + ")"


def _outputs(count):
    return ": " + "|".join(f"b{i}" for i in range(count)) + "\n"


@pytest.mark.parametrize(
    "name,source,extra,code,message",
    [
        # One n-ary merge: width does not become activation depth.
        ("wide_par", _wide(400), [], EXIT_TERMINATED, _outputs(400)),
        pytest.param("wide_par_5000", _wide(5000), [], EXIT_TERMINATED, _outputs(5000),
                     id="wide_par_5000"),
        pytest.param("loop_wide_par_5000", f"(loop {_wide(5000)})", ["--max-instants", "3"],
                     EXIT_ALIVE, "3" + _outputs(5000), id="loop_wide_par_5000"),
        ("deep_close", "(close " * 1000 + _branch(0) + ")" * 1000, [],
         EXIT_INPUT_ERROR, "nested too deeply"),
        # Squaring doubles the digits each instant until printing fails.
        pytest.param(
            "squared_cell",
            '(rexp (seq (set x 2) (activate (loop (rexp (seq (set x (* (cell x) (cell x)))'
            ' (print "{cell:x}") (stop)))))))',
            ["--max-instants", "100"], EXIT_RUNTIME_ERROR, "runtime error: IntegerTooLarge",
            marks=needs_print_limit),
        # Unprinted, the square still stops at the host's print limit.
        pytest.param(
            "squared_cell_unprinted",
            '(rexp (seq (set x 2) (activate (loop (rexp (seq (set x (* (cell x) (cell x)))'
            ' (stop)))))))',
            ["--max-instants", "100"], EXIT_RUNTIME_ERROR, "runtime error: IntegerTooLarge",
            id="squared_cell_unprinted", marks=needs_print_limit),
    ],
)
def test_host_limits_exit_with_a_label_and_no_traceback(
    tmp_path, name, source, extra, code, message
):
    program = write(tmp_path, f"{name}.rx", source)
    proc = subprocess.run(
        [sys.executable, "-m", "instants", "--program", program, *extra],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    # A run that ends normally prints its trace; a diagnostic goes to stderr.
    stream = proc.stdout if code in (EXIT_TERMINATED, EXIT_ALIVE) else proc.stderr
    assert message in stream


def test_a_form_head_nested_200000_deep_is_a_parse_error(tmp_path):
    # The builder tests that a head is a str before it looks the head up:
    # hashing a tuple nested this deeply crashes the interpreter.
    depth = 200_000
    program = write(tmp_path, "deep_head.rx", "(rexp (seq " + "(" * depth + ")" * depth + "))")
    proc = subprocess.run(
        [sys.executable, "-m", "instants", "--program", program],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stderr == "instants: form head must be a symbol at line 1, column 12\n"


def test_the_cli_stops_quietly_when_its_reader_closes_early(tmp_path):
    # As `instants --program P | true` does, with the reader gone before
    # the first write, so the write or the flush always fails.
    branches = '  (rexp (seq (print "b") (stop) (print "c")))\n' * 5000
    program = write(tmp_path, "wide.rx", f"(par\n{branches})\n")
    proc = subprocess.Popen([sys.executable, "-m", "instants", "--program", program],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OUTPUT_CLOSED == 141
    assert err == b""


def test_run_demos_stops_quietly_when_its_reader_closes_early():
    # As `python scripts/run_demos.py | head -1` does, but with the reader
    # gone before the first write, so the write always fails.
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_demos.py"
    proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@needs_print_limit
def test_oversized_integer_literals_are_parse_errors(tmp_path, capsys):
    digits = "9" * 5000
    program = write(tmp_path, "big.rx", f"(rexp (set x {digits}))")
    assert main(["--program", program]) == EXIT_INPUT_ERROR
    trace_file = write(tmp_path, "big.trace", f"v={digits}\n")
    program = write(tmp_path, "v.rx", "(nothing)")
    assert main(["--program", program, "--trace", trace_file]) == EXIT_INPUT_ERROR
    assert "too many digits" in capsys.readouterr().err


def test_undecodable_files_are_input_errors(tmp_path, capsys):
    bad_program = tmp_path / "bad.rx"
    bad_program.write_bytes(b"\xff(nothing)")
    assert main(["--program", str(bad_program)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert f"instants: {bad_program}: " in err and "Traceback" not in err
    bad_trace = tmp_path / "bad.trace"
    bad_trace.write_bytes(b"\xffsig\n")
    program = write(tmp_path, "ok.rx", "(nothing)")
    assert main(["--program", program, "--trace", str(bad_trace)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert f"instants: {bad_trace}: " in err and "Traceback" not in err


def test_byte_order_marks_are_skipped(tmp_path, capsys):
    program = tmp_path / "keypad.rx"
    program.write_bytes(b"\xef\xbb\xbf" + (DEMOS / "keypad.rx").read_bytes())
    trace = tmp_path / "keypad_enter.trace"
    trace.write_bytes(b"\xef\xbb\xbf" + (DEMOS / "keypad_enter.trace").read_bytes())
    assert main(["--program", str(program), "--trace", str(trace)]) == EXIT_ALIVE
    out = capsys.readouterr().out
    assert out == (DEMOS / "keypad_enter.golden").read_text(encoding="utf-8")


MERGE_PAIR = ["--program", str(DEMOS / "merge_pair.rx")]


@pytest.mark.parametrize(
    "argv,code",
    [
        # Malformed command lines: argparse exits 2.
        ([], 2),
        (MERGE_PAIR + ["--max-instants", "x"], 2),
        (MERGE_PAIR + ["--format", "xml"], 2),
        # Well-formed, but RunConfig rejects the value.
        (MERGE_PAIR + ["--max-instants", "0"], EXIT_INPUT_ERROR),
    ],
)
def test_command_line_error_exit_codes(capsys, argv, code):
    try:
        result = main(argv)
    except SystemExit as error:
        result = error.code
    assert result == code
    assert capsys.readouterr().out == ""
