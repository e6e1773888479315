"""CLI runner: every row of the CLI case table, formats, determinism."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import cli_cases
from instants import Environment, compile_expr, parse_program, parse_trace
from instants.cli import EXIT_ALIVE, EXIT_TERMINATED, RunConfig, format_trace, main, run
from instants.core import InstantTrace, STOP


DEMOS = Path(__file__).resolve().parent.parent / "demos"
MERGE_SRC = (
    '(merge (rexp (seq (print "1") (stop) (print "2")))'
    ' (rexp (seq (print "A") (stop) (print "B"))))'
)


@pytest.mark.parametrize("row", cli_cases.cases(), ids=lambda row: row.id)
def test_cli_case(row, tmp_path, capsys):
    # In process, a closed pipe's dup2 would overwrite the capture's
    # descriptor, and a 200,000-deep form that crashed the interpreter would
    # take pytest with it; a host setting must be made before the
    # interpreter starts.
    if row.process or row.env:
        result = cli_cases.run_command([sys.executable, "-m", "instants"], row, tmp_path)
    else:
        try:
            code = main(cli_cases.arguments(row, tmp_path))
        except SystemExit as error:
            code = error.code
        captured = capsys.readouterr()
        result = code, captured.out.encode("utf-8"), captured.err.encode("utf-8")
    assert cli_cases.differences(row, tmp_path, *result) == []


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_to_termination_continues_past_trace(tmp_path):
    program = write(tmp_path, "p.rx", "(rexp (seq (stop) (print \"late\")))")
    trace_file = write(tmp_path, "t.trace", "a\n")
    trace, code = run(
        RunConfig(program_path=program, trace_path=trace_file, run_to_termination=True)
    )
    assert code == EXIT_TERMINATED
    assert [r.outputs for r in trace.instants] == [[], ["late"]]


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


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(program_path="x", max_instants=0)
    with pytest.raises(ValueError):
        RunConfig(program_path="x", format="yaml")


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


