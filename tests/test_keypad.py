"""Keypad controller scenarios and invariants."""
from __future__ import annotations

from pathlib import Path

import pytest

from instants import Environment, STOP, parse_program, parse_trace
from instants.dsl import compile_expr
from instants.keypad import KeypadSpec, mk_controller
from instants.world import InstantEvents

from helpers import run_instants

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def digit(d):
    return InstantEvents(frozenset(), {"digit": d})


def pressed(name):
    return InstantEvents(frozenset({name}))


def test_enter_after_three_digits_prints_the_number():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=3))
    rows = run_instants(env, ctl, [digit(1), digit(2), digit(3), pressed("enter")], pad_empty=2)
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["123"], [], []]
    assert all(status == "STOP" for _, status, _ in rows)
    assert env.world.cells["num"] == 0


def test_clear_restarts_the_buffer():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=3))
    events = [digit(1), digit(2), pressed("clear"), digit(4), digit(5), digit(6), pressed("enter")]
    rows = run_instants(env, ctl, events)
    assert [outputs for outputs, _, _ in rows][-1] == ["456"]
    assert all(outputs == [] for outputs, _, _ in rows[:-1])
    assert all(status == "STOP" for _, status, _ in rows)


def test_overflow_digits_beyond_the_buffer_are_ignored():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=2))
    rows = run_instants(env, ctl, [digit(7), digit(8), digit(9), pressed("enter")])
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["78"]]


def test_quiet_instants_produce_nothing():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=3))
    rows = run_instants(env, ctl, [None] * 5)
    assert all(outputs == [] and status == "STOP" and not done for outputs, status, done in rows)


def test_enter_rearms_the_digit_buffer():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=2))
    events = [digit(1), digit(2), digit(3), pressed("enter"), digit(4), pressed("enter")]
    rows = run_instants(env, ctl, events)
    # The third digit fell into the halt phase; after enter the buffer is
    # re-armed and accepts digits again.
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["12"], [], ["4"]]
    assert env.world.cells["num"] == 0


def test_at_most_n_digits_between_resets():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=3))
    rows = run_instants(env, ctl, [digit(9)] * 6 + [pressed("enter")])
    assert rows[-1][0] == ["999"]


def test_simultaneous_enter_and_digit_lets_enter_win():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=3))
    both = InstantEvents(frozenset({"enter"}), {"digit": 5})
    rows = run_instants(env, ctl, [digit(1), both], pad_empty=1)
    # The enter branch is leftmost: it prints and aborts the body before the
    # digit branch could consume the payload.
    assert [outputs for outputs, _, _ in rows] == [[], ["1"], []]
    assert env.world.cells["num"] == 0


def test_neg_button_negates_the_accumulator():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=3, with_neg=True))
    events = [digit(1), digit(2), pressed("neg"), pressed("enter")]
    rows = run_instants(env, ctl, events)
    assert rows[-1][0] == ["-12"]


def test_controller_never_terminates():
    env = Environment()
    ctl = mk_controller(env, KeypadSpec(digits=1))
    events = [digit(3), pressed("enter"), pressed("clear"), digit(8), None, pressed("enter")]
    rows = run_instants(env, ctl, events)
    assert all(not done for _, _, done in rows)
    assert all(status == "STOP" for _, status, _ in rows)


def test_spec_requires_positive_buffer():
    with pytest.raises(ValueError):
        KeypadSpec(digits=0)


def test_dsl_source_matches_library_construction():
    source = (DEMOS / "keypad.rx").read_text(encoding="utf-8")
    traces = [
        parse_trace((DEMOS / "keypad_enter.trace").read_text(encoding="utf-8")),
        parse_trace((DEMOS / "keypad_clear.trace").read_text(encoding="utf-8")),
        parse_trace((DEMOS / "keypad_overflow.trace").read_text(encoding="utf-8")),
    ]
    for trace in traces:
        dsl_env = Environment()
        dsl_ctl = compile_expr(parse_program(source), dsl_env)
        lib_env = Environment()
        lib_ctl = mk_controller(lib_env, KeypadSpec(digits=3))
        assert run_instants(dsl_env, dsl_ctl, trace) == run_instants(lib_env, lib_ctl, trace)
