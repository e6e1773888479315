"""Keypad controller scenarios and invariants."""
from __future__ import annotations

import random

from instants import Environment
from instants.world import InstantEvents

from helpers import keypad, keypad_ast, run_instants
from reference import engine_run, oracle_run


def digit(d):
    return InstantEvents(frozenset(), {"digit": d})


def pressed(name):
    return InstantEvents(frozenset({name}))


def test_enter_after_three_digits_prints_the_number():
    env = Environment()
    ctl = keypad(env, digits=3)
    rows = run_instants(env, ctl, [digit(1), digit(2), digit(3), pressed("enter")], pad_empty=2)
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["123"], [], []]
    assert all(status == "STOP" for _, status, _ in rows)
    assert env.world.cells["num"] == 0


def test_clear_restarts_the_buffer():
    env = Environment()
    ctl = keypad(env, digits=3)
    events = [digit(1), digit(2), pressed("clear"), digit(4), digit(5), digit(6), pressed("enter")]
    rows = run_instants(env, ctl, events)
    assert [outputs for outputs, _, _ in rows][-1] == ["456"]
    assert all(outputs == [] for outputs, _, _ in rows[:-1])
    assert all(status == "STOP" for _, status, _ in rows)


def test_overflow_digits_beyond_the_buffer_are_ignored():
    env = Environment()
    ctl = keypad(env, digits=2)
    rows = run_instants(env, ctl, [digit(7), digit(8), digit(9), pressed("enter")])
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["78"]]


def test_quiet_instants_produce_nothing():
    env = Environment()
    ctl = keypad(env, digits=3)
    rows = run_instants(env, ctl, [None] * 5)
    assert all(outputs == [] and status == "STOP" and not done for outputs, status, done in rows)


def test_enter_rearms_the_digit_buffer():
    env = Environment()
    ctl = keypad(env, digits=2)
    events = [digit(1), digit(2), digit(3), pressed("enter"), digit(4), pressed("enter")]
    rows = run_instants(env, ctl, events)
    # The third digit fell into the halt phase; after enter the buffer is
    # re-armed and accepts digits again.
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["12"], [], ["4"]]
    assert env.world.cells["num"] == 0


def test_at_most_n_digits_between_resets():
    env = Environment()
    ctl = keypad(env, digits=3)
    rows = run_instants(env, ctl, [digit(9)] * 6 + [pressed("enter")])
    assert rows[-1][0] == ["999"]


def test_simultaneous_enter_and_digit_lets_enter_win():
    env = Environment()
    ctl = keypad(env, digits=3)
    both = InstantEvents(frozenset({"enter"}), {"digit": 5})
    rows = run_instants(env, ctl, [digit(1), both], pad_empty=1)
    # The enter branch is leftmost: it prints and aborts the body before the
    # digit branch could consume the payload.
    assert [outputs for outputs, _, _ in rows] == [[], ["1"], []]
    assert env.world.cells["num"] == 0


def test_neg_button_negates_the_accumulator():
    env = Environment()
    ctl = keypad(env, digits=3, with_neg=True)
    events = [digit(1), digit(2), pressed("neg"), pressed("enter")]
    rows = run_instants(env, ctl, events)
    assert rows[-1][0] == ["-12"]


def test_controller_never_terminates():
    env = Environment()
    ctl = keypad(env, digits=1)
    events = [digit(3), pressed("enter"), pressed("clear"), digit(8), None, pressed("enter")]
    rows = run_instants(env, ctl, events)
    assert all(not done for _, _, done in rows)
    assert all(status == "STOP" for _, status, _ in rows)




def _random_instant(rng: random.Random) -> InstantEvents:
    """Zero to three presses, some of them in the same instant."""
    signals, values = set(), {}
    for _ in range(rng.choice([0, 0, 1, 1, 1, 2, 3])):
        button = rng.choice(["digit", "digit", "digit", "enter", "clear", "neg"])
        if button == "digit":
            values["digit"] = rng.randrange(10)
        else:
            signals.add(button)
    return InstantEvents(frozenset(signals), values)


def test_keypad_variants_agree_with_the_reference():
    for digits in range(1, 5):
        for with_neg in (False, True):
            ast = keypad_ast(digits, with_neg)
            for seed in range(10):
                rng = random.Random(seed)
                trace = [_random_instant(rng) for _ in range(60)]
                assert engine_run(ast, trace) == oracle_run(ast, trace), (digits, with_neg, seed)
