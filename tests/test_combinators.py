"""Combinator construction and per-combinator behavior."""
from __future__ import annotations

import pytest

from instants import (
    Atom,
    Environment,
    HostAction,
    Print,
    STOP,
    Stop,
    Suspend,
    await_,
    build_action,
    close,
    halt,
    init,
    loop,
    merge,
    nothing,
    repeat,
    rexp,
    rif,
    seq,
    terminate,
    when,
)
from instants.world import BoolConst, InstantEvents, Sig

from helpers import react_once, run_instants


def test_a_non_action_is_rejected_where_it_is_built():
    """init and Atom take a HostAction. A spec that build_action has not
    compiled, or a str, raises TypeError as it is built, not an
    AttributeError at the first react."""
    env = Environment()
    child = nothing(env)
    for action in ("x", Print("x")):
        with pytest.raises(TypeError, match="^not a host action: "):
            init(env, action, child)
        with pytest.raises(TypeError, match="^not a host action: "):
            Atom(action)
    assert len(env.nodes) == 1


def printer(text):
    return Atom(build_action(Print(text)))


def sig(name):
    return InstantEvents(frozenset({name}))


def test_nothing_terminates_immediately():
    env = Environment()
    assert react_once(env, nothing(env)) == ([], True)


def test_empty_rexp_is_nothing():
    env = Environment()
    r = rexp(env, seq())
    assert react_once(env, r) == ([], True)


def test_suspending_rexp_finishes_within_one_react():
    env = Environment()
    r = rexp(env, seq(Suspend()))
    assert react_once(env, r) == ([], True)


def test_merge_of_nothings_terminates_first_instant():
    env = Environment()
    m = merge(env, nothing(env), nothing(env))
    assert react_once(env, m) == ([], True)


def test_merge_with_halt_never_terminates():
    env = Environment()
    m = merge(env, halt(env), nothing(env))
    for _ in range(5):
        _, done = react_once(env, m)
        assert not done and env.statuses[m] is STOP


def test_rif_selects_by_condition():
    env = Environment()
    r = rif(env, BoolConst(True), nothing(env), halt(env))
    assert react_once(env, r) == ([], True)


def test_rif_reevaluates_every_instant_and_branches_keep_state():
    env = Environment()
    then_branch = rexp(env, seq(printer("a1"), Stop(), printer("a2")))
    else_branch = rexp(env, seq(printer("b1"), Stop(), printer("b2")))
    r = rif(env, Sig("c"), then_branch, else_branch)
    assert react_once(env, r, sig("c")) == (["a1"], False)
    assert react_once(env, r, None) == (["b1"], False)
    assert react_once(env, r, sig("c")) == (["a2"], True)


def test_close_of_nothing_terminates():
    env = Environment()
    assert react_once(env, close(env, nothing(env))) == ([], True)


def test_close_resolves_consecutive_suspensions():
    env = Environment()
    c = close(env, rexp(env, seq(Suspend(), Suspend(), printer("X"), Stop())))
    assert react_once(env, c) == (["X"], False)


def test_halt_stops_forever():
    env = Environment()
    h = halt(env)
    for _ in range(6):
        _, done = react_once(env, h)
        assert not done and env.statuses[h] is STOP


def test_a_halt_is_one_node_and_a_when_its_childs_plus_two():
    env = Environment()
    halt(env)
    assert len(env.nodes) == 1
    env = Environment()
    when(env, Sig("s"), nothing(env))
    assert len(env.nodes) == 3


def test_loop_emits_every_instant():
    env = Environment()
    l = loop(env, rexp(env, seq(printer("SECOND"), Stop())))
    for _ in range(3):
        assert react_once(env, l) == (["SECOND"], False)


def test_loop_is_isolated_from_its_argument():
    env = Environment()
    body = rexp(env, seq(printer("tick"), Stop(), printer("tock"), Stop()))
    l = loop(env, env.dup(body))
    # Advance the argument directly; the loop runs its own copy and must
    # not notice.
    react_once(env, body)
    assert react_once(env, l) == (["tick"], False)
    assert react_once(env, l) == (["tock"], False)
    # Without the copy, the loop takes the body over.
    assert env.nodes[loop(env, body)].children[0] == body


def test_repeat_zero_is_nothing():
    env = Environment()
    assert react_once(env, repeat(env, 0, halt(env))) == ([], True)


def test_repeat_negative_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        repeat(env, -1, nothing(env))


def test_repeat_two_stops_then_ends():
    env = Environment()
    r = repeat(env, 2, rexp(env, seq(Stop())))
    rows = [react_once(env, r) for _ in range(3)]
    assert [done for _, done in rows] == [False, False, True]


def test_init_runs_action_before_every_activation():
    env = Environment()
    i = init(env, build_action(Print("I")), halt(env))
    for _ in range(3):
        assert react_once(env, i) == (["I"], False)


def test_init_with_noop_behaves_as_child():
    env = Environment()
    i = init(env, HostAction(run=lambda w: None), rexp(env, seq(printer("x"), Stop(), printer("y"))))
    assert react_once(env, i) == (["x"], False)
    assert react_once(env, i) == (["y"], True)


def test_init_counts_both_activations():
    env = Environment()
    hits = []
    i = init(env, HostAction(run=lambda w: hits.append(1)), rexp(env, seq(Stop())))
    react_once(env, i)
    _, done = react_once(env, i)
    assert done and len(hits) == 2
    # Terminated: the action no longer runs.
    react_once(env, i)
    assert len(hits) == 2


def test_await_blocks_until_condition_holds():
    env = Environment()
    a = await_(env, Sig("go"), nothing(env))
    rows = run_instants(env, a, [None, None, sig("go")])
    assert [done for _, _, done in rows] == [False, False, True]


def test_await_with_true_condition_is_transparent():
    env = Environment()
    a = await_(env, BoolConst(True), rexp(env, seq(printer("x"), Stop(), printer("y"))))
    assert react_once(env, a) == (["x"], False)
    assert react_once(env, a) == (["y"], True)


def test_await_latches_after_first_true():
    env = Environment()
    child = rexp(env, seq(printer("c1"), Stop(), printer("c2")))
    a = await_(env, Sig("go"), child)
    assert react_once(env, a, None) == ([], False)
    assert react_once(env, a, sig("go")) == (["c1"], False)
    # Condition false again: the child is still activated.
    assert react_once(env, a, None) == (["c2"], True)


def test_when_false_forever_never_ends():
    env = Environment()
    w = when(env, Sig("x"), nothing(env))
    for _ in range(3):
        _, done = react_once(env, w)
        assert not done


def test_when_true_steps_child():
    env = Environment()
    w = when(env, BoolConst(True), rexp(env, seq(printer("hi"))))
    assert react_once(env, w) == (["hi"], True)


def test_terminate_true_ends_immediately():
    env = Environment()
    t = terminate(env, BoolConst(True), halt(env))
    assert react_once(env, t) == ([], True)


def test_terminate_false_behaves_as_child():
    env = Environment()
    t = terminate(env, Sig("cut"), rexp(env, seq(printer("a"), Stop(), printer("b"))))
    assert react_once(env, t) == (["a"], False)
    assert react_once(env, t) == (["b"], True)


def test_terminate_fires_on_the_condition_instant():
    env = Environment()
    t = terminate(env, Sig("cut"), halt(env))
    rows = run_instants(env, t, [None, None, sig("cut")])
    assert [done for _, _, done in rows] == [False, False, True]
