"""World state, condition and integer evaluation, actions, templates."""
from __future__ import annotations

import copy

import pytest

from instants import (
    Abort,
    And,
    BinOp,
    BoolConst,
    CellRef,
    Compare,
    Environment,
    IntConst,
    IntegerTooLarge,
    Negate,
    Not,
    Or,
    Print,
    RaiseTag,
    SetCell,
    Sig,
    ValueRef,
    World,
    build_action,
    compile_expr,
    eval_cond,
    eval_int,
    parse_program,
)
from instants.world import (
    ActionSeq,
    InstantEvents,
    action_reads_events,
    cond_reads_events,
    int_reads_events,
    render_template,
)

from helpers import needs_print_limit, print_limit


def test_accumulator_arithmetic():
    world = World()
    world.cells["num"] = 12
    world.instant_values["digit"] = 3
    expr = BinOp("+", BinOp("*", CellRef("num"), IntConst(10)), ValueRef("digit"))
    assert eval_int(expr, world) == 123


def test_unset_names_read_zero():
    world = World()
    assert eval_int(CellRef("unset"), world) == 0
    assert eval_int(ValueRef("unset"), world) == 0


def test_not_of_absent_signal_is_true():
    world = World()
    assert eval_cond(Not(Sig("x")), world) is True


def test_boolean_connectives_and_comparisons():
    world = World()
    world.signals["a"] = True
    assert eval_cond(And(Sig("a"), Not(Sig("b"))), world)
    assert eval_cond(Or(Sig("b"), BoolConst(True)), world)
    assert eval_cond(Compare("<", IntConst(1), IntConst(2)), world)
    assert eval_cond(Compare("<=", IntConst(2), IntConst(2)), world)
    assert not eval_cond(Compare("=", IntConst(1), IntConst(2)), world)


def test_evaluation_is_pure():
    world = World()
    world.signals["a"] = True
    world.cells["x"] = 7
    world.instant_values["v"] = 2
    world.output.append("kept")
    snapshot = copy.deepcopy(world)
    eval_cond(And(Sig("a"), Compare("=", CellRef("x"), ValueRef("v"))), world)
    eval_int(Negate(BinOp("-", CellRef("x"), ValueRef("v"))), world)
    assert world == snapshot


def test_apply_instant_resets_ephemeral_state():
    world = World()
    world.cells["x"] = 5
    world.apply_instant(InstantEvents(frozenset({"enter"}), {"digit": 7}))
    assert world.signals == {"digit": True, "enter": True}
    assert world.instant_values == {"digit": 7}
    world.apply_instant(None)
    assert world.signals == {} and world.instant_values == {}
    assert world.cells == {"x": 5}


def test_signal_ephemerality():
    world = World()
    world.apply_instant(InstantEvents(frozenset({"k"})))
    assert eval_cond(Sig("k"), world)
    world.apply_instant(None)
    assert not eval_cond(Sig("k"), world)


def test_output_drained_once():
    world = World()
    world.emit("a")
    world.emit("b")
    assert world.drain_output() == ["a", "b"]
    assert world.drain_output() == []


def test_template_interpolation():
    world = World()
    world.cells["num"] = -4
    world.instant_values["d"] = 9
    assert render_template("n={cell:num} d={value:d} u={cell:u}", world) == "n=-4 d=9 u=0"
    assert render_template("plain {not:a:field}", world) == "plain {not:a:field}"


def test_actions_mutate_and_raise():
    world = World()
    action = build_action(
        ActionSeq((Print("x={cell:x}"), SetCell("x", IntConst(3)), RaiseTag("Bang")))
    )
    with pytest.raises(Abort) as exc:
        action.run(world)
    assert exc.value.tag == "Bang"
    assert world.output == ["x=0"]
    assert world.cells["x"] == 3


def test_event_read_detection():
    assert cond_reads_events(Sig("a"))
    assert cond_reads_events(Not(And(BoolConst(True), Sig("b"))))
    assert not cond_reads_events(Compare("=", CellRef("x"), IntConst(1)))
    assert cond_reads_events(Compare("=", ValueRef("v"), IntConst(1)))
    assert int_reads_events(BinOp("+", IntConst(1), ValueRef("v")))
    assert not int_reads_events(Negate(CellRef("x")))
    assert action_reads_events(Print("{value:v}"))
    assert not action_reads_events(Print("{cell:x}"))
    assert action_reads_events(ActionSeq((SetCell("x", ValueRef("v")),)))
    assert build_action(Print("{value:v}")).reads_events



@needs_print_limit
def test_arithmetic_results_stop_at_the_print_limit():
    limit = print_limit()
    largest = 10**limit - 1
    world = World()
    assert eval_int(BinOp("+", IntConst(largest - 1), IntConst(1)), world) == largest
    assert eval_int(BinOp("-", IntConst(-largest + 1), IntConst(1)), world) == -largest
    for expr in (
        BinOp("+", IntConst(largest), IntConst(1)),
        BinOp("-", IntConst(-largest), IntConst(1)),
        BinOp("*", IntConst(10**limit // 2), IntConst(2)),
    ):
        with pytest.raises(IntegerTooLarge):
            eval_int(expr, world)
    with pytest.raises(IntegerTooLarge):
        eval_cond(Compare("<", BinOp("*", IntConst(largest), IntConst(largest)), IntConst(0)), world)


@needs_print_limit
def test_unprinted_squaring_cell_raises_before_it_outgrows_the_print_limit():
    env = Environment()
    source = (
        "(rexp (seq (set x 2) (activate (loop (rexp (seq (set x (* (cell x) (cell x)))"
        " (stop)))))))"
    )
    root = compile_expr(parse_program(source), env)
    with pytest.raises(IntegerTooLarge):
        for _ in range(30):
            env.world.apply_instant(None)
            env.react(root)
    # The last square stored is the last one that could still be printed.
    x = env.world.cells["x"]
    assert x < 10 ** print_limit() <= x * x
