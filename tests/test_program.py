"""Basic-program execution: sequencing, control points, handlers."""
from __future__ import annotations

import pytest

from instants import (
    Abort,
    Activate,
    Atom,
    END,
    Environment,
    Handle,
    HostAction,
    IntegerTooLarge,
    Print,
    Raise,
    Seq,
    STOP,
    Stop,
    Suspend,
    build_action,
    parse_program,
    rexp,
    seq,
)
from instants.program import initial_resumption, run_resumption
from instants.world import ActionSeq, IntConst, SetCell

from helpers import react_once, run_instants


def printer(text):
    return Atom(build_action(Print(text)))


def run_once(env, program_or_res):
    res = program_or_res if hasattr(program_or_res, "pc") else initial_resumption(program_or_res)
    return run_resumption(env, res), res


def test_empty_program_terminates_with_no_effects():
    env = Environment()
    status, res = run_once(env, Seq(()))
    assert status is END
    assert res.pc >= len(res.ops)
    assert env.world.output == []


def test_stop_positions_resumption_after_the_stop():
    env = Environment()
    status, res = run_once(env, seq(printer("a"), Stop(), printer("b")))
    assert status is STOP
    assert env.world.output == ["a"]
    assert run_resumption(env, res) is END
    assert env.world.output == ["a", "b"]


def test_one_output_per_instant_over_a_list():
    env = Environment()
    program = seq(
        printer("1"), Stop(), printer("2"), Stop(), printer("3"), Stop(), printer("4"), Stop()
    )
    r = rexp(env, program)
    for expected in ("1", "2", "3", "4"):
        assert react_once(env, r) == ([expected], False)
    assert react_once(env, r) == ([], True)


def test_activate_continues_in_the_same_instant_after_child_end():
    env = Environment()
    inner = rexp(env, seq(printer("FIRST"), Stop(), printer("SECOND")))
    outer = rexp(env, seq(Activate(inner), printer("DONE")))
    assert react_once(env, outer) == (["FIRST"], False)
    assert react_once(env, outer) == (["SECOND", "DONE"], True)


def test_activate_stays_pinned_while_child_pauses():
    env = Environment()
    inner = rexp(env, seq(Stop(), Stop(), Stop()))
    outer = rexp(env, seq(Activate(inner), printer("after")))
    for _ in range(3):
        assert react_once(env, outer) == ([], False)
    assert react_once(env, outer) == (["after"], True)


def test_handler_catches_in_the_same_activation():
    env = Environment()
    body = seq(printer("FIRST"), Stop(), Raise("Abort"))
    r = rexp(env, Handle(body, "Abort", seq(printer("caught"))))
    assert react_once(env, r) == (["FIRST"], False)
    assert react_once(env, r) == (["caught"], True)


def test_innermost_matching_handler_wins():
    env = Environment()
    inner = Handle(seq(Raise("T")), "T", seq(printer("inner")))
    outer = Handle(Seq((inner,)), "T", seq(printer("outer")))
    r = rexp(env, outer)
    assert react_once(env, r) == (["inner"], True)

    # Three Handles of one tag: past the inner one, the middle one is the
    # innermost whose body holds the raise.
    env = Environment()
    middle = Handle(seq(inner, Raise("T")), "T", seq(printer("middle")))
    r = rexp(env, Handle(seq(middle, printer("after")), "T", seq(printer("outer"))))
    assert react_once(env, r) == (["inner", "middle", "after"], True)


@pytest.mark.parametrize("abort, printed", [(Raise("T"), []), (ActionSeq((Print("a"), Raise("T"))), ["a"])],
                         ids=["raise", "action"])
def test_abort_just_before_a_handle_is_not_caught_by_it(abort, printed):
    env = Environment()
    body = seq(abort, Handle(seq(printer("never")), "T", seq(printer("wrong"))))
    r = rexp(env, Handle(body, "T", seq(printer("outer"))))
    assert react_once(env, r) == ([*printed, "outer"], True)


def test_handle_with_an_empty_body_skips_its_handler_and_catches_nothing():
    env = Environment()
    body = seq(Handle(Seq(()), "T", seq(printer("wrong"))), printer("past"), Raise("T"))
    r = rexp(env, Handle(body, "T", seq(printer("outer"))))
    assert react_once(env, r) == (["past", "outer"], True)


def test_raise_in_handler_code_reaches_the_outer_handle():
    env = Environment()
    inner = Handle(seq(Raise("T")), "T", seq(printer("inner"), Stop(), Raise("T"), printer("never")))
    r = rexp(env, Handle(Seq((inner,)), "T", seq(printer("outer"))))
    assert react_once(env, r) == (["inner"], False)
    assert react_once(env, r) == (["outer"], True)


def test_non_matching_handler_is_skipped():
    env = Environment()
    inner = Handle(seq(Raise("U")), "T", seq(printer("wrong")))
    outer = Handle(Seq((inner,)), "U", seq(printer("right")))
    r = rexp(env, outer)
    assert react_once(env, r) == (["right"], True)


def test_handler_may_pause_and_resume():
    env = Environment()
    handler = seq(printer("h1"), Stop(), printer("h2"))
    r = rexp(env, Handle(seq(Raise("T")), "T", handler))
    assert react_once(env, r) == (["h1"], False)
    assert react_once(env, r) == (["h2"], True)


def test_uncaught_raise_empties_the_resumption():
    env = Environment()
    res = initial_resumption(seq(printer("x"), Raise("Nope"), printer("never")))
    with pytest.raises(Abort) as exc:
        run_resumption(env, res)
    assert exc.value.tag == "Nope"
    assert res.pc >= len(res.ops)
    assert env.world.output == ["x"]


def test_abort_from_activated_child_reaches_enclosing_handler():
    env = Environment()
    child = rexp(env, seq(Raise("Cut")))
    r = rexp(env, Handle(seq(printer("pre"), Activate(child), printer("never")), "Cut", seq(printer("post"))))
    assert react_once(env, r) == (["pre", "post"], True)
    assert env.statuses[child] is END


def test_rest_of_handle_body_is_abandoned_after_catch():
    env = Environment()
    body = seq(Raise("T"), printer("skipped"))
    r = rexp(env, Handle(body, "T", Seq(())))
    assert react_once(env, r) == ([], True)


def test_a_basic_node_saves_its_pc_alone():
    env = Environment()
    r = rexp(env, Handle(seq(printer("a"), Stop(), printer("b")), "T", Seq(())))
    node = env.nodes[r]
    assert react_once(env, r) == (["a"], False)
    assert node.save() == 2
    node.load(0)
    assert react_once(env, r) == (["a"], False)


def test_a_failing_instruction_keeps_pc_on_it():
    """A ReactiveError leaves pc on the ATOM that raised it, as a child
    that fails leaves its parent's pc on the ACTIVATE."""

    def overflow(world):
        raise IntegerTooLarge("cell x")

    env = Environment()
    child = rexp(env, seq(Stop(), printer("a"), Atom(HostAction(overflow)), printer("never")))
    parent = rexp(env, seq(printer("p"), Activate(child)))
    assert react_once(env, parent) == (["p"], False)
    with pytest.raises(IntegerTooLarge):
        env.react(parent)
    assert env.world.drain_output() == ["a"]
    assert env.nodes[child].pc == 2
    assert env.nodes[parent].pc == 1


@pytest.mark.parametrize("item", [("x",), ("body", 0), ("handler", 0), 3])
def test_an_item_that_is_no_instruction_raises_type_error(item):
    with pytest.raises(TypeError, match="not an instruction"):
        rexp(Environment(), seq(item))


def test_suspend_positions_resumption_after_the_suspend():
    env = Environment()
    status, res = run_once(env, seq(Suspend(), printer("late")))
    assert status.name == "SUSP"
    assert run_resumption(env, res) is END
    assert env.world.output == ["late"]


def test_library_programs_take_action_specs_directly():
    specs = (Print("a"), SetCell("x", IntConst(1)), Stop(), Print("{cell:x}"))
    env, by_hand = Environment(), Environment()
    direct = rexp(env, seq(*specs))
    atoms = rexp(by_hand, seq(*(item if item == Stop() else Atom(build_action(item)) for item in specs)))
    ops, hand_ops = env.nodes[direct].ops, by_hand.nodes[atoms].ops
    assert ops == hand_ops
    assert all(arg is hand_arg for (_, arg), (_, hand_arg) in zip(ops, hand_ops))
    rows = [(["a"], "STOP", False), (["1"], "END", True)]
    assert run_instants(env, direct, [], pad_empty=2) == run_instants(by_hand, atoms, [], pad_empty=2) == rows

    # A Raise inside an ActionSeq reaches the enclosing Handle.
    env = Environment()
    body = seq(ActionSeq((Print("a"), Raise("T"), Print("never"))), Print("skipped"))
    assert react_once(env, rexp(env, Handle(body, "T", Print("caught")))) == (["a", "caught"], True)

    # A parsed body activates an expression's AST, which is no id.
    program = parse_program('(rexp (seq (print "a") (activate (nothing))))').program
    with pytest.raises(ValueError, match="is not allocated"):
        rexp(Environment(), program)
