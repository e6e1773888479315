"""Basic-program execution: sequencing, control points, handlers."""
from __future__ import annotations

import copy
from collections import Counter

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
    SUSP,
    Stop,
    Suspend,
    build_action,
    loop,
    parse_program,
    rexp,
    seq,
)
from instants.program import ACTIVATE, ATOM, JUMP, PAUSE, TEXT, TEXT_PAUSE, initial_resumption, run_resumption
from instants.world import ActionSeq, InstantEvents, IntConst, SetCell

from helpers import react_once, run_instants, structure


def printer(text):
    return Atom(build_action(Print(text)))


def run_once(env, program_or_res):
    res = program_or_res if hasattr(program_or_res, "state") else initial_resumption(program_or_res)
    return run_resumption(env, res), res


def test_empty_program_terminates_with_no_effects():
    env = Environment()
    status, res = run_once(env, Seq(()))
    assert status is END
    assert res.state >= len(res.ops)
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
    assert res.state >= len(res.ops)
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
    assert node.state == 2
    node.state = 0
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
    assert env.nodes[child].state == 2
    assert env.nodes[parent].state == 1


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
    # A field-free print is laid out as TEXT; every other spec as the ATOM
    # of an action that build_action compiles from it.
    assert ops[0] == (TEXT, "a") and hand_ops[0][0] == ATOM
    assert structure(ops[1:]) == structure(hand_ops[1:])
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


def test_a_repeated_leaf_lays_out_as_distinct_objects_would():
    """Layout reuses the op of a leaf it has laid out already. A program
    that holds one Print, one Handle and one Activate object twice each
    must lay out as if each occurrence were its own object: a Handle's
    scope and an Activate's target index depend on where it stands. So
    must repeated leaves inside nested Seqs and inside a Handle's body and
    its handler, which layout takes in place from each one's items."""
    say, catch, call = Print("x"), Handle(seq(Suspend(), Raise("T")), "T", seq()), Activate(0)
    items = (say, catch, call, Stop(), say, catch, call)
    shared = initial_resumption(seq(*items))
    distinct = initial_resumption(seq(*map(copy.deepcopy, items)))
    assert structure(shared.ops) == structure(distinct.ops)
    assert shared.handles == distinct.handles == ((1, 3, "T"), (7, 9, "T"))
    assert shared.children == distinct.children == (0, 0)
    assert [arg for op, arg in shared.ops if op == ACTIVATE] == [0, 1]

    stop = Stop()
    inner = seq(say, seq(stop, seq(say, call)), stop)
    guarded = Handle(seq(say, inner, Raise("U"), say), "U", seq(stop, inner, say))
    items = (inner, guarded, seq(seq(guarded), say), call, inner)
    shared = initial_resumption(seq(*items))
    distinct = initial_resumption(seq(*map(copy.deepcopy, items)))
    assert structure(shared.ops) == structure(distinct.ops)
    assert shared.handles == distinct.handles == ((5, 13, "U"), (21, 29, "U"))
    assert shared.children == distinct.children == (0,) * 7
    assert [arg for op, arg in shared.ops if op == ACTIVATE] == list(range(7))
    # The first Handle: its body, the JUMP over its handler, then the
    # handler, each repeated leaf in its place. A print that stands before
    # a stop is fused with it, and the stop keeps its place.
    text, pause, raise_u = (TEXT, "x"), (PAUSE, STOP), (ATOM, build_action(Raise("U")))
    fused = (TEXT_PAUSE, ("x", STOP))
    assert structure(shared.ops[5:21]) == structure((
        text, fused, pause, text, (ACTIVATE, 1), pause, raise_u, text, (JUMP, 21),
        pause, fused, pause, text, (ACTIVATE, 2), pause, text))


def test_a_body_nested_ten_thousand_levels_deep_lays_out_and_runs():
    """Layout walks each Seq and Handle in place, with no recursion, so a
    library body nested 10,000 levels through Seqs and Handle bodies lays
    out and runs. Its op count and outputs are checked, not the AST, whose
    comparison recurses."""
    say, levels = Print("a"), 10_000
    body = seq(Print("in"), Stop(), Raise("T"))
    for level in range(levels):
        # A Seq level prints before it goes deeper; a Handle level lays
        # out its body, a JUMP and its one-op handler.
        body = seq(say, body) if level % 2 else Handle(body, "T", seq(Print("caught")))
    node = initial_resumption(body)
    assert len(node.ops) == 3 + levels // 2 * 3
    assert len(node.handles) == levels // 2
    env = Environment()
    r = rexp(env, body)
    assert react_once(env, r) == (["a"] * (levels // 2) + ["in"], False)
    # The innermost Handle catches, and every enclosing one jumps over
    # its handler.
    assert react_once(env, r) == (["caught"], True)


# Templates with no {cell:name} or {value:name} field, and with one.
FIELD_FREE = ("100%", "%s", "{cell:}", "{x:a}", "{cell:a")
TEMPLATED = ("{{cell:a}}", "{cell:x}")


@pytest.mark.parametrize("template", FIELD_FREE + TEMPLATED)
def test_a_print_lays_out_as_text_exactly_when_it_has_no_field(template):
    op = (TEXT, template) if template in FIELD_FREE else (ATOM, build_action(Print(template)))
    assert structure(initial_resumption(Print(template)).ops) == structure((op,))


def test_an_action_sequence_of_field_free_prints_stays_one_atom():
    (item,) = parse_program('(rexp (seq (do (print "a") (print "b"))))').program.items
    assert isinstance(item, ActionSeq)
    assert structure(initial_resumption(item).ops) == structure(((ATOM, build_action(item)),))


def test_a_repeated_field_free_print_lays_out_as_one_shared_op():
    """Each occurrence of one print that stands before no pause is the
    same op; an equal print of its own is an equal op, not the same one.
    A print before a pause is fused with it, each occurrence in an op of
    its own, and the pause's op stays shared."""
    say = Print("x")
    ops = initial_resumption(seq(say, Print("y"), say, Print("x"), say, Stop())).ops
    assert ops[0] == ops[3] == (TEXT, "x")
    assert ops[0] is ops[2] and ops[0] is not ops[3]
    assert ops[4:] == ((TEXT_PAUSE, ("x", STOP)), (PAUSE, STOP))
    stop = Stop()
    ops = initial_resumption(seq(say, stop, say, stop, Print("x"), stop, say, Suspend())).ops
    assert ops[0] == ops[4] == (TEXT_PAUSE, ("x", STOP)) and ops[6] == (TEXT_PAUSE, ("x", SUSP))
    assert ops[1] is ops[3] is ops[5] and ops[0] is not ops[2]


def _as_atoms(program):
    """program with every action spec in it laid out by hand as the ATOM
    of its compiled action, so no TEXT op is left."""
    if isinstance(program, Seq):
        return Seq(tuple(map(_as_atoms, program.items)))
    if isinstance(program, Handle):
        return Handle(_as_atoms(program.body), program.tag, _as_atoms(program.handler))
    if isinstance(program, (Print, SetCell, Raise, ActionSeq)):
        return Atom(build_action(program))
    return program


def _prints_and_stops(env, layout):
    program = seq(SetCell("a", IntConst(5)), *map(Print, FIELD_FREE + TEMPLATED), Stop(),
                  ActionSeq((Print("a"), Print("{cell:a}"))), Print("end"))
    return rexp(env, layout(program))


def _handler_prints(env, layout):
    body = seq(Print("a"), Raise("T"), Print("never"))
    return rexp(env, layout(Handle(body, "T", seq(Print("h"), Stop(), Print("{{cell:a}}")))))


def _abort_after_text(env, layout):
    # The child prints and aborts in one activation; its parent catches.
    child = rexp(env, layout(seq(Print("a"), Stop(), Print("b"), Raise("T"), Print("never"))))
    return rexp(env, layout(Handle(seq(Activate(child), Print("never")), "T", Print("caught"))))


def _loop_restarts_in_place(env, layout):
    return loop(env, rexp(env, layout(seq(Print("a"), Stop(), Print("b")))))


def _loop_restarts_deferred(env, layout):
    # The body ends on a payload read, so it restarts at the next instant.
    return loop(env, rexp(env, layout(seq(Print("a"), Stop(), Print("{value:v}")))))


def _loop_restart_waits_for_a_read(env, layout):
    return loop(env, rexp(env, layout(seq(Print("a"), Print("{value:v}"), Print("b")))))


def _loop_without_a_pause(env, layout):
    return loop(env, rexp(env, layout(seq(Print("a"), Print("b")))))


def _dup_after_an_instant(env, layout):
    original = rexp(env, layout(seq(Print("a"), Stop(), Print("b"), Stop(), Print("c"))))
    env.world.apply_instant(None)
    env.react(original)
    return env.dup(original)


def _dup_after_a_suspend(env, layout):
    # The original suspends and is stepped again in its first instant; the
    # copy starts where that left it.
    original = rexp(env, layout(seq(Print("a"), Suspend(), Print("b"), Stop(), Print("c"))))
    env.world.apply_instant(None)
    env.react(original)
    return env.dup(original)


def _handle_body_ends(env, layout):
    # The body ends, and its JUMP over the handler lands on the stop after it.
    body = seq(Print("a"), Stop(), Print("b"))
    return rexp(env, layout(seq(Handle(body, "T", Print("h")), Stop(), Print("z"))))


def _handler_starts_fused(env, layout):
    # A caught abort enters the handler at its first op, a print before a
    # suspend.
    body = seq(Print("a"), Stop(), Raise("T"), Print("never"))
    handler = seq(Print("h"), Suspend(), Print("i"))
    return rexp(env, layout(seq(Handle(body, "T", handler), Stop(), Print("z"))))


# The TEXT_PAUSE ops of every node each program lays out as it stands.
_FUSED = {_prints_and_stops: 0, _handler_prints: 1, _abort_after_text: 1, _loop_restarts_in_place: 1,
          _loop_restart_waits_for_a_read: 0, _loop_without_a_pause: 0, _dup_after_an_instant: 4,
          _loop_restarts_deferred: 1, _dup_after_a_suspend: 4, _handle_body_ends: 2, _handler_starts_fused: 3}


@pytest.mark.parametrize("build, rows, error", [
    (_prints_and_stops, [[*FIELD_FREE, "{5}", "0"], ["a", "5", "end"]], None),
    (_handler_prints, [["a", "h"], ["{5}"]], None),
    (_abort_after_text, [["a"], ["b", "caught"]], None),
    (_loop_restarts_in_place, [["a"], ["b", "a"], ["b", "a"]], None),
    (_loop_restart_waits_for_a_read, [["a", "1", "b"], ["a", "2", "b"], ["a", "3", "b"]], None),
    (_loop_without_a_pause, [], "InstantaneousLoop"),
    (_dup_after_an_instant, [["b"], ["c"]], None),
    (_loop_restarts_deferred, [["a"], ["2"], ["a"]], None),
    (_dup_after_a_suspend, [["c"]], None),
    (_handle_body_ends, [["a"], ["b"], ["z"]], None),
    (_handler_starts_fused, [["a"], ["h", "i"], ["z"]], None),
], ids=lambda value: getattr(value, "__name__", None))
def test_text_ops_run_as_their_all_atom_layout_does(build, rows, error):
    """Each program runs laid out as it stands, with its field-free prints
    as TEXT and each one before a pause fused with it as a TEXT_PAUSE, and
    laid out by hand with every print an ATOM, where nothing fuses: the
    outputs, the status and state of every node and the error must be the
    same."""
    runs = []
    for layout in (lambda program: program, _as_atoms):
        env = Environment()
        env.world.cells["a"] = 5
        root = build(env, layout)
        events = [InstantEvents(values={"v": i}) for i in range(1, 4)]
        trace = env.react_t(root, 3, events)
        ops = Counter(op for node in env.nodes.values() for op, _ in getattr(node, "ops", ()))
        states = {rid: node.state for rid, node in env.nodes.items()}
        runs.append(([record.outputs for record in trace.instants], trace.error, dict(env.statuses), states))
        if layout is _as_atoms:
            assert ops[TEXT] == ops[TEXT_PAUSE] == 0
        else:
            assert ops[TEXT] + ops[TEXT_PAUSE] > 0 and ops[TEXT_PAUSE] == _FUSED[build]
    assert runs[0] == runs[1]
    assert runs[0][:2] == (rows, error)
