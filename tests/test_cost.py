"""Cost in exact counts, with no clock. Setup: what parse_program and
layout do for a program whose forms repeat, as big_program's do, does not
grow with the number of repeats. Run time: the Python frames that a
compiled action, and one step of a basic node, enter."""
from __future__ import annotations

import sys
from collections import Counter

import pytest

from instants import Environment, STOP, SUSP, dsl, parse_program
from instants import program as program_module
from instants.dsl import compile_expr
from instants.program import ACTIVATE, ATOM, JUMP, PAUSE, TEXT_PAUSE, BasicNode
from instants.world import (
    BinOp,
    CellRef,
    Compare,
    InstantEvents,
    IntConst,
    Negate,
    Print,
    SetCell,
    ValueRef,
    World,
    build_action,
    compile_cond,
    compile_int,
)

from helpers import KEYPAD_RX

BRANCHES = 4


def _big_program(steps: int) -> str:
    """big_program's shape: a (par ...) of rexp bodies, body i a seq of one
    set/print/stop step on cell ci, repeated steps times."""
    branches = []
    for i in range(BRANCHES):
        step = f'(set c{i} (+ (cell c{i}) (value v))) (print "c{i}={{cell:c{i}}}") (stop)'
        branches.append("(rexp (seq\n  " + "\n  ".join([step] * steps) + "))")
    return "(par\n" + "\n".join(branches) + ")\n"


@pytest.mark.parametrize("steps", [50, 100, 200])
def test_setup_costs_what_is_distinct_not_what_repeats(monkeypatch, steps):
    """_build is entered once per distinct (form, kind) pair that stands in
    an argument's place, plus the root: a last argument is built by the
    chain, with no entry. Here those pairs are each branch's (set ...),
    (cell ci) and (print ...), the shared (stop), and the rexp of every
    branch but the last. Layout compiles each body's distinct specs once,
    and lays out three ops per step."""
    entered = []
    build = dsl._build
    monkeypatch.setattr(dsl, "_build", lambda node, kind, built: entered.append((id(node), kind))
                        or build(node, kind, built))
    ast = parse_program(_big_program(steps))
    assert len(entered) == len(set(entered)) == 4 * BRANCHES + 1
    assert Counter(kind for _, kind in entered) == {
        "expression": BRANCHES, "program": 2 * BRANCHES + 1, "integer": BRANCHES}

    compiled = []
    monkeypatch.setattr(program_module, "build_action", lambda spec: compiled.append(spec) or build_action(spec))
    env = Environment()
    compile_expr(ast, env)
    specs = [{id(item) for item in body.program.items if isinstance(item, (Print, SetCell))}
             for body in ast.children]
    assert list(map(len, specs)) == [2] * BRANCHES
    assert sorted(map(id, compiled)) == sorted(key for body in specs for key in body)
    bodies = [node for node in env.nodes.values() if isinstance(node, BasicNode)]
    assert [len(node.ops) for node in bodies] == [3 * steps] * BRANCHES


def test_layout_compiles_one_action_per_distinct_spec_object_per_body(monkeypatch):
    """The keypad's bodies hold six action specs: (print ...), (set num 0)
    and (raise Clear) under enter, (set num 0) and (raise Clear) under
    clear, and the digit's (set ...). The parse shares equal forms, so the
    two (set num 0) are one object, as are the two (raise Clear); layout
    still compiles each once per body that holds it, to an action of its
    own, and no action is shared across bodies."""
    actions = []
    monkeypatch.setattr(program_module, "build_action",
                        lambda spec: actions.append(build_action(spec)) or actions[-1])
    compile_expr(parse_program(KEYPAD_RX.read_text(encoding="utf-8")), Environment())
    assert len(actions) == len({id(action) for action in actions}) == 6


def _frames(run, *args, module=None) -> list[str]:
    """The code names of the Python frames that run(*args) enters, its own
    first; only those of the module's code when a module is given.
    sys.setprofile reports a "call" event for each Python frame and none
    for a builtin, such as a dict's get or an int's bit_length."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and (module is None or frame.f_code.co_filename == module.__file__):
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(*args)
    finally:
        sys.setprofile(previous)
    return calls


def test_an_action_or_comparison_over_leaves_runs_in_one_frame():
    """A literal, cell or payload operand is read by the closure that
    consumes it, so each of these enters its own frame and no other."""
    world = World(cells={"c": 4, "d": -2}, instant_values={"v": 3})
    runs = {
        "set of (+ (cell c) (value v))": build_action(SetCell("c", BinOp("+", CellRef("c"), ValueRef("v")))).run,
        "set of (value v)": build_action(SetCell("n", ValueRef("v"))).run,
        "set of 5": build_action(SetCell("k", IntConst(5))).run,
        "one-field print": build_action(Print("c={cell:c}")).run,
        "three-field print": build_action(Print("{cell:c} {value:v} {cell:d}")).run,
        "comparison of (cell c) and 7": compile_cond(Compare("<", CellRef("c"), IntConst(7)))[0],
        "negation of (value v)": compile_int(Negate(ValueRef("v")))[0],
    }
    for label, run in runs.items():
        frames = _frames(run, world)
        assert len(frames) == 1, (label, frames)
    assert world.cells == {"c": 7, "d": -2, "n": 3, "k": 5}
    assert world.output == ["c=7", "7 3 -2"]


def test_a_big_program_step_runs_in_three_frames():
    """One activation of a big_program step, (set ...) (print ...) (stop):
    the node's step, the set and the print."""
    env = Environment()
    compile_expr(parse_program(_big_program(2)), env)
    node = next(node for node in env.nodes.values() if isinstance(node, BasicNode))
    env.world.apply_instant(InstantEvents(values={"v": 5}))
    frames = _frames(node.step, env)
    assert len(frames) == 3, frames
    assert node.state == 3
    assert env.world.output == ["c0=5"]
    assert env.world.cells == {"c0": 5}


@pytest.mark.parametrize("n", [8, 32, 128])
def test_a_loop_restart_sets_fields_and_enters_no_frame(n):
    """The second instant of (loop (par B1 ... Bn)), Bi a print and a stop:
    every branch ends, the loop resets the merge and the n branches in
    place, and the body runs again. That is react, _close_steps, step, the
    loop's activate and step, and twice the merge's activate, step and
    activate_branches with n BasicNode steps under it: 2n + 11 frames. A
    restart that made a call for each of the n + 1 nodes it resets would
    enter 3n + 12."""
    branches = " ".join(f'(rexp (seq (print "b{i}") (stop)))' for i in range(n))
    env = Environment()
    root = compile_expr(parse_program(f"(loop (par {branches}))"), env)
    env.react(root)
    env.world.drain_output()
    frames = _frames(env.react, root)
    assert len(frames) == 2 * n + 11, Counter(frames)
    assert Counter(frames) == {"react": 1, "_close_steps": 1, "activate": 3,
                               "activate_branches": 2, "step": 2 * n + 4}
    assert env.world.output == [f"b{i}" for i in range(n)]


@pytest.mark.parametrize("form", ["when", "await"])
def test_a_condition_test_is_one_call_of_its_closure(form):
    """One step of a when or an await on an absent (sig s): the node's step
    and the condition's closure, with no frame between them. The when's
    else branch is a halt, which a false test does not step."""
    env = Environment()
    root = compile_expr(parse_program(f'({form} (sig s) (rexp (seq (print "x"))))'), env)
    node = env.nodes[root]
    env.world.apply_instant(None)
    frames = _frames(node.step, env)
    assert len(frames) == 2, frames
    assert frames[0] == "step"
    assert env.world.output == []


def _wide_par(n: int) -> str:
    """wide_par's shape: (loop (par B0 ... Bn-1)), odd branches a print, a
    suspend, a print and a stop, even ones a print and a stop."""
    branches = [f'(rexp (seq (print "l{i}") (suspend) (print "l{i}b") (stop)))' if i % 2
                else f'(rexp (seq (print "l{i}") (stop)))' for i in range(n)]
    return "(loop (par " + " ".join(branches) + "))"


def test_wide_par_branches_lay_out_as_fused_prints():
    """Each print that stands before a stop or suspend is one TEXT_PAUSE
    op, and the PAUSE after it keeps its place."""
    env = Environment()
    compile_expr(parse_program(_wide_par(4)), env)
    bodies = [node.ops for node in env.nodes.values() if isinstance(node, BasicNode)]
    assert bodies == [
        ((TEXT_PAUSE, ("l0", STOP)), (PAUSE, STOP)),
        ((TEXT_PAUSE, ("l1", SUSP)), (PAUSE, SUSP), (TEXT_PAUSE, ("l1b", STOP)), (PAUSE, STOP)),
        ((TEXT_PAUSE, ("l2", STOP)), (PAUSE, STOP)),
        ((TEXT_PAUSE, ("l3", SUSP)), (PAUSE, SUSP), (TEXT_PAUSE, ("l3b", STOP)), (PAUSE, STOP)),
    ]


def test_bodies_without_a_field_free_print_lay_out_as_before():
    """big_program's bodies and the keypad's hold no field-free print, so
    no op is fused: each big_program body is its set, print and stop ops,
    one object each, repeated per step, and the keypad's bodies keep their
    op kinds and handle table."""
    env = Environment()
    compile_expr(parse_program(_big_program(3)), env)
    for node in env.nodes.values():
        if isinstance(node, BasicNode):
            step = node.ops[:3]
            assert [op for op, _ in step] == [ATOM, ATOM, PAUSE]
            assert all(a is b for a, b in zip(node.ops, step * 3, strict=True))

    env = Environment()
    compile_expr(parse_program(KEYPAD_RX.read_text(encoding="utf-8")), env)
    bodies = [([op for op, _ in node.ops], node.handles)
              for node in env.nodes.values() if isinstance(node, BasicNode)]
    assert bodies == [([ATOM, ATOM, ATOM], ()), ([ATOM, ATOM], ()), ([ATOM], ()),
                      ([ACTIVATE, ACTIVATE], ()), ([ACTIVATE, JUMP], ((0, 1, "Clear"),))]


@pytest.mark.parametrize("n", [8, 64])
def test_a_wide_par_instant_enters_as_many_steps_as_before(n):
    """An instant of wide_par's shape, after the first, steps 5n/2 basic
    nodes and 7 other nodes: a fused op ends an activation where the TEXT
    and the PAUSE it stands for did, so no node is stepped more or less
    often."""
    env = Environment()
    root = compile_expr(parse_program(_wide_par(n)), env)
    env.react(root)
    env.world.drain_output()
    frames = _frames(env.react, root)
    assert Counter(frames) == {"react": 1, "_close_steps": 1, "activate": 5,
                               "activate_branches": 3, "step": 5 * n // 2 + 7}
    assert env.world.output == [f"l{i}" for i in range(n)] + [f"l{i}b" for i in range(1, n, 2)]


_FIELD_PRINTS = " ".join(['(rexp (seq (print "b{cell:x}") (stop)))'] * 8)


@pytest.mark.parametrize("source, nodes, actions", [
    pytest.param(KEYPAD_RX.read_text(encoding="utf-8"), 15, 6, id="keypad"),
    *(pytest.param(_wide_par(n), n + 2, 0, id=f"loop-par-{n}") for n in (8, 32, 128)),
    pytest.param(f"(repeat 0 (par {_FIELD_PRINTS}))", 1, 0, id="repeat-0-par-8"),
])
def test_compile_enters_one_dsl_frame_per_expression_node(monkeypatch, source, nodes, actions):
    """compile_expr is entered once for each expression node of the AST
    outside a (repeat 0 ...) body, which is never compiled, and enters no
    other frame of dsl.py: the keypad has 15 expression nodes, and
    (loop (par B1 ... Bn)) has n + 2. A rexp body's layout and the
    combinators run in other modules; layout builds the keypad's six
    actions, and a (repeat 0 ...) body's prints are not built."""
    built = []
    monkeypatch.setattr(program_module, "build_action", lambda spec: built.append(spec) or build_action(spec))
    ast = parse_program(source)
    frames = _frames(compile_expr, ast, Environment(), module=dsl)
    assert frames == ["compile_expr"] * nodes
    assert len(built) == actions
