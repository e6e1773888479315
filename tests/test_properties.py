"""Property suites over randomly generated programs and traces.

The check_* helpers are plain functions so the acceptance suite can sweep
them over fixed seed ranges; the hypothesis tests drive them with generated
seeds. Helpers returning bool report whether the seed was applicable.
"""
from __future__ import annotations

import json
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instants import END, Environment, Limits, STOP, SUSP, Status, star
from instants.core import ReactiveError
from instants.dsl import (
    HaltExpr,
    LoopExpr,
    NothingExpr,
    ParseError,
    RexpExpr,
    RifExpr,
    TerminateExpr,
    WhenExpr,
    compile_expr,
    parse_program,
    parse_trace,
    render,
)
from instants.combinators import merge
from instants.program import Seq, Stop
from instants.world import Print, SetCell, World, eval_cond, InstantEvents, Sig

from genprog import SIGNALS, gen_case, gen_cond, gen_expr, gen_trace, gen_trace_text
from reference import engine_run

LIMITS = dict(max_micro=200, max_restarts=60)


def _fresh_env() -> Environment:
    return Environment(limits=Limits(max_micro_steps=200, max_loop_restarts=60))


def _drive(env: Environment, root, trace):
    """React over the trace on an existing root; same shape as engine_run."""
    rows = []
    terminated = False
    error = None
    for events in trace:
        env.world.apply_instant(events)
        try:
            done = env.react(root)
        except ReactiveError as err:
            error = type(err).__name__
            break
        rows.append((tuple(env.world.drain_output()), env.statuses[root].name))
        if done:
            terminated = True
            break
    return rows, terminated, error


# --------------------------------------------------------------------------
# Checks


def check_terminal_absorption(seed: int) -> bool:
    ast, trace = gen_case(seed)
    env = _fresh_env()
    root = compile_expr(ast, env)
    rows, terminated, error = _drive(env, root, trace)
    if error is not None or not terminated:
        return False
    statuses = dict(env.statuses)
    cells = dict(env.world.cells)
    for _ in range(3):
        env.world.apply_instant(None)
        assert env.react(root) is True
        assert env.world.drain_output() == []
    assert env.statuses == statuses
    assert env.world.cells == cells
    return True


def check_react_allocates_no_nodes(seed: int) -> None:
    ast, trace = gen_case(seed)
    env = _fresh_env()
    root = compile_expr(ast, env)
    compiled = len(env.nodes)
    _drive(env, root, trace)
    assert len(env.nodes) == compiled


def check_micro_instant_confinement(seed: int) -> None:
    ast, trace = gen_case(seed)
    env = _fresh_env()
    root = compile_expr(ast, env)
    for events in trace:
        env.world.apply_instant(events)
        try:
            env.react(root)
        except ReactiveError:
            return
        assert env.statuses[root] in (STOP, END)


def check_merge_end_iff_both_end(seed: int) -> None:
    rng = random.Random(seed)
    env = _fresh_env()
    left = compile_expr(gen_expr(rng, 2, allow_raise=False), env)
    right = compile_expr(gen_expr(rng, 2, allow_raise=False), env)
    m = merge(env, left, right)
    for events in gen_trace(rng):
        env.world.apply_instant(events)
        try:
            env.react(m)
        except ReactiveError:
            return
        both_end = env.statuses[left] is END and env.statuses[right] is END
        assert (env.statuses[m] is END) == both_end


def _print_body(rng: random.Random, side: str) -> RexpExpr:
    items = []
    for i in range(rng.randint(1, 5)):
        if rng.random() < 0.55:
            items.append(Print(f"{side}{i}"))
        else:
            items.append(Stop())
    return RexpExpr(Seq(tuple(items)))


def check_left_before_right(seed: int) -> None:
    rng = random.Random(seed)
    env = _fresh_env()
    left = compile_expr(_print_body(rng, "L"), env)
    right = compile_expr(_print_body(rng, "R"), env)
    m = merge(env, left, right)
    for _ in range(8):
        env.world.apply_instant(None)
        done = env.react(m)
        outputs = env.world.drain_output()
        seen_right = False
        for text in outputs:
            if text.startswith("R"):
                seen_right = True
            else:
                assert not seen_right, outputs
        if done:
            break


def _writes_world(ast) -> bool:
    if isinstance(ast, SetCell):
        return True
    if isinstance(ast, tuple):  # a merge's children, a Seq's items
        return any(_writes_world(item) for item in ast)
    if hasattr(ast, "__dataclass_fields__"):
        return any(_writes_world(getattr(ast, name)) for name in ast.__dataclass_fields__)
    return False


def check_dup_isolation(seed: int) -> bool:
    ast, trace = gen_case(seed)
    if _writes_world(ast):
        return False
    baseline_env = _fresh_env()
    baseline = _drive(baseline_env, compile_expr(ast, baseline_env), trace)

    # Driving a copy leaves the original's future behavior intact.
    env = _fresh_env()
    root = compile_expr(ast, env)
    copy = env.dup(root)
    _drive(env, copy, trace)
    assert _drive(env, root, trace) == baseline

    # Driving the original leaves an earlier copy intact.
    env2 = _fresh_env()
    root2 = compile_expr(ast, env2)
    copy2 = env2.dup(root2)
    _drive(env2, root2, trace)
    assert _drive(env2, copy2, trace) == baseline

    # A copy taken after k instants carries on as the original would have,
    # when the first k instants neither terminate nor fail.
    rows, terminated, error = baseline
    k = random.Random(f"mid-run {seed}").randrange(1, max(2, len(trace)))
    if k < len(rows):
        env3 = _fresh_env()
        root3 = compile_expr(ast, env3)
        _drive(env3, root3, trace[:k])
        copy3 = env3.dup(root3)
        assert _drive(env3, copy3, trace[k:]) == (rows[k:], terminated, error)
    return True


def check_desugaring_equivalences(seed: int) -> None:
    rng = random.Random(seed)
    cond = gen_cond(rng, 2)
    body = gen_expr(rng, 2)
    trace = gen_trace(rng)
    assert engine_run(WhenExpr(cond, body), trace, **LIMITS) == engine_run(
        RifExpr(cond, body, HaltExpr()), trace, **LIMITS
    )
    assert engine_run(TerminateExpr(cond, body), trace, **LIMITS) == engine_run(
        RifExpr(cond, NothingExpr(), body), trace, **LIMITS
    )
    assert engine_run(HaltExpr(), trace, **LIMITS) == engine_run(
        LoopExpr(RexpExpr(Seq((Stop(),)))), trace, **LIMITS
    )


def check_signal_ephemerality(seed: int) -> None:
    rng = random.Random(seed)
    world = World()
    first = frozenset(name for name in SIGNALS if rng.random() < 0.6)
    second = frozenset(name for name in SIGNALS if rng.random() < 0.4)
    world.apply_instant(InstantEvents(first))
    assert all(eval_cond(Sig(name), world) for name in first)
    world.apply_instant(InstantEvents(second))
    for name in SIGNALS:
        assert eval_cond(Sig(name), world) == (name in second)


def check_determinism(seed: int) -> None:
    ast, trace = gen_case(seed)
    first = engine_run(ast, trace, **LIMITS)
    second = engine_run(ast, trace, **LIMITS)
    assert json.dumps(first, default=str) == json.dumps(second, default=str)


def check_parse_round_trip(seed: int) -> None:
    rng = random.Random(seed)
    ast = gen_expr(rng, rng.randint(1, 4))
    assert parse_program(render(ast)) == ast


def check_trace_lines_parse_alone(seed: int) -> None:
    """A trace reads as its lines each read alone: the same instants, or
    the first bad line's error at that line's number. Equal lines give
    one shared InstantEvents."""
    text = gen_trace_text(random.Random(seed))
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    expected, origins, first_error = [], [], None
    for lineno, line in enumerate(lines, start=1):
        try:
            alone = parse_trace(line + "\n")
        except ParseError as error:
            first_error = lineno, error
            break
        expected += alone
        origins += [line] * len(alone)
    try:
        instants = parse_trace(text)
    except ParseError as error:
        assert first_error is not None, text
        lineno, alone = first_error
        assert type(error) is type(alone)
        assert (error.line, error.col) == (lineno, alone.col)
        assert str(error) == str(alone).replace(" at line 1,", f" at line {lineno},")
        return
    assert first_error is None, text
    assert instants == expected
    shared = {}
    for events, line in zip(instants, origins):
        assert shared.setdefault(line, events) is events


# --------------------------------------------------------------------------
# Hypothesis drivers

statuses = st.sampled_from(list(Status))
seeds = st.integers(min_value=0, max_value=50_000)


@given(statuses, statuses)
def test_star_commutative(a, b):
    assert star(a, b) is star(b, a)


@given(statuses, statuses, statuses)
def test_star_associative(a, b, c):
    assert star(star(a, b), c) is star(a, star(b, c))


@given(statuses)
def test_star_idempotent_identity_absorbing(a):
    assert star(a, a) is a
    assert star(a, END) is a
    assert star(a, SUSP) is SUSP


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_terminal_absorption(seed):
    check_terminal_absorption(seed)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_react_allocates_no_nodes(seed):
    check_react_allocates_no_nodes(seed)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_micro_instant_confinement(seed):
    check_micro_instant_confinement(seed)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_merge_end_iff_both_end(seed):
    check_merge_end_iff_both_end(seed)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_left_before_right(seed):
    check_left_before_right(seed)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_dup_isolation(seed):
    assume(check_dup_isolation(seed))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_desugaring_equivalences(seed):
    check_desugaring_equivalences(seed)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_signal_ephemerality(seed):
    check_signal_ephemerality(seed)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_determinism(seed):
    check_determinism(seed)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_parse_round_trip(seed):
    check_parse_round_trip(seed)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_trace_lines_parse_alone(seed):
    check_trace_lines_parse_alone(seed)


def test_fresh_construction_statuses_are_stop():
    for seed in range(30):
        ast, _ = gen_case(seed)
        env = _fresh_env()
        compile_expr(ast, env)
        assert all(status is STOP for status in env.statuses.values())
