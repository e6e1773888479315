"""Kernel behavior: allocation, stepping, duplication, guard rails."""
from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path

import pytest

from instants import (
    Activate,
    Atom,
    END,
    Environment,
    Handle,
    HostAction,
    InstantaneousLoop,
    Limits,
    MicroStepLimitExceeded,
    Print,
    Raise,
    ReactiveError,
    Seq,
    STOP,
    Status,
    Stop,
    SUSP,
    Suspend,
    UncaughtAbort,
    await_,
    build_action,
    close,
    compile_expr,
    halt,
    init,
    loop,
    merge,
    nothing,
    parse_program,
    parse_trace,
    repeat,
    rexp,
    rif,
    seq,
    star,
    terminate,
    when,
)
from instants.kernel import AwaitNode, BasicNode, CloseNode, InitNode, LoopNode, MergeNode, RifNode
from instants.program import initial_resumption, run_resumption
from instants.world import BoolConst, InstantEvents, Sig

from genprog import gen_case
from helpers import react_once

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def printer(text):
    return Atom(build_action(Print(text)))


def test_star_full_table():
    assert star(SUSP, SUSP) is SUSP
    assert star(SUSP, STOP) is SUSP
    assert star(SUSP, END) is SUSP
    assert star(STOP, SUSP) is SUSP
    assert star(STOP, STOP) is STOP
    assert star(STOP, END) is STOP
    assert star(END, SUSP) is SUSP
    assert star(END, STOP) is STOP
    assert star(END, END) is END


def test_star_algebra_exhaustive():
    statuses = list(Status)
    for a in statuses:
        assert star(a, END) is a
        assert star(a, SUSP) is SUSP
        assert star(a, a) is a
        for b in statuses:
            assert star(a, b) is star(b, a)
            for c in statuses:
                assert star(star(a, b), c) is star(a, star(b, c))


def test_alloc_fresh_status_is_stop():
    env = Environment()
    r = env.alloc(initial_resumption(Seq(())))
    assert env.statuses[r] is STOP


def test_alloc_ids_are_distinct():
    env = Environment()
    a = nothing(env)
    b = nothing(env)
    assert a != b


def test_alloc_rejects_dangling_children():
    env = Environment()
    a = nothing(env)
    with pytest.raises(ValueError):
        env.alloc(MergeNode((a, a + 999)))


def test_step_on_terminated_id_is_inert():
    env = Environment()
    r = nothing(env)
    env.world.apply_instant(None)
    assert env.react(r) is True
    before = dict(env.statuses)
    assert env.step(r) is END
    assert env.world.output == []
    assert env.statuses == before


def test_merge_interleaves_by_instant():
    env = Environment()
    m = merge(
        env,
        rexp(env, seq(printer("1"), Stop(), printer("2"))),
        rexp(env, seq(printer("A"), Stop(), printer("B"))),
    )
    assert react_once(env, m) == (["1", "A"], False)
    assert react_once(env, m) == (["2", "B"], True)


def test_merge_end_only_when_both_end():
    env = Environment()
    m = merge(env, halt(env), nothing(env))
    for _ in range(4):
        outputs, done = react_once(env, m)
        assert not done
        assert env.statuses[m] is STOP


def test_nary_merge_resteps_only_suspended_children():
    env = Environment()
    m = merge(
        env,
        rexp(env, seq(printer("a1"), Suspend(), printer("a2"), Stop())),
        rexp(env, seq(printer("b1"), Stop(), printer("b2"))),
        rexp(env, seq(printer("c1"), Suspend(), printer("c2"), Suspend(), printer("c3"), Stop())),
        rexp(env, seq(printer("d1"), Stop())),
    )
    # Re-steps within the instant reach a and c, then c alone; b and d,
    # stopped, are not stepped again until the next instant.
    assert react_once(env, m) == (["a1", "b1", "c1", "d1", "a2", "c2", "c3"], False)
    assert react_once(env, m) == (["b2"], True)


def test_nary_merge_abort_marks_merge_end_and_spares_siblings():
    env = Environment()
    first = rexp(env, seq(Stop(), Stop()))
    finished = nothing(env)
    cutter = rexp(env, seq(Stop(), Raise("Cut")))
    last = rexp(env, seq(Stop(), Stop()))
    m = merge(env, first, finished, cutter, last)
    outer = rexp(env, Handle(Activate(m), "Cut", Seq(())))
    assert react_once(env, outer) == ([], False)
    assert react_once(env, outer) == ([], True)
    assert env.statuses[m] is END
    assert env.statuses[cutter] is END
    assert (env.statuses[first], env.statuses[finished]) == (STOP, END)
    # The child after the aborting one was not stepped in that activation.
    assert env.statuses[last] is STOP


def test_nary_merge_abort_in_a_re_step_marks_merge_end_and_spares_siblings():
    env = Environment()
    stopped = rexp(env, seq(printer("s1"), Stop(), printer("s2")))
    finished = nothing(env)
    early = rexp(env, seq(printer("e1"), Suspend(), printer("e2"), Stop(), printer("e3")))
    cutter = rexp(env, seq(printer("c1"), Suspend(), Raise("Cut")))
    late = rexp(env, seq(printer("l1"), Suspend(), printer("l2"), Stop()))
    m = merge(env, stopped, finished, early, cutter, late)
    outer = rexp(env, Handle(Activate(m), "Cut", Seq((printer("caught"),))))
    # The first micro-step suspends early, cutter and late; the re-step
    # runs early, then cutter raises, so late is not stepped again.
    assert react_once(env, outer) == (["s1", "e1", "c1", "l1", "e2", "caught"], True)
    assert env.statuses[cutter] is END
    assert env.statuses[m] is END
    assert (env.statuses[stopped], env.statuses[finished], env.statuses[early]) == (STOP, END, STOP)
    assert env.statuses[late] is SUSP
    assert env.nodes[late].state == 2


def test_merge_needs_a_child():
    with pytest.raises(ValueError):
        merge(Environment())


def test_compiled_par_is_one_merge_node():
    env = Environment()
    branches = [f'(rexp (seq (print "b{i}") (stop)))' for i in range(64)]
    root = compile_expr(parse_program("(par " + " ".join(branches) + ")"), env)
    assert len(env.nodes) == 65
    assert len(env.nodes[root].children) == 64
    # Nested merges are one node per merge form, and since star is
    # associative they run as one merge over all the leaves would.
    env = Environment()
    leaves = ['(rexp (print "%s"))' % name for name in "abcd"]
    source = "(merge (merge (merge {} {}) {}) {})".format(*leaves)
    root = compile_expr(parse_program(source), env)
    assert len(env.nodes) == 7
    assert react_once(env, root) == (["a", "b", "c", "d"], True)
    # (par E) is a merge of one branch.
    env = Environment()
    root = compile_expr(parse_program("(par (nothing))"), env)
    assert len(env.nodes[root].children) == 1
    assert react_once(env, root) == ([], True)


def test_close_resolves_suspensions_in_one_instant():
    env = Environment()
    c = close(
        env,
        merge(
            env,
            rexp(env, seq(printer("SUSPENDING "), Suspend(), printer("1"), Stop(), printer("2"))),
            rexp(env, seq(printer("A"), Stop(), printer("B"))),
        ),
    )
    assert react_once(env, c) == (["SUSPENDING ", "A", "1"], False)
    assert react_once(env, c) == (["2", "B"], True)


def test_loop_restarts_body_within_the_instant():
    env = Environment()
    l = loop(env, rexp(env, seq(printer("SECOND"), Stop())))
    for _ in range(4):
        assert react_once(env, l) == (["SECOND"], False)


def test_loop_restart_runs_fresh_copy_from_the_start():
    env = Environment()
    l = loop(env, rexp(env, seq(Stop(), printer("T"))))
    assert react_once(env, l) == ([], False)
    for _ in range(3):
        assert react_once(env, l) == (["T"], False)


def test_repeat_counts_body_terminations():
    env = Environment()
    r = repeat(env, 2, rexp(env, seq(Stop())))
    assert react_once(env, r) == ([], False)
    assert react_once(env, r) == ([], False)
    outputs, done = react_once(env, r)
    assert done and env.statuses[r] is END


def test_instantaneous_loop_is_cut_off():
    env = Environment(limits=Limits(max_loop_restarts=25))
    l = loop(env, nothing(env))
    env.world.apply_instant(None)
    with pytest.raises(InstantaneousLoop):
        env.react(l)


def test_forever_suspending_close_is_cut_off():
    env = Environment(limits=Limits(max_micro_steps=40))
    c = close(env, loop(env, rexp(env, seq(Suspend()))))
    env.world.apply_instant(None)
    with pytest.raises(MicroStepLimitExceeded):
        env.react(c)


def test_uncaught_abort_surfaces_and_root_is_end():
    env = Environment()
    r = rexp(env, seq(printer("X"), Raise("Boom")))
    env.world.apply_instant(None)
    with pytest.raises(UncaughtAbort) as exc:
        env.react(r)
    assert exc.value.tag == "Boom"
    assert env.statuses[r] is END


def test_abort_marks_unwound_nodes_end_and_spares_siblings():
    env = Environment()
    left = rexp(env, seq(Stop(), Raise("Cut")))
    right = rexp(env, seq(Stop(), Stop()))
    m = merge(env, left, right)
    outer = rexp(env, Handle(Activate(m), "Cut", Seq(())))
    assert react_once(env, outer) == ([], False)
    assert react_once(env, outer) == ([], True)
    assert env.statuses[left] is END
    assert env.statuses[m] is END
    # The right branch was never stepped in the aborted activation.
    assert env.statuses[right] is STOP


def test_react_is_not_reentrant():
    env = Environment()
    inner = nothing(env)
    r = rexp(env, seq(Atom(HostAction(run=lambda w: env.react(inner)))))
    env.world.apply_instant(None)
    with pytest.raises(RuntimeError):
        env.react(r)


def test_react_t_runs_until_termination():
    env = Environment()
    r = rexp(env, seq(Stop(), Stop()))
    trace = env.react_t(r, 10)
    assert trace.terminated
    assert [rec.status for rec in trace.instants] == [STOP, STOP, END]
    assert trace.instants_run == 3


def test_react_t_respects_budget():
    env = Environment()
    trace = env.react_t(halt(env), 5)
    assert not trace.terminated
    assert trace.instants_run == 5
    assert all(rec.status is STOP for rec in trace.instants)
    with pytest.raises(ValueError, match="max_instants must be at least 1"):
        env.react_t(halt(env), 0)


def test_react_t_on_nothing():
    env = Environment()
    trace = env.react_t(nothing(env), 5)
    assert trace.terminated and trace.instants_run == 1


def test_react_t_stops_at_the_end_of_the_events():
    env = Environment()
    r = await_(env, Sig("go"), rexp(env, seq(printer("g"), Stop(), Stop(), Stop())))
    trace = env.react_t(r, 10, [None, InstantEvents(frozenset({"go"})), None])
    assert [rec.outputs for rec in trace.instants] == [[], ["g"], []]
    assert not trace.terminated and trace.error is None


def test_react_t_records_an_uncaught_abort_and_stops():
    env = Environment()
    r = rexp(env, seq(printer("a"), Stop(), Raise("T"), printer("never")))
    trace = env.react_t(r, 10)
    assert trace.error == "UncaughtAbort:T"
    assert [rec.outputs for rec in trace.instants] == [["a"]]
    assert not trace.terminated


def test_dup_and_loop_of_a_deep_close_chain():
    depth = 5000
    env = Environment()
    r = rexp(env, seq(Stop()))
    for _ in range(depth):
        r = close(env, r)
    copy = env.dup(r)
    assert len(env.nodes) == 2 * (depth + 1)
    # Walk both chains down to their basic expressions: the copy has the
    # same shape and shares no node with the original.
    original_ids, copy_ids = [r], [copy]
    for ids in (original_ids, copy_ids):
        for _ in range(depth):
            (child,) = env.nodes[ids[-1]].children
            ids.append(child)
        assert isinstance(env.nodes[ids[-1]], BasicNode)
    assert set(original_ids).isdisjoint(copy_ids)
    l = loop(env, r)
    assert len(env.nodes[l].children) == len(env.nodes[l].snapshot) == depth + 1
    assert len(env.nodes) == 2 * (depth + 1) + 1


def test_rexp_dup_and_loop_of_a_deeply_nested_program():
    env = Environment()
    child = rexp(env, seq(printer("x"), Stop()))
    program = Activate(child)
    for level in range(5000):
        program = Seq((program,)) if level % 2 else Handle(program, "T", Seq(()))
    r = rexp(env, program)
    copy = env.dup(r)
    l = loop(env, r)
    assert [react_once(env, l) for _ in range(3)] == [(["x"], False)] * 3
    assert [react_once(env, copy) for _ in range(2)] == [(["x"], False), ([], True)]


def test_dup_after_partial_run_copies_resumption():
    env = Environment()
    exp = rexp(env, seq(printer("FIRST"), Stop(), printer("SECOND")))
    assert react_once(env, exp) == (["FIRST"], False)
    copy = env.dup(exp)
    assert react_once(env, exp) == (["SECOND"], True)
    assert react_once(env, exp) == ([], True)
    assert react_once(env, copy) == (["SECOND"], True)


def test_dup_shares_compiled_conditions():
    env = Environment()
    r = terminate(env, Sig("cut"), await_(env, Sig("go"), nothing(env)))
    rif = env.nodes[r]
    copy = env.nodes[env.dup(r)]
    # The copies test the same compiled predicates; nothing is compiled again.
    assert copy.test is rif.test and copy.reads_events
    assert env.nodes[copy.children[1]].test is env.nodes[rif.children[1]].test
    assert react_once(env, env.dup(r), InstantEvents(frozenset({"go"}))) == ([], True)


def test_dup_of_terminated_is_terminated():
    env = Environment()
    r = nothing(env)
    react_once(env, r)
    copy = env.dup(r)
    assert env.statuses[copy] is END
    assert react_once(env, copy) == ([], True)


def test_dup_copies_child_statuses():
    env = Environment()
    left = rexp(env, seq(Stop()))
    right = nothing(env)
    m = merge(env, left, right)
    react_once(env, m)
    assert (env.statuses[left], env.statuses[right]) == (STOP, END)
    copy = env.dup(m)
    copy_left, copy_right = env.nodes[copy].children
    assert env.statuses[copy_left] is STOP
    assert env.statuses[copy_right] is END
    assert copy_left != left and copy_right != right


def test_dup_preserves_sharing_inside_the_region():
    env = Environment()
    shared = rexp(env, seq(Stop(), Stop(), Stop()))
    m = merge(env, shared, shared)
    copy = env.dup(m)
    copy_left, copy_right = env.nodes[copy].children
    assert copy_left == copy_right
    assert copy_left != shared


def test_dup_of_nary_merge_copies_statuses_and_keeps_sharing():
    env = Environment()
    shared = rexp(env, seq(Stop(), Stop(), Stop()))
    done = nothing(env)
    m = merge(env, shared, done, shared)
    react_once(env, m)
    copy = env.dup(m)
    first, second, third = env.nodes[copy].children
    assert first == third
    assert first != shared and second != done
    assert (env.statuses[first], env.statuses[second]) == (STOP, END)
    assert env.statuses[copy] is STOP


def test_dup_mid_suspension():
    env = Environment()
    r = rexp(env, seq(printer("a"), Suspend(), printer("b"), Stop()))
    env.world.apply_instant(None)
    assert env.step(r) is SUSP
    copy = env.dup(r)
    assert env.statuses[copy] is SUSP
    assert env.step(r) is STOP
    assert env.step(copy) is STOP
    assert env.world.output == ["a", "b", "b"]


def test_dup_isolation_both_directions():
    env = Environment()
    original = rexp(env, seq(printer("x"), Stop(), printer("y"), Stop(), printer("z")))
    copy = env.dup(original)
    # Drive the copy two instants; the original must be unaffected.
    react_once(env, copy)
    react_once(env, copy)
    assert react_once(env, original) == (["x"], False)
    assert react_once(env, copy) == (["z"], True)
    assert react_once(env, original) == (["y"], False)


def test_react_never_leaves_root_suspended():
    env = Environment()
    r = rexp(env, seq(Suspend(), Suspend(), printer("done")))
    env.world.apply_instant(None)
    done = env.react(r)
    assert done and env.statuses[r] is END
    assert env.world.output == ["done"]


def test_unknown_id_is_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.step(123)
    for build in (env.dup, lambda r: loop(env, r), lambda r: repeat(env, 0, r), lambda r: repeat(env, 2, r)):
        with pytest.raises(ValueError, match="unknown reactive id 123"):
            build(123)


def test_node_and_status_stores_stay_aligned():
    env = Environment()
    m = merge(env, halt(env), rexp(env, seq(printer("x"), Stop())))
    for _ in range(3):
        react_once(env, m)
        assert env.nodes.keys() == env.statuses.keys()


def test_loop_defers_restart_after_body_observed_events():
    from instants import terminate
    from instants.world import InstantEvents, Sig

    env = Environment()
    l = loop(env, terminate(env, Sig("x"), halt(env)))
    tick = InstantEvents(frozenset({"x"}))
    # The body terminates on every x instant after reading it; the fresh
    # copy must wait for the next instant instead of re-reading x.
    for _ in range(4):
        outputs, done = react_once(env, l, tick)
        assert outputs == [] and not done
        assert env.statuses[l] is STOP


def test_loop_over_event_reading_body_samples_once_per_instant():
    from instants import build_action
    from instants.world import InstantEvents, SetCell, ValueRef

    env = Environment()
    body = rexp(env, seq(Atom(build_action(SetCell("x", ValueRef("v"))))))
    l = loop(env, body)
    for k in (3, 7, 9):
        react_once(env, l, InstantEvents(frozenset(), {"v": k}))
        assert env.world.cells["x"] == k
        assert env.statuses[l] is STOP


def _node_count_after(source, events):
    env = Environment()
    root = compile_expr(parse_program(source), env)
    compiled = len(env.nodes)
    for instant in events:
        react_once(env, root, instant)
    return compiled, len(env.nodes)


def test_loop_restarts_allocate_no_nodes():
    compiled, final = _node_count_after('(loop (rexp (seq (print "x") (stop))))', [None] * 5000)
    assert final == compiled


def test_keypad_node_count_stays_flat():
    source = (DEMOS / "keypad.rx").read_text(encoding="utf-8")
    # digit=i%10 four times, then enter, repeating.
    lines = ("enter\n" if i % 5 == 4 else f"digit={i % 10}\n" for i in range(5000))
    events = parse_trace("".join(lines))
    compiled, final = _node_count_after(source, events)
    assert compiled == final == 15


def test_loop_of_a_wide_par_is_one_node_per_branch_plus_two():
    branches = " ".join(f'(rexp (seq (print "b{i}") (stop)))' for i in range(64))
    compiled, final = _node_count_after(f"(loop (par {branches}))", [None] * 3)
    assert compiled == final == 66


def test_nested_loops_allocate_one_node_each():
    depth = 300
    source = "(loop " * depth + '(rexp (seq (print "x") (stop)))' + ")" * depth
    env = Environment()
    root = compile_expr(parse_program(source), env)
    assert len(env.nodes) == depth + 1
    assert [react_once(env, root) for _ in range(3)] == [(["x"], False)] * 3
    assert len(env.nodes) == depth + 1


def test_loop_of_stepped_body_restarts_from_construction_time_state():
    env = Environment()
    body = rexp(env, seq(printer("a"), Stop(), printer("b"), Stop(), printer("c")))
    assert react_once(env, body) == (["a"], False)
    l = loop(env, body)
    assert react_once(env, l) == (["b"], False)
    for _ in range(3):
        # The body ends after "c" and restarts where it stood when the
        # loop was built, not at "a".
        assert react_once(env, l) == (["c", "b"], False)
    # The loop took the body over: it restarts the body's own region.
    assert env.nodes[l].children[0] == body


def test_loop_restart_restores_repeat_count_and_await_latch():
    env = Environment()
    counted = repeat(env, 2, rexp(env, seq(printer("r"), Stop())))
    waiting = await_(env, Sig("go"), rexp(env, seq(printer("g"), Stop(), Stop(), Stop())))
    l = loop(env, terminate(env, Sig("cut"), merge(env, counted, waiting)))
    go = InstantEvents(frozenset({"go"}))
    cut = InstantEvents(frozenset({"cut"}))
    assert react_once(env, l, go) == (["r", "g"], False)
    # The repeat is on its second run and the await has latched when the
    # body is cut off.
    assert react_once(env, l) == (["r"], False)
    assert react_once(env, l, cut) == ([], False)
    # After the restart the repeat runs twice again and the await waits
    # for a fresh go.
    assert react_once(env, l) == (["r"], False)
    assert react_once(env, l) == (["r"], False)
    assert react_once(env, l) == ([], False)
    assert react_once(env, l, go) == (["g"], False)


def test_dup_of_running_loop_restarts_its_own_body():
    env = Environment()
    l = loop(env, rexp(env, seq(printer("x"), Stop(), printer("y"), Stop())))
    assert react_once(env, l) == (["x"], False)
    copy = env.dup(l)
    body_ids = set(env.nodes[l].children)
    copy_ids = set(env.nodes[copy].children)
    assert body_ids.isdisjoint(copy_ids)
    assert react_once(env, copy) == (["y"], False)
    assert react_once(env, copy) == (["x"], False)
    assert react_once(env, l) == (["y"], False)
    assert react_once(env, l) == (["x"], False)


def test_restarting_a_loop_copy_resets_only_the_copys_region():
    env = Environment()
    body = merge(env, rexp(env, seq(printer("a"), Stop(), printer("b"))),
                 await_(env, Sig("go"), rexp(env, seq(printer("g"), Stop(), Stop()))))
    l = loop(env, body)
    go = InstantEvents(frozenset({"go"}))
    assert react_once(env, l, go) == (["a", "g"], False)
    copy = env.dup(l)
    region = env.nodes[l].children
    before = [(env.statuses[rid], env.nodes[rid].state) for rid in region]
    # The copy's body ends and restarts in the copy's second instant; the
    # original, not stepped, keeps every status, pc and latch.
    assert react_once(env, copy) == (["b"], False)
    assert react_once(env, copy) == (["a"], False)
    assert [(env.statuses[rid], env.nodes[rid].state) for rid in region] == before
    assert react_once(env, l) == (["b"], False)
    # The copy's await was reset with its body, so it waits for go again.
    assert react_once(env, copy, go) == (["b", "g"], False)


def test_the_status_view_follows_the_nodes_and_is_read_only():
    env = Environment()
    root = compile_expr(parse_program(
        '(loop (par (rexp (seq (print "a") (suspend) (stop))) (when (sig s) (nothing)) (halt)))'), env)
    for instant in (None, S_PRESENT, None):
        react_once(env, root, instant)
        assert env.statuses == {rid: node.status for rid, node in env.nodes.items()}
        assert len(env.statuses) == len(env.nodes)
        assert list(env.statuses) == list(env.nodes)
    assert {env.statuses[rid] for rid in env.nodes} == {STOP, END}
    with pytest.raises(TypeError):
        env.statuses[root] = END
    assert env.statuses[root] is STOP
    with pytest.raises(KeyError):
        env.statuses[len(env.nodes)]


def test_dup_of_loop_renames_targets_in_its_snapshot():
    env = Environment()
    child = rexp(env, seq(printer("c")))
    l = loop(env, rexp(env, seq(Activate(child), Stop(), printer("b"))))
    react_once(env, l)
    # The body is past its Activate, but the loop's snapshot is not: the
    # copy must restart into its own copy of the child.
    copy = env.dup(l)
    assert react_once(env, copy) == (["b", "c"], False)
    assert react_once(env, l) == (["b", "c"], False)


def test_dup_copies_every_node_kind():
    env = Environment()
    leaf = rexp(env, seq(printer("k1"), Stop(), printer("k2")))
    basic = rexp(env, seq(printer("a1"), Stop(), Activate(leaf), Stop(), printer("a3")))
    left = rexp(env, seq(printer("L1"), Stop(), printer("L2")))
    branch = rif(env, Sig("left"), left, rexp(env, seq(printer("R1"), Stop(), printer("R2"), Stop(), printer("R3"))))
    closed = close(env, rexp(env, seq(printer("c1"), Suspend(), printer("c2"), Stop(), printer("c3"), Suspend(),
                                      printer("c4"), Stop(), printer("c5"), Suspend(), printer("c6"))))
    inited = init(env, build_action(Print("i")), rexp(env, seq(Stop(), Stop(), Stop(), Stop())))
    waiting = await_(env, Sig("go"), rexp(env, seq(printer("g1"), Stop(), printer("g2"), Stop())))
    counted = repeat(env, 4, rexp(env, seq(printer("r"), Stop())))
    looped = loop(env, rexp(env, seq(printer("l1"), Stop(), printer("l2"), Stop(), printer("l3"))))
    root = merge(env, basic, branch, closed, inited, waiting, counted, looped)
    react_once(env, root, InstantEvents(frozenset({"go"})))
    react_once(env, root)
    # Basic past its first pc, await latched, repeat on its second run,
    # loop in mid-run.
    assert env.nodes[basic].state > 0 and env.nodes[waiting].state
    assert env.nodes[counted].state == 3 and env.nodes[env.nodes[looped].children[0]].state > 0

    copy = env.dup(root)
    region, copy_region = env.snapshot(root)[0], env.snapshot(copy)[0]
    assert set(region).isdisjoint(copy_region)
    ids = dict(zip(region, copy_region))
    originals = {id(env.nodes[rid]) for rid in region}
    kinds = set()
    for old, new in ids.items():
        original, copied = env.nodes[old], env.nodes[new]
        kinds.add(type(original).__name__)
        assert type(copied) is type(original)
        assert copied.status is original.status
        for field in fields(original):
            if field.name not in ("children", "child_nodes"):
                assert getattr(copied, field.name) == getattr(original, field.name)
        for shared in ("test", "action", "ops"):
            if hasattr(original, shared):
                assert getattr(copied, shared) is getattr(original, shared)
        assert copied.children == tuple(ids[child] for child in original.children)
        # The copy steps, and a loop copy restores, only its own nodes:
        # replace carried the original's child nodes over, and alloc
        # replaced them.
        assert all(node is env.nodes[child] for node, child in zip(copied.child_nodes, copied.children, strict=True))
        assert originals.isdisjoint(map(id, copied.child_nodes))
    assert kinds == {"BasicNode", "MergeNode", "RifNode", "CloseNode", "LoopNode", "InitNode", "AwaitNode"}

    # Running the copy leaves the original as it was, and the copy prints
    # what the original prints.
    events = [InstantEvents(frozenset({"left"}))] + [None] * 5
    before = [(env.statuses[rid], env.nodes[rid].state) for rid in region]
    copied_run = [react_once(env, copy, instant) for instant in events]
    assert [(env.statuses[rid], env.nodes[rid].state) for rid in region] == before
    assert [react_once(env, root, instant) for instant in events] == copied_run
    assert copied_run == [
        (["k2", "L1", "c5", "c6", "i", "r", "l3", "l1"], False),
        (["a3", "R3", "i", "r", "l2"], False),
        (["i", "l3", "l1"], False),
        (["l2"], False),
        (["l3", "l1"], False),
        (["l2"], False),
    ]


def test_basic_children_are_all_targets_in_code_order():
    env = Environment()
    a, b, c, d, e = (rexp(env, seq(printer(name))) for name in "abcde")
    body = seq(Activate(b), Stop(), Activate(c))
    r = rexp(env, seq(Activate(a), Handle(body, "T", seq(Activate(d))), Stop(), Activate(e)))
    assert env.nodes[r].children == (a, b, c, d, e)
    assert react_once(env, r) == (["a", "b"], False)
    # Paused inside the Handle body, past two finished targets: the
    # children do not change as pc moves.
    assert env.nodes[r].children == (a, b, c, d, e)
    copy = env.dup(r)
    copied = env.nodes[copy].children
    assert set(copied).isdisjoint((a, b, c, d, e))
    assert [env.statuses[child] for child in copied] == [END, END, STOP, STOP, STOP]
    # The copy never steps its finished targets again and prints what the
    # original prints.
    for expected in ((["c"], False), (["e"], True)):
        assert react_once(env, copy) == expected
        assert react_once(env, r) == expected
    assert env.statuses[copy] is env.statuses[r] is END
    assert env.nodes[r].children == (a, b, c, d, e)

    env = Environment()
    a, b, c, d, f = (nothing(env) for _ in range(5))
    inner = Handle(seq(Stop(), Raise("U"), Activate(a)), "T", seq(Activate(f)))
    r = rexp(env, seq(Handle(inner, "U", seq(Activate(b), Stop(), Activate(c))), Activate(d)))
    assert env.nodes[r].children == (a, f, b, c, d)
    react_once(env, r)
    react_once(env, r)
    # The outer handler caught U and jumped over a and f, which keep their
    # fresh status and stay children.
    assert env.nodes[r].children == (a, f, b, c, d)
    assert (env.statuses[a], env.statuses[f], env.statuses[b]) == (STOP, STOP, END)


# --------------------------------------------------------------------------
# The step path


class CountingEnvironment(Environment):
    """Counts activations by node kind. Its activate_branches is the merge
    rule written through activate, so counting in activate sees every
    activation. It is also the reference that Environment.activate_branches
    is checked against."""

    def __init__(self, world=None, limits=None):
        super().__init__(world, limits)
        self.steps = Counter()

    def activate(self, node):
        self.steps[type(node).__name__] += 1
        return super().activate(node)

    def activate_branches(self, nodes):
        suspended = [node for node in nodes if node.status is SUSP]
        if not suspended:
            return star(*[self.activate(node) for node in nodes])
        for node in suspended:
            self.activate(node)
        return star(*[node.status for node in nodes])


class RecordingReads(Mapping):
    """A mapping that records the key of every lookup made through it."""

    def __init__(self, table):
        self.table = table
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return self.table[key]

    def __contains__(self, key):
        self.reads.append(key)
        return key in self.table

    def __iter__(self):
        self.reads.append("iteration")
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_the_step_path_reads_neither_the_node_table_nor_the_statuses():
    source = ('(loop (par (when (sig s) (rexp (seq (print "x") (suspend) (print "y"))))'
              ' (await (sig s) (close (rexp (seq (print "a") (suspend) (print "b") (stop)))))'
              ' (rif (sig s) (nothing) (rexp (seq (activate (nothing)) (stop))))))')
    # The plain engine steps merge branches in activate_branches, the
    # counting one through activate, where it counts them.
    for env in (Environment(), CountingEnvironment()):
        root = compile_expr(parse_program(source), env)
        env.nodes, env.statuses = RecordingReads(env.nodes), RecordingReads(env.statuses)
        outputs = [react_once(env, root, instant)[0] for instant in (None, S_PRESENT, S_PRESENT, None)]
        # The third instant's body ends without reading an event and
        # restarts in place.
        assert outputs == [[], ["x", "a", "b", "y"], ["x", "a", "b", "y"], []]
        assert env.statuses.reads == []
        # Only react's entry by id reads the node table, once for each
        # activation of the root.
        assert set(env.nodes.reads) == {root}
    assert set(env.steps) == {"LoopNode", "MergeNode", "RifNode", "AwaitNode", "CloseNode", "BasicNode"}
    assert len(env.nodes.reads) == env.steps["LoopNode"]


NODE_KINDS = (AwaitNode, BasicNode, CloseNode, InitNode, LoopNode, MergeNode, RifNode)


def _differential_rows(env, build, trace, steps):
    """Per instant: the outputs, the error label, the steps taken so far
    by kind and every node's status and state."""
    root = build(env)
    rows = []
    for instant in trace:
        env.world.apply_instant(instant)
        error, done = None, False
        try:
            done = env.react(root)
        except ReactiveError as failure:
            error = failure.label
        except RecursionError:
            error = "RecursionError"
        rows.append((env.world.drain_output(), error, dict(steps[env]),
                     [(node.status, node.state) for node in env.nodes.values()]))
        if error or done:
            break
    return rows


def _merge_listing_one_branch_twice(program):
    """The shape of test_dup_of_nary_merge_copies_statuses_and_keeps_sharing:
    a merge that lists one branch twice, run one instant and copied."""
    def build(env):
        shared = rexp(env, program)
        m = merge(env, shared, nothing(env), shared)
        react_once(env, m)
        return env.dup(m)
    return build


def _merge_whose_branch_activates_a_sibling(env):
    """A re-step that suspends a stopped sibling: only the branches that
    were suspended before the micro-step run in it."""
    inner = rexp(env, seq(Stop(), printer("y1"), Suspend(), printer("y2"), Stop()))
    outer = rexp(env, seq(printer("x1"), Suspend(), printer("x2"), Activate(inner), printer("x3")))
    return merge(env, outer, inner)


LIBRARY_MERGES = (
    _merge_listing_one_branch_twice(seq(Stop(), Stop(), Stop())),
    _merge_listing_one_branch_twice(seq(printer("a"), Suspend(), printer("b"), Suspend(),
                                        printer("c"), Stop(), printer("d"), Suspend(), printer("e"))),
    _merge_whose_branch_activates_a_sibling,
)


def test_activate_branches_steps_as_the_counting_reference(monkeypatch):
    # Every node kind's step counts itself on its environment, so both
    # engines are counted the same way, merge branches included.
    steps = {}
    for kind in NODE_KINDS:
        def counted(node, env, step=kind.step):
            steps[env][type(node).__name__] += 1
            return step(node, env)
        monkeypatch.setattr(kind, "step", counted)
    cases = [(lambda env, ast=ast: compile_expr(ast, env), trace)
             for ast, trace in map(gen_case, range(300))]
    cases += [(build, [None, S_PRESENT, None, None, None, None]) for build in LIBRARY_MERGES]
    limits = Limits(max_micro_steps=200, max_loop_restarts=60)
    stepped = Counter()
    for build, trace in cases:
        fast, reference = Environment(limits=limits), CountingEnvironment(limits=limits)
        steps[fast], steps[reference] = Counter(), Counter()
        assert _differential_rows(fast, build, trace, steps) == _differential_rows(reference, build, trace, steps)
        stepped += steps[reference]
    # The cases step every node kind.
    assert set(stepped) == {kind.__name__ for kind in NODE_KINDS}


S_PRESENT = InstantEvents(frozenset({"s"}))
WAITING_SOURCES = (
    '(rif (sig s) (rexp (seq (print "x") (stop) (print "y"))) (halt))',
    '(when (sig s) (rexp (seq (print "x") (stop) (print "y"))))',
    '(loop (when (sig s) (rexp (seq (print "x")))))',
    '(par (when (sig s) (rexp (seq (print "x") (suspend) (print "y")))) (rexp (seq (stop) (print "z"))))',
)


def _run_recording(env, root, events):
    """Per instant: the outputs, and every node's status and state."""
    rows = []
    for instant in events:
        outputs, _ = react_once(env, root, instant)
        rows.append((outputs, {rid: (env.statuses[rid], node.state) for rid, node in env.nodes.items()}))
    return rows


@pytest.mark.parametrize("source", WAITING_SOURCES)
def test_a_waiting_rif_or_when_steps_no_halt_and_runs_as_before(source):
    events = [None, None, S_PRESENT, None, S_PRESENT, S_PRESENT, None, None]
    env = CountingEnvironment()
    root = compile_expr(parse_program(source), env)
    rifs = [node for node in env.nodes.values() if isinstance(node, RifNode)]
    assert rifs and all(node.else_halts for node in rifs)
    react_once(env, root)
    assert env.steps["AwaitNode"] == 0
    assert env.steps["RifNode"] == 1
    rows = _run_recording(env, root, events)
    assert env.steps["AwaitNode"] == 0
    # The same program with every halt stepped, as a rif did before.
    before = CountingEnvironment()
    before_root = compile_expr(parse_program(source), before)
    for node in before.nodes.values():
        if isinstance(node, RifNode):
            node.else_halts = False
    react_once(before, before_root)
    assert _run_recording(before, before_root, events) == rows
    assert before.steps["AwaitNode"] > 0
    assert before.steps["RifNode"] == env.steps["RifNode"]


def test_the_halt_flag_survives_dup_and_loop_restarts():
    env = CountingEnvironment()
    body = when(env, Sig("s"), rexp(env, seq(printer("x"))))
    copy = env.dup(body)
    assert env.nodes[copy].else_halts is True
    assert env.nodes[copy].children != env.nodes[body].children
    root = loop(env, copy)
    outputs = [react_once(env, root, instant)[0] for instant in (None, S_PRESENT, None, S_PRESENT, None)]
    assert outputs == [[], ["x"], [], ["x"], []]
    # The body terminated twice, so the loop restored it twice, flag and all.
    assert env.nodes[copy].else_halts is True
    assert env.steps["AwaitNode"] == 0


def test_a_library_await_that_never_holds_is_still_stepped():
    env = CountingEnvironment()
    waiting = await_(env, BoolConst(False), nothing(env))
    r = rif(env, Sig("s"), nothing(env), waiting)
    assert env.nodes[r].else_halts is False
    assert react_once(env, r) == ([], False)
    assert env.steps["AwaitNode"] == 1


def test_only_an_unlatched_halt_in_the_else_branch_is_skipped():
    env = Environment()
    assert env.nodes[rif(env, Sig("s"), halt(env), nothing(env))].else_halts is False
    assert env.nodes[terminate(env, Sig("s"), halt(env))].else_halts is True
    latched = halt(env)
    env.nodes[latched].state = True
    assert env.nodes[rif(env, Sig("s"), nothing(env), latched)].else_halts is False


def test_run_resumption_runs_one_activation_and_counts_an_event_read_once():
    env = Environment()
    reads = []
    reader = Atom(HostAction(run=lambda world: reads.append("s" in world.signals), reads_events=True))
    node = initial_resumption(seq(reader, printer("a"), Stop(), printer("b")))
    env.world.apply_instant(S_PRESENT)
    assert run_resumption(env, node) is STOP
    assert (reads, env.world.output, node.state) == ([True], ["a"], 3)
    assert env._event_reads == 1
    assert run_resumption(env, node) is END
    assert env.world.output == ["a", "b"]
    assert env._event_reads == 1


def test_a_condition_test_counts_its_event_read_and_a_resume_counts_none():
    """A rif's or an await's test counts one event read each time it runs,
    which loop restarts rely on to wait for the next instant. A latched
    await and a rif that resumes a suspended branch test nothing, so they
    count nothing."""
    env = Environment()
    waiting = env.nodes[await_(env, Sig("s"), rexp(env, seq(printer("w"), Stop(), Stop())))]
    reads = []
    for instant in (None, None, S_PRESENT, S_PRESENT, None):
        env.world.apply_instant(instant)
        before = env._event_reads
        env.activate(waiting)
        reads.append(env._event_reads - before)
    # Unlatched for three tests, the third of which latches it.
    assert reads == [1, 1, 1, 0, 0]
    assert waiting.state is True

    branch = env.nodes[rif(env, Sig("s"), rexp(env, seq(printer("a"), Suspend(), printer("b"), Stop())),
                           rexp(env, seq(printer("c"), Stop(), printer("d"))))]
    reads = []
    for instant in (None, S_PRESENT, None):
        env.world.apply_instant(instant)
        before = env._event_reads
        statuses = [env.activate(branch)]
        if statuses[0] is SUSP:
            statuses.append(env.activate(branch))
        reads.append((env._event_reads - before, statuses, env.world.drain_output()))
    # The second instant's then branch suspends, and its resume within the
    # instant tests nothing.
    assert reads == [(1, [STOP], ["c"]), (1, [SUSP, STOP], ["a", "b"]), (1, [END], ["d"])]
