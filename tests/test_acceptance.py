"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
from __future__ import annotations

from instants import (
    Activate,
    Atom,
    END,
    Environment,
    Handle,
    Print,
    Raise,
    Seq,
    STOP,
    SUSP,
    Status,
    Stop,
    Suspend,
    build_action,
    close,
    loop,
    merge,
    rexp,
    seq,
    star,
)
from instants.cli import EXIT_RUNTIME_ERROR, main
from instants.world import InstantEvents

from genprog import gen_case
from helpers import keypad, react_once, run_instants
from reference import engine_run, oracle_run
from test_properties import (
    check_desugaring_equivalences,
    check_determinism,
    check_dup_isolation,
    check_left_before_right,
    check_merge_end_iff_both_end,
    check_micro_instant_confinement,
    check_signal_ephemerality,
    check_terminal_absorption,
)


def _pass(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: {text} PASS")


def printer(text):
    return Atom(build_action(Print(text)))


def test_criterion_1_session_replay():
    env = Environment()
    exp = rexp(env, seq(printer("FIRST"), Stop(), printer("SECOND")))
    assert react_once(env, exp) == (["FIRST"], False)
    copy = env.dup(exp)
    assert react_once(env, exp) == (["SECOND"], True)
    assert react_once(env, exp) == ([], True)
    assert react_once(env, copy) == (["SECOND"], True)
    _pass(1, "session replay (react/dup/react)")


def test_criterion_2_merge_replay():
    env = Environment()
    m = merge(
        env,
        rexp(env, seq(printer("1"), Stop(), printer("2"))),
        rexp(env, seq(printer("A"), Stop(), printer("B"))),
    )
    assert react_once(env, m) == (["1", "A"], False)
    assert react_once(env, m) == (["2", "B"], True)
    _pass(2, "merge replay (1A then 2B)")


def test_criterion_3_micro_instant_replay():
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
    _pass(3, "micro-instant replay (SUSPENDING A1 then 2B)")


def test_criterion_4_activate_replay():
    env = Environment()
    inner = rexp(env, seq(printer("FIRST"), Stop(), printer("SECOND")))
    outer = rexp(env, seq(Activate(inner), printer("DONE")))
    assert react_once(env, outer) == (["FIRST"], False)
    assert react_once(env, outer) == (["SECOND", "DONE"], True)
    _pass(4, "activate replay (DONE in the terminating instant)")


def test_criterion_5_preemption():
    env = Environment()
    m_exp = merge(
        env,
        rexp(env, seq(printer("FIRST"), Stop(), Raise("Abort"))),
        loop(env, rexp(env, seq(printer("SECOND"), Stop()))),
    )
    outer = rexp(env, Handle(Activate(m_exp), "Abort", Seq(())))
    assert react_once(env, outer) == (["FIRST", "SECOND"], False)
    assert react_once(env, outer) == ([], True)
    _pass(5, "preemption (abort caught, looping branch abandoned)")


def test_criterion_6_star_table():
    table = {
        (SUSP, SUSP): SUSP, (SUSP, STOP): SUSP, (SUSP, END): SUSP,
        (STOP, SUSP): SUSP, (STOP, STOP): STOP, (STOP, END): STOP,
        (END, SUSP): SUSP, (END, STOP): STOP, (END, END): END,
    }
    for (a, b), want in table.items():
        assert star(a, b) is want
    for a in Status:
        assert star(a, a) is a
        assert star(a, END) is a
        assert star(a, SUSP) is SUSP
        for b in Status:
            assert star(a, b) is star(b, a)
            for c in Status:
                assert star(star(a, b), c) is star(a, star(b, c))
    _pass(6, "outcome algebra (all 9 entries and laws)")


def test_criterion_7_keypad_scenarios():
    def digit(d):
        return InstantEvents(frozenset(), {"digit": d})

    def pressed(name):
        return InstantEvents(frozenset({name}))

    env = Environment()
    ctl = keypad(env, digits=3)
    rows = run_instants(env, ctl, [digit(1), digit(2), digit(3), pressed("enter")], pad_empty=1)
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["123"], []]
    assert all(status == "STOP" for _, status, _ in rows)

    env = Environment()
    ctl = keypad(env, digits=3)
    rows = run_instants(
        env, ctl,
        [digit(1), digit(2), pressed("clear"), digit(4), digit(5), digit(6), pressed("enter")],
    )
    assert [outputs for outputs, _, _ in rows] == [[], [], [], [], [], [], ["456"]]
    assert all(status == "STOP" for _, status, _ in rows)

    env = Environment()
    ctl = keypad(env, digits=2)
    rows = run_instants(env, ctl, [digit(7), digit(8), digit(9), pressed("enter")])
    assert [outputs for outputs, _, _ in rows] == [[], [], [], ["78"]]
    assert all(status == "STOP" for _, status, _ in rows)
    _pass(7, "keypad scenarios (enter, clear re-entry, buffer overflow)")


def test_criterion_8_oracle_equivalence():
    mismatches = 0
    for seed in range(1000):
        ast, trace = gen_case(seed)
        got = engine_run(ast, trace, max_micro=200, max_restarts=60)
        want = oracle_run(ast, trace, max_micro=200, max_restarts=60)
        if got != want:
            mismatches += 1
    assert mismatches == 0
    _pass(8, "oracle equivalence (1000 random programs, zero mismatches)")


def test_criterion_9_property_suites():
    absorbing = sum(check_terminal_absorption(seed) or 0 for seed in range(120))
    assert absorbing >= 20  # enough terminated runs to make the sweep meaningful
    isolated = sum(check_dup_isolation(seed) or 0 for seed in range(120))
    assert isolated >= 20
    for seed in range(120):
        check_micro_instant_confinement(seed)
        check_merge_end_iff_both_end(seed)
        check_left_before_right(seed)
        check_desugaring_equivalences(seed)
        check_signal_ephemerality(seed)
        check_determinism(seed)
    _pass(9, "property suites (absorption, confinement, merge-END, ordering, dup, desugar, ephemerality, determinism)")


def test_criterion_10_guard_rails(tmp_path, capsys):
    loops = tmp_path / "loops.rx"
    loops.write_text("(loop (nothing))", encoding="utf-8")
    code = main(["--program", str(loops), "--max-loop-restarts", "200"])
    out = capsys.readouterr()
    assert code == EXIT_RUNTIME_ERROR
    assert "InstantaneousLoop" in out.out and "InstantaneousLoop" in out.err

    stuck = tmp_path / "stuck.rx"
    stuck.write_text("(close (loop (rexp (seq (suspend)))))", encoding="utf-8")
    code = main(["--program", str(stuck), "--max-micro", "100"])
    out = capsys.readouterr()
    assert code == EXIT_RUNTIME_ERROR
    assert "MicroStepLimitExceeded" in out.out and "MicroStepLimitExceeded" in out.err
    _pass(10, "guard rails (instantaneous loop and micro-step limit exit 5)")
