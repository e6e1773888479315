"""World state, condition and integer evaluation, actions, templates."""
from __future__ import annotations

import copy
import random
import sys

import pytest

from instants import (
    Abort,
    Environment,
    IntegerTooLarge,
    Print,
    build_action,
    compile_expr,
    parse_program,
)
from instants.world import (
    ActionSeq,
    And,
    BinOp,
    BoolConst,
    CellRef,
    Compare,
    InstantEvents,
    IntConst,
    Negate,
    Not,
    Or,
    Raise,
    SetCell,
    Sig,
    ValueRef,
    World,
    compile_cond,
    compile_int,
    eval_cond,
)

from instants.dsl import ParseError

from genprog import CELLS, SIGNALS, VALUES, gen_cond, gen_int, gen_template
from helpers import can_set_print_limit, digit_bound, needs_print_limit, print_limit, structure
from reference import (
    _TPL,
    OracleError,
    OracleWorld,
    _action_reads,
    _cond_reads,
    _ev_cond,
    _ev_int,
    _int_reads,
    _render,
)


def test_accumulator_arithmetic():
    world = World()
    world.cells["num"] = 12
    world.instant_values["digit"] = 3
    expr = BinOp("+", BinOp("*", CellRef("num"), IntConst(10)), ValueRef("digit"))
    assert compile_int(expr)[0](world) == 123


def test_unset_names_read_zero():
    world = World()
    assert compile_int(CellRef("unset"))[0](world) == 0
    assert compile_int(ValueRef("unset"))[0](world) == 0


def test_not_of_absent_signal_is_true():
    world = World()
    assert eval_cond(Not(Sig("x")), world) is True


def test_boolean_connectives_and_comparisons():
    world = World()
    world.signals.add("a")
    assert eval_cond(And(Sig("a"), Not(Sig("b"))), world)
    assert eval_cond(Or(Sig("b"), BoolConst(True)), world)
    assert eval_cond(Compare("<", IntConst(1), IntConst(2)), world)
    assert eval_cond(Compare("<=", IntConst(2), IntConst(2)), world)
    assert not eval_cond(Compare("=", IntConst(1), IntConst(2)), world)


def test_evaluation_is_pure():
    world = World()
    world.signals.add("a")
    world.cells["x"] = 7
    world.instant_values["v"] = 2
    world.output.append("kept")
    snapshot = copy.deepcopy(world)
    eval_cond(And(Sig("a"), Compare("=", CellRef("x"), ValueRef("v"))), world)
    compile_int(Negate(BinOp("-", CellRef("x"), ValueRef("v"))))[0](world)
    assert world == snapshot


def test_apply_instant_resets_ephemeral_state():
    world = World()
    world.cells["x"] = 5
    world.apply_instant(InstantEvents(frozenset({"enter"}), {"digit": 7}))
    assert world.signals == {"digit", "enter"}
    assert world.instant_values == {"digit": 7}
    world.apply_instant(None)
    assert world.signals == set() and world.instant_values == {}
    assert world.cells == {"x": 5}


def test_payloads_are_checked_where_they_enter():
    # Each is rejected when the events are made, naming its signal, and
    # never reaches arithmetic or a print.
    largest = 10 ** digit_bound() - 1
    assert InstantEvents(values={"v": largest, "w": -largest}).values == {"v": largest, "w": -largest}
    for value in ("3", 3.0, True, None):
        with pytest.raises(TypeError, match="^payload of signal 'v' is not an int: "):
            InstantEvents(values={"v": value})
    for value in (largest + 1, -largest - 1):
        with pytest.raises(ValueError, match=f"^payload of signal 'v' has more than {digit_bound()} digits$"):
            InstantEvents(values={"v": value})


def test_signal_ephemerality():
    world = World()
    world.apply_instant(InstantEvents(frozenset({"k"})))
    assert eval_cond(Sig("k"), world)
    world.apply_instant(None)
    assert not eval_cond(Sig("k"), world)


def test_output_drained_once():
    world = World()
    world.output.append("a")
    world.output.append("b")
    assert world.drain_output() == ["a", "b"]
    assert world.drain_output() == []


def test_drained_output_is_not_changed_by_later_instants():
    world = World()
    world.apply_instant(None)
    world.output.append("a")
    drained = world.drain_output()
    for text in ("b", "c"):
        world.apply_instant(None)
        world.output.append(text)
        assert world.drain_output() == [text]
    assert drained == ["a"]


def test_a_comparison_of_long_operands_is_true_under_every_limit():
    # A comparison's result is a bool, of one bit, so it is never held to
    # the int-to-str limit, however long its operands are.
    run, _ = compile_cond(Compare("<", IntConst(10**2000), IntConst(10**2000 + 1)))
    assert run(World()) is True
    if hasattr(sys, "set_int_max_str_digits"):
        limit = print_limit()
        try:
            for setting in (640, 0):
                sys.set_int_max_str_digits(setting)
                assert run(World()) is True
        finally:
            sys.set_int_max_str_digits(limit)


def render(template: str, world: World) -> str:
    build_action(Print(template)).run(world)
    return world.output.pop()


def test_template_interpolation():
    world = World()
    world.cells["num"] = -4
    world.instant_values["d"] = 9
    assert render("n={cell:num} d={value:d} u={cell:u}", world) == "n=-4 d=9 u=0"
    assert render("plain {not:a:field}", world) == "plain {not:a:field}"
    assert render("{cell:num}{value:d}", world) == "-49"
    assert render("x{cell:num}y{cell:num}", world) == "x-4y-4"
    assert render("{cell:} {x:num} {{cell:num}} {cell:num", world) == "{cell:} {x:num} {-4} {cell:num"
    assert render("100% %s {cell:num}%d", world) == "100% %s -4%d"
    assert render("%{value:d}%%{cell:u}%s{cell:num}%", world) == "%9%%0%s-4%"
    assert render("", world) == ""
    # A template with no field goes through the same %-format, which
    # formats no value: it prints as written, % signs included.
    for template in ("100%", "%s", "{cell:}", "{x:a}", "{cell:a", "%%d %", "{{cell:}}"):
        assert render(template, world) == template
        assert not build_action(Print(template)).reads_events


def test_actions_mutate_and_raise():
    world = World()
    action = build_action(
        ActionSeq((Print("x={cell:x}"), SetCell("x", IntConst(3)), Raise("Bang")))
    )
    with pytest.raises(Abort) as exc:
        action.run(world)
    assert exc.value.tag == "Bang"
    assert world.output == ["x=0"]
    assert world.cells["x"] == 3


# Specs that differ from one another only a little: a name, an operand,
# an operator, a text or an item's place.
DISTINCT_SPECS = (
    Print("a"), Print("b"), Print("a{cell:x}"), Print("a{value:x}"), Print("a{cell:y}"),
    Print("{cell:x}{cell:x}"), SetCell("x", IntConst(1)), SetCell("y", IntConst(1)),
    SetCell("x", IntConst(2)), SetCell("x", BinOp("+", CellRef("x"), IntConst(1))),
    SetCell("x", BinOp("-", CellRef("x"), IntConst(1))), SetCell("x", Negate(ValueRef("v"))),
    Raise("T"), Raise("U"), ActionSeq((Print("a"), Raise("T"))), ActionSeq((Raise("T"), Print("a"))),
)


def test_equal_specs_compile_to_distinct_actions_of_one_structure():
    """build_action keeps nothing between calls: each compile of a spec is
    a HostAction of its own, and tests compare compiles by structure."""
    for spec in DISTINCT_SPECS:
        first, second = build_action(spec), build_action(copy.deepcopy(spec))
        assert first is not second and first != second
        assert structure(first) == structure(second), spec
    structures = [structure(build_action(spec)) for spec in DISTINCT_SPECS]
    assert all(structures.count(item) == 1 for item in structures)


def test_event_read_detection():
    assert compile_cond(Sig("a"))[1]
    assert compile_cond(Not(And(BoolConst(True), Sig("b"))))[1]
    assert not compile_cond(Compare("=", CellRef("x"), IntConst(1)))[1]
    assert compile_cond(Compare("=", ValueRef("v"), IntConst(1)))[1]
    assert compile_cond(Compare("<", IntConst(1), Negate(ValueRef("v"))))[1]
    assert not compile_cond(Or(Not(BoolConst(False)), Compare("<=", CellRef("x"), IntConst(0))))[1]
    assert compile_int(BinOp("+", IntConst(1), ValueRef("v")))[1]
    assert not compile_int(Negate(CellRef("x")))[1]
    assert compile_int(Negate(BinOp("*", CellRef("x"), ValueRef("v"))))[1]
    assert build_action(Print("{value:v}")).reads_events
    assert not build_action(Print("{cell:x}")).reads_events
    assert not build_action(Print("{{value:}} value")).reads_events
    assert build_action(ActionSeq((SetCell("x", ValueRef("v")),))).reads_events
    assert not build_action(ActionSeq((Print("a"), ActionSeq((SetCell("x", CellRef("v")),))))).reads_events
    assert build_action(ActionSeq((Print("a"), ActionSeq((Raise("T"), Print("{value:v}")))))).reads_events


def test_an_action_600_levels_deep_compiles_and_runs():
    # Compiling a spec recurses once per level, and so does running it;
    # 600 levels stay within the default recursion limit for both.
    value = IntConst(5)
    for _ in range(600):
        value = Negate(value)
    world = World()
    build_action(SetCell("x", value)).run(world)
    assert world.cells["x"] == 5


def test_unknown_operators_raise_when_compiled():
    # Nothing runs: the bad operator is rejected before any world exists.
    with pytest.raises(ValueError, match="unknown integer operator '/'"):
        build_action(ActionSeq((Print("a"), SetCell("x", BinOp("/", IntConst(1), IntConst(2))))))
    with pytest.raises(ValueError, match="unknown comparison '>'"):
        compile_cond(And(Sig("a"), Compare(">", IntConst(1), IntConst(2))))
    with pytest.raises(TypeError, match="not an action"):
        build_action(ActionSeq((Sig("a"),)))
    with pytest.raises(TypeError, match=r"^not an integer expression: Sig\(name='a'\)$"):
        compile_int(Sig("a"))
    with pytest.raises(TypeError, match=r"^not a condition: IntConst\(value=1\)$"):
        compile_cond(IntConst(1))


@needs_print_limit
def test_arithmetic_results_stop_at_the_print_limit():
    limit = print_limit()
    largest = 10**limit - 1
    world = World()
    assert compile_int(BinOp("+", IntConst(largest - 1), IntConst(1)))[0](world) == largest
    assert compile_int(BinOp("-", IntConst(-largest + 1), IntConst(1)))[0](world) == -largest
    for expr in (
        BinOp("+", IntConst(largest), IntConst(1)),
        BinOp("-", IntConst(-largest), IntConst(1)),
        BinOp("*", IntConst(10**limit // 2), IntConst(2)),
    ):
        with pytest.raises(IntegerTooLarge):
            compile_int(expr)[0](world)
    with pytest.raises(IntegerTooLarge):
        eval_cond(Compare("<", BinOp("*", IntConst(largest), IntConst(largest)), IntConst(0)), world)


@can_set_print_limit
def test_arithmetic_at_the_lowest_print_limit():
    # 640 digits is the lowest limit the host accepts, where a result of
    # up to 3 * 640 bits, returned without asking the limit, comes closest
    # to the digits it allows.
    limit = print_limit()
    sys.set_int_max_str_digits(640)
    try:
        world = World()
        for value in (2**1920 - 1, 2**1920, 10**640 - 1, 10**640):
            for result in (value, -value):
                for op, left, right in (("+", result - 1, 1), ("-", result + 1, 1), ("*", result, 1)):
                    run, _ = compile_int(BinOp(op, IntConst(left), IntConst(right)))
                    if value < 10**640:
                        assert run(world) == result
                        assert len(str(abs(result))) <= 640
                    else:
                        with pytest.raises(IntegerTooLarge, match=f"^result of \\{op} has too many"):
                            run(world)
    finally:
        sys.set_int_max_str_digits(limit)
    assert print_limit() == limit


@can_set_print_limit
def test_a_host_without_the_limit_is_held_to_the_default_one():
    # PYTHONINTMAXSTRDIGITS=0 turns the limit off, as this does; a result
    # or a literal past 4,300 digits must fail as at the default limit.
    limit = print_limit()
    sys.set_int_max_str_digits(0)
    try:
        largest = 10**4300 - 1
        assert compile_int(BinOp("+", IntConst(largest - 1), IntConst(1)))[0](World()) == largest
        with pytest.raises(IntegerTooLarge, match=r"^result of \+ has too many"):
            compile_int(BinOp("+", IntConst(largest), IntConst(1)))[0](World())
        assert parse_program(f"(rexp (set x -{'0' * 4299}1))").program == SetCell("x", IntConst(-1))
        with pytest.raises(ParseError, match="^integer literal has too many digits at line 1, column 14$"):
            parse_program(f"(rexp (set x -{'0' * 4300}1))")
    finally:
        sys.set_int_max_str_digits(limit)
    assert print_limit() == limit


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
    assert x < 10 ** digit_bound() <= x * x


@needs_print_limit
def test_compiled_actions_raise_integer_too_large():
    limit = print_limit()
    world = World()
    world.cells["big"] = 10**limit
    world.instant_values["v"] = -(10**limit)
    for template, name in (
        ("n={cell:big}!", "cell big"),
        ("{cell:x}{value:v}", "value v"),
        ("%{cell:x}%{cell:big}%{value:v}%", "cell big"),
    ):
        with pytest.raises(IntegerTooLarge, match=f"^{name} has too many digits to print$") as exc:
            build_action(Print(template)).run(world)
        assert exc.value.name == name
    assert world.output == []


def test_a_compiled_square_raises_integer_too_large():
    world = World()
    world.cells["x"] = 10 ** (digit_bound() // 2 + 1)
    square = build_action(SetCell("x", BinOp("*", CellRef("x"), CellRef("x"))))
    with pytest.raises(IntegerTooLarge, match=r"^result of \* has too many digits to print$"):
        square.run(world)
    assert world.cells["x"] == 10 ** (digit_bound() // 2 + 1)


# Values on both sides of 2**1920, where arithmetic stops returning a
# result at once and asks _printable, and of 10**digit_bound(), where a
# result, and a field, is too long to print.
EDGES = (0, 1, -3, 7, 2**1920 - 1, 2**1920, -(2**1920), 10 ** digit_bound() - 1, 10 ** digit_bound(),
         -(10 ** digit_bound()))


def _worlds(rng: random.Random) -> tuple[World, OracleWorld]:
    """An engine world and an equal reference world, whose cells and
    payloads are drawn from EDGES."""
    signals = {name: True for name in SIGNALS if rng.random() < 0.5}
    cells = {name: rng.choice(EDGES) for name in CELLS if rng.random() < 0.8}
    values = {name: rng.choice(EDGES) for name in VALUES if rng.random() < 0.8}
    return (World(signals=dict(signals), cells=dict(cells), instant_values=dict(values)),
            OracleWorld(signals=dict(signals), values=dict(values), cells=dict(cells)))


def _outcome(run, too_large):
    """run()'s result, or "too large" when it raises one of too_large."""
    try:
        return run()
    except too_large:
        return "too large"


def _first_unprintable(template: str, oracle: OracleWorld) -> str | None:
    """The first field of template whose value str() cannot print, named
    as IntegerTooLarge names it, or None."""
    for kind, name in _TPL.findall(template):
        try:
            str((oracle.cells if kind == "cell" else oracle.values).get(name, 0))
        except ValueError:
            return f"{kind} {name}"
    return None


def _operands(rng: random.Random) -> list:
    """One operand of each kind: a literal, a cell, a payload, and the two
    expressions a closure calls, arithmetic and a negation."""
    return [IntConst(rng.choice(EDGES)), CellRef(rng.choice(CELLS)), ValueRef(rng.choice(VALUES)),
            BinOp(rng.choice("+-*"), CellRef(rng.choice(CELLS)), IntConst(rng.choice(EDGES))),
            Negate(ValueRef(rng.choice(VALUES)))]


def _differential_cases(rng: random.Random):
    """Every operand kind on each side of every operator, in arithmetic,
    negations, comparisons and sets, and seeded generated trees."""
    operands = _operands(rng)
    ints = [BinOp(op, left, right) for op in "+-*" for left in operands for right in operands]
    ints += [Negate(item) for item in operands] + operands
    ints += [gen_int(rng, 3) for _ in range(20)]
    conds = [Compare(op, left, right) for op in ("=", "<", "<=") for left in operands for right in operands]
    conds += [gen_cond(rng, 3) for _ in range(20)]
    return ints, conds


@pytest.mark.parametrize("seed", range(8))
def test_compiled_closures_match_the_reference(seed):
    rng = random.Random(seed)
    ints, conds = _differential_cases(rng)
    world, oracle = _worlds(rng)
    for expr in ints:
        want = _outcome(lambda: _ev_int(expr, oracle), OracleError)
        run, reads = compile_int(expr)
        assert _outcome(lambda: run(world), IntegerTooLarge) == want, expr
        assert reads == _int_reads(expr), expr
        # A set that raises leaves its cell as it was.
        action, world_after = build_action(SetCell("x", expr)), copy.deepcopy(world)
        got = _outcome(lambda: action.run(world_after), IntegerTooLarge)
        cells = oracle.cells if want == "too large" else {**oracle.cells, "x": want}
        assert (got, world_after.cells) == (want if want == "too large" else None, cells), expr
        assert action.reads_events == _int_reads(expr), expr
    for cond in conds:
        run, reads = compile_cond(cond)
        want = _outcome(lambda: _ev_cond(cond, oracle), OracleError)
        assert _outcome(lambda: run(world), IntegerTooLarge) == want, cond
        assert reads == _cond_reads(cond), cond
    templates = [gen_template(rng) for _ in range(20)] + ["{cell:x}", "{value:v}", "{cell:x}-{value:v}%{cell:y}"]
    for template in templates:
        action = build_action(Print(template))
        assert action.reads_events == _action_reads(Print(template)), template
        unprintable = _first_unprintable(template, oracle)
        if unprintable is None:
            assert render(template, world) == _render(template, oracle), template
        else:
            with pytest.raises(IntegerTooLarge) as exc:
                action.run(world)
            assert exc.value.name == unprintable, template
        assert world.output == []
