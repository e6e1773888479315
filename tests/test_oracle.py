"""Differential testing against the direct-recursive reference interpreter."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from genprog import gen_case
from instants import Environment, compile_expr, parse_program, render
from instants.dsl import HaltExpr, MergeExpr, RexpExpr, RifExpr, WhenExpr
from instants.program import JUMP, PAUSE, TEXT_PAUSE, initial_resumption
from reference import engine_run, oracle_run

LIMITS = dict(max_micro=200, max_restarts=60)


def test_engine_matches_oracle_over_fixed_seeds():
    for seed in range(300):
        ast, trace = gen_case(seed)
        assert engine_run(ast, trace, **LIMITS) == oracle_run(ast, trace, **LIMITS), f"seed {seed}"


@given(st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=200, deadline=None)
def test_engine_matches_oracle_on_arbitrary_seeds(seed):
    ast, trace = gen_case(seed)
    assert engine_run(ast, trace, **LIMITS) == oracle_run(ast, trace, **LIMITS)


def test_engine_matches_oracle_on_a_5000_branch_par():
    # The oracle folds a (par ...) into a balanced tree of binary merges,
    # so stepping 5,000 branches recurses through 13 levels of them.
    branches = [f'(rexp (seq (print "a{i}") (suspend) (print "b{i}") (stop)))' for i in range(5000)]
    ast = parse_program("(par\n" + "\n".join(branches) + ")")
    trace = [None] * 3
    result = engine_run(ast, trace, **LIMITS)
    assert result == oracle_run(ast, trace, **LIMITS)
    assert len(result[0][0][0]) == 10_000


def _nodes(ast):
    """Every dataclass instance in an AST: expressions, program items,
    conditions and actions."""
    pending = [ast]
    while pending:
        item = pending.pop()
        if isinstance(item, tuple):
            pending += item
        elif hasattr(item, "__dataclass_fields__"):
            yield item
            pending += [getattr(item, name) for name in item.__dataclass_fields__]


def _widest_merge(ast) -> int:
    """The most children of any MergeExpr in an AST."""
    return max((len(item.children) for item in _nodes(ast) if isinstance(item, MergeExpr)), default=0)


def test_generated_cases_reach_merges_of_three_or_more_branches():
    # (par ...) parses to one flat merge, which the oracle checks by
    # folding it into binary ones; the fuzzer has to generate that shape.
    assert any(_widest_merge(gen_case(seed)[0]) >= 3 for seed in range(2000))


def _waits_on_a_halt(item) -> bool:
    return isinstance(item, WhenExpr) or isinstance(item, RifExpr) and isinstance(item.else_expr, HaltExpr)


def test_generated_cases_reach_a_rif_that_skips_its_halt():
    # A rif does not step a halt in its else branch; the fuzzer has to
    # generate that shape, written both as a rif and as a when, and the
    # compiled rif has to take the skip.
    found = [item for seed in range(2000) for item in _nodes(gen_case(seed)[0]) if _waits_on_a_halt(item)]
    assert any(isinstance(item, RifExpr) for item in found)
    assert any(isinstance(item, WhenExpr) for item in found)
    for item in found:
        env = Environment()
        assert env.nodes[compile_expr(item, env)].else_halts


def _fused_shapes(body: RexpExpr) -> tuple[bool, bool]:
    """Whether a rexp body's layout has a TEXT_PAUSE at a handler's first
    pc, and whether it has a JUMP onto a PAUSE that follows a TEXT_PAUSE."""
    node = initial_resumption(body.program)
    ops = node.ops
    return (any(stop + 1 < len(ops) and ops[stop + 1][0] == TEXT_PAUSE for _, stop, _ in node.handles),
            any(ops[arg - 1][0] == TEXT_PAUSE and ops[arg][0] == PAUSE
                for op, arg in ops if op == JUMP and arg < len(ops)))


def test_generated_cases_reach_the_shapes_a_fused_print_must_survive():
    # A print before a pause runs as one TEXT_PAUSE op, and the PAUSE keeps
    # its place: a caught abort can enter a handler on a fused op, and a
    # Handle body that ends jumps over its handler onto the kept PAUSE.
    # The fuzzer has to generate both, and the engine must match the
    # oracle on each case that holds one.
    handler_entries, kept_pauses = {}, {}
    for seed in range(2000):
        ast, trace = gen_case(seed)
        for item in _nodes(ast):
            if isinstance(item, RexpExpr):
                at_handler, onto_pause = _fused_shapes(item)
                if at_handler:
                    handler_entries[seed] = ast, trace
                if onto_pause:
                    kept_pauses[seed] = ast, trace
    assert handler_entries and kept_pauses
    for ast, trace in {**handler_entries, **kept_pauses}.values():
        assert engine_run(ast, trace, **LIMITS) == oracle_run(ast, trace, **LIMITS)


def test_engine_and_oracle_stop_a_growing_cell_at_the_same_instant():
    source = (
        "(rexp (seq (set x 3) (activate (loop (rexp (seq (set x (* (cell x) (cell x)))"
        ' (print "p") (stop)))))))'
    )
    trace = [None] * 30
    result = engine_run(parse_program(source), trace, **LIMITS)
    assert result == oracle_run(parse_program(source), trace, **LIMITS)
    assert result[2] == "IntegerTooLarge"


def test_a_do_item_in_a_rexp_body_round_trips_and_matches_the_oracle():
    source = '(rexp (handle T (seq (do (print "a") (raise T)) (print "never")) (print "h")))'
    ast = parse_program(source)
    assert render(ast) == source
    trace = [None] * 3
    result = engine_run(ast, trace, **LIMITS)
    assert result == oracle_run(ast, trace, **LIMITS)
    assert result == ([(("a", "h"), "END")], True, None)
