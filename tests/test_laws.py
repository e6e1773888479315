"""Metamorphic laws: rewriting one subexpression of a generated program
into an equivalent form must not change the program's run.

Each law is a pair of forms over an expression E. A case takes a gen_case
program, picks one of its subexpressions E at random (the root included,
and expressions activated inside a rexp body), and requires that the
program with E written as the left form and the program with E written as
the right form give the same engine_run result. Most laws have E itself as
the left form. The laws cover the node kinds that optimizations of the
step path change: merge, close, rexp, repeat, rif, await, init.
"""
from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest

from instants.dsl import (
    AwaitExpr,
    CloseExpr,
    HaltExpr,
    InitExpr,
    LoopExpr,
    MergeExpr,
    NothingExpr,
    RepeatExpr,
    RexpExpr,
    RifExpr,
    TerminateExpr,
    WhenExpr,
)
from instants.program import Activate, Seq
from instants.world import ActionSeq, BoolConst

from genprog import gen_case, gen_expr
from reference import engine_run

LIMITS = dict(max_micro=200, max_restarts=60)
PROGRAMS_PER_LAW = 300

EXPRESSIONS = (RexpExpr, MergeExpr, RifExpr, CloseExpr, LoopExpr, RepeatExpr, InitExpr,
               AwaitExpr, WhenExpr, TerminateExpr, HaltExpr, NothingExpr)


def _same(e, _rng):
    return e


# name -> (left form, right form); each form maps E and a seeded rng to an
# expression.
LAWS = {
    "par_alone": (_same, lambda e, _: MergeExpr((e,))),
    "par_nothing_after": (_same, lambda e, _: MergeExpr((e, NothingExpr()))),
    "par_nothing_before": (_same, lambda e, _: MergeExpr((NothingExpr(), e))),
    # (close E) differs from E when E suspends beside a sibling, so the law
    # is that close is idempotent.
    "close_close": (lambda e, _: CloseExpr(e), lambda e, _: CloseExpr(CloseExpr(e))),
    "rexp_activate": (_same, lambda e, _: RexpExpr(Seq((Activate(e),)))),
    "repeat_once": (_same, lambda e, _: RepeatExpr(1, e)),
    "when_true": (_same, lambda e, _: WhenExpr(BoolConst(True), e)),
    "await_true": (_same, lambda e, _: AwaitExpr(BoolConst(True), e)),
    "rif_false_dead_then": (_same, lambda e, rng: RifExpr(BoolConst(False), gen_expr(rng, 2), e)),
    "init_empty_action": (_same, lambda e, _: InitExpr(ActionSeq(()), e)),
    "terminate_false": (_same, lambda e, _: TerminateExpr(BoolConst(False), e)),
}


def rewrite(node, target: int, form, counter: list[int]):
    """node with its target-th expression, in preorder, replaced by
    form(E); counter[0] ends as the number of expressions in node."""
    if isinstance(node, tuple):
        return tuple(rewrite(item, target, form, counter) for item in node)
    if not hasattr(node, "__dataclass_fields__"):
        return node
    index = None
    if isinstance(node, EXPRESSIONS):
        index = counter[0]
        counter[0] += 1
    rebuilt = replace(node, **{f.name: rewrite(getattr(node, f.name), target, form, counter)
                               for f in fields(node)})
    return form(rebuilt) if index == target else rebuilt


def check_law(name: str, seed: int) -> None:
    left, right = LAWS[name]
    ast, trace = gen_case(seed)
    counter = [0]
    rewrite(ast, -1, None, counter)
    rng = random.Random(f"{name} {seed}")
    target = rng.randrange(counter[0])
    lhs = rewrite(ast, target, lambda e: left(e, rng), [0])
    rhs = rewrite(ast, target, lambda e: right(e, rng), [0])
    assert engine_run(lhs, trace, **LIMITS) == engine_run(rhs, trace, **LIMITS), f"seed {seed}"


def test_rewrite_reaches_every_expression_once():
    ast = RifExpr(BoolConst(True), RexpExpr(Seq((Activate(HaltExpr()),))), NothingExpr())
    counter = [0]
    assert rewrite(ast, -1, None, counter) == ast
    assert counter[0] == 4
    rewritten = [rewrite(ast, target, LoopExpr, [0]) for target in range(4)]
    assert rewritten[0] == LoopExpr(ast)
    assert rewritten[2] == RifExpr(BoolConst(True), RexpExpr(Seq((Activate(LoopExpr(HaltExpr())),))),
                                   NothingExpr())
    assert len(set(rewritten)) == 4


@pytest.mark.parametrize("name", LAWS)
def test_law_holds_over_generated_programs(name):
    for seed in range(PROGRAMS_PER_LAW):
        check_law(name, seed)
