"""Constructors for reactive expressions.

Each combinator allocates a node in the given environment and returns its
id. halt, nothing, when, and terminate are plain desugarings over the
others, so their behavioral equivalences hold by construction.
"""
from __future__ import annotations

from .core import ReactiveId
from .kernel import (
    AwaitNode,
    CloseNode,
    Environment,
    InitNode,
    LoopNode,
    MergeNode,
    RifNode,
)
from .program import EMPTY_PROGRAM, Program, initial_resumption
from .world import BoolConst, Cond, HostAction, compile_cond


def rexp(env: Environment, program: Program) -> ReactiveId:
    """A basic reactive expression running the given instruction tree."""
    return env.alloc(initial_resumption(program))


def merge(env: Environment, *children: ReactiveId) -> ReactiveId:
    """Parallel composition of one or more expressions, in one node.

    Steps the children left to right: only the suspended ones when any is
    suspended (a re-step within the instant), otherwise all of them. The
    outcome is star over the children's stored statuses, so nesting merges
    behaves the same as one merge over all the leaves.
    """
    if not children:
        raise ValueError("merge needs at least one child")
    return env.alloc(MergeNode(children))


def rif(env: Environment, cond: Cond, then_branch: ReactiveId, else_branch: ReactiveId) -> ReactiveId:
    """Conditional activation; the condition is compiled once, here, and
    re-evaluated every instant."""
    return env.alloc(RifNode(*compile_cond(cond), (then_branch, else_branch)))


def close(env: Environment, child: ReactiveId) -> ReactiveId:
    """Resolve the child's suspensions within the instant."""
    return env.alloc(CloseNode((child,)))


def nothing(env: Environment) -> ReactiveId:
    """Terminates on its first activation."""
    return rexp(env, EMPTY_PROGRAM)


# One compiled test for every halt, so equal programs compile to equal nodes.
_NEVER = compile_cond(BoolConst(False))


def halt(env: Environment) -> ReactiveId:
    """Stops at every instant, forever: an await whose condition never
    holds, so a waiting halt is one step per instant."""
    return env.alloc(AwaitNode(*_NEVER, (nothing(env),)))


def loop(env: Environment, body: ReactiveId) -> ReactiveId:
    """Restart the body whenever it terminates, from the state it had when
    the loop was built.

    The loop runs a private copy of the argument, which it never
    activates. Each restart resets that copy in place from a snapshot
    taken here, so restarts allocate no nodes.
    """
    own = env.dup(body)
    return env.alloc(LoopNode(*env.snapshot(own)))


def repeat(env: Environment, count: int, body: ReactiveId) -> ReactiveId:
    """Run the body to termination ``count`` times, then terminate."""
    if count < 0:
        raise ValueError("repeat count must be non-negative")
    if count == 0:
        return nothing(env)
    own = env.dup(body)
    return env.alloc(LoopNode(*env.snapshot(own), count))


def init(env: Environment, action: HostAction, child: ReactiveId) -> ReactiveId:
    """Run the action before every activation of the child."""
    return env.alloc(InitNode(action, (child,)))


def await_(env: Environment, cond: Cond, child: ReactiveId) -> ReactiveId:
    """Stop until the condition first holds, then behave as the child.

    The condition is checked once per instant until it holds and never
    again afterwards.
    """
    return env.alloc(AwaitNode(*compile_cond(cond), (child,)))


def when(env: Environment, cond: Cond, child: ReactiveId) -> ReactiveId:
    """Activate the child when the condition holds, otherwise stop."""
    return rif(env, cond, child, halt(env))


def terminate(env: Environment, cond: Cond, child: ReactiveId) -> ReactiveId:
    """Activate the child while the condition is false; terminate the
    instant it first holds."""
    return rif(env, cond, nothing(env), child)
