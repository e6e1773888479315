"""Seeded random program and trace generator for differential testing."""
from __future__ import annotations

import random

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
from instants.program import Activate, Handle, Raise, Seq, Stop, Suspend
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
    Print,
    SetCell,
    Sig,
    ValueRef,
)

SIGNALS = ("a", "b", "go")
VALUES = ("v",)
CELLS = ("x", "y")
TAGS = ("T", "U")
TEXTS = ("p", "q", "r")


def gen_int(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return IntConst(rng.randint(-3, 9))
    if roll < 0.55:
        return CellRef(rng.choice(CELLS))
    if roll < 0.70:
        return ValueRef(rng.choice(VALUES))
    if roll < 0.90:
        return BinOp(rng.choice("+-*"), gen_int(rng, depth - 1), gen_int(rng, depth - 1))
    return Negate(gen_int(rng, depth - 1))


def gen_cond(rng: random.Random, depth: int):
    roll = rng.random()
    if roll < 0.40:
        return Sig(rng.choice(SIGNALS))
    if depth <= 0 or roll < 0.50:
        return BoolConst(rng.random() < 0.5)
    if roll < 0.60:
        return Not(gen_cond(rng, depth - 1))
    if roll < 0.70:
        return And(gen_cond(rng, depth - 1), gen_cond(rng, depth - 1))
    if roll < 0.80:
        return Or(gen_cond(rng, depth - 1), gen_cond(rng, depth - 1))
    return Compare(rng.choice(("=", "<", "<=")), gen_int(rng, 1), gen_int(rng, 1))


FIELDS = tuple("{cell:%s}" % name for name in CELLS) + tuple("{value:%s}" % name for name in VALUES)
# Text that resembles a field, or a format directive, and prints literally
# (the doubled braces print the field inside them between braces).
NEAR_MISSES = ("{cell:}", "{x:a}", "{{cell:a}}", "{cell:a", "100%", "%s")


def gen_template(rng: random.Random) -> str:
    """Text, fields, repeated fields and near-misses, glued together or
    spaced; some templates have no field at all."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.35:
            parts.append(rng.choice(TEXTS))
        elif roll < 0.70:
            parts.append(rng.choice(FIELDS))
        elif roll < 0.85 and parts:
            parts.append(rng.choice(parts))
        else:
            parts.append(rng.choice(NEAR_MISSES))
    return rng.choice(("", " ")).join(parts)


def gen_action(rng: random.Random, depth: int, allow_raise: bool = True):
    roll = rng.random()
    if roll < 0.45:
        return Print(gen_template(rng))
    if roll < 0.85:
        return SetCell(rng.choice(CELLS), gen_int(rng, 1))
    if roll < 0.93 and depth > 0:
        return ActionSeq(
            tuple(gen_action(rng, depth - 1, allow_raise) for _ in range(rng.randint(0, 2)))
        )
    if allow_raise:
        return Raise(rng.choice(TAGS))
    return Print(gen_template(rng))


def gen_stmt(rng: random.Random, depth: int, allow_raise: bool = True):
    roll = rng.random()
    if roll < 0.22:
        return Print(gen_template(rng))
    if roll < 0.38:
        return SetCell(rng.choice(CELLS), gen_int(rng, 1))
    if roll < 0.58:
        return Stop()
    if roll < 0.66:
        return Suspend()
    if roll < 0.78 and depth > 0:
        return Activate(gen_expr(rng, depth - 1, allow_raise))
    if roll < 0.88 and depth > 0:
        # By keyword, the draws keep their syntax order (tag, body, handler),
        # so each seed still gives the same program.
        return Handle(
            tag=rng.choice(TAGS),
            body=gen_prog(rng, depth - 1, max_items=3, allow_raise=allow_raise),
            handler=gen_prog(rng, depth - 1, max_items=2, allow_raise=allow_raise),
        )
    if roll < 0.94 and allow_raise:
        return Raise(rng.choice(TAGS))
    return Seq(tuple(gen_stmt(rng, 0, allow_raise) for _ in range(rng.randint(0, 2))))


def gen_prog(rng: random.Random, depth: int, max_items: int = 8, allow_raise: bool = True):
    return Seq(tuple(gen_stmt(rng, depth, allow_raise) for _ in range(rng.randint(0, max_items))))


def gen_abort(rng: random.Random, allow_raise: bool = True):
    """A raise statement, or an activated child that raises: through an
    ActionSeq that init runs, or, when a signal is present, through a raise
    statement (otherwise the child ends)."""
    if not allow_raise:
        return Print(rng.choice(TEXTS))
    tag = rng.choice(TAGS)
    roll = rng.random()
    if roll < 0.4:
        return Raise(tag)
    if roll < 0.7:
        return Activate(InitExpr(ActionSeq((Print(rng.choice(TEXTS)), Raise(tag))), NothingExpr()))
    return Activate(RifExpr(Sig(rng.choice(SIGNALS)), RexpExpr(Seq((Raise(tag),))), NothingExpr()))


def gen_handler_stack(rng: random.Random, allow_raise: bool = True):
    """2-4 nested Handles over two tags. Aborts sit in bodies, in handlers
    and just before a Handle, so each catch must find the innermost Handle
    whose body holds the abort, and no other."""

    def items():
        out = []
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.35:
                out.append(Print(rng.choice(TEXTS)))
            elif roll < 0.6:
                out.append(Stop())
            elif roll < 0.7:
                out.append(Suspend())
            else:
                out.append(gen_abort(rng, allow_raise))
        return out

    body = Seq(tuple(items()))
    for _ in range(rng.randint(2, 4)):
        handle = Handle(tag=rng.choice(TAGS), body=body, handler=Seq(tuple(items())))
        before = items()
        if rng.random() < 0.3:
            before.append(gen_abort(rng, allow_raise))
        body = Seq((*before, handle, *items()))
    return body


def gen_expr(rng: random.Random, depth: int, allow_raise: bool = True):
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        leaf = rng.random()
        if leaf < 0.60:
            return RexpExpr(gen_prog(rng, max(0, depth - 1), max_items=5, allow_raise=allow_raise))
        if leaf < 0.70:
            return RexpExpr(gen_handler_stack(rng, allow_raise))
        if leaf < 0.85:
            return HaltExpr()
        return NothingExpr()
    if roll < 0.40:
        return MergeExpr((gen_expr(rng, depth - 1, allow_raise), gen_expr(rng, depth - 1, allow_raise)))
    if roll < 0.45:
        return gen_wide_merge(rng, depth - 1, allow_raise)
    if roll < 0.55:
        return RifExpr(
            gen_cond(rng, 2), gen_expr(rng, depth - 1, allow_raise), gen_expr(rng, depth - 1, allow_raise)
        )
    if roll < 0.63:
        return CloseExpr(gen_expr(rng, depth - 1, allow_raise))
    if roll < 0.71:
        return LoopExpr(gen_expr(rng, depth - 1, allow_raise))
    if roll < 0.78:
        return RepeatExpr(rng.randint(0, 3), gen_expr(rng, depth - 1, allow_raise))
    if roll < 0.84:
        return InitExpr(gen_action(rng, 1, allow_raise), gen_expr(rng, depth - 1, allow_raise))
    if roll < 0.90:
        return AwaitExpr(gen_cond(rng, 2), gen_expr(rng, depth - 1, allow_raise))
    if roll < 0.95:
        return WhenExpr(gen_cond(rng, 2), gen_expr(rng, depth - 1, allow_raise))
    return TerminateExpr(gen_cond(rng, 2), gen_expr(rng, depth - 1, allow_raise))


def gen_suspender(rng: random.Random):
    """A short basic program that suspends at least once."""
    items = [Print(rng.choice(TEXTS)), Suspend()]
    items += [rng.choice((Print(rng.choice(TEXTS)), Suspend(), Stop()))
              for _ in range(rng.randint(0, 3))]
    return RexpExpr(Seq(tuple(items)))


def _fold(rng: random.Random, branches: list, shape: str):
    if len(branches) == 1:
        return branches[0]
    if shape == "right":
        split = 1
    elif shape == "left":
        split = len(branches) - 1
    else:
        split = rng.randint(1, len(branches) - 1)
    return MergeExpr((_fold(rng, branches[:split], shape), _fold(rng, branches[split:], shape)))


def gen_wide_merge(rng: random.Random, depth: int, allow_raise: bool = True):
    """3-16 branches in one n-ary merge, as ``(par ...)`` parses, or in a
    chain of binary merges: a right fold, a left fold or a random tree.
    Roughly half of the branches suspend, so re-steps within an instant
    reach a subset of them."""
    branches = [
        gen_suspender(rng) if rng.random() < 0.5 else gen_expr(rng, min(depth, 1), allow_raise)
        for _ in range(rng.randint(3, 16))
    ]
    shape = rng.choice(("flat", "right", "left", "random"))
    return MergeExpr(tuple(branches)) if shape == "flat" else _fold(rng, branches, shape)


def gen_trace(rng: random.Random):
    instants = []
    for _ in range(rng.randint(1, 10)):
        signals = frozenset(name for name in SIGNALS if rng.random() < 0.40)
        values = {name: rng.randint(0, 9) for name in VALUES if rng.random() < 0.35}
        instants.append(InstantEvents(signals, values))
    return instants


# Tokens a trace line rejects: bad names, bad integers and a duplicate
# assignment (its two halves are one item, so they stay side by side).
BAD_TRACE_TOKENS = ("9b", "b@d", "\u00e9", "v=q", "v=", "=1", "v=1 v=2")


def gen_trace_text(rng: random.Random) -> str:
    """A trace file from gen_trace's instants, mutated the ways trace files
    vary: leading space, form feeds and tabs between tokens, trailing
    comments, CRLF ends, repeated lines, blank lines with comment-only
    lines right after them, and, now and then, a bad token."""
    lines = []
    for events in gen_trace(rng):
        tokens = sorted(events.signals) + [f"{name}={value}" for name, value in events.values.items()]
        if rng.random() < 0.06:
            tokens.append(rng.choice(BAD_TRACE_TOKENS))
        rng.shuffle(tokens)
        line = rng.choice(("", "", " ", "\f")) + rng.choice((" ", " ", "  ", "\t", "\f")).join(tokens)
        if rng.random() < 0.15:
            line += rng.choice((" ; note", ";", "\t;x=1 9b"))
        if rng.random() < 0.15:
            line += "\r"
        lines.append(line)
        while rng.random() < 0.35:
            extra = rng.choice(("", "\r", " ", rng.choice(lines), rng.choice(lines)))
            lines.append(extra)
            if not extra.strip() and rng.random() < 0.5:
                lines.append(rng.choice(("; c", ";", "  ; c", ";c\r")))
    return "\n".join(lines) + rng.choice(("", "\n"))


def gen_case(seed: int, allow_raise: bool = True):
    """One differential test case: an expression tree plus an event trace."""
    rng = random.Random(seed)
    return gen_expr(rng, rng.randint(1, 5), allow_raise), gen_trace(rng)
