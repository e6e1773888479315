"""A numeric keypad controller built from the reactive combinators.

The controller accumulates up to ``digits`` digit presses into the ``num``
cell, prints the number on ENTER, and resets on ENTER or CLEAR by raising a
``Clear`` abort that the looping body catches. Every button lives in its own
branch of a merge, so adding a button is adding a branch.

Events: signal ``digit`` with payload ``digit=<d>`` for a digit press,
signals ``enter``, ``clear``, and optionally ``neg``. If ENTER and a digit
arrive in the same instant, the ENTER branch runs first (it is leftmost in
the merge) and its abort restarts the body before the digit is consumed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .combinators import halt, loop, merge, repeat, rexp, rif
from .core import ReactiveId
from .kernel import Environment
from .program import Activate, Atom, Handle, Program, Raise, Seq, seq
from .world import (
    BinOp,
    CellRef,
    IntConst,
    Negate,
    Print,
    SetCell,
    Sig,
    ValueRef,
    build_action,
)

NUM_CELL = "num"
CLEAR_TAG = "Clear"


@dataclass(frozen=True)
class KeypadSpec:
    """Buffer size plus the optional negate button."""

    digits: int
    with_neg: bool = False

    def __post_init__(self) -> None:
        if self.digits < 1:
            raise ValueError("digit buffer size must be at least 1")


def _print_num() -> Program:
    return Atom(build_action(Print(f"{{cell:{NUM_CELL}}}")))


def _reset_num() -> Program:
    return Atom(build_action(SetCell(NUM_CELL, IntConst(0))))


def _accumulate_digit() -> Program:
    shifted = BinOp("*", CellRef(NUM_CELL), IntConst(10))
    return Atom(build_action(SetCell(NUM_CELL, BinOp("+", shifted, ValueRef("digit")))))


def _negate_num() -> Program:
    return Atom(build_action(SetCell(NUM_CELL, Negate(CellRef(NUM_CELL)))))


def mk_controller(env: Environment, spec: KeypadSpec) -> ReactiveId:
    """Build the controller and return its id. It never terminates."""
    enter_branch = rif(
        env,
        Sig("enter"),
        rexp(env, seq(_print_num(), _reset_num(), Raise(CLEAR_TAG))),
        halt(env),
    )
    clear_branch = rif(
        env,
        Sig("clear"),
        rexp(env, seq(_reset_num(), Raise(CLEAR_TAG))),
        halt(env),
    )
    digit_branch = rif(
        env,
        Sig("digit"),
        rexp(env, seq(_accumulate_digit())),
        halt(env),
    )
    getnum = rexp(
        env,
        seq(
            Activate(repeat(env, spec.digits, digit_branch)),
            Activate(halt(env)),
        ),
    )

    branches = [enter_branch, clear_branch]
    if spec.with_neg:
        branches.append(
            rif(env, Sig("neg"), rexp(env, seq(_negate_num())), halt(env))
        )
    branches.append(getnum)
    merged = merge(env, *branches)

    body = rexp(env, Handle(Activate(merged), CLEAR_TAG, Seq(())))
    return loop(env, body)
