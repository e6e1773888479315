"""Small drivers shared by the test modules."""
from __future__ import annotations

import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import FunctionType

import pytest

from instants import END, Environment, parse_program
from instants.dsl import ExprAst, compile_expr
from instants.world import InstantEvents

KEYPAD_RX = Path(__file__).resolve().parent.parent / "demos" / "keypad.rx"


def print_limit() -> int:
    """The host's int-to-str digit limit; 0 means none, as on a Python
    before 3.10.7, which has no such limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def digit_bound() -> int:
    """The most digits the engine lets an integer literal or arithmetic
    result have: the host's limit, or CPython's default of 4,300 digits
    on a host without one."""
    return print_limit() or 4300


# Tests of what the host's limit itself does, such as a print of a cell
# too long for it, skip on a host without the limit.
needs_print_limit = pytest.mark.skipif(
    print_limit() == 0, reason="the host prints integers of any length"
)

# Tests that set the host's limit need a Python of 3.10.7 or later.
can_set_print_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the host has no int-to-str limit to set"
)


def structure(value):
    """value with each closure in it replaced by its code and the structure
    of its cells' contents, and each dataclass instance by its type and the
    structure of its compared fields. Two compiles of equal specs give
    distinct closures, which compare unequal; their structures compare
    equal, and those of different specs do not."""
    if isinstance(value, FunctionType):
        return FunctionType, value.__code__, tuple(structure(cell.cell_contents) for cell in value.__closure__ or ())
    if is_dataclass(value) and not isinstance(value, type):
        return type(value), tuple(structure(getattr(value, f.name)) for f in fields(value) if f.compare)
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(structure, value))
    if isinstance(value, dict):
        return {key: structure(item) for key, item in value.items()}
    return value


def react_once(env: Environment, root, events: InstantEvents | None = None):
    """Run one instant and return (outputs, terminated)."""
    env.world.apply_instant(events)
    done = env.react(root)
    return env.world.drain_output(), done


def run_instants(env: Environment, root, events_list, pad_empty: int = 0):
    """Run one instant per entry (plus optional empty instants); collect
    (outputs, status name, terminated) rows."""
    events = list(events_list) + [None] * pad_empty
    trace = env.react_t(root, max(1, len(events)), events)
    assert trace.error is None, trace.error
    return [(record.outputs, record.status.name, record.status is END) for record in trace.instants]


def keypad_ast(digits: int = 3, with_neg: bool = False) -> ExprAst:
    """The AST of demos/keypad.rx with a buffer of the given number of
    digits and, if asked, a neg button branch that negates the number, in
    front of the digit branch."""
    source = KEYPAD_RX.read_text(encoding="utf-8")
    digit_branch = "(rexp (seq (activate (repeat 3"
    for anchor in ("(repeat 3", digit_branch):
        assert source.count(anchor) == 1, anchor
    if with_neg:
        neg_branch = "(rif (sig neg) (rexp (seq (set num (neg (cell num))))) (halt))"
        source = source.replace(digit_branch, f"{neg_branch}\n{digit_branch}")
    source = source.replace("(repeat 3", f"(repeat {digits}")
    return parse_program(source)


def keypad(env: Environment, digits: int = 3, with_neg: bool = False):
    """Compile the keypad of keypad_ast into env and return its id."""
    return compile_expr(keypad_ast(digits, with_neg), env)
