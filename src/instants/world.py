"""Event environment and the small expression language evaluated over it.

A World carries three kinds of state: boolean signals and integer payloads
that exist for a single instant, integer cells that persist across instants,
and the ordered output buffer of the current instant. Conditions and integer
expressions are pure trees; actions are the only way to mutate the world.
Unset cells and payloads read as 0, so evaluation is total.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

from .core import Abort, IntegerTooLarge


@dataclass(frozen=True)
class InstantEvents:
    """Events for one instant: plain signals plus value-carrying signals."""

    signals: frozenset[str] = frozenset()
    values: Mapping[str, int] = field(default_factory=dict)


@dataclass
class World:
    signals: dict[str, bool] = field(default_factory=dict)
    cells: dict[str, int] = field(default_factory=dict)
    instant_values: dict[str, int] = field(default_factory=dict)
    output: list[str] = field(default_factory=list)

    def apply_instant(self, events: InstantEvents | None = None) -> None:
        """Start a new instant: clear ephemeral state, then install events.

        Must be called exactly once before each react. Signals named in
        ``events.values`` are set in addition to receiving their payload.
        """
        self.signals.clear()
        self.instant_values.clear()
        self.output.clear()
        if events is not None:
            for name in sorted(events.signals):
                self.signals[name] = True
            for name, value in events.values.items():
                self.signals[name] = True
                self.instant_values[name] = value

    def emit(self, text: str) -> None:
        self.output.append(text)

    def drain_output(self) -> list[str]:
        """Hand over everything emitted this instant, in emission order."""
        drained = list(self.output)
        self.output.clear()
        return drained


# --------------------------------------------------------------------------
# Conditions


@dataclass(frozen=True)
class Sig:
    name: str


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Not:
    item: "Cond"


@dataclass(frozen=True)
class And:
    left: "Cond"
    right: "Cond"


@dataclass(frozen=True)
class Or:
    left: "Cond"
    right: "Cond"


@dataclass(frozen=True)
class Compare:
    op: str  # one of "=", "<", "<="
    left: "IntExpr"
    right: "IntExpr"


Cond = Union[Sig, BoolConst, Not, And, Or, Compare]


# --------------------------------------------------------------------------
# Integer expressions


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class CellRef:
    name: str


@dataclass(frozen=True)
class ValueRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*"
    left: "IntExpr"
    right: "IntExpr"


@dataclass(frozen=True)
class Negate:
    item: "IntExpr"


IntExpr = Union[IntConst, CellRef, ValueRef, BinOp, Negate]


_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _printable(value: int, op: str) -> int:
    """Return value, or raise IntegerTooLarge if it has more digits than
    the host can print (sys.get_int_max_str_digits; 0, or a Python before
    3.10.7 without that limit, means no limit)."""
    limit = _max_str_digits()
    # 10**limit has more than 3 * limit bits, so any shorter value fits.
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise IntegerTooLarge(f"result of {op}")
    return value


def eval_int(expr: IntExpr, world: World) -> int:
    """Evaluate an integer expression; an arithmetic result too long to
    print raises IntegerTooLarge, so cells cannot grow without bound."""
    match expr:
        case IntConst(value=v):
            return v
        case CellRef(name=name):
            return world.cells.get(name, 0)
        case ValueRef(name=name):
            return world.instant_values.get(name, 0)
        case BinOp(op=op, left=left, right=right):
            a = eval_int(left, world)
            b = eval_int(right, world)
            if op == "+":
                return _printable(a + b, op)
            if op == "-":
                return _printable(a - b, op)
            if op == "*":
                return _printable(a * b, op)
            raise ValueError(f"unknown integer operator {op!r}")
        case Negate(item=item):
            return -eval_int(item, world)
    raise TypeError(f"not an integer expression: {expr!r}")


def eval_cond(cond: Cond, world: World) -> bool:
    match cond:
        case Sig(name=name):
            return world.signals.get(name, False)
        case BoolConst(value=v):
            return v
        case Not(item=item):
            return not eval_cond(item, world)
        case And(left=left, right=right):
            return eval_cond(left, world) and eval_cond(right, world)
        case Or(left=left, right=right):
            return eval_cond(left, world) or eval_cond(right, world)
        case Compare(op=op, left=left, right=right):
            a = eval_int(left, world)
            b = eval_int(right, world)
            if op == "=":
                return a == b
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            raise ValueError(f"unknown comparison {op!r}")
    raise TypeError(f"not a condition: {cond!r}")


def int_reads_events(expr: IntExpr) -> bool:
    """True if evaluating ``expr`` touches this instant's event state."""
    match expr:
        case ValueRef():
            return True
        case BinOp(left=left, right=right):
            return int_reads_events(left) or int_reads_events(right)
        case Negate(item=item):
            return int_reads_events(item)
    return False


def cond_reads_events(cond: Cond) -> bool:
    match cond:
        case Sig():
            return True
        case Not(item=item):
            return cond_reads_events(item)
        case And(left=left, right=right) | Or(left=left, right=right):
            return cond_reads_events(left) or cond_reads_events(right)
        case Compare(left=left, right=right):
            return int_reads_events(left) or int_reads_events(right)
    return False


# --------------------------------------------------------------------------
# Actions

_FIELD_RE = re.compile(r"\{(cell|value):([A-Za-z_][A-Za-z0-9_]*)\}")


def render_template(template: str, world: World) -> str:
    """Interpolate {cell:name} and {value:name} as decimal integers."""

    def replace(m: re.Match[str]) -> str:
        kind, name = m.group(1), m.group(2)
        store = world.cells if kind == "cell" else world.instant_values
        try:
            return str(store.get(name, 0))
        except ValueError:
            # The host caps int-to-str conversion (sys.get_int_max_str_digits).
            raise IntegerTooLarge(f"{kind} {name}") from None

    return _FIELD_RE.sub(replace, template)


def template_reads_events(template: str) -> bool:
    return any(m.group(1) == "value" for m in _FIELD_RE.finditer(template))


@dataclass(frozen=True)
class Print:
    template: str


@dataclass(frozen=True)
class SetCell:
    name: str
    value: IntExpr


@dataclass(frozen=True)
class RaiseTag:
    tag: str


@dataclass(frozen=True)
class ActionSeq:
    items: tuple["ActionSpec", ...]


ActionSpec = Union[Print, SetCell, RaiseTag, ActionSeq]


@dataclass(frozen=True)
class HostAction:
    """A world-mutating effect; raises Abort(tag) to request preemption.

    reads_events tells the engine whether running the action observes the
    current instant's signals or payloads; loop restarts use it to decide
    whether a replacement body may still run within this instant.
    """

    run: Callable[[World], None]
    reads_events: bool = False


def action_reads_events(spec: ActionSpec) -> bool:
    match spec:
        case Print(template=template):
            return template_reads_events(template)
        case SetCell(value=value):
            return int_reads_events(value)
        case ActionSeq(items=items):
            return any(action_reads_events(item) for item in items)
    return False


def _run_spec(spec: ActionSpec, world: World) -> None:
    match spec:
        case Print(template=template):
            world.emit(render_template(template, world))
        case SetCell(name=name, value=value):
            world.cells[name] = eval_int(value, world)
        case RaiseTag(tag=tag):
            raise Abort(tag)
        case ActionSeq(items=items):
            for item in items:
                _run_spec(item, world)
        case _:
            raise TypeError(f"not an action: {spec!r}")


def build_action(spec: ActionSpec) -> HostAction:
    """Compile a declarative action tree into an executable HostAction."""
    return HostAction(
        run=lambda world: _run_spec(spec, world),
        reads_events=action_reads_events(spec),
    )
