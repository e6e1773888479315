"""Event environment and the small expression language evaluated over it.

A World carries three kinds of state: boolean signals and integer payloads
that exist for a single instant, integer cells that persist across instants,
and the ordered output buffer of the current instant. Unset cells and
payloads read as 0, so evaluation is total.

Conditions, integer expressions and actions are frozen trees, and each is
compiled once, by one walk, into Python closures that take the world:
compile_cond when rif or await_ builds the node that tests it,
compile_int inside those and inside actions, and an action when
build_action makes its HostAction. A print template is split into text and
fields at that point too: the texts become one %-format, each field a
compile_int read of its cell or payload, and a print formats the reads
in one %. Only when that raises, because a field is too long to print, are
the fields read again, to report the first such field as IntegerTooLarge.
Arithmetic returns a result of at most 1,920 bits at once, since it prints
under any limit the host accepts, and asks the limit only above that. A
host with no limit is held to CPython's default one, so a result too long
to print under that default raises everywhere.

Conditions and integer expressions only read the world. Actions mutate
it, and so does one more thing: a basic expression appends the text of a
print with no field to the output directly, with no action (program.py's
TEXT op). Which prints those are is decided here, by print_text, as this
module alone knows the template syntax.
"""
from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Union
from weakref import ref

from .core import Abort, IntegerTooLarge


@dataclass(frozen=True)
class InstantEvents:
    """Events for one instant: plain signals plus value-carrying signals.

    The engine only reads it, so one object may stand for many instants:
    dsl.parse_trace gives equal trace lines the same one. A caller that
    mutates one, say its ``values``, mutates every instant that shares it.
    """

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
            for name in events.signals:
                self.signals[name] = True
            for name, value in events.values.items():
                self.signals[name] = True
                self.instant_values[name] = value

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


_host_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _max_str_digits() -> int:
    """The host's int-to-str digit limit, or CPython's default of 4,300
    when the host has none: it reports 0, or it is a Python before 3.10.7
    without the limit."""
    return _host_max_str_digits() or 4300


# CPython rejects any nonzero int-to-str limit below
# sys.int_info.str_digits_check_threshold (640) digits, and 10**limit has
# more than 3 * limit bits, so a value of at most this many bits prints
# under every limit the host can have. A Python before 3.10.7 has neither
# the attribute nor a limit.
_ALWAYS_PRINTS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 640)


def _printable(value: int, op: str) -> int:
    """Return value, or raise IntegerTooLarge if it has more digits than
    _max_str_digits allows. Arithmetic calls it only for a result longer
    than _ALWAYS_PRINTS bits: a shorter one prints under every limit, so
    skipping the call for it changes no outcome."""
    limit = _max_str_digits()
    # 10**limit has more than 3 * limit bits, so any shorter value fits.
    if value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise IntegerTooLarge(f"result of {op}")
    return value


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARISONS = {"=": operator.eq, "<": operator.lt, "<=": operator.le}


def compile_int(expr: IntExpr) -> tuple[Callable[[World], int], bool]:
    """Compile an integer expression into ``(run, reads_events)``: run(world)
    evaluates it, and reads_events tells whether it reads this instant's
    payloads. An arithmetic result too long to print raises
    IntegerTooLarge, so cells cannot grow without bound."""
    match expr:
        case IntConst(value=v):
            return (lambda world: v), False
        case CellRef(name=name):
            return (lambda world: world.cells.get(name, 0)), False
        case ValueRef(name=name):
            return (lambda world: world.instant_values.get(name, 0)), True
        case BinOp(op=op, left=left, right=right):
            fn = _ARITHMETIC.get(op)
            if fn is None:
                raise ValueError(f"unknown integer operator {op!r}")
            (a, a_reads), (b, b_reads) = compile_int(left), compile_int(right)

            def arithmetic(world: World) -> int:
                value = fn(a(world), b(world))
                return value if value.bit_length() <= _ALWAYS_PRINTS else _printable(value, op)

            return arithmetic, a_reads or b_reads
        case Negate(item=item):
            a, reads = compile_int(item)
            return (lambda world: -a(world)), reads
    raise TypeError(f"not an integer expression: {expr!r}")


def compile_cond(cond: Cond) -> tuple[Callable[[World], bool], bool]:
    """Compile a condition into ``(run, reads_events)``, as compile_int
    does; reads_events is also true when it reads a signal."""
    match cond:
        case Sig(name=name):
            return (lambda world: world.signals.get(name, False)), True
        case BoolConst(value=v):
            return (lambda world: v), False
        case Not(item=item):
            a, reads = compile_cond(item)
            return (lambda world: not a(world)), reads
        case And(left=left, right=right):
            (a, a_reads), (b, b_reads) = compile_cond(left), compile_cond(right)
            return (lambda world: a(world) and b(world)), a_reads or b_reads
        case Or(left=left, right=right):
            (a, a_reads), (b, b_reads) = compile_cond(left), compile_cond(right)
            return (lambda world: a(world) or b(world)), a_reads or b_reads
        case Compare(op=op, left=left, right=right):
            fn = _COMPARISONS.get(op)
            if fn is None:
                raise ValueError(f"unknown comparison {op!r}")
            (a, a_reads), (b, b_reads) = compile_int(left), compile_int(right)
            return (lambda world: fn(a(world), b(world))), a_reads or b_reads
    raise TypeError(f"not a condition: {cond!r}")


def eval_cond(cond: Cond, world: World) -> bool:
    """Compile cond and evaluate it once.

    Nothing in the package calls it; bench/tracer.py wraps it by name.
    """
    return compile_cond(cond)[0](world)


# --------------------------------------------------------------------------
# Actions

_FIELD_RE = re.compile(r"\{(cell|value):([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class Print:
    template: str


@dataclass(frozen=True)
class SetCell:
    name: str
    value: IntExpr


@dataclass(frozen=True)
class Raise:
    tag: str


@dataclass(frozen=True)
class ActionSeq:
    items: tuple["ActionSpec", ...]


ActionSpec = Union[Print, SetCell, Raise, ActionSeq]


def print_text(spec: ActionSpec) -> str | None:
    """The template of a Print that has no {cell:...} or {value:...}
    field, which prints as it stands; None for any other spec."""
    if isinstance(spec, Print) and _FIELD_RE.search(spec.template) is None:
        return spec.template
    return None


@dataclass(frozen=True)
class HostAction:
    """A world-mutating effect; raises Abort(tag) to request preemption.

    reads_events tells the engine whether running the action observes the
    current instant's signals or payloads; loop restarts use it to decide
    whether a replacement body may still run within this instant.
    """

    run: Callable[[World], None]
    reads_events: bool = False


def _raise_unprintable(world: World, fields: tuple) -> None:
    """Raise IntegerTooLarge naming the first (kind, name, read) field
    whose value the host cannot print (sys.get_int_max_str_digits caps
    int-to-str conversion)."""
    for kind, name, read in fields:
        try:
            str(read(world))
        except ValueError:
            raise IntegerTooLarge(f"{kind} {name}") from None


def _compile_print(template: str) -> tuple[Callable[[World], None], bool]:
    # Split once: [text, kind, name, text, ..., text]. The texts become a
    # %-format with one %s per {cell:name} or {value:name} field, and %
    # formats the fields' integer reads as they are. %s of an integer too
    # long to print raises ValueError; only then are the fields read again,
    # to name the first one that cannot be printed.
    parts = _FIELD_RE.split(template)
    if len(parts) == 1:
        return (lambda world: world.output.append(template)), False
    fmt = "%s".join(text.replace("%", "%%") for text in parts[::3])
    fields = tuple(
        (kind, name, compile_int(CellRef(name) if kind == "cell" else ValueRef(name))[0])
        for kind, name in zip(parts[1::3], parts[2::3]))
    if len(fields) == 1:
        # No list: before Python 3.12 a comprehension runs in a frame of
        # its own.
        ((_, _, read),) = fields

        def run(world: World) -> None:
            try:
                world.output.append(fmt % (read(world),))
            except ValueError:
                _raise_unprintable(world, fields)
                raise

    else:

        def run(world: World) -> None:
            try:
                world.output.append(fmt % tuple([read(world) for _, _, read in fields]))
            except ValueError:
                _raise_unprintable(world, fields)
                raise

    return run, "value" in parts[1::3]


def _compile_action(spec: ActionSpec) -> tuple[Callable[[World], None], bool]:
    match spec:
        case Print(template=template):
            return _compile_print(template)
        case SetCell(name=name, value=value):
            run_value, reads = compile_int(value)

            def set_cell(world: World) -> None:
                world.cells[name] = run_value(world)

            return set_cell, reads
        case Raise(tag=tag):

            def raise_tag(world: World) -> None:
                raise Abort(tag)

            return raise_tag, False
        case ActionSeq(items=items):
            compiled = [_compile_action(item) for item in items]
            runs = tuple(run for run, _ in compiled)

            def run_all(world: World) -> None:
                for run in runs:
                    run(world)

            return run_all, any(reads for _, reads in compiled)
    raise TypeError(f"not an action: {spec!r}")


# Specs are frozen and compiled actions keep no state, so identical specs
# share one HostAction for as long as some program holds it. Each spec maps
# to a weak reference to its action, whose callback drops the entry once
# the action is collected, unless a newer reference has taken its place.
_compiled_actions: dict[ActionSpec, ref[HostAction]] = {}


def _forget(spec: ActionSpec, entry: ref[HostAction]) -> None:
    if _compiled_actions.get(spec) is entry:
        del _compiled_actions[spec]


def build_action(spec: ActionSpec) -> HostAction:
    """Compile a declarative action tree into an executable HostAction."""
    try:
        entry = _compiled_actions.get(spec)
    except RecursionError:
        # Hashing a spec recurses about twice as deep as compiling it, so
        # a spec too deep to hash is compiled unshared.
        return HostAction(*_compile_action(spec))
    action = None if entry is None else entry()
    if action is None:
        action = HostAction(*_compile_action(spec))
        _compiled_actions[spec] = ref(action, partial(_forget, spec))
    return action
