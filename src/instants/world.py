"""Event environment and the small expression language evaluated over it.

A World carries three kinds of state: the set of present signals and the
integer payloads, which exist for a single instant, integer cells that
persist across instants, and the ordered output buffer of the current
instant. Unset cells and payloads read as 0, so evaluation is total.

Conditions, integer expressions and actions are frozen trees, and each is
compiled once, by one walk, into Python closures that take the world:
compile_cond when rif or await_ builds the node that tests it, an action
when build_action makes its HostAction, and the integer expressions inside
those. Nothing is kept between calls: each call compiles its tree afresh,
so equal specs give distinct, equally behaving HostActions. _operand
compiles an integer operand to a closure only when it is arithmetic or a
negation: a literal, cell or payload is read by the closure that consumes
it, with no call, so a set of arithmetic over such leaves, or a templated
print, runs in one Python frame. A print template is split into text and
fields when its action is built: the texts become one %-format and each
field a cell or payload, and a print formats the fields' values in one %,
which for a template with no field formats none. Only when that raises,
because a field is too long to print, are the fields read again, to report
the first such field as IntegerTooLarge. Arithmetic returns a result of at
most 1,920 bits at once, since it prints under any limit the host accepts,
and asks the limit only above that. A host with no limit is held to
CPython's default one, so a result too long to print under that default
raises everywhere.

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
from typing import Callable, Mapping, Union

from .core import Abort, IntegerTooLarge


@dataclass(frozen=True)
class InstantEvents:
    """Events for one instant: plain signals plus value-carrying signals.

    The engine only reads it, so one object may stand for many instants:
    dsl.parse_trace gives equal trace lines the same one. A caller that
    mutates one, say its ``values``, mutates every instant that shares it.
    Each payload is checked when the object is made: one that is not an
    int raises TypeError, and one with more digits than an integer literal
    may have raises ValueError, each naming its signal.
    """

    signals: frozenset[str] = frozenset()
    values: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.values.items():
            if value.__class__ is not int:
                raise TypeError(f"payload of signal {name!r} is not an int: {value!r}")
            # As arithmetic checks its results (_printable), and only past
            # _ALWAYS_PRINTS bits.
            if value.bit_length() > _ALWAYS_PRINTS and abs(value) >= 10 ** _max_str_digits():
                raise ValueError(f"payload of signal {name!r} has more than {_max_str_digits()} digits")


@dataclass
class World:
    """The event world of one environment: signals holds the names present
    this instant, instant_values their payloads, cells the integers that
    persist, and output the buffer of the current instant, which
    drain_output hands over."""

    signals: set[str] = field(default_factory=set)
    cells: dict[str, int] = field(default_factory=dict)
    instant_values: dict[str, int] = field(default_factory=dict)
    output: list[str] = field(default_factory=list)

    def apply_instant(self, events: InstantEvents | None = None) -> None:
        """Start a new instant: clear ephemeral state, then install events.

        Must be called exactly once before each react. A signal named in
        ``events.values`` is present as well as carrying its payload.
        """
        self.signals.clear()
        self.instant_values.clear()
        self.output.clear()
        if events is not None:
            self.signals.update(events.signals, events.values)
            self.instant_values.update(events.values)

    def drain_output(self) -> list[str]:
        """Hand over the buffer of everything emitted this instant, in
        emission order, and start an empty one: the list returned is the
        buffer itself, not a copy, and the world no longer touches it."""
        drained, self.output = self.output, []
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


# A closure reads each leaf operand it consumes inline, with no call:
# _operand sorts an integer expression into one of these kinds, and a
# consumer reads an operand (kind, arg) as
#     world.cells.get(arg, 0) if kind is _CELL
#     else world.instant_values.get(arg, 0) if kind is _VALUE
#     else arg if kind is _CONST else arg(world)
# so only an operand that is itself arithmetic or a negation costs a call.
# Cells and payloads are tested first: theirs are the most frequent reads.
_CELL, _VALUE, _CONST, _CALL = range(4)


def _arithmetic(op: str) -> Callable[[int, int], int]:
    """The function of an integer operator, checked when compiled."""
    fn = _ARITHMETIC.get(op)
    if fn is None:
        raise ValueError(f"unknown integer operator {op!r}")
    return fn


def _binary(fn: Callable[[int, int], int], op: str, left: IntExpr,
            right: IntExpr) -> tuple[Callable[[World], int], bool]:
    """Compile fn over two integer operands into ``(run, reads_events)``.
    A result longer than _ALWAYS_PRINTS bits is checked by _printable; a
    comparison's result is a bool, of at most one bit, so it never is."""
    (ka, a, a_reads), (kb, b, b_reads) = _operand(left), _operand(right)

    def binary(world: World) -> int:
        value = fn(
            world.cells.get(a, 0) if ka is _CELL else world.instant_values.get(a, 0) if ka is _VALUE
            else a if ka is _CONST else a(world),
            world.cells.get(b, 0) if kb is _CELL else world.instant_values.get(b, 0) if kb is _VALUE
            else b if kb is _CONST else b(world))
        return value if value.bit_length() <= _ALWAYS_PRINTS else _printable(value, op)

    return binary, a_reads or b_reads


def _operand(expr: IntExpr) -> tuple[int, object, bool]:
    """Classify an integer expression as (kind, arg, reads_events): a cell
    or a payload with its name, a literal with its value, or arithmetic or
    a negation with its compiled closure."""
    match expr:
        case CellRef(name=name):
            return _CELL, name, False
        case ValueRef(name=name):
            return _VALUE, name, True
        case IntConst(value=v):
            return _CONST, v, False
        case BinOp(op=op, left=left, right=right):
            return (_CALL, *_binary(_arithmetic(op), op, left, right))
        case Negate(item=item):
            ka, a, reads = _operand(item)

            def negate(world: World) -> int:
                return -(world.cells.get(a, 0) if ka is _CELL else world.instant_values.get(a, 0) if ka is _VALUE
                         else a if ka is _CONST else a(world))

            return _CALL, negate, reads
    raise TypeError(f"not an integer expression: {expr!r}")


def compile_int(expr: IntExpr) -> tuple[Callable[[World], int], bool]:
    """Compile an integer expression into ``(run, reads_events)``: run(world)
    evaluates it, and reads_events tells whether it reads this instant's
    payloads. An arithmetic result too long to print raises
    IntegerTooLarge, so cells cannot grow without bound. A literal, cell
    or payload alone compiles to a closure of its own; as an operand of
    arithmetic, a negation, a comparison, a set or a print field, it is
    read inline by the closure that consumes it (_operand)."""
    kind, arg, reads = _operand(expr)
    if kind is _CALL:
        return arg, reads
    return (lambda world: world.cells.get(arg, 0) if kind is _CELL
            else world.instant_values.get(arg, 0) if kind is _VALUE else arg), reads


def compile_cond(cond: Cond) -> tuple[Callable[[World], bool], bool]:
    """Compile a condition into ``(run, reads_events)``, as compile_int
    does; reads_events is also true when it reads a signal."""
    match cond:
        case Sig(name=name):
            return (lambda world: name in world.signals), True
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
            return _binary(fn, op, left, right)
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
    """Raise IntegerTooLarge naming the first (kind, name) field whose
    value the host cannot print (sys.get_int_max_str_digits caps
    int-to-str conversion)."""
    for kind, name in fields:
        try:
            str(world.cells.get(name, 0) if kind is _CELL else world.instant_values.get(name, 0))
        except ValueError:
            raise IntegerTooLarge(f"{'cell' if kind is _CELL else 'value'} {name}") from None


def _compile_print(template: str) -> tuple[Callable[[World], None], bool]:
    # Split once: [text, kind, name, text, ..., text]. The texts become a
    # %-format with one %s per {cell:name} or {value:name} field, and %
    # formats the fields' values as they are, read inline: a field is a
    # cell or a payload. %s of an integer too long to print raises
    # ValueError; only then are the fields read again, to name the first
    # one that cannot be printed.
    parts = _FIELD_RE.split(template)
    fmt = "%s".join(text.replace("%", "%%") for text in parts[::3])
    fields = tuple(
        _operand(CellRef(name) if kind == "cell" else ValueRef(name))[:2]
        for kind, name in zip(parts[1::3], parts[2::3]))
    if len(fields) == 1:
        ((ka, a),) = fields

        def run(world: World) -> None:
            try:
                world.output.append(
                    fmt % (world.cells.get(a, 0) if ka is _CELL else world.instant_values.get(a, 0),))
            except ValueError:
                _raise_unprintable(world, fields)
                raise

    else:

        def run(world: World) -> None:
            # A loop, not a comprehension: before Python 3.12 a
            # comprehension runs in a frame of its own.
            values = []
            for kind, name in fields:
                values.append(world.cells.get(name, 0) if kind is _CELL else world.instant_values.get(name, 0))
            try:
                world.output.append(fmt % tuple(values))
            except ValueError:
                _raise_unprintable(world, fields)
                raise

    return run, "value" in parts[1::3]


def _compile_action(spec: ActionSpec) -> tuple[Callable[[World], None], bool]:
    match spec:
        case Print(template=template):
            return _compile_print(template)
        case SetCell(name=name, value=BinOp(op=op, left=left, right=right)):
            # The arithmetic runs in this frame, and a result too long to
            # print raises before the cell is written.
            fn = _arithmetic(op)
            (ka, a, a_reads), (kb, b, b_reads) = _operand(left), _operand(right)

            def set_arithmetic(world: World) -> None:
                result = fn(
                    world.cells.get(a, 0) if ka is _CELL else world.instant_values.get(a, 0) if ka is _VALUE
                    else a if ka is _CONST else a(world),
                    world.cells.get(b, 0) if kb is _CELL else world.instant_values.get(b, 0) if kb is _VALUE
                    else b if kb is _CONST else b(world))
                world.cells[name] = result if result.bit_length() <= _ALWAYS_PRINTS else _printable(result, op)

            return set_arithmetic, a_reads or b_reads
        case SetCell(name=name, value=value):
            ka, a, reads = _operand(value)

            def set_cell(world: World) -> None:
                world.cells[name] = (world.cells.get(a, 0) if ka is _CELL else world.instant_values.get(a, 0)
                                     if ka is _VALUE else a if ka is _CONST else a(world))

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


def build_action(spec: ActionSpec) -> HostAction:
    """Compile a declarative action tree into an executable HostAction."""
    return HostAction(*_compile_action(spec))
