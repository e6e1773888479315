"""Textual surface language for reactive expressions and event traces.

Programs are parenthesized prefix forms, one expression per file; ``;``
starts a comment running to end of line.

Expression forms::

    (rexp PROG)  (merge E E)  (par E E ...)  (rif COND E E)  (close E)
    (loop E)  (repeat N E)  (init ACTION E)  (await COND E)  (when COND E)
    (terminate COND E)  (halt)  (nothing)

Program forms::

    (seq PROG ...)  (print "text")  (set NAME INT)  (stop)  (suspend)
    (activate E)  (raise TAG)  (handle TAG PROG PROG)

Conditions: ``true``, ``false``, ``(sig NAME)``, ``(not C)``, ``(and C C)``,
``(or C C)``, ``(= I I)``, ``(< I I)``, ``(<= I I)``. Integer expressions:
literals, ``(cell NAME)``, ``(value NAME)``, ``(+ I I)``, ``(- I I)``,
``(* I I)``, ``(neg I)``. Actions (for ``init``): ``(print ...)``,
``(set ...)``, ``(raise TAG)``, ``(do ACTION ...)``.

``(par ...)`` parses to a right fold of binary merges, and compilation
flattens any chain of nested merges into one n-ary merge node. Print
templates interpolate ``{cell:name}`` and ``{value:name}`` as decimal
integers.

Trace files hold one instant per line: whitespace-separated ``name`` tokens
(signal present) or ``name=int`` tokens (signal present with an integer
payload). A blank line is an instant with no events; a line that is only a
comment is skipped.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from . import combinators
from .core import ReactiveId
from .kernel import Environment
from .program import (
    Activate,
    Atom,
    Handle,
    Program,
    Raise,
    Seq,
    Stop,
    Suspend,
)
from .world import (
    ActionSeq,
    ActionSpec,
    And,
    BinOp,
    BoolConst,
    CellRef,
    Compare,
    Cond,
    InstantEvents,
    IntConst,
    IntExpr,
    Negate,
    Not,
    Or,
    Print,
    RaiseTag,
    SetCell,
    Sig,
    ValueRef,
    build_action,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        location = f" at line {line}, column {col}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.col = col


class UnknownForm(ParseError):
    pass


class ArityError(ParseError):
    pass


class DuplicateAssignment(ParseError):
    pass


class CompileError(Exception):
    pass


class NegativeRepeatCount(CompileError):
    pass


# --------------------------------------------------------------------------
# Expression and program ASTs


@dataclass(frozen=True)
class RexpExpr:
    program: "ProgStmt"


@dataclass(frozen=True)
class MergeExpr:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class RifExpr:
    cond: Cond
    then_expr: "ExprAst"
    else_expr: "ExprAst"


@dataclass(frozen=True)
class CloseExpr:
    child: "ExprAst"


@dataclass(frozen=True)
class LoopExpr:
    body: "ExprAst"


@dataclass(frozen=True)
class RepeatExpr:
    count: int
    body: "ExprAst"


@dataclass(frozen=True)
class InitExpr:
    action: ActionSpec
    body: "ExprAst"


@dataclass(frozen=True)
class AwaitExpr:
    cond: Cond
    body: "ExprAst"


@dataclass(frozen=True)
class WhenExpr:
    cond: Cond
    body: "ExprAst"


@dataclass(frozen=True)
class TerminateExpr:
    cond: Cond
    body: "ExprAst"


@dataclass(frozen=True)
class HaltExpr:
    pass


@dataclass(frozen=True)
class NothingExpr:
    pass


ExprAst = Union[
    RexpExpr,
    MergeExpr,
    RifExpr,
    CloseExpr,
    LoopExpr,
    RepeatExpr,
    InitExpr,
    AwaitExpr,
    WhenExpr,
    TerminateExpr,
    HaltExpr,
    NothingExpr,
]


@dataclass(frozen=True)
class SeqStmt:
    items: tuple["ProgStmt", ...]


@dataclass(frozen=True)
class PrintStmt:
    template: str


@dataclass(frozen=True)
class SetStmt:
    name: str
    value: IntExpr


@dataclass(frozen=True)
class StopStmt:
    pass


@dataclass(frozen=True)
class SuspendStmt:
    pass


@dataclass(frozen=True)
class ActivateStmt:
    expr: ExprAst


@dataclass(frozen=True)
class RaiseStmt:
    tag: str


@dataclass(frozen=True)
class HandleStmt:
    tag: str
    body: "ProgStmt"
    handler: "ProgStmt"


ProgStmt = Union[SeqStmt, PrintStmt, SetStmt, StopStmt, SuspendStmt, ActivateStmt, RaiseStmt, HandleStmt]


# --------------------------------------------------------------------------
# Lexing and reading


@dataclass(frozen=True)
class _Atom:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class _Str:
    value: str
    line: int
    col: int


@dataclass(frozen=True)
class _List:
    items: tuple["_SNode", ...]
    line: int
    col: int


_SNode = Union[_Atom, _Str, _List]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
        elif ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            parts = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError("unterminated escape", line, col)
                    esc = text[i + 1]
                    if esc not in _ESCAPES:
                        raise ParseError(f"unknown escape \\{esc}", line, col)
                    parts.append(_ESCAPES[esc])
                    i += 2
                    col += 2
                else:
                    parts.append(c)
                    i += 1
                    col += 1
            tokens.append(("str", "".join(parts), start_line, start_col))
        else:
            start_line, start_col = line, col
            j = i
            while j < n and text[j] not in ' \t\r\n();"':
                j += 1
            tokens.append(("atom", text[i:j], start_line, start_col))
            col += j - i
            i = j
    return tokens


def _read(tokens: list[tuple[str, str, int, int]], pos: int) -> tuple[_SNode, int]:
    if pos >= len(tokens):
        raise ParseError("unexpected end of input (unbalanced parentheses?)")
    kind, value, line, col = tokens[pos]
    if kind == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unclosed parenthesis", line, col)
            if tokens[pos][0] == ")":
                return _List(tuple(items), line, col), pos + 1
            node, pos = _read(tokens, pos)
            items.append(node)
    if kind == ")":
        raise ParseError("unexpected ')'", line, col)
    if kind == "str":
        return _Str(value, line, col), pos + 1
    return _Atom(value, line, col), pos + 1


def _read_single(text: str) -> _SNode:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise ParseError("trailing content after expression", extra[2], extra[3])
    return node


# --------------------------------------------------------------------------
# Form builders


def _expect_list(node: _SNode, what: str) -> _List:
    if not isinstance(node, _List):
        raise ParseError(f"expected {what}", node.line, node.col)
    if not node.items:
        raise ParseError(f"empty form where {what} expected", node.line, node.col)
    return node


def _head(node: _List) -> str:
    head = node.items[0]
    if not isinstance(head, _Atom):
        raise ParseError("form head must be a symbol", node.line, node.col)
    return head.text


def _args(node: _List, name: str, count: int | None, at_least: int | None = None) -> tuple[_SNode, ...]:
    args = node.items[1:]
    if count is not None and len(args) != count:
        raise ArityError(f"({name} ...) takes {count} argument(s), got {len(args)}", node.line, node.col)
    if at_least is not None and len(args) < at_least:
        raise ArityError(f"({name} ...) takes at least {at_least} argument(s), got {len(args)}", node.line, node.col)
    return args


def _name(node: _SNode, what: str) -> str:
    if not isinstance(node, _Atom) or not _NAME_RE.match(node.text):
        line = node.line
        col = node.col
        raise ParseError(f"expected {what} name", line, col)
    return node.text


def _to_int(text: str, line: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        # The host caps str-to-int conversion (sys.get_int_max_str_digits).
        raise ParseError("integer literal has too many digits", line, col) from None


def _int_literal(node: _SNode) -> int:
    if not isinstance(node, _Atom) or not _INT_RE.match(node.text):
        raise ParseError("expected an integer literal", node.line, node.col)
    return _to_int(node.text, node.line, node.col)


def _string(node: _SNode) -> str:
    if not isinstance(node, _Str):
        raise ParseError("expected a string literal", node.line, node.col)
    return node.value


def _build_int(node: _SNode) -> IntExpr:
    if isinstance(node, _Atom):
        if _INT_RE.match(node.text):
            return IntConst(_to_int(node.text, node.line, node.col))
        raise ParseError(f"expected integer expression, got {node.text!r}", node.line, node.col)
    lst = _expect_list(node, "an integer expression")
    head = _head(lst)
    if head == "cell":
        (arg,) = _args(lst, head, 1)
        return CellRef(_name(arg, "cell"))
    if head == "value":
        (arg,) = _args(lst, head, 1)
        return ValueRef(_name(arg, "value"))
    if head in ("+", "-", "*"):
        a, b = _args(lst, head, 2)
        return BinOp(head, _build_int(a), _build_int(b))
    if head == "neg":
        (arg,) = _args(lst, head, 1)
        return Negate(_build_int(arg))
    raise UnknownForm(f"unknown integer form {head!r}", lst.line, lst.col)


def _build_cond(node: _SNode) -> Cond:
    if isinstance(node, _Atom):
        if node.text == "true":
            return BoolConst(True)
        if node.text == "false":
            return BoolConst(False)
        raise ParseError(f"expected condition, got {node.text!r}", node.line, node.col)
    lst = _expect_list(node, "a condition")
    head = _head(lst)
    if head == "sig":
        (arg,) = _args(lst, head, 1)
        return Sig(_name(arg, "signal"))
    if head == "not":
        (arg,) = _args(lst, head, 1)
        return Not(_build_cond(arg))
    if head == "and":
        a, b = _args(lst, head, 2)
        return And(_build_cond(a), _build_cond(b))
    if head == "or":
        a, b = _args(lst, head, 2)
        return Or(_build_cond(a), _build_cond(b))
    if head in ("=", "<", "<="):
        a, b = _args(lst, head, 2)
        return Compare(head, _build_int(a), _build_int(b))
    raise UnknownForm(f"unknown condition form {head!r}", lst.line, lst.col)


def _build_action(node: _SNode) -> ActionSpec:
    lst = _expect_list(node, "an action")
    head = _head(lst)
    if head == "print":
        (arg,) = _args(lst, head, 1)
        return Print(_string(arg))
    if head == "set":
        name, value = _args(lst, head, 2)
        return SetCell(_name(name, "cell"), _build_int(value))
    if head == "raise":
        (arg,) = _args(lst, head, 1)
        return RaiseTag(_name(arg, "tag"))
    if head == "do":
        items = _args(lst, head, None, at_least=0)
        return ActionSeq(tuple(_build_action(item) for item in items))
    raise UnknownForm(f"unknown action form {head!r}", lst.line, lst.col)


def _build_prog(node: _SNode) -> ProgStmt:
    lst = _expect_list(node, "a program form")
    head = _head(lst)
    if head == "seq":
        items = _args(lst, head, None, at_least=0)
        return SeqStmt(tuple(_build_prog(item) for item in items))
    if head == "print":
        (arg,) = _args(lst, head, 1)
        return PrintStmt(_string(arg))
    if head == "set":
        name, value = _args(lst, head, 2)
        return SetStmt(_name(name, "cell"), _build_int(value))
    if head == "stop":
        _args(lst, head, 0)
        return StopStmt()
    if head == "suspend":
        _args(lst, head, 0)
        return SuspendStmt()
    if head == "activate":
        (arg,) = _args(lst, head, 1)
        return ActivateStmt(_build_expr(arg))
    if head == "raise":
        (arg,) = _args(lst, head, 1)
        return RaiseStmt(_name(arg, "tag"))
    if head == "handle":
        tag, body, handler = _args(lst, head, 3)
        return HandleStmt(_name(tag, "tag"), _build_prog(body), _build_prog(handler))
    raise UnknownForm(f"unknown program form {head!r}", lst.line, lst.col)


def _build_expr(node: _SNode) -> ExprAst:
    lst = _expect_list(node, "a reactive expression")
    head = _head(lst)
    if head == "rexp":
        (arg,) = _args(lst, head, 1)
        return RexpExpr(_build_prog(arg))
    if head == "merge":
        a, b = _args(lst, head, 2)
        return MergeExpr(_build_expr(a), _build_expr(b))
    if head == "par":
        items = _args(lst, head, None, at_least=1)
        exprs = [_build_expr(item) for item in items]
        folded = exprs[-1]
        for expr in reversed(exprs[:-1]):
            folded = MergeExpr(expr, folded)
        return folded
    if head == "rif":
        cond, a, b = _args(lst, head, 3)
        return RifExpr(_build_cond(cond), _build_expr(a), _build_expr(b))
    if head == "close":
        (arg,) = _args(lst, head, 1)
        return CloseExpr(_build_expr(arg))
    if head == "loop":
        (arg,) = _args(lst, head, 1)
        return LoopExpr(_build_expr(arg))
    if head == "repeat":
        count, body = _args(lst, head, 2)
        return RepeatExpr(_int_literal(count), _build_expr(body))
    if head == "init":
        action, body = _args(lst, head, 2)
        return InitExpr(_build_action(action), _build_expr(body))
    if head == "await":
        cond, body = _args(lst, head, 2)
        return AwaitExpr(_build_cond(cond), _build_expr(body))
    if head == "when":
        cond, body = _args(lst, head, 2)
        return WhenExpr(_build_cond(cond), _build_expr(body))
    if head == "terminate":
        cond, body = _args(lst, head, 2)
        return TerminateExpr(_build_cond(cond), _build_expr(body))
    if head == "halt":
        _args(lst, head, 0)
        return HaltExpr()
    if head == "nothing":
        _args(lst, head, 0)
        return NothingExpr()
    raise UnknownForm(f"unknown expression form {head!r}", lst.line, lst.col)


def parse_program(text: str) -> ExprAst:
    """Parse one reactive expression from source text."""
    return _build_expr(_read_single(text))


# --------------------------------------------------------------------------
# Rendering (inverse of parse_program, used for golden files and tests)


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def render_int(expr: IntExpr) -> str:
    match expr:
        case IntConst(value=v):
            return str(v)
        case CellRef(name=name):
            return f"(cell {name})"
        case ValueRef(name=name):
            return f"(value {name})"
        case BinOp(op=op, left=left, right=right):
            return f"({op} {render_int(left)} {render_int(right)})"
        case Negate(item=item):
            return f"(neg {render_int(item)})"
    raise TypeError(f"not an integer expression: {expr!r}")


def render_cond(cond: Cond) -> str:
    match cond:
        case Sig(name=name):
            return f"(sig {name})"
        case BoolConst(value=v):
            return "true" if v else "false"
        case Not(item=item):
            return f"(not {render_cond(item)})"
        case And(left=left, right=right):
            return f"(and {render_cond(left)} {render_cond(right)})"
        case Or(left=left, right=right):
            return f"(or {render_cond(left)} {render_cond(right)})"
        case Compare(op=op, left=left, right=right):
            return f"({op} {render_int(left)} {render_int(right)})"
    raise TypeError(f"not a condition: {cond!r}")


def render_action(spec: ActionSpec) -> str:
    match spec:
        case Print(template=template):
            return f"(print {_escape(template)})"
        case SetCell(name=name, value=value):
            return f"(set {name} {render_int(value)})"
        case RaiseTag(tag=tag):
            return f"(raise {tag})"
        case ActionSeq(items=items):
            inner = " ".join(render_action(item) for item in items)
            return f"(do {inner})" if inner else "(do)"
    raise TypeError(f"not an action: {spec!r}")


def render_prog(stmt: ProgStmt) -> str:
    match stmt:
        case SeqStmt(items=items):
            inner = " ".join(render_prog(item) for item in items)
            return f"(seq {inner})" if inner else "(seq)"
        case PrintStmt(template=template):
            return f"(print {_escape(template)})"
        case SetStmt(name=name, value=value):
            return f"(set {name} {render_int(value)})"
        case StopStmt():
            return "(stop)"
        case SuspendStmt():
            return "(suspend)"
        case ActivateStmt(expr=expr):
            return f"(activate {render(expr)})"
        case RaiseStmt(tag=tag):
            return f"(raise {tag})"
        case HandleStmt(tag=tag, body=body, handler=handler):
            return f"(handle {tag} {render_prog(body)} {render_prog(handler)})"
    raise TypeError(f"not a program form: {stmt!r}")


def render(ast: ExprAst) -> str:
    match ast:
        case RexpExpr(program=program):
            return f"(rexp {render_prog(program)})"
        case MergeExpr(left=left, right=right):
            return f"(merge {render(left)} {render(right)})"
        case RifExpr(cond=cond, then_expr=a, else_expr=b):
            return f"(rif {render_cond(cond)} {render(a)} {render(b)})"
        case CloseExpr(child=child):
            return f"(close {render(child)})"
        case LoopExpr(body=body):
            return f"(loop {render(body)})"
        case RepeatExpr(count=count, body=body):
            return f"(repeat {count} {render(body)})"
        case InitExpr(action=action, body=body):
            return f"(init {render_action(action)} {render(body)})"
        case AwaitExpr(cond=cond, body=body):
            return f"(await {render_cond(cond)} {render(body)})"
        case WhenExpr(cond=cond, body=body):
            return f"(when {render_cond(cond)} {render(body)})"
        case TerminateExpr(cond=cond, body=body):
            return f"(terminate {render_cond(cond)} {render(body)})"
        case HaltExpr():
            return "(halt)"
        case NothingExpr():
            return "(nothing)"
    raise TypeError(f"not an expression: {ast!r}")


# --------------------------------------------------------------------------
# Compilation to kernel nodes


def _compile_prog(stmt: ProgStmt, env: Environment) -> Program:
    match stmt:
        case SeqStmt(items=items):
            return Seq(tuple(_compile_prog(item, env) for item in items))
        case PrintStmt(template=template):
            return Atom(build_action(Print(template)))
        case SetStmt(name=name, value=value):
            return Atom(build_action(SetCell(name, value)))
        case StopStmt():
            return Stop()
        case SuspendStmt():
            return Suspend()
        case ActivateStmt(expr=expr):
            # Inline sub-expressions are compiled before the enclosing
            # program runs.
            return Activate(compile_expr(expr, env))
        case RaiseStmt(tag=tag):
            return Raise(tag)
        case HandleStmt(tag=tag, body=body, handler=handler):
            return Handle(_compile_prog(body, env), tag, _compile_prog(handler, env))
    raise TypeError(f"not a program form: {stmt!r}")


def compile_expr(ast: ExprAst, env: Environment) -> ReactiveId:
    """Allocate kernel nodes for the expression, bottom up."""
    match ast:
        case RexpExpr(program=program):
            return combinators.rexp(env, _compile_prog(program, env))
        case MergeExpr():
            # A chain of nested merges, however folded, becomes one n-ary
            # node over its leaves in left-to-right order.
            leaves = []
            pending = [ast]
            while pending:
                item = pending.pop()
                if isinstance(item, MergeExpr):
                    pending += (item.right, item.left)
                else:
                    leaves.append(compile_expr(item, env))
            return combinators.merge(env, *leaves)
        case RifExpr(cond=cond, then_expr=a, else_expr=b):
            return combinators.rif(env, cond, compile_expr(a, env), compile_expr(b, env))
        case CloseExpr(child=child):
            return combinators.close(env, compile_expr(child, env))
        case LoopExpr(body=body):
            return combinators.loop(env, compile_expr(body, env))
        case RepeatExpr(count=count, body=body):
            if count < 0:
                raise NegativeRepeatCount(f"repeat count must be non-negative, got {count}")
            return combinators.repeat(env, count, compile_expr(body, env))
        case InitExpr(action=action, body=body):
            return combinators.init(env, build_action(action), compile_expr(body, env))
        case AwaitExpr(cond=cond, body=body):
            return combinators.await_(env, cond, compile_expr(body, env))
        case WhenExpr(cond=cond, body=body):
            return combinators.when(env, cond, compile_expr(body, env))
        case TerminateExpr(cond=cond, body=body):
            return combinators.terminate(env, cond, compile_expr(body, env))
        case HaltExpr():
            return combinators.halt(env)
        case NothingExpr():
            return combinators.nothing(env)
    raise TypeError(f"not an expression: {ast!r}")


# --------------------------------------------------------------------------
# Event traces


def parse_trace(text: str) -> list[InstantEvents]:
    """Parse a trace file into one InstantEvents per instant."""
    instants = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith(";"):
            continue  # comment-only lines do not count as instants
        if ";" in raw:
            raw = raw[: raw.index(";")]
        signals: set[str] = set()
        values: dict[str, int] = {}
        for token in raw.split():
            if "=" in token:
                name, _, literal = token.partition("=")
                if not _NAME_RE.match(name):
                    raise ParseError(f"bad signal name {name!r}", lineno, 1)
                if not _INT_RE.match(literal):
                    raise ParseError(f"bad integer value {literal!r} for {name!r}", lineno, 1)
                if name in values:
                    raise DuplicateAssignment(f"signal {name!r} assigned twice in one instant", lineno, 1)
                values[name] = _to_int(literal, lineno, 1)
            else:
                if not _NAME_RE.match(token):
                    raise ParseError(f"bad signal name {token!r}", lineno, 1)
                signals.add(token)
        instants.append(InstantEvents(frozenset(signals), values))
    return instants
