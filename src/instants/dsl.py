"""Textual surface language for reactive expressions and event traces.

Programs are parenthesized prefix forms, one expression per file; ``;``
starts a comment running to end of line. String literals are
double-quoted, with the escapes ``\\n``, ``\\t``, ``\\r``, ``\\"`` and
``\\\\``.

The grammar is the table ``_FORMS``. For each kind of form (reactive
expression, program form, action, condition, integer expression) it has
one row per head: the AST class the form builds and the kind of each
argument. ``_build`` parses every form from those rows and ``render``
prints every AST node back from them. Program forms build the engine's
own classes: ``seq``, ``stop``, ``suspend`` and ``raise`` build
program.Seq, Stop, Suspend and Raise, and ``print`` and ``set`` build the
action specs world.Print and SetCell. Only two program forms have classes
here: ActivateStmt holds an expression's AST, not an id, and HandleStmt
takes its arguments in syntax order (tag, body, handler), not Handle's.
Integer literals and ``true`` and ``false`` are the only atoms that are
forms. ``(par E ...)`` is the one form outside the table: it parses to a
right fold of binary merges, and compilation flattens any chain of nested
merges into one n-ary merge node.
Print templates interpolate ``{cell:name}`` and ``{value:name}`` as
decimal integers. The README lists every form.

Trace files hold one instant per line: whitespace-separated ``name`` tokens
(signal present) or ``name=int`` tokens (signal present with an integer
payload). A blank line is an instant with no events; a line that is only a
comment is skipped.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
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
class ActivateStmt:
    expr: ExprAst


@dataclass(frozen=True)
class HandleStmt:
    tag: str
    body: "ProgStmt"
    handler: "ProgStmt"


ProgStmt = Union[Seq, Print, SetCell, Stop, Suspend, ActivateStmt, Raise, HandleStmt]


# --------------------------------------------------------------------------
# Lexing and reading


@dataclass(slots=True)
class _Atom:
    text: str
    line: int
    col: int


@dataclass(slots=True)
class _Str:
    value: str
    line: int
    col: int


@dataclass(slots=True)
class _List:
    items: tuple["_SNode", ...]
    line: int
    col: int


_SNode = Union[_Atom, _Str, _List]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
# Every character but space, tab and CR starts one of these, so the search
# skips exactly that whitespace; newlines are matched to count lines as the
# scan goes. A string runs to its closing quote, a newline or the end of
# input; a backslash takes the next character with it, whatever it is, and
# the escapes are checked after the match.
_TOKEN_RE = re.compile(
    r'(?P<newline>\n)|(?P<open>\()|(?P<close>\))|;[^\n]*'
    r'|(?P<str>"(?P<body>(?:[^"\\\n]|\\[\s\S]?)*)(?P<closed>")?)'
    r'|(?P<atom>[^ \t\r\n();"]+)'
)
_ESCAPE_RE = re.compile(r"\\([\s\S]?)")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Split text into (kind, value, line, col) tokens, comments dropped;
    kind is "open", "close", "str" or "atom"."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind is None:
            continue  # a comment
        col = m.start() - line_start + 1
        value = m.group()
        if kind == "str":
            value = m.group("body")
            for e in _ESCAPE_RE.finditer(value):
                if e.group(1) not in _ESCAPES:
                    message = f"unknown escape \\{e.group(1)}" if e.group(1) else "unterminated escape"
                    raise ParseError(message, line, col + 1 + e.start())
            if m.group("closed") is None:
                raise ParseError("unterminated string", line, col)
            value = _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], value)
        tokens.append((kind, value, line, col))
    return tokens


def _read_single(text: str) -> _SNode:
    """Read exactly one s-expression, keeping open lists on a stack."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    open_lists: list[tuple[list, int, int]] = []
    for index, (kind, value, line, col) in enumerate(tokens):
        if kind == "open":
            open_lists.append(([], line, col))
            continue
        if kind == "close":
            if not open_lists:
                raise ParseError("unexpected ')'", line, col)
            items, line, col = open_lists.pop()
            node = _List(tuple(items), line, col)
        elif kind == "str":
            node = _Str(value, line, col)
        else:
            node = _Atom(value, line, col)
        if open_lists:
            open_lists[-1][0].append(node)
        elif index + 1 < len(tokens):
            extra = tokens[index + 1]
            raise ParseError("trailing content after expression", extra[2], extra[3])
        else:
            return node
    _, line, col = open_lists[-1]
    raise ParseError("unclosed parenthesis", line, col)


# --------------------------------------------------------------------------
# The grammar: one row per form


# For each kind of form: the noun its errors use, and its rows. A row maps a
# form's head to its AST class and the kind of each argument, in field
# order. An argument kind is another form kind; "str", a string literal;
# "count", an integer literal; "name:<what>", a name; "op", the head itself
# (it takes no argument); or a form kind with "*", which takes all the
# arguments as a tuple. Integer literals and true/false are the only atom
# forms, and (par E ...) is the one form outside the table: it takes at
# least one expression and folds right into merges.
_FORMS: dict[str, tuple[str, dict[str, tuple]]] = {
    "expression": ("a reactive expression", {
        "rexp": (RexpExpr, "program"),
        "merge": (MergeExpr, "expression", "expression"),
        "rif": (RifExpr, "condition", "expression", "expression"),
        "close": (CloseExpr, "expression"),
        "loop": (LoopExpr, "expression"),
        "repeat": (RepeatExpr, "count", "expression"),
        "init": (InitExpr, "action", "expression"),
        "await": (AwaitExpr, "condition", "expression"),
        "when": (WhenExpr, "condition", "expression"),
        "terminate": (TerminateExpr, "condition", "expression"),
        "halt": (HaltExpr,),
        "nothing": (NothingExpr,),
    }),
    "program": ("a program form", {
        "seq": (Seq, "program*"),
        "print": (Print, "str"),
        "set": (SetCell, "name:cell", "integer"),
        "stop": (Stop,),
        "suspend": (Suspend,),
        "activate": (ActivateStmt, "expression"),
        "raise": (Raise, "name:tag"),
        "handle": (HandleStmt, "name:tag", "program", "program"),
    }),
    "action": ("an action", {
        "print": (Print, "str"),
        "set": (SetCell, "name:cell", "integer"),
        "raise": (RaiseTag, "name:tag"),
        "do": (ActionSeq, "action*"),
    }),
    "condition": ("a condition", {
        "sig": (Sig, "name:signal"),
        "not": (Not, "condition"),
        "and": (And, "condition", "condition"),
        "or": (Or, "condition", "condition"),
        "=": (Compare, "op", "integer", "integer"),
        "<": (Compare, "op", "integer", "integer"),
        "<=": (Compare, "op", "integer", "integer"),
    }),
    "integer": ("an integer expression", {
        "cell": (CellRef, "name:cell"),
        "value": (ValueRef, "name:value"),
        "+": (BinOp, "op", "integer", "integer"),
        "-": (BinOp, "op", "integer", "integer"),
        "*": (BinOp, "op", "integer", "integer"),
        "neg": (Negate, "integer"),
    }),
}


def _to_int(text: str, line: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        # The host caps str-to-int conversion (sys.get_int_max_str_digits).
        raise ParseError("integer literal has too many digits", line, col) from None


def _build(node: _SNode, kind: str):
    """Build the AST of one form of the given kind from its s-expression."""
    noun, rows = _FORMS[kind]
    if node.__class__ is _Atom and kind in ("condition", "integer"):
        text = node.text
        if kind == "integer" and _INT_RE.match(text):
            return IntConst(_to_int(text, node.line, node.col))
        if kind == "condition" and text in ("true", "false"):
            return BoolConst(text == "true")
        # The noun without its article: "condition", "integer expression".
        raise ParseError(f"expected {noun.partition(' ')[2]}, got {text!r}", node.line, node.col)
    if node.__class__ is not _List:
        raise ParseError(f"expected {noun}", node.line, node.col)
    if not node.items:
        raise ParseError(f"empty form where {noun} expected", node.line, node.col)
    head = node.items[0]
    if head.__class__ is not _Atom:
        raise ParseError("form head must be a symbol", node.line, node.col)
    head = head.text
    args = node.items[1:]
    if head == "par" and kind == "expression":
        if not args:
            raise ArityError("(par ...) takes at least 1 argument(s), got 0", node.line, node.col)
        exprs = [_build(arg, kind) for arg in args]
        folded = exprs.pop()
        while exprs:
            folded = MergeExpr(exprs.pop(), folded)
        return folded
    row = rows.get(head)
    if row is None:
        raise UnknownForm(f"unknown {kind} form {head!r}", node.line, node.col)
    kinds = row[1:]
    if kinds and kinds[-1][-1] == "*":
        return row[0](tuple([_build(arg, kinds[-1][:-1]) for arg in args]))
    values = []
    if kinds and kinds[0] == "op":
        values.append(head)
        kinds = kinds[1:]
    if len(args) != len(kinds):
        raise ArityError(f"({head} ...) takes {len(kinds)} argument(s), got {len(args)}", node.line, node.col)
    for arg, arg_kind in zip(args, kinds):
        if arg_kind in _FORMS:
            values.append(_build(arg, arg_kind))
        elif arg_kind == "str":
            if arg.__class__ is not _Str:
                raise ParseError("expected a string literal", arg.line, arg.col)
            values.append(arg.value)
        elif arg_kind == "count":
            if arg.__class__ is not _Atom or not _INT_RE.match(arg.text):
                raise ParseError("expected an integer literal", arg.line, arg.col)
            values.append(_to_int(arg.text, arg.line, arg.col))
        else:
            if arg.__class__ is not _Atom or not _NAME_RE.match(arg.text):
                raise ParseError(f"expected {arg_kind.removeprefix('name:')} name", arg.line, arg.col)
            values.append(arg.text)
    return row[0](*values)


def parse_program(text: str) -> ExprAst:
    """Parse one reactive expression from source text."""
    return _build(_read_single(text), "expression")


# --------------------------------------------------------------------------
# Rendering (inverse of parse_program, used for golden files and tests)


# Each AST class with the head and argument kinds of its row. The classes
# with an "op" argument have one row per operator and take their head from
# that field.
_ROWS_BY_CLASS = {row[0]: (head, row[1:]) for _, rows in _FORMS.values() for head, row in rows.items()}


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def render(ast: object) -> str:
    """Render any AST node (expression, program form, action, condition or
    integer expression) as source text that parses back to it."""
    if ast.__class__ is IntConst:
        return str(ast.value)
    if ast.__class__ is BoolConst:
        return "true" if ast.value else "false"
    if ast.__class__ not in _ROWS_BY_CLASS:
        raise TypeError(f"not a DSL form: {ast!r}")
    head, kinds = _ROWS_BY_CLASS[ast.__class__]
    parts = [head]
    for field, kind in zip(fields(ast), kinds):
        value = getattr(ast, field.name)
        if kind == "op":
            parts[0] = value
        elif kind == "str":
            parts.append(_escape(value))
        elif kind[-1] == "*":
            parts += map(render, value)
        elif kind in _FORMS:
            parts.append(render(value))
        else:
            parts.append(str(value))
    return f"({' '.join(parts)})"


# --------------------------------------------------------------------------
# Compilation to kernel nodes


def _compile_prog(stmt: ProgStmt, env: Environment) -> Program:
    match stmt:
        case Seq(items=items):
            return Seq(tuple(_compile_prog(item, env) for item in items))
        case Print() | SetCell():
            return Atom(build_action(stmt))
        case Stop() | Suspend() | Raise():
            return stmt
        case ActivateStmt(expr=expr):
            # Inline sub-expressions are compiled before the enclosing
            # program runs.
            return Activate(compile_expr(expr, env))
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
        raw, semicolon, _ = raw.partition(";")
        if semicolon and not raw.strip():
            continue  # comment-only lines do not count as instants
        signals: set[str] = set()
        values: dict[str, int] = {}
        try:
            for index, token in enumerate(raw.split()):
                if "=" in token:
                    name, _, literal = token.partition("=")
                    if not _NAME_RE.match(name):
                        raise ParseError(f"bad signal name {name!r}")
                    if not _INT_RE.match(literal):
                        raise ParseError(f"bad integer value {literal!r} for {name!r}")
                    if name in values:
                        raise DuplicateAssignment(f"signal {name!r} assigned twice in one instant")
                    values[name] = _to_int(literal, 0, 0)
                else:
                    if not _NAME_RE.match(token):
                        raise ParseError(f"bad signal name {token!r}")
                    signals.add(token)
        except ParseError as error:
            # The errors above carry no position: the failing token's
            # column is worked out here, so valid lines never pay for it.
            col = [m.start() for m in re.finditer(r"\S+", raw)][index] + 1
            raise type(error)(str(error), lineno, col) from None
        instants.append(InstantEvents(frozenset(signals), values))
    return instants
