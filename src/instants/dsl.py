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
own classes: ``seq``, ``stop``, ``suspend``, ``raise`` and ``handle``
build program.Seq, Stop, Suspend, Raise and Handle (whose row fills its
fields by name, as ``(handle TAG BODY HANDLER)`` gives them in another
order), and ``print`` and ``set`` build the action specs world.Print and
SetCell. Only ``activate`` has a class here: ActivateStmt holds an
expression's AST, not an id.
Integer literals and ``true`` and ``false`` are the only atoms that are
forms. ``(par E ...)`` is the one form outside the table: it parses to a
right fold of binary merges, and compilation flattens any chain of nested
merges into one n-ary merge node.
Print templates interpolate ``{cell:name}`` and ``{value:name}`` as
decimal integers. The README lists every form.

The text is first read with no positions: one regular-expression scan,
then nesting on a stack. Line and column are worked out only when a parse
fails, by scanning the same token pattern again, this time with positions;
the same builder then raises the error with its position.

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


ProgStmt = Union[Seq, Print, SetCell, Stop, Suspend, ActivateStmt, Raise, Handle]


# --------------------------------------------------------------------------
# Reading

# A reader returns a form as a tuple of forms, and an atom or a string
# literal as a str; a string literal keeps its quotes, and no atom starts
# with '"'. parse_program reads with no positions first. Only a parse that
# fails reads the text again with _tokenize, whose tokens, and the forms
# _nest makes of them, are subclasses that carry their line and column.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\([\s\S]?)")
# A paren, a string literal, an atom, or "" for a comment; the search skips
# every other character, which is whitespace. Only a closed string with
# known escapes matches as a string; any other leaves a lone '"' token, a
# fault for parse_program and the first lexical error for _tokenize.
_TOKEN_RE = re.compile(r';[^\n]*|([()]|"(?:[^"\\\n]|\\[ntr"\\])*"|"|[^ \t\r\n();"]+)')
# The body of a bad string, from its opening quote: it runs to a quote, a
# newline or the end of input, and a backslash takes the next character
# with it, whatever it is.
_BAD_STRING_RE = re.compile(r'"((?:[^"\\\n]|\\[\s\S]?)*)')


class _Text(str):
    """A token with its line and column."""


class _Form(tuple):
    """A form with the line and column of its open paren."""


def _at(node) -> tuple[int, int]:
    return getattr(node, "line", 0), getattr(node, "col", 0)


def _tokenize(text: str) -> list[_Text]:
    """Split text into tokens with positions, comments dropped; raise the
    first lexical error with its position. A token holds no newline, so
    the lines between two tokens are counted in the gap between them."""
    tokens = []
    line, line_start, last = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        token = m.group(1)
        if not token:
            continue  # a comment
        start = m.start()
        newlines = text.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, start) + 1
        last = start
        col = start - line_start + 1
        if token == '"':
            bad = _BAD_STRING_RE.match(text, start)
            for e in _ESCAPE_RE.finditer(bad.group(1)):
                if e.group(1) not in _ESCAPES:
                    message = f"unknown escape \\{e.group(1)}" if e.group(1) else "unterminated escape"
                    raise ParseError(message, line, col + 1 + e.start())
            raise ParseError("unterminated string", line, col)
        token = _Text(token)
        token.line, token.col = line, col
        tokens.append(token)
    return tokens


def _nest(tokens: list[str]):
    """Nest tokens into exactly one s-expression, keeping open lists on a
    stack; "" tokens (comments) are skipped. A fault raises a ParseError
    with the position of the token at fault, if tokens carry one."""
    open_lists: list[tuple[list, str]] = []
    items: list = []
    for token in tokens:
        if token == ")":
            if not open_lists:
                raise ParseError("trailing content after expression" if items else "unexpected ')'", *_at(token))
            form = tuple(items)
            items, opener = open_lists.pop()
            if opener.__class__ is _Text:
                form = _Form(form)
                form.line, form.col = opener.line, opener.col
            items.append(form)
        elif token:
            if items and not open_lists:
                raise ParseError("trailing content after expression", *_at(token))
            if token == "(":
                open_lists.append((items, token))
                items = []
            else:
                items.append(token)
    if open_lists:
        raise ParseError("unclosed parenthesis", *_at(open_lists[-1][1]))
    if not items:
        raise ParseError("empty input")
    return items[0]


def _unquote(literal: str) -> str:
    body = literal[1:-1]
    return _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], body) if "\\" in body else body


# --------------------------------------------------------------------------
# The grammar: one row per form


# For each kind of form: the noun its errors use, and its rows. A row maps a
# form's head to its AST class and the kind of each argument, in syntax
# order. An argument kind is another form kind; "str", a string literal;
# "count", an integer literal; "name:<what>", a name; "op", the head itself
# (it takes no argument); or a form kind with "*", which takes all the
# arguments as a tuple. The arguments fill the class's fields in order,
# unless the class comes in a tuple with the names of the fields they fill.
# Integer literals and true/false are the only atom forms, and (par E ...)
# is the one form outside the table: it takes at least one expression and
# folds right into merges.
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
        "handle": ((Handle, "tag", "body", "handler"), "name:tag", "program", "program"),
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


def _to_int(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:
        # The host caps str-to-int conversion (sys.get_int_max_str_digits).
        raise ParseError("integer literal has too many digits", *_at(literal)) from None


def _build(node, kind: str):
    """Build the AST of one form of the given kind from what a reader
    returned. A form's last argument is built by the same loop, not by a
    call, so a chain nested through last arguments, such as the merges that
    render prints for a long par, takes no stack."""
    waiting = []  # (row, values) of the forms whose last argument is node
    while True:
        noun, rows = _FORMS[kind]
        if not isinstance(node, tuple):
            if kind == "integer" and _INT_RE.match(node):
                ast = IntConst(_to_int(node))
            elif kind == "condition" and node in ("true", "false"):
                ast = BoolConst(node == "true")
            elif kind in ("condition", "integer") and node[0] != '"':
                # The noun without its article: "condition", "integer expression".
                raise ParseError(f"expected {noun.partition(' ')[2]}, got {node!r}", *_at(node))
            else:
                raise ParseError(f"expected {noun}", *_at(node))
            break
        if not node:
            raise ParseError(f"empty form where {noun} expected", *_at(node))
        head = node[0]
        if not isinstance(head, str) or head[0] == '"':
            raise ParseError("form head must be a symbol", *_at(node))
        args = node[1:]
        if head == "par" and kind == "expression":
            if not args:
                raise ArityError("(par ...) takes at least 1 argument(s), got 0", *_at(node))
            waiting += [(rows["merge"], [_build(arg, kind)]) for arg in args[:-1]]
            node = args[-1]
            continue
        row = rows.get(head)
        if row is None:
            raise UnknownForm(f"unknown {kind} form {head!r}", *_at(node))
        kinds = row[1:]
        if kinds and kinds[-1][-1] == "*":
            ast = row[0](tuple([_build(arg, kinds[-1][:-1]) for arg in args]))
            break
        values = []
        if kinds and kinds[0] == "op":
            values.append(head)
            kinds = kinds[1:]
        if len(args) != len(kinds):
            raise ArityError(f"({head} ...) takes {len(kinds)} argument(s), got {len(args)}", *_at(node))
        tail = len(kinds) > 0 and kinds[-1] in _FORMS
        for arg, arg_kind in zip(args[:len(args) - tail], kinds):
            if arg_kind in _FORMS:
                values.append(_build(arg, arg_kind))
            elif arg_kind == "str":
                if not isinstance(arg, str) or arg[0] != '"':
                    raise ParseError("expected a string literal", *_at(arg))
                values.append(_unquote(arg))
            elif arg_kind == "count":
                if not isinstance(arg, str) or not _INT_RE.match(arg):
                    raise ParseError("expected an integer literal", *_at(arg))
                values.append(_to_int(arg))
            else:
                if not isinstance(arg, str) or not _NAME_RE.match(arg):
                    raise ParseError(f"expected {arg_kind.removeprefix('name:')} name", *_at(arg))
                values.append(arg)
        if not tail:
            ast = _make(row, values)
            break
        waiting.append((row, values))
        node, kind = args[-1], kinds[-1]
    while waiting:
        row, values = waiting.pop()
        values.append(ast)
        ast = _make(row, values)
    return ast


def _make(row: tuple, values: list):
    """Build a row's class from its argument values, in syntax order."""
    if row[0].__class__ is tuple:
        return row[0][0](**dict(zip(row[0][1:], values)))
    return row[0](*values)


def parse_program(text: str) -> ExprAst:
    """Parse one reactive expression from source text."""
    tokens = _TOKEN_RE.findall(text)
    try:
        if '"' not in tokens:
            return _build(_nest(tokens), "expression")
    except ParseError:
        pass
    # The same reader and builder again, with positions: this raises the
    # error, with its line and column.
    return _build(_nest(_tokenize(text)), "expression")


# --------------------------------------------------------------------------
# Rendering (inverse of parse_program, used for golden files and tests)


# Each AST class with the head, argument kinds and field names of its row
# (a class and the fields its arguments fill, in syntax order). The classes
# with an "op" argument have one row per operator and take their head from
# that field.
_ROWS_BY_CLASS = {
    named[0]: (head, row[1:], named[1:])
    for _, rows in _FORMS.values() for head, row in rows.items()
    for named in [row[0] if row[0].__class__ is tuple else (row[0], *(f.name for f in fields(row[0])))]
}


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def render(ast: object) -> str:
    """Render any AST node (expression, program form, action, condition or
    integer expression) as source text that parses back to it. An integer
    literal longer than the host's int-to-str limit raises ValueError, as
    str() does; parse_program could not read it back either."""
    out = []
    # What is left to print, last first: AST nodes, and text as a str (the
    # argument itself is never text).
    pending = [ast]
    while pending:
        item = pending.pop()
        if item.__class__ is str and item is not ast:
            out.append(item)
        elif item.__class__ is IntConst:
            out.append(str(item.value))
        elif item.__class__ is BoolConst:
            out.append("true" if item.value else "false")
        elif item.__class__ in _ROWS_BY_CLASS:
            head, kinds, names = _ROWS_BY_CLASS[item.__class__]
            pending.append(")")
            for name, kind in zip(names[::-1], kinds[::-1]):
                value = getattr(item, name)
                if kind == "op":
                    head = value
                elif kind[-1] == "*":
                    for part in value[::-1]:
                        pending += (part, " ")
                else:
                    text = value if kind in _FORMS else _escape(value) if kind == "str" else str(value)
                    pending += (text, " ")
            pending.append(f"({head}")
        else:
            raise TypeError(f"not a DSL form: {item!r}")
    return "".join(out)


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
        case Handle(body=body, tag=tag, handler=handler):
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
                    values[name] = _to_int(literal)
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
