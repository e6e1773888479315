"""Textual surface language for reactive expressions and event traces.

Programs are parenthesized prefix forms, one expression per file; ``;``
starts a comment running to end of line. String literals are
double-quoted, with the escapes ``\\n``, ``\\t``, ``\\r``, ``\\"`` and
``\\\\``. The table ``_ESCAPES`` is that set: the reader's token pattern,
its unquoting and render's escaping are all made from it.

The grammar is the table ``_FORMS``. For each kind of form (reactive
expression, program form, action, condition, integer expression) it has
one row per head: the AST class the form builds and the kind of each
argument. The heads of the comparison and arithmetic rows are the keys of
world's operator tables, so the operator set is written once. Reading,
rendering and compiling all take the grammar from this table. At import
it is digested once into ``_ROWS``, rows ready to build from: the class,
whether the head is a value, the kind of a ``*`` or ``+`` row's
arguments, how to read each leading argument, the kind of the last one
and the arity; ``_build`` parses every form with one lookup of its
digested row. It is also read into ``_CLASSES``, which gives each AST
class its head and each of its fields in syntax order with its argument
kind: ``render`` prints every AST node back from it, and ``compile_expr``
calls an expression's combinator (``_COMBINATORS``) with its fields in
that order, converted by their kinds. Program forms build the engine's
own classes: ``seq``, ``stop``, ``suspend``, ``activate``, ``raise`` and
``handle`` build program.Seq, Stop, Suspend, Activate, Raise and Handle
(whose row fills its fields by name, as ``(handle TAG BODY HANDLER)``
gives them in another order), and ``print``, ``set`` and ``do`` build the
action specs world.Print, SetCell and ActionSeq, which a program takes as
they are. So a parsed rexp body is a library program, with an
expression's AST as each Activate's child. compile_expr lays it out with
program.initial_resumption, compiles the node's children, in code order,
to ids, and only then allocates the node; a rexp, and a repeat of count
0, are the only forms it compiles with code of their own. A repeat's
count is checked where it is read: the reader takes only a non-negative
integer literal, and a count of 0 compiles to a nothing, so its body is
parsed but never compiled.
Integer literals and ``true`` and ``false`` are the only atoms that are
forms. ``(par E ...)`` and ``(merge E E)`` both build one MergeExpr over
their branches, which compiles to one merge node; render prints every
MergeExpr as ``(par ...)``.
Print templates interpolate ``{cell:name}`` and ``{value:name}`` as
decimal integers. The README lists every form.

The text is first read with no positions, line by line, where only
``\\n`` ends a line: each distinct line is scanned once by one regular
expression, and its tokens are nested on a stack. A line that closes
every form it opens keeps the forms its first read appends, and each
repeat of it inside a form appends those same forms again, with no scan
and no nesting; a text in which no line repeats is read whole, as one
line. So the forms of a repeated line are one tuple each, and nothing
else is shared: equal forms on distinct lines, or within one line, are
distinct tuples. Each form is built once for each kind it is read as,
and each further place that holds it costs one lookup by its id, in the
one table of its kind, and one append, so the subtrees of a repeated line
are one object in the AST; that sharing, and what is kept of each line,
lasts for one parse_program call, and two calls share no AST node. Line
and column are worked out only when a parse fails, by scanning the whole
text with the same token pattern again, this time with positions and no
sharing; the same builder then raises the error with its position.

Trace files hold one instant per line: whitespace-separated ``name`` tokens
(signal present) or ``name=int`` tokens (signal present with an integer
payload). A blank line is an instant with no events; a line that is only a
comment is skipped. parse_trace reads each distinct line once, and equal
lines share one InstantEvents, which the engine only reads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Union

from . import combinators
from .core import ReactiveId
from .kernel import Environment
from .program import Activate, Handle, Program, Seq, Stop, Suspend, initial_resumption
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
    Raise,
    SetCell,
    Sig,
    ValueRef,
    _ARITHMETIC,
    _COMPARISONS,
    _max_str_digits,
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


# --------------------------------------------------------------------------
# Expression and program ASTs


@dataclass(frozen=True)
class RexpExpr:
    program: Program


@dataclass(frozen=True)
class MergeExpr:
    children: tuple["ExprAst", ...]


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

    def __post_init__(self) -> None:
        # The reader takes only a non-negative literal; a hand-built node
        # is rejected here, before compile_expr lays out any of its body.
        if self.count < 0:
            raise ValueError("repeat count must be non-negative")


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


# --------------------------------------------------------------------------
# Reading

# A reader returns a form as a tuple of forms, and an atom or a string
# literal as a str; a string literal keeps its quotes, and no atom starts
# with '"'. parse_program reads with no positions first: _nest reads each
# distinct line once, and the forms of a repeated line are one tuple each;
# _build builds each form once for each kind it is read as, so those forms
# are one object in the AST too. Their tables live for that one read. Only a
# parse that fails reads the text again with _tokenize, whose tokens, and
# the forms _nest makes of them, are subclasses that carry their line and
# column; those forms are never shared, so each error names the place of
# the form at fault.

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\([\s\S]?)")
# A paren, a string literal, an atom, or "" for a comment; the search skips
# every other character, which is whitespace. Only a closed string with
# known escapes, the keys of _ESCAPES, matches as a string; any other leaves
# a lone '"' token, a fault for parse_program and the first lexical error
# for _tokenize.
_TOKEN_RE = re.compile(rf';[^\n]*|([()]|"(?:[^"\\\n]|\\[{"".join(map(re.escape, _ESCAPES))}])*"|"|[^ \t\r\n();"]+)')
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
                char = e.group(1)
                if char not in _ESCAPES:
                    # A character that does not print, such as a newline or
                    # a tab, is named by its code point, so the message
                    # stays on one line.
                    message = ("unterminated escape" if not char else f"unknown escape \\{char}" if char.isprintable()
                               else f"unknown escape U+{ord(char):04X} after a backslash")
                    raise ParseError(message, line, col + 1 + e.start())
            raise ParseError("unterminated string", line, col)
        token = _Text(token)
        token.line, token.col = line, col
        tokens.append(token)
    return tokens


def _nest(lines: list[str], read=_TOKEN_RE.findall):
    """Nest the tokens of lines into exactly one s-expression, keeping open
    lists on a stack; read gives a line's tokens, and "" tokens (comments)
    are skipped.
    Each distinct line is read once, and its tokens are kept; when no line
    repeats, the lines are read as one. Read inside an open form, a line
    that closes every form it opens appends the same items wherever it is,
    and cannot fail. So such a line keeps what its first read appends, and
    every repeat inside an open form appends those same forms again, with
    no token loop: the forms of a repeated line are one tuple each. Nothing
    else is shared, and a line at top level always runs the loop, for its
    checks.
    Positioned tokens give each form its own _Form, with its line and
    column; the positioned read passes the whole text as one line. A fault
    raises a ParseError with the position of the token at fault, if tokens
    carry one."""
    open_lists: list[tuple[list, str]] = []
    items: list = []
    # A line -> None until it is read, then [its tokens], then also the
    # items it appends, if it closes every form it opens.
    seen: dict = dict.fromkeys(lines)
    if len(seen) == len(lines):
        # No line repeats, so nothing kept of one could serve.
        lines = ["\n".join(lines)]
    for line in lines:
        entry = seen.get(line)
        if entry is None:
            entry = seen[line] = [read(line)]
            if '"' in entry[0]:
                raise ParseError("unterminated string")
        elif len(entry) > 1 and open_lists:
            items += entry[1]
            continue
        current, start = items, len(items)
        for token in entry[0]:
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
                if not open_lists and items:
                    raise ParseError("trailing content after expression", *_at(token))
                if token == "(":
                    open_lists.append((items, token))
                    items = []
                else:
                    items.append(token)
        if items is current and len(entry) == 1:
            entry.append(items[start:])
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
# "count", a non-negative integer literal, so a repeat's count is checked
# where it is read; "name:<what>", a name; "op", the head itself (it takes
# no argument); or a form kind with "*", which takes all the arguments as a
# tuple, or with "+", which also takes at least one. The arguments fill the
# class's fields in order, unless the class comes in a tuple with the names
# of the fields they fill. Integer literals and true/false are the only
# atom forms. Program forms take every action row.
_ACTION_ROWS = {
    "print": (Print, "str"),
    "set": (SetCell, "name:cell", "integer"),
    "raise": (Raise, "name:tag"),
    "do": (ActionSeq, "action*"),
}
_FORMS: dict[str, tuple[str, dict[str, tuple]]] = {
    "expression": ("a reactive expression", {
        "rexp": (RexpExpr, "program"),
        # (merge A B) is (par A B), and renders as that.
        "merge": ((lambda left, right: MergeExpr((left, right)), "left", "right"), "expression", "expression"),
        "par": (MergeExpr, "expression+"),
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
        "stop": (Stop,),
        "suspend": (Suspend,),
        "activate": (Activate, "expression"),
        "handle": ((Handle, "tag", "body", "handler"), "name:tag", "program", "program"),
        **_ACTION_ROWS,
    }),
    "action": ("an action", _ACTION_ROWS),
    "condition": ("a condition", {
        "sig": (Sig, "name:signal"),
        "not": (Not, "condition"),
        "and": (And, "condition", "condition"),
        "or": (Or, "condition", "condition"),
        **dict.fromkeys(_COMPARISONS, (Compare, "op", "integer", "integer")),
    }),
    "integer": ("an integer expression", {
        "cell": (CellRef, "name:cell"),
        "value": (ValueRef, "name:value"),
        **dict.fromkeys(_ARITHMETIC, (BinOp, "op", "integer", "integer")),
        "neg": (Negate, "integer"),
    }),
}


def _to_int(literal: str) -> int:
    # The host caps str-to-int conversion (sys.get_int_max_str_digits) at
    # the digits after the sign, leading zeros included; _max_str_digits
    # holds a host without a cap to CPython's default one.
    if len(literal.lstrip("+-")) > _max_str_digits():
        raise ParseError("integer literal has too many digits", *_at(literal))
    return int(literal)


# Each character that has an escape -> its escape: _ESCAPES inverted.
_ESCAPING = str.maketrans({char: f"\\{key}" for key, char in _ESCAPES.items()})


def _escape(text: str) -> str:
    return f'"{text.translate(_ESCAPING)}"'


# How a row reads an atom argument and prints it back: what gives the
# atom's value, or None when the atom does not match; the error then; and
# what prints the value. Names are read by _read_name and print as they
# are.
_ATOMS = {
    "str": (lambda atom: _unquote(atom) if atom[0] == '"' else None, "expected a string literal", _escape),
    "count": (lambda atom: n if _INT_RE.match(atom) and (n := _to_int(atom)) >= 0 else None,
              "expected a non-negative integer literal", str),
}


def _read_name(atom: str) -> str | None:
    # A name is an ASCII identifier: [A-Za-z_][A-Za-z0-9_]*.
    return atom if atom.isidentifier() and atom.isascii() else None


def _digest(cls, *kinds) -> tuple:
    """A _FORMS row as _build reads it: (make, names, op, star, lead, last,
    arity). make is the AST class; names is None when the arguments fill
    its fields in order, else the fields they fill. op is whether the head
    is the first value. star is the kind of every argument of a "*" or
    "+" row, else None. lead holds each argument before a last one of a
    form kind: its form kind, or how to read it as an atom; last is that
    argument's form kind, or None. arity counts the arguments; a star row
    has none fixed, and its arity is the fewest it takes: 1 for "+", else
    0."""
    make, *names = cls if cls.__class__ is tuple else (cls,)
    op = kinds[:1] == ("op",)
    kinds = kinds[op:]
    if kinds and kinds[0][-1] in "*+":
        return make, names or None, op, kinds[0][:-1], (), None, int(kinds[0][-1] == "+")
    last = kinds[-1] if kinds and kinds[-1] in _FORMS else None
    lead = tuple(
        kind if kind in _FORMS else _ATOMS.get(kind) or (_read_name, f"expected {kind[5:]} name")
        for kind in kinds[:len(kinds) - (last is not None)])
    return make, names or None, op, None, lead, last, len(kinds)


# The grammar digested once: for each kind of form, its noun and its rows.
_ROWS = {kind: (noun, {head: _digest(*row) for head, row in rows.items()})
         for kind, (noun, rows) in _FORMS.items()}


def _make(make, names, star, values: list):
    """The AST of a digested row from the values of its arguments."""
    if star:
        return make(tuple(values))
    return make(*values) if names is None else make(**dict(zip(names, values)))


def _build(node, kind: str, built: dict):
    """Build the AST of one form of the given kind from what a reader
    returned, with one lookup of the form's digested row. A form's last
    argument, a star row's too, is built by the same loop, not by a call,
    so a chain nested through last arguments, such as a long chain of
    closes or of right-nested pars, takes no stack. built holds one table
    per form kind, which maps a form's id to the AST built from it as that
    kind, so a form of a repeated line, the one thing _nest shares, is
    built once per kind, and every place that holds it gets the same AST. Each form is looked up by its id
    in its kind's table once, before it is built: an argument in the loop,
    so a repeat costs one lookup and one append and never enters _build,
    and a last argument as the chain reaches it. A star row looks up every
    argument but its last in one loop against its kind's one table. An id
    names a form only while it lives, so each read passes fresh tables
    (_tables()), which go with the read, and the root, built first, needs
    no lookup."""
    waiting = []  # (make, names, star, values, table, id) of the forms whose last argument is node
    while True:
        noun, rows = _ROWS[kind]
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
        # Only a str may key a lookup: hashing a tuple nested deeply enough
        # crashes the interpreter, which is also why a form's id keys it.
        # No row has a string literal as its head.
        if not isinstance(head, str):
            raise ParseError("form head must be a symbol", *_at(node))
        row = rows.get(head)
        if row is None:
            if head[0] == '"':
                raise ParseError("form head must be a symbol", *_at(node))
            raise UnknownForm(f"unknown {kind} form {head!r}", *_at(node))
        make, names, op, star, lead, last, arity = row
        values = [head] if op else []
        if star:
            if len(node) <= arity:
                raise ArityError(f"({head} ...) takes at least {arity} argument(s), got {len(node) - 1}", *_at(node))
            table = built[star]
            for arg in node[1:-1]:
                # A shared argument built already costs this one lookup.
                value = table.get(id(arg))
                values.append(_build(arg, star, built) if value is None else value)
            last = star if len(node) > 1 else None
        elif len(node) - 1 != arity:
            raise ArityError(f"({head} ...) takes {arity} argument(s), got {len(node) - 1}", *_at(node))
        at = 0  # the index of arg in node
        for arg_kind in lead:
            at += 1
            arg = node[at]
            if arg_kind.__class__ is str:
                value = built[arg_kind].get(id(arg))
                values.append(_build(arg, arg_kind, built) if value is None else value)
            elif isinstance(arg, str) and (value := arg_kind[0](arg)) is not None:
                values.append(value)
            else:
                raise ParseError(arg_kind[1], *_at(arg))
        if last is None:
            ast = built[kind][id(node)] = _make(make, names, star, values)
            break
        waiting.append((make, names, star, values, built[kind], id(node)))
        node, kind = node[-1], last
        ast = built[kind].get(id(node))
        if ast is not None:
            break
    while waiting:
        make, names, star, values, table, key = waiting.pop()
        values.append(ast)
        ast = table[key] = _make(make, names, star, values)
    return ast


def _tables() -> dict[str, dict]:
    """Fresh tables for one read by _build: for each form kind, an empty
    map from a form's id to its AST."""
    return {kind: {} for kind in _ROWS}


def parse_program(text: str) -> ExprAst:
    """Parse one reactive expression from source text. Within one call,
    each distinct line is read once, and the forms of a repeated line are
    read as one tuple each and built once per kind, so they are one object
    in the AST; nothing else is shared, and two calls share no AST node."""
    # Only "\n" ends a line: no token spans one, and str.splitlines would
    # also split at characters that an atom may hold.
    try:
        return _build(_nest(text.split("\n")), "expression", _tables())
    except ParseError:
        pass
    # The same reader and builder again, with positions and no shared
    # forms: this raises the error, with its line and column.
    return _build(_nest([text], _tokenize), "expression", _tables())


# --------------------------------------------------------------------------
# Rendering (inverse of parse_program, used for golden files and tests)


def _fields(head: str, cls, *kinds) -> tuple:
    """A _FORMS row as render and compile_expr read it: its AST class, and
    the row's head with each of the class's fields in syntax order, paired
    with the kind of the argument that fills it."""
    make, *names = cls if cls.__class__ is tuple else (cls,)
    return make, (head, tuple(zip(names or [f.name for f in fields(make)], kinds)))


# Each AST class with the head of its _FORMS row and its fields with their
# kinds (_fields). The classes with an "op" field have one row per operator
# and take their head from that field. The merge row makes its MergeExpr
# with a function, which keys its entry, so a MergeExpr prints as par.
_CLASSES = dict(_fields(head, *row) for _, rows in _FORMS.values() for head, row in rows.items())


def render(ast: object) -> str:
    """Render any AST node (expression, program form, action, condition or
    integer expression) as source text that parses back to it, from the
    fields of its class (_CLASSES). An integer literal longer
    than the host's int-to-str limit raises ValueError, as str() does;
    parse_program could not read it back either."""
    out = []
    # What is left to print, last first: AST nodes, and text as a str (the
    # argument itself is never text; a name read with its position is a
    # str subclass).
    pending = [ast]
    while pending:
        item = pending.pop()
        if isinstance(item, str) and item is not ast:
            out.append(item)
        elif item.__class__ is IntConst:
            out.append(str(item.value))
        elif item.__class__ is BoolConst:
            out.append("true" if item.value else "false")
        elif item.__class__ in _CLASSES:
            head, args = _CLASSES[item.__class__]
            pending.append(")")
            for name, kind in args[::-1]:
                value = getattr(item, name)
                if kind == "op":
                    head = value
                elif kind[-1] in "*+":
                    for part in value[::-1]:
                        pending += (part, " ")
                else:
                    # A form is pushed as its AST node, and a name as its text.
                    pending += (_ATOMS[kind][2](value) if kind in _ATOMS else value, " ")
            pending.append(f"({head}")
        else:
            raise TypeError(f"not a DSL form: {item!r}")
    return "".join(out)


# --------------------------------------------------------------------------
# Compilation to kernel nodes


# The combinator of each expression class but RexpExpr, which compile_expr
# calls with the class's fields in syntax order (_CLASSES).
_COMBINATORS = {
    MergeExpr: combinators.merge, RifExpr: combinators.rif, CloseExpr: combinators.close,
    LoopExpr: combinators.loop, RepeatExpr: combinators.repeat, InitExpr: combinators.init,
    AwaitExpr: combinators.await_, WhenExpr: combinators.when, TerminateExpr: combinators.terminate,
    HaltExpr: combinators.halt, NothingExpr: combinators.nothing,
}


def compile_expr(ast: ExprAst, env: Environment) -> ReactiveId:
    """Allocate kernel nodes for the expression, bottom up. Its class's
    combinator (_COMBINATORS) takes the fields in syntax order (_CLASSES),
    each converted by its argument kind: an expression is compiled to its
    id, as is each branch of an "expression+" field, an action is built by
    build_action, and any other field is passed as it is. Only two forms
    have code of their own. A rexp body is laid out first; the expressions
    it activates, the node's children in code order, are compiled next,
    and the node is allocated last. A repeat of count 0 is a nothing, and
    its body, which never runs, is not compiled. Each expression node
    outside such a body costs one Python frame. A repeat's count is
    checked by the reader, and a hand-built RepeatExpr with a negative
    count is rejected by RepeatExpr itself, before it reaches here."""
    cls = ast.__class__
    if cls is RexpExpr:
        node = initial_resumption(ast.program)
        node.children = tuple(map(compile_expr, node.children, repeat(env)))
        return env.alloc(node)
    if cls is RepeatExpr and ast.count == 0:
        return combinators.nothing(env)
    combinator = _COMBINATORS.get(cls)
    if combinator is None:
        raise TypeError(f"not an expression: {ast!r}")
    args = []
    for name, kind in _CLASSES[cls][1]:
        arg = getattr(ast, name)
        if kind == "expression+":
            args += map(compile_expr, arg, repeat(env))
        else:
            args.append(compile_expr(arg, env) if kind == "expression" else build_action(arg) if kind == "action" else arg)
    return combinator(env, *args)


# --------------------------------------------------------------------------
# Event traces


def parse_trace(text: str) -> list[InstantEvents]:
    """Parse a trace file into one InstantEvents per instant.

    Equal lines share one InstantEvents: within one call, each distinct
    line is read once, in order of first appearance, and every instant it
    starts is that same object. Nothing is kept between calls. The engine
    only reads an InstantEvents, so sharing is safe; a caller that mutates
    one, say its ``values``, mutates every instant that shares it."""
    # Only "\n" ends a line, as in parse_program's positions; str.split()
    # below takes any other line break for whitespace. A final newline
    # starts no instant.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    read: dict[str, InstantEvents | None] = dict.fromkeys(lines)  # a line -> its events
    for line in read:
        raw, semicolon, _ = line.partition(";")
        if semicolon and not raw.strip():
            continue  # comment-only lines do not count as instants, and stay None
        signals: set[str] = set()
        values: dict[str, int] = {}
        try:
            for index, token in enumerate(raw.split()):
                if "=" in token:
                    name, _, literal = token.partition("=")
                    if _read_name(name) is None:
                        raise ParseError(f"bad signal name {name!r}")
                    if not _INT_RE.match(literal):
                        raise ParseError(f"bad integer value {literal!r} for {name!r}")
                    if name in values:
                        raise DuplicateAssignment(f"signal {name!r} assigned twice in one instant")
                    values[name] = _to_int(literal)
                else:
                    if _read_name(token) is None:
                        raise ParseError(f"bad signal name {token!r}")
                    signals.add(token)
        except ParseError as error:
            # The errors above carry no position: the failing token's line
            # and column are worked out here, so valid lines never pay for
            # them. Lines are read in order of first appearance, so this
            # line is the first that fails.
            col = [m.start() for m in re.finditer(r"\S+", raw)][index] + 1
            raise type(error)(str(error), lines.index(line) + 1, col) from None
        read[line] = InstantEvents(frozenset(signals), values)
    # InstantEvents is always true, so this drops only comment-only lines.
    return list(filter(None, map(read.__getitem__, lines)))
