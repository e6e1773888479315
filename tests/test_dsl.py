"""Surface language: parsing, rendering, compiling, trace files."""
from __future__ import annotations

import gc
import random
import weakref
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from instants import Environment, dsl, parse_program, parse_trace, render, rexp
from instants import combinators as c
from instants import program as program_module
from instants.dsl import (
    ArityError,
    CompileError,
    DuplicateAssignment,
    HaltExpr,
    MergeExpr,
    NothingExpr,
    ParseError,
    RepeatExpr,
    RexpExpr,
    UnknownForm,
    _TOKEN_RE,
    _build,
    _nest,
    _tables,
    _tokenize,
    compile_expr,
)
from instants.program import ACTIVATE, ATOM, JUMP, TEXT, Activate, Atom, Handle, Raise, Seq, Stop, Suspend
from instants.world import InstantEvents, IntConst, Print, SetCell, Sig, build_action

from genprog import gen_case
from helpers import needs_print_limit, print_limit, react_once, structure

MERGE_SRC = (
    '(merge (rexp (seq (print "1") (stop) (print "2")))'
    ' (rexp (seq (print "A") (stop) (print "B"))))'
)


def test_parse_merge_example():
    ast = parse_program(MERGE_SRC)
    assert isinstance(ast, MergeExpr)
    assert len(ast.children) == 2
    assert isinstance(ast.children[0], RexpExpr)
    assert ast.children[0].program == Seq(
        (Print("1"), Stop(), Print("2"))
    )


def test_parse_nothing():
    assert parse_program("(nothing)") == NothingExpr()


def test_unbalanced_input_fails():
    with pytest.raises(ParseError):
        parse_program("(repeat 3 (halt)")


def test_unknown_form():
    with pytest.raises(UnknownForm):
        parse_program("(spin (nothing))")


def test_arity_error():
    # merge keeps its arity of 2, though it builds the same node as par.
    for source, got in [("(merge (nothing))", 1), ("(merge (nothing) (halt) (nothing))", 3)]:
        with pytest.raises(ArityError) as exc:
            parse_program(source)
        assert str(exc.value) == f"(merge ...) takes 2 argument(s), got {got} at line 1, column 1"


def test_unexpected_close_paren():
    with pytest.raises(ParseError):
        parse_program(")")


def test_trailing_content_rejected():
    with pytest.raises(ParseError):
        parse_program("(nothing) (halt)")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_program("   ; just a comment\n")


def test_error_carries_position():
    with pytest.raises(UnknownForm) as exc:
        parse_program("(merge (nothing)\n  (wat))")
    assert exc.value.line == 2
    assert exc.value.col == 3


def test_par_parses_to_one_merge_of_its_branches():
    ast = parse_program("(par (nothing) (halt) (nothing))")
    assert ast == MergeExpr((NothingExpr(), HaltExpr(), NothingExpr()))
    assert render(ast) == "(par (nothing) (halt) (nothing))"
    # (merge A B) is (par A B), and (par E) is a merge of one branch.
    assert parse_program("(merge (nothing) (halt))") == parse_program("(par (nothing) (halt))")
    assert render(parse_program("(merge (nothing) (halt))")) == "(par (nothing) (halt))"
    assert parse_program("(par (nothing))") == MergeExpr((NothingExpr(),))


def test_comments_and_strings():
    ast = parse_program('; header\n(rexp (seq (print "a;b \\"q\\" \\n")))  ; tail')
    assert ast.program.items[0] == Print('a;b "q" \n')


def test_program_forms_parse_to_the_engine_classes():
    ast = parse_program('(rexp (seq (print "a") (set x 1) (stop) (suspend) (raise T)))')
    assert ast.program == Seq((Print("a"), SetCell("x", IntConst(1)), Stop(), Suspend(), Raise("T")))
    # A parsed body is a library program: rexp takes it as it stands.
    env = Environment()
    assert react_once(env, rexp(env, ast.program)) == (["a"], False)
    # A field-free print inside (do ...) or as an init's action is compiled
    # by build_action, and prints as written, % signs included.
    ast = parse_program('(init (print "%s") (rexp (seq (do (print "100%") (print "b")) (stop) (print "{cell:}"))))')
    env = Environment()
    root = compile_expr(ast, env)
    assert react_once(env, root) == (["%s", "100%", "b"], False)
    assert react_once(env, root) == (["%s", "{cell:}"], True)


def test_render_parse_round_trip():
    src = (
        '(rif (and (sig go) (<= (cell x) 5))'
        ' (init (do (print "hi") (set x (+ (cell x) 1)) (raise T)) (nothing))'
        ' (close (loop (rexp (seq (handle T (activate (when (sig a) (halt))) (seq))'
        ' (suspend) (raise U))))))'
    )
    ast = parse_program(src)
    assert parse_program(render(ast)) == ast


def test_render_escapes_each_escaped_character():
    # The exact text: a raw tab or carriage return inside a string would
    # parse back too, so only the text shows that each is escaped.
    ast = RexpExpr(Seq((Print('a"b\\c\nd\te\rf'),)))
    text = render(ast)
    assert text == '(rexp (seq (print "a\\"b\\\\c\\nd\\te\\rf")))'
    assert parse_program(text) == ast
    # A backslash followed by n is two characters, not a newline.
    ast = RexpExpr(Seq((Print("a\\nb"),)))
    assert render(ast) == '(rexp (seq (print "a\\\\nb")))'
    assert parse_program(render(ast)) == ast


def _ast_nodes(ast) -> list:
    """Every AST node reachable from ast, once per place that holds it."""
    nodes, pending = [], [ast]
    while pending:
        item = pending.pop()
        if isinstance(item, tuple):
            pending += item
        elif is_dataclass(item):
            nodes.append(item)
            pending += (getattr(item, f.name) for f in fields(item))
    return nodes


STEP = '(set c (+ (cell c) (value v))) (print "c={cell:c}") (stop)'
REPEATED_SRC = f"(par (rexp (seq {STEP} {STEP})) (rexp (seq {STEP} {STEP})))"


def test_equal_subforms_of_one_parse_are_one_object():
    ast = parse_program(REPEATED_SRC)
    first, second = ast.children
    assert first is second
    items = first.program.items
    assert len(items) == 6 and items[:3] == items[3:]
    assert all(a is b for a, b in zip(items[:3], items[3:]))
    # Each place that holds a shared expression compiles to its own node.
    env = Environment()
    root = compile_expr(ast, env)
    assert len(env.nodes) == 3
    assert react_once(env, root) == (["c=0", "c=0"], False)


def test_two_parses_share_no_ast_node():
    first, second = parse_program(REPEATED_SRC), parse_program(REPEATED_SRC)
    assert first == second
    assert not {id(node) for node in _ast_nodes(first)} & {id(node) for node in _ast_nodes(second)}


def test_compile_and_run_merge_example():
    env = Environment()
    root = compile_expr(parse_program(MERGE_SRC), env)
    assert react_once(env, root) == (["1", "A"], False)
    assert react_once(env, root) == (["2", "B"], True)


def test_compile_nothing_reacts_true():
    env = Environment()
    root = compile_expr(parse_program("(nothing)"), env)
    assert react_once(env, root) == ([], True)


def test_identical_actions_share_one_compiled_action():
    env = Environment()
    # Templated prints: a field-free one lays out as TEXT, with no action.
    src = ('(rexp (seq (print "shared {cell:x}") (stop) (print "shared {cell:x}")'
           ' (print "other {cell:x}")))')
    root = compile_expr(parse_program(src), env)
    first, second, other = [arg for op, arg in env.nodes[root].ops if op == ATOM]
    assert first is second and first is not other
    assert react_once(env, root) == (["shared 0"], False)
    assert react_once(env, root) == (["shared 0", "other 0"], True)
    # The shared action lives only as long as a program holds it.
    action = weakref.ref(first)
    del env, root, first, second, other
    gc.collect()
    assert action() is None


def test_repeat_zero_leaves_only_a_nothing():
    branches = " ".join(f'(rexp (seq (print "b{i}") (stop)))' for i in range(64))
    env = Environment()
    root = compile_expr(parse_program(f"(repeat 0 (par {branches}))"), env)
    assert len(env.nodes) == 1
    assert react_once(env, root) == ([], True)
    # The reader rejects a negative count; a hand-built one reaches repeat.
    with pytest.raises(ValueError, match="repeat count must be non-negative"):
        compile_expr(RepeatExpr(-1, HaltExpr()), Environment())


def test_when_terminate_await_forms_compile():
    env = Environment()
    root = compile_expr(
        parse_program('(terminate (sig cut) (await (sig go) (rexp (seq (print "x")))))'), env
    )
    assert react_once(env, root) == ([], False)
    assert react_once(env, root, InstantEvents(frozenset({"go"}))) == (["x"], True)


def test_trace_three_instants():
    trace = parse_trace("digit=1\ndigit=2\nenter\n")
    assert len(trace) == 3
    assert trace[0] == InstantEvents(frozenset(), {"digit": 1})
    assert trace[2] == InstantEvents(frozenset({"enter"}), {})


def test_trace_empty_file():
    assert parse_trace("") == []


def test_trace_blank_line_is_empty_instant():
    trace = parse_trace("a\n\nb\n")
    assert len(trace) == 3
    assert trace[1] == InstantEvents(frozenset(), {})


def test_trace_comment_lines_are_skipped():
    trace = parse_trace("; header\na b\nc=4 ; trailing\n")
    assert len(trace) == 2
    assert trace[0] == InstantEvents(frozenset({"a", "b"}), {})
    assert trace[1] == InstantEvents(frozenset(), {"c": 4})
    # Lines that differ only after ";" are two equal instants.
    assert parse_trace("a ; x\na ; y\n") == [InstantEvents(frozenset({"a"}), {})] * 2


def test_trace_lines_end_only_at_newline():
    assert parse_trace("a\x0cb\n") == [InstantEvents(frozenset({"a", "b"}), {})]
    # CRLF line ends, a blank last line and comment-only lines as before.
    assert parse_trace("a\r\nb=2\r\n\r\n") == [
        InstantEvents(frozenset({"a"}), {}), InstantEvents(frozenset(), {"b": 2}), InstantEvents()]
    assert parse_trace("a\n\n") == [InstantEvents(frozenset({"a"}), {}), InstantEvents()]
    assert parse_trace("; c\r\na\n  ; d") == [InstantEvents(frozenset({"a"}), {})]


def test_trace_equal_lines_share_one_instant():
    # A comment-only line starts no instant, and a blank line starts an
    # empty one.
    assert parse_trace("\n; c\n") == [InstantEvents()]
    first, second = parse_trace("a\n;c\na\n")
    assert first is second and first == InstantEvents(frozenset({"a"}), {})


def test_trace_duplicate_assignment_rejected():
    with pytest.raises(DuplicateAssignment):
        parse_trace("digit=1 digit=2")


def test_trace_bad_tokens_rejected():
    with pytest.raises(ParseError):
        parse_trace("digit=x")
    with pytest.raises(ParseError):
        parse_trace("9digit")


@pytest.mark.parametrize(
    "text, error, message, line, col",
    [
        ("go\n  a b@d", ParseError, "bad signal name 'b@d'", 2, 5),
        ("x=1\tx=2", DuplicateAssignment, "signal 'x' assigned twice in one instant", 1, 5),
        ("a v=q", ParseError, "bad integer value 'q' for 'v'", 1, 3),
        ("; c\n9digit", ParseError, "bad signal name '9digit'", 2, 1),
        ("é", ParseError, "bad signal name 'é'", 1, 1),
        ("x=1 é=2", ParseError, "bad signal name 'é'", 1, 5),
        # A form feed is whitespace, not a line break.
        ("a\x0c\x0cbad!", ParseError, "bad signal name 'bad!'", 1, 4),
    ],
)
def test_trace_error_class_message_and_position(text, error, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_trace(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} at line {line}, column {col}"
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "src, error, message, line, col",
    [
        ('(nothing) "abc', ParseError, "unterminated string", 1, 11),
        ("(nothing) )", ParseError, "trailing content after expression", 1, 11),
        ("\t(halt) (x", ParseError, "trailing content after expression", 1, 9),
        ('(rexp (seq (print "a\\q")))', ParseError, "unknown escape \\q", 1, 21),
        ('(rexp (seq (print "a\\', ParseError, "unterminated escape", 1, 21),
        ('(rexp (seq (print "a\\\n")))', ParseError, "unknown escape \\\n", 1, 21),
        ("(merge (nothing)\n\t(wat))", UnknownForm, "unknown expression form 'wat'", 2, 2),
        ("(rexp (seq (stop) (zap)))", UnknownForm, "unknown program form 'zap'", 1, 19),
        ("(init (zap) (nothing))", UnknownForm, "unknown action form 'zap'", 1, 7),
        ("(rif (foo) (nothing) (halt))", UnknownForm, "unknown condition form 'foo'", 1, 6),
        ("(rif (= (bar) 1) (nothing) (halt))", UnknownForm, "unknown integer form 'bar'", 1, 9),
        ("(rif (= 1) (nothing) (halt))", ArityError, "(= ...) takes 2 argument(s), got 1", 1, 6),
        ("(nothing x)", ArityError, "(nothing ...) takes 0 argument(s), got 1", 1, 1),
        ("(par)", ArityError, "(par ...) takes at least 1 argument(s), got 0", 1, 1),
        ("(init x (nothing))", ParseError, "expected an action", 1, 7),
        ('(rexp "s")', ParseError, "expected a program form", 1, 7),
        ("(rif maybe (nothing) (halt))", ParseError, "expected condition, got 'maybe'", 1, 6),
        ("(rif (= x 1) (nothing) (halt))", ParseError, "expected integer expression, got 'x'", 1, 9),
        ("(rexp (set x (cell 1)))", ParseError, "expected cell name", 1, 20),
        # Names are ASCII identifiers only.
        ("(rexp (raise é))", ParseError, "expected tag name", 1, 14),
        ("(rif (sig 1x) (nothing) (halt))", ParseError, "expected signal name", 1, 11),
        ("(repeat x (halt))", ParseError, "expected a non-negative integer literal", 1, 9),
        # A repeat's count is checked where it is read, inside a count-0
        # repeat's body too.
        ("(repeat -1 (halt))", ParseError, "expected a non-negative integer literal", 1, 9),
        ("(repeat 0 (repeat -1 (halt)))", ParseError, "expected a non-negative integer literal", 1, 19),
        ("(rexp (print x))", ParseError, "expected a string literal", 1, 14),
        ("(rexp ())", ParseError, "empty form where a program form expected", 1, 7),
        ("((nothing))", ParseError, "form head must be a symbol", 1, 1),
        ('(rexp (seq ("seq")))', ParseError, "form head must be a symbol", 1, 12),
        ("(loop\n  (rexp (seq)) ", ParseError, "unclosed parenthesis", 1, 1),
        ("\n )", ParseError, "unexpected ')'", 2, 2),
        # Gaps with several newlines, CRLF line ends and a comment.
        ("(merge (nothing)\r\n\r\n; c )\n\t(wat))", UnknownForm, "unknown expression form 'wat'", 4, 2),
        ('(rexp\r\n\r\n  (seq (print "ok")\n\n (print "a\\q")))', ParseError, "unknown escape \\q", 5, 11),
        # A form that also appears where it is valid keeps its own position.
        ('(rexp (seq (print "x")\n  (activate (print "x"))))', UnknownForm, "unknown expression form 'print'", 2, 13),
        # A line repeated at top level; a repeated line that closes one form
        # too many; a line kept from its repeats inside a form, then at top
        # level.
        ("(nothing)\n(nothing)\n", ParseError, "trailing content after expression", 2, 1),
        ("(par (par\n  (halt))\n  (halt))\n  (halt))\n", ParseError, "trailing content after expression", 4, 3),
        ("(par\n (halt)\n (halt)\n (halt)\n)\n (halt)\n", ParseError, "trailing content after expression", 6, 2),
    ],
)
def test_parse_error_class_message_and_position(src, error, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} at line {line}, column {col}"
    assert (exc.value.line, exc.value.col) == (line, col)


@needs_print_limit
def test_render_raises_on_a_literal_past_the_print_limit():
    with pytest.raises(ValueError):
        render(RexpExpr(SetCell("x", IntConst(10 ** print_limit()))))


def test_render_walks_a_5000_branch_par_without_recursion():
    text = "(par " + " ".join(["(nothing)"] * 5000) + ")"
    ast = parse_program(text)
    assert render(ast) == text  # one (par ...), not a chain of merges
    # One flat node: equality and hashing do not recurse per branch.
    again = parse_program(text)
    assert again == ast
    assert hash(again) == hash(ast)


@pytest.mark.parametrize(
    "opening, closing",
    [
        ("(close ", ")"),
        # The first argument is built by a call, so this nests the builder.
        ("(merge ", " (halt))"),
    ],
)
def test_900_nested_levels_parse(opening, closing):
    ast = parse_program(opening * 900 + "(nothing)" + closing * 900)
    # render prints every merge as a par.
    assert render(ast).count(opening.replace("(merge ", "(par ")) == 900


@pytest.mark.parametrize("opening, closing", [("(par (nothing) ", ")"), ('(rexp (seq (print "a") (activate ', ")))")])
def test_5000_levels_nested_through_a_star_row_parse_and_render_back(opening, closing):
    # A star row's last argument is built by the builder's loop.
    depth = 5000
    text = opening * depth + "(nothing)" + closing * depth
    assert render(parse_program(text)) == text


def test_200_nested_rexp_levels_parse_and_compile():
    depth = 200
    env = Environment()
    compile_expr(parse_program('(rexp (seq (print "a") (activate ' * depth + "(nothing)" + ")))" * depth), env)
    assert len(env.nodes) == depth + 1


def test_900_nested_rexp_levels_built_as_an_ast_compile():
    # Built directly, so only compile_expr is tested here.
    depth = 900
    ast = NothingExpr()
    for _ in range(depth):
        ast = RexpExpr(Seq((Print("a"), Activate(ast))))
    env = Environment()
    compile_expr(ast, env)
    assert len(env.nodes) == depth + 1


def test_compile_allocates_in_program_order():
    """compile_expr lays out a rexp body in one walk; the node table must be
    the one that rexp gives for the same program converted by hand, with
    each activated expression compiled first, in program order."""
    source = (
        '(rexp (seq (print "a") (activate (rexp (seq (print "b") (stop))))'
        ' (handle T (seq (set x 1) (activate (nothing)) (raise T))'
        ' (seq (activate (halt)) (print "c")))'
        " (activate (loop (rexp (stop))))))"
    )
    env = Environment()
    root = compile_expr(parse_program(source), env)

    by_hand = Environment()
    first, second, third, fourth = (
        compile_expr(parse_program(text), by_hand)
        for text in ('(rexp (seq (print "b") (stop)))', "(nothing)", "(halt)", "(loop (rexp (stop)))")
    )
    program = Seq((
        Print("a"),
        Activate(first),
        Handle(
            Seq((Atom(build_action(SetCell("x", IntConst(1)))), Activate(second), Raise("T"))),
            "T",
            Seq((Activate(third), Print("c"))),
        ),
        Activate(fourth),
    ))
    assert root == rexp(by_hand, program)
    assert structure(env.nodes) == structure(by_hand.nodes)
    assert env.statuses == by_hand.statuses
    assert [op for op, _ in env.nodes[root].ops] == [TEXT, ACTIVATE, ATOM, ACTIVATE, ATOM, JUMP,
                                                    ACTIVATE, TEXT, ACTIVATE]
    assert env.nodes[root].children == (first, second, third, fourth)


# Each expression form's DSL text, and the same expression built by calling
# the combinators by hand, children in the order the text gives them.
_FORM_CASES = {
    "rexp": ('(rexp (seq (print "a") (stop)))', lambda env: c.rexp(env, Seq((Print("a"), Stop())))),
    "par of 1": ("(par (nothing))", lambda env: c.merge(env, c.nothing(env))),
    "par of 3": ("(par (halt) (nothing) (rexp (stop)))",
                 lambda env: c.merge(env, c.halt(env), c.nothing(env), c.rexp(env, Stop()))),
    "merge": ("(merge (nothing) (halt))", lambda env: c.merge(env, c.nothing(env), c.halt(env))),
    "rif": ("(rif (sig a) (nothing) (halt))", lambda env: c.rif(env, Sig("a"), c.nothing(env), c.halt(env))),
    "close": ("(close (halt))", lambda env: c.close(env, c.halt(env))),
    "loop": ('(loop (rexp (seq (print "x") (stop))))',
             lambda env: c.loop(env, c.rexp(env, Seq((Print("x"), Stop()))))),
    "repeat 0": ("(repeat 0 (halt))", lambda env: c.nothing(env)),
    "repeat 1": ("(repeat 1 (rexp (stop)))", lambda env: c.repeat(env, 1, c.rexp(env, Stop()))),
    "repeat 3": ("(repeat 3 (halt))", lambda env: c.repeat(env, 3, c.halt(env))),
    # A count is any integer literal whose value is 0 or more.
    "repeat -0": ("(repeat -0 (halt))", lambda env: c.nothing(env)),
    "repeat +003": ("(repeat +003 (halt))", lambda env: c.repeat(env, 3, c.halt(env))),
    "init": ("(init (set n 1) (nothing))",
             lambda env: c.init(env, build_action(SetCell("n", IntConst(1))), c.nothing(env))),
    "await": ("(await (sig a) (nothing))", lambda env: c.await_(env, Sig("a"), c.nothing(env))),
    "when": ("(when (sig a) (nothing))", lambda env: c.when(env, Sig("a"), c.nothing(env))),
    "terminate": ("(terminate (sig a) (halt))", lambda env: c.terminate(env, Sig("a"), c.halt(env))),
    "halt": ("(halt)", c.halt),
    "nothing": ("(nothing)", c.nothing),
}


@pytest.mark.parametrize("text, by_hand", _FORM_CASES.values(), ids=_FORM_CASES)
def test_each_expression_form_compiles_as_its_combinators_called_by_hand(text, by_hand):
    """compile_expr calls a form's combinator with its fields in syntax
    order: the same nodes, at the same ids, as calling the combinators by
    hand in the same order."""
    env, hand = Environment(), Environment()
    assert compile_expr(parse_program(text), env) == by_hand(hand)
    assert structure(env.nodes) == structure(hand.nodes)
    assert env.statuses == hand.statuses


def test_every_expression_head_but_rexp_has_a_combinator():
    """The cases above cover every expression head of the grammar, and each
    class they build but RexpExpr has a combinator. Anything else, such as
    a condition, is not an expression."""
    heads = {text[1:].split()[0].rstrip(")") for text, _ in _FORM_CASES.values()}
    assert heads == set(dsl._FORMS["expression"][1])
    classes = {type(parse_program(text)) for text, _ in _FORM_CASES.values()}
    assert classes - {RexpExpr} == set(dsl._COMBINATORS)
    with pytest.raises(TypeError, match=r"^not an expression: Sig\(name='a'\)$"):
        compile_expr(Sig("a"), Environment())


# Edits that break a program in the ways a reader can fail.
_SNIPPETS = ['(', ')', '"', '\\', ';', '\n', '\t', ' ', 'x', '1', '"open', '"a\\q"', '"\\',
             ') (', '()', '(nothing)', '9' * 32, '9' * 5000]


def _mutate(rng: random.Random, text: str) -> str:
    at = rng.randrange(len(text) + 1)
    roll = rng.randrange(5)
    if roll == 0:
        return text[:at] + text[at + 1:]
    if roll == 1:
        return text[:at]
    if roll == 4:
        return text[:at] + rng.choice(_SNIPPETS) + text[at:]
    # A string literal that follows: a bad escape just inside it, or all
    # of it but the opening quote gone.
    quote = text.find('"', at)
    if quote < 0:
        return text
    if roll == 2:
        return text[:quote + 1] + "\\" + rng.choice("qa0 \n") + text[quote + 1:]
    return text[:quote + 1] + text[text.find('"', quote + 1) + 1:]


# Characters that str.splitlines takes for line ends, and the reader for
# text: in an atom, a string literal or a comment.
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


def _over_lines(rng: random.Random, source: str) -> str:
    """source spread over lines that repeat: some forms start a line, the
    whole text may be repeated as the branches of a (par ...), and some
    lines are copied elsewhere. Lines may end in CRLF, or in a comment that
    holds '"' and '('; strings may hold ';'; and characters that
    str.splitlines takes for line ends go into atoms, strings and
    comments."""
    text = "".join("\n  " if c == " " and rng.random() < 0.3 else c for c in source)
    text = text.replace('(print "', '(print "' + rng.choice([";", "a;b", rng.choice(_NOT_LINE_ENDS), ""]))
    if rng.random() < 0.6:
        text = "(par\n  " + "\n  ".join([text] * rng.randint(2, 4)) + ")"
    lines = text.split("\n")
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    for at in rng.sample(range(len(lines)), min(len(lines), rng.randrange(3))):
        lines[at] += ' ; "q" ' + rng.choice(_NOT_LINE_ENDS) + ' ( '
    if rng.random() < 0.2:
        at = rng.randrange(len(lines))
        column = rng.randrange(len(lines[at]) + 1)
        lines[at] = lines[at][:column] + rng.choice(_NOT_LINE_ENDS) + lines[at][column:]
    ends = rng.choice(["\n", "\r\n", None])
    return "".join(line + (ends or rng.choice(["\n", "\r\n"])) for line in lines)


def _read_outcome(parse):
    try:
        return render(parse())
    except ParseError as error:
        return type(error), str(error), error.line, error.col


def _layout(ast):
    """Each node that compile_expr allocates for ast, in id order: its kind,
    the structure of its code and its handle table if it is a basic node,
    and its children; or the compile error."""
    env = Environment()
    try:
        compile_expr(ast, env)
    except CompileError as error:
        return type(error), str(error)
    return [(type(node), structure(getattr(node, "ops", None)), getattr(node, "handles", None), node.children)
            for node in env.nodes.values()]


def test_fast_and_positional_reads_agree():
    """parse_program reads without positions first, each distinct line
    once; the positional reader with the same builder must give the same
    AST, or the same error with the same line and column, also on texts
    whose lines repeat."""
    rng = random.Random(11)
    keypad = (Path(__file__).resolve().parent.parent / "demos" / "keypad.rx").read_text()
    sources = [keypad] + [render(gen_case(seed)[0]) for seed in range(250)]
    texts = []
    for source in sources:
        # Spread some of the text over lines and tabs, so positions vary.
        source = "".join(rng.choice(["\n", "\n\t", " ; c\n"]) if c == " " and rng.random() < 0.2 else c
                         for c in source)
        texts += [source] + [_mutate(rng, source) for _ in range(8)]
    texts.append(f"(rexp\n  (set x {'9' * 5000}))")
    for seed in range(250, 450):
        text = _over_lines(rng, render(gen_case(seed)[0]))
        texts += [text] + [_mutate(rng, text) for _ in range(4)]
    outcomes = set()
    for text in texts:
        fast = _read_outcome(lambda: parse_program(text))
        positional = _read_outcome(lambda: _build(_nest([text], _tokenize), "expression", _tables()))
        assert fast == positional, text
        outcomes.add(fast[0] if isinstance(fast, tuple) else "ok")
        if not isinstance(fast, tuple):
            # The positional read shares no form, so it lays out every
            # leaf on its own; the shared read must lay out the same code.
            assert _layout(parse_program(text)) == _layout(_build(_nest([text], _tokenize), "expression", _tables())), text
    # Both kinds of outcome, and every error class the reader raises.
    assert outcomes == {"ok", ParseError, UnknownForm, ArityError}


def test_each_distinct_line_is_read_once_and_a_repeat_shares_its_forms():
    line = '  (rexp (seq (print "a") (stop))) (halt)'
    lines = ["(par", line, line, "  (nothing)", line, line + ")"]
    read = []
    form = _nest(lines, lambda text: read.append(text) or _TOKEN_RE.findall(text))
    assert sorted(read) == sorted(set(lines))
    # The forms of each repeat are those of the first occurrence.
    assert len(form) == 10
    assert form[1] is form[3] is form[6] is form[8]
    assert form[2] is form[4] is form[7] is form[9]
    ast = parse_program("\n".join(lines))
    assert ast.children[0] is ast.children[2] is ast.children[5]
    # When no line repeats, the lines are read as one.
    read.clear()
    distinct = ["(par", line, "  (nothing))"]
    assert _nest(distinct, lambda text: read.append(text) or _TOKEN_RE.findall(text)) == form[:3] + form[5:6]
    assert read == ["\n".join(distinct)]


def test_a_form_read_under_two_kinds_is_built_once_per_kind(monkeypatch):
    """_build keeps one table per form kind. A form read as a program form
    in a seq, and again as an action inside (do ...) and as the action of
    two inits, is entered once per kind, and every place of one kind holds
    that kind's one AST object."""
    entered = []
    build = dsl._build
    monkeypatch.setattr(dsl, "_build", lambda node, kind, built: entered.append((node, kind))
                        or build(node, kind, built))
    ast = parse_program('(par (rexp (seq (print "x") (do (print "x") (print "x")) (print "x") (print "x")))\n'
                        ' (init (print "x") (halt)) (init (print "x") (nothing)))')
    assert sorted(kind for node, kind in entered if node == ("print", '"x"')) == ["action", "program"]
    body, first_init, last_init = ast.children
    first, actions, *rest = body.program.items
    assert first == Print("x") and all(item is first for item in rest)
    assert actions.items[0] == Print("x") and actions.items[0] is not first
    assert actions.items[1] is first_init.action is last_init.action is actions.items[0]


def _distinct_forms(form) -> int:
    seen = set()
    pending = [form]
    while pending:
        form = pending.pop()
        if isinstance(form, tuple) and id(form) not in seen:
            seen.add(id(form))
            pending += form
    return len(seen)


def _repeated_bodies(steps: int) -> str:
    """A (par ...) of rexp bodies, each a seq of one step line repeated;
    the last body is the first one again."""
    bodies = []
    for cell in ("a", "b", "c", "a"):
        step = f'    (set {cell} (+ (cell {cell}) (value v))) (print "{cell}={{cell:{cell}}}") (stop)'
        bodies.append("  (rexp (seq\n" + "\n".join([step] * steps) + "))")
    return "(par\n" + "\n".join(bodies) + ")"


def test_a_repeated_form_is_built_once_and_a_repeated_spec_compiled_once_per_body(monkeypatch):
    """A repeat of a form already built costs a lookup: parse_program
    enters _build at most once per distinct (form, kind) pair, plus the
    root, however often the form repeats; and compile_expr compiles each
    distinct spec object once per rexp body it lays out."""
    entered = []
    build = dsl._build
    monkeypatch.setattr(dsl, "_build", lambda node, kind, built: entered.append((id(node), kind))
                        or build(node, kind, built))
    counts = []
    for steps in (10, 40):
        text = _repeated_bodies(steps)
        entered.clear()
        ast = parse_program(text)
        assert len(entered) == len(set(entered)) <= _distinct_forms(_nest(text.split("\n"))) + 1
        counts.append(len(entered))
    assert counts[0] == counts[1]
    assert ast.children[0] is ast.children[3]

    compiled = []
    monkeypatch.setattr(program_module, "build_action", lambda spec: compiled.append(spec) or build_action(spec))
    env = Environment()
    root = compile_expr(ast, env)
    per_body = [{id(item): item for item in body.program.items if isinstance(item, (Print, SetCell))}
                for body in ast.children]
    assert [len(specs) for specs in per_body] == [2, 2, 2, 2]
    assert sorted(map(id, compiled)) == sorted(key for specs in per_body for key in specs)
    assert react_once(env, root) == (["a=0", "b=0", "c=0", "a=0"], False)
