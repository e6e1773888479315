"""Surface language: parsing, rendering, compiling, trace files."""
from __future__ import annotations

import gc
import random
import weakref
from pathlib import Path

import pytest

from instants import Environment, parse_program, parse_trace, render, rexp
from instants.dsl import (
    ArityError,
    DuplicateAssignment,
    MergeExpr,
    NegativeRepeatCount,
    NothingExpr,
    ParseError,
    RexpExpr,
    UnknownForm,
    _build,
    _nest,
    _tokenize,
    compile_expr,
)
from instants.program import ACTIVATE, ATOM, JUMP, Activate, Atom, Handle, Raise, Seq, Stop, Suspend
from instants.world import InstantEvents, IntConst, Print, SetCell, build_action

from genprog import gen_case
from helpers import needs_print_limit, print_limit, react_once

MERGE_SRC = (
    '(merge (rexp (seq (print "1") (stop) (print "2")))'
    ' (rexp (seq (print "A") (stop) (print "B"))))'
)


def test_parse_merge_example():
    ast = parse_program(MERGE_SRC)
    assert isinstance(ast, MergeExpr)
    assert isinstance(ast.left, RexpExpr)
    assert ast.left.program == Seq(
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
    with pytest.raises(ArityError):
        parse_program("(merge (nothing))")


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


def test_par_folds_right_into_merges():
    ast = parse_program("(par (nothing) (halt) (nothing))")
    assert isinstance(ast, MergeExpr)
    assert isinstance(ast.right, MergeExpr)
    assert render(ast) == "(merge (nothing) (merge (halt) (nothing)))"


def test_comments_and_strings():
    ast = parse_program('; header\n(rexp (seq (print "a;b \\"q\\" \\n")))  ; tail')
    assert ast.program.items[0] == Print('a;b "q" \n')


def test_program_forms_parse_to_the_engine_classes():
    ast = parse_program('(rexp (seq (print "a") (set x 1) (stop) (suspend) (raise T)))')
    assert ast.program == Seq((Print("a"), SetCell("x", IntConst(1)), Stop(), Suspend(), Raise("T")))
    # A parsed body is a library program: rexp takes it as it stands.
    env = Environment()
    assert react_once(env, rexp(env, ast.program)) == (["a"], False)


def test_render_parse_round_trip():
    src = (
        '(rif (and (sig go) (<= (cell x) 5))'
        ' (init (do (print "hi") (set x (+ (cell x) 1)) (raise T)) (nothing))'
        ' (close (loop (rexp (seq (handle T (activate (when (sig a) (halt))) (seq))'
        ' (suspend) (raise U))))))'
    )
    ast = parse_program(src)
    assert parse_program(render(ast)) == ast


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
    src = '(rexp (seq (print "shared x") (stop) (print "shared x") (print "other x")))'
    root = compile_expr(parse_program(src), env)
    first, second, other = [arg for op, arg in env.nodes[root].ops if op == ATOM]
    assert first is second and first is not other
    assert react_once(env, root) == (["shared x"], False)
    assert react_once(env, root) == (["shared x", "other x"], True)
    # The shared action lives only as long as a program holds it.
    action = weakref.ref(first)
    del env, root, first, second, other
    gc.collect()
    assert action() is None


def test_negative_repeat_count_rejected_at_compile():
    env = Environment()
    ast = parse_program("(repeat -1 (halt))")
    with pytest.raises(NegativeRepeatCount):
        compile_expr(ast, env)


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


def test_trace_lines_end_only_at_newline():
    assert parse_trace("a\x0cb\n") == [InstantEvents(frozenset({"a", "b"}), {})]
    # CRLF line ends, a blank last line and comment-only lines as before.
    assert parse_trace("a\r\nb=2\r\n\r\n") == [
        InstantEvents(frozenset({"a"}), {}), InstantEvents(frozenset(), {"b": 2}), InstantEvents()]
    assert parse_trace("a\n\n") == [InstantEvents(frozenset({"a"}), {}), InstantEvents()]
    assert parse_trace("; c\r\na\n  ; d") == [InstantEvents(frozenset({"a"}), {})]


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
        ("(repeat x (halt))", ParseError, "expected an integer literal", 1, 9),
        ("(rexp (print x))", ParseError, "expected a string literal", 1, 14),
        ("(rexp ())", ParseError, "empty form where a program form expected", 1, 7),
        ("((nothing))", ParseError, "form head must be a symbol", 1, 1),
        ('(rexp (seq ("seq")))', ParseError, "form head must be a symbol", 1, 12),
        ("(loop\n  (rexp (seq)) ", ParseError, "unclosed parenthesis", 1, 1),
        ("\n )", ParseError, "unexpected ')'", 2, 2),
        # Gaps with several newlines, CRLF line ends and a comment.
        ("(merge (nothing)\r\n\r\n; c )\n\t(wat))", UnknownForm, "unknown expression form 'wat'", 4, 2),
        ('(rexp\r\n\r\n  (seq (print "ok")\n\n (print "a\\q")))', ParseError, "unknown escape \\q", 5, 11),
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
    ast = parse_program("(par " + "(nothing) " * 5000 + ")")
    text = render(ast)
    assert text.count("(merge ") == 4999
    assert render(parse_program(text)) == text


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
    assert render(ast).count(opening) == 900


def test_200_nested_rexp_levels_parse_and_compile():
    depth = 200
    env = Environment()
    compile_expr(parse_program('(rexp (seq (print "a") (activate ' * depth + "(nothing)" + ")))" * depth), env)
    assert len(env.nodes) == depth + 1


def test_900_nested_rexp_levels_built_as_an_ast_compile():
    # Built directly: parsing this shape nests the builder through seq's
    # arguments.
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
        Atom(build_action(Print("a"))),
        Activate(first),
        Handle(
            Seq((Atom(build_action(SetCell("x", IntConst(1)))), Activate(second), Raise("T"))),
            "T",
            Seq((Activate(third), Atom(build_action(Print("c"))))),
        ),
        Activate(fourth),
    ))
    assert root == rexp(by_hand, program)
    assert env.nodes == by_hand.nodes
    assert env.statuses == by_hand.statuses
    assert [op for op, _ in env.nodes[root].ops] == [ATOM, ACTIVATE, ATOM, ACTIVATE, ATOM, JUMP,
                                                    ACTIVATE, ATOM, ACTIVATE]
    assert env.nodes[root].children == (first, second, third, fourth)


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


def _read_outcome(parse):
    try:
        return render(parse())
    except ParseError as error:
        return type(error), str(error), error.line, error.col


def test_fast_and_positional_reads_agree():
    """parse_program reads without positions first; the positional reader
    with the same builder must give the same AST, or the same error with
    the same line and column."""
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
    outcomes = set()
    for text in texts:
        fast = _read_outcome(lambda: parse_program(text))
        positional = _read_outcome(lambda: _build(_nest(_tokenize(text)), "expression"))
        assert fast == positional, text
        outcomes.add(fast[0] if isinstance(fast, tuple) else "ok")
    # Both kinds of outcome, and every error class the reader raises.
    assert outcomes == {"ok", ParseError, UnknownForm, ArityError}
