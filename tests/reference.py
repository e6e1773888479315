"""Direct-recursive reference interpreter used as a differential oracle.

This is a second, independent implementation of the reactive semantics. It
interprets parsed surface-language trees directly: basic programs run as
Python generators that yield at their control points, composite expressions
are stepped by plain recursion, and the event world is a handful of dicts.
Only the AST dataclasses are shared with the package under test (the
DSL's expression classes, and the instruction and action classes its
program forms parse to); evaluation, scheduling, duplication-by-rebuilding,
and the outcome algebra are all re-implemented here.

Loop and repeat bodies are always pristine when copied (they come straight
from an AST), so "duplicate at current state" degenerates to rebuilding the
body from its tree, which is what makes the generator representation viable.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from instants.core import Limits
from instants.dsl import (
    AwaitExpr,
    CloseExpr,
    ExprAst,
    HaltExpr,
    InitExpr,
    LoopExpr,
    MergeExpr,
    NothingExpr,
    RepeatExpr,
    RexpExpr,
    RifExpr,
    TerminateExpr,
    WhenExpr,
    compile_expr,
)
from instants.kernel import Environment
from instants.program import Activate, Handle, Raise, Seq, Stop, Suspend
from instants.world import (
    ActionSeq,
    And,
    BinOp,
    BoolConst,
    CellRef,
    Compare,
    InstantEvents,
    IntConst,
    Negate,
    Not,
    Or,
    Print,
    SetCell,
    Sig,
    ValueRef,
)

SUSP, STOP, END = "SUSP", "STOP", "END"

# The outcome combination table, written out entry by entry.
_STAR = {
    (SUSP, SUSP): SUSP,
    (SUSP, STOP): SUSP,
    (SUSP, END): SUSP,
    (STOP, SUSP): SUSP,
    (STOP, STOP): STOP,
    (STOP, END): STOP,
    (END, SUSP): SUSP,
    (END, STOP): STOP,
    (END, END): END,
}


class OracleAbort(Exception):
    def __init__(self, tag: str):
        super().__init__(tag)
        self.tag = tag


class OracleError(Exception):
    def __init__(self, label: str):
        super().__init__(label)
        self.label = label


@dataclass
class OracleWorld:
    signals: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    cells: dict = field(default_factory=dict)
    out: list = field(default_factory=list)

    def begin(self, events):
        self.signals = {}
        self.values = {}
        self.out = []
        if events is not None:
            for name in sorted(events.signals):
                self.signals[name] = True
            for name, value in events.values.items():
                self.signals[name] = True
                self.values[name] = value


_TPL = re.compile(r"\{(cell|value):([A-Za-z_][A-Za-z0-9_]*)\}")


def _render(template, w):
    def sub(m):
        if m.group(1) == "cell":
            return str(w.cells.get(m.group(2), 0))
        return str(w.values.get(m.group(2), 0))

    return _TPL.sub(sub, template)


def _tpl_reads(template):
    return any(m.group(1) == "value" for m in _TPL.finditer(template))


def _ev_int(e, w):
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, CellRef):
        return w.cells.get(e.name, 0)
    if isinstance(e, ValueRef):
        return w.values.get(e.name, 0)
    if isinstance(e, BinOp):
        a, b = _ev_int(e.left, w), _ev_int(e.right, w)
        if e.op == "+":
            result = a + b
        elif e.op == "-":
            result = a - b
        elif e.op == "*":
            result = a * b
        else:
            raise ValueError(e.op)
        # A result with more decimal digits than the host prints is an
        # error. A host that prints any length is held to CPython's
        # default limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        try:
            too_long = len(str(abs(result))) > limit
        except ValueError:
            too_long = True
        if too_long:
            raise OracleError("IntegerTooLarge")
        return result
    if isinstance(e, Negate):
        return -_ev_int(e.item, w)
    raise TypeError(e)


def _ev_cond(c, w):
    if isinstance(c, Sig):
        return w.signals.get(c.name, False)
    if isinstance(c, BoolConst):
        return c.value
    if isinstance(c, Not):
        return not _ev_cond(c.item, w)
    if isinstance(c, And):
        return _ev_cond(c.left, w) and _ev_cond(c.right, w)
    if isinstance(c, Or):
        return _ev_cond(c.left, w) or _ev_cond(c.right, w)
    if isinstance(c, Compare):
        a, b = _ev_int(c.left, w), _ev_int(c.right, w)
        if c.op == "=":
            return a == b
        if c.op == "<":
            return a < b
        if c.op == "<=":
            return a <= b
        raise ValueError(c.op)
    raise TypeError(c)


def _int_reads(e):
    if isinstance(e, ValueRef):
        return True
    if isinstance(e, BinOp):
        return _int_reads(e.left) or _int_reads(e.right)
    if isinstance(e, Negate):
        return _int_reads(e.item)
    return False


def _cond_reads(c):
    if isinstance(c, Sig):
        return True
    if isinstance(c, Not):
        return _cond_reads(c.item)
    if isinstance(c, (And, Or)):
        return _cond_reads(c.left) or _cond_reads(c.right)
    if isinstance(c, Compare):
        return _int_reads(c.left) or _int_reads(c.right)
    return False


def _action_reads(a):
    if isinstance(a, Print):
        return _tpl_reads(a.template)
    if isinstance(a, SetCell):
        return _int_reads(a.value)
    if isinstance(a, ActionSeq):
        return any(_action_reads(item) for item in a.items)
    return False


class _Basic:
    def __init__(self, gen):
        self.status = STOP
        self.gen = gen


class _Merge:
    def __init__(self, a, b):
        self.status = STOP
        self.a = a
        self.b = b


class _Rif:
    def __init__(self, cond, t, e):
        self.status = STOP
        self.cond = cond
        self.t = t
        self.e = e


class _Close:
    def __init__(self, c):
        self.status = STOP
        self.c = c


class _Loop:
    def __init__(self, body_ast, cur):
        self.status = STOP
        self.body_ast = body_ast
        self.cur = cur


class _Repeat:
    def __init__(self, body_ast, cur, remaining):
        self.status = STOP
        self.body_ast = body_ast
        self.cur = cur
        self.remaining = remaining


class _Init:
    def __init__(self, action, child):
        self.status = STOP
        self.action = action
        self.child = child


class _Await:
    def __init__(self, cond, child):
        self.status = STOP
        self.cond = cond
        self.child = child
        self.latched = False


class Oracle:
    def __init__(self, max_micro=10_000, max_restarts=1_000_000):
        self.w = OracleWorld()
        self.reads = 0
        self.max_micro = max_micro
        self.max_restarts = max_restarts

    # -- construction ------------------------------------------------------

    def build(self, ast: ExprAst):
        if isinstance(ast, RexpExpr):
            return _Basic(self.run_prog(ast.program))
        if isinstance(ast, MergeExpr):
            # An n-ary merge is checked against the binary rule: its
            # branches fold into a balanced tree of binary merges, in
            # order, as star's associativity allows, so stepping it
            # recurses as deep as the log of its width.
            nodes = [self.build(child) for child in ast.children]
            while len(nodes) > 1:
                pairs = [_Merge(a, b) for a, b in zip(nodes[::2], nodes[1::2])]
                nodes = pairs + nodes[2 * len(pairs):]
            return nodes[0]
        if isinstance(ast, RifExpr):
            return _Rif(ast.cond, self.build(ast.then_expr), self.build(ast.else_expr))
        if isinstance(ast, CloseExpr):
            return _Close(self.build(ast.child))
        if isinstance(ast, LoopExpr):
            return _Loop(ast.body, self.build(ast.body))
        if isinstance(ast, RepeatExpr):
            if ast.count == 0:
                return self.build(NothingExpr())
            return _Repeat(ast.body, self.build(ast.body), ast.count)
        if isinstance(ast, InitExpr):
            return _Init(ast.action, self.build(ast.body))
        if isinstance(ast, AwaitExpr):
            return _Await(ast.cond, self.build(ast.body))
        if isinstance(ast, WhenExpr):
            return self.build(RifExpr(ast.cond, ast.body, HaltExpr()))
        if isinstance(ast, TerminateExpr):
            return self.build(RifExpr(ast.cond, NothingExpr(), ast.body))
        if isinstance(ast, HaltExpr):
            return self.build(LoopExpr(RexpExpr(Seq((Stop(),)))))
        if isinstance(ast, NothingExpr):
            return _Basic(self.run_prog(Seq(())))
        raise TypeError(ast)

    # -- basic programs as generators --------------------------------------

    def exec_action(self, spec):
        if _action_reads(spec):
            self.reads += 1
        self._exec_spec(spec)

    def _exec_spec(self, spec):
        if isinstance(spec, Print):
            self.w.out.append(_render(spec.template, self.w))
        elif isinstance(spec, SetCell):
            self.w.cells[spec.name] = _ev_int(spec.value, self.w)
        elif isinstance(spec, Raise):
            raise OracleAbort(spec.tag)
        elif isinstance(spec, ActionSeq):
            for item in spec.items:
                self._exec_spec(item)
        else:
            raise TypeError(spec)

    def run_prog(self, prog):
        if isinstance(prog, Seq):
            for item in prog.items:
                yield from self.run_prog(item)
        elif isinstance(prog, Print):
            if _tpl_reads(prog.template):
                self.reads += 1
            self.w.out.append(_render(prog.template, self.w))
        elif isinstance(prog, SetCell):
            if _int_reads(prog.value):
                self.reads += 1
            self.w.cells[prog.name] = _ev_int(prog.value, self.w)
        elif isinstance(prog, Stop):
            yield STOP
        elif isinstance(prog, Suspend):
            yield SUSP
        elif isinstance(prog, Raise):
            raise OracleAbort(prog.tag)
        elif isinstance(prog, ActionSeq):
            # One action, as the engine's single ATOM runs it: one read.
            self.exec_action(prog)
        elif isinstance(prog, Activate):
            node = self.build(prog.child)
            while True:
                st = self.step(node)
                if st == END:
                    break
                yield st
        elif isinstance(prog, Handle):
            it = self.run_prog(prog.body)
            while True:
                try:
                    v = next(it)
                except StopIteration:
                    break
                except OracleAbort as ab:
                    if ab.tag == prog.tag:
                        yield from self.run_prog(prog.handler)
                        break
                    raise
                yield v
        else:
            raise TypeError(prog)

    # -- stepping -----------------------------------------------------------

    def step(self, n):
        if n.status == END:
            return END
        try:
            st = self._dispatch(n)
        except OracleAbort:
            n.status = END
            raise
        n.status = st
        return st

    def _dispatch(self, n):
        if isinstance(n, _Basic):
            try:
                return next(n.gen)
            except StopIteration:
                n.gen = None
                return END
        if isinstance(n, _Merge):
            ls, rs = n.a.status, n.b.status
            if ls == SUSP and rs != SUSP:
                a = self.step(n.a)
                return _STAR[(a, n.b.status)]
            if rs == SUSP and ls != SUSP:
                b = self.step(n.b)
                return _STAR[(n.a.status, b)]
            a = self.step(n.a)
            b = self.step(n.b)
            return _STAR[(a, b)]
        if isinstance(n, _Rif):
            if n.t.status == SUSP:
                return self.step(n.t)
            if n.e.status == SUSP:
                return self.step(n.e)
            if _cond_reads(n.cond):
                self.reads += 1
            return self.step(n.t if _ev_cond(n.cond, self.w) else n.e)
        if isinstance(n, _Close):
            return self.close_steps(n.c)
        if isinstance(n, _Loop):
            restarts = 0
            before = self.reads
            st = self.step(n.cur)
            while st == END:
                observed = self.reads > before
                n.cur = self.build(n.body_ast)
                if observed:
                    return STOP
                restarts += 1
                if restarts > self.max_restarts:
                    raise OracleError("InstantaneousLoop")
                before = self.reads
                st = self.step(n.cur)
            return st
        if isinstance(n, _Repeat):
            restarts = 0
            before = self.reads
            st = self.step(n.cur)
            while st == END:
                n.remaining -= 1
                if n.remaining <= 0:
                    return END
                observed = self.reads > before
                n.cur = self.build(n.body_ast)
                if observed:
                    return STOP
                restarts += 1
                if restarts > self.max_restarts:
                    raise OracleError("InstantaneousLoop")
                before = self.reads
                st = self.step(n.cur)
            return st
        if isinstance(n, _Init):
            self.exec_action(n.action)
            return self.step(n.child)
        if isinstance(n, _Await):
            if not n.latched:
                if _cond_reads(n.cond):
                    self.reads += 1
                if not _ev_cond(n.cond, self.w):
                    return STOP
                n.latched = True
            return self.step(n.child)
        raise TypeError(n)

    def close_steps(self, n):
        st = self.step(n)
        k = 1
        while st == SUSP:
            if k >= self.max_micro:
                raise OracleError("MicroStepLimitExceeded")
            st = self.step(n)
            k += 1
        return st

    def react(self, n):
        try:
            st = self.close_steps(n)
        except OracleAbort as ab:
            raise OracleError(f"UncaughtAbort:{ab.tag}") from None
        return st == END


def oracle_run(ast: ExprAst, trace: list[InstantEvents], *, max_micro=10_000, max_restarts=1_000_000):
    """Run the oracle over one instant per trace entry.

    Returns (instants, terminated, error) where instants is a list of
    (outputs tuple, status string).
    """
    oracle = Oracle(max_micro=max_micro, max_restarts=max_restarts)
    root = oracle.build(ast)
    instants = []
    terminated = False
    error = None
    for events in trace:
        oracle.w.begin(events)
        try:
            done = oracle.react(root)
        except OracleError as err:
            error = err.label
            break
        instants.append((tuple(oracle.w.out), root.status))
        if done:
            terminated = True
            break
    return instants, terminated, error


def engine_run(ast: ExprAst, trace: list[InstantEvents], *, max_micro=10_000, max_restarts=1_000_000):
    """Run the engine under test over the same inputs, same result shape.
    Asserts that the run allocated no node: restarts reset in place."""
    env = Environment(limits=Limits(max_micro_steps=max_micro, max_loop_restarts=max_restarts))
    root = compile_expr(ast, env)
    compiled = len(env.nodes)
    result = env.react_t(root, max(1, len(trace)), trace)
    assert len(env.nodes) == compiled, f"the run grew the node table from {compiled} to {len(env.nodes)}"
    instants = [(tuple(record.outputs), record.status.name) for record in result.instants]
    return instants, result.terminated, result.error
