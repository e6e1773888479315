"""Basic reactive expressions: instruction trees compiled to flat code, and
the node that runs it.

A basic reactive expression is a finite instruction tree executed one
activation at a time. Stop and Suspend are the control points that end an
activation; Activate hands the instant over to another reactive expression;
Raise and Handle carry preemption.

rexp compiles the tree once, without recursion, into flat code: a tuple of
``(op, arg)`` instructions run with an integer pc. Seq leaves no trace in
it. The opcodes are:

- ``ATOM action``: run a host action.
- ``PAUSE status``: end the activation with STOP or SUSP, pc past it.
- ``ACTIVATE k``: step child k. When the child ends, run on; otherwise
  end the activation with its status and leave pc on this instruction, so
  the next activation steps the child again.
- ``RAISE tag``: abort with the tag.
- ``PUSH (tag, pc)``: arm a handler whose code starts at pc.
- ``POP pc``: disarm the innermost handler and jump to pc.

``Handle(body, tag, handler)`` becomes PUSH, the body, a POP that jumps
over the handler's code, then that code. A caught abort jumps forward to
the handler's code with the handlers outside it still armed, so pc only
moves forward.

A BasicNode is the kernel's node for a basic expression, and this module
is the only one that knows the code's layout. The node holds the shared
code, its children, and the expression's own state: pc and the armed
handlers as an immutable tuple. The children are the targets of all the
Activate instructions in code order. They do not change as pc moves, so a
copy also keeps the targets pc has passed, with their statuses, and never
steps them. The state a loop saves is the pair of pc and handlers.

Besides the instructions, a program may hold the action specs Print,
SetCell and ActionSeq, each laid out as an ATOM of its compiled action;
Raise is one class with the action spec, and stays a RAISE instruction.
So a rexp body the DSL parses is a program as it stands. Layout never
looks inside an Activate: the DSL puts an expression's AST there, lays
the body out, then compiles the node's children, the targets in code
order, to ids before it allocates the node.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .core import Abort, END, ReactiveId, Status, STOP, SUSP
from .world import ActionSeq, HostAction, Print, Raise, SetCell, build_action

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Environment


@dataclass(frozen=True)
class Atom:
    action: HostAction


@dataclass(frozen=True)
class Seq:
    items: tuple["Program", ...]


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class Suspend:
    pass


@dataclass(frozen=True)
class Activate:
    child: ReactiveId


@dataclass(frozen=True)
class Handle:
    body: "Program"
    tag: str
    handler: "Program"


Program = Union[Atom, Seq, Stop, Suspend, Activate, Raise, Handle, Print, SetCell, ActionSeq]


def seq(*items: Program) -> Seq:
    return Seq(tuple(items))


EMPTY_PROGRAM = Seq(())

ATOM, PAUSE, ACTIVATE, RAISE, PUSH, POP = range(6)

# The armed handlers, innermost last: each is its tag and the pc of its code.
Handlers = tuple[tuple[str, int], ...]


@dataclass(slots=True)
class BasicNode:
    ops: tuple[tuple[int, object], ...]
    children: tuple[ReactiveId, ...]
    pc: int = 0
    handlers: Handlers = ()

    @property
    def done(self) -> bool:
        return self.pc >= len(self.ops)

    def step(self, env: Environment) -> Status:
        return run_resumption(env, self)

    def save(self) -> tuple[int, Handlers]:
        return self.pc, self.handlers

    def load(self, state: tuple[int, Handlers]) -> None:
        self.pc, self.handlers = state


def initial_resumption(program: Program) -> BasicNode:
    """Compile program to flat code in a node positioned at its first
    instruction. A Print, SetCell or ActionSeq item becomes an ATOM of its
    compiled action; any item that is neither that nor an instruction
    raises TypeError."""
    ops: list = []
    targets: list[ReactiveId] = []
    # Besides instructions, the stack holds ("body", at) and ("handler", at)
    # marks: the end of the body or handler code of the Handle at pc ``at``.
    pending: list = [program]
    while pending:
        item = pending.pop()
        if isinstance(item, Seq):
            pending.extend(reversed(item.items))
        elif isinstance(item, Atom):
            ops.append((ATOM, item.action))
        elif isinstance(item, (Print, SetCell, ActionSeq)):
            ops.append((ATOM, build_action(item)))
        elif isinstance(item, Stop):
            ops.append((PAUSE, STOP))
        elif isinstance(item, Suspend):
            ops.append((PAUSE, SUSP))
        elif isinstance(item, Activate):
            ops.append((ACTIVATE, len(targets)))
            targets.append(item.child)
        elif isinstance(item, Raise):
            ops.append((RAISE, item.tag))
        elif isinstance(item, Handle):
            pending += (("handler", len(ops)), item.handler, ("body", len(ops)), item.body)
            ops.append((PUSH, item.tag))
        elif item.__class__ is not tuple:
            raise TypeError(f"not an instruction: {item!r}")
        elif item[0] == "body":
            # The handler's code starts after the POP placed here.
            at = item[1]
            ops[at] = (PUSH, (ops[at][1], len(ops) + 1))
            ops.append(None)
        else:
            _, (_, handler_pc) = ops[item[1]]
            ops[handler_pc - 1] = (POP, len(ops))
    return BasicNode(tuple(ops), tuple(targets))


def _unwind(handlers: Handlers, tag: str) -> tuple[int, Handlers] | None:
    """The pc of the innermost handler for tag and the handlers outside it,
    or None when no armed handler matches."""
    for depth in range(len(handlers) - 1, -1, -1):
        handler_tag, handler_pc = handlers[depth]
        if handler_tag == tag:
            return handler_pc, handlers[:depth]
    return None


def run_resumption(env: Environment, node: BasicNode) -> Status:
    """Execute one activation of a basic reactive expression.

    Runs instructions until the program is exhausted (END), a Stop or
    Suspend is executed, or an activated child pauses. An abort raised by
    an action, a Raise, or an activated child jumps to the innermost armed
    handler with the same tag and continues there within this activation;
    with no matching handler the node is finished and the abort
    propagates to the caller.
    """
    ops, children = node.ops, node.children
    pc, handlers = node.pc, node.handlers
    end = len(ops)
    while True:
        try:
            while pc < end:
                op, arg = ops[pc]
                if op == ATOM:
                    pc += 1
                    env.run_action(arg)
                elif op == PAUSE:
                    pc += 1
                    return arg
                elif op == ACTIVATE:
                    status = env.step(children[arg])
                    if status is not END:
                        return status
                    pc += 1
                elif op == PUSH:
                    pc += 1
                    handlers += (arg,)
                elif op == POP:
                    pc = arg
                    handlers = handlers[:-1]
                else:
                    pc += 1
                    raise Abort(arg)
            return END
        except Abort as abort:
            caught = _unwind(handlers, abort.tag)
            if caught is None:
                pc, handlers = end, ()
                raise
            pc, handlers = caught
        finally:
            node.pc, node.handlers = pc, handlers
