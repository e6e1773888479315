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
- ``JUMP pc``: go on at pc.

``Handle(body, tag, handler)`` becomes the body, a JUMP over the handler's
code, then that code, and one entry in the node's handle table: the body's
start and end pc and the tag. A Handle is armed exactly while pc is inside
its body, and a caught abort jumps forward to the handler's code, so pc
only moves forward.

A BasicNode is the kernel's node for a basic expression, and this module
is the only one that knows the code's layout. Its step is the interpreter:
it runs the code from pc, runs each ATOM's action itself, and activates
an Activate's target node through Environment.activate. The node holds
the code and handle table, which copies share, its children, and the
expression's own state: pc alone, which is also what a loop saves. The
children are the targets of all the Activate instructions in code order,
and an ACTIVATE's argument indexes them, as ids and as the child nodes
alloc resolves. They do not change as pc moves, so a copy also keeps the
targets pc has passed, with their statuses, and never steps them.

Besides the instructions, a program may hold the action specs Print,
SetCell, Raise and ActionSeq, each laid out as an ATOM of its compiled
action, so a Raise aborts as its action runs. So a rexp body the DSL
parses is a program as it stands. Layout never looks inside an Activate:
the DSL puts an expression's AST there, lays the body out, then compiles
the node's children, the targets in code order, to ids before it
allocates the node.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .core import Abort, END, Node, ReactiveId, Status, STOP, SUSP
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

ATOM, PAUSE, ACTIVATE, JUMP = range(4)

# Each Handle's scope, inner before outer: its body's start and end pc and
# its tag. The handler's code starts one past the body's end.
Handles = tuple[tuple[int, int, str], ...]


@dataclass(slots=True)
class BasicNode(Node):
    ops: tuple[tuple[int, object], ...]
    handles: Handles
    children: tuple[ReactiveId, ...]
    pc: int = 0

    def step(self, env: Environment) -> Status:
        """Execute one activation of a basic reactive expression: this is
        the interpreter of the flat code, which Environment.activate calls.

        Runs instructions until the program is exhausted (END), a Stop or
        Suspend is executed, or an activated child pauses. An ATOM counts
        an event read, when its action reads events, before it runs the
        action. pc advances past an ATOM or ACTIVATE only once it
        succeeds, so when one fails pc names it. An abort from either
        jumps to the handler code of the innermost Handle whose body holds
        pc and whose tag matches, and runs on there within this
        activation; with no such Handle the node is finished and the abort
        propagates to the caller.
        """
        ops, children = self.ops, self.child_nodes
        pc = self.pc
        end = len(ops)
        while True:
            try:
                while pc < end:
                    op, arg = ops[pc]
                    if op == ATOM:
                        if arg.reads_events:
                            env._event_reads += 1
                        arg.run(env.world)
                        pc += 1
                    elif op == PAUSE:
                        pc += 1
                        return arg
                    elif op == ACTIVATE:
                        status = env.activate(children[arg])
                        if status is not END:
                            return status
                        pc += 1
                    else:
                        pc = arg
                return END
            except Abort as abort:
                for start, stop, tag in self.handles:
                    if start <= pc < stop and tag == abort.tag:
                        pc = stop + 1
                        break
                else:
                    pc = end
                    raise
            finally:
                self.pc = pc

    def save(self) -> int:
        return self.pc

    def load(self, state: int) -> None:
        self.pc = state


@dataclass(slots=True)
class _Scope:
    """A Handle being laid out. It is stacked after the body, where it
    records the scope and leaves room for the JUMP, and again after the
    handler, where it fills that JUMP in."""

    start: int
    tag: str
    end: int = -1


def initial_resumption(program: Program) -> BasicNode:
    """Compile program to flat code in a node positioned at its first
    instruction. A Print, SetCell, Raise or ActionSeq item becomes an ATOM
    of its compiled action; any item that is neither that nor an
    instruction raises TypeError. Each spec object is compiled once: the
    program holds every spec for the call, so its id names it."""
    ops: list = []
    handles: list = []
    targets: list[ReactiveId] = []
    actions: dict[int, HostAction] = {}  # id(spec) -> its compiled action
    pending: list = [program]
    while pending:
        item = pending.pop()
        if isinstance(item, Seq):
            pending.extend(reversed(item.items))
        elif isinstance(item, Atom):
            ops.append((ATOM, item.action))
        elif isinstance(item, (Print, SetCell, Raise, ActionSeq)):
            if id(item) not in actions:
                actions[id(item)] = build_action(item)
            ops.append((ATOM, actions[id(item)]))
        elif isinstance(item, Stop):
            ops.append((PAUSE, STOP))
        elif isinstance(item, Suspend):
            ops.append((PAUSE, SUSP))
        elif isinstance(item, Activate):
            ops.append((ACTIVATE, len(targets)))
            targets.append(item.child)
        elif isinstance(item, Handle):
            scope = _Scope(len(ops), item.tag)
            pending += (scope, item.handler, scope, item.body)
        elif not isinstance(item, _Scope):
            raise TypeError(f"not an instruction: {item!r}")
        elif item.end < 0:
            # A body ends before every body around it, so inner scopes
            # come first.
            item.end = len(ops)
            handles.append((item.start, item.end, item.tag))
            ops.append(None)
        else:
            ops[item.end] = (JUMP, len(ops))
    return BasicNode(tuple(ops), tuple(handles), tuple(targets))


def run_resumption(env: Environment, node: BasicNode) -> Status:
    """Execute one activation of a basic reactive expression. The
    interpreter is node.step, which Environment.activate calls directly;
    this is the same call for callers that hold a node outside an
    environment's table."""
    return node.step(env)
