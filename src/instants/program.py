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
- ``TEXT text``: append text to the world's output, with no host action.
- ``TEXT_PAUSE (text, status)``: a TEXT whose next op is a PAUSE, run as
  one op: append text, then end the activation with status, pc past both.
  The PAUSE stays in its place, so a JUMP or a caught abort that lands on
  it runs it alone.
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
it runs the code from pc, runs each ATOM's action and appends each
TEXT's text itself, and activates an Activate's target node through
Environment.activate. The node holds the code and handle table, which
copies share, its children, and the expression's own state: pc alone, in
the node's state slot, where a loop's snapshot reads it. The children are
the targets of all the Activate instructions in code order, and an
ACTIVATE's argument indexes them, as ids and as the child nodes alloc
resolves. They do not change as pc moves, so a copy also keeps the
targets pc has passed, with their statuses, and never steps them.

Besides the instructions, a program may hold the action specs Print,
SetCell, Raise and ActionSeq, each laid out as an ATOM of its compiled
action, so a Raise aborts as its action runs. A Print whose template has
no field, as world.print_text decides, is laid out as a TEXT of its
template instead: such a print reads no events and cannot raise, so the
interpreter appends its text with no call. So a rexp body the DSL
parses is a program as it stands. Layout walks each Seq's items, and a
Handle's body and handler, in place, with no recursion, and pays for each
distinct leaf once: an action spec, Stop or Suspend is laid out where its
object first appears, and each further occurrence of that object costs one
lookup and one append of the same op. An Activate, Handle or Seq is laid
out at each occurrence, as its code depends on its place: the target
index, the scope and the pc. Layout never looks inside an Activate:
the DSL puts an expression's AST there, lays the body out, then compiles
the node's children, the targets in code order, to ids before it
allocates the node.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from .core import Abort, END, Node, ReactiveId, Status, STOP, SUSP
from .world import ActionSeq, HostAction, Print, Raise, SetCell, build_action, print_text

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Environment


@dataclass(frozen=True)
class Atom:
    action: HostAction

    def __post_init__(self):
        # Checked here, so a spec or a str fails as the program is built,
        # not with an AttributeError when it first runs.
        if not isinstance(self.action, HostAction):
            raise TypeError(f"not a host action: {self.action!r}")


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

ATOM, PAUSE, ACTIVATE, TEXT, JUMP, TEXT_PAUSE = range(6)

# Each Handle's scope, inner before outer: its body's start and end pc and
# its tag. The handler's code starts one past the body's end.
Handles = tuple[tuple[int, int, str], ...]


@dataclass(slots=True)
class BasicNode(Node):
    ops: tuple[tuple[int, object], ...]
    handles: Handles
    children: tuple[ReactiveId, ...]
    state: int = field(default=0, kw_only=True)  # pc

    def step(self, env: Environment) -> Status:
        """Execute one activation of a basic reactive expression: this is
        the interpreter of the flat code, which Environment.activate calls.

        Runs instructions until the program is exhausted (END), a Stop or
        Suspend is executed, or an activated child pauses. An ATOM counts
        an event read, when its action reads events, before it runs the
        action, and a TEXT appends its text to the output without a call.
        A TEXT_PAUSE appends its text and pauses, and leaves pc where the
        TEXT and PAUSE it stands for would leave it, two ops on.
        pc advances past an ATOM or ACTIVATE only once it succeeds, so
        when one fails pc names it. An abort from either jumps to the
        handler code of the innermost Handle whose body holds pc and whose
        tag matches, and runs on there within this activation; with no
        such Handle the node is finished and the abort propagates to the
        caller.
        """
        ops, children = self.ops, self.child_nodes
        pc = self.state
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
                    # Tested third: a program with no field-free print
                    # has no TEXT_PAUSE, and its ACTIVATE pays one test.
                    elif op == TEXT_PAUSE:
                        text, status = arg
                        env.world.output.append(text)
                        pc += 2
                        return status
                    elif op == ACTIVATE:
                        status = env.activate(children[arg])
                        if status is not END:
                            return status
                        pc += 1
                    # Tested after ACTIVATE, so of the other ops only a
                    # JUMP pays for this test.
                    elif op == TEXT:
                        env.world.output.append(arg)
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
                self.state = pc


@dataclass(slots=True)
class _Scope:
    """A Handle being laid out. Its walk takes it after the body, where it
    records the scope and leaves room for the JUMP, and again after the
    handler, where it fills that JUMP in."""

    start: int
    tag: str
    end: int = -1


def initial_resumption(program: Program) -> BasicNode:
    """Compile program to flat code in a node positioned at its first
    instruction. A Print, SetCell, Raise or ActionSeq item becomes an ATOM
    of its compiled action, except a field-free Print, which becomes a TEXT
    of its template; any item that is neither that nor an instruction
    raises TypeError. The walk keeps a stack of iterators, one over what is
    left of each Seq and Handle it is inside, and takes each item from the
    innermost in place. Each leaf object, a spec, Stop or Suspend, is laid
    out once and its op kept under its id, which names it as the program
    holds it for the whole call; each repeat of it costs one lookup and
    one append. An Activate, Handle or Seq is laid out at each occurrence,
    as its ops depend on its place. Last, when the body holds a TEXT, each
    TEXT whose next op is a PAUSE becomes a TEXT_PAUSE of its own; a body
    with no TEXT is not walked again."""
    ops: list = []
    handles: list = []
    targets: list[ReactiveId] = []
    leaves: dict[int, tuple] = {}  # id(leaf item) -> the op it lays out as
    has_text = False
    # What is left of each Seq and Handle being laid out, innermost last: a
    # Handle's is its body, its scope, its handler and its scope again.
    walks: list = [iter((program,))]
    while walks:
        for item in walks[-1]:
            op = leaves.get(id(item))
            if op is not None:
                ops.append(op)
            elif isinstance(item, Seq):
                # The next item comes from the walk pushed here.
                walks.append(iter(item.items))
                break
            elif isinstance(item, Atom):
                ops.append((ATOM, item.action))
            elif isinstance(item, (Print, SetCell, Raise, ActionSeq)):
                text = print_text(item)
                op = (ATOM, build_action(item)) if text is None else (TEXT, text)
                has_text = has_text or text is not None
                ops.append(leaves.setdefault(id(item), op))
            elif isinstance(item, Stop):
                ops.append(leaves.setdefault(id(item), (PAUSE, STOP)))
            elif isinstance(item, Suspend):
                ops.append(leaves.setdefault(id(item), (PAUSE, SUSP)))
            elif isinstance(item, Activate):
                ops.append((ACTIVATE, len(targets)))
                targets.append(item.child)
            elif isinstance(item, Handle):
                scope = _Scope(len(ops), item.tag)
                walks.append(iter((item.body, scope, item.handler, scope)))
                break
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
        else:
            walks.pop()  # done, so the walk around it goes on
    if has_text:
        for pc, (op, arg) in enumerate(ops[:-1]):
            if op == TEXT and ops[pc + 1][0] == PAUSE:
                ops[pc] = (TEXT_PAUSE, (arg, ops[pc + 1][1]))
    return BasicNode(tuple(ops), tuple(handles), tuple(targets))


def run_resumption(env: Environment, node: BasicNode) -> Status:
    """Execute one activation of a basic reactive expression. The
    interpreter is node.step, which Environment.activate calls directly;
    this is the same call for callers that hold a node outside an
    environment's table."""
    return node.step(env)
