"""Instruction trees for basic reactive expressions and their resumptions.

A basic reactive expression is a finite instruction tree executed one
activation at a time. Stop and Suspend are the control points that end an
activation; Activate hands the instant over to another reactive expression;
Raise and Handle carry preemption. The resumption records where the next
activation picks up: a stack of frames, each an immutable instruction tuple
with the index of the next instruction to run and, for Handle scopes, the
armed handler. A Seq pushes a frame over its own tuple, so advancing and
cloning a resumption copies no instruction lists.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Union

from .core import Abort, END, ReactiveId, Status, STOP, SUSP
from .world import HostAction

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
class Raise:
    tag: str


@dataclass(frozen=True)
class Handle:
    body: "Program"
    tag: str
    handler: "Program"


Program = Union[Atom, Seq, Stop, Suspend, Activate, Raise, Handle]


def seq(*items: Program) -> Seq:
    return Seq(tuple(items))


EMPTY_PROGRAM = Seq(())


@dataclass(slots=True)
class Frame:
    """One level of the resumption stack: the instructions ``items[pc:]``
    are still to run.

    handler is set only for frames opened by a Handle instruction; an abort
    searching outward stops at the first frame whose handler tag matches.
    """

    items: tuple[Program, ...]
    pc: int = 0
    handler: tuple[str, Program] | None = None


@dataclass
class Resumption:
    frames: list[Frame] = field(default_factory=list)
    # Every instruction the frames started with. A frame lets go of its
    # tuple only when it pops, so without this the activation that ends a
    # long program would free all of it; held here, it goes with the node.
    programs: tuple[Program, ...] = ()

    @property
    def done(self) -> bool:
        return not self.frames


def initial_resumption(program: Program) -> Resumption:
    return Resumption([Frame((program,))], (program,))


def _unwind(frames: list[Frame], tag: str) -> bool:
    """Pop frames until a matching handler; arm it and report success."""
    while frames:
        frame = frames.pop()
        if frame.handler is not None and frame.handler[0] == tag:
            frames.append(Frame((frame.handler[1],)))
            return True
    return False


def run_resumption(env: "Environment", res: Resumption) -> Status:
    """Execute one activation of a basic reactive expression.

    Runs instructions until the program is exhausted (END), a Stop or
    Suspend is executed, or an activated child pauses. An abort raised by
    an action, a Raise, or an activated child unwinds to the innermost
    enclosing Handle with the same tag and continues there within this
    activation; with no matching handler the resumption is cleared and the
    abort propagates to the caller.
    """
    frames = res.frames
    while frames:
        frame = frames[-1]
        pc = frame.pc
        items = frame.items
        if pc >= len(items):
            frames.pop()
            continue
        inst = items[pc]
        if isinstance(inst, Seq):
            frame.pc = pc + 1
            frames.append(Frame(inst.items))
        elif isinstance(inst, Atom):
            frame.pc = pc + 1
            try:
                env.run_action(inst.action)
            except Abort as abort:
                if not _unwind(frames, abort.tag):
                    raise
        elif isinstance(inst, Stop):
            frame.pc = pc + 1
            return STOP
        elif isinstance(inst, Suspend):
            frame.pc = pc + 1
            return SUSP
        elif isinstance(inst, Activate):
            try:
                status = env.step(inst.child)
            except Abort as abort:
                if not _unwind(frames, abort.tag):
                    raise
                continue
            if status is END:
                # Child finished: keep going within the same activation.
                frame.pc = pc + 1
            else:
                # Stay pinned on this Activate so the next activation
                # re-steps the child.
                return status
        elif isinstance(inst, Raise):
            frame.pc = pc + 1
            if not _unwind(frames, inst.tag):
                raise Abort(inst.tag)
        elif isinstance(inst, Handle):
            frame.pc = pc + 1
            frames.append(Frame((inst.body,), 0, (inst.tag, inst.handler)))
        else:
            raise TypeError(f"not an instruction: {inst!r}")
    return END


# --------------------------------------------------------------------------
# Structure helpers used by duplication


def program_activations(program: Program) -> Iterator[ReactiveId]:
    """Yield every reactive id referenced by Activate instructions, in
    program order."""
    pending = [program]
    while pending:
        item = pending.pop()
        if isinstance(item, Activate):
            yield item.child
        elif isinstance(item, Seq):
            pending.extend(reversed(item.items))
        elif isinstance(item, Handle):
            pending += (item.handler, item.body)


def rewrite_program(program: Program, remap: Callable[[ReactiveId], ReactiveId]) -> Program:
    """Rebuild a program with every Activate target passed through remap.

    Walks an explicit stack, so nesting depth is not bounded by recursion:
    a Seq or Handle is visited once to push its parts and once more, after
    they are rebuilt, to take them off ``built``.
    """
    built: list[Program] = []
    pending: list[tuple[Program, bool]] = [(program, False)]
    while pending:
        item, parts_built = pending.pop()
        if isinstance(item, Activate):
            built.append(Activate(remap(item.child)))
        elif not isinstance(item, (Seq, Handle)):
            built.append(item)
        elif not parts_built:
            pending.append((item, True))
            parts = item.items if isinstance(item, Seq) else (item.body, item.handler)
            pending.extend((part, False) for part in reversed(parts))
        elif isinstance(item, Seq):
            split = len(built) - len(item.items)
            items = tuple(built[split:])
            del built[split:]
            built.append(Seq(items))
        else:
            handler = built.pop()
            built[-1] = Handle(built[-1], item.tag, handler)
    return built[0]


def resumption_activations(res: Resumption) -> Iterator[ReactiveId]:
    for frame in res.frames:
        for program in frame.items[frame.pc:]:
            yield from program_activations(program)
        if frame.handler is not None:
            yield from program_activations(frame.handler[1])


def clone_resumption(res: Resumption) -> Resumption:
    """Copy the frame stack, sharing the immutable programs."""
    frames = [Frame(frame.items, frame.pc, frame.handler) for frame in res.frames]
    return Resumption(frames, res.programs)


def copy_resumption(res: Resumption, remap: Callable[[ReactiveId], ReactiveId]) -> Resumption:
    frames = []
    programs: list[Program] = []
    for frame in res.frames:
        items = tuple(rewrite_program(p, remap) for p in frame.items[frame.pc:])
        programs.extend(items)
        handler = None
        if frame.handler is not None:
            handler = (frame.handler[0], rewrite_program(frame.handler[1], remap))
            programs.append(handler[1])
        frames.append(Frame(items, 0, handler))
    return Resumption(frames, tuple(programs))
