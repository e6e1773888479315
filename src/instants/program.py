"""Instruction trees for basic reactive expressions and their resumptions.

A basic reactive expression is a finite instruction tree executed one
activation at a time. Stop and Suspend are the control points that end an
activation; Activate hands the instant over to another reactive expression;
Raise and Handle carry preemption. The resumption records where the next
activation picks up: a stack of frames, each holding the instructions still
to run and, for Handle scopes, the armed handler.
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


@dataclass
class Frame:
    """One level of the resumption stack.

    handler is set only for frames opened by a Handle instruction; an abort
    searching outward stops at the first frame whose handler tag matches.
    """

    remaining: list[Program]
    handler: tuple[str, Program] | None = None


@dataclass
class Resumption:
    frames: list[Frame] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return not self.frames


def initial_resumption(program: Program) -> Resumption:
    return Resumption([Frame([program])])


def _unwind(frames: list[Frame], tag: str) -> bool:
    """Pop frames until a matching handler; arm it and report success."""
    while frames:
        frame = frames.pop()
        if frame.handler is not None and frame.handler[0] == tag:
            frames.append(Frame([frame.handler[1]]))
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
        if not frame.remaining:
            frames.pop()
            continue
        inst = frame.remaining[0]
        if isinstance(inst, Seq):
            frame.remaining.pop(0)
            frames.append(Frame(list(inst.items)))
        elif isinstance(inst, Atom):
            frame.remaining.pop(0)
            try:
                env.run_action(inst.action)
            except Abort as abort:
                if not _unwind(frames, abort.tag):
                    raise
        elif isinstance(inst, Stop):
            frame.remaining.pop(0)
            return STOP
        elif isinstance(inst, Suspend):
            frame.remaining.pop(0)
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
                frame.remaining.pop(0)
            else:
                # Stay pinned on this Activate so the next activation
                # re-steps the child.
                return status
        elif isinstance(inst, Raise):
            frame.remaining.pop(0)
            if not _unwind(frames, inst.tag):
                raise Abort(inst.tag)
        elif isinstance(inst, Handle):
            frame.remaining.pop(0)
            frames.append(Frame([inst.body], (inst.tag, inst.handler)))
        else:
            raise TypeError(f"not an instruction: {inst!r}")
    return END


# --------------------------------------------------------------------------
# Structure helpers used by duplication


def program_activations(program: Program) -> Iterator[ReactiveId]:
    """Yield every reactive id referenced by Activate instructions."""
    match program:
        case Activate(child=child):
            yield child
        case Seq(items=items):
            for item in items:
                yield from program_activations(item)
        case Handle(body=body, handler=handler):
            yield from program_activations(body)
            yield from program_activations(handler)


def rewrite_program(program: Program, remap: Callable[[ReactiveId], ReactiveId]) -> Program:
    """Rebuild a program with every Activate target passed through remap."""
    match program:
        case Activate(child=child):
            return Activate(remap(child))
        case Seq(items=items):
            return Seq(tuple(rewrite_program(item, remap) for item in items))
        case Handle(body=body, tag=tag, handler=handler):
            return Handle(rewrite_program(body, remap), tag, rewrite_program(handler, remap))
    return program


def resumption_activations(res: Resumption) -> Iterator[ReactiveId]:
    for frame in res.frames:
        for program in frame.remaining:
            yield from program_activations(program)
        if frame.handler is not None:
            yield from program_activations(frame.handler[1])


def clone_resumption(res: Resumption) -> Resumption:
    """Copy the frame stack, sharing the immutable programs."""
    return Resumption([Frame(list(frame.remaining), frame.handler) for frame in res.frames])


def copy_resumption(res: Resumption, remap: Callable[[ReactiveId], ReactiveId]) -> Resumption:
    frames = []
    for frame in res.frames:
        remaining = [rewrite_program(p, remap) for p in frame.remaining]
        handler = None
        if frame.handler is not None:
            handler = (frame.handler[0], rewrite_program(frame.handler[1], remap))
        frames.append(Frame(remaining, handler))
    return Resumption(frames)
