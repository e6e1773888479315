"""Status algebra, the node base, engine limits, run traces, and error
types.

Everything in this module is shared plumbing: the three-valued activation
outcome, the combination function used by parallel composition, what every
node kind holds, the limits that guard against divergence, and the record
types describing an observed run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Status(Enum):
    """Outcome of one activation; also the stored per-expression state.

    SUSP pauses that may resume within the same instant, STOP pauses until
    the next instant, END is terminal.
    """

    SUSP = "SUSP"
    STOP = "STOP"
    END = "END"

    def __repr__(self) -> str:
        return self.name


SUSP = Status.SUSP
STOP = Status.STOP
END = Status.END

# Opaque handle into an Environment's node table.
ReactiveId = int


def star(*outcomes: Status) -> Status:
    """Combine activation outcomes: SUSP dominates, then STOP, then END.

    Commutative, associative, idempotent; END is the identity (and the
    combination of no outcomes) and SUSP is absorbing.
    """
    if SUSP in outcomes:
        return SUSP
    return STOP if STOP in outcomes else END


@dataclass(slots=True)
class Node:
    """What every node kind holds besides its own fields: the outcome of
    its last activation, STOP until its first, and its child nodes, which
    Environment.alloc resolves from the kind's children ids. A kind with no
    state of its own saves and loads nothing."""

    status: Status = field(default=STOP, kw_only=True)
    child_nodes: tuple[Node, ...] = field(default=(), kw_only=True, repr=False, compare=False)

    def save(self) -> object:
        return None

    def load(self, state: object) -> None:
        pass


@dataclass
class Limits:
    """Divergence guards applied while stepping.

    max_micro_steps caps how many times a close (including the implicit one
    around react) re-activates a suspended child within one instant.
    max_loop_restarts caps how many times in a row a loop or repeat may
    restart its body within one activation without the body ever
    consuming an instant.
    """

    max_micro_steps: int = 10_000
    max_loop_restarts: int = 1_000_000


class ReactiveError(Exception):
    """Base class for runtime failures raised while stepping."""

    @property
    def label(self) -> str:
        """The name a run's trace gives this failure."""
        return type(self).__name__


class MicroStepLimitExceeded(ReactiveError):
    def __init__(self, limit: int):
        super().__init__(f"close exceeded {limit} micro-steps without leaving suspension")
        self.limit = limit


class InstantaneousLoop(ReactiveError):
    def __init__(self, limit: int):
        super().__init__(f"loop body terminated instantly {limit} times in a row")
        self.limit = limit


class IntegerTooLarge(ReactiveError):
    def __init__(self, name: str):
        super().__init__(f"{name} has too many digits to print")
        self.name = name


class UncaughtAbort(ReactiveError):
    def __init__(self, tag: str):
        super().__init__(f"abort {tag!r} escaped the root reactive expression")
        self.tag = tag

    @property
    def label(self) -> str:
        return f"UncaughtAbort:{self.tag}"


class Abort(Exception):
    """Internal control-flow signal used to unwind a preempted activation.

    Not a ReactiveError: an abort caught by a handler is normal behavior.
    Only an abort that escapes the root is surfaced, as UncaughtAbort.
    """

    def __init__(self, tag: str):
        super().__init__(tag)
        self.tag = tag


@dataclass
class InstantRecord:
    """What one instant looked like from the outside."""

    index: int
    outputs: list[str]
    status: Status


@dataclass
class InstantTrace:
    """Ordered per-instant observations plus the terminal summary."""

    instants: list[InstantRecord] = field(default_factory=list)
    terminated: bool = False
    error: str | None = None

    @property
    def instants_run(self) -> int:
        return len(self.instants)
