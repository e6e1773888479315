"""Deterministic reactive engine built on instants and activations.

Reactive expressions are resumable computations stepped one instant at a
time against an event world. Basic expressions are instruction trees with
explicit stop/suspend control points; combinators compose them in parallel,
conditionally, and in loops; preemption unwinds as tagged aborts caught by
handlers. A small s-expression DSL and a CLI runner sit on top.

The names imported here are the public API. Conditions, integer
expressions, action specs and World live in instants.world, and node classes
in instants.kernel.
"""

from .combinators import (
    await_,
    close,
    halt,
    init,
    loop,
    merge,
    nothing,
    repeat,
    rexp,
    rif,
    terminate,
    when,
)
from .core import (
    Abort,
    END,
    InstantaneousLoop,
    InstantTrace,
    IntegerTooLarge,
    Limits,
    MicroStepLimitExceeded,
    ReactiveError,
    Status,
    STOP,
    SUSP,
    UncaughtAbort,
    star,
)
from .dsl import compile_expr, parse_program, parse_trace, render
from .kernel import Environment
from .program import Activate, Atom, Handle, Raise, Seq, Stop, Suspend, seq
from .world import HostAction, InstantEvents, Print, build_action
