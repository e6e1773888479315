"""Small drivers shared by the test modules."""
from __future__ import annotations

import sys

import pytest

from instants import END, Environment
from instants.world import InstantEvents


def print_limit() -> int:
    """The host's int-to-str digit limit; 0 means none, as on a Python
    before 3.10.7, which has no such limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# Programs that grow an integer until it cannot be printed never stop on a
# host without the limit, so tests that rely on it skip there.
needs_print_limit = pytest.mark.skipif(
    print_limit() == 0, reason="the host prints integers of any length"
)


def react_once(env: Environment, root, events: InstantEvents | None = None):
    """Run one instant and return (outputs, terminated)."""
    env.world.apply_instant(events)
    done = env.react(root)
    return env.world.drain_output(), done


def run_instants(env: Environment, root, events_list, pad_empty: int = 0):
    """Run one instant per entry (plus optional empty instants); collect
    (outputs, status name, terminated) rows."""
    events = list(events_list) + [None] * pad_empty
    trace = env.react_t(root, max(1, len(events)), events)
    assert trace.error is None, trace.error
    return [(record.outputs, record.status.name, record.status is END) for record in trace.instants]
