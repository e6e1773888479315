"""Node store and the single-step activation engine.

An Environment owns every reactive expression it allocated: a node table
describing structure, a status table holding each expression's last outcome,
the event world, and the divergence limits. Each node kind is one class
that defines its step and the save/load pair for its state. Every kind
holds the ids of its children in its children field and nowhere else, so
dup copies every kind the same way: the same fields, with the children
renamed. Activation is a recursive walk: Environment.step checks for END,
lets the node step itself, writes the resulting status back, and returns
it. A terminated expression is inert; stepping it returns END and changes
nothing. A merge holds all its branches in one node, so the walk is as
deep as the program's nesting, not its width. Copying (dup) and snapshots
find a node's region by an iterative walk, so they work at any depth.

Preemption unwinds as an Abort exception. Every node whose in-progress step
is unwound is marked END on the way out; a basic expression with a matching
handler catches the abort instead and keeps running.

The basic kind, BasicNode, lives in program.py with the flat code it runs,
and is re-imported here; the other kinds are defined below.

A loop records its body's whole region when it is built: the id of every
node reachable from the body, as its children, and the status of each and
what its save returns, which holds no ids: the pc of each basic
expression, and the latch or count of every await and nested loop.
A restart restores that snapshot in place, so the region keeps its ids and
the node table stays the same size over a run. A body that terminated
after reading this instant's events would see the same events again if it
restarted now, so the restart waits for the next activation; bodies that
read nothing restart in place, which is also where instantaneous-loop
divergence is caught.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import Callable, Union

from .core import (
    Abort,
    END,
    InstantaneousLoop,
    InstantRecord,
    InstantTrace,
    Limits,
    MicroStepLimitExceeded,
    ReactiveError,
    ReactiveId,
    Status,
    STOP,
    SUSP,
    UncaughtAbort,
    star,
)
from .program import BasicNode
from .world import HostAction, InstantEvents, World


class _Stateless:
    """The save/load pair of a node kind whose only state is its status."""

    def save(self) -> None:
        return None

    def load(self, state: None) -> None:
        pass


@dataclass
class MergeNode(_Stateless):
    children: tuple[ReactiveId, ...]

    def step(self, env: Environment) -> Status:
        # Mid-instant re-step: only the suspended children run, and the
        # others contribute their stored outcomes. star is associative, so
        # this is the binary merge rule applied along a fold of the children.
        statuses = env.statuses
        children = self.children
        suspended = [child for child in children if statuses[child] is SUSP]
        if not suspended:
            return star(*[env.step(child) for child in children])
        for child in suspended:
            env.step(child)
        return star(*[statuses[child] for child in children])


Predicate = Callable[[World], bool]


@dataclass
class RifNode(_Stateless):
    # The condition as compiled once by rif; copies share it.
    test: Predicate
    reads_events: bool
    children: tuple[ReactiveId, ReactiveId]  # then, else

    def step(self, env: Environment) -> Status:
        # A suspended branch resumes without re-evaluating the condition;
        # otherwise the condition is evaluated anew every instant.
        then_branch, else_branch = self.children
        if env.statuses[then_branch] is SUSP:
            return env.step(then_branch)
        if env.statuses[else_branch] is SUSP:
            return env.step(else_branch)
        if env._eval_cond(self.test, self.reads_events):
            return env.step(then_branch)
        return env.step(else_branch)


@dataclass
class CloseNode(_Stateless):
    children: tuple[ReactiveId]

    def step(self, env: Environment) -> Status:
        return env._close_steps(self.children[0])


# One entry per node of a region: (status, state), where the state is what
# the node's save returned.
States = tuple[tuple[Status, object], ...]


@dataclass
class LoopNode:
    """Runs the body, its first child, to termination ``remaining`` more
    times (forever when None), restoring it from the snapshot before each
    restart."""

    # The body's whole region, body first, and what each node of it held
    # when the loop was built, in the same order.
    children: tuple[ReactiveId, ...]
    snapshot: States
    remaining: int | None = None

    def __post_init__(self) -> None:
        # A restart walks this flat tuple, which costs less per restart than
        # zipping the two fields. dup builds a copy through __init__, so the
        # copy gets its own, over its own ids.
        self._restore = tuple((rid, status, state)
                              for rid, (status, state) in zip(self.children, self.snapshot))

    def step(self, env: Environment) -> Status:
        restarts = 0
        body = self.children[0]
        before = env._event_reads
        status = env.step(body)
        while status is END:
            if self.remaining is not None:
                self.remaining -= 1
                if self.remaining <= 0:
                    return END
            observed = env._event_reads > before
            statuses, nodes = env.statuses, env.nodes
            for rid, saved, state in self._restore:
                statuses[rid] = saved
                nodes[rid].load(state)
            if observed:
                # The finished body read this instant's events; its
                # restart waits for the next activation.
                return STOP
            restarts += 1
            if restarts > env.limits.max_loop_restarts:
                raise InstantaneousLoop(env.limits.max_loop_restarts)
            before = env._event_reads
            status = env.step(body)
        return status

    def save(self) -> int | None:
        return self.remaining

    def load(self, state: int | None) -> None:
        self.remaining = state


@dataclass
class InitNode(_Stateless):
    action: HostAction
    children: tuple[ReactiveId]

    def step(self, env: Environment) -> Status:
        env.run_action(self.action)
        return env.step(self.children[0])


@dataclass
class AwaitNode:
    # The condition as compiled once by await_; copies share it.
    test: Predicate
    reads_events: bool
    children: tuple[ReactiveId]
    latched: bool = False

    def step(self, env: Environment) -> Status:
        if not self.latched:
            if not env._eval_cond(self.test, self.reads_events):
                return STOP
            self.latched = True
        return env.step(self.children[0])

    def save(self) -> bool:
        return self.latched

    def load(self, state: bool) -> None:
        self.latched = state


Node = Union[BasicNode, MergeNode, RifNode, CloseNode, LoopNode, InitNode, AwaitNode]


class Environment:
    """A single-threaded reactive engine instance.

    All stepping on one environment is strictly sequential; host actions
    must not re-enter react on their own environment.
    """

    def __init__(self, world: World | None = None, limits: Limits | None = None):
        self.nodes: dict[ReactiveId, Node] = {}
        self.statuses: dict[ReactiveId, Status] = {}
        self.world = world if world is not None else World()
        self.limits = limits if limits is not None else Limits()
        self._next_id = 0
        self._event_reads = 0
        self._reacting = False

    # ------------------------------------------------------------------
    # Allocation and duplication

    def alloc(self, node: Node) -> ReactiveId:
        """Register a node under a fresh id; fresh expressions start STOP."""
        for child in node.children:
            if child not in self.nodes:
                raise ValueError(f"child id {child} is not allocated")
        rid = self._next_id
        self._next_id += 1
        self.nodes[rid] = node
        self.statuses[rid] = STOP
        return rid

    def _region(self, r: ReactiveId) -> list[ReactiveId]:
        """Every id reachable from r, r first."""
        order = [r]
        seen = {r}
        for rid in order:
            for child in self.nodes[rid].children:
                if child not in seen:
                    seen.add(child)
                    order.append(child)
        return order

    def dup(self, r: ReactiveId) -> ReactiveId:
        """Deep-copy the region reachable from r, statuses and node states
        included. Sharing inside the region is preserved; the original is
        untouched."""
        if r not in self.nodes:
            raise ValueError(f"unknown reactive id {r}")
        memo: dict[ReactiveId, ReactiveId] = {}
        # alloc accepts only allocated children, so a child's id is lower
        # than its parent's and ascending order copies children first.
        for old in sorted(self._region(r)):
            node = self.nodes[old]
            new = self.alloc(replace(node, children=tuple(map(memo.__getitem__, node.children))))
            self.statuses[new] = self.statuses[old]
            memo[old] = new
        return memo[r]

    def snapshot(self, r: ReactiveId) -> tuple[tuple[ReactiveId, ...], States]:
        """The region of r, r first, and the status and state of each of
        its nodes in the same order."""
        region = tuple(self._region(r))
        return region, tuple((self.statuses[rid], self.nodes[rid].save()) for rid in region)

    # ------------------------------------------------------------------
    # Stepping

    def run_action(self, action: HostAction) -> None:
        if action.reads_events:
            self._event_reads += 1
        action.run(self.world)

    def _eval_cond(self, test: Predicate, reads_events: bool) -> bool:
        if reads_events:
            self._event_reads += 1
        return test(self.world)

    def step(self, r: ReactiveId) -> Status:
        """Activate the expression r once and return the outcome.

        Terminated expressions short-circuit: the activation is not
        propagated and nothing changes. An abort unwinding through r marks
        it END before re-raising.
        """
        try:
            if self.statuses[r] is END:
                return END
        except KeyError:
            raise ValueError(f"unknown reactive id {r}") from None
        try:
            status = self.nodes[r].step(self)
        except Abort:
            self.statuses[r] = END
            raise
        self.statuses[r] = status
        return status

    def _close_steps(self, r: ReactiveId) -> Status:
        """Re-activate r until it leaves suspension, within one instant."""
        status = self.step(r)
        steps = 1
        while status is SUSP:
            if steps >= self.limits.max_micro_steps:
                raise MicroStepLimitExceeded(self.limits.max_micro_steps)
            status = self.step(r)
            steps += 1
        return status

    # ------------------------------------------------------------------
    # Instant-level entry points

    def react(self, r: ReactiveId) -> bool:
        """Run one instant of r (with the implicit close) and report
        whether it terminated."""
        if self._reacting:
            raise RuntimeError("react is not reentrant; host actions must not call it")
        self._reacting = True
        try:
            try:
                status = self._close_steps(r)
            except Abort as abort:
                raise UncaughtAbort(abort.tag) from None
            return status is END
        finally:
            self._reacting = False

    def react_t(self, r: ReactiveId, max_instants: int,
                events: Iterable[InstantEvents | None] | None = None) -> InstantTrace:
        """React once per entry of events, or with no events when events is
        None, recording each instant's outputs and the status of r.

        The run stops at termination, at the end of events, or after
        max_instants instants. A ReactiveError or a RecursionError ends it
        too, and its label becomes the trace's error; the failed instant is
        not recorded.
        """
        if max_instants < 1:
            raise ValueError("max_instants must be at least 1")
        if events is None:
            events = itertools.repeat(None)
        trace = InstantTrace()
        for index, instant in zip(range(1, max_instants + 1), events):
            self.world.apply_instant(instant)
            try:
                done = self.react(r)
            except ReactiveError as error:
                trace.error = error.label
                break
            except RecursionError:
                trace.error = "RecursionError"
                break
            trace.instants.append(
                InstantRecord(index, self.world.drain_output(), self.statuses[r])
            )
            if done:
                trace.terminated = True
                break
        return trace
