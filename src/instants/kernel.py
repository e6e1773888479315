"""Node store and the single-step activation engine.

An Environment owns every reactive expression it allocated: a node table
from id to node, the event world, and the divergence limits. Each node kind
is one class that defines its step. Every node also holds its status, the
outcome of its last activation, its state slot, which holds a basic
node's pc, an await's latch or a loop's remaining count, and its child
nodes. The ids of a node's children are in its children field: alloc
checks them and resolves them, once, to the child nodes, dup renames them,
snapshots walk them, and no step reads them. So dup copies every kind the
same way: the same fields, status and state, with the children renamed,
and alloc gives the copy its own child nodes. Environment.statuses is a
read-only view of every node's status, by id.

Activation is a recursive walk by reference: Environment.activate(node)
checks for END, lets the node step itself, stores the resulting status on
the node, and returns it. Every activation goes through activate, except a
merge's branches: Environment.activate_branches applies activate's rules
to each of them in its own frame. A node activates its children directly,
so the step path reads neither the node table nor an id;
Environment.step(r) is the entry by id, which react uses for the root. A
terminated expression is inert; activating it returns END and changes
nothing. A basic node's step is the interpreter of its
flat code, so a basic activation is that one call under activate. A rif
whose else branch is a halt returns STOP for a false test without stepping
the halt, so a waiting when costs one step. A merge holds all its branches
in one node, so the walk is as deep as the program's nesting, not its
width. Copying (dup) and snapshots find a node's region by an iterative
walk over ids, so they work at any depth.

Preemption unwinds as an Abort exception. Every node whose in-progress step
is unwound is marked END on the way out; a basic expression with a matching
handler catches the abort instead and keeps running.

The basic kind, BasicNode, lives in program.py with the flat code it runs,
and is re-imported here; the other kinds are defined below.

A loop records its body's whole region when it is built: the id of every
node reachable from the body, as its children, and the status of each and
its state slot, which holds no ids: the pc of each basic expression, and
the latch or count of every await and nested loop. A restart sets the two
fields of each node of the region, which are the loop's child nodes, back
to that status and state in place, with no call, so the region keeps its
nodes and the node table stays the same size over a run. A body that
terminated after reading this instant's events would see the same events
again if it restarted now, so the restart waits for the next activation;
bodies that read nothing restart in place, which is also where
instantaneous-loop divergence is caught. Every read of events counts
itself on the environment: a rif's or an await's test, which each node's
step makes with no call between it and the condition, and an action that
reads events.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .core import (
    Abort,
    END,
    InstantaneousLoop,
    InstantRecord,
    InstantTrace,
    Limits,
    MicroStepLimitExceeded,
    Node,
    ReactiveError,
    ReactiveId,
    Status,
    STOP,
    SUSP,
    UncaughtAbort,
)
from .program import BasicNode
from .world import HostAction, InstantEvents, World


@dataclass(slots=True)
class MergeNode(Node):
    children: tuple[ReactiveId, ...]

    def step(self, env: Environment) -> Status:
        return env.activate_branches(self.child_nodes)


Predicate = Callable[[World], bool]


@dataclass(slots=True)
class RifNode(Node):
    """Steps the then branch when the test holds and the else branch
    otherwise. When the else branch is a halt (else_halts), a false test
    returns STOP without stepping it: a halt is STOP from allocation on,
    has no child, and its step reads no events, has no effect and cannot
    raise."""

    # The condition as compiled once by rif; copies share it.
    test: Predicate
    reads_events: bool
    children: tuple[ReactiveId, ReactiveId]  # then, else
    else_halts: bool = False

    def step(self, env: Environment) -> Status:
        # A suspended branch resumes without re-evaluating the condition;
        # otherwise the condition is evaluated anew every instant.
        then_branch, else_branch = self.child_nodes
        if then_branch.status is SUSP:
            return env.activate(then_branch)
        if else_branch.status is SUSP:
            return env.activate(else_branch)
        if self.reads_events:
            env._event_reads += 1
        if self.test(env.world):
            return env.activate(then_branch)
        return STOP if self.else_halts else env.activate(else_branch)


@dataclass(slots=True)
class CloseNode(Node):
    children: tuple[ReactiveId]

    def step(self, env: Environment) -> Status:
        return env._close_steps(env.activate, self.child_nodes[0])


# One entry per node of a region: (status, state), the node's status and
# its state slot.
States = tuple[tuple[Status, object], ...]


@dataclass(slots=True)
class LoopNode(Node):
    """Runs the body, its first child, to termination as many more times
    as its state slot says (forever when None), restoring it from the
    snapshot before each restart."""

    # The body's whole region, body first, and what each node of it held
    # when the loop was built, in the same order.
    children: tuple[ReactiveId, ...]
    snapshot: States

    def step(self, env: Environment) -> Status:
        restarts = 0
        body = self.child_nodes[0]
        before = env._event_reads
        status = env.activate(body)
        while status is END:
            if self.state is not None:
                self.state -= 1
                if self.state <= 0:
                    return END
            observed = env._event_reads > before
            for node, (saved, state) in zip(self.child_nodes, self.snapshot):
                node.status = saved
                node.state = state
            if observed:
                # The finished body read this instant's events; its
                # restart waits for the next activation.
                return STOP
            restarts += 1
            if restarts > env.limits.max_loop_restarts:
                raise InstantaneousLoop(env.limits.max_loop_restarts)
            before = env._event_reads
            status = env.activate(body)
        return status


@dataclass(slots=True)
class InitNode(Node):
    action: HostAction
    children: tuple[ReactiveId]

    def step(self, env: Environment) -> Status:
        env.run_action(self.action)
        return env.activate(self.child_nodes[0])


@dataclass(slots=True)
class AwaitNode(Node):
    # The condition as compiled once by await_; copies share it.
    test: Predicate
    reads_events: bool
    # One child, or none for a halt: its test never holds, so it never
    # latches and never activates a child.
    children: tuple[ReactiveId, ...]
    state: bool = field(default=False, kw_only=True)  # latched

    def step(self, env: Environment) -> Status:
        if not self.state:
            if self.reads_events:
                env._event_reads += 1
            if not self.test(env.world):
                return STOP
            self.state = True
        return env.activate(self.child_nodes[0])


class StatusView(Mapping[ReactiveId, Status]):
    """A read-only view of every node's status, by id."""

    def __init__(self, nodes: dict[ReactiveId, Node]):
        self._nodes = nodes

    def __getitem__(self, r: ReactiveId) -> Status:
        return self._nodes[r].status

    def __iter__(self) -> Iterator[ReactiveId]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class Environment:
    """A single-threaded reactive engine instance.

    All stepping on one environment is strictly sequential; host actions
    must not re-enter react on their own environment.
    """

    def __init__(self, world: World | None = None, limits: Limits | None = None):
        self.nodes: dict[ReactiveId, Node] = {}
        self.statuses = StatusView(self.nodes)
        self.world = world if world is not None else World()
        self.limits = limits if limits is not None else Limits()
        self._event_reads = 0
        self._reacting = False

    # ------------------------------------------------------------------
    # Allocation and duplication

    def alloc(self, node: Node) -> ReactiveId:
        """Register a node under a fresh id and give it its child nodes. A
        node keeps the status it was built with: STOP for a fresh one, the
        original's for a copy made by dup."""
        try:
            node.child_nodes = tuple(map(self.nodes.__getitem__, node.children))
        except KeyError as error:
            raise ValueError(f"child id {error.args[0]} is not allocated") from None
        # No node is ever removed, so the table's size is a fresh id.
        rid = len(self.nodes)
        self.nodes[rid] = node
        return rid

    def _region(self, r: ReactiveId) -> list[ReactiveId]:
        """Every id reachable from r, r first."""
        if r not in self.nodes:
            raise ValueError(f"unknown reactive id {r}")
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
        memo: dict[ReactiveId, ReactiveId] = {}
        # alloc accepts only allocated children, so a child's id is lower
        # than its parent's and ascending order copies children first.
        # replace copies every field, the status too; alloc then gives the
        # copy its own child nodes.
        for old in sorted(self._region(r)):
            node = self.nodes[old]
            memo[old] = self.alloc(replace(node, children=tuple(map(memo.__getitem__, node.children))))
        return memo[r]

    def snapshot(self, r: ReactiveId) -> tuple[tuple[ReactiveId, ...], States]:
        """The region of r, r first, and the status and state slot of each
        of its nodes in the same order."""
        region = tuple(self._region(r))
        return region, tuple((self.nodes[rid].status, self.nodes[rid].state) for rid in region)

    # ------------------------------------------------------------------
    # Stepping

    def run_action(self, action: HostAction) -> None:
        if action.reads_events:
            self._event_reads += 1
        action.run(self.world)

    def step(self, r: ReactiveId) -> Status:
        """Activate the expression r once and return the outcome: the
        entry by id, for callers outside the step path."""
        try:
            node = self.nodes[r]
        except KeyError:
            raise ValueError(f"unknown reactive id {r}") from None
        return self.activate(node)

    def activate(self, node: Node) -> Status:
        """Activate node once, record the outcome as its status, and return
        it. Every activation goes through here but a merge branch's, which
        activate_branches makes by the same rules.

        Terminated expressions short-circuit: the activation is not
        propagated and nothing changes. An abort unwinding through the node
        marks it END before re-raising.
        """
        if node.status is END:
            return END
        try:
            status = node.step(self)
        except Abort:
            node.status = END
            raise
        node.status = status
        return status

    def activate_branches(self, nodes: tuple[Node, ...]) -> Status:
        """Activate a merge's branches left to right and return the star of
        their outcomes. Each branch is activated by activate's rules, in
        this one frame: an END branch is skipped, the others step, each
        outcome is stored on its branch, and an abort marks the branch END
        before it propagates.

        When any branch is suspended, this is a re-step within the instant:
        only the branches that were suspended before it run, and the outcome
        is the star of every branch's stored status. star is associative, so
        this is the binary merge rule applied along a fold of the branches.
        """
        # A branch listed twice, or activated by a sibling, can change
        # status within the loop, so the suspended ones are listed first.
        suspended = []
        for node in nodes:
            if node.status is SUSP:
                suspended.append(node)
        outcome = END
        for node in suspended or nodes:
            if node.status is not END:
                try:
                    status = node.step(self)
                except Abort:
                    node.status = END
                    raise
                node.status = status
                if status is SUSP or outcome is END:
                    outcome = status
        if not suspended:
            return outcome
        outcome = END
        for node in nodes:
            status = node.status
            if status is SUSP:
                return SUSP
            if status is STOP:
                outcome = STOP
        return outcome

    def _close_steps(self, activate: Callable[[Any], Status], target: Any) -> Status:
        """Re-activate target until it leaves suspension, within one
        instant: a node through activate, or a root id through step."""
        status = activate(target)
        steps = 1
        while status is SUSP:
            if steps >= self.limits.max_micro_steps:
                raise MicroStepLimitExceeded(self.limits.max_micro_steps)
            status = activate(target)
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
                status = self._close_steps(self.step, r)
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
