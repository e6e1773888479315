"""Node store and the single-step activation engine.

An Environment owns every reactive expression it allocated: a node table
describing structure, a status table holding each expression's last outcome,
the event world, and the divergence limits. Activation is a recursive walk:
step dispatches on the node kind, writes the resulting status back, and
returns it. A terminated expression is inert; stepping it returns END and
changes nothing. A merge holds all its branches in one node, so the walk is
as deep as the program's nesting, not its width.

Preemption unwinds as an Abort exception. Every node whose in-progress step
is unwound is marked END on the way out; a basic expression with a matching
handler catches the abort instead and keeps running.

A loop records its body's whole region when it is built: the status of
every node reachable from the body, each basic expression's resumption, and
the latch or count of every await and nested loop. A restart restores that
snapshot in place, so the region keeps its ids and the node table stays the
same size over a run. A body that terminated after reading this instant's
events would see the same events again if it restarted now, so the restart
waits for the next activation; bodies that read nothing restart in place,
which is also where instantaneous-loop divergence is caught.
"""
from __future__ import annotations

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
    ReactiveId,
    Status,
    STOP,
    SUSP,
    UncaughtAbort,
    star,
)
from .program import (
    Resumption,
    clone_resumption,
    copy_resumption,
    resumption_activations,
    run_resumption,
)
from .world import Cond, HostAction, World, cond_reads_events, eval_cond


@dataclass
class BasicNode:
    resumption: Resumption


@dataclass
class MergeNode:
    children: tuple[ReactiveId, ...]


@dataclass
class RifNode:
    cond: Cond
    then_branch: ReactiveId
    else_branch: ReactiveId


@dataclass
class CloseNode:
    child: ReactiveId


# One entry per node of a loop body's region: (id, status, state), where the
# state is a private resumption for a basic expression, the latch of an
# await, the count of a loop, and None for the stateless kinds.
Snapshot = tuple[tuple[ReactiveId, Status, object], ...]


@dataclass
class LoopNode:
    """Runs body to termination ``remaining`` more times (forever when
    None), restoring it from the snapshot before each restart."""

    body: ReactiveId
    snapshot: Snapshot
    remaining: int | None = None


@dataclass
class InitNode:
    action: HostAction
    child: ReactiveId


@dataclass
class AwaitNode:
    cond: Cond
    child: ReactiveId
    latched: bool = False


Node = Union[BasicNode, MergeNode, RifNode, CloseNode, LoopNode, InitNode, AwaitNode]


def _node_children(node: Node) -> list[ReactiveId]:
    if isinstance(node, BasicNode):
        return list(resumption_activations(node.resumption))
    if isinstance(node, MergeNode):
        return list(node.children)
    if isinstance(node, RifNode):
        return [node.then_branch, node.else_branch]
    if isinstance(node, LoopNode):
        return [rid for rid, _, _ in node.snapshot]
    if isinstance(node, (CloseNode, InitNode, AwaitNode)):
        return [node.child]
    raise TypeError(f"not a node: {node!r}")


def _remap_children(node: Node, remap: Callable[[ReactiveId], ReactiveId]) -> Node:
    """A copy of node with every child id passed through remap."""
    if isinstance(node, BasicNode):
        return BasicNode(copy_resumption(node.resumption, remap))
    if isinstance(node, MergeNode):
        return MergeNode(tuple(map(remap, node.children)))
    if isinstance(node, RifNode):
        return replace(node, then_branch=remap(node.then_branch), else_branch=remap(node.else_branch))
    if isinstance(node, LoopNode):
        snapshot = tuple(
            (remap(rid), status,
             copy_resumption(state, remap) if isinstance(state, Resumption) else state)
            for rid, status, state in node.snapshot
        )
        return LoopNode(remap(node.body), snapshot, node.remaining)
    if isinstance(node, (CloseNode, InitNode, AwaitNode)):
        return replace(node, child=remap(node.child))
    raise TypeError(f"not a node: {node!r}")


def _node_state(node: Node) -> object:
    if isinstance(node, BasicNode):
        return clone_resumption(node.resumption)
    if isinstance(node, AwaitNode):
        return node.latched
    if isinstance(node, LoopNode):
        return node.remaining
    return None


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
        for child in _node_children(node):
            if child not in self.nodes:
                raise ValueError(f"child id {child} is not allocated")
        rid = self._next_id
        self._next_id += 1
        self.nodes[rid] = node
        self.statuses[rid] = STOP
        return rid

    def dup(self, r: ReactiveId) -> ReactiveId:
        """Deep-copy the region reachable from r, statuses and resumptions
        included. Sharing inside the region is preserved; the original is
        untouched."""
        if r not in self.nodes:
            raise ValueError(f"unknown reactive id {r}")
        return self._copy_region(r, {}, set())

    def _copy_region(
        self, r: ReactiveId, memo: dict[ReactiveId, ReactiveId], visiting: set[ReactiveId]
    ) -> ReactiveId:
        if r in memo:
            return memo[r]
        if r in visiting:
            raise RuntimeError(f"cycle detected in reactive node graph at id {r}")
        visiting.add(r)
        node = self.nodes[r]
        for child in _node_children(node):
            self._copy_region(child, memo, visiting)
        visiting.discard(r)
        rid = self.alloc(_remap_children(node, memo.__getitem__))
        self.statuses[rid] = self.statuses[r]
        memo[r] = rid
        return rid

    def snapshot(self, r: ReactiveId) -> Snapshot:
        """Record the state of every node reachable from r, r first."""
        order = [r]
        seen = {r}
        for rid in order:
            for child in _node_children(self.nodes[rid]):
                if child not in seen:
                    seen.add(child)
                    order.append(child)
        return tuple((rid, self.statuses[rid], _node_state(self.nodes[rid])) for rid in order)

    def _restore(self, snapshot: Snapshot) -> None:
        nodes = self.nodes
        statuses = self.statuses
        for rid, status, state in snapshot:
            statuses[rid] = status
            node = nodes[rid]
            if isinstance(node, BasicNode):
                node.resumption = clone_resumption(state)
            elif isinstance(node, AwaitNode):
                node.latched = state
            elif isinstance(node, LoopNode):
                node.remaining = state

    # ------------------------------------------------------------------
    # Stepping

    def run_action(self, action: HostAction) -> None:
        if action.reads_events:
            self._event_reads += 1
        action.run(self.world)

    def _eval_cond(self, cond: Cond) -> bool:
        if cond_reads_events(cond):
            self._event_reads += 1
        return eval_cond(cond, self.world)

    def step(self, r: ReactiveId) -> Status:
        """Activate the expression r once and return the outcome.

        Terminated expressions short-circuit: the activation is not
        propagated and nothing changes. An abort unwinding through r marks
        it END before re-raising.
        """
        if r not in self.nodes:
            raise ValueError(f"unknown reactive id {r}")
        if self.statuses[r] is END:
            return END
        try:
            status = self._dispatch(r, self.nodes[r])
        except Abort:
            self.statuses[r] = END
            raise
        self.statuses[r] = status
        return status

    def _dispatch(self, r: ReactiveId, node: Node) -> Status:
        if isinstance(node, BasicNode):
            return run_resumption(self, node.resumption)
        if isinstance(node, MergeNode):
            return self._step_merge(node)
        if isinstance(node, RifNode):
            return self._step_rif(node)
        if isinstance(node, CloseNode):
            return self._close_steps(node.child)
        if isinstance(node, LoopNode):
            return self._step_loop(node)
        if isinstance(node, InitNode):
            self.run_action(node.action)
            return self.step(node.child)
        if isinstance(node, AwaitNode):
            return self._step_await(node)
        raise TypeError(f"not a node: {node!r}")

    def _step_merge(self, node: MergeNode) -> Status:
        # Mid-instant re-step: only the suspended children run, and the
        # others contribute their stored outcomes. star is associative, so
        # this is the binary merge rule applied along a fold of the children.
        statuses = self.statuses
        children = node.children
        suspended = [child for child in children if statuses[child] is SUSP]
        if not suspended:
            return star(*[self.step(child) for child in children])
        for child in suspended:
            self.step(child)
        return star(*[statuses[child] for child in children])

    def _step_rif(self, node: RifNode) -> Status:
        # A suspended branch resumes without re-evaluating the condition;
        # otherwise the condition is evaluated anew every instant.
        if self.statuses[node.then_branch] is SUSP:
            return self.step(node.then_branch)
        if self.statuses[node.else_branch] is SUSP:
            return self.step(node.else_branch)
        if self._eval_cond(node.cond):
            return self.step(node.then_branch)
        return self.step(node.else_branch)

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

    def _step_loop(self, node: LoopNode) -> Status:
        restarts = 0
        before = self._event_reads
        status = self.step(node.body)
        while status is END:
            if node.remaining is not None:
                node.remaining -= 1
                if node.remaining <= 0:
                    return END
            observed = self._event_reads > before
            self._restore(node.snapshot)
            if observed:
                # The finished body read this instant's events; its
                # restart waits for the next activation.
                return STOP
            restarts += 1
            if restarts > self.limits.max_loop_restarts:
                raise InstantaneousLoop(self.limits.max_loop_restarts)
            before = self._event_reads
            status = self.step(node.body)
        return status

    def _step_await(self, node: AwaitNode) -> Status:
        if not node.latched:
            if not self._eval_cond(node.cond):
                return STOP
            node.latched = True
        return self.step(node.child)

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

    def react_t(self, r: ReactiveId, max_instants: int) -> InstantTrace:
        """React once per instant, with no events, until termination or the
        instant budget runs out."""
        if max_instants < 1:
            raise ValueError("max_instants must be at least 1")
        trace = InstantTrace()
        for index in range(1, max_instants + 1):
            self.world.apply_instant(None)
            done = self.react(r)
            trace.instants.append(
                InstantRecord(index, self.world.drain_output(), self.statuses[r])
            )
            if done:
                trace.terminated = True
                break
        return trace
