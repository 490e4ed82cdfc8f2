"""Synchronization planning: consolidation + the place_sync policies.

Given a parsed :class:`~repro.core.ir.Program`, decide where generated
synchronization calls go and how many there are — the quantity the
paper's Figure 4 experiment turns on. The plan records, per region,
which sync *group* its pending communication joins and where each
group's single consolidated call is emitted:

* ``END_PARAM_REGION`` — own group, call at this region's end;
* ``BEGIN_NEXT_PARAM_REGION`` — group deferred to the next region's
  beginning;
* ``END_ADJ_PARAM_REGIONS`` — all regions of a textually adjacent chain
  that specify it share one group, emitted at the last chain member's
  end.

Independence partitioning happens *within* each region: dependent
instances split into sequential groups (see
:func:`repro.core.analysis.independence.independent_groups`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis.independence import independent_groups
from repro.core.clauses import SyncPlacement
from repro.core.ir import ClauseExprs, P2PNode, ParamRegionNode, Program


@dataclass
class SyncPoint:
    """One emitted synchronization call."""

    #: "end" or "begin"
    position: str
    #: The IR node the call is textually attached to: a region for
    #: consolidated syncs, or a standalone ``comm_p2p`` instance (one
    #: outside any region) that synchronizes individually.
    node: ParamRegionNode | P2PNode
    #: Number of p2p instances the call covers.
    covered_instances: int

    @property
    def region(self) -> ParamRegionNode:
        """The region the call is attached to.

        Raises :class:`TypeError` for a standalone-instance point; use
        :attr:`node` (or :meth:`p2p_instances`) when the point may be
        attached to a bare ``comm_p2p``.
        """
        if not isinstance(self.node, ParamRegionNode):
            raise TypeError(
                "SyncPoint is attached to a standalone comm_p2p, not a "
                "region; use .node instead of .region")
        return self.node

    def p2p_instances(self) -> list[P2PNode]:
        """The p2p instances this synchronization call covers."""
        if isinstance(self.node, ParamRegionNode):
            return self.node.p2p_instances()
        return [self.node]


@dataclass
class SyncPlan:
    """The program's synchronization schedule."""

    points: list[SyncPoint] = field(default_factory=list)
    #: ``(region, splits)`` per region whose instances' buffers force
    #: extra syncs inside it, in textual order.
    forced_splits: list[tuple[ParamRegionNode, int]] = field(
        default_factory=list)

    @property
    def total_sync_calls(self) -> int:
        """Planned synchronization calls, incl. forced splits."""
        return len(self.points) + sum(n for _, n in self.forced_splits)

    def naive_sync_calls(self, program: Program) -> int:
        """What unconsolidated code would emit: one wait per instance
        (send and receive sides counted once here — per-instance)."""
        return len(program.all_p2p())

    def reduction_factor(self, program: Program) -> float:
        """Per-instance syncs avoided by consolidation."""
        naive = self.naive_sync_calls(program)
        mine = max(1, self.total_sync_calls)
        return naive / mine


def plan_synchronization(program: Program) -> SyncPlan:
    """Compute the consolidated synchronization schedule."""
    plan = SyncPlan()
    effective = {id(node): clauses
                 for node, _scope, clauses in program.p2p_clauses()}
    for chain in program.adjacent_region_chains():
        _plan_chain(plan, chain, effective)
    # Standalone p2p directives (outside any region) sync individually.
    for node in program.nodes:
        if isinstance(node, P2PNode):
            plan.points.append(SyncPoint("end", node, 1))
    return plan


def _plan_chain(plan: SyncPlan, chain: list[ParamRegionNode],
                effective: dict[int, ClauseExprs]) -> None:
    adj_group: list[ParamRegionNode] = []

    def flush_adj_group() -> None:
        if not adj_group:
            return
        covered = sum(len(r.p2p_instances()) for r in adj_group)
        # A chain of empty regions has nothing to synchronize; emitting
        # a zero-coverage call would be dead code in every lowering.
        if covered:
            plan.points.append(SyncPoint("end", adj_group[-1], covered))
        adj_group.clear()

    deferred_from_prev: ParamRegionNode | None = None
    for region in chain:
        instances = region.p2p_instances()
        groups = independent_groups(instances, effective)
        # Dependent splits inside the region force extra syncs before
        # the final placement-controlled one.
        if len(groups) > 1:
            plan.forced_splits.append((region, len(groups) - 1))

        if deferred_from_prev is not None:
            covered = len(deferred_from_prev.p2p_instances())
            if covered:
                plan.points.append(SyncPoint("begin", region, covered))
            deferred_from_prev = None

        placement = region.place_sync
        if placement is SyncPlacement.END_ADJ_PARAM_REGIONS:
            adj_group.append(region)
            continue
        flush_adj_group()
        if placement is SyncPlacement.END_PARAM_REGION:
            if instances:  # empty region: nothing to synchronize
                plan.points.append(
                    SyncPoint("end", region, len(instances)))
        elif placement is SyncPlacement.BEGIN_NEXT_PARAM_REGION:
            deferred_from_prev = region
    flush_adj_group()
    if deferred_from_prev is not None:
        # No next region exists: the sync degrades to region end (the
        # runtime requires an explicit flush; statically we can place
        # it for the user and note it).
        covered = len(deferred_from_prev.p2p_instances())
        if covered:
            plan.points.append(
                SyncPoint("end", deferred_from_prev, covered))
