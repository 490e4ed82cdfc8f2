"""Compiler analyses: independence, sync planning, inference, dataflow."""

import numpy as np
import pytest

from repro.core.analysis import (
    buffer_names,
    classify_pattern,
    comm_graph,
    infer_count_static,
    infer_element_type,
    overlap_legal,
    plan_synchronization,
    validate_matching,
)
from repro.core.analysis.dataflow import partners
from repro.core.analysis.independence import (
    base_identifier,
    independent_groups,
)
from repro.core.analysis.infer import shmem_call_for
from repro.core.clauses import SyncPlacement
from repro.core.ir import (
    BufferDecl,
    ClauseExprs,
    P2PNode,
    ParamRegionNode,
    Program,
    RawCode,
)
from repro.core.region import PendingComm
from repro.dtypes import DOUBLE, INT, CompositeType, Field
from repro.errors import ClauseError


def p2p(sbuf, rbuf, body=None, **exprs):
    cl = ClauseExprs(exprs={k: str(v) for k, v in exprs.items()},
                     sbuf=list(sbuf), rbuf=list(rbuf))
    return P2PNode(clauses=cl, body=body or [])


class TestBaseIdentifier:
    @pytest.mark.parametrize("expr,base", [
        ("buf1", "buf1"),
        ("&buf1[p]", "buf1"),
        ("buf2[3]", "buf2"),
        ("&atom.evec", "atom"),
        ("local->atom", "local"),
    ])
    def test_strips_decorations(self, expr, base):
        assert base_identifier(expr) == base


class TestIndependence:
    @staticmethod
    def group_sizes(*nodes):
        return [len(g) for g in independent_groups(
            list(nodes), {id(n): n.clauses for n in nodes})]

    def test_disjoint_names_share_a_group(self):
        a = p2p(["x"], ["y"])
        b = p2p(["u"], ["v"])
        assert self.group_sizes(a, b) == [2]

    def test_shared_name_dependent(self):
        a = p2p(["x"], ["y"])
        b = p2p(["y"], ["z"])
        assert self.group_sizes(a, b) == [1, 1]

    def test_indexed_same_base_dependent(self):
        a = p2p(["&buf[0]"], ["out"])
        b = p2p(["&buf[1]"], ["out2"])
        assert self.group_sizes(a, b) == [1, 1]

    def test_runtime_overlap_is_by_memory(self):
        """The runtime decides independence by memory, not by name."""
        base = np.zeros(10)
        pending = PendingComm(buffers=[base[:5]])
        assert not pending.overlaps([np.zeros(3)])
        assert pending.overlaps([base[4:]])

    def test_independent_groups_partition(self):
        a = p2p(["a"], ["b"])
        b = p2p(["c"], ["d"])
        c = p2p(["a"], ["e"])  # depends on group {a, b}
        groups = independent_groups(
            [a, b, c], {id(n): n.clauses for n in (a, b, c)})
        assert [len(g) for g in groups] == [2, 1]

    def test_buffer_names_collects_both_sides(self):
        node = p2p(["vr", "rhotot"], ["vr", "rhotot"])
        assert buffer_names(node.clauses) == {"vr", "rhotot"}


class TestSyncPlanning:
    def region(self, instances, place_sync=None):
        cl = ClauseExprs()
        cl.place_sync = place_sync
        return ParamRegionNode(clauses=cl, body=list(instances))

    def test_end_param_region_default(self):
        r = self.region([p2p(["a"], ["b"]), p2p(["c"], ["d"])])
        prog = Program(nodes=[r])
        plan = plan_synchronization(prog)
        assert len(plan.points) == 1
        assert plan.points[0].position == "end"
        assert plan.points[0].covered_instances == 2
        assert plan.reduction_factor(prog) == 2.0

    def test_begin_next_region(self):
        r1 = self.region([p2p(["a"], ["b"])],
                         SyncPlacement.BEGIN_NEXT_PARAM_REGION)
        r2 = self.region([p2p(["c"], ["d"])])
        plan = plan_synchronization(Program(nodes=[r1, r2]))
        positions = [(pt.position, pt.region) for pt in plan.points]
        assert ("begin", r2) in positions
        assert ("end", r2) in positions

    def test_begin_next_without_next_degrades_to_end(self):
        r1 = self.region([p2p(["a"], ["b"])],
                         SyncPlacement.BEGIN_NEXT_PARAM_REGION)
        plan = plan_synchronization(Program(nodes=[r1]))
        assert len(plan.points) == 1
        assert plan.points[0].position == "end"

    def test_end_adj_chain_one_sync(self):
        rs = [self.region([p2p([f"a{i}"], [f"b{i}"])],
                          SyncPlacement.END_ADJ_PARAM_REGIONS)
              for i in range(3)]
        plan = plan_synchronization(Program(nodes=rs))
        assert len(plan.points) == 1
        assert plan.points[0].region is rs[-1]
        assert plan.points[0].covered_instances == 3

    def test_end_adj_chain_broken_by_raw_code(self):
        r1 = self.region([p2p(["a"], ["b"])],
                         SyncPlacement.END_ADJ_PARAM_REGIONS)
        code = RawCode(lines=["x = compute();"])
        r2 = self.region([p2p(["c"], ["d"])],
                         SyncPlacement.END_ADJ_PARAM_REGIONS)
        plan = plan_synchronization(Program(nodes=[r1, code, r2]))
        assert len(plan.points) == 2

    def test_dependent_instances_force_split(self):
        r = self.region([p2p(["a"], ["b"]), p2p(["b"], ["c"])])
        prog = Program(nodes=[r])
        plan = plan_synchronization(prog)
        assert plan.forced_splits == [(r, 1)]
        assert plan.total_sync_calls == 2

    def test_reduction_factor_zero_sync_points(self):
        """A program with no communication plans no syncs; the factor
        must not divide by zero (0 naive / clamped 1 planned = 0)."""
        prog = Program(nodes=[RawCode(lines=["x = 1;"])])
        plan = plan_synchronization(prog)
        assert plan.points == []
        assert plan.total_sync_calls == 0
        assert plan.reduction_factor(prog) == 0.0

    def test_standalone_p2p_syncs_individually(self):
        node = p2p(["a"], ["b"])
        plan = plan_synchronization(Program(nodes=[node]))
        assert len(plan.points) == 1
        point = plan.points[0]
        assert point.position == "end"
        assert point.node is node
        assert point.covered_instances == 1
        assert point.p2p_instances() == [node]

    def test_standalone_point_region_accessor_rejected(self):
        """`.region` is only defined for region-attached points; a
        standalone comm_p2p point directs callers to `.node`."""
        plan = plan_synchronization(Program(nodes=[p2p(["a"], ["b"])]))
        with pytest.raises(TypeError, match="standalone"):
            plan.points[0].region

    def test_region_point_accessors_consistent(self):
        r = self.region([p2p(["a"], ["b"]), p2p(["c"], ["d"])])
        plan = plan_synchronization(Program(nodes=[r]))
        point = plan.points[0]
        assert point.region is r
        assert point.node is r
        assert point.p2p_instances() == r.p2p_instances()


class TestInference:
    def decls(self):
        return {
            "big": BufferDecl("big", DOUBLE, length=100),
            "small": BufferDecl("small", DOUBLE, length=10),
            "p": BufferDecl("p", DOUBLE, is_pointer=True),
            "n": BufferDecl("n", INT, length=4),
        }

    def test_explicit_count_wins(self):
        node = p2p(["big"], ["small"], count="7")
        assert infer_count_static(node.clauses, self.decls()) == "7"

    def test_smallest_array_inferred(self):
        node = p2p(["big"], ["small"])
        assert infer_count_static(node.clauses, self.decls()) == "10"

    def test_indexed_buffer_uses_base_declaration(self):
        """`&buf[p]`-style expressions resolve to the base array's
        declaration for length inference."""
        node = p2p(["&big[p]"], ["&small[p]"])
        assert infer_count_static(node.clauses, self.decls()) == "10"

    def test_indexed_buffer_element_type(self):
        node = p2p(["&big[3]"], ["small"])
        assert infer_element_type(node.clauses, self.decls()) is DOUBLE

    def test_pointer_only_requires_count(self):
        node = p2p(["p"], ["p"])
        with pytest.raises(ClauseError, match="count"):
            infer_count_static(node.clauses, self.decls())

    def test_undeclared_buffer_rejected(self):
        node = p2p(["ghost"], ["small"])
        with pytest.raises(ClauseError, match="declaration"):
            infer_count_static(node.clauses, self.decls())

    def test_element_type_consistent(self):
        node = p2p(["big"], ["small"])
        assert infer_element_type(node.clauses, self.decls()) is DOUBLE

    def test_element_type_mismatch_rejected(self):
        node = p2p(["big"], ["n"])
        with pytest.raises(ClauseError, match="mix"):
            infer_element_type(node.clauses, self.decls())

    def test_shmem_call_selection(self):
        assert shmem_call_for(DOUBLE) == "shmem_double_put"
        assert shmem_call_for(INT) == "shmem_put32"
        s = CompositeType("S", [Field("x", DOUBLE)])
        assert shmem_call_for(s) == "shmem_putmem"


class TestDataflow:
    def ring_clauses(self):
        return ClauseExprs(
            exprs={"sender": "(rank-1+nprocs)%nprocs",
                   "receiver": "(rank+1)%nprocs"},
            sbuf=["b1"], rbuf=["b2"])

    def test_ring_graph(self):
        g = comm_graph(self.ring_clauses(), nprocs=5)
        assert len(g.edges) == 5
        assert (0, 1) in g.edges and (4, 0) in g.edges
        assert validate_matching(g) == []
        assert classify_pattern(g) == "ring"

    def test_even_odd_graph(self):
        cl = ClauseExprs(
            exprs={"sender": "rank-1", "receiver": "rank+1",
                   "sendwhen": "rank%2==0", "receivewhen": "rank%2==1"},
            sbuf=["b1"], rbuf=["b2"])
        g = comm_graph(cl, nprocs=4)
        assert g.edges == [(0, 1), (2, 3)]
        assert validate_matching(g) == []
        assert classify_pattern(g) == "pairwise"

    def test_fan_out_classified(self):
        cl = ClauseExprs(
            exprs={"sender": "0", "receiver": "rank",
                   "sendwhen": "rank==0 && nprocs>1",
                   "receivewhen": "rank!=0"},
            sbuf=["b1"], rbuf=["b2"])
        # Note: rank 0 'sends to itself' pattern avoided by receiver
        # evaluating to each non-zero rank in separate instances; here
        # we model the hub with one edge per... this single directive
        # has rank 0 send once. Validate accordingly.
        g = comm_graph(cl, nprocs=4)
        assert g.senders == {0}

    def test_mismatched_sender_flagged(self):
        cl = ClauseExprs(
            exprs={"sender": "0", "receiver": "rank+1",
                   "sendwhen": "rank==0", "receivewhen": "rank==2"},
            sbuf=["b1"], rbuf=["b2"])
        g = comm_graph(cl, nprocs=3)
        issues = validate_matching(g)
        kinds = {i.kind for i in issues}
        assert "unreceived-send" in kinds or "unsatisfied-receive" in kinds

    def test_invalid_destination_flagged(self):
        cl = ClauseExprs(
            exprs={"sender": "rank-1", "receiver": "rank+1"},
            sbuf=["b1"], rbuf=["b2"])
        g = comm_graph(cl, nprocs=3)
        issues = validate_matching(g)
        assert any(i.kind == "invalid-destination" for i in issues)
        assert any(i.kind == "invalid-source" for i in issues)

    def test_extra_vars(self):
        cl = ClauseExprs(
            exprs={"sender": "root", "receiver": "root",
                   "sendwhen": "rank!=root", "receivewhen": "rank==root"},
            sbuf=["b1"], rbuf=["b2"])
        g = comm_graph(cl, nprocs=4, extra_vars={"root": 2})
        assert classify_pattern(g) == "fan-in"

    def test_incomplete_clauses_rejected(self):
        with pytest.raises(ClauseError):
            comm_graph(ClauseExprs(exprs={"sender": "0"}), nprocs=2)

    def test_partners_one_rank(self):
        cl = ClauseExprs(
            exprs={"sender": "rank-1", "receiver": "rank+1",
                   "sendwhen": "rank%2==0", "receivewhen": "rank%2==1"},
            sbuf=["b1"], rbuf=["b2"])
        v = {"nprocs": 4, "size": 4}
        assert partners(cl, {**v, "rank": 2}) == (True, False, -1, 3)
        assert partners(cl, {**v, "rank": 3}) == (False, True, 2, -1)

    @pytest.mark.parametrize("receiver,rank", [
        ("1%(rank-2)", 2),    # modulo by zero on rank 2
        ("1e308*10", 0),      # infinity is no rank
    ])
    def test_partners_error_names_clause_and_rank(self, receiver, rank):
        cl = ClauseExprs(exprs={"sender": "0", "receiver": receiver},
                         sbuf=["b1"], rbuf=["b2"])
        with pytest.raises(ClauseError,
                           match=rf"^receiver clause on rank {rank}: "):
            comm_graph(cl, nprocs=4)


class TestOverlap:
    def test_empty_body_legal(self):
        node = p2p(["a"], ["b"])
        assert overlap_legal(node, node.clauses).legal

    def test_independent_body_legal(self):
        node = p2p(["a"], ["b"],
                   body=[RawCode(lines=["compute(x, y);"])])
        assert overlap_legal(node, node.clauses).legal

    def test_body_touching_rbuf_illegal(self):
        node = p2p(["a"], ["b"],
                   body=[RawCode(lines=["use(b);"])])
        v = overlap_legal(node, node.clauses)
        assert not v.legal
        assert "b" in v.reason

    def test_body_touching_sbuf_illegal(self):
        node = p2p(["a"], ["b"],
                   body=[RawCode(lines=["a[0] = 1;"])])
        assert not overlap_legal(node, node.clauses).legal

    def test_substring_name_not_confused(self):
        node = p2p(["a"], ["b"],
                   body=[RawCode(lines=["about = 1; ab = 2;"])])
        assert overlap_legal(node, node.clauses).legal


class TestPlanEdgeCases:
    """Degenerate shapes the planner must not trip over."""

    def region(self, instances, place_sync=None):
        cl = ClauseExprs()
        cl.place_sync = place_sync
        return ParamRegionNode(clauses=cl, body=list(instances))

    def test_empty_region_emits_no_sync_point(self):
        prog = Program(nodes=[self.region([])])
        plan = plan_synchronization(prog)
        assert plan.points == []
        assert plan.total_sync_calls == 0

    def test_empty_adj_chain_emits_no_sync_point(self):
        chain = [self.region([], SyncPlacement.END_ADJ_PARAM_REGIONS),
                 self.region([], SyncPlacement.END_ADJ_PARAM_REGIONS)]
        plan = plan_synchronization(Program(nodes=chain))
        assert plan.points == []

    def test_empty_deferral_emits_no_begin_point(self):
        r1 = self.region([], SyncPlacement.BEGIN_NEXT_PARAM_REGION)
        r2 = self.region([p2p(["a"], ["b"])])
        plan = plan_synchronization(Program(nodes=[r1, r2]))
        assert [(pt.position, pt.node) for pt in plan.points] == \
            [("end", r2)]

    def test_single_directive_place_sync_at_region_end(self):
        node = p2p(["a"], ["b"])
        r = self.region([node], SyncPlacement.END_PARAM_REGION)
        plan = plan_synchronization(Program(nodes=[r]))
        [point] = plan.points
        assert point.position == "end"
        assert point.node is r
        assert point.covered_instances == 1
        assert point.p2p_instances() == [node]
        assert plan.forced_splits == []

    def test_nonempty_points_all_cover_instances(self):
        mixed = [
            self.region([]),
            self.region([p2p(["a"], ["b"])]),
            self.region([], SyncPlacement.BEGIN_NEXT_PARAM_REGION),
            self.region([]),
        ]
        plan = plan_synchronization(Program(nodes=mixed))
        assert all(pt.covered_instances > 0 for pt in plan.points)


class TestSingleRankGraphs:
    """nprocs=1: every transfer degenerates to a self-loop or nothing."""

    def test_ring_collapses_to_self_loop(self):
        node = p2p(["a"], ["b"],
                   sender="(rank-1+nprocs)%nprocs",
                   receiver="(rank+1)%nprocs")
        g = comm_graph(node.clauses, nprocs=1)
        assert g.edges == [(0, 0)]
        assert g.expects == {0: 0}
        assert validate_matching(g) == []

    def test_guarded_shift_goes_silent(self):
        node = p2p(["a"], ["b"], sender="rank-1", receiver="rank+1",
                   sendwhen="rank<nprocs-1", receivewhen="rank>0")
        g = comm_graph(node.clauses, nprocs=1)
        assert g.edges == []
        assert g.expects == {}
        assert classify_pattern(g) == "none"
        assert validate_matching(g) == []

    def test_overlap_verdict_is_world_size_independent(self):
        node = p2p(["a"], ["b"],
                   body=[RawCode(lines=["use(b);"])],
                   sender="0", receiver="0")
        assert not overlap_legal(node, node.clauses).legal
