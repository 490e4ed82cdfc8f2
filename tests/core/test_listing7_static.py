"""Static handling of the paper's Listing 7 shape (setEvec overlap)."""

import pytest

from repro.core.analysis import lint_program, overlap_legal
from repro.core.codegen import generate_c
from repro.core.pragma import parse_program

# Listing 7, adapted only in its declarations (the paper's snippet
# references C++ members our C-subset scanner cannot see).
LISTING7 = """
double ev[48];
double evec[3];
int rank, rank0, rcv_rank, num_types, num_local, send_p, recv_p, p, n;

while((rank == 0 && send_p < num_types) || (rank != 0 && recv_p < num_local))
{
#pragma comm_parameters sendwhen(rank == 0)
    receivewhen(rank != 0) sender(rank0)
    receiver(rcv_rank) count(3)
    max_comm_iter(num_types)
    place_sync(END_PARAM_REGION)
{
#pragma comm_p2p sbuf(&ev[3*send_p])
    rbuf(&evec[0])
{
    calculateCoreState(comm, lsms, local, recv_p, core_states_done);
}
}
}
"""


class TestListing7:
    @pytest.fixture(scope="class")
    def program(self):
        return parse_program(LISTING7)

    def test_structure(self, program):
        assert len(program.regions()) == 1
        region = program.regions()[0]
        assert region.clauses.exprs["max_comm_iter"] == "num_types"
        assert region.clauses.place_sync.value == "END_PARAM_REGION"
        inner = region.p2p_instances()
        assert len(inner) == 1
        assert inner[0].clauses.sbuf == ["&ev[3*send_p]"]
        assert inner[0].clauses.rbuf == ["&evec[0]"]

    def test_body_is_the_overlapped_computation(self, program):
        node = program.regions()[0].p2p_instances()[0]
        body_text = " ".join(
            ln for raw in node.body for ln in getattr(raw, "lines", []))
        assert "calculateCoreState" in body_text

    def test_overlap_is_legal(self, program):
        """The body touches neither ev nor evec — exactly the paper's
        claim that the first core-state computation is independent of
        the spin configurations."""
        [(node, _scope, clauses)] = program.p2p_clauses()
        assert overlap_legal(node, clauses).legal

    def test_translation_emits_overlapped_structure(self, program):
        out = generate_c(program)
        isend = out.index("MPI_Isend")
        body = out.index("calculateCoreState")
        waitall = out.index("MPI_Waitall")
        # post -> compute -> synchronize: the overlap order.
        assert isend < body < waitall
        assert "if (rank == 0) {" in out
        assert "if (rank != 0) {" in out

    def test_count_clause_respected(self, program):
        out = generate_c(program)
        assert "MPI_Isend(&ev[3*send_p], 3, MPI_DOUBLE, (rcv_rank)" in out

    def test_lint_clean(self, program):
        report = lint_program(program, nprocs=4,
                              extra_vars={"rank0": 0, "rcv_rank": 1})
        assert not report.errors
