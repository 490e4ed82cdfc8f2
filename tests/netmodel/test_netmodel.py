"""Unit tests for the network cost models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.netmodel import (
    LogGPParams,
    MachineModel,
    PiecewiseTable,
    TransportParams,
    from_hockney,
    from_loggp,
    gemini_model,
    uniform_model,
    zero_model,
)
from repro.netmodel.base import MPI_1SIDED, MPI_2SIDED, SHMEM
from repro.util.units import usec

from tests._spmd import mpi_run


class TestPiecewiseTable:
    def test_interpolates(self):
        t = PiecewiseTable([(0, 0.0), (10, 10.0)])
        assert t(5) == pytest.approx(5.0)

    def test_clamps_ends(self):
        t = PiecewiseTable([(8, 1.0), (256, 2.0)])
        assert t(0) == 1.0
        assert t(1_000_000) == 2.0

    def test_exact_points(self):
        t = PiecewiseTable([(1, 10.0), (2, 20.0), (4, 15.0)])
        assert t(1) == 10.0
        assert t(2) == 20.0
        assert t(4) == 15.0

    def test_single_point(self):
        t = PiecewiseTable([(8, 3.0)])
        assert t(0) == t(8) == t(99) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseTable([])

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseTable([(1, 1.0), (1, 2.0)])

    @given(st.floats(min_value=0, max_value=1e6))
    def test_within_envelope(self, x):
        t = PiecewiseTable([(0, 1.0), (100, 5.0), (1000, 2.0)])
        assert 1.0 <= t(x) <= 5.0


class TestTransportParams:
    def test_wire_time_is_alpha_plus_size_over_bw(self):
        tp = TransportParams(name="t", alpha=1e-6, bandwidth=1e9)
        assert tp.wire_time(1000) == pytest.approx(2e-6)

    def test_latency_table_overrides_alpha(self):
        tp = TransportParams(
            name="t", alpha=9.0, bandwidth=1e9,
            alpha_table=PiecewiseTable([(8, 1e-6), (256, 2e-6)]))
        assert tp.latency(8) == pytest.approx(1e-6)
        assert tp.latency(256) == pytest.approx(2e-6)

    def test_eager_boundary_inclusive(self):
        tp = TransportParams(name="t", alpha=0, bandwidth=1e9,
                             eager_threshold=100)
        assert tp.is_eager(100)
        assert not tp.is_eager(101)

    def test_send_overhead_scales_with_bytes(self):
        tp = TransportParams(name="t", alpha=0, bandwidth=1e9,
                             o_send=1e-6, o_send_per_byte=1e-9)
        assert tp.send_overhead(1000) == pytest.approx(2e-6)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            TransportParams(name="t", alpha=0, bandwidth=0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            TransportParams(name="t", alpha=-1.0, bandwidth=1e9)


class TestMachineModel:
    def test_transport_lookup(self):
        m = uniform_model()
        assert m.transport(MPI_2SIDED).name == MPI_2SIDED

    def test_unknown_transport_raises_with_choices(self):
        m = uniform_model()
        with pytest.raises(KeyError, match="mpi2s"):
            m.transport("nope")

    def test_barrier_cost_log_scaling(self):
        m = uniform_model()  # 1 us per stage
        assert m.barrier_cost(1) == 0.0
        assert m.barrier_cost(2) == pytest.approx(1 * usec)
        assert m.barrier_cost(16) == pytest.approx(4 * usec)
        assert m.barrier_cost(17) == pytest.approx(5 * usec)

    def test_waitall_cost_linear(self):
        m = uniform_model()
        assert m.waitall_cost(10) == pytest.approx(1 * usec + 10 * 0.1 * usec)

    def test_struct_create_cost(self):
        m = uniform_model()
        # base 1us + 5 fields * 0.1us + commit 1us
        assert m.struct_create_cost(5) == pytest.approx(2.5 * usec)

    def test_empty_transports_rejected(self):
        with pytest.raises(ValueError):
            MachineModel(name="m", transports={})


class TestBuilders:
    def test_hockney_roundtrip(self):
        tp = from_hockney("h", alpha=2e-6, beta=1e-9)
        assert tp.latency(100) == pytest.approx(2e-6)
        assert tp.wire_time(1000) == pytest.approx(3e-6)
        assert tp.rendezvous_rtt == pytest.approx(4e-6)

    def test_hockney_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            from_hockney("h", alpha=0, beta=0)

    def test_loggp_maps_parameters(self):
        p = LogGPParams(L=1e-6, o=0.5e-6, g=0.8e-6, G=1e-9)
        tp = from_loggp("l", p)
        assert tp.alpha == pytest.approx(1e-6)
        assert tp.bandwidth == pytest.approx(1e9)
        assert tp.o_send == pytest.approx(0.8e-6)  # max(o, g)
        assert tp.o_recv == pytest.approx(0.5e-6)

    def test_loggp_rejects_negative(self):
        with pytest.raises(ValueError):
            LogGPParams(L=-1, o=0, g=0, G=1e-9)


class TestGeminiCalibration:
    """The published-ratio calibration of DESIGN.md must hold in the model."""

    def test_all_transports_present(self):
        m = gemini_model()
        for kind in (MPI_2SIDED, MPI_1SIDED, SHMEM):
            assert m.transport(kind).bandwidth > 0

    def test_shmem_latency_beats_mpi_for_small_messages(self):
        """Section IV-B: SHMEM wins most at 8-256 byte messages."""
        m = gemini_model()
        for size in (8, 24, 64, 256):
            assert (m.transport(SHMEM).latency(size)
                    < m.transport(MPI_2SIDED).latency(size))

    def test_figure4_ratio_calibration(self):
        """The per-message software path ratios that drive Figure 4."""
        from repro.netmodel.gemini import REQUEST_ALLOC_OVERHEAD
        m = gemini_model()
        o = m.transport(MPI_2SIDED).o_send
        original = o + REQUEST_ALLOC_OVERHEAD + m.wait_overhead
        ablation = o + REQUEST_ALLOC_OVERHEAD + m.waitall_per_req
        directive = o + m.waitall_per_req
        shmem = m.transport(SHMEM).o_send
        assert original / ablation == pytest.approx(2.6, rel=0.1)
        assert ablation / directive == pytest.approx(1.4, rel=0.1)
        assert original / shmem == pytest.approx(38.0, rel=0.15)

    def test_mpi2s_rendezvous_starts_above_8192_bytes(self):
        """A two-sided send of exactly 8192 B (Gemini's eager threshold)
        is buffered; one of 9000 B waits for the late receiver and pays
        the rendezvous handshake."""
        m = gemini_model()
        tp = m.transport(MPI_2SIDED)
        late = 1.0

        def run(nbytes):
            def prog(comm):
                if comm.rank == 0:
                    comm.Send(np.zeros(nbytes, dtype=np.uint8), dest=1)
                else:
                    comm.env.compute(late)
                    comm.Recv(np.zeros(nbytes, dtype=np.uint8), source=0)
                return comm.env.now

            res, _ = mpi_run(2, prog, model=m)
            return res.values

        sender, receiver = run(8192)
        assert sender < late
        assert receiver - late == pytest.approx(tp.o_recv)
        sender, receiver = run(9000)
        handshake = late + tp.rendezvous_rtt + tp.wire_time(9000)
        assert sender == pytest.approx(handshake)
        assert receiver == pytest.approx(handshake + tp.o_recv)

    def test_bandwidths_converge_for_large_messages(self):
        """Fig 3's 'comparable' result needs similar large-message rates."""
        m = gemini_model()
        times = [m.transport(k).wire_time(1 << 20)
                 for k in (MPI_2SIDED, MPI_1SIDED, SHMEM)]
        assert max(times) / min(times) < 1.1

    def test_zero_model_charges_nothing(self):
        m = zero_model()
        tp = m.transport(MPI_2SIDED)
        assert tp.wire_time(1 << 20) < 1e-9
        assert tp.send_overhead(1 << 20) == 0.0
        assert m.barrier_cost(1024) == 0.0

    def test_zero_model_never_rendezvous(self):
        m = zero_model()
        assert m.transport(MPI_2SIDED).is_eager(1 << 40)
