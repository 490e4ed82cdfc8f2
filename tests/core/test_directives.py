"""Runtime directive semantics: the paper's listings as executable tests."""

import numpy as np
import pytest

from repro import mpi, shmem
from repro.core import (
    SyncPlacement,
    Target,
    comm_flush,
    comm_p2p,
    comm_parameters,
)
from repro.errors import ClauseError, SimProcessError, SymmetryError
from repro.netmodel import uniform_model, zero_model
from repro.sim import Engine


def run(nprocs, fn, *, model=None, profile=False):
    model = model or zero_model()
    eng = Engine(nprocs, profile=profile)

    def main(env):
        mpi.init(env, model)      # fix the machine model for all targets
        return fn(env)

    return eng.run(main), eng


class TestListing1Ring:
    """Listing 1: ring pattern with only the required clauses."""

    def test_ring_pattern(self):
        def prog(env):
            prev = (env.rank - 1 + env.size) % env.size
            nxt = (env.rank + 1) % env.size
            buf1 = np.full(4, float(env.rank))
            buf2 = np.zeros(4)
            with comm_p2p(env, sender=prev, receiver=nxt,
                          sbuf=buf1, rbuf=buf2):
                pass
            return buf2[0]

        res, _ = run(5, prog)
        assert res.values == [4.0, 0.0, 1.0, 2.0, 3.0]

    def test_standalone_p2p_synchronizes_at_exit(self):
        """Data must be delivered when the with-block closes."""
        def prog(env):
            nxt = (env.rank + 1) % env.size
            prev = (env.rank - 1) % env.size
            out = np.array([float(env.rank)])
            inb = np.zeros(1)
            with comm_p2p(env, sender=prev, receiver=nxt,
                          sbuf=out, rbuf=inb):
                pass
            got_inside = inb[0]   # after exit: synced
            return got_inside

        res, _ = run(2, prog)
        assert res.values == [1.0, 0.0]


class TestListing2EvenOdd:
    """Listing 2: evens send to the nearest odd process."""

    def test_even_to_odd(self):
        def prog(env):
            buf1 = np.full(2, float(env.rank * 10))
            buf2 = np.zeros(2)
            with comm_p2p(env, sbuf=buf1, rbuf=buf2,
                          sender=env.rank - 1, receiver=env.rank + 1,
                          sendwhen=env.rank % 2 == 0,
                          receivewhen=env.rank % 2 == 1):
                pass
            return buf2[0]

        res, _ = run(4, prog)
        assert res.values[1] == 0.0 * 10  # from rank 0
        assert res.values[3] == 20.0      # from rank 2
        assert res.values[0] == 0.0       # evens receive nothing
        assert res.values[2] == 0.0


class TestListing3LoopRegion:
    """Listing 3: a comm_parameters region wrapping a comm_p2p loop."""

    def test_pipelined_elements(self):
        n = 6

        def prog(env):
            buf1 = np.arange(float(n)) + 100 * env.rank
            buf2 = np.zeros(n)
            with comm_parameters(env, sender=env.rank - 1,
                                 receiver=env.rank + 1,
                                 sendwhen=env.rank % 2 == 0,
                                 receivewhen=env.rank % 2 == 1,
                                 count=1, max_comm_iter=n,
                                 place_sync="END_PARAM_REGION"):
                for p in range(n):
                    with comm_p2p(env, sbuf=buf1[p:p + 1],
                                  rbuf=buf2[p:p + 1]):
                        pass
            return buf2.tolist()

        res, _ = run(2, prog)
        assert res.values[1] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_sync_consolidated_to_one_waitall(self):
        """Adjacent independent instances share ONE sync call."""
        n = 8

        def prog(env):
            buf1 = np.arange(float(n))
            buf2 = np.zeros(n)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1,
                                 count=1):
                for p in range(n):
                    with comm_p2p(env, sbuf=buf1[p:p + 1],
                                  rbuf=buf2[p:p + 1]):
                        pass
            return buf2.tolist()

        res, eng = run(2, prog)
        assert res.values[1] == list(range(n))
        # One consolidated Waitall per participating rank.
        assert eng.stats.sync_calls["waitall"] == 2
        assert eng.stats.sync_calls["wait"] == 0


class TestClauseResolution:
    def test_region_supplies_required_clauses(self):
        def prog(env):
            a = np.array([float(env.rank)])
            b = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1):
                with comm_p2p(env, sbuf=a, rbuf=b):
                    pass
            return b[0]

        res, _ = run(2, prog)
        assert res.values[1] == 0.0

    def test_missing_required_clause_rejected(self):
        def prog(env):
            with comm_p2p(env, sbuf=np.zeros(1), rbuf=np.zeros(1)):
                pass

        with pytest.raises(SimProcessError) as ei:
            run(1, prog)
        assert isinstance(ei.value.original, ClauseError)

    def test_instance_overrides_region_receiver(self):
        def prog(env):
            a = np.array([42.0])
            b = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 2):
                with comm_p2p(env, sbuf=a, rbuf=b, receiver=2):
                    pass
            return b[0]

        res, _ = run(3, prog)
        assert res.values[2] == 42.0
        assert res.values[1] == 0.0

    def test_rank_out_of_world_rejected(self):
        def prog(env):
            with comm_p2p(env, sender=0, receiver=99,
                          sbuf=np.zeros(1), rbuf=np.zeros(1)):
                pass

        with pytest.raises(SimProcessError) as ei:
            run(2, prog)
        assert isinstance(ei.value.original, ClauseError)


class TestCountInference:
    def test_count_from_smallest_array(self):
        """Section III-B: message size = size of the smallest array."""
        def prog(env):
            small = np.arange(3.0) if env.rank == 0 else np.zeros(3)
            big = np.zeros(10)
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=small, rbuf=big):
                pass
            return big.tolist()

        res, _ = run(2, prog)
        assert res.values[1][:3] == [0.0, 1.0, 2.0]
        assert res.values[1][3:] == [0.0] * 7

    def test_explicit_count_respected(self):
        def prog(env):
            src = np.arange(10.0)
            dst = np.zeros(10)
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=src, rbuf=dst, count=2):
                pass
            return dst.tolist()

        res, _ = run(2, prog)
        assert res.values[1][:2] == [0.0, 1.0]
        assert sum(res.values[1][2:]) == 0.0

    def test_count_exceeding_buffer_rejected(self):
        def prog(env):
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=np.zeros(2), rbuf=np.zeros(2), count=5):
                pass

        with pytest.raises(SimProcessError) as ei:
            run(2, prog)
        assert isinstance(ei.value.original, ClauseError)

    def test_mismatched_buffer_list_lengths_rejected(self):
        def prog(env):
            with comm_p2p(env, sender=0, receiver=1,
                          sbuf=[np.zeros(1), np.zeros(1)],
                          rbuf=np.zeros(1)):
                pass

        with pytest.raises(SimProcessError) as ei:
            run(2, prog)
        assert isinstance(ei.value.original, ClauseError)


class TestBufferLists:
    def test_multiple_buffers_one_directive(self):
        """Listing 5 style: sbuf(vr, rhotot) rbuf(vr, rhotot)."""
        def prog(env):
            vr = (np.arange(4.0) if env.rank == 0 else np.zeros(4))
            rhotot = (np.arange(4.0) * 2 if env.rank == 0
                      else np.zeros(4))
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=[vr, rhotot], rbuf=[vr, rhotot]):
                pass
            return (vr.tolist(), rhotot.tolist())

        res, _ = run(2, prog)
        assert res.values[1] == ([0, 1, 2, 3], [0, 2, 4, 6])


class TestTargets:
    @pytest.mark.parametrize("target", [
        "TARGET_COMM_MPI_2SIDE",
        "TARGET_COMM_MPI_1SIDE",
    ])
    def test_mpi_targets_deliver(self, target):
        def prog(env):
            src = np.arange(5.0)
            dst = np.zeros(5)
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=src, rbuf=dst, target=target):
                pass
            return dst.tolist()

        res, _ = run(2, prog)
        assert res.values[1] == [0, 1, 2, 3, 4]

    def test_shmem_target_delivers_with_symmetric_buffers(self):
        def prog(env):
            sh = shmem.init(env)
            dst = sh.malloc(5, np.float64)
            src = np.arange(5.0)
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=src, rbuf=dst,
                          target="TARGET_COMM_SHMEM"):
                pass
            return dst.data.tolist()

        res, _ = run(2, prog)
        assert res.values[1] == [0, 1, 2, 3, 4]

    def test_shmem_target_rejects_plain_rbuf(self):
        """Section III-B: SHMEM buffers must be symmetric objects."""
        def prog(env):
            with comm_p2p(env, sender=0, receiver=1,
                          sbuf=np.zeros(2), rbuf=np.zeros(2),
                          target="TARGET_COMM_SHMEM"):
                pass

        with pytest.raises(SimProcessError) as ei:
            run(2, prog)
        assert isinstance(ei.value.original, SymmetryError)

    def test_mpi1s_generates_no_two_sided_traffic(self):
        def prog(env):
            src = np.ones(4)
            dst = np.zeros(4)
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=src, rbuf=dst,
                          target="TARGET_COMM_MPI_1SIDE"):
                pass
            return dst.sum()

        res, eng = run(2, prog)
        assert res.values[1] == 4.0
        assert eng.stats.messages["mpi1s"] == 1
        assert eng.stats.messages["mpi2s"] == 0

    def test_shmem_uses_typed_puts(self):
        def prog(env):
            sh = shmem.init(env)
            dst = sh.malloc(3, np.float64)
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=np.ones(3), rbuf=dst,
                          target="TARGET_COMM_SHMEM"):
                pass

        _, eng = run(2, prog, profile=True)
        puts = eng.profile.of_kind("message")
        assert len(puts) == 1
        assert puts[0].attrs["call"] == "shmem_double_put"


class TestOverlap:
    def test_body_runs_before_sync(self):
        """The body computation overlaps the transfer: total time is
        max(comm, compute), not their sum."""
        def prog(env):
            src = np.zeros(100_000)   # rendezvous-sized: real wire time
            dst = np.zeros(100_000)
            t0 = env.now
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=src, rbuf=dst):
                env.compute(1e-3)  # 1 ms body, >> the transfer
            return env.now - t0

        res, _ = run(2, prog, model=uniform_model())
        wire = uniform_model().transport("mpi2s").wire_time(800_000)
        assert wire > 100e-6  # sanity: transfer is substantial
        for elapsed in res.values:
            # Overlapped: clearly less than compute + wire.
            assert elapsed < 1e-3 + 0.5 * wire
            assert elapsed >= 1e-3

    def test_without_body_receiver_pays_wire_time(self):
        def prog(env):
            src = np.zeros(100_000)
            dst = np.zeros(100_000)
            t0 = env.now
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=src, rbuf=dst):
                pass
            return env.now - t0

        res, _ = run(2, prog, model=uniform_model())
        wire = uniform_model().transport("mpi2s").wire_time(800_000)
        assert res.values[1] >= wire


class TestDependentInstances:
    def test_overlapping_buffers_force_early_sync(self):
        """An instance whose rbuf overlaps a pending one cannot share the
        consolidated sync; the runtime flushes first and data stays
        correct (second transfer wins)."""
        def prog(env):
            a = np.array([1.0]) if env.rank == 0 else np.zeros(1)
            b = np.array([2.0]) if env.rank == 0 else np.zeros(1)
            dst = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1):
                with comm_p2p(env, sbuf=a, rbuf=dst):
                    pass
                with comm_p2p(env, sbuf=b, rbuf=dst):  # same rbuf!
                    pass
            return dst[0]

        res, eng = run(2, prog, profile=True)
        assert res.values[1] == 2.0
        # The aliasing instance flushed the pending one: rank 1 syncs
        # twice where two independent instances would share one sync.
        syncs = [s for s in eng.profile.of_kind("sync") if s.rank == 1]
        assert len(syncs) == 2

    def test_independent_buffers_share_one_sync(self):
        """Control for the flush above: distinct rbufs consolidate."""
        def prog(env):
            a = np.array([1.0]) if env.rank == 0 else np.zeros(1)
            b = np.array([2.0]) if env.rank == 0 else np.zeros(1)
            dst1, dst2 = np.zeros(1), np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1):
                with comm_p2p(env, sbuf=a, rbuf=dst1):
                    pass
                with comm_p2p(env, sbuf=b, rbuf=dst2):
                    pass
            return (dst1[0], dst2[0])

        res, eng = run(2, prog, profile=True)
        assert res.values[1] == (1.0, 2.0)
        syncs = [s for s in eng.profile.of_kind("sync") if s.rank == 1]
        assert len(syncs) == 1


class TestSyncPlacement:
    def test_begin_next_param_region(self):
        """Sync deferred to the next region's entry."""
        def prog(env):
            a = np.array([5.0]) if env.rank == 0 else np.zeros(1)
            dst = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1,
                                 place_sync="BEGIN_NEXT_PARAM_REGION"):
                with comm_p2p(env, sbuf=a, rbuf=dst):
                    pass
            # Next region: carried sync runs at its entry.
            b = np.array([6.0]) if env.rank == 0 else np.zeros(1)
            dst2 = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1):
                after_entry = dst[0]
                with comm_p2p(env, sbuf=b, rbuf=dst2):
                    pass
            return (after_entry, dst2[0])

        res, _ = run(2, prog)
        assert res.values[1] == (5.0, 6.0)

    def test_end_adj_param_regions_chain(self):
        """A chain of END_ADJ regions shares one deferred sync."""
        def prog(env):
            srcs = [np.array([float(i)]) if env.rank == 0 else np.zeros(1)
                    for i in range(3)]
            dsts = [np.zeros(1) for _ in range(3)]
            for i in range(3):
                with comm_parameters(env, sender=0, receiver=1,
                                     sendwhen=env.rank == 0,
                                     receivewhen=env.rank == 1,
                                     place_sync="END_ADJ_PARAM_REGIONS"):
                    with comm_p2p(env, sbuf=srcs[i], rbuf=dsts[i]):
                        pass
            comm_flush(env)
            return [d[0] for d in dsts]

        res, eng = run(2, prog, profile=True)
        assert res.values[1] == [0.0, 1.0, 2.0]
        # The three regions consolidated into a single sync span per
        # participating rank.
        syncs = eng.profile.of_kind("sync")
        assert sorted(s.rank for s in syncs) == [0, 1]

    def test_end_adj_chain_broken_by_normal_region(self):
        def prog(env):
            a = np.array([1.0]) if env.rank == 0 else np.zeros(1)
            dst = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1,
                                 place_sync="END_ADJ_PARAM_REGIONS"):
                with comm_p2p(env, sbuf=a, rbuf=dst):
                    pass
            # A non-END_ADJ region terminates the chain at its entry.
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1):
                chain_result = dst[0]
            return chain_result

        res, _ = run(2, prog)
        assert res.values[1] == 1.0


class TestStructuredPayloads:
    def test_composite_buffer_uses_cached_derived_type(self):
        """Section III-A: one struct creation, reused in scope."""
        dt = np.dtype([("n", "i4"), ("x", "f8", (3,))], align=True)

        def prog(env):
            src = np.zeros(2, dtype=dt)
            if env.rank == 0:
                src["n"] = [1, 2]
                src["x"][0] = [1.0, 2.0, 3.0]
            dst = np.zeros(2, dtype=dt)
            for _ in range(4):  # repeated use: type created once
                with comm_p2p(env, sender=0, receiver=1,
                              sendwhen=env.rank == 0,
                              receivewhen=env.rank == 1,
                              sbuf=src, rbuf=dst):
                    pass
            return (int(dst["n"][1]), dst["x"][0].tolist())

        res, eng = run(2, prog)
        assert res.values[1] == (2, [1.0, 2.0, 3.0])
        # One creation per rank; the rest are cache hits.
        assert eng.stats.datatype_ops["struct_created"] == 2
        assert eng.stats.datatype_ops["struct_reused"] >= 6
