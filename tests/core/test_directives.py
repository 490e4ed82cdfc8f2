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


def _a(n=2, dtype=np.float64):
    return np.zeros(n, dtype=dtype)


#: A self-transfer on rank 0 of a one-rank world.
ME = dict(sender=0, receiver=0)

PAIRING = ("sendwhen and receivewhen must both be present or both be "
           "omitted (Section III-B)")


def p2p_only(name):
    return (f"clause(s) ['{name}'] may only be used with comm_parameters "
            "(Section III-B)")


def missing(names):
    return (f"comm_p2p is missing required clause(s) {names} (not "
            "provided by the directive or its enclosing comm_parameters "
            "region)")


def bad_target(got):
    return ("target clause accepts ['TARGET_COMM_MPI_1SIDE', "
            f"'TARGET_COMM_MPI_2SIDE', 'TARGET_COMM_SHMEM']; got {got!r}")


#: (case, region clauses or None, instance clauses, comm_p2p executions
#: per region entry, error type, message): every ClauseError and
#: SymmetryError path of comm_p2p/comm_parameters, with its exact text.
ERROR_CASES = [
    ("unknown_clause", None,
     lambda env: dict(ME, sbuf=_a(), rbuf=_a(), frobnicate=2), 1,
     ClauseError,
     "unknown clause(s) ['frobnicate']; the directives accept ['count', "
     "'max_comm_iter', 'place_sync', 'rbuf', 'receiver', 'receivewhen', "
     "'sbuf', 'sender', 'sendwhen', 'target']"),
    ("place_sync_on_p2p", None,
     lambda env: dict(ME, sbuf=_a(), rbuf=_a(),
                      place_sync="END_PARAM_REGION"), 1,
     ClauseError, p2p_only("place_sync")),
    ("max_comm_iter_on_p2p", None,
     lambda env: dict(ME, sbuf=_a(), rbuf=_a(), max_comm_iter=2), 1,
     ClauseError, p2p_only("max_comm_iter")),
    ("unpaired_when_instance", None,
     lambda env: dict(ME, sbuf=_a(), rbuf=_a(), sendwhen=True), 1,
     ClauseError, PAIRING),
    ("unpaired_when_region", dict(ME, receivewhen=True),
     lambda env: dict(sbuf=_a(), rbuf=_a()), 1,
     ClauseError, PAIRING),
    ("missing_required", None,
     lambda env: dict(sbuf=_a(), rbuf=_a()), 1,
     ClauseError, missing(["sender", "receiver"])),
    ("missing_required_in_region", dict(sender=0),
     lambda env: dict(sbuf=_a()), 1,
     ClauseError, missing(["receiver", "rbuf"])),
    ("bad_target", None,
     lambda env: dict(ME, sbuf=_a(), rbuf=_a(), target="TARGET_COMM_PVM"),
     1, ClauseError, bad_target("TARGET_COMM_PVM")),
    ("bad_region_target", dict(ME, target="MPI"),
     lambda env: dict(sbuf=_a(), rbuf=_a()), 1,
     ClauseError, bad_target("MPI")),
    ("bad_place_sync", dict(ME, place_sync="WHEREVER"),
     lambda env: dict(sbuf=_a(), rbuf=_a()), 1,
     ClauseError,
     "place_sync clause accepts ['END_PARAM_REGION', "
     "'BEGIN_NEXT_PARAM_REGION', 'END_ADJ_PARAM_REGIONS']; got 'WHEREVER'"),
    ("negative_count", None,
     lambda env: dict(ME, sbuf=_a(), rbuf=_a(), count=-1), 1,
     ClauseError, "count must evaluate to a non-negative integer, got -1"),
    ("float_count", dict(ME, count=1.5),
     lambda env: dict(sbuf=_a(), rbuf=_a()), 1,
     ClauseError, "count must evaluate to a non-negative integer, got 1.5"),
    ("zero_max_comm_iter", dict(ME, max_comm_iter=0),
     lambda env: dict(sbuf=_a(), rbuf=_a()), 1,
     ClauseError, "max_comm_iter must evaluate to a positive integer, got 0"),
    ("sender_outside_world", None,
     lambda env: dict(sender=99, receiver=0, sbuf=_a(), rbuf=_a()), 1,
     ClauseError, "sender evaluates to rank 99, outside the 0..0 world"),
    ("receiver_outside_world", None,
     lambda env: dict(sender=0, receiver=7, sendwhen=True,
                      receivewhen=False, sbuf=_a(), rbuf=_a()), 1,
     ClauseError, "receiver evaluates to rank 7, outside the 0..0 world"),
    ("receiver_not_a_rank",
     dict(ME, receiver="0", sendwhen=True, receivewhen=False),
     lambda env: dict(sbuf=_a(), rbuf=_a()), 1,
     ClauseError, "receiver must evaluate to a process id, got '0'"),
    ("sbuf_not_a_buffer", None,
     lambda env: dict(ME, sbuf=3.0, rbuf=_a()), 1,
     ClauseError, "sbuf must be a buffer or a list of buffers; got float"),
    ("rbuf_empty_list", None,
     lambda env: dict(ME, sbuf=_a(), rbuf=[]), 1,
     ClauseError, "rbuf must list at least one buffer"),
    ("rbuf_entry_not_array", None,
     lambda env: dict(ME, sbuf=[_a()], rbuf=(_a(), [0.0])), 1,
     ClauseError,
     "rbuf entries must be numpy arrays (or symmetric arrays for the "
     "SHMEM target); got list"),
    ("shmem_plain_rbuf", None,
     lambda env: dict(ME, sbuf=[_a(), _a()],
                      rbuf=[shmem.init(env).malloc(2, np.float64), _a()],
                      target="TARGET_COMM_SHMEM"), 1,
     SymmetryError,
     "TARGET_COMM_SHMEM requires every rbuf entry to be a symmetric data "
     "object (shmem.malloc); entries [1] are plain arrays (Section III-B)"),
    ("list_length_mismatch", None,
     lambda env: dict(ME, sbuf=[_a(), _a()], rbuf=_a()), 1,
     ClauseError,
     "sbuf and rbuf must list the same number of buffers (payloads pair "
     "up positionally); got 2 vs 1"),
    ("element_size_mismatch", None,
     lambda env: dict(ME, sbuf=[_a(), _a()],
                      rbuf=[_a(), _a(2, np.int32)]), 1,
     ClauseError,
     "buffer pair 1: element sizes differ (8 vs 4 bytes); the generated "
     "transfer would reinterpret elements"),
    ("count_exceeds_rbuf", None,
     lambda env: dict(ME, sbuf=[_a(8), _a(8)], rbuf=[_a(8), _a(3)],
                      count=5), 1,
     ClauseError, "count 5 exceeds rbuf[1] (3 elements)"),
    ("count_exceeds_sbuf", dict(ME, count=4),
     lambda env: dict(sbuf=_a(3), rbuf=_a(3)), 1,
     ClauseError, "count 4 exceeds sbuf[0] (3 elements)"),
    ("inferred_count_without_array", None,
     lambda env: dict(ME, sbuf=_a(0), rbuf=_a(0)), 1,
     ClauseError,
     "count was omitted but no buffer in sbuf/rbuf is an array; provide "
     "count explicitly"),
    ("max_comm_iter_overflow", dict(ME, count=1, max_comm_iter=1),
     lambda env: dict(sbuf=_a(), rbuf=_a()), 2,
     ClauseError,
     "comm_p2p executed 2 times in a region declaring max_comm_iter(1); "
     "the generated synchronization bookkeeping would overflow "
     "(Section III-B)"),
]

REPEATS = 3


def _execute(env, region, inst, inside):
    """One execution of a directive site (inside a region when given)."""
    if region is None:
        with comm_p2p(env, **inst):
            pass
        return
    with comm_parameters(env, **region):
        for _ in range(inside):
            with comm_p2p(env, **inst):
                pass


def _outcome(env, region, inst, inside=1):
    try:
        _execute(env, region, inst, inside)
    except (ClauseError, SymmetryError) as e:
        return (type(e), str(e))
    return "ok"


class TestErrorPaths:
    """A directive site resolves its clause names once; its errors must
    not depend on how often the site ran before."""

    @pytest.mark.parametrize("case", ERROR_CASES, ids=lambda c: c[0])
    def test_same_error_on_every_execution(self, case):
        _, region, inst, inside, etype, message = case

        def prog(env):
            return [_outcome(env, region, inst(env), inside)
                    for _ in range(REPEATS)]

        res, _ = run(1, prog)
        assert res.values[0] == [(etype, message)] * REPEATS

    @pytest.mark.parametrize("where,bad,etype,message", [
        ("p2p", dict(count=5), ClauseError,
         "count 5 exceeds sbuf[0] (2 elements)"),
        ("p2p", dict(sender=9), ClauseError,
         "sender evaluates to rank 9, outside the 0..0 world"),
        ("p2p", dict(target="SHMEM"), ClauseError, bad_target("SHMEM")),
        ("p2p", dict(target="TARGET_COMM_SHMEM"), SymmetryError,
         "TARGET_COMM_SHMEM requires every rbuf entry to be a symmetric "
         "data object (shmem.malloc); entries [0] are plain arrays "
         "(Section III-B)"),
        ("p2p", dict(sbuf=np.zeros(2, np.int32)), ClauseError,
         "buffer pair 0: element sizes differ (4 vs 8 bytes); the "
         "generated transfer would reinterpret elements"),
        ("p2p", dict(rbuf=[]), ClauseError,
         "rbuf must list at least one buffer"),
        ("region", dict(count=-1), ClauseError,
         "count must evaluate to a non-negative integer, got -1"),
        ("region", dict(sender="0"), ClauseError,
         "sender must evaluate to a process id, got '0'"),
        ("region", dict(max_comm_iter=True), ClauseError,
         "max_comm_iter must evaluate to a positive integer, got True"),
        ("region", dict(receiver="0"), ClauseError,
         "receiver must evaluate to a process id, got '0'"),
        ("p2p", dict(receiver=9), ClauseError,
         "receiver evaluates to rank 9, outside the 0..0 world"),
    ])
    def test_bad_value_after_success_still_raises(self, where, bad, etype,
                                                  message):
        """The plan caches names, never values: a site that succeeded
        still checks a bad value given under the same clause names."""
        good = {"p2p": dict(sbuf=_a(), rbuf=_a(),
                            target="TARGET_COMM_MPI_2SIDE"),
                "region": dict(ME, count=1, max_comm_iter=1)}

        def prog(env):
            outcomes = []
            for change in ({}, bad, {}):
                clauses = {k: {**v, **change} if k == where else v
                           for k, v in good.items()}
                outcomes.append(_outcome(env, clauses["region"],
                                         clauses["p2p"]))
            return outcomes

        res, _ = run(1, prog)
        assert res.values[0] == ["ok", (etype, message), "ok"]
