"""Communication-matrix analysis over profile spans.

The pinned counts, volumes and size histograms were recorded from the
event-trace implementation this analysis replaced; the span-based
matrix must reproduce them exactly.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro import mpi, shmem
from repro.core import comm_p2p
from repro.netmodel import zero_model
from repro.profiling import Profile
from repro.sim import Engine, comm_matrix

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def profiled_run(nprocs, fn):
    model = zero_model()
    eng = Engine(nprocs, profile=True)

    def main(env):
        comm = mpi.init(env, model)
        return fn(env, comm)

    res = eng.run(main)
    return comm_matrix(res.profile), eng


def histogram(m):
    return sorted(m.size_histogram.items())


class TestCommMatrix:
    def test_counts_and_volume(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(4), dest=1)           # 32 bytes
                comm.Send(np.zeros(2), dest=2, tag=1)    # 16 bytes
            elif env.rank == 1:
                comm.Recv(np.zeros(4), source=0)
            elif env.rank == 2:
                comm.Recv(np.zeros(2), source=0, tag=1)

        m, _ = profiled_run(3, prog)
        assert m.messages[0, 1] == 1
        assert m.volume[0, 1] == 32
        assert m.volume[0, 2] == 16
        assert m.total_messages == 2
        assert m.total_bytes == 48
        assert m.messages.tolist() == [[0, 1, 1], [0, 0, 0], [0, 0, 0]]
        assert histogram(m) == [(16, 1), (32, 1)]

    def test_hotspots_ordering(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(100), dest=1)
                comm.Send(np.zeros(1), dest=2, tag=1)
            elif env.rank == 1:
                comm.Recv(np.zeros(100), source=0)
            elif env.rank == 2:
                comm.Recv(np.zeros(1), source=0, tag=1)

        m, _ = profiled_run(3, prog)
        hs = m.hotspots(k=2)
        assert hs[0] == (0, 1, 800)
        assert hs[1] == (0, 2, 8)
        assert histogram(m) == [(8, 1), (1024, 1)]

    def test_degree(self):
        def prog(env, comm):
            if env.rank == 0:
                for dst in (1, 2):
                    comm.Send(np.zeros(1), dest=dst)
            else:
                comm.Recv(np.zeros(1), source=0)

        m, _ = profiled_run(3, prog)
        assert m.degree(0) == (2, 0)
        assert m.degree(1) == (0, 1)
        assert m.volume.tolist() == [[0, 8, 8], [0, 0, 0], [0, 0, 0]]
        assert histogram(m) == [(8, 2)]

    def test_small_message_fraction(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(3), dest=1)          # 24B (small)
                comm.Send(np.zeros(1000), dest=1, tag=1)  # 8000B
            else:
                comm.Recv(np.zeros(3), source=0, tag=0)
                comm.Recv(np.zeros(1000), source=0, tag=1)

        m, _ = profiled_run(2, prog)
        assert m.small_message_fraction(256) == pytest.approx(0.5)
        assert m.messages.tolist() == [[0, 2], [0, 0]]
        assert m.volume.tolist() == [[0, 8024], [0, 0]]
        assert histogram(m) == [(32, 1), (8192, 1)]

    def test_shmem_puts_counted(self):
        model = zero_model()
        eng = Engine(2, profile=True)

        def main(env):
            mpi.init(env, model)
            sh = shmem.init(env)
            dst = sh.malloc(4)
            if env.rank == 0:
                sh.put(dst, np.ones(4), pe=1)
            sh.barrier_all()

        m = comm_matrix(eng.run(main).profile)
        assert m.messages.tolist() == [[0, 1], [0, 0]]
        assert m.volume.tolist() == [[0, 32], [0, 0]]
        assert histogram(m) == [(32, 1)]

    def test_raw_win_put_counted(self):
        def prog(env, comm):
            win = mpi.Win.create(comm, np.zeros(4))
            win.Fence()
            if env.rank == 0:
                win.Put(np.ones(3), 1)
            win.Fence()

        m, _ = profiled_run(2, prog)
        assert m.messages.tolist() == [[0, 1], [0, 0]]
        assert m.volume.tolist() == [[0, 24], [0, 0]]
        assert histogram(m) == [(32, 1)]

    def test_one_sided_notify_not_counted(self):
        """A directive MPI_Put is one message; the flag update the
        receiver's sync waits on is a notify span, not traffic."""
        def prog(env, comm):
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0,
                          receivewhen=env.rank == 1,
                          sbuf=np.ones(4), rbuf=np.zeros(4),
                          target="TARGET_COMM_MPI_1SIDE"):
                pass

        m, eng = profiled_run(2, prog)
        assert len(eng.profile.of_kind("notify")) == 1
        assert m.messages.tolist() == [[0, 1], [0, 0]]
        assert m.volume.tolist() == [[0, 32], [0, 0]]
        assert histogram(m) == [(32, 1)]

    def test_subcommunicator_traffic_mapped_to_world_ranks(self):
        """Matrix rows/columns are world ranks, even for group comms."""
        def prog(env, comm):
            sub = comm.Split(color=env.rank % 2)  # evens: 0,2
            if env.rank == 0:
                sub.Send(np.zeros(1), dest=1)  # local 1 == world 2
            elif env.rank == 2:
                sub.Recv(np.zeros(1), source=0)

        m, _ = profiled_run(4, prog)
        assert m.messages[0, 2] == 1
        assert m.messages[0, 1] == 0
        assert m.total_messages == 1
        assert m.total_bytes == 8

    def test_render_summary(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(2), dest=1)
            else:
                comm.Recv(np.zeros(2), source=0)

        m, _ = profiled_run(2, prog)
        out = m.render()
        assert "1 messages" in out
        assert "hotspot: 0 -> 1" in out
        assert m.volume.tolist() == [[0, 16], [0, 0]]

    def test_empty_trace(self):
        res = Engine(2, profile=True).run(lambda env: None)
        m = comm_matrix(res.profile)
        assert m.nprocs == 2
        assert m.total_messages == 0
        assert m.small_message_fraction() == 0.0
        assert m.hotspots() == []

    def test_empty_profile_is_all_zeros(self):
        profile = Profile()
        profile.finish([0.0, 0.0, 0.0])
        m = comm_matrix(profile)
        assert m.messages.tolist() == [[0] * 3] * 3
        assert m.volume.tolist() == [[0] * 3] * 3
        assert not m.size_histogram


def _load_stencil2d():
    spec = importlib.util.spec_from_file_location(
        "stencil2d", os.path.join(EXAMPLES, "stencil2d.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``examples/stencil2d.py`` volume matrices (bytes) and size histograms
#: per world size; every nonzero pair carries one strip per sweep.
_STENCIL2D = {
    4: ([[0, 960, 1440, 0],
         [960, 0, 0, 1440],
         [1440, 0, 0, 960],
         [0, 1440, 960, 0]],
        [(128, 40), (256, 40)]),
    6: ([[0, 960, 0, 960, 0, 0],
         [960, 0, 960, 0, 960, 0],
         [0, 960, 0, 0, 0, 960],
         [960, 0, 0, 0, 960, 0],
         [0, 960, 0, 960, 0, 960],
         [0, 0, 960, 0, 960, 0]],
        [(128, 140)]),
    12: ([[0, 640, 0, 0, 720, 0, 0, 0, 0, 0, 0, 0],
          [640, 0, 640, 0, 0, 720, 0, 0, 0, 0, 0, 0],
          [0, 640, 0, 640, 0, 0, 720, 0, 0, 0, 0, 0],
          [0, 0, 640, 0, 0, 0, 0, 720, 0, 0, 0, 0],
          [720, 0, 0, 0, 0, 640, 0, 0, 720, 0, 0, 0],
          [0, 720, 0, 0, 640, 0, 640, 0, 0, 720, 0, 0],
          [0, 0, 720, 0, 0, 640, 0, 640, 0, 0, 720, 0],
          [0, 0, 0, 720, 0, 0, 640, 0, 0, 0, 0, 720],
          [0, 0, 0, 0, 720, 0, 0, 0, 0, 640, 0, 0],
          [0, 0, 0, 0, 0, 720, 0, 0, 640, 0, 640, 0],
          [0, 0, 0, 0, 0, 0, 720, 0, 0, 640, 0, 640],
          [0, 0, 0, 0, 0, 0, 0, 720, 0, 0, 640, 0]],
         [(64, 180), (128, 160)]),
}


@pytest.mark.parametrize("nprocs", sorted(_STENCIL2D))
def test_stencil2d_example_matrix(nprocs):
    stencil2d = _load_stencil2d()
    _, res, _ = stencil2d.run_parallel(nprocs)
    m = comm_matrix(res.profile)
    volume, hist = _STENCIL2D[nprocs]
    assert m.volume.tolist() == volume
    assert m.messages.tolist() == [[stencil2d.SWEEPS if v else 0
                                    for v in row] for row in volume]
    assert histogram(m) == hist


class TestWaitanyTestall:
    def test_waitany_returns_earliest_completion(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.env.compute(1e-3)
                comm.Send(np.array([1.0]), dest=1, tag=7)
                comm.Send(np.array([2.0]), dest=1, tag=9)
                return None
            later = np.zeros(1)
            early = np.zeros(1)
            r1 = comm.Irecv(later, source=0, tag=9)
            r2 = comm.Irecv(early, source=0, tag=7)
            comm.env.compute(2e-3)  # both transfers complete meanwhile,
            # with distinct arrival-based completion times (tag 7 first)
            idx = comm.Waitany([r1, r2])
            comm.Wait(r1)  # drain the other request
            return (idx, early[0], later[0])

        from repro.netmodel import uniform_model
        model = uniform_model()  # distinct completion times
        eng = Engine(2)

        def main(env):
            comm = mpi.init(env, model)
            return prog(env, comm)

        res = eng.run(main)
        assert res.values[1] == (1, 1.0, 2.0)

    def test_testall_consumes_only_when_all_done(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=0)
                comm.env.compute(1.0)
                comm.Send(np.array([2.0]), dest=1, tag=1)
                return None
            a, b = np.zeros(1), np.zeros(1)
            r1 = comm.Irecv(a, source=0, tag=0)
            r2 = comm.Irecv(b, source=0, tag=1)
            polls = 0
            while not comm.Testall([r1, r2]):
                polls += 1
            return (a[0], b[0], polls > 0)

        from repro.netmodel import uniform_model
        model = uniform_model()
        eng = Engine(2, max_time=100.0)

        def main(env):
            comm = mpi.init(env, model)
            return prog(env, comm)

        res = eng.run(main)
        assert res.values[1] == (1.0, 2.0, True)
