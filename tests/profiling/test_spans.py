"""The Profile span recorder and its engine wiring."""

import numpy as np
import pytest

from repro import mpi
from repro.core.directives import comm_p2p
from repro.netmodel import gemini_model
from repro.profiling.spans import Profile
from repro.sim import Engine


class TestProfileRecorder:
    def test_begin_end_roundtrip(self):
        p = Profile()
        sid = p.begin(0, "window", 1.0)
        p.end(sid, 2.5, closed_by="sync")
        (span,) = p.spans
        assert span.kind == "window"
        assert span.duration == pytest.approx(1.5)
        assert span.attrs["closed_by"] == "sync"

    def test_end_clamps_backwards_time(self):
        p = Profile()
        sid = p.begin(0, "window", 2.0)
        p.end(sid, 1.0)
        assert p.spans[0].t1 == 2.0

    def test_finish_closes_open_spans(self):
        p = Profile()
        p.begin(1, "window", 0.5)
        p.finish([1.0, 3.0])
        assert p.spans[0].t1 == 3.0
        assert p.makespan == 3.0
        assert p.nranks == 2

    def test_label_stack(self):
        p = Profile()
        assert p.current_label(0) is None
        p.push_label(0, "outer")
        p.push_label(0, "inner")
        assert p.current_label(0) == "inner"
        assert p.current_label(1) is None
        p.pop_label(0)
        assert p.current_label(0) == "outer"

    def test_queries(self):
        p = Profile()
        p.add(0, "compute", 0.0, 1.0)
        p.add(1, "sync", 0.0, 2.0)
        assert len(p) == 2
        assert [s.kind for s in p.of_kind("sync")] == ["sync"]
        assert len(p.by_rank(1)) == 1
        assert "sync" in p.render(limit=1) or "compute" in p.render(limit=1)

    def test_span_str(self):
        p = Profile()
        p.add(3, "message", 1.5e-6, 2.5e-6, src=1, dst=3)
        p.begin(0, "window", 0.0)
        closed, open_ = (str(s) for s in p)
        assert closed == ("[0.000001500..0.000002500] rank 3: message "
                          "dst=3 src=1")
        assert open_ == "[0.000000000..open] rank 0: window"

    def test_render_limits(self):
        p = Profile()
        for i in range(10):
            p.instant(0, "crash", float(i))
        assert "7 more spans" in p.render(limit=3)
        assert len(p.render().splitlines()) == 10


class TestEngineWiring:
    def test_off_by_default(self):
        eng = Engine(2)
        res = eng.run(lambda env: env.compute(1e-6))
        assert eng.profile is None
        assert res.profile is None

    def test_compute_spans_recorded(self):
        eng = Engine(2, profile=True)
        res = eng.run(lambda env: env.compute(2e-6, label="work"))
        computes = res.profile.of_kind("compute")
        assert len(computes) == 2
        assert all(s.duration == pytest.approx(2e-6) for s in computes)
        assert computes[0].attrs["label"] == "work"

    def test_directive_run_emits_full_span_vocabulary(self):
        model = gemini_model()

        def main(env):
            mpi.init(env, model)
            prev = (env.rank - 1 + env.size) % env.size
            nxt = (env.rank + 1) % env.size
            out = np.arange(64.0)
            inb = np.zeros(64)
            with comm_p2p(env, sender=prev, receiver=nxt,
                          sbuf=out, rbuf=inb):
                env.compute(1e-6)

        eng = Engine(4, profile=True)
        res = eng.run(main)
        kinds = {s.kind for s in res.profile}
        assert {"compute", "post", "sync", "window", "message"} <= kinds
        sync = res.profile.of_kind("sync")[0]
        assert sync.attrs["send_keys"] and sync.attrs["recv_keys"]
        # Message spans are attributed to the destination rank.
        for m in res.profile.of_kind("message"):
            assert m.rank == m.attrs["dst"]

    def test_windows_close_at_sync(self):
        model = gemini_model()

        def main(env):
            mpi.init(env, model)
            prev = (env.rank - 1 + env.size) % env.size
            nxt = (env.rank + 1) % env.size
            out = np.arange(8.0)
            inb = np.zeros(8)
            with comm_p2p(env, sender=prev, receiver=nxt,
                          sbuf=out, rbuf=inb):
                pass

        res = Engine(3, profile=True).run(main)
        for rank in range(3):
            windows = [s for s in res.profile.of_kind("window")
                       if s.rank == rank]
            syncs = [s for s in res.profile.of_kind("sync")
                     if s.rank == rank]
            assert windows and syncs
            assert windows[0].t1 == pytest.approx(syncs[0].t0)
