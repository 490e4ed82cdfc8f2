"""The paper's performance claims as relations on modeled time.

Each test runs a reduced version of a paper experiment (three process
counts, small payloads) under the calibrated Gemini model and asserts
the claim's shape: who wins, by what factor, where the crossover lies.
The bands are the ones EXPERIMENTS.md states; ``python -m repro.bench``
prints the full sweeps. The bands absorb a 10% drift of a model
constant, so the Fig. 3 and Fig. 4 series are also pinned bit for bit
(``float.hex``) in ``tests/bench/golden/figures.json``; after an
intended model change, re-pin them with :func:`_hex_series` and say why
in the change description.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro import mpi, shmem
from repro.bench.harness import (
    figure3,
    figure4,
    figure5,
    figure5_speedup_sweep,
)
from repro.bench.report import mean_speedup
from repro.core import comm_flush, comm_p2p, comm_parameters
from repro.netmodel import gemini_model
from repro.netmodel.base import MPI_2SIDED
from repro.patterns import get_pattern
from repro.sim import Engine
from tests.patterns._forms import MPI_FORMS, run_mpi_form, run_text

_MODEL = gemini_model()

_FIGURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "figures.json")


def _hex_series(fig) -> dict:
    """A figure's x axis and series, each time as ``float.hex``."""
    return {"xs": list(fig.xs),
            "series": {label: [float(v).hex() for v in ys]
                       for label, ys in fig.series.items()}}


def _golden_figure(name: str) -> dict:
    with open(_FIGURES, encoding="utf-8") as fh:
        return json.load(fh)[name]


class TestFigure3:
    """Single-atom-data distribution: the directive translations (MPI
    and SHMEM targets) perform comparably to the original pack/unpack
    code across the process sweep."""

    @pytest.fixture(scope="class")
    def fig3(self):
        # t=2048 keeps the payloads bandwidth-dominated, as in the full
        # experiment; far smaller payloads let per-message overheads
        # differentiate the targets (SHMEM's small-message edge), which
        # is Figure 4's regime, not Figure 3's.
        return figure3(quick=True, t=2048, tc=8)

    def test_three_series_present(self, fig3):
        assert set(fig3.series) == {
            "original", "MPI target / directive",
            "SHMEM target / directive"}

    def test_series_comparable_within_band(self, fig3):
        """All three within ~±30% of one another at every P."""
        for i in range(len(fig3.xs)):
            values = [fig3.series[s][i] for s in fig3.series]
            assert max(values) / min(values) < 1.3, \
                f"series diverge at P={fig3.xs[i]}: {values}"

    def test_time_increases_with_processes(self, fig3):
        for label, ys in fig3.series.items():
            assert all(a < b for a, b in zip(ys, ys[1:])), \
                f"{label} is not increasing: {ys}"

    def test_growth_is_roughly_linear_in_instances(self, fig3):
        """Fig 3 grows linearly (the WL rank's serial deck distribution
        dominates): time(M=12) ~ 6x time(M=2), well below quadratic."""
        ys = fig3.series["original"]
        ms = [(p - 1) // 16 for p in fig3.xs]
        ratio = (ys[-1] / ys[0]) / (ms[-1] / ms[0])
        assert 0.5 < ratio < 2.0

    def test_modeled_times_golden(self, fig3):
        assert _hex_series(fig3) == _golden_figure("figure3")


class TestFigure4:
    """Random-spin-configuration communication: directive-MPI ~4x
    faster than the original, directive-SHMEM ~38x; the ablation (the
    original with one MPI_Waitall per loop) ~2.6x, leaving ~1.4x /
    ~14.5x residual for the two targets."""

    ORIG = "original"
    ABLA = "original + Waitall (ablation)"
    DMPI = "MPI target / directive"
    D1S = "MPI 1-sided target / directive (extension)"
    DSHM = "SHMEM target / directive"

    @pytest.fixture(scope="class")
    def fig4(self):
        return figure4(quick=True, wl_steps=2)

    def test_strict_ordering_everywhere(self, fig4):
        """SHMEM > 1-sided > directive-MPI > Waitall ablation >
        original, at every process count."""
        for i in range(len(fig4.xs)):
            t = {s: fig4.series[s][i] for s in fig4.series}
            assert (t[self.ORIG] > t[self.ABLA] > t[self.DMPI]
                    > t[self.D1S] > t[self.DSHM]), \
                f"ordering broken at P={fig4.xs[i]}: {t}"

    def test_mpi_speedup_band(self, fig4):
        """Paper: ~4x. Accept 3-5x."""
        up = mean_speedup(fig4, self.ORIG, self.DMPI)
        assert 3.0 <= up <= 5.0, f"MPI directive speedup {up:.2f}x"

    def test_shmem_speedup_band(self, fig4):
        """Paper: ~38x. Accept 25-50x."""
        up = mean_speedup(fig4, self.ORIG, self.DSHM)
        assert 25.0 <= up <= 50.0, f"SHMEM directive speedup {up:.2f}x"

    def test_waitall_ablation_band(self, fig4):
        """Paper: ~2.6x. Accept 2-3.5x."""
        up = mean_speedup(fig4, self.ORIG, self.ABLA)
        assert 2.0 <= up <= 3.5, f"Waitall ablation speedup {up:.2f}x"

    def test_residual_factors(self, fig4):
        """Paper: 1.4x MPI and 14.5x SHMEM over the ablation."""
        mpi_res = mean_speedup(fig4, self.ABLA, self.DMPI)
        shm_res = mean_speedup(fig4, self.ABLA, self.DSHM)
        assert 1.15 <= mpi_res <= 1.8, f"MPI residual {mpi_res:.2f}x"
        assert 8.0 <= shm_res <= 20.0, f"SHMEM residual {shm_res:.2f}x"

    def test_modeled_times_golden(self, fig4):
        assert _hex_series(fig4) == _golden_figure("figure4")


class TestFigure5:
    """Overlap under 10x-accelerated compute (the projected GPU port):
    overlapping the spin-configuration communication with the
    spin-independent computation reduces execution time, bounded by
    the communication time (compute dominates 19:1 before
    acceleration)."""

    PLAIN = "original comm + optimized computation"
    OVER = "directive overlap + optimized computation"

    @pytest.fixture(scope="class")
    def fig5(self):
        return figure5(quick=True, wl_steps=2)

    def test_overlap_wins_everywhere(self, fig5):
        for i in range(len(fig5.xs)):
            assert fig5.series[self.OVER][i] < fig5.series[self.PLAIN][i], \
                f"overlap loses at P={fig5.xs[i]}"

    def test_benefit_bounded_by_comm_time(self, fig5):
        """The saved time can never exceed the communication time."""
        benefits = [p - o for p, o in zip(fig5.series[self.PLAIN],
                                          fig5.series[self.OVER])]
        # Under 10x compute the comm phase is ~10-25% of the plain
        # total; the benefit must sit below that fraction.
        for b, total in zip(benefits, fig5.series[self.PLAIN]):
            assert 0 < b < 0.5 * total

    def test_unaccelerated_compute_shows_marginal_benefit(self, fig5):
        """With the 19:1 ratio unscaled, compute dominates: overlap
        saves only a few percent; the projected 10x GPU speedup is what
        makes the hidden communication significant (the paper's point
        in introducing Fig. 5)."""
        fig1 = figure5(quick=True, wl_steps=2, gpu_speedup=1.0)
        for i in range(len(fig1.xs)):
            frac1 = ((fig1.series[self.PLAIN][i] - fig1.series[self.OVER][i])
                     / fig1.series[self.PLAIN][i])
            frac10 = ((fig5.series[self.PLAIN][i] - fig5.series[self.OVER][i])
                      / fig5.series[self.PLAIN][i])
            assert frac1 < 0.05
            assert frac1 < frac10


class TestFigure5SpeedupSweep:
    """Extension: the relative saving grows monotonically with the
    compute acceleration, bounded by the comm fraction."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return figure5_speedup_sweep(wl_steps=1)

    def test_overlap_always_wins(self, sweep):
        for p, o in zip(sweep.series["no overlap"],
                        sweep.series["directive overlap"]):
            assert o < p

    def test_relative_saving_monotone_in_speedup(self, sweep):
        fracs = [(p - o) / p
                 for p, o in zip(sweep.series["no overlap"],
                                 sweep.series["directive overlap"])]
        assert all(a <= b + 1e-9 for a, b in zip(fracs, fracs[1:]))
        assert fracs[0] < 0.05    # 19:1 compute-dominated
        assert fracs[-1] > 0.2    # communication-visible at 50x


class TestMessageSize:
    """Section IV-B (citing [13], [14]): MPI-vs-SHMEM differences "are
    most prominent when transferring small messages (8 to 256 bytes)".
    The directive's payload sweeps 8 B to 256 KiB under both targets:
    large factors in the small-message window, converging toward
    parity as bandwidth dominates."""

    SIZES = [8, 64, 256, 4096, 65536, 262144]
    N_MSGS = 8

    @classmethod
    def _sweep(cls, target):
        """Sender busy time per message for each payload size."""
        out = {}
        for size in cls.SIZES:
            elems = max(size // 8, 1)

            def main(env, _elems=elems):
                mpi.init(env, _MODEL)
                srcs = [np.zeros(_elems) for _ in range(cls.N_MSGS)]
                if target == "TARGET_COMM_SHMEM":
                    sh = shmem.init(env)
                    dsts = [sh.malloc(_elems) for _ in range(cls.N_MSGS)]
                else:
                    dsts = [np.zeros(_elems) for _ in range(cls.N_MSGS)]
                t0 = env.now
                with comm_parameters(env, sender=0, receiver=1,
                                     sendwhen=env.rank == 0,
                                     receivewhen=env.rank == 1,
                                     target=target):
                    for i in range(cls.N_MSGS):
                        with comm_p2p(env, sbuf=srcs[i], rbuf=dsts[i]):
                            pass
                return (env.now - t0) / cls.N_MSGS

            out[size] = Engine(2).run(main).values[0]  # sender side
        return out

    @pytest.fixture(scope="class")
    def sweep(self):
        return {"mpi": self._sweep("TARGET_COMM_MPI_2SIDE"),
                "shmem": self._sweep("TARGET_COMM_SHMEM")}

    def test_shmem_wins_small_window(self, sweep):
        """8-256 B: the paper's 'most prominent' window."""
        for size in (8, 64, 256):
            ratio = sweep["mpi"][size] / sweep["shmem"][size]
            assert ratio > 3.0, f"{size}B: only {ratio:.2f}x"

    def test_advantage_decays_with_size(self, sweep):
        ratios = [sweep["mpi"][s] / sweep["shmem"][s] for s in self.SIZES]
        # Monotone non-increasing from the small-message peak on.
        assert all(a >= b * 0.95 for a, b in zip(ratios, ratios[1:]))

    def test_near_parity_for_large_messages(self, sweep):
        big = self.SIZES[-1]
        assert sweep["mpi"][big] / sweep["shmem"][big] < 2.0

    def test_all_sizes_deliver_positive_time(self, sweep):
        for variant in sweep.values():
            assert len(variant) == len(self.SIZES)
            assert all(t > 0 for t in variant.values())


class TestPatterns:
    """The directive translation matches (or beats, via consolidation)
    the hand-written form of each recurring pattern in modeled time:
    the registry text at P = 8 on MPI two-sided against ``run_mpi`` on
    the text's buffers."""

    @staticmethod
    def _run(name, variant):
        if variant == "directive":
            spec = get_pattern(name)
            return run_text(spec.source, 8, "TARGET_COMM_MPI_2SIDE",
                            spec.bindings, model=_MODEL).modeled_time
        res, _ = run_mpi_form(8, MPI_FORMS[name], model=_MODEL)
        return res.makespan

    @pytest.mark.parametrize("name", ["ring", "evenodd", "pipeline"])
    def test_directive_not_slower_than_handwritten(self, name):
        t_dir = self._run(name, "directive")
        t_mpi = self._run(name, "mpi")
        assert t_dir > 0
        assert t_dir <= t_mpi * 1.05, \
            f"{name}: directive {t_dir} vs handwritten {t_mpi}"

    def test_pipeline_consolidation_wins_clearly(self):
        """Many small messages: the consolidated sync is a real win."""
        t_dir = self._run("pipeline", "directive")
        t_mpi = self._run("pipeline", "mpi")
        assert t_dir < t_mpi * 0.7


class TestConsolidationAblation:
    """The Waitall consolidation is the directive's main MPI win;
    per-message waits cost a measurable factor, and deferring sync
    across regions (BEGIN_NEXT / END_ADJ) is never slower than
    per-region sync."""

    N_MSGS = 32

    @classmethod
    def _sender_time(cls, place_sync=None, nregions=1):
        """Time at rank 0 for N_MSGS tiny directive messages."""
        def main(env):
            mpi.init(env, _MODEL)
            srcs = np.arange(float(cls.N_MSGS))
            dsts = np.zeros(cls.N_MSGS)
            t0 = env.now
            per_region = cls.N_MSGS // nregions
            for r in range(nregions):
                kwargs = {"place_sync": place_sync} if place_sync else {}
                with comm_parameters(env, sender=0, receiver=1,
                                     sendwhen=env.rank == 0,
                                     receivewhen=env.rank == 1,
                                     count=1, **kwargs):
                    for i in range(r * per_region, (r + 1) * per_region):
                        with comm_p2p(env, sbuf=srcs[i:i + 1],
                                      rbuf=dsts[i:i + 1]):
                            pass
            comm_flush(env)
            return env.now - t0

        return Engine(2).run(main).values[0]

    @classmethod
    def _unconsolidated_time(cls):
        """The same traffic with one blocking wait per message."""
        def main(env):
            comm = mpi.init(env, _MODEL)
            srcs = np.arange(float(cls.N_MSGS))
            dsts = np.zeros(cls.N_MSGS)
            t0 = env.now
            for i in range(cls.N_MSGS):
                if env.rank == 0:
                    req = comm.Isend(srcs[i:i + 1], dest=1, tag=i)
                else:
                    req = comm.Irecv(dsts[i:i + 1], source=0, tag=i)
                comm.Wait(req)
            return env.now - t0

        return Engine(2).run(main).values[0]

    def test_consolidated_sync_beats_per_message_waits(self):
        assert self._unconsolidated_time() / self._sender_time() > 2.0

    def test_deferred_policies_not_slower(self):
        end = self._sender_time(nregions=4)
        begin_next = self._sender_time("BEGIN_NEXT_PARAM_REGION",
                                       nregions=4)
        end_adj = self._sender_time("END_ADJ_PARAM_REGIONS", nregions=4)
        assert begin_next <= end * 1.01
        assert end_adj <= end * 1.01
        # END_ADJ consolidates the whole chain: strictly fewer syncs.
        assert end_adj < end


class TestEagerThresholdAblation:
    """The eager/rendezvous protocol switch moves the sender's blocking
    behaviour: timings must respond to the threshold."""

    @staticmethod
    def _transfer_time(model, nbytes):
        def main(env):
            comm = mpi.init(env, model)
            if env.rank == 0:
                comm.Send(np.zeros(nbytes, dtype=np.uint8), dest=1)
                return env.now
            comm.Recv(np.zeros(nbytes, dtype=np.uint8), source=0)
            return env.now

        return Engine(2).run(main).values[0]  # sender completion time

    def test_threshold_moves_sender_blocking(self):
        tp = _MODEL.transport(MPI_2SIDED)
        low = dataclasses.replace(tp, eager_threshold=64)
        model_low = dataclasses.replace(
            _MODEL, transports={**_MODEL.transports, MPI_2SIDED: low})
        size = 4096  # eager under gemini (8192), rendezvous under low
        t_eager = self._transfer_time(_MODEL, size)
        t_rndv = self._transfer_time(model_low, size)
        # Rendezvous sender waits for the transfer; eager returns after
        # the local copy.
        assert t_rndv > t_eager * 2
