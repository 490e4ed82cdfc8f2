"""FaultPlan validation, compilation and draw determinism."""

import pytest

from repro.faults import FaultInjector, FaultPlan, RankCrash, RankStall
from repro.netmodel import gemini_model
from repro.netmodel.base import MPI_2SIDED


class TestValidation:
    def test_defaults_are_benign(self):
        plan = FaultPlan()
        assert not plan.perturbs_timing
        assert plan.stalls == () and plan.crashes == ()

    @pytest.mark.parametrize("kwargs", [
        dict(delay_jitter=-1.0),
        dict(reorder_factor=-0.5),
        dict(reorder_prob=1.5),
        dict(reorder_prob=-0.1),
        dict(drop_prob=2.0),
        dict(max_retransmits=-1),
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_bad_events_rejected(self):
        with pytest.raises(ValueError):
            RankStall(rank=-1, at=0.0, duration=1.0)
        with pytest.raises(ValueError):
            RankStall(rank=0, at=0.0, duration=-1.0)
        with pytest.raises(ValueError):
            RankCrash(rank=0, at=-1.0)

    def test_event_lists_normalized_to_tuples(self):
        plan = FaultPlan(stalls=[RankStall(0, 0.0, 1.0)],
                         crashes=[RankCrash(1)])
        assert isinstance(plan.stalls, tuple)
        assert isinstance(plan.crashes, tuple)
        hash(plan)  # frozen + tuple fields -> usable as a dict key

    def test_jitter_factory_perturbs_timing(self):
        assert FaultPlan.jitter(7).perturbs_timing
        assert not FaultPlan.neutral(7).perturbs_timing


class TestCompile:
    def test_compile_returns_injector(self):
        inj = FaultPlan.jitter(3).compile()
        assert isinstance(inj, FaultInjector)

    def test_draws_are_seed_deterministic(self):
        tp = gemini_model().transport(MPI_2SIDED)
        plan = FaultPlan.jitter(11)
        a, b = plan.compile(), plan.compile()
        seq_a = [a.message_delay(tp, 0, 1, 4096) for _ in range(64)]
        seq_b = [b.message_delay(tp, 0, 1, 4096) for _ in range(64)]
        assert seq_a == seq_b

    def test_channels_draw_independently(self):
        """Per-(src, dst) streams: traffic on one channel must not
        shift the perturbations another channel sees."""
        tp = gemini_model().transport(MPI_2SIDED)
        plan = FaultPlan.jitter(11)
        a, b = plan.compile(), plan.compile()
        ref = [a.message_delay(tp, 0, 1, 4096) for _ in range(16)]
        for _ in range(50):  # unrelated traffic on another channel
            b.message_delay(tp, 2, 3, 64)
        got = [b.message_delay(tp, 0, 1, 4096) for _ in range(16)]
        assert got == ref

    def test_neutral_plan_adds_no_delay(self):
        tp = gemini_model().transport(MPI_2SIDED)
        inj = FaultPlan.neutral(5).compile()
        assert all(inj.message_delay(tp, 0, 1, 1024) == 0.0
                   for _ in range(10))
