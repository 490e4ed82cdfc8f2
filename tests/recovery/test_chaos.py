"""Chaos soak: quick representative slices by default, the acceptance
sweep (>= 50 seeds per combination) under ``-m slow``."""

import json

import pytest

from repro.faults.chaos import (
    SOAK_NAMES,
    chaos_one,
    chaos_plan,
    chaos_soak,
    main as chaos_main,
)
from repro.faults.fuzz import FUZZ_TARGETS
from repro.recovery import POLICIES


class TestPlanGeneration:
    def test_plan_is_seed_deterministic(self):
        from repro.faults.chaos import SOAK_CASES
        case = next(c for c in SOAK_CASES if c.name == "ring")
        a = chaos_plan(case, FUZZ_TARGETS[0], 7, 1e-4, 1)
        b = chaos_plan(case, FUZZ_TARGETS[0], 7, 1e-4, 1)
        assert a == b
        c2 = chaos_plan(case, FUZZ_TARGETS[0], 8, 1e-4, 1)
        assert a != c2

    def test_plan_crashes_land_inside_makespan(self):
        from repro.faults.chaos import SOAK_CASES
        case = next(c for c in SOAK_CASES if c.name == "halo2d")
        for seed in range(10):
            plan = chaos_plan(case, FUZZ_TARGETS[0], seed, 2e-4, 2)
            assert len(plan.crashes) == 2
            assert len({c.rank for c in plan.crashes}) == 2
            for crash in plan.crashes:
                assert 0.0 <= crash.at <= 2e-4
            assert plan.drop_prob > 0      # chaos = crash AND drops
            assert plan.stalls             # AND a stall


class TestQuickSoak:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_seed_every_pattern_one_target(self, policy):
        failures = chaos_soak(patterns=SOAK_NAMES,
                              targets=FUZZ_TARGETS[:1],
                              policies=(policy,), seeds=range(1))
        assert failures == []

    def test_one_pattern_every_target(self):
        failures = chaos_soak(patterns=("ring",), targets=FUZZ_TARGETS,
                              policies=POLICIES, seeds=range(2))
        assert failures == []

    def test_double_crash_single_combo(self):
        assert chaos_one("halo2d", FUZZ_TARGETS[0], "respawn", 0,
                         nfail=2) is None
        assert chaos_one("butterfly", FUZZ_TARGETS[0], "shrink", 0,
                         nfail=2) is None

    def test_stats_record_shape(self):
        stats = {}
        chaos_soak(patterns=("ring",), targets=FUZZ_TARGETS[:1],
                   policies=("respawn",), seeds=range(2), stats=stats)
        key = f"ring/{FUZZ_TARGETS[0]}/respawn"
        assert stats[key] == {"runs": 2, "failures": 0, "nfail": 1}


class TestCli:
    def test_json_artifact(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        rc = chaos_main(["--patterns", "ring", "--targets",
                         FUZZ_TARGETS[0], "--policies", "respawn",
                         "--seeds", "2", "--stats-out", str(out)])
        assert rc == 0
        artifact = json.loads(out.read_text())
        assert artifact["seeds"] == 2
        assert artifact["failures"] == []
        key = f"ring/{FUZZ_TARGETS[0]}/respawn"
        assert artifact["combinations"][key]["failures"] == 0
        assert "0 failure(s)" in capsys.readouterr().out


@pytest.mark.slow
class TestAcceptanceSweep:
    """The ISSUE's acceptance bar: every pattern x target x policy over
    >= 50 seeds, single- and (spot-checked) double-rank crashes."""

    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    @pytest.mark.parametrize("pattern", SOAK_NAMES)
    def test_soak_50_seeds(self, pattern, target):
        failures = chaos_soak(patterns=(pattern,), targets=(target,),
                              policies=POLICIES, seeds=range(50))
        assert failures == [], "\n".join(str(f) for f in failures)

    @pytest.mark.parametrize("pattern", SOAK_NAMES)
    def test_soak_double_crash_10_seeds(self, pattern):
        failures = chaos_soak(patterns=(pattern,), targets=FUZZ_TARGETS,
                              policies=POLICIES, seeds=range(10),
                              nfail=2)
        assert failures == [], "\n".join(str(f) for f in failures)
