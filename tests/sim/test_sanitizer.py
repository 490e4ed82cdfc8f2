"""The byte-interval access sanitizer (dynamic half of CI04x).

Differential cross-check of the static race pass:

* *negative control* — programs the static pass proves race-free run
  clean with ``sanitize=True`` on every lowering target, while the
  pairwise-check counter shows the sanitizer actually looked;
* *positive control* — every seeded counterexample in
  ``examples/pragmas/races/`` (statically refuted with CI04x) also
  aborts dynamically with a structured :class:`RaceError` on every
  target.
"""

from pathlib import Path

import pytest

from repro.core.analysis.progsim import simulate_program
from repro.core.pragma import parse_program
from repro.errors import RaceError
from repro.faults.fuzz import FUZZ_TARGETS, fuzz_wllsms
from repro.patterns import PATTERNS, get_pattern
from repro.sim import Engine
from repro.sim.sanitizer import Access

ROOT = Path(__file__).resolve().parents[2]
RACES_DIR = ROOT / "examples" / "pragmas" / "races"

TARGETS = list(FUZZ_TARGETS)

RACE_EXAMPLES = sorted(p.stem for p in RACES_DIR.glob("*.c"))


def simulate_example(relpath, target, nprocs=8):
    source = (ROOT / "examples" / "pragmas" / relpath).read_text()
    return simulate_program(parse_program(source), nprocs,
                            target=target, sanitize=True)


def simulate_text(name, target):
    spec = get_pattern(name)
    return simulate_program(spec.program(), spec.nprocs, target=target,
                            extra_vars=spec.bindings, sanitize=True)


class TestArming:
    def test_sanitizer_off_by_default(self):
        assert Engine(2).sanitizer is None

    def test_sanitize_true_attaches_sanitizer(self):
        eng = Engine(2, sanitize=True)
        assert eng.sanitizer is not None
        assert eng.sanitizer.nprocs == 2

    def test_checks_counter_hidden_when_zero(self):
        assert "sanitizer_checks" not in Engine(2).stats.summary()


class TestNegativeControl:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("example", ["ring.c", "evenodd.c"])
    def test_clean_examples_sanitize_clean(self, example, target):
        outcome = simulate_example(example, target)
        assert outcome.stats is not None
        # The run is only evidence if the sanitizer actually compared
        # access pairs.
        assert outcome.stats.sanitizer_checks > 0
        assert "sanitizer_checks" in outcome.stats.summary()

    @pytest.mark.parametrize("target", TARGETS)
    def test_ring_fuzz_baseline_sanitizes_clean(self, target):
        outcome = simulate_text("ring", target)
        assert outcome.stats.sanitizer_checks > 0

    @pytest.mark.slow
    @pytest.mark.parametrize("target", TARGETS)
    def test_all_fuzz_patterns_sanitize_clean(self, target):
        # Full differential negative control: every statically
        # race-free registry text, unperturbed, and WL-LSMS under one
        # jittered schedule, on every target.
        for name in PATTERNS:
            assert simulate_text(name, target).stats.sanitizer_checks > 0
        tally = {}
        assert fuzz_wllsms(target, range(1), sanitize=True,
                           tally=tally) == []
        assert tally["sanitizer_checks"] > 0


class TestPositiveControl:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("stem", RACE_EXAMPLES)
    def test_seeded_race_aborts_on_every_target(self, stem, target):
        with pytest.raises(RaceError) as exc:
            simulate_example(f"races/{stem}.c", target)
        err = exc.value
        assert err.kind in ("write-write", "read-write")
        assert len(err.ranks) == 2
        assert len(err.labels) == 2
        assert err.overlap_nbytes > 0
        assert "access sanitizer" in str(err)
        assert "byte(s) overlap" in str(err)

    def test_symheap_collision_is_write_write_across_origins(self):
        with pytest.raises(RaceError) as exc:
            simulate_example("races/symheap_collision.c",
                             "TARGET_COMM_SHMEM")
        err = exc.value
        assert err.kind == "write-write"
        assert err.ranks[0] != err.ranks[1]

    def test_send_reuse_is_read_write_on_posted_buffer(self):
        with pytest.raises(RaceError) as exc:
            simulate_example("races/send_reuse.c",
                             "TARGET_COMM_MPI_2SIDE")
        assert exc.value.kind == "read-write"


class TestIntervalOverlap:
    """Byte intervals are half-open: one shared byte is a conflict,
    touching ends are not."""

    @staticmethod
    def access(lo, hi):
        return Access(lo=lo, hi=hi, kind="write", rank=0, label="",
                      rel_lo=lo, rel_hi=hi, vc=[0])

    def test_one_byte_overlap(self):
        assert self.access(0, 8).overlaps(self.access(7, 15))
        assert self.access(7, 15).overlaps(self.access(0, 8))

    def test_touching_intervals_do_not_overlap(self):
        assert not self.access(0, 8).overlaps(self.access(8, 16))
        assert not self.access(8, 16).overlaps(self.access(0, 8))
