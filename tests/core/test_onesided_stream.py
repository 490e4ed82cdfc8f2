"""One-sided lowering: exact goldens of the put–flush–notify stream.

MPI one-sided (``TARGET_COMM_MPI_1SIDE``) and SHMEM
(``TARGET_COMM_SHMEM``) lower a directive message to a put, then
complete it at the consolidated sync with a flush (``shmem_quiet``)
and one notify per message. These tests pin what that protocol
produces, so a refactor of the one-sided backends must leave it
bit-identical:

* every registry text on both targets, unfaulted and under
  ``FaultPlan.jitter(0)`` and ``FaultPlan.jitter(1)`` (the deferred
  delivery path): the span stream as its length plus a sha256 of the
  ``repr`` of its ``(rank, kind, t0, t1, sorted attrs)`` tuples (times
  as :meth:`float.hex`), the ``SimStats`` message, byte and sync
  counters, and the final per-rank payloads;
* the race reports of ``examples/pragmas/races/*.c`` on both targets
  at 8 ranks, as the first :class:`RaceError` and as the full list
  collect mode gathers. They quote the put-window wording.

The golden lives in ``tests/core/golden/onesided_stream.json``. After
an intended change of the protocol, re-pin it with
``PYTHONPATH=src python tests/core/test_onesided_stream.py`` and say
why in the change description.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.analysis.progsim import simulate_program
from repro.core.pragma import parse_program
from repro.errors import RaceError
from repro.faults import FaultPlan
from repro.patterns import PATTERNS, get_pattern

_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden", "onesided_stream.json")
_RACES = Path(__file__).resolve().parents[2] / "examples" / "pragmas" \
    / "races"

TARGETS = ("TARGET_COMM_MPI_1SIDE", "TARGET_COMM_SHMEM")
#: Plan name -> the plan a run binds (``None`` = unfaulted).
PLANS = {"unfaulted": None,
         "jitter0": FaultPlan.jitter(0),
         "jitter1": FaultPlan.jitter(1)}
RACE_STEMS = sorted(p.stem for p in _RACES.glob("*.c"))
RACE_NPROCS = 8


def _span_digest(profile) -> dict:
    spans = [(s.rank, s.kind, s.t0.hex(), s.t1.hex(),
              sorted(s.attrs.items())) for s in profile]
    return {"length": len(spans),
            "sha256": hashlib.sha256(repr(spans).encode()).hexdigest()}


def _stream(name: str, target: str, plan: str) -> dict:
    """The pinned observables of one registry text run."""
    spec = get_pattern(name)
    outcome = simulate_program(spec.program(), spec.nprocs, target=target,
                               extra_vars=spec.bindings, profile=True,
                               capture=True, faults=PLANS[plan])
    stats = outcome.stats
    return {"spans": _span_digest(outcome.profile),
            "messages": dict(sorted(stats.messages.items())),
            "bytes": dict(sorted(stats.bytes.items())),
            "sync_calls": dict(sorted(stats.sync_calls.items())),
            "payloads": [dict(sorted(bufs.items()))
                         for bufs in outcome.payloads]}


def _races(stem: str, target: str) -> dict:
    """The race reports of one seeded counterexample."""
    program = parse_program((_RACES / f"{stem}.c").read_text())
    with pytest.raises(RaceError) as exc:
        simulate_program(program, RACE_NPROCS, target=target,
                         sanitize=True)
    collected = simulate_program(program, RACE_NPROCS, target=target,
                                 sanitize="collect")
    return {"first": str(exc.value), "collected": list(collected.races)}


def collect() -> dict:
    """Every pinned observable, in the golden's shape."""
    return {
        "streams": {f"{name}/{target}/{plan}": _stream(name, target, plan)
                    for name in sorted(PATTERNS) for target in TARGETS
                    for plan in PLANS},
        "races": {f"{stem}/{target}": _races(stem, target)
                  for stem in RACE_STEMS for target in TARGETS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_stream_pinned(golden, name, target, plan):
    key = f"{name}/{target}/{plan}"
    # JSON round trip: the golden stores payload floats as JSON numbers.
    got = json.loads(json.dumps(_stream(name, target, plan)))
    assert got == golden["streams"][key]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("stem", RACE_STEMS)
def test_race_reports_pinned(golden, stem, target):
    assert _races(stem, target) == golden["races"][f"{stem}/{target}"]


def test_golden_covers_the_registry(golden):
    """A new registry text or race example must be pinned too."""
    assert sorted(golden["streams"]) == sorted(
        f"{name}/{target}/{plan}" for name in PATTERNS
        for target in TARGETS for plan in PLANS)
    assert sorted(golden["races"]) == sorted(
        f"{stem}/{target}" for stem in RACE_STEMS for target in TARGETS)


def test_jitter_reaches_the_puts(golden):
    """The jittered runs are a different schedule, not a copy of the
    unfaulted one: the plan perturbs one-sided put timing."""
    for name in PATTERNS:
        for target in TARGETS:
            base = golden["streams"][f"{name}/{target}/unfaulted"]
            jit = golden["streams"][f"{name}/{target}/jitter0"]
            assert base["spans"] != jit["spans"]
            assert base["payloads"] == jit["payloads"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(_GOLDEN), exist_ok=True)
    with open(_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(collect(), fh, indent=1, sort_keys=True)
        fh.write("\n")
