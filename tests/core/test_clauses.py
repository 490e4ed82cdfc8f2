"""Clause validation rules from Section III-B."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import mpi
from repro.core import comm_p2p
from repro.core.clauses import (
    DEFAULT_TARGET,
    SyncPlacement,
    Target,
    check_names,
    merged_view,
    normalize,
    p2p_plan,
)
from repro.errors import ClauseError
from repro.netmodel import zero_model
from repro.sim import Engine


def build(directive, **clauses):
    """Check one directive's clause names, then normalise its values."""
    check_names(directive, frozenset(clauses))
    return normalize(clauses)


def merge(region, instance):
    """The merged view of a ``comm_p2p`` instance in a region."""
    return merged_view(frozenset(instance), instance, frozenset(region),
                       region)


def run(nprocs, fn):
    eng = Engine(nprocs)
    model = zero_model()

    def main(env):
        mpi.init(env, model)
        return fn(env)

    return eng.run(main), eng


class TestBuild:
    def test_unknown_clause_rejected(self):
        with pytest.raises(ClauseError, match="unknown clause"):
            build("p2p", sender=0, receiver=1, frobnicate=2)

    def test_parameters_only_clauses_rejected_on_p2p(self):
        with pytest.raises(ClauseError, match="comm_parameters"):
            build("p2p", place_sync="END_PARAM_REGION")
        with pytest.raises(ClauseError, match="comm_parameters"):
            build("p2p", max_comm_iter=5)

    def test_parameters_accepts_place_sync_and_max_iter(self):
        cs = build("parameters", place_sync="END_PARAM_REGION",
                   max_comm_iter=10)
        assert cs["place_sync"] is SyncPlacement.END_PARAM_REGION
        assert cs["max_comm_iter"] == 10

    def test_unknown_directive_kind_rejected(self):
        with pytest.raises(ClauseError):
            build("collective")

    def test_sendwhen_requires_receivewhen(self):
        """'they both must be present or both be omitted'"""
        with pytest.raises(ClauseError, match="both"):
            build("p2p", sendwhen=True)
        with pytest.raises(ClauseError, match="both"):
            build("p2p", receivewhen=False)
        with pytest.raises(ClauseError, match="both"):
            build("parameters", sendwhen=None)
        build("p2p", sendwhen=True, receivewhen=False)

    def test_target_keywords(self):
        for kw, member in [
            ("TARGET_COMM_MPI_1SIDE", Target.MPI_1SIDE),
            ("TARGET_COMM_MPI_2SIDE", Target.MPI_2SIDE),
            ("TARGET_COMM_SHMEM", Target.SHMEM),
        ]:
            assert build("p2p", target=kw)["target"] is member
            assert build("p2p", target=member)["target"] is member

    def test_bad_target_rejected(self):
        with pytest.raises(ClauseError, match="target"):
            build("p2p", target="TARGET_COMM_PVM")

    def test_place_sync_keywords(self):
        for kw in ("END_PARAM_REGION", "BEGIN_NEXT_PARAM_REGION",
                   "END_ADJ_PARAM_REGIONS"):
            cs = build("parameters", place_sync=kw)
            assert cs["place_sync"].value == kw

    def test_bad_place_sync_rejected(self):
        with pytest.raises(ClauseError):
            build("parameters", place_sync="WHEREVER")

    def test_count_must_be_nonnegative_int(self):
        build("p2p", count=0)
        with pytest.raises(ClauseError):
            build("p2p", count=-1)
        with pytest.raises(ClauseError):
            build("p2p", count=1.5)
        with pytest.raises(ClauseError):
            build("p2p", count=True)
        with pytest.raises(ClauseError):
            build("p2p", count=None)

    def test_max_comm_iter_positive(self):
        with pytest.raises(ClauseError):
            build("parameters", max_comm_iter=0)


class TestMerge:
    def test_region_clauses_apply_to_instances(self):
        region = build("parameters", sender=1, receiver=2, count=8)
        inst = build("p2p", sbuf="S", rbuf="R")
        merged = merge(region, inst)
        assert merged == {"sender": 1, "receiver": 2, "count": 8,
                          "sbuf": "S", "rbuf": "R"}

    def test_instance_overrides_region(self):
        region = build("parameters", sender=1, receiver=2)
        inst = build("p2p", receiver=7, sbuf="S", rbuf="R")
        merged = merge(region, inst)
        assert merged["receiver"] == 7
        assert merged["sender"] == 1

    def test_region_only_clauses_never_merge_down(self):
        region = build("parameters", sender=1, receiver=2, sbuf="S",
                       rbuf="R", place_sync="END_PARAM_REGION",
                       max_comm_iter=4)
        merged = merge(region, build("p2p"))
        assert "place_sync" not in merged
        assert "max_comm_iter" not in merged

    def test_require_p2p_complete(self):
        full = build("p2p", sender=0, receiver=1, sbuf="S", rbuf="R")
        assert merge({}, full) == full
        partial = build("p2p", sender=0, sbuf="S")
        with pytest.raises(ClauseError, match="required"):
            merge({}, partial)
        with pytest.raises(ClauseError, match=r"\['receiver'\]"):
            merge(build("parameters", rbuf="R", place_sync="END_PARAM_REGION"),
                  partial)

    def test_plan_reads_names_only(self):
        """The plan is a pure function of the two name sets: the same
        names give the same (cached) plan whatever the values."""
        first = p2p_plan(frozenset({"sbuf", "rbuf"}),
                         frozenset({"sender", "receiver", "count"}))
        assert set(first) == {"sender", "receiver", "count"}
        again = p2p_plan(frozenset(["rbuf", "sbuf"]),
                         frozenset(["count", "receiver", "sender"]))
        assert again is first

    def test_failing_plan_is_not_cached(self):
        names = frozenset({"sender", "sbuf"})
        messages = set()
        for _ in range(3):
            with pytest.raises(ClauseError) as ei:
                p2p_plan(names, frozenset())
            messages.add(str(ei.value))
        assert messages == {
            "comm_p2p is missing required clause(s) ['receiver', 'rbuf'] "
            "(not provided by the directive or its enclosing "
            "comm_parameters region)"}


#: The test's own list of clause names (not the module's).
NAMES = ("sender", "receiver", "sbuf", "rbuf", "sendwhen", "receivewhen",
         "target", "count", "place_sync", "max_comm_iter")


def reference_merge(region, instance):
    """Section III-A restated: an instance clause wins; otherwise the
    region's applies, except the two region-only clauses. ``None`` when
    a required clause is missing."""
    out = {}
    for name in NAMES:
        if name in instance:
            out[name] = instance[name]
        elif name in region and name not in ("place_sync",
                                             "max_comm_iter"):
            out[name] = region[name]
    if not all(n in out for n in ("sender", "receiver", "sbuf", "rbuf")):
        return None
    return out


def _clauses(names):
    """Clause dicts over a subset of ``names``, with sendwhen and
    receivewhen drawn together, and arbitrary values."""
    keys = st.sets(st.sampled_from([n for n in names
                                    if n != "receivewhen"]))

    def fill(chosen):
        if "sendwhen" in chosen:
            chosen = chosen | {"receivewhen"}
        return st.fixed_dictionaries(
            {n: st.one_of(st.none(), st.integers(), st.text(max_size=3))
             for n in sorted(chosen)})

    return keys.flatmap(fill)


class TestMergeProperty:
    @settings(deadline=None)
    @given(_clauses(NAMES),
           _clauses([n for n in NAMES
                     if n not in ("place_sync", "max_comm_iter")]))
    def test_property_view_matches_reference(self, region, instance):
        check_names("parameters", frozenset(region))
        check_names("p2p", frozenset(instance))
        expected = reference_merge(region, instance)
        for _ in range(2):  # the second resolution hits the cache
            if expected is None:
                with pytest.raises(ClauseError, match="missing required"):
                    merge(region, instance)
            else:
                assert merge(region, instance) == expected


class TestDefaults:
    def test_default_target_is_two_sided_mpi(self):
        assert DEFAULT_TARGET is Target.MPI_2SIDE

        def prog(env):
            with comm_p2p(env, sender=0, receiver=1,
                          sendwhen=env.rank == 0, receivewhen=env.rank == 1,
                          sbuf=np.ones(2), rbuf=np.zeros(2)):
                pass

        _, eng = run(2, prog)
        assert eng.stats.messages["mpi2s"] == 1
        assert eng.stats.messages["mpi1s"] == eng.stats.messages["shmem"] == 0

    def test_absent_when_clauses_mean_everyone(self):
        def prog(env):
            got = np.zeros(1)
            with comm_p2p(env, sender=(env.rank - 1) % env.size,
                          receiver=(env.rank + 1) % env.size,
                          sbuf=np.array([float(env.rank)]), rbuf=got):
                pass
            return got[0]

        res, _ = run(3, prog)
        assert res.values == [2.0, 0.0, 1.0]

    def test_present_when_clauses_respected(self):
        def prog(env):
            got = np.full(1, -1.0)
            with comm_p2p(env, sender=0, receiver=0, sendwhen=False,
                          receivewhen=None, sbuf=np.ones(1), rbuf=got):
                pass
            return got[0]

        # An explicit None is a given (falsy) receivewhen: nobody sends
        # or receives, so nothing blocks and the buffer is untouched.
        res, eng = run(1, prog)
        assert res.values == [-1.0]
        assert eng.stats.messages["mpi2s"] == 0

    def test_present_dict(self):
        assert build("p2p", sender=3, count=5) == {"sender": 3, "count": 5}
