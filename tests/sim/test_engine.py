"""Unit tests for the cooperative virtual-time scheduler."""

import re

import pytest

from repro.errors import SimDeadlockError, SimProcessError, SimStateError
from repro.sim import Engine, Rendezvous


def test_single_rank_runs_and_returns_value():
    eng = Engine(1)
    res = eng.run(lambda env: env.rank * 10 + 7)
    assert res.values == [7]
    assert res.finish_times == [0.0]
    assert res.makespan == 0.0


def test_all_ranks_run_once():
    eng = Engine(5)
    res = eng.run(lambda env: env.rank)
    assert res.values == [0, 1, 2, 3, 4]


def test_env_identity():
    eng = Engine(3)
    res = eng.run(lambda env: (env.rank, env.size))
    assert res.values == [(0, 3), (1, 3), (2, 3)]


def test_compute_advances_virtual_clock():
    def prog(env):
        env.compute(0.5)
        env.compute(0.25)
        return env.now

    res = Engine(2).run(prog)
    assert res.values == [0.75, 0.75]
    assert res.makespan == 0.75
    assert res.finish_times == [0.75, 0.75]


def test_compute_costs_differ_per_rank():
    def prog(env):
        env.compute(0.1 * (env.rank + 1))
        return env.now

    res = Engine(3).run(prog)
    assert res.finish_times == pytest.approx([0.1, 0.2, 0.3])
    assert res.makespan == pytest.approx(0.3)


def test_compute_rejects_negative():
    def prog(env):
        env.compute(-1.0)

    with pytest.raises(SimProcessError) as ei:
        Engine(1).run(prog)
    assert isinstance(ei.value.original, ValueError)


def test_advance_does_not_yield_but_moves_clock():
    def prog(env):
        env.advance(2.0)
        return env.now

    res = Engine(1).run(prog)
    assert res.values == [2.0]


def test_advance_to_is_monotone():
    def prog(env):
        env.advance_to(5.0)
        env.advance_to(1.0)  # no-op: clocks never go backwards
        return env.now

    assert Engine(1).run(prog).values == [5.0]


def test_mpmd_runs_distinct_programs():
    eng = Engine(2)
    res = eng.run([lambda env: "a", lambda env: "b"])
    assert res.values == ["a", "b"]


def test_mpmd_wrong_count_rejected():
    with pytest.raises(ValueError):
        Engine(3).run([lambda env: None])


def test_user_exception_is_wrapped_with_rank():
    def prog(env):
        if env.rank == 2:
            raise RuntimeError("boom")
        env.compute(1.0)

    with pytest.raises(SimProcessError) as ei:
        Engine(4).run(prog)
    assert ei.value.rank == 2
    assert isinstance(ei.value.original, RuntimeError)


def test_engine_reusable_after_failure():
    eng = Engine(2)
    with pytest.raises(SimProcessError):
        eng.run(lambda env: 1 / 0)
    res = eng.run(lambda env: env.rank)
    assert res.values == [0, 1]


def test_deadlock_detected_with_diagnostics():
    def prog(env):
        if env.rank == 0:
            env.make_waiter("message that never comes")
            env.block()
        # rank 1 just exits

    with pytest.raises(SimDeadlockError) as ei:
        Engine(2).run(prog)
    assert 0 in ei.value.blocked
    assert "never comes" in ei.value.blocked[0]


def test_block_and_wake_transfers_payload_and_time():
    waiters = {}

    def prog(env):
        if env.rank == 0:
            w = env.make_waiter("value from rank 1")
            waiters[0] = w
            got = env.block()
            return (got.payload, env.now)
        else:
            env.compute(3.0)
            # rank 0 is blocked by now (it runs first at t=0).
            env.engine.wake(waiters[0], env.now + 1.0, payload="hello")
            return None

    res = Engine(2).run(prog)
    assert res.values[0] == ("hello", 4.0)


def test_wake_twice_rejected():
    def prog(env):
        if env.rank == 0:
            w = env.make_waiter("x")
            env.engine.services["w"] = w
            env.block()
        else:
            env.compute(1.0)
            w = env.engine.services["w"]
            env.engine.wake(w, 2.0)
            with pytest.raises(SimStateError):
                env.engine.wake(w, 3.0)

    Engine(2).run(prog)


def test_wake_of_unblocked_rank_rejected():
    """wake() may only target a rank that has actually blocked: waking
    a READY/RUNNING rank would enqueue it into the ready heap twice."""
    def prog(env):
        if env.rank == 0:
            # Install a waiter but keep running — never call block().
            env.make_waiter("never blocked on")
            env.engine.services["w"] = env._proc.waiter
            env.compute(10.0)
        else:
            env.compute(1.0)  # rank 0 has yielded but is READY, not blocked
            with pytest.raises(SimStateError, match="not blocked"):
                env.engine.wake(env.engine.services["w"], 2.0)

    Engine(2).run(prog)


_MAX_TIME_MSG = re.compile(
    r"virtual time .* exceeded max_time .* on rank \d+")


def test_max_time_same_error_from_compute_path():
    """The rank-thread guard (check_time) raises the unified shape."""
    def prog(env):
        while True:
            env.compute(1.0)

    with pytest.raises(SimDeadlockError) as ei:
        Engine(1, max_time=100.0).run(prog)
    assert _MAX_TIME_MSG.search(str(ei.value))


def test_max_time_same_error_from_wake_path():
    """A rank woken *past* max_time is aborted by the dispatch-side
    guard (scheduler/handoff path) with the identical error shape."""
    def prog(env):
        if env.rank == 0:
            env.make_waiter("late wake")
            env.engine.services["w"] = env._proc.waiter
            env.block()
            env.compute(1.0)  # never reached: woken past max_time
        else:
            env.compute(1.0)
            env.engine.wake(env.engine.services["w"], 500.0)

    with pytest.raises(SimDeadlockError) as ei:
        Engine(2, max_time=100.0).run(prog)
    assert _MAX_TIME_MSG.search(str(ei.value))


def test_scheduler_counters_populate():
    def prog(env):
        for _ in range(5):
            env.compute(1.0)
        if env.rank == 0:
            w = env.make_waiter("ping")
            env.engine.services["w"] = w
            env.block()
        else:
            env.engine.wake(env.engine.services["w"], env.now)

    eng = Engine(2)
    eng.run(prog)
    # Every READY transition goes through the heap...
    assert eng.stats.heap_ops > 0
    # ...blocked->running resumptions use rank-to-rank handoff...
    assert eng.stats.direct_handoffs > 0
    # ...and the dispatch loop's wall time is accounted.
    assert eng.stats.dispatch_wall_seconds > 0.0


def test_fast_yield_skips_switch():
    """A lone rank never has anyone ahead of it: all its yields take
    the no-switch fast path."""
    eng = Engine(1)
    eng.run(lambda env: [env.compute(1.0) for _ in range(10)])
    assert eng.stats.fast_yields >= 10


def test_wake_never_moves_clock_backwards():
    def prog(env):
        if env.rank == 0:
            env.compute(10.0)  # rank 0 is already far ahead
            env.make_waiter("late wake")
            env.engine.services["w"] = env._proc.waiter
            got = env.block()
            assert got.wake_time == 1.0
            return env.now
        else:
            env.compute(20.0)  # ensure rank 0 blocks first
            env.engine.wake(env.engine.services["w"], 1.0)
            return None

    res = Engine(2).run(prog)
    assert res.values[0] == 10.0  # not dragged back to 1.0


def test_deterministic_scheduling_order():
    """With equal clocks, ranks are dispatched in rank order."""
    order = []

    def prog(env):
        order.append(env.rank)
        env.compute(1.0)
        order.append(env.rank)

    Engine(4).run(prog)
    assert order[:4] == [0, 1, 2, 3]
    assert order[4:] == [0, 1, 2, 3]


def test_min_time_first_scheduling():
    order = []

    def prog(env):
        env.compute(1.0 / (env.rank + 1))  # rank 3 finishes step 1 first
        order.append(env.rank)

    Engine(4).run(prog)
    assert order == [3, 2, 1, 0]


def test_max_time_guard():
    def prog(env):
        while True:
            env.compute(1.0)

    with pytest.raises(SimDeadlockError):
        Engine(1, max_time=100.0).run(prog)


def test_trace_records_compute_events():
    eng = Engine(2, profile=True)

    def prog(env):
        env.compute(1.0, label="kernel")

    res = eng.run(prog)
    spans = res.profile.of_kind("compute")
    assert len(spans) == 2
    assert {s.rank for s in spans} == {0, 1}
    assert all(s.attrs["label"] == "kernel" for s in spans)


def test_stats_summary_readable():
    eng = Engine(2)
    eng.run(lambda env: env.compute(1.0))
    s = eng.stats.summary()
    assert "compute=2" in s
    assert "messages=0" in s


def test_stats_accumulate_compute_seconds():
    eng = Engine(3)
    eng.run(lambda env: env.compute(2.0))
    assert eng.stats.compute_seconds == pytest.approx(6.0)


def test_nested_run_rejected():
    eng = Engine(1)

    def prog(env):
        eng.run(lambda e: None)

    with pytest.raises(SimProcessError) as ei:
        eng.run(prog)
    assert isinstance(ei.value.original, SimStateError)


def test_zero_procs_rejected():
    with pytest.raises(ValueError):
        Engine(0)


class TestRendezvous:
    def test_all_released_at_max_arrival(self):
        bar = Rendezvous(range(3), name="test-bar")

        def prog(env):
            env.compute(float(env.rank))  # arrive at t = rank
            bar.join(env)
            return env.now

        res = Engine(3).run(prog)
        assert res.values == [2.0, 2.0, 2.0]

    def test_cost_function_applied(self):
        bar = Rendezvous(range(4), cost_fn=lambda n: 0.5 * n)

        def prog(env):
            bar.join(env)
            return env.now

        res = Engine(4).run(prog)
        assert res.values == [2.0] * 4

    def test_reusable_across_generations(self):
        bar = Rendezvous(range(2))

        def prog(env):
            times = []
            for step in range(3):
                env.compute(1.0 if env.rank == 0 else 2.0)
                bar.join(env)
                times.append(env.now)
            return times

        res = Engine(2).run(prog)
        assert res.values[0] == res.values[1] == [2.0, 4.0, 6.0]

    def test_subset_members_only(self):
        bar = Rendezvous([0, 2])

        def prog(env):
            if env.rank in (0, 2):
                env.compute(1.0 + env.rank)
                bar.join(env)
            return env.now

        res = Engine(3).run(prog)
        assert res.values[0] == 3.0
        assert res.values[2] == 3.0
        assert res.values[1] == 0.0

    def test_non_member_join_rejected(self):
        bar = Rendezvous([0])

        def prog(env):
            if env.rank == 1:
                bar.join(env)

        with pytest.raises(SimProcessError) as ei:
            Engine(2).run(prog)
        assert isinstance(ei.value.original, SimStateError)

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            Rendezvous([])

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            Rendezvous([0, 0, 1])
