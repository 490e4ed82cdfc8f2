"""Message matching and transfer timing.

This module is the heart of the simulated MPI: it keeps the classic
*posted-receive* and *unexpected-message* queues per (communicator,
destination) pair, enforces MPI's matching rules (first-match in posting
order; non-overtaking between a given source/destination pair), and
computes virtual completion times from the machine model:

Eager protocol (``nbytes <= eager_threshold``):

* the sender is busy for ``send_overhead(m)`` and its buffer is then
  free (buffered send) — the send completes locally;
* the payload arrives at ``post + wire_time(m)``;
* the receive completes at ``max(arrival, recv post) + recv_overhead``.

Rendezvous protocol (larger messages):

* the transfer starts at ``max(send post, recv post) + rendezvous_rtt``;
* both sides complete at ``start + wire_time(m)`` (receiver pays its
  matching overhead on top);
* a *blocking* send therefore genuinely blocks until the receive is
  posted — unmatched large blocking sends deadlock, as on a real
  machine.

Data moves at match time (receives see real bytes); *times* are what
``Wait`` consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TruncationError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import RecvOp, SendOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import World
    from repro.sim.process import Env


def _key(op: SendOp | RecvOp) -> tuple[int, str, int]:
    return (op.gid, op.channel, op.dst)


def _recv_accepts(r: RecvOp, s: SendOp) -> bool:
    return ((r.source == ANY_SOURCE or r.source == s.src)
            and (r.tag == ANY_TAG or r.tag == s.tag))


def post_send(world: "World", env: "Env", op: SendOp) -> None:
    """Register a send; match it against posted receives if possible."""
    posted = world.posted_recvs.setdefault(_key(op), [])
    for i, r in enumerate(posted):
        if _recv_accepts(r, op):
            del posted[i]
            _complete_match(world, env, op, r)
            return
    world.unexpected.setdefault(_key(op), []).append(op)
    _wake_probers(world, env, op)


def _wake_probers(world: "World", env: "Env", op: SendOp) -> None:
    """Wake blocking probes whose pattern this unexpected send matches."""
    probers = world.probe_waiters.get(_key(op))
    if not probers:
        return
    tp = world.model.transport(op.kind)
    arrival = op.post_time + tp.wire_time(op.nbytes)
    still_waiting = []
    for source, tag, waiter in probers:
        if waiter.woken:
            # Stale registration: this waiter was already woken by an
            # earlier send. Its owner has resumed (or will resume) and,
            # if still probing, re-registers a *fresh* waiter — so the
            # dead entry is discarded here rather than kept (it could
            # never be woken again) or re-woken (waiters are single-use).
            continue
        pattern = RecvOp(gid=op.gid, channel=op.channel, dst=op.dst,
                         source=source, tag=tag,
                         buf=np.empty(0, dtype=np.uint8), post_time=0.0)
        if _recv_accepts(pattern, op):
            env.engine.wake(waiter, arrival, payload=op)
        else:
            still_waiting.append((source, tag, waiter))
    if still_waiting:
        world.probe_waiters[_key(op)] = still_waiting
    else:
        world.probe_waiters.pop(_key(op), None)


def post_recv(world: "World", env: "Env", op: RecvOp) -> None:
    """Register a receive; match the oldest acceptable unexpected send."""
    unexpected = world.unexpected.setdefault(_key(op), [])
    for i, s in enumerate(unexpected):
        if _recv_accepts(op, s):
            del unexpected[i]
            _complete_match(world, env, s, op)
            return
    world.posted_recvs.setdefault(_key(op), []).append(op)


def probe_unexpected(world: "World", gid: int, channel: str, dst: int,
                     source: int, tag: int) -> SendOp | None:
    """First unexpected send matching (source, tag), or None (Iprobe)."""
    probe = RecvOp(gid=gid, channel=channel, dst=dst, source=source,
                   tag=tag, buf=np.empty(0, dtype=np.uint8), post_time=0.0)
    for s in world.unexpected.get((gid, channel, dst), []):
        if _recv_accepts(probe, s):
            return s
    return None


def _complete_match(world: "World", env: "Env", s: SendOp, r: RecvOp) -> None:
    """Compute completion times, deliver the payload, wake blocked sides."""
    tp = world.model.transport(s.kind)
    faults = env.engine.faults
    # Adversarial extra wire delay (jitter / reorder / drop-retransmit).
    # Modelled as added delivery latency, never as queue permutation, so
    # MPI's same-(src, dst, tag) non-overtaking rule is preserved.
    extra = (faults.message_delay(tp, s.src, s.dst, s.nbytes)
             if faults is not None else 0.0)
    if s.eager:
        arrival = s.post_time + tp.wire_time(s.nbytes) + extra
        r.completion = max(arrival, r.post_time) + tp.recv_overhead(s.nbytes)
        # s.completion was already set at post time (buffered).
    else:
        start = max(s.post_time, r.post_time) + tp.rendezvous_rtt
        finish = start + tp.wire_time(s.nbytes) + extra
        s.completion = finish
        r.completion = finish + tp.recv_overhead(s.nbytes)

    if faults is not None:
        # The payload is staged and lands in the user buffer only when
        # the receiver's completion call commits it — so a missing
        # Wait/Waitall leaves stale data the fuzzer can detect.
        _stage(s, r)
    else:
        _deliver(s, r)
    s.matched = True
    r.matched = True
    world.stats.count_message(s.kind, s.nbytes)
    profile = env.engine.profile
    if profile is not None:
        # One span per delivered message, attributed to the receiving
        # rank: from the send post to the receive completion. The
        # (src, dst, tag) identity is what a consolidated sync's
        # recv_keys refer to for directive traffic (tag == seq there).
        profile.add(s.dst, "message", s.post_time, r.completion,
                    src=s.src, dst=s.dst, seq=s.tag, nbytes=s.nbytes,
                    transport=s.kind, channel=s.channel, eager=s.eager)

    # The deterministic wake order (receiver before sender) is part of
    # the engine's (virtual time, rank) dispatch contract: both wakes
    # enqueue into the ready heap, and dispatch order then depends only
    # on the wake times and ranks, not on queue insertion order.
    r.wake_waiter(env, r.completion)
    s.wake_waiter(env, s.completion)


def _check_and_fill_status(s: SendOp, r: RecvOp) -> None:
    """Truncation check + status fields, common to both delivery modes."""
    if s.nbytes > r.buf.nbytes:
        raise TruncationError(
            f"message of {s.nbytes} bytes from rank {s.src} (tag {s.tag}) "
            f"truncated: receive buffer holds only {r.buf.nbytes} bytes")
    r.status_source = s.src
    r.status_tag = s.tag
    r.status_nbytes = s.nbytes


def _deliver(s: SendOp, r: RecvOp) -> None:
    """Copy the payload into the receive buffer (truncation-checked)."""
    _check_and_fill_status(s, r)
    if s.nbytes > 0:
        flat = r.buf.reshape(-1).view(np.uint8)
        flat[:s.nbytes] = np.frombuffer(s.data, dtype=np.uint8)


def _stage(s: SendOp, r: RecvOp) -> None:
    """Park the payload on the RecvOp; ``RecvOp.commit`` lands it."""
    _check_and_fill_status(s, r)
    r.staged = s.data
