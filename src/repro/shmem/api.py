"""The per-PE SHMEM API handle.

Obtained once per simulated rank via :func:`init`. Method names and
semantics follow SHMEM: puts are one-sided (the target takes no action),
``quiet`` guarantees remote completion of this PE's outstanding puts,
``barrier_all`` adds a full synchronization, ``wait_until`` is the flag
idiom for point-to-point notification.

Typed variants (``put_double``, ``put_int``, ``put_float``, ``put_long``,
``put32``, ``put64``, ``putmem``) enforce the element-size matching the
paper's compiler performs when choosing the call name for a buffer.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ShmemError, SymmetryError
from repro.netmodel.base import SHMEM, MachineModel
from repro.netmodel.gemini import gemini_model
from repro.shmem.symheap import SymArray, SymmetricHeap
from repro.sim.process import Env
from repro.sim.sync import Rendezvous

_MODEL_KEY = "shmem_model"
_BARRIER_KEY = "shmem_barriers"

#: Comparison operators accepted by :meth:`Shmem.wait_until`.
_PREDICATES = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
}


def init(env: Env, model: MachineModel | None = None) -> "Shmem":
    """Return this PE's SHMEM handle (first caller fixes the model)."""
    engine = env.engine
    heap = SymmetricHeap.attach(engine)
    existing = engine.services.get(_MODEL_KEY)
    if existing is None:
        existing = model or gemini_model()
        engine.services[_MODEL_KEY] = existing
    elif model is not None and model is not existing:
        raise ShmemError(
            "shmem.init called with a different model than the one the "
            "heap was created with")
    return Shmem(env, heap, existing)


class Shmem:
    """One PE's view of the SHMEM world."""

    def __init__(self, env: Env, heap: SymmetricHeap, model: MachineModel):
        self.env = env
        self.heap = heap
        self.model = model
        self._tp = model.transport(SHMEM)
        #: Remote-completion times of puts not yet covered by a quiet.
        self._pending: list[float] = []

    # ------------------------------------------------------------------

    @property
    def my_pe(self) -> int:
        """This PE's id (``shmem_my_pe``)."""
        return self.env.rank

    @property
    def n_pes(self) -> int:
        """Total PE count (``shmem_n_pes``)."""
        return self.env.size

    # ------------------------------------------------------------------
    # Symmetric allocation

    def malloc(self, shape, dtype=np.float64) -> SymArray:
        """Collective symmetric allocation (``shmem_malloc``).

        Every PE must call with the same shape/dtype; returns this PE's
        handle. Synchronizes (as ``shmem_malloc`` does).
        """
        arr = self.heap.allocate(self.env.rank, shape, dtype)
        self.heap.malloc_barrier.join(self.env)
        return arr

    # ------------------------------------------------------------------
    # Puts / gets

    def _check_sym(self, target) -> SymArray:
        if not isinstance(target, SymArray):
            raise SymmetryError(
                "SHMEM communication requires symmetric data objects; "
                f"got {type(target).__name__} (allocate with shmem.malloc)")
        return target

    def _put(self, target: SymArray, source: np.ndarray, pe: int,
             offset: int, elem_size: int | None, name: str) -> float:
        completion, commit = self._put_impl(
            target, source, pe, offset, elem_size, name, staged=False)
        commit()
        return completion

    def put_staged(self, target: SymArray, source: np.ndarray, pe: int,
                   offset: int = 0, elem_size: int | None = None,
                   name: str = "shmem_put") -> tuple[float, "object"]:
        """Issue a put whose target-side visibility is deferred.

        Used by the directive backends under fault injection (deferred
        delivery): the wire cost and pending-completion bookkeeping
        happen now, but the remote buffer is only written when the
        returned ``commit`` callable runs — at the synchronization that
        guarantees the put. Returns ``(completion_time, commit)``.
        """
        return self._put_impl(target, source, pe, offset, elem_size,
                              name, staged=True)

    def _put_impl(self, target: SymArray, source: np.ndarray, pe: int,
                  offset: int, elem_size: int | None, name: str,
                  *, staged: bool):
        target = self._check_sym(target)
        if not isinstance(source, np.ndarray):
            source = np.asarray(source)
        if not 0 <= pe < self.n_pes:
            raise ShmemError(f"PE {pe} out of range (n_pes={self.n_pes})")
        self.env.engine.check_peer_alive(pe)
        if elem_size is not None and source.dtype.itemsize != elem_size:
            raise ShmemError(
                f"{name}: source element size "
                f"{source.dtype.itemsize} does not match the call's "
                f"{elem_size}-byte type")
        mirror = target.mirror_on(pe).reshape(-1)
        src = np.ascontiguousarray(source).reshape(-1)
        if elem_size is not None and target.dtype.itemsize != elem_size:
            raise ShmemError(
                f"{name}: target element size {target.dtype.itemsize} "
                f"does not match the call's {elem_size}-byte type")
        if src.dtype != mirror.dtype:
            # putmem-style raw copy requires byte-compatible views.
            if src.dtype.itemsize != mirror.dtype.itemsize:
                raise ShmemError(
                    f"{name}: dtype mismatch {src.dtype} -> {mirror.dtype}")
            src = src.view(mirror.dtype)
        if offset < 0 or offset + src.size > mirror.size:
            raise ShmemError(
                f"{name}: put of {src.size} elements at offset {offset} "
                f"exceeds the {mirror.size}-element symmetric buffer")
        nbytes = src.size * mirror.dtype.itemsize
        post_t0 = self.env.now
        self.env.advance(self._tp.send_overhead(nbytes))
        faults = self.env.engine.faults
        extra = (faults.message_delay(self._tp, self.env.rank, pe, nbytes)
                 if faults is not None else 0.0)
        completion = self.env.now + self._tp.wire_time(nbytes) + extra
        self._pending.append(completion)
        self.env.engine.stats.count_message(SHMEM, nbytes)
        profile = self.env.engine.profile
        if profile is not None:
            profile.add(pe, "message", post_t0, completion,
                        src=self.env.rank, dst=pe, nbytes=nbytes,
                        transport="shmem", call=name)
        if staged:
            # The put conceptually reads the source *now*: snapshot it,
            # since the commit runs later (at the covering sync).
            src = src.copy()

        def commit(mirror=mirror, lo=offset, src=src, target=target,
                   pe=pe, completion=completion):
            mirror[lo:lo + src.size] = src
            self._notify_cell_waiters(target, pe, completion)

        return completion, commit

    def put(self, target: SymArray, source: np.ndarray, pe: int,
            offset: int = 0) -> float:
        """Generic put (element size inferred from the buffers).

        Returns the virtual time at which the data is remotely visible.
        """
        return self._put(target, source, pe, offset, None, "shmem_put")

    def put_double(self, target, source, pe: int, offset: int = 0) -> float:
        """Typed put of 8-byte floats (``shmem_double_put``)."""
        return self._put(target, source, pe, offset, 8, "shmem_double_put")

    def put_float(self, target, source, pe: int, offset: int = 0) -> float:
        """Typed put of 4-byte floats (``shmem_float_put``)."""
        return self._put(target, source, pe, offset, 4, "shmem_float_put")

    def put_int(self, target, source, pe: int, offset: int = 0) -> float:
        """Typed put of 4-byte integers (``shmem_int_put``)."""
        return self._put(target, source, pe, offset, 4, "shmem_int_put")

    def put_long(self, target, source, pe: int, offset: int = 0) -> float:
        """Typed put of 8-byte integers (``shmem_long_put``)."""
        return self._put(target, source, pe, offset, 8, "shmem_long_put")

    def put32(self, target, source, pe: int, offset: int = 0) -> float:
        """Typed put of 4-byte elements (``shmem_put32``)."""
        return self._put(target, source, pe, offset, 4, "shmem_put32")

    def put64(self, target, source, pe: int, offset: int = 0) -> float:
        """Typed put of 8-byte elements (``shmem_put64``)."""
        return self._put(target, source, pe, offset, 8, "shmem_put64")

    def putmem(self, target, source, pe: int, offset: int = 0) -> float:
        """Raw byte copy (``shmem_putmem``)."""
        return self._put(target, source, pe, offset, None, "shmem_putmem")

    def get(self, source: SymArray, dest: np.ndarray, pe: int,
            offset: int = 0) -> None:
        """Blocking get: returns when ``dest`` holds the remote data."""
        source = self._check_sym(source)
        if not isinstance(dest, np.ndarray) or not dest.flags.writeable:
            raise ShmemError("get destination must be a writeable array")
        if not 0 <= pe < self.n_pes:
            raise ShmemError(f"PE {pe} out of range (n_pes={self.n_pes})")
        self.env.engine.check_peer_alive(pe)
        mirror = source.mirror_on(pe).reshape(-1)
        n = dest.size
        if offset < 0 or offset + n > mirror.size:
            raise ShmemError(
                f"get of {n} elements at offset {offset} exceeds the "
                f"{mirror.size}-element symmetric buffer")
        nbytes = n * mirror.dtype.itemsize
        self.env.advance(self._tp.send_overhead(nbytes))
        dest.reshape(-1)[...] = mirror[offset:offset + n]
        # A blocking get is a full round trip.
        self.env.advance(self._tp.latency(8) + self._tp.wire_time(nbytes))
        self.env.engine.stats.count_message(SHMEM, nbytes)

    # ------------------------------------------------------------------
    # Completion & synchronization

    def quiet(self) -> None:
        """Remote completion of all of this PE's outstanding puts."""
        self.env.advance(self.model.quiet_overhead)
        self.env.engine.stats.count_sync("quiet")
        if self._pending:
            self.env.advance_to(max(self._pending))
            self._pending.clear()

    def fence(self) -> None:
        """Ordering point for this PE's puts.

        Our wire model delivers puts in issue order per target already,
        so fence only charges its call cost (and, conservatively, covers
        pending completions like quiet — Cray SHMEM's fence on Gemini
        was similarly heavyweight).
        """
        self.env.advance(self.model.quiet_overhead)
        self.env.engine.stats.count_sync("fence")
        if self._pending:
            self.env.advance_to(max(self._pending))
            self._pending.clear()

    def barrier_all(self) -> None:
        """Global barrier + completion of all outstanding puts."""
        self.quiet()
        bars = self.env.engine.services.setdefault(_BARRIER_KEY, {})
        key = ("all",)
        bar = bars.get(key)
        if bar is None:
            bar = Rendezvous(range(self.n_pes),
                             cost_fn=self.model.barrier_cost,
                             name="shmem-barrier-all")
            bars[key] = bar
        self.env.engine.stats.count_sync("barrier")
        bar.join(self.env)

    def barrier(self, members: Sequence[int]) -> None:
        """Barrier over a PE subset (SHMEM active-set barrier)."""
        self.quiet()
        key = tuple(sorted(members))
        bars = self.env.engine.services.setdefault(_BARRIER_KEY, {})
        bar = bars.get(key)
        if bar is None:
            bar = Rendezvous(key, cost_fn=self.model.barrier_cost,
                             name=f"shmem-barrier-{key}")
            bars[key] = bar
        self.env.engine.stats.count_sync("barrier")
        bar.join(self.env)

    # ------------------------------------------------------------------
    # Atomic memory operations (AMOs)

    def _amo_target(self, sym: SymArray, index: int, pe: int):
        sym = self._check_sym(sym)
        if not 0 <= pe < self.n_pes:
            raise ShmemError(f"PE {pe} out of range (n_pes={self.n_pes})")
        self.env.engine.check_peer_alive(pe)
        mirror = sym.mirror_on(pe).reshape(-1)
        if not 0 <= index < mirror.size:
            raise ShmemError(f"AMO index {index} out of range")
        return sym, mirror

    def _amo_charge(self, sym: SymArray, pe: int, name: str) -> float:
        """AMOs cost a put-sized issue; completion is a round trip for
        fetching variants (callers block on the returned time)."""
        nbytes = sym.data.dtype.itemsize
        self.env.advance(self._tp.send_overhead(nbytes))
        completion = self.env.now + self._tp.wire_time(nbytes)
        self.env.engine.stats.count_message(SHMEM, nbytes)
        return completion

    def atomic_add(self, sym: SymArray, index: int, value, pe: int) -> None:
        """Non-fetching remote add (``shmem_atomic_add``)."""
        sym, mirror = self._amo_target(sym, index, pe)
        completion = self._amo_charge(sym, pe, "shmem_atomic_add")
        mirror[index] += value
        self._pending.append(completion)
        self._notify_cell_waiters(sym, pe, completion)

    def atomic_fetch_inc(self, sym: SymArray, index: int, pe: int):
        """Fetch-and-increment (``shmem_atomic_fetch_inc``): returns the
        pre-increment value; blocks for the round trip."""
        sym, mirror = self._amo_target(sym, index, pe)
        completion = self._amo_charge(sym, pe, "shmem_atomic_fetch_inc")
        old = mirror[index].copy() if hasattr(mirror[index], "copy") \
            else mirror[index]
        mirror[index] += 1
        self.env.advance_to(completion + self._tp.latency(8))
        self._notify_cell_waiters(sym, pe, completion)
        return old

    def atomic_compare_swap(self, sym: SymArray, index: int, cond,
                            value, pe: int):
        """Compare-and-swap (``shmem_atomic_compare_swap``): writes
        ``value`` iff the remote cell equals ``cond``; returns the old
        value. Blocks for the round trip."""
        sym, mirror = self._amo_target(sym, index, pe)
        completion = self._amo_charge(sym, pe,
                                      "shmem_atomic_compare_swap")
        old = mirror[index].copy() if hasattr(mirror[index], "copy") \
            else mirror[index]
        if old == cond:
            mirror[index] = value
        self.env.advance_to(completion + self._tp.latency(8))
        self._notify_cell_waiters(sym, pe, completion)
        return old

    # ------------------------------------------------------------------
    # Point-to-point synchronization (flag idiom)

    def wait_until(self, sym: SymArray, index: int, op: str,
                   value) -> None:
        """Block until ``sym[index] op value`` on *this* PE.

        ``op`` is one of ``"eq" "ne" "gt" "ge" "lt" "le"``. The waiting
        PE is woken at the visibility time of the put that satisfies the
        condition.
        """
        sym = self._check_sym(sym)
        pred = _PREDICATES.get(op)
        if pred is None:
            raise ShmemError(
                f"unknown wait_until op {op!r}; choose from "
                f"{sorted(_PREDICATES)}")
        if not 0 <= index < sym.data.size:
            raise ShmemError(f"wait_until index {index} out of range")
        while not pred(sym.data.reshape(-1)[index], value):
            waiter = self.env.make_waiter(
                f"shmem_wait_until(sym {sym.sid}[{index}] {op} {value})")
            key = (sym.sid, self.env.rank)
            self.heap.cell_waiters.setdefault(key, []).append(waiter)
            self.env.block()

    def _notify_cell_waiters(self, target: SymArray, pe: int,
                             completion: float) -> None:
        key = (target.sid, pe)
        waiters = self.heap.cell_waiters.pop(key, [])
        for w in waiters:
            # Re-check happens in the waiter's own while loop; wake at
            # the put's visibility time. Waiters are single-use and the
            # engine requires their owner to be blocked, so skip any
            # entry already woken by an earlier update of the same cell
            # (its owner re-registers a fresh waiter if it blocks again).
            if not w.woken:
                self.env.engine.wake(w, completion)

    # ------------------------------------------------------------------

    def broadcast(self, sym: SymArray, root: int) -> None:
        """Simple broadcast: the root puts to every other PE, then all
        synchronize (``shmem_broadcast`` flavour)."""
        sym = self._check_sym(sym)
        if not 0 <= root < self.n_pes:
            raise ShmemError(f"invalid root {root}")
        if self.my_pe == root:
            for pe in range(self.n_pes):
                if pe != root:
                    self.put(sym, sym.data, pe)
        self.barrier_all()
