"""Per-layer host-time attribution from outside the program.

:class:`Tracer` wraps the public functions and methods of each layer's
modules and rebinds every name other ``repro`` modules imported from
them, so calls are attributed wherever they come from. Each wrapped
call opens a span on its thread's stack; when the span closes, its
duration minus the time of the child spans it enclosed is added to
the layer's self time. Spans are folded into per-thread accumulators
as they close and summed when the pass ends, so nothing is written
while the program runs.

Spans are timed with ``time.thread_time``: the simulator runs one rank
thread at a time behind a baton, so the wall span of a blocking call
would cover other ranks' work, while thread CPU time covers only the
caller's own. The figures are therefore host CPU seconds per layer.

A call into a layer from the same layer is not a new span: ``.calls``
counts entries into the layer from outside it, so it is a pure
function of the program's inputs and repeats exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

#: layer name -> modules whose own functions and methods it owns, or
#: ``module:Class.method`` for a single method.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.pragma": ("repro.core.pragma", "repro.core.pragma.parser",
                    "repro.core.pragma.decls"),
    "core.exprs": ("repro.core.exprs",),
    "core.analysis.dataflow": ("repro.core.analysis.dataflow",),
    "core.analysis.verify": ("repro.core.analysis.verify",),
    "core.analysis.races": ("repro.core.analysis.races",),
    "core.analysis.lint": ("repro.core.analysis.lint",),
    "core.analysis.progsim": ("repro.core.analysis.progsim",),
    "lintserve.cache.get": ("repro.lintserve.cache:ResultCache.get",),
    "lintserve.cache.put": ("repro.lintserve.cache:ResultCache.put",),
    "lintserve.merge": ("repro.lintserve.merge",),
    "gen.oracle": ("repro.gen.oracle",),
    "faults.fuzz": ("repro.faults.fuzz",),
    "profiling.critpath": ("repro.profiling.critpath",),
    "sim.engine": ("repro.sim.engine", "repro.sim.process",
                   "repro.sim.sync"),
    "mpi": ("repro.mpi", "repro.mpi.cart", "repro.mpi.collectives",
            "repro.mpi.comm", "repro.mpi.datatypes", "repro.mpi.matching",
            "repro.mpi.pack", "repro.mpi.request", "repro.mpi.rma",
            "repro.mpi.status"),
    "shmem": ("repro.shmem", "repro.shmem.api", "repro.shmem.symheap"),
    "core.directives": ("repro.core.directives",),
    "core.lower": ("repro.core.lower", "repro.core.lower.base",
                   "repro.core.lower.mpi1s", "repro.core.lower.mpi2s",
                   "repro.core.lower.notify",
                   "repro.core.lower.shmemtgt",
                   "repro.core.lower.typecache"),
    "netmodel": ("repro.netmodel", "repro.netmodel.base",
                 "repro.netmodel.calibrate", "repro.netmodel.gemini",
                 "repro.netmodel.hockney", "repro.netmodel.loggp",
                 "repro.netmodel.tables"),
}

#: The program's own counters, summed over one pass.
COUNTERS = (
    "lintserve.cache.hits", "lintserve.cache.misses",
    "lintserve.cache.stores", "lintserve.units_executed",
    "hb.cache.hits", "hb.cache.misses",
    "sim.engine.switches", "sim.engine.heap_ops",
    "sim.messages.mpi2s", "sim.messages.mpi1s", "sim.messages.shmem",
    "sim.bytes.mpi2s", "sim.bytes.mpi1s", "sim.bytes.shmem",
    "gen.oracle.checks",
)

#: Dunder methods worth a span (written in the source, not generated).
_DUNDERS = ("__init__", "__enter__", "__exit__", "__call__")


def _wrappable(fn: object, module) -> bool:
    """A plain function written in ``module``, or a wrapper around one
    such as :class:`SimStatsSink`'s around ``Engine.run`` (generators
    excluded: a span around one would close before its body runs)."""
    if not inspect.isfunction(fn):
        return False
    inner = inspect.unwrap(fn)
    return (inspect.isfunction(inner)
            and inner.__module__ == module.__name__
            and getattr(inner.__code__, "co_filename", "") == module.__file__
            and not inspect.isgeneratorfunction(inner))


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


class Tracer:
    """Installs layer spans; collects ``{layer: [calls, self_s]}``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- accounting --------------------------------------------------------

    def _state(self) -> tuple[list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            table: dict[str, list] = {}
            self._tables.append(table)
            state = self._local.state = ([], table)
        return state

    def _wrap(self, layer: str, fn):
        state = self._state
        clock = time.thread_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, table = state()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                rec = table.get(layer)
                if rec is None:
                    rec = table[layer] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return span

    def take(self) -> dict[str, tuple[int, float]]:
        """Per-layer (calls, self seconds) since the last take."""
        out = {layer: (0, 0.0) for layer in LAYERS}
        for table in self._tables:
            for layer, (calls, self_s) in list(table.items()):
                c, s = out[layer]
                out[layer] = (c + calls, s + self_s)
            table.clear()
        return out

    # -- installation ------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls, module,
                    originals: dict) -> None:
        for name, attr in list(vars(cls).items()):
            if not _public(name):
                continue
            kind = type(attr)
            fn = attr.__func__ if kind in (staticmethod, classmethod) \
                else attr
            if not _wrappable(fn, module):
                continue
            wrapped = self._wrap(layer, fn)
            originals[fn] = wrapped
            self._set(cls, name, kind(wrapped)
                      if kind in (staticmethod, classmethod) else wrapped)

    def install(self) -> None:
        """Wrap every layer, then rebind names imported elsewhere."""
        originals: dict[object, object] = {}
        for layer, specs in LAYERS.items():
            for spec in specs:
                modname, _, qual = spec.partition(":")
                module = importlib.import_module(modname)
                if qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    fn = vars(cls)[meth]
                    originals[fn] = self._wrap(layer, fn)
                    self._set(cls, meth, originals[fn])
                    continue
                for name, attr in list(vars(module).items()):
                    if inspect.isclass(attr) and \
                            attr.__module__ == module.__name__:
                        self._wrap_class(layer, attr, module, originals)
                    elif _public(name) and _wrappable(attr, module):
                        originals[attr] = self._wrap(layer, attr)
                        self._set(module, name, originals[attr])
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or module is None:
                continue
            for name, attr in list(vars(module).items()):
                if inspect.isfunction(attr) and attr in originals:
                    self._set(module, name, originals[attr])

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class SimStatsSink:
    """Sums the :class:`repro.sim.stats.SimStats` of every engine run."""

    def __init__(self) -> None:
        self.runs: list = []
        self._engine = None
        self._run = None

    def install(self) -> None:
        from repro.sim import engine

        self._engine = engine.Engine
        self._run = run = vars(engine.Engine)["run"]
        runs = self.runs

        @functools.wraps(run)
        def collected(eng, *args, **kwargs):
            try:
                return run(eng, *args, **kwargs)
            finally:
                runs.append(eng.stats)

        self._engine.run = collected

    def uninstall(self) -> None:
        if self._engine is not None:
            self._engine.run = self._run
            self._engine = None

    def take(self) -> dict[str, float]:
        """Engine counters summed over the runs since the last take."""
        out: dict[str, float] = {"sim.engine.switches": 0,
                                 "sim.engine.heap_ops": 0,
                                 "sim.engine.dispatch_s": 0.0}
        for kind in ("mpi2s", "mpi1s", "shmem"):
            out[f"sim.messages.{kind}"] = 0
            out[f"sim.bytes.{kind}"] = 0
        for stats in self.runs:
            out["sim.engine.switches"] += stats.switches
            out["sim.engine.heap_ops"] += stats.heap_ops
            out["sim.engine.dispatch_s"] += stats.dispatch_wall_seconds
            for kind in ("mpi2s", "mpi1s", "shmem"):
                out[f"sim.messages.{kind}"] += stats.messages[kind]
                out[f"sim.bytes.{kind}"] += stats.bytes[kind]
        self.runs.clear()
        return out
