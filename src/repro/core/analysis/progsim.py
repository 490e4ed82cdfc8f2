"""Concretely execute a parsed directive program in the simulator.

The static analyses reason over a :class:`~repro.core.ir.Program`
symbolically; this module closes the loop by *running* the same program
in :class:`repro.sim.Engine` under a calibrated machine model. Every
directive is replayed through the runtime DSL (``comm_parameters`` /
``comm_p2p``), so the modeled time reflects the real lowering — sync
consolidation, dependent flushes, per-target protocol costs — rather
than a re-derivation of it.

This is the measurement half of the advisor's proof-carrying fixes
(:mod:`repro.core.analysis.fix`): a rewrite is only accepted when the
simulated time of the rewritten program does not regress against the
original on the same ``(nprocs, target, netmodel)`` triple.

Compute statements
------------------

Raw code is mostly not executed (it is C text), with two modeled
exceptions:

* a line containing ``compute_us(expr)`` charges ``expr`` microseconds
  of computation to the executing rank via ``env.compute`` — how the
  pessimized examples (``examples/pragmas/slow/``) express overlap-able
  work so the advisor's savings become visible in simulation;
* a plain element assignment ``name[idx] = expr;`` whose index and
  right-hand side both evaluate in the clause-expression language is
  *performed* on the materialized buffer (and recorded by the access
  sanitizer when armed). Generated programs use this to seed each rank
  with distinct data, which is what makes the differential oracle's
  bit-for-bit payload comparison across lowering targets meaningful.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import mpi, shmem
from repro.core import exprs
from repro.core.clauses import DEFAULT_TARGET, Target
from repro.core.directives import comm_flush, comm_p2p, comm_parameters
from repro.core.ir import (
    BufferDecl,
    ClauseExprs,
    Node,
    P2PNode,
    ParamRegionNode,
    Program,
    RawCode,
)
from repro.core.analysis.independence import base_identifier
from repro.dtypes.primitives import PrimitiveType
from repro.errors import ReproError
from repro.netmodel import gemini_model
from repro.netmodel.base import MachineModel
from repro.profiling.spans import Profile
from repro.sim import Engine
from repro.sim.process import Env
from repro.sim.stats import SimStats

__all__ = ["ProgramSimError", "SimOutcome", "program_main",
           "simulate_program"]

#: ``compute_us(<expr>)`` in raw code charges modeled microseconds.
_COMPUTE = re.compile(r"\bcompute_us\s*\(([^()]*)\)")

#: ``name[idx] = ...`` (plain or compound) in raw code — the write
#: sites the access sanitizer records (mirrors the static verifier's
#: assignment scan; ``==``/``<=``/``>=``/``!=`` are rejected). The
#: compound operator, when present, is captured so plain ``=`` stores
#: can additionally be performed on the materialized buffer.
_ASSIGN = re.compile(
    r"\b([A-Za-z_]\w*)\s*\[([^\][]*)\]\s*([+\-*/%&|^]|<<|>>)?=(?!=)")


class ProgramSimError(ReproError):
    """The parsed program cannot be materialized for simulation."""


@dataclass(frozen=True)
class SimOutcome:
    """Result of one concrete run of a parsed program."""

    nprocs: int
    target: str
    #: Virtual completion time of the slowest rank, in modeled seconds.
    modeled_time: float
    #: Per-rank virtual finish times.
    finish_times: tuple[float, ...]
    #: Span profile of the run (``profile=True`` only).
    profile: Profile | None = None
    #: Engine statistics of the run (message counts, and — when
    #: ``sanitize=True`` — the ``sanitizer_checks`` pair count).
    stats: SimStats | None = None
    #: Final per-rank buffer contents (``capture=True`` only): one
    #: ``{buffer name: element list}`` dict per rank. This is the
    #: bit-for-bit payload the differential oracle compares across
    #: lowering targets.
    payloads: tuple[dict[str, list[float]], ...] | None = None
    #: Race reports observed in collect mode (``sanitize="collect"``):
    #: the run finishes and every conflicting access pair is recorded
    #: instead of aborting on the first.
    races: tuple[str, ...] = ()


def simulate_program(program: Program, nprocs: int = 8, *,
                     target: Target | str = DEFAULT_TARGET,
                     extra_vars: dict[str, int] | None = None,
                     model: MachineModel | None = None,
                     max_time: float | None = 10.0,
                     profile: bool = False,
                     sanitize: "bool | str" = False,
                     faults: Any = None,
                     capture: bool = False) -> SimOutcome:
    """Run ``program`` on ``nprocs`` simulated ranks and time it.

    ``target`` is the default lowering for directives without an
    explicit ``target`` clause (mirroring the verifier's per-target
    sweep); an explicit clause always wins. ``extra_vars`` binds free
    names in clause expressions, exactly as in
    :func:`repro.core.analysis.verify.verify_program`.

    Raises :class:`ProgramSimError` when the program cannot be
    materialized (pointer/composite buffers, unknown names); runtime
    clause violations and simulator aborts propagate unwrapped.

    With ``profile=True`` the run records a span profile
    (:mod:`repro.profiling`), returned on :attr:`SimOutcome.profile`;
    directive posts are labeled ``p2p@L<line>`` for per-directive
    attribution.

    With ``sanitize=True`` the engine's byte-interval access sanitizer
    is armed and raw-code buffer assignments are recorded as point
    writes, so a program the static race pass refutes (CI04x) aborts
    here with :class:`repro.errors.RaceError` — the differential
    cross-check the race examples exercise. ``sanitize="collect"``
    arms the sanitizer in *collect* mode instead: the run completes
    and every observed race report is returned on
    :attr:`SimOutcome.races` (the differential oracle's precision
    measurement needs the full list, not the first abort).

    ``faults`` applies a :class:`repro.faults.plan.FaultPlan` —
    adversarial delivery timing for the generated-program fuzz arm.
    With ``capture=True`` the final contents of every materialized
    buffer are returned on :attr:`SimOutcome.payloads`, one dict per
    rank, for bit-for-bit comparison across lowering targets.
    """
    main = program_main(program, target=target, extra_vars=extra_vars,
                        model=model, capture=capture)
    engine = Engine(nprocs, max_time=max_time, profile=profile,
                    sanitize=bool(sanitize), faults=faults)
    if sanitize == "collect" and engine.sanitizer is not None:
        engine.sanitizer.collect = True
    result = engine.run(main)
    times = tuple(result.finish_times)
    races: tuple[str, ...] = ()
    if engine.sanitizer is not None and engine.sanitizer.collect:
        races = tuple(str(r) for r in engine.sanitizer.races)
    return SimOutcome(nprocs=nprocs, target=Target.parse(target).value,
                      modeled_time=max(times), finish_times=times,
                      profile=result.profile, stats=engine.stats,
                      payloads=(tuple(result.values) if capture
                                else None),
                      races=races)


def program_main(program: Program, *,
                 target: Target | str = DEFAULT_TARGET,
                 extra_vars: dict[str, int] | None = None,
                 model: MachineModel | None = None,
                 capture: bool = False
                 ) -> Callable[[Env], dict[str, list[float]] | None]:
    """The per-rank entry point that replays ``program`` on one rank.

    :func:`simulate_program` runs it on a fresh engine; callers that
    own the engine (the recovery runtime re-runs it at every world
    size it recovers to) run it directly. Partners and guards are
    evaluated at the running ``env.size``. Arguments are as in
    :func:`simulate_program`; with ``capture=True`` each rank returns
    its ``{buffer name: element list}`` payload.
    """
    default_target = Target.parse(target)
    machine = model if model is not None else gemini_model()
    effective = {id(node): clauses
                 for node, _scope, clauses in program.p2p_clauses()}
    order, symmetric = _plan_buffers(program, effective, default_target)
    extras = dict(extra_vars or {})

    def main(env: Env) -> dict[str, list[float]] | None:
        mpi.init(env, machine)  # fix the machine model for all targets
        buffers = _allocate(env, order, symmetric)
        variables: dict[str, Any] = {"nprocs": env.size,
                                     "size": env.size,
                                     "rank": env.rank, **extras}
        _Executor(env, buffers, variables, default_target,
                  effective).run(program.nodes)
        comm_flush(env)
        if not capture:
            return None
        return {name: np.asarray(
            buf.data if hasattr(buf, "data") else buf
        ).reshape(-1).tolist() for name, buf in buffers.items()}

    return main


# ---------------------------------------------------------------------------
# Buffer materialization


def _plan_buffers(program: Program, effective: dict[int, ClauseExprs],
                  default_target: Target
                  ) -> tuple[list[BufferDecl], frozenset[str]]:
    """Allocation order + the names that must be symmetric.

    SHMEM requires every receive buffer to be a symmetric object, and
    ``shmem.malloc`` is collective — every rank must allocate the same
    shapes in the same order. Planning statically (declaration order,
    symmetric-or-not decided from the ``effective`` clauses of every
    directive) guarantees that.
    """
    used = frozenset(base_identifier(b) for clauses in effective.values()
                     for b in clauses.sbuf + clauses.rbuf)
    order: list[BufferDecl] = []
    for name, decl in program.decls.items():
        if name not in used:
            continue
        if not isinstance(decl.ctype, PrimitiveType):
            raise ProgramSimError(
                f"buffer {name!r} has a composite element type; the "
                "program simulator materializes primitive buffers only")
        if decl.length is None:
            raise ProgramSimError(
                f"buffer {name!r} is declared as a pointer; its length "
                "is unknown so the simulator cannot materialize it")
        order.append(decl)
    missing = sorted(used - set(program.decls))
    if missing:
        raise ProgramSimError(
            f"directive buffers {missing} have no declaration")
    symmetric = frozenset(
        base_identifier(rb)
        for clauses in effective.values()
        if (clauses.target or default_target) is Target.SHMEM
        for rb in clauses.rbuf)
    return order, symmetric


def _allocate(env: Env, order: list[BufferDecl],
              symmetric: frozenset[str]) -> dict[str, Any]:
    """Materialize the declared buffers on one rank."""
    buffers: dict[str, Any] = {}
    for decl in order:
        dtype = decl.ctype.np_dtype  # planned: primitive types only
        assert decl.length is not None
        if decl.name in symmetric:
            buffers[decl.name] = shmem.init(env).malloc(
                decl.length, dtype)
        else:
            buffers[decl.name] = np.zeros(decl.length, dtype=dtype)
    return buffers


# ---------------------------------------------------------------------------
# Program walk


class _Executor:
    """Replays the node tree through the runtime DSL on one rank."""

    def __init__(self, env: Env, buffers: dict[str, Any],
                 variables: dict[str, Any],
                 default_target: Target,
                 effective: dict[int, ClauseExprs]) -> None:
        self.env = env
        self.buffers = buffers
        self.variables = variables
        self.default_target = default_target
        self.effective = effective

    def run(self, nodes: list[Node]) -> None:
        for node in nodes:
            if isinstance(node, RawCode):
                self._raw(node)
            elif isinstance(node, ParamRegionNode):
                self._region(node)
            else:
                self._p2p(node)

    def _raw(self, node: RawCode) -> None:
        sanitizer = self.env.engine.sanitizer
        for offset, line in enumerate(node.lines):
            for match in _COMPUTE.finditer(line):
                micros = exprs.evaluate(match.group(1), self.variables)
                self.env.compute(float(micros) * 1e-6)
            for match in _ASSIGN.finditer(line):
                name = match.group(1)
                index = match.group(2).strip()
                if sanitizer is not None:
                    self._raw_write(sanitizer, name, index,
                                    node.line + offset)
                if match.group(3) is None:
                    rhs = line[match.end():]
                    end = rhs.find(";")
                    self._raw_store(name, index,
                                    rhs[:end] if end != -1 else rhs)

    def _raw_store(self, name: str, index: str, rhs: str) -> None:
        """Perform an evaluable plain assignment on the real buffer.

        Anything outside the clause-expression language (function
        calls, unknown names, non-integer indices) is silently left as
        C text, exactly as before — only the evaluable stores that seed
        generated programs with rank-distinct data take effect.
        """
        buf = self.buffers.get(name)
        if buf is None:
            return
        try:
            idx = exprs.evaluate(index, self.variables)
            value = exprs.evaluate(rhs.strip(), self.variables)
            if isinstance(idx, bool) or not isinstance(idx, int):
                return
            arr = np.asarray(buf.data if hasattr(buf, "data") else buf)
            if 0 <= idx < arr.size:
                arr[idx] = value
        except (ReproError, TypeError, ValueError):
            return

    def _raw_write(self, sanitizer: Any, name: str, index: str,
                   line: int) -> None:
        """Record one raw-code buffer assignment as a sanitized write.

        An evaluable index narrows the write to one element; anything
        else conservatively covers the whole buffer (mirroring the
        static side's interval widening).
        """
        buf = self.buffers.get(name)
        if buf is None:
            return
        arr = np.asarray(buf.data if hasattr(buf, "data") else buf)
        item = arr.dtype.itemsize
        try:
            idx = exprs.evaluate(index, self.variables)
            lo, hi = int(idx) * item, (int(idx) + 1) * item
        except (ReproError, TypeError, ValueError):
            lo, hi = 0, arr.nbytes
        lo = max(0, min(lo, arr.nbytes))
        hi = max(lo, min(hi, arr.nbytes))
        sanitizer.write(self.env.rank, arr, lo, hi,
                        f"the assignment to {name}[{index}] at line "
                        f"{line}")

    def _region(self, node: ParamRegionNode) -> None:
        kwargs: dict[str, Any] = {}
        if node.clauses.place_sync is not None:
            kwargs["place_sync"] = node.clauses.place_sync
        if "max_comm_iter" in node.clauses.exprs:
            kwargs["max_comm_iter"] = int(exprs.evaluate(
                node.clauses.exprs["max_comm_iter"], self.variables))
        with comm_parameters(self.env, **kwargs):
            self.run(node.body)

    def _p2p(self, node: P2PNode) -> None:
        merged = self.effective[id(node)]
        merged.require_complete()
        kwargs: dict[str, Any] = {
            "sender": self._rank_of(merged, "sender"),
            "receiver": self._rank_of(merged, "receiver"),
            "sbuf": [self._buffer(b) for b in merged.sbuf],
            "rbuf": [self._buffer(b) for b in merged.rbuf],
            "target": merged.target or self.default_target,
        }
        if "sendwhen" in merged.exprs:
            kwargs["sendwhen"] = bool(exprs.evaluate(
                merged.exprs["sendwhen"], self.variables))
            kwargs["receivewhen"] = bool(exprs.evaluate(
                merged.exprs["receivewhen"], self.variables))
        if "count" in merged.exprs:
            kwargs["count"] = int(exprs.evaluate(
                merged.exprs["count"], self.variables))
        prof = self.env.engine.profile
        if prof is not None:
            prof.push_label(self.env.rank, f"p2p@L{node.line}")
        try:
            with comm_p2p(self.env, **kwargs):
                # The body is the overlap window: it executes while the
                # posted transfers are in flight.
                self.run(node.body)
        finally:
            if prof is not None:
                prof.pop_label(self.env.rank)

    def _rank_of(self, merged: ClauseExprs, clause: str) -> int:
        value = exprs.evaluate(merged.exprs[clause], self.variables)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProgramSimError(
                f"{clause} expression {merged.exprs[clause]!r} does not "
                f"evaluate to an integer rank (got {value!r})")
        return value

    def _buffer(self, expr: str) -> Any:
        name = base_identifier(expr)
        try:
            return self.buffers[name]
        except KeyError:  # pragma: no cover - caught by _plan_buffers
            raise ProgramSimError(
                f"buffer expression {expr!r} names no declared "
                "buffer") from None
