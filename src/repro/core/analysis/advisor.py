"""Performance advisor: the CI1xx diagnostics and their rewrites.

The correctness analyses (:mod:`repro.core.analysis.verify`) prove what
a directive program *must not* do; this pass reports what it *fails to
exploit*. Each finding is a CI1xx :class:`~repro.core.analysis.codes.
Diagnostic` carrying a net-model **estimated saving in modeled
seconds** for the analyzed ``(nprocs, target, netmodel)`` triple, and —
when the advisor knows a concrete cure — a :class:`Rewrite` describing
a pragma-source edit that :mod:`repro.core.analysis.fix` can apply and
prove.

Detected advisories (see ``docs/LINT.md``):

* **CI100** — adjacent directives with independent buffers synchronize
  separately where one consolidated call would do (Section III-A);
* **CI101** — an overlap body is empty while independent work sits
  right after the synchronization point;
* **CI102** — the synchronization completes earlier than the first use
  of the received data, with movable independent work in between;
* **CI103** — an explicit ``count`` exceeds the smallest declared
  buffer length (the runtime would reject the transfer);
* **CI110** — an explicit lowering target is modeled slower than an
  alternative (measured by actually simulating the alternatives).

The advisor is deliberately *heuristic*: a proposed rewrite may be
wrong (e.g. merging directives whose overlap bodies read each other's
buffers). Soundness lives in the proof gate — every rewrite is
re-verified CI0xx-clean on all targets and re-simulated before it is
accepted, so the detector may be optimistic without risk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core import exprs
from repro.core.analysis import codes
from repro.core.analysis.independence import buffer_names
from repro.core.analysis.infer import infer_count_static, infer_element_type
from repro.core.analysis.progsim import simulate_program
from repro.core.clauses import DEFAULT_TARGET, SyncPlacement, Target
from repro.core.ir import (
    ClauseExprs,
    Node,
    P2PNode,
    ParamRegionNode,
    Program,
    RawCode,
)
from repro.errors import ReproError
from repro.netmodel import gemini_model
from repro.netmodel.base import MachineModel, TransportParams

__all__ = ["Finding", "Rewrite", "advise_program", "apply_rewrite"]

_IDENT = re.compile(r"[A-Za-z_]\w*")
_COMPUTE = re.compile(r"\bcompute_us\s*\(([^()]*)\)")
#: Lines the hoist pass must not move: declarations and control flow.
_UNMOVABLE = re.compile(
    r"^\s*(?:static\s+|const\s+)?(?:double|float|int|long|unsigned|char|"
    r"short|struct|for|while|if|else|return|do|switch)\b|[{}]")

_KIND = {Target.MPI_2SIDE: "mpi2s", Target.MPI_1SIDE: "mpi1s",
         Target.SHMEM: "shmem"}

#: A retarget advisory must beat the explicit target by this factor.
_RETARGET_MARGIN = 0.9


@dataclass(frozen=True)
class Rewrite:
    """One concrete pragma-source edit curing a CI1xx finding.

    Rewrites are located by directive source line, which is only stable
    for the program they were derived from — the fix engine re-runs the
    advisor after every accepted edit. ``signature`` is the structural
    identity (kind + buffer names) used to remember *rejected* rewrites
    across re-advises, where lines have shifted.
    """

    kind: str                     # merge-standalone | merge-regions |
    #                               hoist-overlap | tighten-count |
    #                               retarget
    code: str                     # the CI1xx code this cures
    line: int                     # anchor directive line
    lines: tuple[int, ...] = ()   # merge members / hoist (raw line,)
    n_lines: int = 0              # hoist: raw lines to move
    value: str = ""               # tighten: new count; retarget: keyword
    signature: str = ""


@dataclass(frozen=True)
class Finding:
    """One advisory with its (optional) curing rewrite."""

    diagnostic: codes.Diagnostic
    rewrite: Rewrite | None = None


@dataclass
class _Ctx:
    """Everything one advise pass needs."""

    program: Program
    nprocs: int
    target: Target
    variables: dict[str, int]
    model: MachineModel
    #: ``id(node)`` -> effective clauses, from
    #: :meth:`repro.core.ir.Program.p2p_clauses`.
    effective: dict[int, ClauseExprs]
    findings: list[Finding] = field(default_factory=list)


def advise_program(program: Program, nprocs: int = 8, *,
                   target: Target | str = DEFAULT_TARGET,
                   extra_vars: dict[str, int] | None = None,
                   model: MachineModel | None = None,
                   simulate: bool = True) -> list[Finding]:
    """Run every advisory pass over ``program``.

    ``target`` is the default lowering assumed for directives without
    an explicit ``target`` clause; ``extra_vars`` binds free names as
    in the verifier. ``simulate=False`` skips the CI110 pass (the only
    one that runs the simulator during *detection*).

    Findings are returned in diagnostic sort order. A finding whose
    saving cannot be estimated is dropped — the advisor only speaks
    when the net model can quantify the win.
    """
    ctx = _Ctx(program=program, nprocs=nprocs,
               target=Target.parse(target),
               variables={"nprocs": nprocs, "size": nprocs, "rank": 0,
                          **(extra_vars or {})},
               model=model if model is not None else gemini_model(),
               effective={id(node): clauses for node, _scope, clauses
                          in program.p2p_clauses()})
    _pass_consolidation(ctx)
    _pass_overlap(ctx)
    _pass_count(ctx)
    if simulate:
        _pass_retarget(ctx, extra_vars or {})
    ctx.findings.sort(key=lambda f: f.diagnostic.sort_key())
    return ctx.findings


# ---------------------------------------------------------------------------
# Shared measurement helpers


def _effective_target(clauses: ClauseExprs, ctx: _Ctx) -> Target:
    return clauses.target or ctx.target


def _transport(ctx: _Ctx, target: Target) -> TransportParams:
    return ctx.model.transport(_KIND[target])


def _sync_cost(ctx: _Ctx, target: Target, nreqs: int) -> float:
    """Modeled cost of one synchronization call on ``target``."""
    if target is Target.MPI_2SIDE:
        return ctx.model.waitall_cost(nreqs)
    if target is Target.MPI_1SIDE:
        return (ctx.model.fence_overhead
                + _transport(ctx, target).wire_time(8))
    return ctx.model.quiet_overhead


def _message_bytes(clauses: ClauseExprs, ctx: _Ctx) -> int | None:
    """Bytes per buffer transfer of a resolved directive, or None."""
    try:
        count = int(exprs.evaluate(
            infer_count_static(clauses, ctx.program.decls),
            ctx.variables))
        isz = int(infer_element_type(clauses, ctx.program.decls).size)
    except ReproError:
        return None
    return count * isz


def _serial_cost(ctx: _Ctx, clauses: ClauseExprs) -> float | None:
    """Modeled post+wait cost of one directive synchronized alone."""
    nbytes = _message_bytes(clauses, ctx)
    if nbytes is None:
        return None
    target = _effective_target(clauses, ctx)
    tp = _transport(ctx, target)
    nbufs = max(len(clauses.sbuf), 1)
    return (nbufs * (tp.send_overhead(nbytes) + tp.wire_time(nbytes))
            + _sync_cost(ctx, target, 2 * nbufs))


# ---------------------------------------------------------------------------
# CI100 — missed consolidation


def _pass_consolidation(ctx: _Ctx) -> None:
    _consolidate_standalone(ctx)
    _consolidate_regions(ctx)


def _standalone_runs(program: Program) -> list[list[P2PNode]]:
    """Maximal runs of consecutive top-level standalone directives."""
    runs: list[list[P2PNode]] = []
    current: list[P2PNode] = []
    for node in program.nodes:
        if isinstance(node, P2PNode):
            current.append(node)
        else:
            if len(current) >= 2:
                runs.append(current)
            current = []
    if len(current) >= 2:
        runs.append(current)
    return runs


def _names_pairwise_disjoint(name_sets: list[set[str]]) -> bool:
    seen: set[str] = set()
    for names in name_sets:
        if names & seen:
            return False
        seen |= names
    return True


def _consolidation_saving(ctx: _Ctx, clause_sets: list[ClauseExprs]
                          ) -> float | None:
    """Serial-sync cost minus one consolidated sync over the group."""
    serial = 0.0
    sends = 0.0
    wires: list[float] = []
    total_reqs = 0
    targets: list[Target] = []
    for clauses in clause_sets:
        nbytes = _message_bytes(clauses, ctx)
        if nbytes is None:
            return None
        target = _effective_target(clauses, ctx)
        targets.append(target)
        tp = _transport(ctx, target)
        nbufs = max(len(clauses.sbuf), 1)
        cost = _serial_cost(ctx, clauses)
        if cost is None:
            return None
        serial += cost
        sends += nbufs * tp.send_overhead(nbytes)
        wires.append(tp.wire_time(nbytes))
        total_reqs += 2 * nbufs
    consolidated = (sends + max(wires)
                    + _sync_cost(ctx, targets[0], total_reqs))
    return max(serial - consolidated, 0.0)


def _consolidate_standalone(ctx: _Ctx) -> None:
    for run in _standalone_runs(ctx.program):
        clause_sets = [ctx.effective[id(n)] for n in run]
        name_sets = [buffer_names(c) for c in clause_sets]
        if not _names_pairwise_disjoint(name_sets):
            continue
        saving = _consolidation_saving(ctx, clause_sets)
        if saving is None:
            continue
        lines = tuple(n.line for n in run)
        rewrite = Rewrite(
            kind="merge-standalone", code="CI100", line=lines[0],
            lines=lines,
            signature="merge-standalone:" + "|".join(
                ",".join(sorted(s)) for s in name_sets))
        ctx.findings.append(Finding(
            codes.make(
                "CI100", lines[0],
                f"{len(run)} adjacent standalone directives with "
                f"independent buffers synchronize separately "
                f"({len(run)} sync calls where 1 would do)",
                directive=lines[0], target=ctx.target.value,
                fixit="wrap the directives at lines "
                      f"{list(lines)} in one comm_parameters region",
                saving_s=saving),
            rewrite))


def _consolidate_regions(ctx: _Ctx) -> None:
    for chain in ctx.program.adjacent_region_chains():
        if len(chain) < 2:
            continue
        if any(r.clauses.place_sync is not None for r in chain):
            continue  # an explicit placement is respected as written
        name_sets = []
        clause_sets = []
        for region in chain:
            instances = region.p2p_instances()
            if not instances:
                break
            names: set[str] = set()
            for inst in instances:
                merged = ctx.effective[id(inst)]
                names |= buffer_names(merged)
                clause_sets.append(merged)
            name_sets.append(names)
        else:
            if not _names_pairwise_disjoint(name_sets):
                continue
            saving = _consolidation_saving(ctx, clause_sets)
            if saving is None:
                continue
            lines = tuple(r.line for r in chain)
            rewrite = Rewrite(
                kind="merge-regions", code="CI100", line=lines[0],
                lines=lines,
                signature="merge-regions:" + "|".join(
                    ",".join(sorted(s)) for s in name_sets))
            ctx.findings.append(Finding(
                codes.make(
                    "CI100", lines[0],
                    f"{len(chain)} adjacent comm_parameters regions "
                    "with independent buffers synchronize separately "
                    f"({len(chain)} sync calls where 1 would do)",
                    directive=lines[0], target=ctx.target.value,
                    fixit="give the regions at lines "
                          f"{list(lines)} place_sync("
                          "END_ADJ_PARAM_REGIONS) so one call covers "
                          "the chain",
                    saving_s=saving),
                rewrite))


# ---------------------------------------------------------------------------
# CI101 / CI102 — forfeited overlap & eager sync


def _compute_us_of(lines: list[str], variables: dict[str, int]) -> float:
    total = 0.0
    for line in lines:
        for match in _COMPUTE.finditer(line):
            try:
                total += float(exprs.evaluate(match.group(1), variables))
            except ReproError:
                return 0.0
    return total


def _body_compute_us(node: P2PNode, variables: dict[str, int]) -> float:
    total = 0.0
    for child in node.body:
        if isinstance(child, RawCode):
            total += _compute_us_of(child.lines, variables)
    return total


def _hoistable_prefix(raw: RawCode, live_names: set[str]) -> int:
    """How many leading lines of ``raw`` may move into an overlap body.

    A line qualifies while it neither touches an in-flight buffer nor
    is a declaration / control-flow construct. Trailing blank lines are
    not counted.
    """
    n = 0
    for i, line in enumerate(raw.lines):
        if not line.strip():
            continue
        if _UNMOVABLE.search(line):
            break
        if set(_IDENT.findall(line)) & live_names:
            break
        n = i + 1
    return n


def _pass_overlap(ctx: _Ctx) -> None:
    nodes = ctx.program.nodes
    for i, node in enumerate(nodes):
        if i + 1 >= len(nodes) or not isinstance(nodes[i + 1], RawCode):
            continue
        raw = nodes[i + 1]
        assert isinstance(raw, RawCode)
        if isinstance(node, P2PNode):
            host: P2PNode = node
            clause_sets = [ctx.effective[id(node)]]
            live = buffer_names(clause_sets[0])
        elif isinstance(node, ParamRegionNode):
            if node.place_sync is not SyncPlacement.END_PARAM_REGION:
                continue  # sync is not at this boundary
            instances = node.p2p_instances()
            if not instances:
                continue
            host = instances[-1]
            live = set()
            clause_sets = []
            for inst in instances:
                merged = ctx.effective[id(inst)]
                live |= buffer_names(merged)
                clause_sets.append(merged)
        else:
            continue
        n_lines = _hoistable_prefix(raw, live)
        if n_lines == 0:
            continue
        hoist_us = _compute_us_of(raw.lines[:n_lines], ctx.variables)
        if hoist_us <= 0.0:
            continue  # nothing modeled to hide behind the transfer
        wires = []
        for clauses in clause_sets:
            nbytes = _message_bytes(clauses, ctx)
            if nbytes is None:
                break
            tp = _transport(ctx, _effective_target(clauses, ctx))
            wires.append(tp.wire_time(nbytes))
        if len(wires) != len(clause_sets):
            continue
        saving = min(hoist_us * 1e-6, max(wires))
        code = ("CI101" if _body_compute_us(host, ctx.variables) == 0.0
                else "CI102")
        rewrite = Rewrite(
            kind="hoist-overlap", code=code, line=host.line,
            lines=(raw.line,), n_lines=n_lines,
            signature=f"hoist-overlap:{','.join(sorted(live))}:"
                      f"{n_lines}")
        what = ("the overlap body is empty" if code == "CI101"
                else "the synchronization runs before the first use "
                     "of the received data")
        ctx.findings.append(Finding(
            codes.make(
                code, host.line,
                f"{what} while {n_lines} independent statement line(s) "
                f"(~{hoist_us:.0f} modeled us of compute) follow the "
                "synchronization point",
                directive=host.line, target=ctx.target.value,
                fixit=f"move the {n_lines} line(s) after line "
                      f"{raw.line} into the overlap body of the "
                      f"directive at line {host.line}",
                saving_s=saving),
            rewrite))


# ---------------------------------------------------------------------------
# CI103 — oversized count


def _pass_count(ctx: _Ctx) -> None:
    for node in ctx.program.all_p2p():
        clauses = ctx.effective[id(node)]
        if "count" not in clauses.exprs:
            continue
        names = sorted(buffer_names(clauses))
        lengths = [d.length for n in names
                   if (d := ctx.program.decls.get(n)) is not None
                   and d.length is not None]
        if not lengths:
            continue
        min_len = min(lengths)
        try:
            count = int(exprs.evaluate(clauses.exprs["count"],
                                       ctx.variables))
            isz = int(infer_element_type(
                clauses, ctx.program.decls).size)
        except ReproError:
            continue
        if count <= min_len:
            continue
        target = _effective_target(clauses, ctx)
        tp = _transport(ctx, target)
        nbufs = max(len(clauses.sbuf), 1)
        saving = nbufs * (
            tp.wire_time(count * isz) - tp.wire_time(min_len * isz)
            + tp.send_overhead(count * isz)
            - tp.send_overhead(min_len * isz))
        rewrite = Rewrite(
            kind="tighten-count", code="CI103", line=node.line,
            value=str(min_len),
            signature=f"tighten-count:{','.join(names)}:{min_len}")
        ctx.findings.append(Finding(
            codes.make(
                "CI103", node.line,
                f"count evaluates to {count} but the smallest listed "
                f"buffer holds {min_len} elements; the generated "
                "transfer would overrun it",
                directive=node.line, target=ctx.target.value,
                fixit=f"tighten count to {min_len}",
                saving_s=saving),
            rewrite))


# ---------------------------------------------------------------------------
# CI110 — lowering-target mismatch (measured by simulation)


def _explicit_target_nodes(program: Program
                           ) -> list[P2PNode | ParamRegionNode]:
    out: list[P2PNode | ParamRegionNode] = []

    def walk(nodes: list[Node]) -> None:
        for node in nodes:
            if isinstance(node, (P2PNode, ParamRegionNode)):
                if node.clauses.target is not None:
                    out.append(node)
                walk(node.body)

    walk(program.nodes)
    return out


def _pass_retarget(ctx: _Ctx, extra_vars: dict[str, int]) -> None:
    carriers = _explicit_target_nodes(ctx.program)
    if not carriers:
        return
    try:
        base = simulate_program(
            ctx.program, ctx.nprocs, target=ctx.target,
            extra_vars=extra_vars, model=ctx.model).modeled_time
    except Exception:
        return  # the original does not even run; CI103 et al. apply
    for node in carriers:
        explicit = node.clauses.target
        assert explicit is not None
        best: tuple[float, Target] | None = None
        for alt in Target:
            if alt is explicit:
                continue
            node.clauses.target = alt
            try:
                t = simulate_program(
                    ctx.program, ctx.nprocs, target=ctx.target,
                    extra_vars=extra_vars, model=ctx.model
                ).modeled_time
            except Exception:
                continue
            finally:
                node.clauses.target = explicit
            if best is None or t < best[0]:
                best = (t, alt)
        if best is None or best[0] >= base * _RETARGET_MARGIN:
            continue
        saving = base - best[0]
        rewrite = Rewrite(
            kind="retarget", code="CI110", line=node.line,
            value=best[1].value,
            signature="retarget:"
                      f"{','.join(sorted(buffer_names(node.clauses)))}"
                      f":{best[1].value}")
        ctx.findings.append(Finding(
            codes.make(
                "CI110", node.line,
                f"explicit target {explicit.value} simulates "
                f"{base * 1e6:.2f} us; {best[1].value} simulates "
                f"{best[0] * 1e6:.2f} us on the same model",
                directive=node.line, target=explicit.value,
                fixit=f"retarget the directive to {best[1].value}",
                saving_s=saving),
            rewrite))


# ---------------------------------------------------------------------------
# Applying rewrites


def apply_rewrite(program: Program, rewrite: Rewrite) -> bool:
    """Apply ``rewrite`` to ``program`` (mutating it) if its site still
    exists; returns False when the site cannot be located."""
    if rewrite.kind == "merge-standalone":
        return _apply_merge_standalone(program, rewrite)
    if rewrite.kind == "merge-regions":
        return _apply_merge_regions(program, rewrite)
    if rewrite.kind == "hoist-overlap":
        return _apply_hoist(program, rewrite)
    if rewrite.kind == "tighten-count":
        return _apply_tighten(program, rewrite)
    if rewrite.kind == "retarget":
        return _apply_retarget(program, rewrite)
    return False


def _apply_merge_standalone(program: Program, rw: Rewrite) -> bool:
    wanted = set(rw.lines)
    idxs = [i for i, n in enumerate(program.nodes)
            if isinstance(n, P2PNode) and n.line in wanted]
    if len(idxs) != len(rw.lines):
        return False
    if idxs != list(range(idxs[0], idxs[0] + len(idxs))):
        return False
    members = [program.nodes[i] for i in idxs]
    region = ParamRegionNode(clauses=ClauseExprs(), body=members,
                             line=members[0].line)
    program.nodes[idxs[0]:idxs[-1] + 1] = [region]
    return True


def _apply_merge_regions(program: Program, rw: Rewrite) -> bool:
    wanted = set(rw.lines)
    found = [n for n in program.nodes
             if isinstance(n, ParamRegionNode) and n.line in wanted]
    if len(found) != len(rw.lines):
        return False
    for region in found:
        region.clauses.place_sync = SyncPlacement.END_ADJ_PARAM_REGIONS
    return True


def _apply_hoist(program: Program, rw: Rewrite) -> bool:
    raw_line = rw.lines[0] if rw.lines else -1
    raw = next((n for n in program.nodes
                if isinstance(n, RawCode) and n.line == raw_line), None)
    host = next((n for n in program.all_p2p() if n.line == rw.line),
                None)
    if raw is None or host is None or rw.n_lines <= 0 \
            or rw.n_lines > len(raw.lines):
        return False
    moved = raw.lines[:rw.n_lines]
    del raw.lines[:rw.n_lines]
    host.body.append(RawCode(lines=moved, line=raw.line))
    if not any(ln.strip() for ln in raw.lines):
        program.nodes.remove(raw)
    return True


def _apply_tighten(program: Program, rw: Rewrite) -> bool:
    host = next((n for n in program.all_p2p() if n.line == rw.line),
                None)
    if host is None:
        return False
    host.clauses.exprs["count"] = rw.value
    return True


def _apply_retarget(program: Program, rw: Rewrite) -> bool:
    for node in program.all_p2p():
        if node.line == rw.line and node.clauses.target is not None:
            node.clauses.target = Target(rw.value)
            return True
    for node in program.nodes:
        if isinstance(node, ParamRegionNode) and node.line == rw.line \
                and node.clauses.target is not None:
            node.clauses.target = Target(rw.value)
            return True
    return False
