"""Per-rank / per-directive aggregation over a recorded profile.

The metrics implement the paper's overlap vocabulary numerically:

* **realized-overlap ratio** — of the compute time a rank performed,
  the fraction that ran inside a *window* (a posted-but-unsynced
  interval opened by a directive post and closed by the covering
  consolidated sync). Ratio 1.0 means every compute second had
  communication in flight underneath it; 0.0 means the program never
  computed while communication was pending.
* **forfeited-overlap seconds** — per rank, the sync time that compute
  performed *outside* windows could have hidden:
  ``min(sync_s, compute_s - compute_overlapped_s)``. This is the
  measured counterpart of the advisor's CI101/CI102
  ``estimated_saving_s`` (a *prediction* from hoisting statements);
  :mod:`repro.profiling.critpath` cross-checks the two.

Per-directive rows group post spans by their attribution label (pushed
by the program simulator as ``p2p@L<line>``); posts recorded outside
any label scope land in the ``"unlabeled"`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.profiling.spans import Profile


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge intervals into a disjoint, sorted union."""
    out: list[tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        if out and t0 <= out[-1][1]:
            if t1 > out[-1][1]:
                out[-1] = (out[-1][0], t1)
        else:
            out.append((t0, t1))
    return out


def _overlap(t0: float, t1: float,
             union: list[tuple[float, float]]) -> float:
    """Length of [t0, t1] covered by the disjoint union."""
    total = 0.0
    for u0, u1 in union:
        if u1 <= t0:
            continue
        if u0 >= t1:
            break
        total += min(t1, u1) - max(t0, u0)
    return total


@dataclass
class RankMetrics:
    """Aggregated span time and traffic of one rank."""

    rank: int
    compute_s: float = 0.0
    #: Compute time spent inside posted-but-unsynced windows.
    compute_overlapped_s: float = 0.0
    post_s: float = 0.0
    sync_s: float = 0.0
    barrier_s: float = 0.0
    stall_s: float = 0.0
    msgs_sent: int = 0
    msgs_recv: int = 0
    bytes_sent: int = 0
    bytes_recv: int = 0

    @property
    def overlap_ratio(self) -> float:
        """Fraction of compute that ran under in-flight communication
        (0.0 when the rank performed no compute)."""
        if self.compute_s <= 0.0:
            return 0.0
        return min(1.0, self.compute_overlapped_s / self.compute_s)

    @property
    def forfeited_overlap_s(self) -> float:
        """Sync seconds the rank's un-overlapped compute could have
        hidden had it been moved inside the windows."""
        return max(0.0, min(self.sync_s,
                            self.compute_s - self.compute_overlapped_s))


@dataclass
class DirectiveMetrics:
    """Traffic attributed to one directive label."""

    label: str
    posts: int = 0
    messages: int = 0
    bytes: int = 0
    post_s: float = 0.0


@dataclass
class ProfileMetrics:
    """The aggregate of one profile: per-rank rows plus directive rows."""

    makespan_s: float
    ranks: list[RankMetrics] = field(default_factory=list)
    directives: dict[str, DirectiveMetrics] = field(default_factory=dict)

    @property
    def realized_overlap_ratio(self) -> float:
        """Whole-run overlap ratio: total overlapped compute over total
        compute across all ranks (0.0 with no compute anywhere)."""
        total = sum(r.compute_s for r in self.ranks)
        if total <= 0.0:
            return 0.0
        overlapped = sum(r.compute_overlapped_s for r in self.ranks)
        return min(1.0, overlapped / total)

    @property
    def forfeited_overlap_s(self) -> float:
        """The run's forfeited overlap: the worst rank's value (ranks
        forfeit concurrently, so their losses do not add up in time)."""
        return max((r.forfeited_overlap_s for r in self.ranks),
                   default=0.0)

    @property
    def total_bytes(self) -> int:
        """Payload bytes delivered, counted once on the receive side."""
        return sum(r.bytes_recv for r in self.ranks)

    @property
    def total_messages(self) -> int:
        """Deliveries, counted once on the receive side."""
        return sum(r.msgs_recv for r in self.ranks)

    def render(self) -> str:
        """Human-readable table of the per-rank and directive rows."""
        lines = [
            f"makespan            {self.makespan_s * 1e6:12.3f} us",
            f"messages            {self.total_messages:12d}",
            f"bytes               {self.total_bytes:12d}",
            f"realized overlap    {self.realized_overlap_ratio:12.3f}",
            "forfeited overlap   "
            f"{self.forfeited_overlap_s * 1e6:12.3f} us",
            "",
            "rank  compute_us  overlap_us    post_us    sync_us "
            "barrier_us   ratio  sent  recv      bytes",
        ]
        for r in self.ranks:
            lines.append(
                f"{r.rank:4d} {r.compute_s * 1e6:11.3f} "
                f"{r.compute_overlapped_s * 1e6:11.3f} "
                f"{r.post_s * 1e6:10.3f} {r.sync_s * 1e6:10.3f} "
                f"{r.barrier_s * 1e6:10.3f} {r.overlap_ratio:7.3f} "
                f"{r.msgs_sent:5d} {r.msgs_recv:5d} "
                f"{r.bytes_recv:10d}")
        if self.directives:
            lines.append("")
            lines.append("directive             posts  messages      "
                         "bytes    post_us")
            for label in sorted(self.directives):
                d = self.directives[label]
                lines.append(
                    f"{label:20s} {d.posts:6d} {d.messages:9d} "
                    f"{d.bytes:10d} {d.post_s * 1e6:10.3f}")
        return "\n".join(lines)


def aggregate(profile: Profile) -> ProfileMetrics:
    """Fold a profile's spans into :class:`ProfileMetrics`."""
    nranks = profile.nranks
    ranks = [RankMetrics(rank=r) for r in range(nranks)]
    windows: dict[int, list[tuple[float, float]]] = {}
    computes: dict[int, list[tuple[float, float]]] = {}
    directives: dict[str, DirectiveMetrics] = {}

    def directive_row(span_attrs: dict) -> DirectiveMetrics:
        label = str(span_attrs.get("label", "unlabeled"))
        row = directives.get(label)
        if row is None:
            row = directives[label] = DirectiveMetrics(label=label)
        return row

    for span in profile:
        if span.t1 is None:  # pragma: no cover - finish() closes these
            continue
        dur = span.duration
        if 0 <= span.rank < nranks:
            rm = ranks[span.rank]
        else:  # pragma: no cover - defensive
            continue
        if span.kind == "compute":
            rm.compute_s += dur
            computes.setdefault(span.rank, []).append((span.t0, span.t1))
        elif span.kind == "post":
            rm.post_s += dur
            row = directive_row(span.attrs)
            row.posts += 1
            row.post_s += dur
            row.messages += int(span.attrs.get("sends", 0)) \
                + int(span.attrs.get("recvs", 0))
            row.bytes += int(span.attrs.get("bytes", 0))
        elif span.kind == "sync":
            rm.sync_s += dur
        elif span.kind == "barrier":
            rm.barrier_s += dur
        elif span.kind == "stall":
            rm.stall_s += dur
        elif span.kind == "window":
            windows.setdefault(span.rank, []).append((span.t0, span.t1))
        elif span.kind == "message":
            # Payload only, as in ``comm_matrix``: one-sided ``notify``
            # spans are synchronization.
            src = span.attrs.get("src")
            nbytes = int(span.attrs.get("nbytes", 0))
            rm.msgs_recv += 1
            rm.bytes_recv += nbytes
            if isinstance(src, int) and 0 <= src < nranks:
                ranks[src].msgs_sent += 1
                ranks[src].bytes_sent += nbytes

    for rank, intervals in computes.items():
        union = _union(windows.get(rank, []))
        if not union:
            continue
        rm = ranks[rank]
        for t0, t1 in intervals:
            rm.compute_overlapped_s += _overlap(t0, t1, union)

    return ProfileMetrics(makespan_s=profile.makespan, ranks=ranks,
                          directives=directives)
