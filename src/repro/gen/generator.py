"""Seed-reproducible random directive-program generator.

Every program is grown from one :class:`random.Random` seeded with the
caller's seed, so a ``(seed, mode, nprocs)`` triple reproduces the same
source text bit-for-bit forever — the property every repro hint and CI
stats line stands on.

Constraint modes
----------------

* ``"clean"`` — every directive is drawn from paired SPMD templates
  (ring shifts, guarded neighbour shifts, xor partners, fixed
  src->dst transfers) that match *by construction*: on every world
  size every guarded send has exactly one matching guarded receive and
  vice versa. ``tests/gen/test_generator.py`` proves it for every
  template, distance and transfer pair at 1-8 ranks through
  :func:`repro.core.analysis.dataflow.validate_matching`. Buffers are
  never shared between directives. A clean program must verify clean
  and run clean — any finding on either side is oracle evidence.
* ``"racy"`` — a clean program with one deliberately planted defect
  (an overlap-body write into an in-flight receive or send buffer, or
  two concurrent directives delivering into one shared receive
  buffer). The planted kind is recorded on
  :attr:`GeneratedProgram.planted`.
* ``"unconstrained"`` — half the directives take their rank
  expressions from an adversarial grab-bag instead; programs may
  deadlock, mismatch or be trivially fine. The oracle only requires
  static and dynamic verdicts to *agree*, not any particular verdict.

The grammar covers the surface the analyses reason about: standalone
``comm_p2p``, single and adjacent ``comm_parameters`` regions (all
three ``place_sync`` spellings), nested regions, ``max_comm_iter``
loop regions, per-directive ``target`` overrides, optional ``count``,
``compute_us`` interleavings, data-seeding element stores and
``consume()`` uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.clauses import Target

__all__ = ["MODES", "GeneratedProgram", "generate", "generate_many"]

#: The constraint modes the generator understands.
MODES = ("clean", "racy", "unconstrained")

#: World sizes the generator draws from: small enough that the
#: thread-per-rank dynamic runs stay cheap at thousands of seeds,
#: large enough to exercise guards, wrap-around and non-power-of-two
#: partner math.
_NPROCS_CHOICES = (2, 3, 4, 5, 6)

#: Buffer lengths drawn for declarations.
_LEN_CHOICES = (4, 6, 8, 12, 16)

#: Directive pattern templates as ``(weight, name)``; the clause
#: builder is :func:`_template`.
_TEMPLATES = (
    (3, "ring"),
    (2, "ring-rev"),
    (3, "shift"),
    (2, "evenodd"),
    (1, "xor"),
    (2, "pair"),
)

#: Partner distances the ``shift`` and ``xor`` templates draw from.
_DISTANCES = (1, 2)

#: Program section shapes as ``(weight, name)``.
_SECTIONS = (
    (3, "p2p"),          # one standalone comm_p2p
    (4, "region"),       # one comm_parameters region, 1-3 directives
    (1, "chain"),        # two adjacent regions (END_ADJ_PARAM_REGIONS)
    (1, "nested"),       # a region containing a region
    (1, "iter"),         # a max_comm_iter loop region (Listing 3 shape)
)

#: Rank-expression grab-bag for unconstrained mode (text, may be
#: out-of-range, unmatched, or accidentally fine).
_WILD_RANKS = (
    "rank", "0", "1", "nprocs-1", "rank+1", "rank-1",
    "(rank+1)%nprocs", "(rank-1+nprocs)%nprocs", "rank^1",
    "nprocs", "rank+2", "(rank*2)%nprocs",
)

_WILD_WHENS = (
    None, "rank%2==0", "rank%2==1", "rank>0", "rank<nprocs-1",
    "rank==0", "rank!=0", "1",
)


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated program, addressable by ``(seed, mode, nprocs)``."""

    seed: int
    mode: str
    nprocs: int
    source: str
    #: The planted defect kind for racy mode ("" otherwise).
    planted: str = ""
    #: Values of the source's free clause names (beyond rank/nprocs);
    #: generated sources have none, a registry pattern text has its
    #: registry entry's.
    bindings: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line identity for logs and repro hints."""
        planted = f" planted={self.planted}" if self.planted else ""
        return (f"seed={self.seed} mode={self.mode} "
                f"nprocs={self.nprocs}{planted}")


def generate(seed: int, mode: str = "clean",
             nprocs: int | None = None) -> GeneratedProgram:
    """Generate one program for ``seed``.

    ``mode`` must be one of :data:`MODES`; ``nprocs`` defaults to a
    seed-determined draw from the small-world pool.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    rng = random.Random(seed)
    n = nprocs if nprocs is not None else rng.choice(_NPROCS_CHOICES)
    return _Builder(rng, mode, n).build(seed)


def generate_many(seeds, mode: str = "mix",
                  nprocs: int | None = None) -> list[GeneratedProgram]:
    """Generate one program per seed.

    ``mode="mix"`` deals modes out seed-deterministically (roughly
    half clean, a quarter racy, a quarter unconstrained — the blend
    the differential CI sweep wants).
    """
    out = []
    for seed in seeds:
        chosen = mode
        if mode == "mix":
            r = random.Random(seed ^ 0x5EED).random()
            chosen = ("clean" if r < 0.5
                      else "racy" if r < 0.75 else "unconstrained")
        out.append(generate(seed, chosen, nprocs))
    return out


# ---------------------------------------------------------------------------
# Templates


@dataclass
class _Directive:
    """Clause text of one candidate ``comm_p2p``."""

    sender: str
    receiver: str
    sendwhen: str | None = None
    receivewhen: str | None = None
    sbuf: str = ""
    rbuf: str = ""
    count: int | None = None
    target: Target | None = None

    def clause_text(self) -> str:
        parts = [f"sender({self.sender})", f"receiver({self.receiver})"]
        if self.sendwhen is not None:
            parts.append(f"sendwhen({self.sendwhen})")
            parts.append(f"receivewhen({self.receivewhen})")
        parts.append(f"sbuf({self.sbuf})")
        parts.append(f"rbuf({self.rbuf})")
        if self.count is not None:
            parts.append(f"count({self.count})")
        if self.target is not None:
            parts.append(f"target({self.target.value})")
        return " ".join(parts)


def _template(name: str, k: int = 1,
              pair: tuple[int, int] = (0, 1)) -> _Directive:
    """The clause text of one template, without buffers.

    ``k`` is the ``shift``/``xor`` partner distance and ``pair`` the
    ``(src, dst)`` of a fixed ``pair`` transfer; the other templates
    take neither. Every result matches on every world size.
    """
    if name == "ring":
        return _Directive(sender="(rank-1+nprocs)%nprocs",
                          receiver="(rank+1)%nprocs")
    if name == "ring-rev":
        return _Directive(sender="(rank+1)%nprocs",
                          receiver="(rank-1+nprocs)%nprocs")
    if name == "shift":
        return _Directive(sender=f"rank-{k}", receiver=f"rank+{k}",
                          sendwhen=f"rank+{k}<nprocs",
                          receivewhen=f"rank>={k}")
    if name == "evenodd":
        return _Directive(sender="rank-1", receiver="rank+1",
                          sendwhen="rank%2==0 && rank+1<nprocs",
                          receivewhen="rank%2==1")
    if name == "xor":
        return _Directive(sender=f"rank^{k}", receiver=f"rank^{k}",
                          sendwhen=f"(rank^{k})<nprocs",
                          receivewhen=f"(rank^{k})<nprocs")
    if name == "pair":
        src, dst = pair
        return _Directive(sender=str(src), receiver=str(dst),
                          sendwhen=f"rank=={src}",
                          receivewhen=f"rank=={dst}")
    raise ValueError(name)  # pragma: no cover - template table is closed


# ---------------------------------------------------------------------------
# Builder


def _weighted(rng: random.Random, table) -> str:
    names = [n for _, n in table]
    weights = [w for w, _ in table]
    return rng.choices(names, weights=weights, k=1)[0]


@dataclass
class _Buffer:
    name: str
    length: int


class _Builder:
    """Grows one program from one RNG."""

    def __init__(self, rng: random.Random, mode: str, nprocs: int):
        self.rng = rng
        self.mode = mode
        self.nprocs = nprocs
        self.buffers: list[_Buffer] = []
        self.rbufs: list[_Buffer] = []
        #: Directives emitted so far (for racy-mode planting).
        self.placed: list[_Directive] = []

    # -- buffers -----------------------------------------------------------

    def fresh_buffer(self) -> _Buffer:
        buf = _Buffer(f"buf{len(self.buffers)}",
                      self.rng.choice(_LEN_CHOICES))
        self.buffers.append(buf)
        return buf

    # -- directives --------------------------------------------------------

    def directive(self, forced_target: Target | None) -> _Directive:
        """One directive honouring the constraint mode."""
        if self.mode == "unconstrained" and self.rng.random() < 0.5:
            return self._wild(forced_target)
        rng, n = self.rng, self.nprocs
        name = _weighted(rng, _TEMPLATES)
        k = rng.choice(_DISTANCES) if name in ("shift", "xor") else 1
        pair = (0, 1)
        if name == "pair":
            src = rng.randrange(n)
            dst = rng.randrange(n)
            if dst == src:
                dst = (src + 1) % n
            pair = (src, dst)
        d = _template(name, k, pair)
        self._decorate(d, forced_target)
        return d

    def _wild(self, forced_target: Target | None) -> _Directive:
        rng = self.rng
        d = _Directive(sender=rng.choice(_WILD_RANKS),
                       receiver=rng.choice(_WILD_RANKS))
        when = rng.choice(_WILD_WHENS)
        if when is not None:
            d.sendwhen = when
            d.receivewhen = rng.choice(
                [w for w in _WILD_WHENS if w is not None])
        self._decorate(d, forced_target)
        return d

    def _decorate(self, d: _Directive,
                  forced_target: Target | None) -> None:
        """Attach buffers and optional count/target clauses."""
        rng = self.rng
        sbuf = self.fresh_buffer()
        rbuf = self.fresh_buffer()
        d.sbuf, d.rbuf = sbuf.name, rbuf.name
        if rng.random() < 0.3:
            d.count = rng.randrange(
                1, min(sbuf.length, rbuf.length) + 1)
        if forced_target is not None:
            d.target = forced_target
        elif rng.random() < 0.4:
            d.target = rng.choice(list(Target))
        self.rbufs.append(rbuf)
        self.placed.append(d)

    # -- raw code ----------------------------------------------------------

    def seed_stores(self, d: _Directive) -> list[str]:
        """Element stores giving each rank's send data a distinct value
        (what makes the cross-target payload comparison meaningful)."""
        buf = next(b for b in self.buffers if b.name == d.sbuf)
        m = self.rng.choice((100, 1000))
        k = self.rng.randrange(1, min(buf.length, 4) + 1)
        return [f"{buf.name}[{i}] = rank * {m} + {i + 1};"
                for i in range(k)]

    def compute_line(self) -> str:
        return f"compute_us({self.rng.choice((1, 2, 5, 10))});"

    # -- sections ----------------------------------------------------------

    def build(self, seed: int) -> GeneratedProgram:
        rng = self.rng
        sections: list[str] = []
        for _ in range(rng.randrange(1, 4)):
            kind = _weighted(rng, _SECTIONS)
            sections.append(self._section(kind))
        planted = ""
        if self.mode == "racy":
            planted = self._plant(sections)
        body = "\n".join(sections)
        decls = "\n".join(
            f"double {b.name}[{b.length}];" for b in self.buffers)
        uses = "".join(f"consume({b.name});\n"
                       for b in self.rbufs if rng.random() < 0.7)
        source = (f"/* generated: seed={seed} mode={self.mode} "
                  f"nprocs={self.nprocs} */\n"
                  f"{decls}\nint rank, nprocs;\n{body}\n{uses}")
        return GeneratedProgram(seed=seed, mode=self.mode,
                                nprocs=self.nprocs, source=source,
                                planted=planted)

    def _section(self, kind: str) -> str:
        rng = self.rng
        forced = rng.choice(list(Target)) if rng.random() < 0.2 else None
        if kind == "p2p":
            return self._p2p_text(self.directive(forced), indent=0)
        if kind == "region":
            return self._region_text(
                [self.directive(forced)
                 for _ in range(rng.randrange(1, 4))])
        if kind == "chain":
            first = self._region_text(
                [self.directive(forced)],
                place_sync="END_ADJ_PARAM_REGIONS")
            second = self._region_text(
                [self.directive(forced)],
                place_sync="END_ADJ_PARAM_REGIONS")
            return f"{first}\n{second}"
        if kind == "nested":
            inner = self._region_text([self.directive(forced)])
            outer_d = self.directive(forced)
            inner_lines = "\n".join(
                "    " + ln for ln in inner.splitlines())
            return ("#pragma comm_parameters\n{\n"
                    f"{self._p2p_text(outer_d, indent=4)}\n"
                    f"{inner_lines}\n}}")
        if kind == "iter":
            iters = rng.choice((2, 3))
            d = self.directive(forced)
            stores = "\n".join("    " + s for s in self.seed_stores(d))
            return (f"#pragma comm_parameters max_comm_iter({iters})\n"
                    "{\n"
                    f"{stores}\n"
                    f"{self._p2p_text(d, indent=4)}\n"
                    "}")
        raise ValueError(kind)  # pragma: no cover - closed table

    def _p2p_text(self, d: _Directive, indent: int,
                  body_lines: list[str] | None = None) -> str:
        rng = self.rng
        pad = " " * indent
        stores = [f"{pad}{s}" for s in self.seed_stores(d)]
        head = f"{pad}#pragma comm_p2p {d.clause_text()}"
        body = list(body_lines or [])
        if rng.random() < 0.5:
            body.append(self.compute_line())
        if body:
            inner = "\n".join(f"{pad}    {ln}" for ln in body)
            block = f"{head}\n{pad}{{\n{inner}\n{pad}}}"
        else:
            block = f"{head}\n{pad}{{\n{pad}}}"
        return "\n".join(stores + [block])

    def _region_text(self, directives: list[_Directive],
                     place_sync: str | None = None) -> str:
        rng = self.rng
        clauses = ""
        if place_sync is not None:
            clauses = f" place_sync({place_sync})"
        elif rng.random() < 0.3:
            clauses = " place_sync(END_PARAM_REGION)"
        inner = "\n".join(self._p2p_text(d, indent=4)
                          for d in directives)
        return f"#pragma comm_parameters{clauses}\n{{\n{inner}\n}}"

    # -- racy planting -----------------------------------------------------

    def _plant(self, sections: list[str]) -> str:
        """Inject one defect into an already-built clean program.

        The defect is planted textually into the *first* directive body
        of a section (every section's directives carry an empty or
        compute-only body block, so the insertion point is the line
        after the pragma's opening brace).
        """
        rng = self.rng
        victim = rng.choice(self.placed)
        kind = rng.choice(("overlap-write-rbuf", "overlap-write-sbuf",
                           "shared-rbuf"))
        if kind == "shared-rbuf":
            # Retarget another directive's delivery into the victim's
            # receive buffer: two unordered delivery writes.
            others = [d for d in self.placed
                      if d is not victim and d.rbuf != victim.rbuf]
            if not others:
                kind = "overlap-write-rbuf"
            else:
                other = rng.choice(others)
                old = f"rbuf({other.rbuf})"
                new = f"rbuf({victim.rbuf})"
                for i, text in enumerate(sections):
                    if old in text:
                        sections[i] = text.replace(old, new, 1)
                        return kind
                kind = "overlap-write-rbuf"
        buf = victim.rbuf if kind == "overlap-write-rbuf" else victim.sbuf
        needle = f"#pragma comm_p2p {victim.clause_text()}"
        store = f"{buf}[0] = 7.0;"
        for i, text in enumerate(sections):
            at = text.find(needle)
            if at == -1:
                continue
            brace = text.find("{", at)
            if brace == -1:
                continue
            indent = " " * (_line_indent(text, at) + 4)
            sections[i] = (text[:brace + 1]
                           + f"\n{indent}{store}" + text[brace + 1:])
            return kind
        return ""  # pragma: no cover - the victim always has a body


def _line_indent(text: str, at: int) -> int:
    start = text.rfind("\n", 0, at) + 1
    line = text[start:]
    return len(line) - len(line.lstrip())
