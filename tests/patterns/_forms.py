"""Both forms of each registry pattern, run side by side.

The directive form is the registry's pragma text, replayed through the
program simulator on a lowering target. The hand-written form is the
registry entry's ``run_mpi``, run on the buffers the text declares and
seeded with the values the text's raw code writes. Each form yields one
``{buffer name: element list}`` payload per rank, so the two compare
directly.
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.core.analysis.progsim import simulate_program
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.gen.generator import GeneratedProgram
from repro.netmodel import gemini_model
from repro.patterns import get_pattern
from repro.patterns.halo2d import HaloBuffers, grid_shape
from repro.sim import Engine

TARGETS = tuple(t.value for t in Target)

#: The synchronization call each target consolidates a region into.
SYNC_KIND = {
    "TARGET_COMM_MPI_2SIDE": "waitall",
    "TARGET_COMM_MPI_1SIDE": "flush",
    "TARGET_COMM_SHMEM": "quiet",
}


def seeded(n: int, value: float) -> np.ndarray:
    """An ``n``-element buffer whose first element is ``value``, as the
    texts' ``buf[0] = ...;`` stores leave it."""
    buf = np.zeros(n)
    buf[0] = value
    return buf


def run_text(source: str, nprocs: int, target: str,
             bindings: dict[str, int] | None = None, model=None):
    """Simulate annotated ``source``; returns the :class:`SimOutcome`
    with per-rank payloads."""
    return simulate_program(parse_program(source), nprocs, target=target,
                            extra_vars=bindings, model=model,
                            capture=True)


def registry_program(name: str) -> GeneratedProgram:
    """The registry text of ``name`` as an oracle input, at its
    registry world size and bindings."""
    spec = get_pattern(name)
    return GeneratedProgram(seed=0, mode="registry", nprocs=spec.nprocs,
                            source=spec.source, bindings=spec.bindings)


def text_payloads(name: str, nprocs: int, target: str,
                  bindings: dict[str, int] | None = None) -> list[dict]:
    """Per-rank payloads of the registry text of ``name``."""
    spec = get_pattern(name)
    return list(run_text(spec.source, nprocs, target,
                         spec.bindings if bindings is None
                         else bindings).payloads)


def hand_written(name: str):
    """The registry's hand-written MPI form of ``name``."""
    return get_pattern(name).run_mpi


def run_mpi_form(nprocs: int, fn, model=None):
    """Run ``fn(comm)`` on every rank; returns (RunResult, Engine)."""
    model = model or gemini_model()
    engine = Engine(nprocs)
    return engine.run(lambda env: fn(mpi.init(env, model))), engine


def as_lists(payload: dict) -> dict[str, list[float]]:
    return {name: np.asarray(buf).reshape(-1).tolist()
            for name, buf in payload.items()}


def _ring(comm):
    out, inb = seeded(8, comm.rank + 1), np.zeros(8)
    hand_written("ring")(comm, out, inb)
    return {"out": out, "inb": inb}


def _evenodd(comm):
    out, inb = seeded(6, comm.rank + 1), np.zeros(6)
    hand_written("evenodd")(comm, out, inb)
    return {"out": out, "inb": inb}


def _halo1d(comm):
    # run_mpi sends the interior's first 8 elements left and its last 8
    # right: the text's left_edge and right_edge.
    interior = np.concatenate([seeded(8, comm.rank + 101),
                               seeded(8, comm.rank + 1)])
    left_halo, right_halo = np.zeros(8), np.zeros(8)
    hand_written("halo1d")(comm, interior, left_halo, right_halo)
    return {"right_edge": interior[8:], "left_halo": left_halo,
            "left_edge": interior[:8], "right_halo": right_halo}


def _pipeline(comm):
    n = get_pattern("pipeline").bindings["n"]
    out = np.array([comm.rank + 1 + 100 * p for p in range(n)], float)
    inb = np.zeros(n)
    hand_written("pipeline")(comm, out, inb)
    payload = {}
    for p in range(n):
        payload[f"out{p}"], payload[f"in{p}"] = out[p:p + 1], inb[p:p + 1]
    return payload


#: Peers of the fan texts' root 0 (one buffer pair each).
FAN_PEERS = range(1, 5)


def _fanout(comm):
    data = np.array([seeded(4, k) for k in range(5)])
    mine = np.zeros(4)
    hand_written("fanout")(comm, 0, data, mine)
    payload = {}
    for k in FAN_PEERS:
        payload[f"row{k}"] = data[k]
        payload[f"got{k}"] = mine if comm.rank == k else np.zeros(4)
    return payload


def _fanin(comm):
    mine = seeded(4, comm.rank + 1)
    collected = np.zeros((5, 4))
    hand_written("fanin")(comm, 0, mine, collected)
    payload = {}
    for k in FAN_PEERS:
        payload[f"part{k}"] = mine
        payload[f"col{k}"] = collected[k] if comm.rank == 0 else np.zeros(4)
    return payload


class TextEdges(HaloBuffers):
    """Halo buffers whose edge strips are the halo2d text's, seeded as
    its raw code writes them (a 3x4 block's strips cannot all start
    with distinct values, so the edges do not come from a block).
    With ``every``, element ``k`` of each strip holds its first
    element's seed plus ``1000 * k``, as :func:`seed_every_edge`'s text
    writes it."""

    SEEDS = {"north": 1, "south": 101, "west": 201, "east": 301}

    def __init__(self, rank: int, ny: int = 3, nx: int = 4,
                 every: bool = False):
        super().__init__(ny, nx)
        self.edge = {}
        for d, base in self.SEEDS.items():
            n = self.halo[d].size
            self.edge[d] = (rank + base + 1000.0 * np.arange(n) if every
                            else seeded(n, rank + base))

    def edges(self, block):
        return self.edge


def seed_every_edge(text: str, ny: int, nx: int) -> str:
    """The halo2d ``text`` (on an ``ny x nx`` block) with every element
    of each edge strip seeded, as ``TextEdges(every=True)`` seeds it."""
    for d, base in TextEdges.SEEDS.items():
        n = nx if d in ("north", "south") else ny
        text = text.replace(
            f"edge_{d[0]}[0] = rank + {base};\n",
            "".join(f"edge_{d[0]}[{k}] = rank + {base + 1000 * k};\n"
                    for k in range(n)))
    return text


def halo2d_mpi(comm, ny: int = 3, nx: int = 4, every: bool = False):
    """run_mpi on the halo2d text's strips, named as the text names
    them (``edge_n``, ``halo_n``, ...)."""
    bufs = TextEdges(comm.rank, ny, nx, every)
    hand_written("halo2d")(comm, None, bufs, *grid_shape(comm.size))
    payload = {}
    for d in ("north", "south", "west", "east"):
        payload[f"edge_{d[0]}"] = bufs.edge[d]
        payload[f"halo_{d[0]}"] = bufs.halo[d]
    return payload


def _butterfly(comm):
    # The text's got0/got1/fwd hold the blocks of rank^1, rank^2 and
    # rank^3: the assembled vector's entries at those ranks.
    rank = comm.rank
    data = hand_written("butterfly")(comm, rank + 1.0)

    def at(i):
        return [data[rank ^ i]] if rank ^ i < comm.size else [0.0]

    return {"blk0": [rank + 1.0], "got0": at(1), "blk1": [rank + 1.0],
            "got1": at(2), "fwd": at(3)}


#: Pattern name -> its hand-written form on the text's buffers.
MPI_FORMS = {
    "ring": _ring,
    "evenodd": _evenodd,
    "halo1d": _halo1d,
    "pipeline": _pipeline,
    "fanout": _fanout,
    "fanin": _fanin,
    "halo2d": halo2d_mpi,
    "butterfly": _butterfly,
}


def mpi_payloads(name: str, nprocs: int) -> list[dict]:
    """Per-rank payloads of the hand-written form of ``name``."""
    res, _ = run_mpi_form(nprocs, MPI_FORMS[name])
    return [as_lists(p) for p in res.values]


def payloads(name: str, nprocs: int, variant: str,
             bindings: dict[str, int] | None = None) -> list[list[dict]]:
    """Per-rank payloads of one form at ``nprocs``: ``"directive"``
    runs the registry text once per target, ``"mpi"`` the hand-written
    form once."""
    if variant == "directive":
        return [text_payloads(name, nprocs, t, bindings) for t in TARGETS]
    return [mpi_payloads(name, nprocs)]


def butterfly_text(nprocs: int, seed: str = "rank + 1") -> str:
    """Recursive doubling over ``nprocs`` ranks (a power of two) as
    annotated source. Block ``b<i>`` ends up holding rank ``rank^i``'s
    seed: round ``k`` sends every block owned so far to ``rank^2^k``
    and receives the partner's into fresh blocks."""
    owned, regions = ["b0"], []
    for k in range(nprocs.bit_length() - 1):
        got = [f"b{len(owned) + i}" for i in range(len(owned))]
        regions.append(
            f"#pragma comm_parameters sender(rank^{1 << k}) "
            f"receiver(rank^{1 << k})\n{{\n"
            f"#pragma comm_p2p sbuf({', '.join(owned)}) "
            f"rbuf({', '.join(got)})\n}}\n")
        owned += got
    decls = "".join(f"double {b}[1];\n" for b in owned)
    return (decls + "int rank, nprocs;\n" + f"b0[0] = {seed};\n"
            + "".join(regions))


def assembled(payload: dict, rank: int, nprocs: int) -> list[float]:
    """The vector a :func:`butterfly_text` rank assembled."""
    data = [0.0] * nprocs
    for i in range(nprocs):
        data[rank ^ i] = payload[f"b{i}"][0]
    return data
