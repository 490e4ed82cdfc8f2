"""The assembled WL-LSMS mini-application.

``run_app(AppConfig(...))`` builds the topology, runs the simulated
SPMD program — atom distribution, then ``wl_steps`` Wang-Landau steps
of (spin dispatch, setEvec, core-state computation, energy collection,
WL update) — and returns per-phase virtual timings plus the physics
outputs. The communication variant under test is selected by
``variant`` (+ ``target``/``overlap`` for the directive), everything
else being identical, which is what makes the Figure 3/4/5 comparisons
apples-to-apples.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import mpi, shmem
from repro.apps.wllsms import corestates, distribute, setevec
from repro.apps.wllsms.atom import ATOM_SCALARS, AtomData, make_atoms
from repro.apps.wllsms.liz import Topology
from repro.apps.wllsms.wanglandau import (
    WangLandau,
    heisenberg_energy,
    random_spins,
)
from repro.netmodel import gemini_model
from repro.netmodel.base import MachineModel
from repro.sim import Engine
from repro.sim.process import Env
from repro.util.rng import rank_rng

VARIANTS = ("original", "waitall", "directive")


@dataclass(frozen=True)
class AppConfig:
    """One WL-LSMS run's parameters."""

    n_lsms: int = 2
    group_size: int = 16
    #: Radial-grid rows of vr/rhotot (sets the single-atom payload).
    t: int = 512
    #: Core-state rows of ec/nc/lc/kc.
    tc: int = 8
    wl_steps: int = 4
    variant: str = "original"
    target: str = "TARGET_COMM_MPI_2SIDE"
    #: Overlap core-state phase 1 with the setEvec communication
    #: (directive variant only; Fig. 5).
    overlap: bool = False
    #: Fig. 5's projected accelerator speedup of the computation.
    gpu_speedup: float = 1.0
    #: Compute:communication ratio (Section IV-B measured 19:1).
    compute_ratio: float = 19.0
    #: Collect per-group energies with the future-work comm_collective
    #: directive (Section V) instead of a hand-written reduction.
    collective_intent: bool = False
    seed: int = 2013
    model: MachineModel | None = None
    #: Record a span profile (:mod:`repro.profiling`) of the run.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant != "directive" and (
                self.target != "TARGET_COMM_MPI_2SIDE" or self.overlap):
            raise ValueError(
                "target/overlap only apply to the directive variant")

    @property
    def topology(self) -> Topology:
        """The WL-LSMS rank layout this config describes."""
        return Topology(n_lsms=self.n_lsms, group_size=self.group_size)

    @property
    def nprocs(self) -> int:
        """Total simulated world size."""
        return self.topology.nprocs

    @property
    def uses_shmem(self) -> bool:
        """True when receive buffers must live on the symmetric heap."""
        return (self.variant == "directive"
                and self.target == "TARGET_COMM_SHMEM")


class PhaseTimes:
    """Per-phase virtual-time spans, collected across ranks and steps."""

    def __init__(self) -> None:
        #: name -> rank -> list of (start, end) episodes.
        self.records: dict[str, dict[int, list[tuple[float, float]]]] = {}

    @contextlib.contextmanager
    def measure(self, env: Env, name: str):
        """Record one (start, end) span of ``name`` on this rank."""
        start = env.now
        yield
        self.records.setdefault(name, {}).setdefault(
            env.rank, []).append((start, env.now))

    def episodes(self, name: str) -> int:
        """Number of recorded episodes of a phase."""
        ranks = self.records.get(name, {})
        return max((len(v) for v in ranks.values()), default=0)

    def episode_duration(self, name: str, episode: int) -> float:
        """Wall span of one episode: latest end minus earliest start."""
        ranks = self.records.get(name, {})
        starts, ends = [], []
        for spans in ranks.values():
            if episode < len(spans):
                starts.append(spans[episode][0])
                ends.append(spans[episode][1])
        if not starts:
            raise KeyError(f"no records for phase {name!r} episode "
                           f"{episode}")
        return max(ends) - min(starts)

    def total_duration(self, name: str) -> float:
        """Sum of all episode spans of a phase."""
        return sum(self.episode_duration(name, e)
                   for e in range(self.episodes(name)))

    def rank_total(self, name: str, rank: int) -> float:
        """Sum of one rank's own spans of a phase (its busy time in the
        phase, free of cross-rank arrival skew — what the paper's
        per-routine timers measure)."""
        spans = self.records.get(name, {}).get(rank, [])
        return sum(end - start for start, end in spans)


@dataclass
class AppResult:
    """Everything a benchmark or test wants from one run."""

    config: AppConfig
    phases: PhaseTimes
    stats: Any
    #: Final per-group energies as seen by the WL rank.
    group_energies: list[float]
    #: The WL sampler state after the run.
    wang_landau: WangLandau
    makespan: float
    #: Per-rank virtual finish times (determinism regression tests
    #: pin these as goldens).
    finish_times: list[float] | None = None
    #: Span profile of the run (``AppConfig.profile=True`` only).
    profile: Any = None


def run_app(config: AppConfig, *, engine_cls: type[Engine] = Engine
            ) -> AppResult:
    """Execute one configured WL-LSMS run on the simulator.

    ``engine_cls`` selects the scheduler implementation — the default
    :class:`~repro.sim.Engine`, or a factory that builds a configured
    one (the fault fuzzer passes its fault plan and watchdog this way).
    """
    topo = config.topology
    model = config.model or gemini_model()
    engine = engine_cls(topo.nprocs, profile=config.profile)
    phases = PhaseTimes()
    num_types = topo.atoms_per_group()

    total_cost = corestates.calibrated_cost(
        model, config.group_size, ratio=config.compute_ratio,
        gpu_speedup=config.gpu_speedup)
    phase1_seconds = 0.6 * total_cost
    phase2_seconds = 0.4 * total_cost

    wl_state: dict[str, Any] = {}

    def main(env: Env) -> Any:
        comm = mpi.init(env, model)
        rank = env.rank

        # --- setup: receive-side storage (symmetric for SHMEM) --------
        if config.uses_shmem:
            sh = shmem.init(env)
            my_atom = _symmetric_atom(sh, config.t, config.tc)
            my_evec = sh.malloc(3, np.float64)
        else:
            my_atom = AtomData.empty(config.t, config.tc)
            my_evec = np.zeros(3)

        deck: list[AtomData] | None = None
        atoms_input: list[AtomData] | None = None
        if topo.is_wl(rank):
            atoms_input = make_atoms(config.seed, num_types,
                                     t=config.t, tc=config.tc)

        # --- phase: single-atom-data distribution (Fig. 3) ------------
        with phases.measure(env, "distribute"):
            if topo.is_wl(rank):
                distribute.stage_a_send_decks(comm, topo, atoms_input)
            elif topo.is_privileged(rank):
                deck = distribute.stage_a_recv_deck(
                    comm, topo, config.t, config.tc)
            if not topo.is_wl(rank):
                if config.variant == "directive":
                    distribute.distribute_directive(
                        env, topo, deck, my_atom, target=config.target)
                else:
                    distribute.distribute_original(
                        comm, topo, env, deck, my_atom)

        # --- Wang-Landau loop ------------------------------------------
        if topo.is_wl(rank):
            return _wl_main(env, comm, topo, config, phases, wl_state)
        return _lsms_main(env, comm, topo, config, phases, my_atom,
                          my_evec, phase1_seconds, phase2_seconds)

    run = engine.run(main)
    wl = wl_state["sampler"]
    return AppResult(
        config=config,
        phases=phases,
        stats=engine.stats,
        group_energies=wl_state["energies"],
        wang_landau=wl,
        makespan=run.makespan,
        finish_times=run.finish_times,
        profile=run.profile,
    )


def _symmetric_atom(sh: shmem.Shmem, t: int, tc: int) -> AtomData:
    """Atom storage on the symmetric heap (SHMEM-target rbufs)."""
    return AtomData(
        scalars=sh.malloc(1, ATOM_SCALARS.to_numpy_dtype()),
        vr=sh.malloc((t, 2), np.float64),
        rhotot=sh.malloc((t, 2), np.float64),
        ec=sh.malloc((tc, 2), np.float64),
        nc=sh.malloc((tc, 2), np.int32),
        lc=sh.malloc((tc, 2), np.int32),
        kc=sh.malloc((tc, 2), np.int32),
    )


def _wl_main(env: Env, comm: mpi.Comm, topo: Topology, config: AppConfig,
             phases: PhaseTimes, wl_state: dict) -> dict:
    """The Wang-Landau rank's program."""
    num_types = topo.atoms_per_group()
    rng = rank_rng(config.seed, 0)
    # The reported group energy is the spin-dependent part only (the
    # spin-independent core sum is a constant shift WL never needs):
    # |e2| <= 0.5*zcorss per atom, |heisenberg| <= J*(n-1).
    bound = 0.5 * 18.0 * num_types + 1.0 * (num_types - 1) + 5.0
    wl = WangLandau(e_min=-bound, e_max=bound)
    wl_state["sampler"] = wl
    current_e = [np.inf] * topo.n_lsms
    for _step in range(config.wl_steps):
        configs = [random_spins(rng, num_types)
                   for _ in range(topo.n_lsms)]
        with phases.measure(env, "wl_dispatch"):
            for g in range(topo.n_lsms):
                comm.Send(configs[g], dest=topo.privileged_rank_of(g),
                          tag=11)
        with phases.measure(env, "wl_collect"):
            energies = np.zeros(1)
            new_e = []
            for g in range(topo.n_lsms):
                comm.Recv(energies, source=topo.privileged_rank_of(g),
                          tag=12)
                new_e.append(float(energies[0]))
        for g, e in enumerate(new_e):
            if not np.isfinite(current_e[g]) or \
                    wl.accept(current_e[g], e, rng):
                current_e[g] = e
            wl.record(current_e[g])
    wl_state["energies"] = current_e
    return {"ln_g": wl.normalized_ln_g(), "refinements": wl.refinements}


def _lsms_main(env: Env, comm: mpi.Comm, topo: Topology,
               config: AppConfig, phases: PhaseTimes, my_atom: AtomData,
               my_evec, phase1_seconds: float,
               phase2_seconds: float) -> float:
    """One LSMS rank's program (privileged or not)."""
    rank = env.rank
    g = topo.group_of(rank)
    group_comm = setevec._group_comm(env, topo)
    num_types = topo.atoms_per_group()
    from repro.core.buffers import array_of
    last_energy = 0.0
    for _step in range(config.wl_steps):
        ev = None
        if topo.is_privileged(rank):
            ev = np.zeros(3 * num_types)
            comm.Recv(ev, source=topo.wl_rank, tag=11)

        overlapped = {"done": False}

        def overlap_body(env_: Env, _p: int,
                         _state=overlapped) -> None:
            # Spin-independent phase 1 runs once, inside the first
            # directive instance's body: overlapped with the in-flight
            # spin transfers (Listing 7 / Fig. 5).
            if not _state["done"]:
                _state["e1"] = corestates.phase1_energy(
                    env_, my_atom, cost_seconds=phase1_seconds)
                _state["done"] = True

        with phases.measure(env, "setevec"):
            if config.variant == "original":
                setevec.set_evec_original(env, topo, ev, my_evec)
            elif config.variant == "waitall":
                setevec.set_evec_waitall(env, topo, ev, my_evec)
            else:
                setevec.set_evec_directive(
                    env, topo, ev, my_evec, target=config.target,
                    overlap_body=overlap_body if config.overlap
                    else None)

        with phases.measure(env, "corestates"):
            if overlapped["done"]:
                e1 = overlapped["e1"]
            else:
                e1 = corestates.phase1_energy(
                    env, my_atom, cost_seconds=phase1_seconds)
            e2 = corestates.phase2_energy(
                env, my_atom, array_of(my_evec),
                cost_seconds=phase2_seconds)
            last_energy = e1 + e2

        with phases.measure(env, "collect"):
            # Only the spin-dependent part matters to WL (the
            # spin-independent sum is a configuration-independent
            # shift); reporting e2 keeps the energies inside the
            # sampler's window.
            if config.collective_intent:
                # Future-work path (Section V): express the many-to-one
                # collection as a collective-intent directive.
                from repro.core import comm_collective
                members = topo.members_of(g)
                gathered = np.zeros((len(members), 1))
                gathered[members.index(rank), 0] = e2
                comm_collective(env, pattern="PATTERN_MANY_TO_ONE",
                                buf=gathered,
                                root=topo.privileged_rank_of(g),
                                group=members)
                total = (np.array([gathered.sum()])
                         if topo.is_privileged(rank) else None)
            else:
                contribution = np.array([e2])
                total = np.zeros(1) if group_comm.rank == 0 else None
                group_comm.Reduce(contribution, total, op="sum",
                                  root=0)
            if topo.is_privileged(rank):
                # Add the exchange coupling of the group's spin
                # configuration and report to the WL rank.
                spins = ev.reshape(num_types, 3)
                total[0] += heisenberg_energy(spins.reshape(-1))
                comm.Send(total, dest=topo.wl_rank, tag=12)
    return last_energy
