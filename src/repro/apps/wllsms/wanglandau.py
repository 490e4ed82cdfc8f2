"""Wang-Landau driver: the Monte-Carlo layer of WL-LSMS.

A genuine (miniature) Wang-Landau sampler over a toy Heisenberg energy
model: it estimates the density of states g(E) by proposing random
spin configurations, accepting with probability min(1, g(E_old)/
g(E_new)), incrementing ln g at each visited energy, and refining the
modification factor when the visit histogram flattens — the algorithm
of the paper's reference [12], scaled down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def random_spins(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random unit vectors, flattened (the ``ev`` array)."""
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v.reshape(-1)


def heisenberg_energy(spins: np.ndarray, j_coupling: float = 1.0) -> float:
    """Nearest-neighbour-chain Heisenberg energy of a configuration."""
    s = spins.reshape(-1, 3)
    return float(-j_coupling * (s[:-1] * s[1:]).sum())


@dataclass
class WangLandau:
    """The density-of-states estimator."""

    e_min: float
    e_max: float
    n_bins: int = 32
    flatness: float = 0.8

    ln_g: np.ndarray = field(init=False)
    histogram: np.ndarray = field(init=False)
    ln_f: float = field(init=False, default=1.0)
    steps: int = field(init=False, default=0)
    refinements: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.e_max <= self.e_min:
            raise ValueError("e_max must exceed e_min")
        if self.n_bins < 2:
            raise ValueError("need at least two energy bins")
        self.ln_g = np.zeros(self.n_bins)
        self.histogram = np.zeros(self.n_bins, dtype=np.int64)

    # ------------------------------------------------------------------

    def bin_of(self, energy: float) -> int:
        """The (clamped) bin index of an energy."""
        frac = (energy - self.e_min) / (self.e_max - self.e_min)
        return int(np.clip(frac * self.n_bins, 0, self.n_bins - 1))

    def accept(self, e_old: float, e_new: float,
               rng: np.random.Generator) -> bool:
        """The Wang-Landau acceptance rule."""
        b_old, b_new = self.bin_of(e_old), self.bin_of(e_new)
        ln_ratio = self.ln_g[b_old] - self.ln_g[b_new]
        return bool(np.log(rng.random()) < min(0.0, ln_ratio)
                    or ln_ratio >= 0.0)

    def record(self, energy: float) -> None:
        """Visit an energy: bump g and the histogram, refine if flat."""
        b = self.bin_of(energy)
        self.ln_g[b] += self.ln_f
        self.histogram[b] += 1
        self.steps += 1
        if self.steps % (8 * self.n_bins) == 0 and self.is_flat():
            self.refine()

    def is_flat(self) -> bool:
        """True when every visited bin is near the mean visit count."""
        visited = self.histogram[self.histogram > 0]
        if visited.size < 2:
            return False
        return bool(visited.min() >= self.flatness * visited.mean())

    def refine(self) -> None:
        """Halve ln f and reset the histogram (one WL stage)."""
        self.ln_f /= 2.0
        self.histogram[:] = 0
        self.refinements += 1

    def normalized_ln_g(self) -> np.ndarray:
        """ln g shifted so its minimum visited value is zero."""
        out = self.ln_g.copy()
        visited = out > 0
        if visited.any():
            out[visited] -= out[visited].min()
        return out
