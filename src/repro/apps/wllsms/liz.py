"""Process topology: Fig. 1's modular structure, Fig. 2's LIZ.

World layout: global rank 0 runs Wang-Landau; the remaining ranks form
M LSMS instances of N ranks each. The first rank of each instance is
the *privileged* process of its local interaction zone; it talks to
the WL rank and to the N-1 non-privileged ranks of its zone. With the
paper's sixteen-atom runs, N = 16 gives exactly the x-axis of Fig. 3
(P = 1 + 16M: 33, 49, ..., 337).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Topology:
    """The WL-LSMS rank layout."""

    n_lsms: int          # M — number of LSMS instances
    group_size: int      # N — ranks per instance

    def __post_init__(self) -> None:
        if self.n_lsms < 1:
            raise ValueError(f"need at least one LSMS, got {self.n_lsms}")
        if self.group_size < 2:
            raise ValueError(
                f"an LSMS needs a privileged rank plus at least one "
                f"other, got group_size={self.group_size}")

    # -- sizes -------------------------------------------------------------

    @property
    def nprocs(self) -> int:
        """Total world size (1 WL rank + M*N)."""
        return 1 + self.n_lsms * self.group_size

    @property
    def wl_rank(self) -> int:
        """The Wang-Landau rank (always global rank 0)."""
        return 0

    # -- rank classification -------------------------------------------------

    def group_of(self, rank: int) -> int:
        """The LSMS instance a rank belongs to (WL rank has none)."""
        self._check(rank)
        if rank == self.wl_rank:
            raise ValueError("the WL rank belongs to no LSMS instance")
        return (rank - 1) // self.group_size

    def local_index(self, rank: int) -> int:
        """Position within the LSMS instance (0 = privileged)."""
        g = self.group_of(rank)
        return rank - self.first_rank_of(g)

    def is_privileged(self, rank: int) -> bool:
        """True for the first rank of an LSMS instance."""
        return rank != self.wl_rank and self.local_index(rank) == 0

    def is_wl(self, rank: int) -> bool:
        """True for the Wang-Landau rank."""
        self._check(rank)
        return rank == self.wl_rank

    # -- group structure -----------------------------------------------------

    def first_rank_of(self, group: int) -> int:
        """Lowest global rank of an LSMS instance."""
        self._check_group(group)
        return 1 + group * self.group_size

    def privileged_rank_of(self, group: int) -> int:
        """The privileged (first) rank of an instance."""
        return self.first_rank_of(group)

    def members_of(self, group: int) -> list[int]:
        """All ranks of one LSMS instance, privileged first."""
        first = self.first_rank_of(group)
        return list(range(first, first + self.group_size))

    def privileged_ranks(self) -> list[int]:
        """The privileged rank of every LSMS instance."""
        return [self.privileged_rank_of(g) for g in range(self.n_lsms)]

    # -- atom ownership --------------------------------------------------------

    def atoms_per_group(self) -> int:
        """One atom per group member (the paper's 16-atom, N=16 runs)."""
        return self.group_size

    def owner_of_atom(self, group: int, atom_index: int) -> int:
        """The rank owning atom ``atom_index`` of a group (round-robin;
        with one atom per rank this is member ``atom_index``)."""
        members = self.members_of(group)
        return members[atom_index % len(members)]

    # -- checks -----------------------------------------------------------------

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise ValueError(
                f"rank {rank} outside the {self.nprocs}-rank world")

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.n_lsms:
            raise ValueError(
                f"group {group} outside the {self.n_lsms} LSMS instances")

    @classmethod
    def for_nprocs(cls, nprocs: int, group_size: int = 16) -> "Topology":
        """The topology for a Fig.3-style process count (1 + M*N)."""
        if (nprocs - 1) % group_size != 0:
            raise ValueError(
                f"nprocs={nprocs} is not 1 + M*{group_size}")
        return cls(n_lsms=(nprocs - 1) // group_size,
                   group_size=group_size)
