"""2-D halo and butterfly patterns."""

import numpy as np
import pytest

from repro.errors import SimProcessError
from repro.patterns import butterfly, get_pattern, halo2d
from repro.patterns.halo2d import HaloBuffers, grid_shape, neighbours
from tests.patterns._forms import (
    SYNC_KIND,
    TARGETS,
    TextEdges,
    assembled,
    butterfly_text,
    run_mpi_form,
    run_text,
)


class TestGridHelpers:
    @pytest.mark.parametrize("n,expected", [
        (4, (2, 2)), (6, (2, 3)), (9, (3, 3)), (12, (3, 4)), (7, (1, 7)),
    ])
    def test_grid_shape_most_square(self, n, expected):
        assert grid_shape(n) == expected

    def test_neighbours_interior(self):
        # 3x3 grid, rank 4 is the centre.
        nbr = neighbours(4, 3, 3)
        assert nbr == {"north": 1, "south": 7, "west": 3, "east": 5}

    def test_neighbours_corner(self):
        nbr = neighbours(0, 3, 3)
        assert nbr["north"] is None and nbr["west"] is None
        assert nbr["south"] == 3 and nbr["east"] == 1


class TestHalo2D:
    NY, NX = 4, 5

    def _block(self, rank):
        """A block whose cells are distinct across ranks."""
        return (np.arange(self.NY * self.NX, dtype=float)
                .reshape(self.NY, self.NX) + 1000.0 * rank)

    def _block_halos(self, rank, py, px):
        """Each halo holds the facing edge of the neighbour's block, or
        stays zero at the grid boundary."""
        nbr = neighbours(rank, py, px)
        facing = {"north": lambda b: b[-1, :], "south": lambda b: b[0, :],
                  "west": lambda b: b[:, -1], "east": lambda b: b[:, 0]}
        return {d: (edge(self._block(nbr[d])) if nbr[d] is not None
                    else np.zeros(self.NX if d in ("north", "south")
                                  else self.NY)).tolist()
                for d, edge in facing.items()}

    @staticmethod
    def _expected(rank, py, px):
        """Each halo holds the opposite edge of the neighbour on its
        side, as the text seeds it (rank r's ``halo_s[0]`` is
        ``r + px + 1``, its south neighbour's ``edge_n[0]``), or stays
        zero at the grid boundary."""
        nbr = neighbours(rank, py, px)
        out = {}
        for d, edge in (("north", "south"), ("south", "north"),
                        ("west", "east"), ("east", "west")):
            n = 4 if d in ("north", "south") else 3
            strip = [0.0] * n
            if nbr[d] is not None:
                strip[0] = nbr[d] + TextEdges.SEEDS[edge]
            out[f"halo_{d[0]}"] = strip
        return out

    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    @pytest.mark.parametrize("nprocs", [4, 6, 9])
    def test_halos_match_neighbour_edges(self, variant, nprocs):
        py, px = grid_shape(nprocs)
        if variant == "mpi":
            # The hand-written form on a real block: HaloBuffers.edges
            # cuts each strip out of it.
            def prog(comm):
                bufs = HaloBuffers(self.NY, self.NX)
                halo2d.run_mpi(comm, self._block(comm.rank), bufs, py, px)
                return {d: h.tolist() for d, h in bufs.halo.items()}

            res, _ = run_mpi_form(nprocs, prog)
            for rank in range(nprocs):
                assert res.values[rank] == \
                    self._block_halos(rank, py, px), rank
            return
        for target in TARGETS:
            run = run_text(halo2d.SOURCE, nprocs, target, {"px": px}).payloads
            for rank in range(nprocs):
                halos = {k: v for k, v in run[rank].items()
                         if k.startswith("halo_")}
                assert halos == self._expected(rank, py, px), (target, rank)

    def test_directive_consolidates_all_four_directions(self):
        spec = get_pattern("halo2d")
        for target in TARGETS:
            stats = run_text(spec.source, 9, target, {"px": 3}).stats
            # One sync per rank, though interior ranks move 8 messages.
            assert stats.sync_calls == {SYNC_KIND[target]: 9}, target

    def test_repeated_exchanges(self):
        # The text's exchange three times, the west edge re-seeded
        # between exchanges: the last exchange must deliver the last
        # seed.
        source = halo2d.SOURCE
        begin = source.index("#pragma comm_parameters")
        region = source[begin:source.index("stencil(")]
        text = (source[:begin] + region + "edge_w[0] = rank + 1201;\n"
                + region + "edge_w[0] = rank + 2201;\n" + region)
        for target in TARGETS:
            run = run_text(text, 4, target, {"px": 2}).payloads
            # rank 0's east neighbour is 1; the last exchange saw 2201.
            assert run[0]["halo_e"] == [1.0 + 2201, 0.0, 0.0], target


class TestButterfly:
    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    @pytest.mark.parametrize("nprocs", [2, 4, 8, 16])
    def test_allgather_by_recursive_doubling(self, variant, nprocs):
        expected = [float(r + 1) ** 2 for r in range(nprocs)]
        if variant == "mpi":
            res, _ = run_mpi_form(nprocs, lambda comm: butterfly.run_mpi(
                comm, float(comm.rank + 1) ** 2).tolist())
            assert res.values == [expected] * nprocs
            return
        text = butterfly_text(nprocs, seed="(rank + 1) * (rank + 1)")
        for target in TARGETS:
            run = run_text(text, nprocs, target).payloads
            assert [assembled(p, r, nprocs) for r, p in enumerate(run)] \
                == [expected] * nprocs, target

    def test_non_power_of_two_rejected(self):
        # The text is guarded, so the registry refuses the world size;
        # the hand-written form raises.
        assert not get_pattern("butterfly").valid_world(3)
        with pytest.raises(SimProcessError) as ei:
            run_mpi_form(3, lambda comm: butterfly.run_mpi(comm, 1.0))
        assert isinstance(ei.value.original, ValueError)

    def test_round_count_is_logarithmic(self):
        # One consolidated sync per rank and round: log2(P) rounds.
        for target in TARGETS:
            stats = run_text(butterfly_text(8), 8, target).stats
            assert stats.sync_calls == {SYNC_KIND[target]: 3 * 8}, target
        _, engine = run_mpi_form(8, lambda comm: butterfly.run_mpi(comm, 1.0))
        # 3 rounds x 8 ranks, each round one message per rank.
        assert engine.stats.messages["mpi2s"] == 24
