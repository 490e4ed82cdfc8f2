"""The figure-regeneration harness and its reporting."""

import pytest

from repro.bench.harness import (
    FigureSeries,
    figure4,
    paper_pcounts,
    productivity,
)
from repro.bench.report import mean_speedup, render_figure, render_speedups


class TestPaperPCounts:
    def test_full_sweep_matches_figure3_axis(self):
        ps = paper_pcounts()
        assert ps[0] == 33
        assert ps[-1] == 337
        assert len(ps) == 20
        assert all(b - a == 16 for a, b in zip(ps, ps[1:]))

    def test_quick_is_subset(self):
        assert set(paper_pcounts(quick=True)) <= set(paper_pcounts())


class TestFigureSeries:
    def test_add_and_ratio(self):
        fig = FigureSeries("f", "P", "t", xs=[1, 2])
        fig.add("a", [4.0, 8.0])
        fig.add("b", [2.0, 2.0])
        assert fig.ratio("a", "b") == [2.0, 4.0]

    def test_length_mismatch_rejected(self):
        fig = FigureSeries("f", "P", "t", xs=[1, 2])
        with pytest.raises(ValueError):
            fig.add("a", [1.0])

    def test_render_contains_all_series(self):
        fig = FigureSeries("Figure X", "P", "time", xs=[10, 20])
        fig.add("one", [1.0, 2.0])
        fig.add("two", [3.0, 4.0])
        out = render_figure(fig)
        assert "Figure X" in out
        assert "one" in out and "two" in out
        assert "10" in out and "20" in out

    def test_render_speedups(self):
        fig = FigureSeries("f", "P", "t", xs=[1])
        fig.add("base", [10.0])
        fig.add("fast", [2.0])
        out = render_speedups(fig, "base")
        assert "5" in out
        assert mean_speedup(fig, "base", "fast") == pytest.approx(5.0)


class TestProductivity:
    """Listing 4 -> Listing 5 (Section IV-A): far fewer lines, and the
    translator generates the library calls."""

    def test_structure(self):
        result = productivity()
        assert result["original_loc"] > 50  # the 74-line listing, minus
        assert result["directive_loc"] < 20  # blanks
        assert result["reduction_factor"] > 3.0
        assert "MPI_Waitall" in result["generated_c"]
        # 3 directives: 1 struct + 2 + 4 buffers = 7 Isend/Irecv pairs,
        # one consolidated Waitall, the struct type created once.
        assert result["generated_isend_calls"] == 7
        assert result["generated_waitall_calls"] == 1
        assert result["generated_struct_creations"] == 1
        # The derived type covers the 14 scalar fields (blocklengths
        # include header[80] and evec[3]).
        assert "MPI_Type_create_struct(14" in result["generated_c"]

    def test_generated_code_compiles_structurally(self):
        """Balanced braces/parens — a cheap well-formedness check."""
        code = productivity()["generated_c"]
        assert code.count("{") == code.count("}")
        assert code.count("(") == code.count(")")


class TestFigure4Harness:
    def test_quick_run_structure(self):
        fig = figure4(quick=True, wl_steps=1)
        assert len(fig.xs) == 3
        assert len(fig.series) == 5
        for ys in fig.series.values():
            assert all(y > 0 for y in ys)

    def test_custom_pcounts(self):
        fig = figure4(pcounts=[33], wl_steps=1)
        assert fig.xs == [33]
