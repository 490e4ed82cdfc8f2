"""Experiment harness: regenerate every figure of the paper.

Each ``figure*`` function runs the WL-LSMS mini-app over the paper's
process sweep under the calibrated Gemini model and returns the series
the corresponding figure plots; ``productivity`` reproduces the
Listing 4 -> Listing 5 source comparison. ``python -m repro.bench all``
prints everything (feeding EXPERIMENTS.md); the tier-1 suite runs
reduced versions and asserts the paper's claims as relations
(``tests/bench/test_relations.py``).
"""

from repro.bench.harness import (
    FigureSeries,
    figure3,
    figure4,
    figure5,
    paper_pcounts,
    productivity,
)
from repro.bench.report import render_figure, render_speedups

__all__ = [
    "FigureSeries",
    "figure3",
    "figure4",
    "figure5",
    "paper_pcounts",
    "productivity",
    "render_figure",
    "render_speedups",
]
