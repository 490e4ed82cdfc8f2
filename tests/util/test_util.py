"""Unit tests for shared utilities."""

import numpy as np
import pytest

from repro.util import (
    GiB,
    KiB,
    MiB,
    Table,
    fmt_time,
    msec,
    rank_rng,
    usec,
)


class TestUnits:
    def test_byte_constants(self):
        assert KiB == 1024
        assert MiB == 1024 ** 2
        assert GiB == 1024 ** 3

    def test_time_constants(self):
        assert usec == pytest.approx(1e-6)
        assert msec == pytest.approx(1e-3)

    @pytest.mark.parametrize("t,expected", [
        (0.0, "0 s"),
        (2.5, "2.5 s"),
        (0.0015, "1.5 ms"),
        (1.5e-6, "1.5 us"),
        (3e-9, "3 ns"),
    ])
    def test_fmt_time(self, t, expected):
        assert fmt_time(t) == expected


class TestRankRng:
    def test_reproducible(self):
        a = rank_rng(42, 3).random(10)
        b = rank_rng(42, 3).random(10)
        assert np.array_equal(a, b)

    def test_ranks_get_distinct_streams(self):
        a = rank_rng(42, 0).random(10)
        b = rank_rng(42, 1).random(10)
        assert not np.array_equal(a, b)

    def test_seeds_get_distinct_streams(self):
        a = rank_rng(1, 0).random(10)
        b = rank_rng(2, 0).random(10)
        assert not np.array_equal(a, b)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            rank_rng(0, -1)


class TestTable:
    def test_render_aligns_columns(self):
        t = Table(["name", "value"])
        t.add_row(["x", 1.0])
        t.add_row(["longer-name", 123456.0])
        out = t.render()
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "longer-name" in lines[3]
        # header/separator/rows all present
        assert len(lines) == 4

    def test_float_formatting(self):
        t = Table(["v"], float_fmt=".2f")
        t.add_row([3.14159])
        assert "3.14" in t.render()
        assert "3.142" not in t.render()

    def test_wrong_width_rejected(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])
