"""The repro-trace command line tool."""

import json

import pytest

from repro.profiling.cli import main


class TestReproTrace:
    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["examples/pragmas/ring.c", "--pattern", "ring"])

    def test_metrics_is_default_action(self, capsys):
        assert main(["examples/pragmas/slow/early_sync.c"]) == 0
        out = capsys.readouterr().out
        assert "realized overlap" in out
        assert "forfeited overlap" in out

    def test_critical_path_reports_forfeited_overlap(self, capsys):
        assert main(["examples/pragmas/slow/early_sync.c",
                     "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        # The acceptance figure: measured forfeited overlap on
        # early_sync.c is 15us — the advisor's CI101 saving.
        assert "forfeited overlap         15.000 us" in out

    def test_pattern_mode_all_targets(self, capsys):
        for target in ("mpi2s", "mpi1s", "shmem"):
            assert main(["--pattern", "ring", "--target", target]) == 0
            assert "makespan" in capsys.readouterr().out

    def test_export_chrome(self, tmp_path, capsys):
        out_file = tmp_path / "ring.json"
        assert main(["--pattern", "ring",
                     "--export-chrome", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        assert "wrote" in capsys.readouterr().out

    def test_var_binding(self, capsys):
        assert main(["examples/pragmas/halo1d.c", "--var", "n=64"]) == 0
        for bad in ("bogus", "n=x"):
            with pytest.raises(SystemExit) as info:
                main(["examples/pragmas/ring.c", "--var", bad])
            assert info.value.code == 2
            assert "argument --var" in capsys.readouterr().err

    def test_app_mode(self, capsys):
        assert main(["--app", "wllsms", "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "barrier" in out or "compute" in out
