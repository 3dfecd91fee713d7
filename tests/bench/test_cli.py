"""Tests for the experiment driver (``python -m repro.bench``)."""

import types

import pytest

from repro.bench import experiments
from repro.bench.__main__ import main
from repro.bench.runner import ExperimentResult


class TestCli:
    def test_listing(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E17" in out and "A4" in out

    def test_unknown_experiment(self, capsys):
        assert main(["E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_among_several_ids_runs_nothing(self, capsys):
        assert main(["E9", "E99", "A7", "--quick"]) == 2
        captured = capsys.readouterr()
        assert "E99, A7" in captured.err
        assert captured.out == ""

    def test_jobs_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["E9", "--quick", "--jobs", "0"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and "--jobs must be >= 1" in captured.err
        assert captured.out == ""

    def test_run_quick(self, capsys):
        assert main(["E9", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "quadrants" in out
        assert "wall time" in out

    def test_ids_run_in_registry_order(self, capsys):
        assert main(["E9", "E6b", "--quick", "--omit-timings"]) == 0
        out = capsys.readouterr().out
        assert out.index("=== E6b") < out.index("=== E9")
        assert "wall time" not in out
        assert out.endswith("summary\n-------\nE6b   ok    \nE9    ok    \n")

    def test_jobs_output_equals_sequential(self, capsys):
        argv = ["E1", "E3", "--quick", "--omit-timings"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_failing_check_is_reported_and_sweep_continues(
        self, capsys, monkeypatch
    ):
        def run(size=2):
            result = ExperimentResult("X1 stub", "a claim that does not hold")
            result.new_table("stub", ["n"]).add(n=size)
            return result

        def check(result, params):
            assert result.table("stub").rows[0]["n"] > params["size"]

        stub = types.SimpleNamespace(
            run=run, check=check, DEFAULTS=dict(size=2), QUICK=dict(size=1),
        )
        real_get = experiments.get
        monkeypatch.setattr(experiments, "all_ids", lambda: ["X1", "E9"])
        monkeypatch.setattr(
            experiments, "get",
            lambda experiment_id: (
                stub if experiment_id == "X1" else real_get(experiment_id)
            ),
        )
        assert main(["all", "--quick", "--omit-timings"]) == 1
        captured = capsys.readouterr()
        out = captured.out
        # the failing experiment's table is still rendered, the
        # traceback lands in place, and the sweep carries on to E9
        assert out.index("=== X1 stub") < out.index("!!! X1 FAILED")
        assert out.index("AssertionError") < out.index("=== E9")
        assert out.endswith("X1    FAILED\nE9    ok    \n")
        assert "1 experiment(s) failed: X1" in captured.err
