"""Tests for the command-line interface."""

import inspect

import pytest

from repro import cli
from repro.cli import main
from repro.experiments import ExperimentResult, available_experiments, get_experiment


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure4" in output and "table1" in output

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "V100" in output

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_single_architecture(self, capsys):
        assert main(["run", "figure5", "--arch", "P100"]) == 0
        output = capsys.readouterr().out
        assert "P100" in output
        # Only the requested GPU appears as a data row (the paper-reference
        # note still mentions the others).
        assert not any(line.startswith("1080Ti") for line in output.splitlines())

    def test_search_toy_workload(self, capsys):
        assert main(["search", "toy", "--population", "8", "--generations", "4",
                     "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "best speedup" in output

    def test_traced_search_pins_the_hotspot_rows(self, capsys, tmp_path):
        """The hotspot table comes from one oracle evaluation of the
        original toy kernel."""
        trace_dir = str(tmp_path / "trace")
        assert main(["search", "toy", "--population", "4", "--generations", "2",
                     "--seed", "1", "--trace", trace_dir]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", trace_dir]) == 0
        output = capsys.readouterr().out
        heading = "hotspots (top instructions by attributed cycles):\n"
        assert output.split(heading, 1)[1].splitlines() == [
            "  saxpy_wasteful.cu:6  load  600 cycles (8 executions)",
            "  saxpy_wasteful.cu:6  load  600 cycles (8 executions)",
            "  saxpy_wasteful.cu:6  load  600 cycles (8 executions)",
            "  saxpy_wasteful.cu:6  store  320 cycles (8 executions)",
            "  saxpy_wasteful.cu:6  syncthreads  144 cycles (8 executions)",
            "  saxpy_wasteful.cu:3  condbr  48 cycles (8 executions)",
            "  saxpy_wasteful.cu:6  br  48 cycles (8 executions)",
            "  saxpy_wasteful.cu:6  ret  48 cycles (8 executions)",
            "  saxpy_wasteful.cu:3  tid.x  32 cycles (8 executions)",
            "  saxpy_wasteful.cu:3  bid.x  32 cycles (8 executions)",
        ]

    def test_search_with_sqlite_cache_backend(self, capsys, tmp_path):
        cache = str(tmp_path / "fitness.json")  # any extension: always SQLite
        assert main(["search", "toy", "--population", "6", "--generations", "2",
                     "--cache", cache]) == 0
        with open(cache, "rb") as handle:
            assert handle.read(16) == b"SQLite format 3\x00"

    @pytest.mark.parametrize("command", [
        ["search", "toy"],
        ["sweep", "--arch", "P100", "--workload", "toy"],
    ])
    def test_cache_directory_is_a_clean_error(self, command, capsys, tmp_path):
        directory = tmp_path / "cache-dir"
        directory.mkdir()
        (directory / "keep.txt").write_text("data")
        argv = command + ["--cache", str(directory), "--population", "4",
                          "--generations", "1"]
        if command[0] == "sweep":
            argv += ["--sweep-dir", str(tmp_path / "sweep")]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert str(directory) in error and "is a directory" in error
        # Refused before opening: nothing was set aside or written into it.
        assert not (tmp_path / "cache-dir.corrupt").exists()
        assert [p.name for p in directory.iterdir()] == ["keep.txt"]
        assert (directory / "keep.txt").read_text() == "data"

    @pytest.mark.parametrize("flag", [
        ["--executor", "async"], ["--cache-backend", "json"],
        ["--cache-shards", "4"], ["--reference-interpreter"],
    ])
    def test_removed_runtime_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "toy", "--population", "4", "--generations", "1"]
                 + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestInterpreterTierFlags:
    def test_search_accepts_each_tier(self, capsys):
        for tier in ("jit", "oracle"):
            assert main(["search", "toy", "--population", "4",
                         "--generations", "1", "--seed", "3",
                         "--interpreter-tier", tier]) == 0
            assert "best speedup" in capsys.readouterr().out

    def test_removed_dispatch_tier_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "toy", "--population", "4", "--generations", "1",
                  "--interpreter-tier", "dispatch"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "--interpreter-tier" in error and "invalid choice" in error

    @pytest.mark.parametrize("tier", ["oracle"])
    @pytest.mark.parametrize("command", [
        ["search", "toy"],
        ["baseline", "random", "toy"],
        ["sweep", "--arch", "P100", "--workload", "toy"],
    ])
    def test_contradictory_tier_flags_are_rejected(self, command, tier,
                                                   capsys, tmp_path):
        argv = command + ["--batch-launches", "--interpreter-tier", tier]
        if command[0] == "sweep":
            argv += ["--sweep-dir", str(tmp_path / "sweep")]
        else:
            argv += ["--population", "4", "--generations", "1"]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert "--batch-launches" in error and f"--interpreter-tier {tier}" in error
        assert "drop one of the two flags" in error

    def test_tier_results_are_bit_identical(self, capsys):
        outputs = []
        for tier in ("jit", "oracle"):
            assert main(["search", "toy", "--population", "6",
                         "--generations", "2", "--seed", "7",
                         "--interpreter-tier", tier]) == 0
            output = capsys.readouterr().out
            outputs.append(next(line for line in output.splitlines()
                                if line.startswith("best speedup")))
        assert outputs[0] == outputs[1]


class TestBaselineCli:
    def test_random_baseline_runs(self, capsys):
        assert main(["baseline", "random", "toy", "--population", "6",
                     "--generations", "2", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "random search" in output and "best speedup" in output

    def test_hill_baseline_runs_with_steps(self, capsys):
        assert main(["baseline", "hill", "toy", "--steps", "12", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "hill climbing" in output and "accepted" in output

    def test_steps_is_refused_for_random_search(self, capsys):
        assert main(["baseline", "random", "toy", "--population", "4",
                     "--generations", "2", "--seed", "1", "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert "--steps applies to the hill climber only" in captured.err
        assert "budget=" not in captured.out

    def test_negative_steps_is_a_clean_error(self, capsys):
        assert main(["baseline", "hill", "toy", "--steps", "-3", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert "steps must be a non-negative count, not -3" in captured.err
        assert "budget=" not in captured.out

    def test_random_baseline_resumes_with_zero_reevaluations(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        cache = str(tmp_path / "fitness.sqlite")
        argv = ["baseline", "random", "toy", "--population", "6", "--generations", "2",
                "--seed", "3", "--cache", cache, "--resume", checkpoint]
        assert main(argv) == 0
        capsys.readouterr()
        # The first run completed, so the re-issued command resumes from the
        # final checkpoint and re-simulates nothing.
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "resuming from" in output
        assert "0 evaluations" in output

    def test_hill_baseline_resume_round_trip(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        argv = ["baseline", "hill", "toy", "--steps", "10", "--seed", "3",
                "--resume", checkpoint]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "resuming from" in output
        assert "0 evaluations" in output

    def test_resumed_hill_climb_prints_its_recorded_budget(self, capsys, tmp_path):
        resume = ["--seed", "2", "--resume", str(tmp_path / "ckpt.json")]
        assert main(["baseline", "hill", "toy", "--steps", "20", *resume]) == 0
        capsys.readouterr()
        # Without --steps the climb keeps its recorded budget of 20 steps,
        # and the opening line says so, not population x generations.
        assert main(["baseline", "hill", "toy", *resume]) == 0
        output = capsys.readouterr().out
        assert "hill climbing on toy saxpy on P100: budget=20, executor=serial" in output
        assert "0 accepted / 20 rejected, 20 evaluations" in output

    def test_jobs_flag_selects_the_process_pool(self, capsys):
        assert main(["baseline", "random", "toy", "--population", "6",
                     "--generations", "2", "--seed", "3", "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "executor=parallel" in output and "best speedup" in output

    @pytest.mark.parametrize("command, named", [
        (["hill", "toy", "--seed", "3"], "'random_search' search, not 'hill_climber'"),
        (["random", "toy", "--seed", "3", "--arch", "V100"],
         "architecture 'P100', not 'V100'"),
        (["random", "toy", "--seed", "4"], "seed: checkpoint has 3, requested 4"),
    ], ids=["algorithm", "arch", "seed"])
    def test_mismatched_resume_is_a_clean_error(self, command, named, capsys,
                                                tmp_path):
        resume = ["--population", "6", "--generations", "2",
                  "--resume", str(tmp_path / "ckpt.json")]
        assert main(["baseline", "random", "toy", "--seed", "3", *resume]) == 0
        capsys.readouterr()
        # Same checkpoint, one setting changed: refused, not mangled.
        assert main(["baseline", *command, *resume]) == 2
        assert named in capsys.readouterr().err


class TestRunArch:
    @pytest.mark.parametrize("name", available_experiments())
    def test_arch_follows_the_experiments_signature(self, name, monkeypatch, capsys):
        signature = inspect.signature(get_experiment(name))
        calls = []

        def stand_in(**kwargs):
            calls.append(kwargs)
            return ExperimentResult(name, "stand-in")

        stand_in.__signature__ = signature
        monkeypatch.setattr(cli, "get_experiment", lambda identifier: stand_in)
        assert main(["run", name, "--arch", "V100"]) == 0
        (kwargs,) = calls
        signature.bind(**kwargs)  # the registered function accepts them
        if "architectures" in signature.parameters:
            assert kwargs == {"architectures": ["V100"]}
        elif "arch_name" in signature.parameters:
            assert kwargs == {"arch_name": "V100"}
        else:
            assert kwargs == {}


class TestSweepCli:
    ARGS = ["sweep", "--arch", "P100,V100", "--workload", "toy",
            "--seeds", "0,1", "--population", "4", "--generations", "2",
            "--jobs", "2"]

    def test_sweep_produces_one_aggregated_report(self, capsys, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        assert main(self.ARGS + ["--sweep-dir", sweep_dir]) == 0
        output = capsys.readouterr().out
        assert "4 legs" in output
        assert "report:" in output
        import json
        with open(f"{sweep_dir}/report.json") as handle:
            assert len(json.load(handle)["legs"]) == 4
        assert "workload,arch,seed" in open(f"{sweep_dir}/report.csv").read()

    def test_sweep_resume_skips_finished_legs(self, capsys, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        assert main(self.ARGS + ["--sweep-dir", sweep_dir]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--sweep-dir", sweep_dir, "--resume"]) == 0
        output = capsys.readouterr().out
        assert "4 skipped" in output
        assert "0 fresh evaluations" in output

    def test_sweep_workload_alias_and_runs_default(self, capsys, tmp_path):
        # "adept" resolves to "adept-v1" end-to-end; --runs N yields
        # seeds 0..N-1.  One ADEPT generation keeps this cheap (~0.2s).
        sweep_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--arch", "p100", "--workload", "adept",
                     "--runs", "1", "--population", "4", "--generations", "1",
                     "--sweep-dir", sweep_dir]) == 0
        output = capsys.readouterr().out
        assert "1 legs" in output
        assert "gevo-adept-v1-P100-seed0" in output

    def test_sweep_unknown_arch_is_a_clean_error(self, capsys, tmp_path):
        assert main(["sweep", "--arch", "K80", "--workload", "toy",
                     "--sweep-dir", str(tmp_path / "s")]) == 2
        assert "unknown GPU architecture" in capsys.readouterr().err

    def test_sweep_bad_seeds_is_a_clean_error(self, capsys, tmp_path):
        assert main(["sweep", "--arch", "P100", "--workload", "toy",
                     "--seeds", "0,x", "--sweep-dir", str(tmp_path / "s")]) == 2
        assert "--seeds expects" in capsys.readouterr().err

    def test_sweep_resume_with_changed_budget_is_a_clean_error(self, capsys, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        base = ["sweep", "--arch", "P100", "--workload", "toy", "--seeds", "0",
                "--generations", "1", "--population", "4", "--sweep-dir", sweep_dir]
        assert main(base) == 0
        capsys.readouterr()
        # Re-running with --resume under a bigger budget must refuse, not
        # silently republish the small run's results.
        assert main(["sweep", "--arch", "P100", "--workload", "toy",
                     "--seeds", "0", "--generations", "6", "--population", "8",
                     "--sweep-dir", sweep_dir, "--resume"]) == 2
        assert "re-run with the original budget" in capsys.readouterr().err
