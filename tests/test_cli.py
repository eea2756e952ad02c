"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import _parse_mesh, build_parser, main
from repro.util.errors import ReproError


class TestParseMesh:
    def test_2d(self):
        assert _parse_mesh("400x400") == (400, 400)

    def test_3d_uppercase(self):
        assert _parse_mesh("50X50X200") == (50, 50, 200)

    def test_rejects_1d(self):
        with pytest.raises(ReproError):
            _parse_mesh("400")

    def test_rejects_garbage(self):
        with pytest.raises(ReproError):
            _parse_mesh("4ax3")


class TestCommands:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "poisson2d" in out and "rtm" in out
        assert "2444" in out  # RTM Gdsp in the listing

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--id", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_explore(self, capsys):
        assert main(["explore", "poisson2d", "--mesh", "200x100", "--niter", "100"]) == 0
        out = capsys.readouterr().out
        assert "runtime" in out

    def test_explore_tiled(self, capsys):
        code = main(
            ["explore", "poisson2d", "--mesh", "15000x15000", "--niter", "60", "--tiled"]
        )
        assert code == 0
        assert "tile" in capsys.readouterr().out

    def test_explore_unknown_app(self, capsys):
        assert main(["explore", "navier"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_codegen(self, tmp_path, capsys):
        assert main(["codegen", "poisson2d", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "kernel.cpp").exists()

    def test_report(self, tmp_path, capsys):
        out_file = tmp_path / "EXP.md"
        assert main(["report", "--output", str(out_file)]) == 0
        assert out_file.exists()
        assert "Table II" in out_file.read_text()

    def test_bad_mesh_via_cli(self, capsys):
        assert main(["explore", "poisson2d", "--mesh", "bogus"]) == 2


class TestDseCommand:
    ARGS = ["dse", "jacobi3d", "--mesh", "64x64x64", "--niter", "100"]

    def test_annealing_run(self, capsys):
        assert main(self.ARGS + ["--strategy", "annealing", "--trials", "15"]) == 0
        out = capsys.readouterr().out
        assert "pareto front" in out
        assert "15 evaluated this run" in out
        # the same line says how the trials split and how fast they went
        (line,) = [l for l in out.splitlines() if l.startswith("trials:")]
        split = re.search(r"feasible (\d+), infeasible (\d+)(?: \((.*?)\))?;", line)
        feasible, infeasible = int(split[1]), int(split[2])
        assert feasible + infeasible == 15
        by_check = dict(part.split() for part in (split[3] or "").split(", ") if part)
        assert sum(map(int, by_check.values())) == infeasible
        assert set(by_check) <= {"capacity", "buffer", "dsp", "bandwidth", "tile", "batch"}
        assert re.search(r"; [\d.]+ s, \d+ configurations/s$", line)

    def test_every_strategy_runs(self, capsys):
        for strategy in ("exhaustive", "random", "greedy"):
            code = main(self.ARGS + ["--strategy", strategy, "--trials", "8"])
            assert code == 0, strategy

    def test_objectives_flag(self, capsys):
        code = main(
            self.ARGS
            + ["--trials", "10", "--objectives", "energy,runtime", "--top", "2"]
        )
        assert code == 0
        assert "primary objective 'energy'" in capsys.readouterr().out

    def test_unknown_strategy_errors(self, capsys):
        assert main(self.ARGS + ["--strategy", "bayesian"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_objective_errors(self, capsys):
        assert main(self.ARGS + ["--objectives", "speed"]) == 2

    def test_resume_requires_study(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--study" in capsys.readouterr().err

    def test_study_journal_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "study.jsonl")
        args = self.ARGS + ["--strategy", "exhaustive", "--study", journal]
        assert main(args + ["--trials", "10"]) == 0
        capsys.readouterr()
        assert main(args + ["--trials", "10", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "10 replayed from journal" in out
        # header + 10 trials from each run
        assert len((tmp_path / "study.jsonl").read_text().splitlines()) == 21

    def test_resume_refuses_mismatched_workload(self, tmp_path, capsys):
        journal = str(tmp_path / "study.jsonl")
        assert main(self.ARGS + ["--trials", "5", "--study", journal]) == 0
        capsys.readouterr()
        code = main(
            ["dse", "jacobi3d", "--mesh", "32x32x32", "--niter", "10",
             "--trials", "5", "--study", journal, "--resume"]
        )
        assert code == 2
        assert "different study" in capsys.readouterr().err


class TestWorkloadMixCLI:
    MIX = "jacobi3d:16x14x10:12x3,rtm:12x12x10:6x2,poisson2d:24x16:20x4@2"

    def test_dse_workloads_runs_without_app(self, capsys):
        assert main([
            "dse", "--workloads", self.MIX,
            "--strategy", "greedy", "--trials", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "mix jacobi3d:16x14x10:12x3" in out
        assert "pareto front" in out

    def test_dse_workloads_validate_mix(self, capsys):
        assert main([
            "dse", "--workloads", self.MIX,
            "--strategy", "greedy", "--trials", "20", "--validate-mix",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to the golden interpreter" in out
        assert "9 meshes" in out  # 3 + 2 + 4

    def test_dse_needs_app_or_workloads(self, capsys):
        assert main(["dse"]) == 2
        assert "APP" in capsys.readouterr().err

    def test_dse_rejects_bad_workload_spec(self, capsys):
        assert main(["dse", "--workloads", "jacobi3d:16x14x10"]) == 2
        assert "app:MESH:NITER" in capsys.readouterr().err

    def test_dse_workloads_journal_resume(self, tmp_path, capsys):
        journal = tmp_path / "mix.jsonl"
        args = [
            "dse", "--workloads", self.MIX, "--strategy", "greedy",
            "--trials", "12", "--study", str(journal),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "replayed from journal" in out

    def test_resume_refuses_different_mix(self, tmp_path, capsys):
        journal = tmp_path / "mix.jsonl"
        base = ["dse", "--strategy", "greedy", "--trials", "8",
                "--study", str(journal)]
        assert main(base + ["--workloads", self.MIX]) == 0
        capsys.readouterr()
        other = "jacobi3d:16x14x10:12x3"
        assert main(base + ["--workloads", other, "--resume"]) == 2
        assert "different study" in capsys.readouterr().err

    def test_dse_workloads_rejects_single_workload_flags(self, capsys):
        assert main([
            "dse", "jacobi3d", "--mesh", "400x400x10", "--niter", "50",
            "--workloads", "rtm:12x12x10:6",
        ]) == 2
        err = capsys.readouterr().err
        assert "drop APP, --mesh, --niter" in err

    @pytest.mark.parametrize("argv", [
        ["calibrate"],
        ["mix", "poisson2d:24x16:4", "--calibrate"],
        ["mix", "poisson2d:24x16:4", "--stacked-bytes-limit", "0"],
    ])
    def test_removed_budget_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mix", "poisson2d:24x16:4", "--fault-plan", "crash@0"],
        ["mix", "poisson2d:24x16:4", "--fail-fast"],
        ["serve", "poisson2d:24x16:4", "--fault-plan", "crash@0"],
        ["serve", "poisson2d:24x16:4", "--fail-fast"],
    ], ids=["mix-fault-plan", "mix-fail-fast", "serve-fault-plan", "serve-fail-fast"])
    def test_removed_recovery_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_validate_mix_requires_workloads(self, capsys):
        assert main([
            "dse", "jacobi3d", "--trials", "5", "--validate-mix",
        ]) == 2
        assert "--validate-mix needs --workloads" in capsys.readouterr().err


class TestServeCommand:
    MIX = "poisson2d:16x12:10,jacobi3d:10x10x6:8"

    def test_serve_bench_compiled(self, capsys):
        assert main([
            "serve", self.MIX, "--bench", "--engine", "compiled",
            "--clients", "2", "--requests", "2", "--batch-window", "0.002",
        ]) == 0
        out = capsys.readouterr().out
        assert "serve bench: 2 clients x 2 requests" in out
        assert "p50 ms" in out
        assert "health: state=running, breaker=closed" in out

    def test_serve_bench_validate_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "serve-events.jsonl"
        assert main([
            "serve", "poisson2d:14x12:8", "--bench", "--engine", "compiled",
            "--clients", "2", "--requests", "2", "--validate",
            "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "validated: every served mesh bit-identical" in out
        text = trace.read_text()
        assert "serve.job_admitted" in text
        assert "serve.job_completed" in text
        assert "serve.closed" in text

    def test_serve_breaker_cycle_under_flaky_chunks(self, flaky_chunks, capsys):
        flaky_chunks(1)
        assert main([
            "serve", "poisson2d:16x12:10x2", "--bench",
            "--engine", "parallel", "--max-workers", "2",
            "--clients", "1", "--requests", "3",
            "--failure-threshold", "1", "--reset-timeout", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 trips" in out
        assert "degraded dispatches" in out
        # every request still served through the serial fallback
        assert "failed 0" in out

    def test_serve_defaults_are_the_server_config_defaults(self):
        from dataclasses import fields

        from repro.serve import ServerConfig

        args = build_parser().parse_args(["serve", self.MIX])
        defaults = ServerConfig()
        exposed = [f.name for f in fields(ServerConfig) if hasattr(args, f.name)]
        assert set(exposed) == {
            "engine", "max_workers", "queue_depth", "admission",
            "batch_window", "failure_threshold", "reset_timeout",
            "validate", "seed",
        }
        for name in exposed:
            assert getattr(args, name) == getattr(defaults, name), name

    def test_serve_bench_on_defaults(self, capsys):
        assert main([
            "serve", self.MIX, "--bench", "--clients", "2", "--requests", "2",
            "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "(compiled engine, admission=reject)" in out
        assert "validated: every served mesh bit-identical" in out
        assert "failed 0" in out

    def test_serve_rejects_negative_batch_window(self, capsys):
        assert main(["serve", self.MIX, "--batch-window", "-0.001"]) == 2
        assert "batch_window" in capsys.readouterr().err

    def test_serve_rejects_bad_spec(self, capsys):
        assert main(["serve", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_serve_dumps_serve_counters(self, capsys):
        assert main([
            "metrics", "poisson2d:14x12:8", "--engine", "compiled", "--serve",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_admitted" in out
        assert "repro_serve_completed" in out
        assert "repro_serve_latency_seconds" in out
