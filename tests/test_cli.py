"""Tests for the command-line interface."""

import pytest

from repro.api import SoakConfig
from repro.cli import main
from repro.errors import ConfigError


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


class TestExample:
    def test_example_prints_all_artifacts(self, capsys):
        rc, out = run_cli(capsys, "example")
        assert rc == 0
        assert "Figure 3" in out
        assert "Figure 4" in out
        assert "Table 1" in out
        assert "33" in out  # makespan M
        assert "19" in out  # M*


class TestRun:
    def test_run_rtds(self, capsys):
        rc, out = run_cli(
            capsys, "run", "--algorithm", "rtds", "--sites", "8",
            "--duration", "80", "--seed", "2",
        )
        assert rc == 0
        assert "GR" in out

    def test_run_local(self, capsys):
        rc, out = run_cli(
            capsys, "run", "--algorithm", "local", "--sites", "6", "--duration", "60"
        )
        assert rc == 0


class TestCampaign:
    def test_campaign_table_and_comparison(self, capsys):
        rc, out = run_cli(
            capsys, "campaign", "--algorithms", "local,rtds", "--runs", "2",
            "--sites", "6", "--duration", "50",
        )
        assert rc == 0
        assert "campaign" in out
        assert "±" in out
        assert "local - rtds" in out  # paired comparison printed

    def test_campaign_store_and_resume(self, capsys, tmp_path):
        args = (
            "campaign", "--algorithms", "local", "--runs", "2", "--sites", "6",
            "--duration", "50", "--store", str(tmp_path), "--resume",
        )
        rc, _ = run_cli(capsys, *args)
        assert rc == 0
        store_file = tmp_path / "campaign.jsonl"
        lines = store_file.read_text().strip().splitlines()
        assert len(lines) == 2  # one record per (algorithm, seed) cell
        # resume: no cell re-executes, so no new records are appended
        rc, out = run_cli(capsys, *args)
        assert rc == 0
        assert store_file.read_text().strip().splitlines() == lines
        assert "±" in out  # table still printed from stored cells

    def test_campaign_parallel_jobs(self, capsys):
        rc, out = run_cli(
            capsys, "campaign", "--algorithms", "local", "--runs", "2",
            "--sites", "6", "--duration", "50", "--jobs", "2",
        )
        assert rc == 0
        assert "jobs=2" in out

    def test_campaign_failure_reports_cells(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.parallel as par

        def explode(config):
            raise RuntimeError("synthetic cell crash")

        monkeypatch.setattr(par, "run_experiment", explode)
        rc = main(
            [
                "campaign", "--algorithms", "local", "--runs", "1", "--sites", "6",
                "--duration", "50", "--store", str(tmp_path),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "failed cell" in err and "seed=0" in err
        assert "--resume" in err
        assert (tmp_path / "campaign.jsonl").exists()

    def test_sweep_faults_with_store(self, capsys, tmp_path):
        rc, out = run_cli(
            capsys, "sweep-faults", "--sites", "6", "--duration", "50",
            "--losses", "0.0", "--runs", "1", "--store", str(tmp_path), "--resume",
        )
        assert rc == 0
        assert "E7" in out
        assert (tmp_path / "sweep-faults.jsonl").exists()


class TestParserIntrospection:
    def test_build_parser_lists_all_subcommands(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert {
            "example", "run", "campaign", "sweep-faults", "sweep-load",
            "soak",
        } <= set(sub.choices)
        assert "chaos" not in sub.choices


class TestSurvivability:
    def test_soak_with_faults(self, capsys):
        rc, out = run_cli(
            capsys, "soak", "--sites", "8", "--target-jobs", "400",
            "--sample-every", "200", "--routing", "oracle",
            "--faults", "joins=1,join_links=2", "--fault-horizon", "800",
        )
        assert rc == 0
        assert "E12 soak" in out
        assert "leaked_unfinished  : 0" in out

    def test_chaos_smoke(self, capsys, tmp_path):
        metrics = tmp_path / "chaos.jsonl"
        rc, out = run_cli(
            capsys, "soak", "--sites", "10", "--rho", "0.5", "--routing", "oracle",
            "--degraded-floor", "0.2",
            "--faults", "sites=2,downtime=20,joins=1,join_links=2",
            "--target-jobs", "500", "--sample-every", "200",
            "--seed", "1", "--metrics", str(metrics),
        )
        assert rc == 0
        assert "E12 soak" in out and "faults sites=2" in out
        assert "joins_applied" in out
        assert "tables_converged" in out
        assert metrics.exists() and metrics.read_text().strip()


class TestSweeps:
    def test_sweep_load(self, capsys):
        rc, out = run_cli(
            capsys, "sweep-load", "--sites", "6", "--duration", "50",
            "--algorithms", "local", "--rhos", "0.4",
        )
        assert rc == 0
        assert "E1" in out

    def test_sweep_radius(self, capsys):
        rc, out = run_cli(
            capsys, "sweep-radius", "--sites", "6", "--duration", "40", "--radii", "1"
        )
        assert rc == 0
        assert "E3" in out


class TestErrorBoundary:
    """``main()`` is the one place CLI errors are turned into exit codes."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["run", "--faults", "joins=1"], "routing_mode='oracle'"),
            (["sweep-load", "--algorithms", "nope"], "unknown algorithm 'nope'"),
            (["run", "--faults", "bogus=1"], "bogus"),
            (["sweep-hetero", "--speeds", "warp:9"], "warp"),
            (["run", "--duration", "-5"], "duration must be > 0"),
            (["run", "--laxity", "0"], "laxity_factor must be > 0"),
            (["run", "--rho", "-1"], "rho must be >= 0"),
            (["run", "--sites", "1"], "--sites must be >= 2"),
            # one malformed or non-finite spec per arrival family
            (["soak", "--arrival", "poisson:-3"], "poisson rate must be > 0"),
            (["soak", "--arrival", "poisson:nan"], "poisson rate must be > 0"),
            (["soak", "--arrival", "mmpp:1,inf@5,5"], "mmpp rates must be finite"),
            (["soak", "--arrival", "mmpp:1,2"], "mmpp spec needs RATES@SOJOURNS"),
            (["soak", "--arrival", "diurnal:nan@24"], "need finite daily_volume"),
            (["soak", "--arrival", "diurnal:500@100@x"], "malformed arrival spec"),
            (["soak", "--arrival", "warp:9"], "unknown arrival process 'warp'"),
            # fault and deadline numbers must be finite
            (["run", "--faults", "sites=1,downtime=nan"], "mean_downtime must be > 0 and finite"),
            (["run", "--laxity", "inf"], "laxity_factor must be > 0 and finite"),
            # a size no topology can have is refused before any cell runs
            (["sweep-size", "--sizes", "1,8", "--duration", "20"], "at least 2 sites, got 1"),
        ],
    )
    def test_config_errors_exit_2_with_one_line(self, capsys, argv, needle):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("error: ") and needle in line
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["run", "profile", "trace", "campaign", "sweep-load"])
    def test_single_site_is_a_config_error_everywhere(self, capsys, command):
        """Every subcommand that builds its config from ``--sites`` refuses a
        one-site network up front: no traceback, no per-cell retry hint."""
        rc = main([command, "--sites", "1", "--duration", "20"])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("error: ") and "--sites must be >= 2" in line

    def test_chaos_refuses_a_bad_arrival_spec_by_name(self):
        """A faulted soak's arrival spec goes through the same check."""
        with pytest.raises(ConfigError, match="poisson rate must be > 0"):
            SoakConfig(
                arrival="poisson:nan", routing_mode="oracle", degraded_floor=0.2,
                faults="sites=2,downtime=20,joins=1,join_links=2",
            )

    def test_failing_cell_in_a_storeless_sweep_is_named(self, capsys, monkeypatch):
        import repro.experiments.parallel as par

        def explode(config):
            raise RuntimeError("synthetic cell crash")

        monkeypatch.setattr(par, "run_experiment", explode)
        rc = main(
            ["sweep-load", "--algorithms", "local", "--rhos", "0.4", "--sites", "6",
             "--duration", "50"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "failed cell" in err and "seed=0" in err
        assert "--store" not in err  # sweep-load has no store to point at


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
