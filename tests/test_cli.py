"""Tests for config parsing, the scenario runner, and the CLI entry point."""

import json

import numpy as np
import pytest

from qfisher.cli import main
from qfisher.config import Scenario, parse_config, parse_config_text
from qfisher.errors import ConfigError
from qfisher.scenarios import _RUNNERS, run_scenario


MINIMAL_CONTROLLED = """
# minimal controlled sweep
scenario = ControlledQFI
B = 1
T = 1,2
omega = 1
steps = 2000
"""


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config_text(MINIMAL_CONTROLLED)
        assert cfg.scenario is Scenario.CONTROLLED_QFI
        assert cfg["B"] == [1.0]
        assert cfg["T"] == [1.0, 2.0]
        assert cfg["delta_omega"] == 0.0  # default

    def test_steps_below_minimum_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text("scenario = ControlledQFI\nB=1\nT=1\nsteps = 5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("scenario = ControlledQFI\nB=1\nB=2\nT=1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("scenario = ControlledQFI\nB=1\nT=1\nbogus=3\n")

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config_text("scenario = ControlledQFI\nB=1\n")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config_text("scenario = Bogus\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("scenario = ControlledQFI\nB=1\nT=abc\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_bad_format_value(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config_text("scenario = ControlledQFI\nB=1\nT=1\nformat=xml\n")


class TestScenarios:
    def test_every_scenario_has_a_runner(self):
        assert set(_RUNNERS) == set(Scenario)

    def test_controlled_qfi_b2t4_column(self, tmp_path):
        text = "scenario = ControlledQFI\nB = 1\nT = 1,2,4,8\nomega = 1\ndelta_omega = 0\n"
        result = run_scenario(parse_config_text(text), out_dir=tmp_path)
        got = [row["optimal_qfi"] for row in result["rows"]]
        np.testing.assert_allclose(got, [1.0, 16.0, 256.0, 4096.0], rtol=1e-4)

    def test_no_control_ratio_window(self, tmp_path):
        text = "scenario = NoControlSweep\nB = 1\nomega = 1\nT = 50\nsteps = 20000\n"
        result = run_scenario(parse_config_text(text), out_dir=tmp_path)
        ratio = result["rows"][0]["ratio"]
        assert 0.95 <= ratio <= 1.05

    def test_deterministic_csv_bodies(self, tmp_path):
        cfg = parse_config_text(
            "scenario = AdaptiveRun\nB=1\nomega=1\nomega_c0=1.03\nT=2\n"
            "rounds=2\nshots=2000\nseed=5\nsteps=1000\n"
        )
        first = run_scenario(cfg, out_dir=tmp_path / "a")
        second = run_scenario(cfg, out_dir=tmp_path / "b")
        assert first["text"] == second["text"]
        assert (tmp_path / "a" / "adaptiverun.csv").read_bytes() == (
            tmp_path / "b" / "adaptiverun.csv"
        ).read_bytes()

    def test_sidecar_contents(self, tmp_path):
        cfg = parse_config_text(MINIMAL_CONTROLLED)
        result = run_scenario(cfg, out_dir=tmp_path)
        sidecar = json.loads(result["sidecar_path"].read_text())
        assert sidecar["scenario"] == "ControlledQFI"
        assert sidecar["config"]["B"] == [1.0]
        assert "wall_time_s" in sidecar and "version" in sidecar

    def test_adaptive_trace_in_sidecar(self, tmp_path):
        cfg = parse_config_text(
            "scenario = AdaptiveRun\nB=1\nomega=1\nomega_c0=1.03\nT=2\n"
            "rounds=2\nshots=1000\nseed=9\nsteps=1000\n"
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        sidecar = json.loads(result["sidecar_path"].read_text())
        assert sidecar["trace"]["seed"] == 9
        assert len(sidecar["trace"]["rounds"]) == 2

    def test_json_format(self, tmp_path):
        cfg = parse_config_text(MINIMAL_CONTROLLED)
        result = run_scenario(cfg, out_dir=tmp_path, fmt="json")
        rows = json.loads(result["table_path"].read_text())
        assert len(rows) == 2 and "optimal_qfi" in rows[0]

    def test_seed_override(self, tmp_path):
        cfg = parse_config_text(
            "scenario = AdaptiveRun\nB=1\nomega=1\nomega_c0=1.03\nT=2\n"
            "rounds=1\nshots=1000\nseed=5\nsteps=1000\n"
        )
        result = run_scenario(cfg, out_dir=tmp_path, seed_override=77)
        sidecar = json.loads(result["sidecar_path"].read_text())
        assert sidecar["seed"] == 77

    def test_expansion_fit_scenario(self, tmp_path):
        cfg = parse_config_text(
            "scenario = ExpansionFit\nB=1\nomega=1\nT=2\n"
            "delta_grid=-0.005,-0.003,-0.001,0.001,0.003,0.005\nsteps=2000\n"
        )
        result = run_scenario(cfg, out_dir=tmp_path)
        by_key = {(r["component"], r["order"]): r for r in result["rows"]}
        z0 = by_key[("z", 0)]
        assert abs(z0["coefficient"] / z0["closed_form"] - 1.0) <= 0.01
        x1 = by_key[("x", 1)]
        assert abs(x1["coefficient"] / x1["closed_form"] - 1.0) <= 0.01


class TestScenarioBudget:
    SCENARIO_TEXTS = {
        "UpperBoundSweep": "scenario = UpperBoundSweep\nB=0.5,1,2\nT=1,2,4,8\n",
        "NoControlSweep": "scenario = NoControlSweep\nB=1\nomega=1\nT=12.5,25,50\n",
        "ControlledQFI": "scenario = ControlledQFI\nB=1\nT=1,2,4,8\nomega=1\n",
        "ExpansionFit": (
            "scenario = ExpansionFit\nB=1\nomega=1\nT=2\n"
            "delta_grid=-0.005,-0.003,-0.001,0.001,0.003,0.005\n"
        ),
        "FrameInvariance": "scenario = FrameInvariance\nB=1\nomega_c=1\ndelta_omega=0.01\n",
        "AdaptiveRun": (
            "scenario = AdaptiveRun\nB=1\nomega=1\nomega_c0=1.05\nT=2\n"
            "rounds=5\nshots=10000\nseed=3\n"
        ),
        "AppendixADemo": "scenario = AppendixADemo\nB=1\nomega=1\ndelta_omega=0.1\n",
    }

    @pytest.mark.parametrize("name", sorted(SCENARIO_TEXTS))
    def test_default_grid_completes_in_budget(self, name, tmp_path):
        import time

        started = time.time()
        result = run_scenario(parse_config_text(self.SCENARIO_TEXTS[name]), out_dir=tmp_path)
        elapsed = time.time() - started
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s at default grids"
        assert result["table_path"].exists()
        assert result["rows"]


class TestCliEntryPoint:
    def test_run_ok(self, tmp_path, capsys):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(MINIMAL_CONTROLLED)
        code = main(["run", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "controlledqfi.csv").exists()
        assert (tmp_path / "controlledqfi.meta.json").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2

    def test_invalid_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("scenario = ControlledQFI\nB=1\nT=1\nsteps=3\n")
        assert main(["run", str(cfg_path)]) == 2

    def test_numeric_error_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "amb.cfg"
        cfg_path.write_text(
            "scenario = AdaptiveRun\nB=1\nomega=1\nomega_c0=2\nT=2\n"
            "rounds=1\nshots=100\nsteps=1000\n"
        )
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "AmbiguousPhase" in err

    def test_out_flag_overrides_config_out(self, tmp_path):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(MINIMAL_CONTROLLED + f"out = {tmp_path / 'from_config'}\n")
        flag_dir = tmp_path / "from_flag"
        assert main(["run", str(cfg_path), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "controlledqfi.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_config_out_used_without_flag(self, tmp_path):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(MINIMAL_CONTROLLED + f"out = {tmp_path / 'from_config'}\n")
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "from_config" / "controlledqfi.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = UpperBoundSweep\nB=1\nT=-1\n",
            "scenario = ExpansionFit\nB=1\nomega=1\nT=2\n"
            "delta_grid=-0.2,-0.1,0,0.1,0.2\n",
        ],
        ids=["negative-duration", "mismatch-out-of-range"],
    )
    def test_invalid_scenario_arguments_exit_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_format_flag(self, tmp_path):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(MINIMAL_CONTROLLED)
        assert main(["run", str(cfg_path), "--out", str(tmp_path), "--format", "json"]) == 0
        assert (tmp_path / "controlledqfi.json").exists()
