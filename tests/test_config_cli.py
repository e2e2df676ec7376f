"""Tests for configuration validation, JSON round-trips, and the CLI."""

import json

import pytest

from subdiff_control.cli import main
from subdiff_control.config import (
    ProblemConfig,
    Tolerances,
    load_config,
    loads_config,
    save_config,
)
from subdiff_control.errors import ConfigError


def _cfg_dict(**overrides):
    base = {
        "alpha": 0.6,
        "T": 1.0,
        "n_modes": 3,
        "n_steps": 32,
        "y0": [1.0, 0.0, 0.0],
        "actuator": {"kind": "zone", "a": 0.2, "b": 0.5},
        "target_modes": [2, 3],
    }
    base.update(overrides)
    return base


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_cfg_dict(**overrides)), encoding="utf-8")
    return path


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 0.0),
            ("alpha", 1.0),
            ("alpha", -0.3),
            ("T", 0.0),
            ("T", -1.0),
            ("n_modes", 0),
            ("n_steps", 1),
        ],
    )
    def test_scalar_field_errors(self, field, value):
        with pytest.raises(ConfigError) as exc:
            ProblemConfig(**{**_cfg_dict(), "y0": (1.0, 0.0, 0.0),
                             "target_modes": (2, 3), field: value})
        assert exc.value.field == field

    def test_y0_length_and_finiteness(self):
        with pytest.raises(ConfigError) as exc:
            ProblemConfig(**{**_cfg_dict(), "y0": (1.0, 0.0)})
        assert exc.value.field == "y0"
        with pytest.raises(ConfigError):
            ProblemConfig(**{**_cfg_dict(), "y0": (1.0, float("nan"), 0.0)})

    def test_actuator_errors(self):
        for bad in (
            {"kind": "zone", "a": 0.5, "b": 0.5},
            {"kind": "zone", "a": 0.6, "b": 0.4},
            {"kind": "zone", "a": -0.1, "b": 0.4},
            {"kind": "pointwise", "b": 0.0},
            {"kind": "pointwise"},
            {"kind": "disc", "b": 0.5},
            {},
        ):
            with pytest.raises(ConfigError):
                ProblemConfig(**{**_cfg_dict(), "actuator": bad})

    def test_target_mode_errors(self):
        for bad in ((0, 2), (1, 4), (2, 2)):
            with pytest.raises(ConfigError) as exc:
                ProblemConfig(**{**_cfg_dict(), "target_modes": bad})
            assert exc.value.field == "target_modes"

    def test_tolerances_validation(self):
        with pytest.raises(ConfigError):
            Tolerances(gramian_rank=0.0)
        with pytest.raises(ConfigError):
            Tolerances(verify_distance=-1e-3)

    def test_unknown_tolerance_keys(self):
        # older files carry the unread "quadrature" tolerance: it is dropped
        cfg = loads_config(_cfg_dict(tolerances={"verify_distance": 2e-5, "quadrature": 1e-8}))
        assert cfg.tolerances == Tolerances(verify_distance=2e-5)
        assert "quadrature" not in cfg.to_dict()["tolerances"]
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(tolerances={"quadrature_tol": 1e-8}))
        assert exc.value.field == "tolerances"

    def test_loads_requires_fields(self):
        data = _cfg_dict()
        del data["alpha"]
        with pytest.raises(ConfigError) as exc:
            loads_config(data)
        assert exc.value.field == "alpha"
        with pytest.raises(ConfigError):
            loads_config([1, 2, 3])


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cfg = ProblemConfig(**_cfg_dict(), tolerances=Tolerances(verify_distance=2e-5))
        path = tmp_path / "roundtrip.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_defaults_applied(self):
        cfg = loads_config(_cfg_dict())
        assert cfg.tolerances == Tolerances()


class TestCliSynthesize:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["strategic"] is True
        assert report["within_tolerance"] is True
        assert report["solve_residual"] <= 1e-10
        control = (out / "control.csv").read_text().splitlines()
        assert control[0] == "t,u"
        assert len(control) == 34  # header + 33 nodes
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,coeff_1,coeff_2,coeff_3"

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append({
                f.name: f.read_bytes() for f in sorted(out.iterdir())
            })
        assert outs[0] == outs[1]

    def test_non_strategic_exit_code(self, tmp_path):
        cfg_path = _write_cfg(
            tmp_path,
            actuator={"kind": "pointwise", "b": 1.0 / 3.0},
            y0=[0.0, 0.0, 1.0],
            target_modes=[1, 2],
        )
        code = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = _write_cfg(tmp_path, alpha=2.0)
        assert main(["synthesize", "--config", str(cfg_path)]) == 1
        assert main(["synthesize", "--config", str(tmp_path / "missing.json")]) == 1


class TestCliVerify:
    def test_round_trip_with_synthesize(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["within_tolerance"] is True
        assert len(report["final_coefficients"]) == 3

    def test_verify_without_control_is_config_error(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    def test_verify_grid_mismatch(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        other = _write_cfg(tmp_path, name="other.json", n_steps=64)
        assert main(["verify", "--config", str(other), "--out", str(out)]) == 1


class TestCliSweep:
    def test_sweep_artifacts(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(cfg_path), "--out", str(out),
            "--eps", "1e-2,1e-4,1e-6",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,J_eps,rel_control_err,residual_norm"
        assert len(lines) == 4
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["monotone_J"] is True
        assert report["rel_control_err"][-1] < report["rel_control_err"][0]

    def test_bad_eps_lists(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = str(tmp_path / "o")
        for eps in ("abc", "", "1e-4,1e-2", "1e-2,-1"):
            assert main(["sweep", "--config", str(cfg_path), "--out", out, "--eps", eps]) == 1


class TestCliAnalyze:
    def test_analyze_strategic(self, tmp_path):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["strategic"] is True
        assert payload["eec"] is True
        assert payload["dead_modes"] == []
        assert payload["gramian_min_eigenvalue"] > 0.0

    def test_analyze_reports_dead_modes_without_failing(self, tmp_path):
        # analysis is diagnostic: it reports the dead mode but still exits 0
        cfg_path = _write_cfg(
            tmp_path,
            actuator={"kind": "pointwise", "b": 1.0 / 3.0},
            target_modes=[1, 2],
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["strategic"] is False
        assert payload["dead_modes"] == [3]
