"""Tests for configuration validation, JSON round-trips, and the CLI."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import subdiff_control
from subdiff_control import cli, rhum
from subdiff_control.cli import main
from subdiff_control.config import (
    MAX_TABLE_ENTRIES,
    ProblemConfig,
    Tolerances,
    load_config,
    loads_config,
    save_config,
)
from subdiff_control.errors import (
    ConfigError,
    EvaluationError,
    QuadratureError,
    SingularGramianError,
)
from subdiff_control.spectral import TimeGrid


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The README's example commands, grouped by output directory, each with its documented exit code.
README_EXAMPLES = {
    "zone": [(["synthesize", "--config", "zone.json"], 0), (["verify", "--config", "zone.json"], 0)],
    "pointwise": [
        (["analyze", "--config", "pointwise_reachable.json"], 0),
        (["synthesize", "--config", "pointwise_reachable.json"], 0),
    ],
    "dead_mode": [(["synthesize", "--config", "pointwise_dead_mode.json"], 2)],  # mode 3 is dead
    "sweep": [(["sweep", "--config", "sweep.json", "--eps", "1e-1,1e-3,1e-5"], 0)],
}


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


def _run_cli(command, cfg_path, out, timeout=60):
    """Run ``python -m subdiff_control`` in a fresh process, so a traceback reaches stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(subdiff_control.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "subdiff_control", command, "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


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
            ("n_modes", True),
            ("n_steps", 1),
            ("y0", ("x", 0, 0)),
            ("y0", (None, 0, 0)),
            ("target_modes", ("x",)),
            ("target_modes", (2.7,)),
            ("T", float("inf")),
        ],
    )
    def test_scalar_field_errors(self, field, value):
        with pytest.raises(ConfigError) as exc:
            ProblemConfig(**{**_cfg_dict(), "y0": (1.0, 0.0, 0.0),
                             "target_modes": (2, 3), field: value})
        assert exc.value.field == field

    def test_node_table_bound(self):
        one_mode = {**_cfg_dict(), "n_modes": 1, "y0": (1.0,), "target_modes": ()}
        ProblemConfig(**{**one_mode, "n_steps": MAX_TABLE_ENTRIES - 1})  # exactly at the bound
        with pytest.raises(ConfigError) as exc:
            ProblemConfig(**{**one_mode, "n_steps": MAX_TABLE_ENTRIES})
        assert exc.value.field == "n_steps"

    def test_y0_length_and_finiteness(self):
        with pytest.raises(ConfigError) as exc:
            ProblemConfig(**{**_cfg_dict(), "y0": (1.0, 0.0)})
        assert exc.value.field == "y0"
        with pytest.raises(ConfigError):
            ProblemConfig(**{**_cfg_dict(), "y0": (1.0, float("nan"), 0.0)})

    @pytest.mark.parametrize(
        "bad, message",
        [(True, "array of numbers"), ("1.0", "array of numbers"), (None, "array of numbers"),
         (float("nan"), "finite"), (float("inf"), "finite"), (10**400, "double range")],
    )
    def test_y0_bad_entry_last_in_long_list(self, bad, message):
        n = 20000
        with pytest.raises(ConfigError) as exc:
            ProblemConfig(**{**_cfg_dict(), "n_modes": n, "n_steps": 2, "y0": [0.5] * (n - 1) + [bad],
                             "target_modes": ()})
        assert exc.value.field == "y0"
        assert message in str(exc.value)

    def test_actuator_errors(self):
        for bad, field in (
            ({"kind": "zone", "a": 0.5, "b": 0.5}, "actuator"),
            ({"kind": "zone", "a": 0.6, "b": 0.4}, "actuator"),
            ({"kind": "zone", "a": -0.1, "b": 0.4}, "actuator"),
            ({"kind": "zone", "a": "0.2", "b": 0.5}, "actuator"),
            ({"kind": "zone", "a": False, "b": 0.5}, "actuator"),  # not a = 0
            ({"kind": "zone", "a": 0.2, "b": 0.5, "profile": "flat"}, "actuator"),
            ({"kind": "pointwise", "b": 0.0}, "actuator"),
            ({"kind": "pointwise", "b": "0.3"}, "actuator"),
            ({"kind": "pointwise", "b": True}, "actuator"),
            ({"kind": "pointwise", "a": 0.2, "b": 0.5}, "actuator"),
            ({"kind": "pointwise"}, "actuator"),
            ({"kind": "disc", "b": 0.5}, "actuator.kind"),
            ({"kind": ["zone"], "a": 0.2, "b": 0.5}, "actuator.kind"),
            ({}, "actuator.kind"),
        ):
            with pytest.raises(ConfigError) as exc:
                ProblemConfig(**{**_cfg_dict(), "actuator": bad})
            assert exc.value.field == field

    def test_target_mode_errors(self):
        for bad in ((0, 2), (1, 4), (2, 2), [True], "23", None):
            with pytest.raises(ConfigError) as exc:
                ProblemConfig(**{**_cfg_dict(), "target_modes": bad})
            assert exc.value.field == "target_modes"

    def test_unknown_fields_are_rejected(self):
        # a misspelt "tolerances" would otherwise load with the default 1e-4
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(tolerance={"verify_distance": 1e-9}))
        assert exc.value.field == "tolerance"
        assert "unknown field" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(actuator={"kind": "pointwise", "b": 0.3, "width": 0.1}))
        assert exc.value.field == "actuator"

    def test_tolerances_validation(self):
        with pytest.raises(ConfigError):
            Tolerances(verify_distance=-1e-3)
        # an infinite distance accepts every miss
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                Tolerances(verify_distance=bad)
        data = json.loads('{"tolerances": {"verify_distance": Infinity}}')
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(**data))
        assert exc.value.field == "tolerances.verify_distance"

    def test_unknown_tolerance_keys(self):
        # older files carry the unread "quadrature" tolerance: it is dropped
        cfg = loads_config(_cfg_dict(tolerances={"verify_distance": 2e-5, "quadrature": 1e-8}))
        assert cfg.tolerances == Tolerances(verify_distance=2e-5)
        assert "quadrature" not in cfg.to_dict()["tolerances"]
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(tolerances={"quadrature_tol": 1e-8}))
        assert exc.value.field == "tolerances"

    def test_config_file_with_gramian_rank_loads(self, tmp_path):
        # older files carry the retired "gramian_rank" tolerance: it is dropped
        path = _write_cfg(tmp_path, tolerances={"gramian_rank": 1e-10, "verify_distance": 2e-5})
        cfg = load_config(path)
        assert cfg.tolerances == Tolerances(verify_distance=2e-5)
        assert cfg.to_dict()["tolerances"] == {"verify_distance": 2e-5}

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

    def test_trajectory_keeps_every_16th_node_and_T_at_1000_steps(self, tmp_path):
        cfg_path = _write_cfg(tmp_path, n_steps=1000)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        u = cli._read_control_csv(out / "control.csv", TimeGrid(1.0, 1000))
        expected = rhum.verify_transfer(load_config(cfg_path), u).trajectory
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,coeff_1,coeff_2,coeff_3"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        keep = list(range(0, 1000, 16)) + [1000]  # t = 0, 16h, ..., 992h, T
        assert len(rows) == len(keep) == 64
        assert rows[:, 0].tobytes() == TimeGrid(1.0, 1000).nodes[keep].tobytes()
        assert rows[:, 1:].tobytes() == expected[keep].tobytes()

    @pytest.mark.parametrize("n_steps", [2, 33, 64])
    def test_trajectory_keeps_every_node_up_to_64_steps(self, tmp_path, n_steps):
        cfg_path = _write_cfg(tmp_path, n_steps=n_steps, target_modes=[3])
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        t = [float(row.split(",")[0]) for row in rows]
        assert np.array(t).tobytes() == TimeGrid(1.0, n_steps).nodes.tobytes()

    def test_control_csv_is_every_node_at_17_digits(self, tmp_path):
        cfg_path = _write_cfg(tmp_path, n_steps=1000)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        u = rhum.solve_rhum(load_config(cfg_path)).u_star
        rendered = "t,u\n" + "".join("%.17g,%.17g\n" % (t, v) for t, v in zip(TimeGrid(1.0, 1000).nodes, u))
        assert (out / "control.csv").read_bytes() == rendered.encode("utf-8")

    def test_csv_writer_streams_the_same_bytes(self, tmp_path, monkeypatch):
        rows = np.random.default_rng(4).normal(size=(50, 3))
        cli._write_csv(tmp_path / "whole.csv", ["a", "b", "c"], rows)
        monkeypatch.setattr(cli, "CSV_BLOCK_VALUES", 7)  # two rows a block
        cli._write_csv(tmp_path / "blocks.csv", ["a", "b", "c"], rows)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_csv_values_carry_17_significant_digits(self, tmp_path):
        path = tmp_path / "rows.csv"
        cli._write_csv(path, ["t", "u"], np.array([[0.1, -0.0], [1.0, 1.0 / 3.0]]))
        assert path.read_text(encoding="utf-8") == (
            "t,u\n0.10000000000000001,-0\n1,0.33333333333333331\n"
        )

    def test_reachability_is_decided_once(self, tmp_path, monkeypatch):
        # the report's eec and condition come from the synthesis's own solve
        calls, least_norm = [], rhum.Gramian.least_norm

        def counted(gram, c):
            calls.append(c)
            return least_norm(gram, c)

        monkeypatch.setattr(rhum.Gramian, "least_norm", counted)
        assert main(["synthesize", "--config", str(CONFIGS / "zone.json"), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        assert json.loads((tmp_path / "report.json").read_text())["eec"] is True

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        args = cli._parser().parse_args(["sweep", "--config", "c.json", "--eps", "1e-1"])
        assert (args.command, args.config, args.out, args.eps) == ("sweep", "c.json", ".", "1e-1")

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


class TestCliFailures:
    @staticmethod
    def _exit_cleanly(argv, capsys, code):
        assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err

    # 2 means "target unreachable"; argparse's own errors are usage errors
    @pytest.mark.parametrize("argv", [[], ["bogus"], ["synthesize"], ["sweep", "--config", "c"]])
    def test_usage_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["-h"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_config_is_a_directory(self, tmp_path, capsys):
        self._exit_cleanly(["synthesize", "--config", str(tmp_path)], capsys, 1)

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "not_utf8.json"
        path.write_bytes(json.dumps(_cfg_dict()).encode() + b" \xff")
        self._exit_cleanly(["analyze", "--config", str(path), "--out", str(tmp_path)], capsys, 1)

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path)
        argv = ["analyze", "--config", str(cfg_path), "--out", str(cfg_path)]
        self._exit_cleanly(argv, capsys, 1)

    def test_control_not_utf8(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path)
        (tmp_path / "control.csv").write_bytes(b"t,u\n0,\xff\n")
        self._exit_cleanly(["verify", "--config", str(cfg_path), "--out", str(tmp_path)], capsys, 1)

    # JSON reads a 400-digit number as an int, which float() refuses with OverflowError
    @pytest.mark.parametrize("field", ["alpha", "T", "y0"])
    def test_number_beyond_double_range_exits_1(self, tmp_path, field):
        huge = 10**400
        cfg_path = _write_cfg(tmp_path, **{field: [huge, 0.0, 0.0] if field == "y0" else huge})
        proc = _run_cli("analyze", cfg_path, tmp_path / "out")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert field in proc.stderr

    # the squares of a state near 1e180 overflow a double: the miss is still formed finite and warns of nothing
    @pytest.mark.parametrize("target_modes", [[], [2, 3]], ids=["no-target", "modes-2-3"])
    def test_huge_state_misses_by_a_finite_distance(self, tmp_path, target_modes):
        cfg_path = _write_cfg(tmp_path, alpha=0.5, n_steps=64, y0=[1e180, 0.0, 0.0], target_modes=target_modes)
        refused = _run_cli("synthesize", cfg_path, tmp_path / "out")
        assert refused.returncode == 3, refused.stderr
        miss = float(re.search(r"misses G by (\S+) >", refused.stderr).group(1))
        assert 1e100 < miss < math.inf
        analyzed = _run_cli("analyze", cfg_path, tmp_path / "out")
        assert analyzed.returncode == 0, analyzed.stderr
        for proc in (refused, analyzed):
            assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr

    # a node table that could not be allocated (7 TiB, or beyond numpy's size limit) is a config error
    @pytest.mark.parametrize("n_steps", [10**12, 10**400], ids=["1e12", "1e400"])
    def test_node_table_beyond_bound_exits_1(self, tmp_path, n_steps):
        cfg_path = _write_cfg(tmp_path, n_steps=n_steps)
        proc = _run_cli("analyze", cfg_path, tmp_path / "out")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "n_steps" in proc.stderr

    # a step T/n_steps below the smallest normal double zeroes the trapezoid weights; the field
    # named is T when even a 2-step grid is too fine, else n_steps
    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"T": 5e-324}, "T"),
            ({"T": 1e-320, "n_steps": 4096}, "T"),
            ({"T": 1e-303, "n_steps": 10**6, "n_modes": 1, "y0": [1.0], "target_modes": []}, "n_steps"),
        ],
        ids=["T5e-324", "T1e-320-n4096", "T1e-303-n1e6"],
    )
    def test_subnormal_step_exits_1(self, tmp_path, overrides, field):
        cfg_path = _write_cfg(tmp_path, **overrides)
        proc = _run_cli("synthesize", cfg_path, tmp_path / "out")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"configuration error: {field}:" in proc.stderr

    @pytest.mark.parametrize(
        "error,code",
        [
            (SingularGramianError("not positive definite"), 3),
            (EvaluationError("no branch certifies"), 4),
            (QuadratureError("non-finite entries"), 4),
        ],
    )
    def test_solver_failure_exit_codes(self, tmp_path, capsys, monkeypatch, error, code):
        def fail(config):
            raise error

        monkeypatch.setattr(cli, "solve_rhum", fail)
        cfg_path = _write_cfg(tmp_path)
        argv = ["synthesize", "--config", str(cfg_path), "--out", str(tmp_path)]
        self._exit_cleanly(argv, capsys, code)


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
        # same n_steps, another horizon: the file's t are not this grid's nodes
        longer = _write_cfg(tmp_path, name="longer.json", T=2.0)
        assert main(["verify", "--config", str(longer), "--out", str(out)]) == 1

    @pytest.mark.parametrize(
        "row", ["0.5,abc", "0.5", "{t},nan", "{t},inf", "{t},-inf", "{t},1.0,2.0", "0.5,1.0"]
    )
    def test_verify_malformed_control(self, tmp_path, capsys, row):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        control = out / "control.csv"
        written = control.read_text().splitlines()
        for index in (3, len(written) - 1):  # the file's line 4, and its last line
            lines = list(written)
            lines[index] = row.format(t=lines[index].split(",")[0])  # "{t}" keeps the row's own node
            control.write_text("\n".join(lines) + "\n")
            assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "<control>" in err
            assert f"line {index + 1} of" in err

    @pytest.mark.parametrize("first, later", [("0.5,1.0", "{t},abc"), ("{t},abc", "0.5,1.0")])
    def test_verify_names_the_first_bad_line(self, tmp_path, capsys, first, later):
        # a misplaced node and a row that is not two numbers: the earlier one is named
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        control = out / "control.csv"
        lines = control.read_text().splitlines()
        for index, row in ((5, first), (20, later)):
            lines[index] = row.format(t=lines[index].split(",")[0])
        control.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "line 6 of" in capsys.readouterr().err


    def test_verify_empty_control(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path)
        (tmp_path / "control.csv").write_text("")
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "has 0 samples" in capsys.readouterr().err

    def test_verify_control_needs_its_header(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        control = out / "control.csv"
        control.write_text(control.read_text().replace("t,u\n", "x,y\n", 1))
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "header 't,u'" in capsys.readouterr().err

    @staticmethod
    def _edited(text, edit):
        """A written 33-row control.csv with one edit, most of them to its lines 6 and 7."""
        lines = text.splitlines()
        row6, row7 = lines[5:7]
        t6, (t7, u7) = row6.split(",")[0], row7.split(",")

        def splice(*rows):
            return "\n".join(lines[:5] + list(rows) + lines[7:]) + "\n"

        return {
            "crlf": lambda: text.replace("\n", "\r\n"),
            "trailing-blank-lines": lambda: text + "\n\n\n",
            "leading-blank-line": lambda: "\n" + text,
            "blank-line-inside": lambda: splice(row6, "", row7),
            "blank-line-for-a-row": lambda: splice("", row7),
            "three-cell-row": lambda: splice(row6 + ",1.0", row7),
            # as many commas as rows, but not one on each
            "three-cells-then-one": lambda: splice(row6 + "," + t7, u7),
            "header-only": lambda: "t,u\n",
            # cells numpy does not read, although Python's float() does
            "underscore-digits": lambda: splice(t6 + ",1_5", row7),
            "arabic-indic-digit": lambda: splice(t6 + ",\u0661", row7),
        }[edit]()

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            ("crlf", 0, None),
            ("trailing-blank-lines", 0, None),
            ("leading-blank-line", 0, None),
            ("blank-line-inside", 1, "has 34 samples"),
            ("blank-line-for-a-row", 1, "line 6 of {path} is not 't,u': ''"),
            ("three-cell-row", 1, "line 6 of {path} is not 't,u': "),
            ("three-cells-then-one", 1, "line 6 of {path} is not 't,u': "),
            ("header-only", 1, "has 0 samples"),
            ("underscore-digits", 1, "line 6 of {path} is not 't,u': "),
            ("arabic-indic-digit", 1, "line 6 of {path} is not 't,u': "),
        ],
    )
    def test_verify_edge_inputs(self, tmp_path, capsys, edit, code, message):
        cfg_path = _write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        control = out / "control.csv"
        control.write_bytes(self._edited(control.read_text(encoding="utf-8"), edit).encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be printed to a user's stderr
            assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if message is None:
            assert err == ""
        else:
            assert err.startswith("configuration error: <control>: ")
            assert message.format(path=control) in err
            assert err.count("\n") == 1, err  # the one message line and nothing else

    def test_control_round_trips_bit_exactly(self, tmp_path):
        # every double the writer's %.17g prints, subnormal, -0.0 and the largest included,
        # reads back as the same bits
        grid = TimeGrid(1.0, 999)
        rng = np.random.default_rng(7)
        u = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, size=1000)
        u[:4] = (-0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308)
        path = tmp_path / "control.csv"
        cli._write_csv(path, ["t", "u"], np.column_stack([grid.nodes, u]))
        assert cli._read_control_csv(path, grid).tobytes() == u.tobytes()

    def test_parse_memory_is_bounded_by_the_file(self, tmp_path):
        # the rows are converted in one call, not held as a Python string per cell
        cfg_path = _write_cfg(tmp_path, n_steps=2**18)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        control, grid = out / "control.csv", TimeGrid(1.0, 2**18)
        tracemalloc.start()
        try:
            u = cli._read_control_csv(control, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.size == grid.nodes.size
        assert peak <= 5 * control.stat().st_size, peak / control.stat().st_size


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
        for eps in ("abc", "", "1e-4,1e-2", "1e-2,-1", "nan", "inf", "1e-2,nan"):
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

    # Pointwise actuator at 0.3147, G = span{e1, e3}: a positive definite
    # Gramian with condition ~6e8 (eigenvalues 1.2e-10 .. 7.4e-2).
    POINTWISE = dict(
        alpha=0.6, n_modes=5, n_steps=128,
        actuator={"kind": "pointwise", "b": 0.3147}, target_modes=[1, 3],
    )

    def test_eec_holds_on_ill_conditioned_definite_gramian(self, tmp_path):
        # synthesis steers this exactly (miss ~4e-12): c lies in the Gramian's range
        cfg_path = _write_cfg(tmp_path, y0=[0.0, 1.0, 0.0, 0.0, 0.0], **self.POINTWISE)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "analysis.json").read_text())["eec"] is True

    def test_report_condition_is_the_gramian_condition_when_nothing_to_steer(self, tmp_path):
        # y0 = e1 lies in G, so c = 0 and the control is zero; the reported
        # condition number is still the Gramian's
        cfg_path = _write_cfg(tmp_path, y0=[1.0, 0.0, 0.0, 0.0, 0.0], **self.POINTWISE)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        analysis = json.loads((out / "analysis.json").read_text())
        assert report["control_energy"] == 0.0
        assert report["gramian_condition"] == analysis["gramian_condition"] > 1e8

    @pytest.mark.filterwarnings("ignore:Gramian condition number")
    def test_eec_is_the_synthesis_verdict(self, tmp_path):
        # exact steering at alpha 0.3 on a rank-deficient Gramian: the least-norm
        # control misses G by ~3e-10, so synthesis exits 0 and eec holds
        cfg_path = _write_cfg(
            tmp_path, alpha=0.3, n_modes=5, n_steps=128, y0=[1.0, 0.5, 0.25, 0.125, 0.0625],
            target_modes=[],
        )
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["within_tolerance"] is True and report["eec"] is True
        assert json.loads((out / "analysis.json").read_text())["eec"] is True

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

    # alpha 0.99 with N=12: the node table needs E_{0.99,1}(z) for |z| up to ~1400,
    # where the scalar series costs seconds per value (it ran past 600 s once)
    PROBE = {
        "alpha": 0.99, "T": 1.0, "n_modes": 12, "n_steps": 256,
        "y0": [1.0] + [0.0] * 11,
        "actuator": {"kind": "zone", "a": 0.2, "b": 0.5},
        "target_modes": list(range(2, 13)),
    }

    def test_near_classical_probe_ends_in_seconds(self, tmp_path):
        cfg_path = tmp_path / "probe.json"
        cfg_path.write_text(json.dumps(self.PROBE), encoding="utf-8")
        proc = _run_cli("analyze", cfg_path, tmp_path / "out")
        assert proc.returncode in (0, 1, 2, 3, 4), proc.stderr  # the documented exit codes
        assert "Traceback" not in proc.stderr

    # 3 control samples against 6000 annihilator modes: the Gramian has 5997
    # zero eigenvalues, read from its 3 x 6000 factor's shape, not factored
    WIDE = {
        "alpha": 0.5, "T": 1.0, "n_modes": 6000, "n_steps": 2,
        "y0": [1.0] + [0.0] * 5999,
        "actuator": {"kind": "zone", "a": 0.2, "b": 0.5},
        "target_modes": [],
    }

    def test_many_modes_few_steps_analyze_in_bounded_time(self, tmp_path):
        cfg_path = tmp_path / "wide.json"
        cfg_path.write_text(json.dumps(self.WIDE), encoding="utf-8")
        proc = _run_cli("analyze", cfg_path, tmp_path / "out", timeout=30)
        assert proc.returncode == 0, proc.stderr
        analysis = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert analysis["gramian_min_eigenvalue"] == 0.0
        assert analysis["gramian_condition"] == math.inf

    def test_many_modes_few_steps_refuse_in_bounded_time(self, tmp_path):
        cfg_path = tmp_path / "wide.json"
        pointwise = dict(self.WIDE, actuator={"kind": "pointwise", "b": 0.3819660112501051})
        cfg_path.write_text(json.dumps(pointwise), encoding="utf-8")
        proc = _run_cli("synthesize", cfg_path, tmp_path / "out", timeout=30)
        assert proc.returncode == 3, proc.stderr
        assert "cannot meet" in proc.stderr and "Traceback" not in proc.stderr


class TestTypedErrorPaths:
    def test_alpha_given_as_string(self):
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(alpha="0.5"))
        assert exc.value.field == "alpha"

    def test_actuator_given_as_list(self):
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(actuator=["zone", 0.2, 0.5]))
        assert exc.value.field == "actuator"

    def test_tolerances_given_as_dict_to_problem_config(self):
        with pytest.raises(ConfigError) as exc:
            ProblemConfig(**_cfg_dict(tolerances={"gramian_rank": 1e-10}))
        assert exc.value.field == "tolerances"

    def test_tolerances_given_as_a_number(self):
        with pytest.raises(ConfigError) as exc:
            loads_config(_cfg_dict(tolerances=3))
        assert exc.value.field == "tolerances"

    def test_empty_annihilator(self, tmp_path):
        # G is the whole space: nothing to steer.  Pinned as it stands: a
        # condition of 1.0 and a min eigenvalue of 0.0 for the empty Gramian,
        # eec true, and a zero control.
        cfg_path = _write_cfg(tmp_path, target_modes=[1, 2, 3])
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["gramian_condition"] == 1.0
        assert analysis["gramian_min_eigenvalue"] == 0.0
        assert analysis["eec"] is True
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = (out / "control.csv").read_text().splitlines()[1:]
        assert len(rows) == 33 and all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_no_exported_name_is_another_ones_alias():
    public = {name: obj for name, obj in vars(subdiff_control).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    names_of = {}
    for name, obj in public.items():
        names_of.setdefault(id(obj), []).append(name)
    assert [names for names in names_of.values() if len(names) > 1] == []


@pytest.mark.parametrize("example", list(README_EXAMPLES))
def test_readme_examples_exit_as_documented(tmp_path, example):
    for argv, code in README_EXAMPLES[example]:
        argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
        assert main([*argv, "--out", str(tmp_path)]) == code, argv
    for name in ("report.json", "verify_report.json"):
        if (tmp_path / name).exists():
            assert json.loads((tmp_path / name).read_text())["within_tolerance"] is True
