"""Command-line drivers: synthesize / verify / sweep / analyze.

All commands read a JSON problem configuration and write deterministic
artifacts (CSV with 17-significant-digit floats, JSON with sorted keys) into
the output directory.  Failure paths map to distinct exit codes:

    1  configuration / usage error, an unreadable config or an unusable --out
    2  target unreachable: a dead mode the annihilator needs (synthesis and sweep)
    3  no control reaches G within verify_distance at this grid (the message gives
       the Gramian's numerical rank); so ``synthesize`` exiting 0 means within_tolerance
       and ``eec``, which is true exactly when neither 2 nor 3 applies
    4  quadrature or special-function evaluation failure
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .actuators import is_strategic
from .config import ProblemConfig, load_config
from .errors import (
    ConfigError,
    EvaluationError,
    InfeasibleError,
    QuadratureError,
    SingularGramianError,
    SubdiffError,
)
from .penalized import epsilon_sweep
from .rhum import (
    SteeringSystem,
    control_energy,
    require_reachable,
    solve_rhum,
    steering_system,
    verify_transfer,
)
from .spectral import TimeGrid

EXIT_CONFIG = 1
EXIT_NON_STRATEGIC = 2
EXIT_SINGULAR = 3
EXIT_QUADRATURE = 4

# Most rows of trajectory.csv: every ceil(n_steps / 64)-th node and T.  control.csv
# keeps every node, because verify reads it.
TRAJECTORY_ROWS = 65
# Values _write_csv formats and writes at once.
CSV_BLOCK_VALUES = 2**15


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row of ``rows`` (a 2-D array or a list of equal-length rows), %.17g each.

    Rows are formatted and written in blocks of about ``CSV_BLOCK_VALUES`` values,
    one format string per block, so the writer's memory does not grow with the rows.
    """
    rows = np.asarray(rows, float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, CSV_BLOCK_VALUES // len(header))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _leading_pairs(rows: list[str]) -> np.ndarray:
    """(t, u) of each row as a (k, 2) array, up to the first row that is not two numbers.

    Every row at once when each is two numbers, in one conversion; else row by row.
    """
    cells = ",".join(rows).split(",")
    # each row has two cells when there are as many commas as rows and no row lacks one
    if len(cells) == 2 * len(rows) and all(map(str.__contains__, rows, repeat(","))):
        try:
            return np.array(cells, dtype=float).reshape(len(rows), 2)
        except ValueError:
            pass
    pairs = []
    for row in rows:
        try:
            t, u = map(float, row.split(","))
        except ValueError:
            break
        pairs.append((t, u))
    return np.array(pairs).reshape(len(pairs), 2)


def _read_control_csv(path: Path, grid: TimeGrid) -> np.ndarray:
    """The u column of a ``t,u`` control file whose rows are the grid's nodes t and finite u.

    Every row is checked at once; an error names the file's first bad line.
    """
    try:
        lines = path.read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<control>", f"cannot read {path}: {exc}") from exc
    nodes, rows = grid.nodes, lines[1:]  # an empty file has 0 samples
    if len(rows) != nodes.size:
        msg = f"control file has {len(rows)} samples but the grid needs {nodes.size}"
        raise ConfigError("<control>", msg)
    if lines[0].strip() != "t,u":
        raise ConfigError("<control>", f"line 1 of {path} is not the header 't,u': {lines[0]!r}")
    t, u = _leading_pairs(rows).T
    bad = np.flatnonzero(~(np.isfinite(u) & (np.abs(t - nodes[:t.size]) <= 1e-9 * grid.T)))
    if bad.size:
        k = int(bad[0])
        msg = f"line {k + 2} of {path} needs grid node t={float(nodes[k])!r} and a finite u: {rows[k]!r}"
        raise ConfigError("<control>", msg)
    if t.size < len(rows):
        raise ConfigError("<control>", f"line {t.size + 2} of {path} is not 't,u': {rows[t.size]!r}")
    return u


def _analysis_payload(config: ProblemConfig, system: SteeringSystem) -> dict:
    """Strategic / reachability report; ``eec`` is ``require_reachable``'s verdict."""
    gram = system.gramian
    try:
        require_reachable(system, config.tolerances.verify_distance)
    except (InfeasibleError, SingularGramianError):
        eec = False
    else:
        eec = True
    return {
        **is_strategic(system.influence, system.target),
        "eec": eec,
        "gramian_condition": gram.condition_number(),
        "gramian_min_eigenvalue": gram.min_eigenvalue(),
        "influence": [float(v) for v in system.influence],
    }


def _trajectory_nodes(n_steps: int) -> np.ndarray:
    """Indices of the nodes trajectory.csv keeps: every ceil(n_steps / 64)-th node, then T."""
    stride = -(-n_steps // (TRAJECTORY_ROWS - 1))
    return np.append(np.arange(0, n_steps, stride), n_steps)


def _cmd_synthesize(config: ProblemConfig, out: Path) -> int:
    sol = solve_rhum(config)
    grid, u_star = sol.system.grid, sol.u_star
    control_path = out / "control.csv"
    traj_path = out / "trajectory.csv"
    report_path = out / "report.json"
    report = {
        **is_strategic(sol.system.influence, sol.system.target),
        "eec": True,  # solve_rhum returned, so require_reachable accepted this system
        "gramian_condition": sol.condition_number,
        "solve_residual": sol.residual,
        "control_energy": control_energy(u_star, grid),
    }
    del sol  # the Gramian's factor and SVD go before the simulation
    transfer = verify_transfer(config, u_star)
    _write_csv(control_path, ["t", "u"], np.column_stack([grid.nodes, u_star]))
    keep = _trajectory_nodes(grid.n_steps)
    _write_csv(
        traj_path,
        ["t"] + [f"coeff_{i+1}" for i in range(config.n_modes)],
        np.column_stack([grid.nodes[keep], transfer.trajectory[keep]]),
    )
    report.update({
        "distance_to_G": transfer.distance_to_G,
        "within_tolerance": transfer.distance_to_G <= config.tolerances.verify_distance,
        "artifacts": {
            "control": control_path.name,
            "trajectory": traj_path.name,
            "report": report_path.name,
        },
    })
    _write_json(report_path, report)
    print(
        f"synthesized control: energy={report['control_energy']:.6e} "
        f"distance_to_G={report['distance_to_G']:.6e}"
    )
    return 0


def _cmd_verify(config: ProblemConfig, out: Path) -> int:
    control_path = out / "control.csv"
    if not control_path.exists():
        raise ConfigError("<control>", f"no control file at {control_path}; run synthesize first")
    grid = config.grid()
    u = _read_control_csv(control_path, grid)
    transfer = verify_transfer(config, u)
    report = {
        "distance_to_G": transfer.distance_to_G,
        "within_tolerance": transfer.distance_to_G <= config.tolerances.verify_distance,
        "control_energy": control_energy(u, grid),
        "final_coefficients": [float(v) for v in transfer.trajectory[-1]],
    }
    _write_json(out / "verify_report.json", report)
    print(f"distance_to_G={report['distance_to_G']:.6e} ok={report['within_tolerance']}")
    return 0


def _cmd_sweep(config: ProblemConfig, out: Path, eps_arg: str) -> int:
    try:
        eps_list = [float(tok) for tok in eps_arg.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("--eps", f"could not parse {eps_arg!r}: {exc}") from exc
    if not eps_list:
        raise ConfigError("--eps", "a comma-separated list of penalty values is required")
    rows = epsilon_sweep(config, eps_list)
    _write_csv(
        out / "sweep.csv",
        ["epsilon", "J_eps", "rel_control_err", "residual_norm"],
        [(r.epsilon, r.J_eps, r.rel_control_err, r.residual_norm) for r in rows],
    )
    J = [r.J_eps for r in rows]
    report = {
        "epsilons": [r.epsilon for r in rows],
        "J_eps": J,
        "rel_control_err": [r.rel_control_err for r in rows],
        "residual_norm": [r.residual_norm for r in rows],
        "monotone_J": all(b >= a - 1e-10 for a, b in zip(J, J[1:])),
    }
    _write_json(out / "sweep_report.json", report)
    print(f"swept {len(rows)} penalty values; final rel_control_err={rows[-1].rel_control_err:.3e}")
    return 0


def _cmd_analyze(config: ProblemConfig, out: Path) -> int:
    payload = _analysis_payload(config, steering_system(config))
    _write_json(out / "analysis.json", payload)
    print(
        f"strategic={payload['strategic']} dead_modes={payload['dead_modes']} "
        f"eec={payload['eec']}"
    )
    return 0


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and reused by every later ``main``."""
    parser = argparse.ArgumentParser(
        prog="subdiff-control",
        description="Minimum-energy steering of sub-diffusion into a target subspace",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("synthesize", "solve for the steering control and simulate it"),
        ("verify", "re-simulate a previously written control and measure the miss"),
        ("sweep", "penalization sweep over a list of eps values"),
        ("analyze", "strategic-actuator / reachability report only"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON problem configuration")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        if name == "sweep":
            p.add_argument("--eps", required=True, help="comma-separated decreasing penalty values")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (exit 0) or a usage error
        return EXIT_CONFIG if exc.code else 0
    try:
        config = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "synthesize":
            return _cmd_synthesize(config, out)
        if args.command == "verify":
            return _cmd_verify(config, out)
        if args.command == "sweep":
            return _cmd_sweep(config, out, args.eps)
        return _cmd_analyze(config, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs map their own; this is an unusable --out
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"non-strategic actuator: {exc}", file=sys.stderr)
        return EXIT_NON_STRATEGIC
    except SingularGramianError as exc:
        print(f"steering refused: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (QuadratureError, EvaluationError) as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except SubdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
