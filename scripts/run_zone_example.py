#!/usr/bin/env python3
"""Steer sub-diffusion driven by a zone actuator into span{e2,...,eN}.

Synthesizes the minimum-energy control for a flat zone actuator on
[0.2, 0.5] at fractional order 0.4, starting from the first eigenmode, and
verifies the transfer by re-simulating the mild solution.  Artifacts
(control.csv, trajectory.csv, report.json) land in the output directory.
Exits with the first non-zero exit code of synthesize and verify.
"""

import argparse
import sys

from subdiff_control.cli import main as cli_main
from subdiff_control.config import ProblemConfig, save_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/zone_example", help="output directory")
    parser.add_argument("--alpha", type=float, default=0.4, help="fractional order in (0,1)")
    parser.add_argument("--n-modes", type=int, default=5, help="number of eigenmodes")
    parser.add_argument("--n-steps", type=int, default=256, help="time-grid steps")
    args = parser.parse_args()

    y0 = [0.0] * args.n_modes
    y0[0] = 1.0
    config = ProblemConfig(
        alpha=args.alpha,
        T=1.0,
        n_modes=args.n_modes,
        n_steps=args.n_steps,
        y0=tuple(y0),
        actuator={"kind": "zone", "a": 0.2, "b": 0.5},
        target_modes=tuple(range(2, args.n_modes + 1)),
    )
    from pathlib import Path

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    save_config(config, cfg_path)
    code = cli_main(["synthesize", "--config", str(cfg_path), "--out", str(out)])
    if code == 0:
        code = cli_main(["verify", "--config", str(cfg_path), "--out", str(out)])
    return code


if __name__ == "__main__":
    sys.exit(main())
