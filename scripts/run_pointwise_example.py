#!/usr/bin/env python3
"""Pointwise actuator at x = 1/3: dead third mode and its consequences.

Runs the reachability analysis for a pointwise actuator at 1/3 (whose
influence on every third mode vanishes exactly), then attempts synthesis for
two targets: one whose annihilator avoids the dead mode (succeeds) and one
that requires steering the dead mode (reported as non-strategic, exit 2).
Exits 1 unless every one of these three steps exits as expected.
"""

import argparse
import sys
from pathlib import Path

from subdiff_control.cli import main as cli_main
from subdiff_control.config import ProblemConfig, save_config


def _config(target_modes, y0):
    return ProblemConfig(
        alpha=0.4,
        T=1.0,
        n_modes=5,
        n_steps=256,
        y0=y0,
        actuator={"kind": "pointwise", "b": 1.0 / 3.0},
        target_modes=target_modes,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/pointwise_example", help="output directory")
    args = parser.parse_args()
    out = Path(args.out)

    good = _config((2, 3, 4, 5), (1.0, 0.0, 0.0, 0.0, 0.0))
    bad = _config((1, 2, 4, 5), (0.0, 0.0, 1.0, 0.0, 0.0))

    good_dir = out / "reachable"
    good_dir.mkdir(parents=True, exist_ok=True)
    save_config(good, good_dir / "config.json")
    good_args = ["--config", str(good_dir / "config.json"), "--out", str(good_dir)]
    codes = [cli_main(["analyze", *good_args]), cli_main(["synthesize", *good_args])]

    bad_dir = out / "unreachable"
    bad_dir.mkdir(parents=True, exist_ok=True)
    save_config(bad, bad_dir / "config.json")
    bad_code = cli_main(["synthesize", "--config", str(bad_dir / "config.json"), "--out", str(bad_dir)])
    print(f"unreachable variant exited with code {bad_code} (expected 2)")
    return int(codes + [bad_code] != [0, 0, 2])


if __name__ == "__main__":
    sys.exit(main())
