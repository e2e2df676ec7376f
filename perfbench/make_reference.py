"""Regenerate ``reference.json``: the problem pools and their reference outcomes.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the repository root.  The pools are drawn from a fixed seed; each
problem is then run once through the same ``workloads.Runner`` code path the
benchmark times, and its outcome, energy, miss, Gramian condition and sweep
rows are stored as the reference.  Regenerate only when the workloads
change: the stored outcomes are what later code is checked against.  Takes
a few minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

POOL_SEED = 20261017
# Worker processes the problems are split over; the split does not change
# what the reference holds.
JOBS = 2

# cli_cold strata: (alpha_lo, alpha_hi, n_modes, n_steps, target, actuator kind).
# The first eight split (0.1, 0.98) into equal bins; the last is the
# alpha > 0.98 regime, where only small problems end in reasonable time.
# Sizes are chosen so that the five strata from alpha 0.43 to 0.98 cost
# about the same (1.5-2.5 s on a two-core VM): the median problem then
# falls inside that cluster of ten problems a cycle, not on one problem.
# The two exact-steering strata are refused (singular Gramian); exact
# steering at the other sizes returns with a Gramian condition near 1e20,
# where rounding alone decides between solved and unverified.
CLI_STRATA = (
    (0.10, 0.21, 10, 512, "exact", "zone"),
    (0.21, 0.32, 10, 512, "out1", "pointwise"),
    (0.32, 0.43, 10, 512, "exact", "zone"),
    (0.43, 0.54, 9, 512, "out1", "zone"),
    (0.54, 0.65, 6, 256, "out1", "pointwise"),
    (0.65, 0.76, 5, 256, "out1", "pointwise"),
    (0.76, 0.87, 7, 256, "out1", "zone"),
    (0.87, 0.98, 4, 256, "out1", "zone"),
    (0.981, 0.999, 4, 64, "out1", "pointwise"),
)
CLI_VARIANTS = 16

PLACEMENT = {"alpha": 0.6, "n_modes": 8, "n_steps": 1024, "size": 256}
PENALTY = {"alpha": 0.5, "n_modes": 5, "n_steps": (128, 192, 256), "variants": 8}

# An actuator is accepted only if every checked mode keeps at least this
# share of the largest influence coefficient, i.e. no mode is (nearly) dead.
INFLUENCE_MARGIN = 0.05


def influence(kind: str, pos: dict, n_modes: int) -> np.ndarray:
    i = np.arange(1, n_modes + 1)
    if kind == "zone":
        return np.sqrt(2) / (i * np.pi) * (np.cos(i * np.pi * pos["a"]) - np.cos(i * np.pi * pos["b"]))
    return np.sqrt(2) * np.sin(i * np.pi * pos["b"])


def draw_actuator(rng: random.Random, kind: str, n_modes: int, checked: int) -> dict:
    while True:
        if kind == "zone":
            a = round(rng.uniform(0.0, 0.7), 4)
            pos = {"kind": "zone", "a": a, "b": round(a + rng.uniform(0.1, 0.3), 4)}
        else:
            pos = {"kind": "pointwise", "b": round(rng.uniform(0.05, 0.95), 4)}
        b = np.abs(influence(kind, pos, n_modes))
        if np.min(b[:checked]) >= INFLUENCE_MARGIN * np.max(b):
            return pos


def draw_y0(rng: random.Random, n_modes: int) -> list:
    return [1.0] + [round(rng.choice((-1, 1)) * rng.uniform(0.25, 1.0) / (i + 1), 6)
                    for i in range(1, n_modes)]


def target(kind: str, n_modes: int) -> list:
    first = {"exact": None, "out1": 2, "out12": 3}[kind]
    return [] if first is None else list(range(first, n_modes + 1))


def config(alpha, n_modes, n_steps, y0, actuator, target_modes) -> dict:
    return {"alpha": alpha, "T": 1.0, "n_modes": n_modes, "n_steps": n_steps, "y0": y0,
            "actuator": actuator, "target_modes": target_modes}


def build_pools() -> dict:
    # One generator per workload, so that changing one pool leaves the others.
    rng = random.Random(POOL_SEED)
    strata = []
    for s, (lo, hi, N, n, tgt, kind) in enumerate(CLI_STRATA):
        entries = []
        for m in range(CLI_VARIANTS):
            # Stratified over the middle third of the bin: the cost per
            # Mittag-Leffler value climbs steeply with alpha in (0.3, 0.65),
            # and whole bins made the work per cycle vary by +-6% with the seed.
            # Alpha rises with m: workloads.problem_cycles pairs entry m
            # with its mirror on that order.
            alpha = round(lo + (hi - lo) * (1 + (m + rng.random()) / CLI_VARIANTS) / 3, 6)
            act = draw_actuator(rng, kind, N, N)
            entries.append({"id": f"c{s}v{m}",
                            "config": config(alpha, N, n, draw_y0(rng, N), act, target(tgt, N))})
        strata.append(entries)

    rng = random.Random(POOL_SEED + 1)
    P = PLACEMENT
    problems = []
    y0 = [round(1.0 / i, 6) for i in range(1, P["n_modes"] + 1)]
    for k in range(P["size"]):
        kind = rng.choice(("zone", "pointwise"))
        tgt = rng.choice(("out1", "out12"))
        act = draw_actuator(rng, kind, P["n_modes"], 1 if tgt == "out1" else 2)
        problems.append({"id": f"p{k}", "config": config(
            P["alpha"], P["n_modes"], P["n_steps"], y0, act, target(tgt, P["n_modes"]))})

    rng = random.Random(POOL_SEED + 2)
    Q = PENALTY
    groups = []
    for n in Q["n_steps"]:
        entries = []
        for m in range(Q["variants"]):
            kind = ("zone", "pointwise")[m % 2]
            act = draw_actuator(rng, kind, Q["n_modes"], Q["n_modes"])
            entries.append({"id": f"s{n}v{m}", "config": config(
                Q["alpha"], Q["n_modes"], n, draw_y0(rng, Q["n_modes"]), act,
                target("out1", Q["n_modes"]))})
        groups.append(entries)
    return {"cli_cold": {"strata": strata},
            "placement_scan": {"problems": problems},
            "penalty_sweep": {"groups": groups}}


def reference_of(workload: str, problem: dict, outcome: str, detail: dict, wall: float) -> dict:
    ref = {"outcome": outcome, "wall_s": round(wall, 3)}
    if workload == "penalty_sweep":
        if outcome not in ("refused", "crashed"):
            ref["rows"] = detail["rows"]
            # The stored rows are the reference, so only the criterion-7 bound decides.
            ref["outcome"] = workloads.classify_sweep(ref, problem["form"], detail["rows"])
    else:
        for key in ("energy", "miss", "cond"):
            if key in detail:
                ref[key] = detail[key]
        if "error" in detail or "exit_code" in detail:
            ref["error"] = detail.get("error", detail.get("exit_code"))
    return ref


def run_chunk(job) -> list:
    """Run problems of one workload in this process; returns their references."""
    workload, problems, tables, src = job
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory() as tmp:
        runner = workloads.Runner(workload, Path(tmp))
        for cfg in tables:
            runner.fill_table(cfg)
        out = []
        for problem in problems:
            problem = {**problem, "ref": {}}
            runner.prepare(problem)
            wall, outcome, detail = runner.run(problem)
            out.append((problem["id"], reference_of(workload, problem, outcome, detail, wall)))
            print(f"{workload} {problem['id']}: {outcome} {wall:.2f}s", file=sys.stderr, flush=True)
        return out


def main() -> int:
    src = str(Path("src").resolve())
    pools = build_pools()
    jobs = []
    cli_problems = [p for s in pools["cli_cold"]["strata"] for p in s]
    for j in range(JOBS):
        jobs.append(("cli_cold", cli_problems[j::JOBS], [], src))
    place = pools["placement_scan"]["problems"]
    jobs.append(("placement_scan", place, [place[0]["config"]], src))
    sweeps = [{**p, "form": f, "id": f"{p['id']}:{f}"}
              for g in pools["penalty_sweep"]["groups"] for p in g for f in workloads.SWEEP_FORMS]
    tables = [g[0]["config"] for g in pools["penalty_sweep"]["groups"]]
    for j in range(JOBS):
        jobs.append(("penalty_sweep", sweeps[j::JOBS], tables, src))
    t0 = time.perf_counter()
    refs = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        for chunk in pool.imap_unordered(run_chunk, jobs):
            refs.update(dict(chunk))
    for p in cli_problems + place:
        p["ref"] = refs[p["id"]]
    for g in pools["penalty_sweep"]["groups"]:
        for p in g:
            p["ref"] = {f: refs[f"{p['id']}:{f}"] for f in workloads.SWEEP_FORMS}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, **pools}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH} in {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
