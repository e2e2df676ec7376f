#!/usr/bin/env python3
"""Steering benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 15 --trace 0

Run from the repository root.  Workloads (see ``BENCHMARK.json`` for why each
was chosen):

* ``cli_cold``        one-shot CLI user: ``synthesize`` then ``verify`` in
                      process, a new alpha per problem, so every
                      Mittag-Leffler value is computed for the first time;
* ``placement_scan``  actuator-placement study on one warm mode table
                      (alpha 0.6, N=8, n=1024): solve, verify, energy;
* ``penalty_sweep``   ``epsilon_sweep`` over (1e-1, 1e-3, 1e-5), mild and
                      caputo form, N=5, n in {128, 192, 256}.

``--trace 0`` prints the end-to-end metrics: set-up time (median of three
fresh processes), throughput, median problem time, share of problems solved
and certified, and peak RSS; and the 90th-percentile problem time where a
run has at least 100 problems.  ``--trace 1`` runs
the same problems untraced and then traced, and prints the per-layer
metrics with the tracing overhead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; details,
machine facts and spans go to ``.perfbench_out/``.

``failed`` counts problems that crashed or that the stored reference solved
but this run did not; ``correct`` is true when there are none.  Refusals and
unverified results that match the reference stay in ``ok_frac`` only.

Every run also starts a status probe: the alpha=0.99, n_modes=12 ``analyze``
case in a child process, capped at ``PROBE_CAP_S`` seconds.  Only its status
is reported.  At the reference code that case runs for about 81 s before it
crashes, far past the cap, so the probe reports ``timeout`` until a change
makes it end within the cap.  A cap long enough to see the crash would add
about 90 s to every invocation, and the 70 invocations that compare two
commits would no longer fit in an hour.

Metric names and units are those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
SETUP_SAMPLES = 3
# One process with single-threaded BLAS: on two cores the penalty sweeps ran
# faster and steadier this way than with one BLAS thread per core.
BLAS_THREADS = 1
RUN_DEADLINE_S = 170.0
PROBE_CAP_S = 4.0
PROBE_CONFIG = {
    "alpha": 0.99, "T": 1.0, "n_modes": 12, "n_steps": 256,
    "y0": [1.0] + [0.0] * 11,
    "actuator": {"kind": "zone", "a": 0.2, "b": 0.5},
    "target_modes": list(range(2, 13)),
}
EXIT_CODES = {1: "config", 2: "non_strategic", 3: "singular_gramian", 4: "evaluation"}

# problem_p90_s is printed where a run has at least this many problems, but
# it is not a gated metric: it is undefined on two workloads, and on this
# class of shared VM its run-to-run spread (26% on placement_scan) exceeds
# any bound a gate may use.
P90_MIN_PROBLEMS = 100


class BenchError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(root: Path, out_dir: Path, args, mode: str, trace: int, deadline: float,
               problems: int | None = None) -> dict:
    """Start one worker process and wait for it; returns its result with spawn time."""
    result_path = out_dir / f"{args.workload}-seed{args.seed}-{mode}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace),
           "--result", str(result_path)]
    if problems is not None:
        cmd += ["--problems", str(problems)]
    spawned = now()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - now(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) exceeded the run deadline") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker ({mode}) failed with exit code {proc.returncode}:\n{proc.stderr}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_done"] - spawned
    return result


def run_probe(root: Path) -> dict:
    """The known alpha=0.99, n_modes=12 analyze pathology, status only."""
    env = child_env()
    env["PYTHONPATH"] = str(root / "src")
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        cfg = Path(tmp) / "probe.json"
        cfg.write_text(json.dumps(PROBE_CONFIG), encoding="utf-8")
        cmd = [sys.executable, "-m", "subdiff_control", "analyze", "--config", str(cfg),
               "--out", tmp]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=PROBE_CAP_S)
        except subprocess.TimeoutExpired:
            return {"status": "timeout", "cap_s": PROBE_CAP_S}
        wall = time.perf_counter() - t0
    if proc.returncode == 0:
        return {"status": "ok", "exit_code": 0, "wall_s": wall}
    if proc.returncode in EXIT_CODES and "Traceback" not in proc.stderr:
        return {"status": "typed_error", "exit_code": proc.returncode,
                "error": EXIT_CODES[proc.returncode], "wall_s": wall}
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    return {"status": "crash", "exit_code": proc.returncode,
            "error": last[0].split(":")[0][:80], "wall_s": wall}


def summarize(result: dict) -> dict:
    problems = result["problems"]
    counts = {o: 0 for o in workloads.OUTCOMES}
    for p in problems:
        counts[p["outcome"]] += 1
    regressions = sum(workloads.is_regression(p["ref_outcome"], p["outcome"]) for p in problems)
    walls = [p["wall_s"] for p in problems]
    return {
        "attempted": len(problems),
        "counts": counts,
        "regressions": regressions,
        "problems_per_s": len(problems) / result["timed_s"],
        "problem_p50_s": statistics.median(walls),
        "problem_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[-1]
        if len(walls) >= P90_MIN_PROBLEMS else None,
        "ok_frac": counts["solved"] / len(problems),
    }


def declared(section: str, values: dict) -> dict:
    """Every metric ``BENCHMARK.json`` declares in ``section``, with its unit."""
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    deadline = now() + RUN_DEADLINE_S
    root = Path.cwd().resolve()
    if not (root / "src" / "subdiff_control" / "__init__.py").is_file():
        print(f"perfbench: no package at {root / 'src' / 'subdiff_control'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    try:
        if args.trace == 0:
            setups = [run_worker(root, out_dir, args, "setup", 0, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            measured = run_worker(root, out_dir, args, "measure", 0, deadline)
            setups.append(measured["setup_s"])
            traced = None
        else:
            measured = run_worker(root, out_dir, args, "measure", 0, deadline)
            traced = run_worker(root, out_dir, args, "measure", 1, deadline,
                                problems=len(measured["problems"]))
        probe = run_probe(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    summary = summarize(measured)
    facts = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
             "cpus_usable": len(os.sched_getaffinity(0)), **measured["facts"]}
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "machine: " + " ".join(f"{k}={v}" for k, v in facts.items()),
        "outcomes: " + " ".join(f"{k}={v}" for k, v in summary["counts"].items())
        + f" regressions_vs_reference={summary['regressions']}"
        + f" cond_warnings={measured['cond_warnings']}",
        f"probe (alpha=0.99 n_modes=12 analyze, cap {PROBE_CAP_S:g}s): "
        + " ".join(f"{k}={v}" for k, v in probe.items()),
    ]
    if traced is None:
        values = {
            "setup_s": statistics.median(setups),
            "problems_per_s": summary["problems_per_s"],
            "problem_p50_s": summary["problem_p50_s"],
            "ok_frac": summary["ok_frac"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = declared("end_to_end", values)
        lines.append(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
        lines.append(f"problems: {summary['attempted']} in {measured['timed_s']:.3f} s")
        lines.append(f"  problem_p90_s = {summary['problem_p90_s']:.6g} s (not gated)"
                     if summary["problem_p90_s"] is not None else
                     f"  problem_p90_s: not defined (fewer than {P90_MIN_PROBLEMS} problems)")
    else:
        tsum = summarize(traced)
        n = tsum["attempted"]
        layers = dict(traced["layers"])
        layers.update({f"outcome.{k}": v / n for k, v in tsum["counts"].items()})
        layers["rhum.unverified"] = tsum["counts"]["unverified"] / n
        layers["trace.problems"] = n
        layers["trace.overhead_s"] = (traced["timed_s"] - measured["timed_s"]) / n
        metrics = declared("per_layer", layers)
        lines.append(f"tracing overhead: {traced['timed_s'] - measured['timed_s']:.3f} s "
                     f"({traced['timed_s']:.3f} s traced - {measured['timed_s']:.3f} s untraced, "
                     f"{n} problems); figures are per timed problem except setup.* and "
                     "trace.problems; counts marked _computed are derived from sizes")
    lines += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]

    failed = summary["regressions"] + (0 if traced is None else summarize(traced)["regressions"])
    details = {"facts": facts, "probe": probe, "summary": summary, "metrics": metrics,
               "problems": measured["problems"]}
    if traced is None:
        details["setup_samples_s"] = setups
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json", "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": summary["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
