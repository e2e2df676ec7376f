"""One benchmark process: set up a workload, then (optionally) time it.

Started by ``run.py``; not meant to be run by hand.  ``--mode setup`` stops
once set-up is done, so the parent can sample set-up time in fresh
processes; ``--mode measure`` goes on to run problems for ``--seconds``
(whole cycles) or exactly ``--problems`` problems, and writes a JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes

    paths = set()
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                paths.add(path)
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--problems", type=int, default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import subdiff_control

    if not Path(subdiff_control.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"subdiff_control imported from {subdiff_control.__file__}, not {src}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    tmp = workloads.new_tmp_dir(root)
    try:
        reference = workloads.load_reference()
        cycles, repeat = workloads.problem_cycles(args.workload, reference, args.seed)
        runner = workloads.Runner(args.workload, tmp)
        for problem in itertools.chain.from_iterable(cycles):
            if "_cfg" not in problem:
                runner.prepare(problem)
        for cfg in workloads.table_configs(args.workload, reference):
            runner.fill_table(cfg)
        setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = {"setup_done": setup_done}
        if args.mode == "measure":
            result.update(measure(args, cycles, repeat, runner, tracer))
            result["facts"] = machine_facts()
            if tracer is not None:
                n = len(result["problems"])
                result["layers"] = tracer.layer_metrics(n)
                result["layers"]["rhum.cond_warnings"] = runner.cond_warnings / n
                result["layers"]["cli.artifact_bytes"] = runner.artifact_bytes / n
                tracer.write_spans(Path(args.result).with_suffix(".spans.jsonl"))
            result["cond_warnings"] = runner.cond_warnings
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(args, cycles, repeat, runner, tracer) -> dict:
    records = []
    source = itertools.cycle(cycles) if repeat else cycles
    t_start = time.perf_counter()
    for cycle in source:
        for problem in cycle:
            if tracer is not None:
                tracer.problem = len(records)
            wall, outcome, detail = runner.run(problem)
            records.append({
                "id": problem["id"],
                "wall_s": wall,
                "outcome": outcome,
                "ref_outcome": problem["ref"]["outcome"],
                "detail": detail,
            })
            if args.problems is not None and len(records) >= args.problems:
                break
        if args.problems is not None:
            if len(records) >= args.problems:
                break
        elif time.perf_counter() - t_start >= args.seconds:
            break
    t_end = time.perf_counter()
    return {
        "timed_s": t_end - t_start,
        "problems": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main())
