"""Timing wrappers installed from outside the package, and per-layer metrics.

``Tracer.install`` replaces each traced function at every name a package
module binds it under (``rhum.terminal_control_map``,
``penalized.convolution_matrix``, ``spectral.mittag_leffler``, ...), so
calls between modules pass through a wrapper.  Each wrapped call records a
span ``[name, start, end, parent, problem, child_s, ml_calls, ml_s]``; a
span's self time is its duration minus the time its child spans cover.

``mittag_leffler`` is called 10^4-10^7 times per run, so its calls are not
kept as spans: each call adds its count and time to the enclosing span and
to per-regime totals, split into first calls (argument triple new to the
process) and repeat calls.

Layer metrics are per timed problem: spans, errors and Mittag-Leffler calls
made during set-up are left out of them and reported as separate ``setup.``
totals, so a metric does not grow with the number of problems a run fits
into its time.
"""

from __future__ import annotations

import functools
import json
import time

# (module, function) pairs wrapped as spans, by layer.
TRACED = {
    "spectral": ("propagator_factors", "kernel_step_integrals", "terminal_control_map",
                 "mild_trajectory", "apply_R", "convolution_matrix"),
    "fractional": ("caputo_left",),
    "actuators": ("make_zone", "make_pointwise", "make_target", "dead_modes",
                  "is_strategic", "eec_criterion"),
    "rhum": ("discrete_gramian", "solve_rhum", "verify_transfer", "final_free_state",
             "control_energy"),
    "penalized": ("epsilon_sweep", "solve_penalized"),
    "config": ("load_config",),
    "cli": ("main",),
}
PACKAGE_MODULES = ("special", "spectral", "fractional", "actuators", "config", "rhum",
                   "penalized", "cli")

X_SWITCH = 25.0   # special._X_ASYMPTOTIC_NEG: series / asymptotic switch in x = |z|^(1/p)
P_NEAR_1 = 0.98   # above this first index the asymptotic branch is never used
REGIMES = ("small_x", "large_x", "p_near_1")

NAME, START, END, PARENT, PROBLEM, CHILD, ML_CALLS, ML_S = range(8)


def ml_regime(p: float, z: float) -> str:
    if p > P_NEAR_1:
        return "p_near_1"
    return "small_x" if abs(z) ** (1.0 / p) <= X_SWITCH else "large_x"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.problem = "setup"
        self.errors: dict[str, int] = {}
        self.seen: set = set()
        self.ml = {phase: {r: {"calls": 0, "distinct": 0, "first_s": 0.0, "repeat_s": 0.0}
                           for r in REGIMES}
                   for phase in ("setup", "timed")}
        self.kkt = {"dim_max": 0, "flops": 0.0}

    # --- wrappers ------------------------------------------------------
    def _span(self, name, fn, on_call=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.problem, 0.0, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if self.problem != "setup":
                    key = f"{name}:{type(exc).__name__}"
                    self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                rec[END] = t1 = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += t1 - t0

        return wrapper

    def _ml_leaf(self, fn):
        spans, stack, seen, ml = self.spans, self.stack, self.seen, self.ml

        @functools.wraps(fn)
        def wrapper(p, q, z):
            t0 = time.perf_counter()
            try:
                return fn(p, q, z)
            finally:
                dt = time.perf_counter() - t0
                key = (float(p), float(q), float(z))
                phase = "setup" if self.problem == "setup" else "timed"
                stats = ml[phase][ml_regime(key[0], key[2])]
                stats["calls"] += 1
                if key in seen:
                    stats["repeat_s"] += dt
                else:
                    seen.add(key)
                    stats["distinct"] += 1
                    stats["first_s"] += dt
                if stack:
                    rec = spans[stack[-1]]
                    rec[CHILD] += dt
                    rec[ML_CALLS] += 1
                    rec[ML_S] += dt

        return wrapper

    def _count_kkt(self, problem, *args, **kwargs):
        """Computed size of the dense KKT system solve_penalized assembles."""
        cfg = problem.config
        n = cfg.n_steps + 1
        dim = (cfg.n_modes + 1) * n + (cfg.n_modes - len(cfg.target_modes))
        if problem.residual_form == "caputo":
            dim += cfg.n_modes
        self.kkt["dim_max"] = max(self.kkt["dim_max"], dim)
        if self.problem != "setup":
            self.kkt["flops"] += dim**3 / 3.0

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"subdiff_control.{m}") for m in PACKAGE_MODULES]
        modules.append(importlib.import_module("subdiff_control"))

        def rebind(orig, wrapper):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

        special = modules[PACKAGE_MODULES.index("special")]
        rebind(special.mittag_leffler, self._ml_leaf(special.mittag_leffler))
        for layer, names in TRACED.items():
            mod = modules[PACKAGE_MODULES.index(layer)]
            for fname in names:
                orig = getattr(mod, fname)
                hook = self._count_kkt if fname == "solve_penalized" else None
                rebind(orig, self._span(f"{layer}.{fname}", orig, hook))

    # --- metrics -------------------------------------------------------
    def layer_metrics(self, n_problems: int) -> dict:
        """Counts and self times per timed problem, plus set-up totals."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for rec in self.spans:
            if rec[PROBLEM] == "setup":
                continue
            name = rec[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (rec[END] - rec[START] - rec[CHILD])

        def c(name):
            return calls.get(name, 0) / n_problems

        def s(name):
            return self_s.get(name, 0.0) / n_problems

        def ml(phase, key, regimes=REGIMES):
            return sum(self.ml[phase][r][key] for r in regimes)

        m = {f"special.ml.{k}": ml("timed", k) / n_problems
             for k in ("calls", "distinct", "first_s", "repeat_s")}
        for r in REGIMES:
            for k in ("first_s", "calls", "distinct"):
                m[f"special.ml.{k}.{r}"] = ml("timed", k, (r,)) / n_problems
        m.update({
            "spectral.propagator_factors.calls": c("spectral.propagator_factors"),
            "spectral.propagator_factors.self_s": s("spectral.propagator_factors"),
            "spectral.kernel_step_integrals.self_s": s("spectral.kernel_step_integrals"),
            "spectral.terminal_control_map.self_s": s("spectral.terminal_control_map"),
            "spectral.mild_trajectory.self_s": s("spectral.mild_trajectory"),
            "spectral.apply_R.calls": c("spectral.apply_R"),
            "spectral.convolution_matrix.calls": c("spectral.convolution_matrix"),
            "spectral.convolution_matrix.self_s": s("spectral.convolution_matrix"),
            "fractional.caputo_left.calls": c("fractional.caputo_left"),
            "fractional.caputo_left.self_s": s("fractional.caputo_left"),
            "actuators.self_s": sum(v for k, v in self_s.items()
                                    if k.startswith("actuators.")) / n_problems,
            "rhum.discrete_gramian.calls": c("rhum.discrete_gramian"),
            "rhum.discrete_gramian.self_s": s("rhum.discrete_gramian"),
            "rhum.solve_rhum.self_s": s("rhum.solve_rhum"),
            "rhum.verify_transfer.self_s": s("rhum.verify_transfer"),
            "rhum.singular_gramian":
                self.errors.get("rhum.solve_rhum:SingularGramianError", 0) / n_problems,
            "penalized.solve_penalized.calls": c("penalized.solve_penalized"),
            "penalized.solve_penalized.self_s": s("penalized.solve_penalized"),
            "penalized.epsilon_sweep.self_s": s("penalized.epsilon_sweep"),
            "penalized.kkt_dim_max": self.kkt["dim_max"],
            "penalized.kkt_flops_computed": self.kkt["flops"] / n_problems,
            "penalized.kkt_bytes_computed": 8 * self.kkt["dim_max"] ** 2,
            "cli.main.self_s": s("cli.main"),
            "config.load_config.self_s": s("config.load_config"),
            "setup.special.ml.distinct": ml("setup", "distinct"),
            "setup.special.ml.first_s": ml("setup", "first_s"),
        })
        return m

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "problem", "child_s", "ml_calls", "ml_s")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
