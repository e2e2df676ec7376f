"""Workload definitions: problem selection, execution and outcome checks.

Every problem comes from the stored pool in ``reference.json``, which also
holds the outcome the reference code produced for it.  The run seed only
chooses which pool entries a run visits and in what order, so the same seed
always yields the same inputs and every input has a stored reference.

Problems are grouped in cycles.  A cycle visits every stratum of a workload
(``cli_cold``: twice, a pool entry and its mirror), so each run does the
same mix of work whatever the seed; a run stops after the first whole cycle
that ends past ``--seconds``.

Outcomes:

* ``solved``     returned, miss <= verify_distance, energy within
                 ``ENERGY_RTOL`` of the reference (only where the reference
                 Gramian condition is <= ``COND_CHECK_MAX``); sweeps also
                 pass their own criteria (see ``classify_sweep``);
* ``unverified`` returned but missed one of those tolerances;
* ``refused``    a typed ``SubdiffError`` or CLI exit code 1-4;
* ``crashed``    any other exception.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("cli_cold", "placement_scan", "penalty_sweep")
OUTCOMES = ("solved", "unverified", "refused", "crashed")

ENERGY_RTOL = 1e-4        # relative tolerance on energies and J_eps against the reference
COND_CHECK_MAX = 1e12     # rhum.COND_WARN_THRESHOLD: no energy check above this condition
SWEEP_REL_ERR_MAX = 2e-2  # criterion-7 bound on the last-row rel_control_err of a mild sweep
SWEEP_EPS = (1e-1, 1e-3, 1e-5)
SWEEP_FORMS = ("mild", "caputo")
# Actuators a penalty_sweep cycle takes, per n_steps and reference mild
# outcome.  The third actuator at n=256 puts the median sweep among the
# 256-mild and 192-caputo sweeps, which cost about the same, instead of in
# the gap between the cheap and the dear half of the cycle.
SWEEP_STRATA = {128: {"solved": 1, "unverified": 1}, 192: {"solved": 1, "unverified": 1},
                256: {"solved": 1, "unverified": 2}}


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def problem_cycles(workload: str, reference: dict, seed: int) -> tuple[list, bool]:
    """The cycles a run with ``seed`` visits, in order, and whether they repeat.

    Each problem is a dict with ``id``, ``config`` (a ProblemConfig dict),
    ``ref`` (stored reference outcome) and, for sweeps, ``form``.  The warm
    workloads revisit their pool; the cold one ends when a stratum runs out.
    """
    rng = random.Random(seed)
    pool = reference[workload]
    if workload == "cli_cold":
        # Without replacement inside a stratum: alpha is new for every
        # problem of a run, so no Mittag-Leffler value is ever reused.  A
        # cycle takes a pool entry and its mirror (the pool is sorted by
        # alpha inside a stratum) from every stratum: cost climbs with alpha,
        # so each pair, and with it the cycle, costs about the same for every
        # seed.
        strata = pool["strata"]
        n_pairs = min(len(s) for s in strata) // 2
        orders = [rng.sample(range(n_pairs), n_pairs) for _ in strata]
        cycles = []
        for c in range(n_pairs):
            cycles.append([strata[s][orders[s][c]] for s in range(len(strata))]
                          + [strata[s][-1 - orders[s][c]] for s in range(len(strata))])
        return cycles, False
    if workload == "placement_scan":
        problems = pool["problems"]
        order = rng.sample(range(len(problems)), len(problems))
        return [[problems[i]] for i in order], True
    if workload == "penalty_sweep":
        # Actuators are drawn per n_steps and stored mild outcome
        # (SWEEP_STRATA): the share of sweeps that certify is then the same
        # for every seed, and both kinds are timed in every cycle.
        strata = []
        for group in pool["groups"]:
            for outcome, k in SWEEP_STRATA[group[0]["config"]["n_steps"]].items():
                entries = [e for e in group if e["ref"]["mild"]["outcome"] == outcome]
                strata.append((rng.sample(entries, len(entries)), k))
        cycles = []
        for c in range(max(len(s) for s, _ in strata)):
            cycle = []
            for entries, k in strata:
                for j in range(k):
                    entry = entries[(c * k + j) % len(entries)]
                    for form in SWEEP_FORMS:
                        cycle.append({**entry, "form": form, "id": f"{entry['id']}:{form}",
                                      "ref": entry["ref"][form]})
            cycles.append(cycle)
        return cycles, True
    raise ValueError(f"unknown workload {workload!r}")


def table_configs(workload: str, reference: dict) -> list[dict]:
    """Configs whose solve fills the Mittag-Leffler table during set-up."""
    pool = reference[workload]
    if workload == "placement_scan":
        return [pool["problems"][0]["config"]]
    if workload == "penalty_sweep":
        return [g[0]["config"] for g in pool["groups"]]
    return []


# --- outcome checks --------------------------------------------------------

def _close(value, ref) -> bool:
    return value is not None and ref is not None and math.isfinite(value) and (
        abs(value - ref) <= ENERGY_RTOL * abs(ref)
    )


def classify_steering(ref: dict, miss: float, energy: float, verify_distance: float) -> str:
    if not (math.isfinite(miss) and miss <= verify_distance):
        return "unverified"
    cond = ref.get("cond")
    if ref.get("energy") is not None and cond is not None and cond <= COND_CHECK_MAX:
        if not _close(energy, ref["energy"]):
            return "unverified"
    return "solved"


def classify_sweep(ref: dict, form: str, rows: list[dict]) -> str:
    """Mild: last-row rel_control_err <= 2e-2 and last J_eps matches the
    reference.  Caputo: every J_eps matches the reference row."""
    ref_rows = ref.get("rows")
    if ref_rows is None or len(ref_rows) != len(rows):
        return "unverified"
    if form == "mild":
        ok = rows[-1]["rel_control_err"] <= SWEEP_REL_ERR_MAX and _close(
            rows[-1]["J_eps"], ref_rows[-1]["J_eps"]
        )
    else:
        ok = all(_close(r["J_eps"], rr["J_eps"]) for r, rr in zip(rows, ref_rows))
    return "solved" if ok else "unverified"


def is_regression(ref_outcome: str, outcome: str) -> bool:
    """A problem the reference solved that no longer solves, or any new crash."""
    if outcome == "crashed":
        return ref_outcome != "crashed"
    return ref_outcome == "solved" and outcome != "solved"


# --- execution -------------------------------------------------------------

class Runner:
    """Runs one problem of a workload against the package modules.

    Calls go through module attributes at call time, so timing wrappers
    installed on those attributes see every call.
    """

    def __init__(self, workload: str, tmp_dir: Path):
        from subdiff_control import cli, config, errors, penalized, rhum

        self.workload = workload
        self.tmp_dir = tmp_dir
        self.cli, self.config, self.errors = cli, config, errors
        self.penalized, self.rhum = penalized, rhum
        self.cond_warnings = 0
        self.artifact_bytes = 0

    # Input generation (set-up): build the ProblemConfig or config file.
    def prepare(self, problem: dict) -> None:
        cfg = self.config.loads_config(problem["config"])
        if self.workload == "cli_cold":
            path = self.tmp_dir / f"{problem['id']}.json"
            self.config.save_config(cfg, path)
            problem["_path"] = path
        problem["_cfg"] = cfg

    def fill_table(self, config_dict: dict) -> None:
        self.rhum.solve_rhum(self.config.loads_config(config_dict))

    def run(self, problem: dict) -> tuple[float, str, dict]:
        """Returns (wall seconds of the timed calls, outcome, detail)."""
        outcome = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = getattr(self, "_run_" + self.workload)(problem)
            except self.errors.SubdiffError as exc:
                outcome, detail = "refused", {"error": type(exc).__name__}
            except Exception as exc:  # any untyped failure is a crash, recorded
                outcome, detail = "crashed", {"error": type(exc).__name__,
                                              "message": str(exc)[:200]}
            wall = time.perf_counter() - t0
        self.cond_warnings += sum(
            1 for w in caught if issubclass(w.category, RuntimeWarning)
            and "condition number" in str(w.message)
        )
        if outcome is None:
            outcome, detail = self._classify(problem, result)
        return wall, outcome, detail

    def _run_cli_cold(self, problem):
        out = self.tmp_dir / f"out-{problem['id']}"
        args = ["--config", str(problem["_path"]), "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(["synthesize", *args])
            if code == 0:
                code = self.cli.main(["verify", *args])
        return {"code": code, "out": out}

    def _run_placement_scan(self, problem):
        cfg = problem["_cfg"]
        sol = self.rhum.solve_rhum(cfg)
        transfer = self.rhum.verify_transfer(cfg, sol.u_star)
        energy = self.rhum.control_energy(sol.u_star, cfg.grid())
        return {"miss": transfer.distance_to_G, "energy": energy, "cond": sol.condition_number}

    def _run_penalty_sweep(self, problem):
        rows = self.penalized.epsilon_sweep(problem["_cfg"], list(SWEEP_EPS), problem["form"])
        return {"rows": [
            {"J_eps": r.J_eps, "rel_control_err": r.rel_control_err,
             "residual_norm": r.residual_norm} for r in rows
        ]}

    def _classify(self, problem, result) -> tuple[str, dict]:
        ref = problem["ref"]
        cfg = problem["_cfg"]
        vd = cfg.tolerances.verify_distance
        if self.workload == "cli_cold":
            out = result["out"]
            try:
                if result["code"] != 0:
                    return "refused", {"exit_code": result["code"]}
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                verify = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
                self.artifact_bytes += sum(f.stat().st_size for f in out.iterdir())
            finally:
                shutil.rmtree(out, ignore_errors=True)
            detail = {"miss": verify["distance_to_G"], "energy": verify["control_energy"],
                      "cond": report["gramian_condition"]}
            return classify_steering(ref, detail["miss"], detail["energy"], vd), detail
        if self.workload == "placement_scan":
            return classify_steering(ref, result["miss"], result["energy"], vd), result
        return classify_sweep(ref, problem["form"], result["rows"]), result


def new_tmp_dir(root: Path) -> Path:
    path = root / ".perfbench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
