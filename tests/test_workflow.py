"""The CI workflow file parses and keeps its tier-1 step."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def _steps():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [step for job in doc["jobs"].values() for step in job["steps"]]


def test_every_step_runs_or_uses_exactly_one_thing():
    # a mis-indented "run:" turns into part of another key and the step does nothing
    for step in _steps():
        assert ("run" in step) != ("uses" in step), step


def test_tier1_step_keeps_its_timeout_and_pytest_command():
    (tier1,) = [step for step in _steps() if step.get("name") == "Tier-1 tests"]
    assert isinstance(tier1.get("timeout-minutes"), int)
    assert "python -m pytest" in tier1["run"]
