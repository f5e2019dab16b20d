"""The CI workflow runs the tier-1 command that ROADMAP.md names, under a
time limit, read as plain text (CI installs no YAML parser)."""

import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_workflow_runs_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, flags=re.MULTILINE)
    assert command, "ROADMAP.md names no tier-1 command"
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    assert f"run: {command[1]}" in lines


def test_workflow_job_has_time_limit():
    assert re.search(r"^    timeout-minutes: \d+$", WORKFLOW.read_text(encoding="utf-8"),
                     flags=re.MULTILINE)
