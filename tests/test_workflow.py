from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_ci_workflow_parses():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text())
    steps = doc["jobs"]["tier1"]["steps"]
    runs = [step["run"] for step in steps if "run" in step]
    assert runs and all(isinstance(run, str) for run in runs)
    assert any("pyyaml" in run for run in runs)
