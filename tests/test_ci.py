import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


def test_ci_runs_the_roadmap_tier1_command():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    setup = next(s for s in job["steps"] if s.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "3.11"
    runs = [s["run"] for s in job["steps"] if "run" in s]
    assert runs[-1] == tier1
    assert all(dep in runs[0].split() for dep in ("numpy", "scipy", "pytest", "hypothesis"))
