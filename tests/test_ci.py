import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


def tier1_job() -> dict:
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    return job


def installed(job) -> dict:
    """Package name -> its pinned version ("" if unpinned), as the job's
    first run step installs them."""
    words = shlex.split(next(s["run"] for s in job["steps"] if "run" in s))
    return dict((w.split("==") + [""])[:2] for w in words[words.index("install") + 1:])


def test_ci_runs_the_roadmap_tier1_command():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    job = tier1_job()
    setup = next(s for s in job["steps"] if s.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "3.11"
    runs = [s["run"] for s in job["steps"] if "run" in s]
    assert runs[-1] == tier1
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= set(installed(job))


@pytest.mark.parametrize("module", [np, scipy], ids=lambda mod: mod.__name__)
def test_ci_pins_the_running_library_versions(module):
    # the GOLDEN digests hash float output written under these versions
    major_minor = ".".join(module.__version__.split(".")[:2])
    assert installed(tier1_job())[module.__name__] == f"{major_minor}.*"


def test_ci_gates_every_benchmark_workload():
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    (gate,) = [s["run"] for s in tier1_job()["steps"]
               if "perfbench/run.py" in s.get("run", "")]
    assert re.search(r"for w in ([^;]+);", gate).group(1).split() == workloads
    assert 'perfbench/run.py --workload "$w" --seconds 1 | tail -n 1' in gate
    assert 'r["correct"] is True and r["failed"] == 0' in gate


def test_ci_job_has_a_time_limit():
    # without one a runaway run holds the job for GitHub's default 6 hours
    assert tier1_job()["timeout-minutes"] == 20


def test_ci_verifies_a_high_degree_map_before_tier1():
    steps = tier1_job()["steps"]
    names = [s.get("name") for s in steps]
    at = names.index("High-degree verify")
    assert at < names.index("Tier-1 tests") == len(steps) - 1
    run = steps[at]["run"]
    config = json.loads(re.search(r"printf '([^']+)' > \"(\S+)\"", run).group(1))
    assert config == {"map": {"family": "perturbed", "w": 7, "eps": 0.5}}
    assert "PYTHONPATH=src python -m expcircle verify --config" in run
