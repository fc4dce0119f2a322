import contextlib
import io
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_prints_what_it_states():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    stated = [
        line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert stated and out.getvalue().splitlines() == stated


def ci_job() -> dict:
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    return job


def test_ci_workflow_runs_both_test_suites():
    job = ci_job()
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    commands = [step["run"] for step in job["steps"] if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", (ROOT / "ROADMAP.md").read_text())
    assert tier1.group(1) in commands
    assert "python -m pytest perfbench -q" in commands


def test_ci_workflow_runs_a_traced_pass_of_every_workload():
    (script,) = [step["run"] for step in ci_job()["steps"] if "perfbench/run.py" in step.get("run", "")]
    assert "--trace 1" in script
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        assert workload["name"] in script
