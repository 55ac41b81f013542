"""One pass of the benchmark's closed-form and dephasing mixes against the
stored references, so that a drift from ``perfbench/references.json`` fails
here before it fails the benchmark.  The benchmark files are only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py as a module of its own name, with no entry left
    behind in sys.path or sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # read by @dataclass while the file runs
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["closed-form", "dephasing"])
def test_one_pass_matches_the_references(workloads, workload):
    build, _ = workloads.WORKLOADS[workload]
    failures = []
    for op in build(REFERENCES):
        outcome = op.run(0)
        if not outcome.ok:
            failures.append(f"{op.kind} {op.key}: {outcome.route} {outcome.detail}")
    assert not failures
