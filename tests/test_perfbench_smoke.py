"""One pass of the benchmark's closed-form and dephasing mixes, and of the
symmetry mix's smaller walks, against the stored references, so that a
drift from ``perfbench/references.json`` or an API change the benchmark
reads fails here before it fails the benchmark.  The benchmark files are
only read."""

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


def failures(ops) -> list[str]:
    """One line for each op whose run does not match its reference."""
    out = []
    for op in ops:
        outcome = op.run(0)
        if not outcome.ok:
            out.append(f"{op.kind} {op.key}: {outcome.route} {outcome.detail}")
    return out


@pytest.mark.parametrize("workload", ["closed-form", "dephasing"])
def test_one_pass_matches_the_references(workloads, workload):
    build, _ = workloads.WORKLOADS[workload]
    assert not failures(build(REFERENCES))


def test_symmetry_mix_builds_and_its_small_walks_pass(workloads):
    """Builds every symmetry op, specs up to hypercube:7 included, and runs
    the distinct ones on walks of D <= 160 (hypercube:5 and cayley:s4:3gen)."""
    build, _ = workloads.WORKLOADS["symmetry"]
    small = {id(op): op for op in build(REFERENCES) if op.dim <= 160}
    assert len(small) == 9
    assert not failures(small.values())
