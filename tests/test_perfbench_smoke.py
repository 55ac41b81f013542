"""One pass of the benchmark's closed-form and dephasing mixes, and of the
symmetry mix's smaller walks, against the stored references, so that a
drift from ``perfbench/references.json`` or an API change the benchmark
reads fails here before it fails the benchmark; the arithmetic of the
dephasing mix's decohered solves and their operator applications; and one
traced CLI run, so that a library name the span tracer wraps cannot vanish
unnoticed.  The benchmark files are only read."""

import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qwlab import cli, decoherence, spectral

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


def load(name: str):
    """perfbench/<name>.py as a module of its own name, with no entry left
    behind in sys.path or sys.modules."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # read by @dataclass while the file runs
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


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


def test_dephasing_mix_solves_in_real_arithmetic(workloads, monkeypatch):
    """Every decohered solve of one dephasing pass runs in float64: the 24
    points with p > 0 and the two solves of each of the 9 slopes; a dft
    walk's point runs in complex128."""
    build, _ = workloads.WORKLOADS["dephasing"]
    ops = build(REFERENCES)
    seen = []  # the right-side dtype of every GMRES solve
    solve = decoherence._gmres

    def recorded(operator, precondition, rhs):
        seen.append(rhs.dtype)
        return solve(operator, precondition, rhs)

    monkeypatch.setattr(decoherence, "_gmres", recorded)
    assert not failures(ops)
    assert len(seen) == 42 and set(seen) == {np.dtype(np.float64)}
    seen.clear()
    argv = ["sweep-decoherence", "--graph", "hypercube:3", "--coin", "dft", "--kinds", "coin", "--p-grid", "0.5"]
    assert cli.main(argv, out=io.StringIO()) == 0
    assert seen == [np.dtype(np.complex128)]


# operator applications per decohered solve of one dephasing pass, sorted,
# as the solver with an lstsq exit test at every step and the Stein
# preconditioner summed to machine epsilon took them
DEPHASING_MIX_APPLICATIONS = [7] * 12 + [10] * 3 + [11] * 15 + [17] * 12


def test_dephasing_mix_takes_no_more_operator_applications(workloads, monkeypatch):
    """Each of the 42 decohered solves of one dephasing pass, ranked by its
    operator applications, takes no more than the pinned count of its rank."""
    build, _ = workloads.WORKLOADS["dephasing"]
    ops = build(REFERENCES)
    counts = []
    solve = decoherence._gmres

    def counted(operator, precondition, rhs):
        calls = []

        def applied(y):
            calls.append(None)
            return operator(y)

        out = solve(applied, precondition, rhs)
        counts.append(len(calls))
        return out

    monkeypatch.setattr(decoherence, "_gmres", counted)
    assert not failures(ops)
    assert len(counts) == len(DEPHASING_MIX_APPLICATIONS)
    assert all(c <= pinned for c, pinned in zip(sorted(counts), DEPHASING_MIX_APPLICATIONS))


def test_symmetry_mix_builds_and_its_small_walks_pass(workloads):
    """Builds every symmetry op, specs up to hypercube:7 included, and runs
    the distinct ones on walks of D <= 160 (hypercube:5 and cayley:s4:3gen)."""
    build, _ = workloads.WORKLOADS["symmetry"]
    small = {id(op): op for op in build(REFERENCES) if op.dim <= 160}
    assert len(small) == 9
    assert not failures(small.values())


def test_symmetry_verdict_on_a_dense_cube_takes_the_fourier_route(workloads, monkeypatch):
    """The symmetry mix's hypercube:5 verdict hands the walk in as its dense
    matrix; it splits the 32 Fourier blocks of 5 x 5 and no 160 x 160 U."""
    build, _ = workloads.WORKLOADS["symmetry"]
    (op,) = {id(op): op for op in build(REFERENCES) if (op.kind, op.key) == ("verdict", "hypercube:5")}.values()
    shapes = []

    def recorded(m, tol):
        shapes.append(m.shape)
        return split(m, tol)

    split = spectral._split_stack
    monkeypatch.setattr(spectral, "_split_stack", recorded)
    assert not failures([op])
    assert (32, 5, 5) in shapes and not [s for s in shapes if s[1:] == (160, 160)]


def test_traced_sweep_counts_kraus_operators_and_uninstalls():
    """The tracer wraps every name spans.py lists (a missing one fails
    install), counts the 3 coin projectors and sqrt(1-p) I of one dephasing
    point, and leaves every qwlab attribute as it found it."""
    spans = load("spans")
    qwlab_modules = [m for k, m in sys.modules.items() if k == "qwlab" or k.startswith("qwlab.")]
    before = {(m, attr): value for m in qwlab_modules for attr, value in vars(m).items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [(m, attr) for m, attr, _ in tracer._saved]
        assert (sys.modules["qwlab.decoherence"], "dephasing_channel") in wrapped
        argv = ["sweep-decoherence", "--graph", "hypercube:3", "--kinds", "coin", "--p-grid", "0.5"]
        assert cli.main(argv, out=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert tracer.counters["decoherence.kraus_ops"] == 4
    assert "decoherence.decohered_hitting_time" in {s.name for s in tracer.spans}
    assert all(getattr(m, attr) is before[m, attr] for m, attr in wrapped)
