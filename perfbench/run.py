"""Closed-loop benchmark of qwlab: one caller, each operation issued after the
previous one returns.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for the exact mixes):

- ``closed-form``: expected hitting times of unitary measured walks, D=12..40,
  on all three routes (closed form, pseudo-inverse, infinite).  Nearly all
  time goes to the D^2 x D^2 superoperator and its SVD/solve.
- ``dephasing``: single ``sweep-decoherence`` points on hypercube:3 (D=24)
  and cycle:16 (D=32), slopes at three interior points and one decohered
  series.  Exercises the Kraus superoperator and reuses the closed-form
  engine on non-unitary maps.
- ``symmetry``: quotient, spectrum, full-group verdict, series, Monte Carlo
  and DFS check on hypercube:5-7 (D up to 896) and cayley:s4:3gen.  Builds
  no superoperator: the bypass workload for changes to the D^2 path.

A run sets up the workload three times (graph and spec builds, reference
load, warm-up at a representative size); ``setup_s`` is the import time plus
the median set-up.  It then measures whole passes until at least
``--seconds`` have elapsed; each pass issues every operation of the mix
once, in an order shuffled by ``--seed``, which also seeds Monte Carlo.
Every result is checked against ``references.json``.  An operation fails if
it raises, exits nonzero, or disagrees with its reference; failures count in
``failed`` and in ``failed_ops_ratio`` (summary file, and per-layer output).

``--trace 0`` reports the end-to-end metrics (``op_ms_p50`` is the
Harrell-Davis estimate of the median latency, ``op_ms_p90`` the
interpolated 90th percentile); ``--trace 1`` first measures
untraced passes for half the time, then installs span tracing (spans.py) and
measures traced passes, and reports the per-layer metrics per traced pass
plus the traced/untraced wall-time ratio.  The last line of standard output
is one JSON object; per-operation rows, the summary with the environment
(Python, numpy, BLAS and its thread count, CPUs) and, when traced, the spans
are written under ``perfbench/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads; repeats spread least at one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3


def fix_mmap_threshold():
    """Serve every allocation above 128 KiB by its own mmap (glibc only).

    glibc otherwise raises the threshold after the first large free and
    recycles big arrays from the heap, so the peak RSS would depend on the
    shuffled operation order rather than on the arrays alive at once.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def import_library():
    """Import numpy and qwlab from this checkout; return the import time."""
    if not (SRC / "qwlab" / "__init__.py").is_file():
        raise ImportError(f"qwlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import qwlab

    elapsed = time.perf_counter() - t0
    if Path(qwlab.__file__).resolve().parent != (SRC / "qwlab").resolve():
        raise ImportError(f"qwlab imported from {qwlab.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def setup(workload: str):
    """Build the operation list and warm up; returns (ops, seconds)."""
    import workloads

    t0 = time.perf_counter()
    refs = json.loads((HERE / "references.json").read_text())
    build, warmup = workloads.WORKLOADS[workload]
    ops = build(refs)
    warmup()
    return ops, time.perf_counter() - t0


def run_pass(ops, rng: random.Random, tracer, pass_no: int, rows: list) -> float:
    """Issue every operation once in a shuffled order; returns the wall time."""
    import workloads

    order = list(range(len(ops)))
    rng.shuffle(order)
    start = time.perf_counter()
    for i in order:
        op = ops[i]
        seed = rng.randrange(2**31)
        if tracer is not None:
            tracer.op = len(rows)
        t0 = time.perf_counter()
        try:
            outcome = op.run(seed)
        except Exception as exc:  # any raise is a failed operation, recorded below
            outcome = workloads.Outcome("error", False, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        rows.append({
            "pass": pass_no, "traced": int(tracer is not None), "kind": op.kind,
            "key": op.key, "dim": op.dim, "route": outcome.route,
            "latency_ms": latency * 1e3, "ok": int(outcome.ok),
            "series_gap": outcome.series_gap, "detail": outcome.detail,
        })
    return time.perf_counter() - start


def measure(ops, rng, seconds: float, tracer, rows) -> list[float]:
    """Whole passes until at least ``seconds`` have elapsed."""
    walls = []
    while sum(walls) < seconds or not walls:
        walls.append(run_pass(ops, rng, tracer, len({r["pass"] for r in rows}), rows))
    return walls


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def harrell_davis(values, q: float, grid: int = 20_000) -> float:
    """Harrell-Davis estimate of the q-quantile.

    The mean of the order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    density.  For the median of a pass the weights cover the handful of
    latencies around the middle rank, all inside the block of same-size
    operations the mixes put there, so the estimate moves less from run to
    run than any single latency does.  (At q = 0.9 the weights would reach
    past the four-operation top block of ``closed-form`` into other sizes,
    so p90 keeps the interpolated order statistic.)
    """
    import numpy as np

    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    mid = (np.arange(grid) + 0.5) / grid
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(grid + 1) / grid, cdf))
    return float(weights @ xs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("closed-form", "dephasing", "symmetry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fix_mmap_threshold()
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        ops, seconds = setup(args.workload)
        setups.append(seconds)
    rng = random.Random(args.seed)
    rows: list[dict] = []

    tracer = None
    if args.trace:
        import spans

        untraced = measure(ops, rng, args.seconds / 2, None, rows)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(ops, rng, args.seconds / 2, tracer, rows)
        finally:
            tracer.uninstall()
        walls = untraced + traced
    else:
        walls = measure(ops, rng, args.seconds, None, rows)

    attempted = len(rows)
    failed = sum(1 - r["ok"] for r in rows)
    gaps = [r["series_gap"] for r in rows if r["series_gap"] is not None]
    if args.trace:
        layer = spans.per_layer_metrics(tracer, len(traced))
        layer["trace.overhead_ratio"] = (statistics.mean(traced) / statistics.mean(untraced), "ratio")
        layer["hitting.series_rel_gap_max"] = (max(gaps, default=0.0), "ratio")
        layer["failed_ops_ratio"] = (failed / attempted, "ratio")
        metrics = layer
    else:
        latencies = [r["latency_ms"] for r in rows]
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "ops_per_s": (attempted / sum(walls), "1/s"),
            "op_ms_p50": (harrell_davis(latencies, 0.5), "ms"),
            "op_ms_p90": (percentile(latencies, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}-ops.csv", "w", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=["workload", *rows[0].keys()])
        out.writeheader()
        for r in rows:
            out.writerow({"workload": args.workload, **r})
    if tracer is not None:
        tracer.write(f"{stem}-spans.csv")
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "import_s": import_s, "setup_runs_s": setups, "pass_walls_s": walls,
        "attempted": attempted, "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "series_rel_gap_max": max(gaps, default=None),
        "failures": [r for r in rows if not r["ok"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    Path(f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"environment": summary["environment"], "failed_ops_ratio": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
