"""Write references.json: the expected result of every benchmark operation.

Each stored value is computed by the route the benchmark exercises and
then cross-checked by a second, independent route; the script stops
without writing if any cross-check fails.

- Closed forms: against the survival sum vec(I) . (I - N)^-1 vec(rho0)
  or, where I - N is singular, a tight-epsilon truncated series.
- Escape masses: the trapped projector against the closed form's
  infinite verdict and the series' stall estimate.
- Decohered closed forms: the same way; slopes against central
  differences of the closed form.
- Trapped dimensions: eigenvalue clustering against the rank of the
  Krylov (observability) space of U and the final projector.
- Hypercube quotients: against the Hamming-weight line walk.
- The classical recursion: against a linear solve on the full graph.

Run from the repository root:  python3 perfbench/make_references.py
It takes about a minute on one core.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from qwlab import cli, decoherence, graphs, groups, hitting, quotient, spectral, walk  # noqa: E402

import workloads as W  # noqa: E402

TIGHT_EPS = 1e-12
STALL_WINDOW = 200_000
SERIES_CAP = 5_000_000


class CrossCheckError(Exception):
    pass


def require(cond: bool, what: str):
    if not cond:
        raise CrossCheckError(what)


def cli_spec(argv: list[str]) -> hitting.MeasuredWalkSpec:
    """The measured walk ``qwlab hitting`` builds for these arguments."""
    args = cli.build_parser().parse_args(argv)
    g, cay, _ = cli.resolve_graph(args.graph, args.graph_file)
    coin = cli.resolve_coin(args.coin, g.degree_value)
    op = walk.evolution_operator(g, coin)
    final = cli.resolve_final(args.final, g, cay)
    return hitting.measured_walk(op, cli.resolve_start(args.start, g), final_vertices=final)


def survival_tau(n_mat: np.ndarray, rho0: np.ndarray) -> float:
    """tau = sum_t Pr(T > t) = vec(I) . (I - N)^-1 vec(rho0).

    One resolvent of the survive map and no detect map, where the program's
    formula applies the detect map Y to the squared resolvent.
    """
    d = rho0.shape[0]
    x = np.linalg.solve(np.eye(d * d) - n_mat, rho0.reshape(-1))
    return float(np.trace(x.reshape(d, d)).real)


def finite_reference(res: hitting.HittingResult, cross: float, how: str) -> dict:
    gap = (res.value - cross) / res.value
    require(abs(gap) <= 1e-8, f"{how} cross-check gap {gap:.3e}")
    return {"kind": "finite", "tau": res.value, "route": res.method, how: cross}


def series_tau(series_fn) -> float:
    series = series_fn(TIGHT_EPS, step_cap=SERIES_CAP, stall_window=STALL_WINDOW)
    require(series.is_finite, "series did not arrive")
    return series.value


def hitting_reference(spec: hitting.MeasuredWalkSpec) -> dict:
    """Closed form, cross-checked by the survival sum or (when I - N is
    singular) by a tight-epsilon series; escape masses by three routes."""
    res = hitting.hitting_time_closed_form(spec)
    if res.is_finite and res.method == hitting.METHOD_CLOSED_FORM:
        a = spec.walk.matrix.copy()
        a[spec.final_array, :] = 0.0
        return finite_reference(res, survival_tau(np.kron(a, a.conj()), spec.rho0),
                                "survival_sum_tau")
    series = functools.partial(hitting.hitting_time_series, spec)
    if res.is_finite:
        return finite_reference(res, series_tau(series), "series_tau")
    report = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
    state = spec.psi0 if spec.psi0 is not None else spec.rho0
    escape = spectral.escape_probability(report, state)
    require(abs(escape - res.escape_probability) <= 1e-12, "closed-form escape")
    stalled = series(TIGHT_EPS, step_cap=SERIES_CAP, stall_window=10_000)
    require(not stalled.is_finite, "series did not stall")
    require(abs(stalled.escape_probability - escape) <= 1e-8, "series escape estimate")
    return {"kind": "infinite", "escape": escape, "route": "infinite",
            "series_escape": stalled.escape_probability}


def closed_form_references() -> dict:
    out = {}
    for n in W.CYCLE_SIZES:
        out[f"cycle:{n}"] = hitting_reference(cli_spec(["hitting", "--graph", f"cycle:{n}"]))
    for n in W.LINE_SIZES:
        out[f"line:{n}"] = hitting_reference(W.line_spec(n))
    walks = {**W.SMALL_WALKS, **W.PINV_WALKS, **W.INFINITE_WALKS}
    for key, argv in walks.items():
        out[key] = hitting_reference(cli_spec(argv))
        print(key, out[key], flush=True)
    return out


def decohered_reference(spec, kind: str, p: float) -> dict:
    g = spec.walk.graph
    ch = decoherence.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
    res = decoherence.decohered_hitting_time(spec, ch)
    require(res.is_finite, "decohered walk should arrive")
    if res.method == hitting.METHOD_CLOSED_FORM:
        n_d, _ = decoherence.decohered_superoperators(spec, ch)
        return finite_reference(res, survival_tau(n_d, spec.rho0), "survival_sum_tau")
    series = functools.partial(decoherence.decohered_hitting_series, spec, ch)
    return finite_reference(res, series_tau(series), "series_tau")


def dephasing_references() -> dict:
    out = {}
    for descr in W.DEPHASING_GRAPHS:
        spec = W.dephasing_spec(descr)
        for kind in W.DEPHASING_KINDS:
            for p in W.DEPHASING_PS:
                out[f"{descr}/{kind}/{p}"] = decohered_reference(spec, kind, float(p))
                print(descr, kind, p, out[f"{descr}/{kind}/{p}"], flush=True)
    spec = W.dephasing_spec("hypercube:3")
    g = spec.walk.graph
    h = 1e-4
    for kind, p in W.SLOPE_POINTS:
        slope = decoherence.hitting_time_slope(spec, kind, p)
        tau = [
            decoherence.decohered_hitting_time(
                spec, decoherence.dephasing_channel(kind, q, g.num_vertices, g.degree_value)
            ).value
            for q in (p - h, p + h)
        ]
        fd = (tau[1] - tau[0]) / (2 * h)
        require(abs(slope - fd) <= 1e-4 * abs(slope), f"slope {kind} {p}: {slope} vs {fd}")
        out[f"slope/{kind}/{p}"] = {"slope": slope, "central_difference": fd}
    return out


def krylov_trapped_dim(u: np.ndarray, final_indices, tol: float = 1e-8) -> int:
    """D minus the dimension of the smallest U-invariant space holding ran(P_f).

    For a unitary U that invariant space is reducing, so its orthogonal
    complement is exactly the span of eigenvectors with no final overlap.
    """
    d = u.shape[0]
    block = np.zeros((d, len(final_indices)), dtype=complex)
    block[np.asarray(final_indices), np.arange(len(final_indices))] = 1.0
    basis = np.zeros((d, 0), dtype=complex)
    while block.shape[1]:
        for _ in range(2):  # classical Gram-Schmidt, repeated for stability
            block = block - basis @ (basis.conj().T @ block)
        w, s, _ = np.linalg.svd(block, full_matrices=False)
        new = w[:, s > tol]
        basis = np.hstack([basis, new])
        block = u @ new
    return d - basis.shape[1]


def symmetry_references() -> dict:
    out = {}
    for n in W.SYMMETRY_CUBES:
        descr = f"hypercube:{n}"
        g, cay, op = W.graph_walk(descr)
        idx = graphs.BasisIndexing.from_graph(g)
        final = idx.indices_for([g.num_vertices - 1])

        report = spectral.infinite_hitting_projector(op.matrix, final)
        trapped = report.trace_int
        require(krylov_trapped_dim(op.matrix, final) == trapped, f"{descr} trapped dim")

        gens = [
            groups.direction_perm_to_automorphism(cay, groups.parse_cycles(t, n))
            for t in W.adjacent_transpositions(n)
        ]
        basis = quotient.orbit_basis(groups.closure(gens, dim=idx.total_dim), idx.total_dim)
        line = quotient.hypercube_line_reduction(n)
        u_h = quotient.quotient_walk(op.matrix, basis)
        require(np.max(np.abs(u_h - line.matrix)) <= 1e-12, f"{descr} quotient vs line walk")
        verdict = quotient.quotient_infinite_hitting(op.matrix, basis, final)
        require(krylov_trapped_dim(line.matrix, [line.final_index]) == verdict.intersection_dim,
                f"{descr} verdict vs line-walk Krylov rank")
        _, qg = quotient.quotient_shift_and_graph(graphs.shift_matrix(g), basis, graph=g)

        line_ref = hitting_reference(W.line_spec(n))
        require(line_ref["kind"] == "finite", "line walk arrives")

        classical = hitting.classical_hypercube_hitting(n)
        adj = graphs.adjacency_matrix(graphs.build_hypercube(n))
        target = g.num_vertices - 1
        keep = [v for v in range(g.num_vertices) if v != target]
        p = adj / adj.sum(axis=1, keepdims=True)
        times = np.linalg.solve(np.eye(len(keep)) - p[np.ix_(keep, keep)], np.ones(len(keep)))
        require(abs(times[0] - classical) <= 1e-9 * classical, f"{descr} classical recursion")

        out[descr] = {
            "num_orbits": basis.num_orbits,
            "quotient_vertices": qg.num_vertices,
            "trapped_dim": trapped,
            "intersection_dim": verdict.intersection_dim,
            "line_tau": line_ref["tau"],
            "line_survival_sum_tau": line_ref["survival_sum_tau"],
            "classical_tau": classical,
            "classical_linear_solve": float(times[0]),
        }
        print(descr, out[descr], flush=True)

    g, cay, op = W.graph_walk(W.S4)
    idx = graphs.BasisIndexing.from_graph(g)
    final = idx.indices_for(W.s4_finals(cay))
    report = spectral.infinite_hitting_projector(op.matrix, final)
    require(krylov_trapped_dim(op.matrix, final) == report.trace_int, "s4 trapped dim")
    gens = [
        groups.direction_perm_to_automorphism(cay, groups.parse_cycles(t, cay.degree))
        for t in W.adjacent_transpositions(cay.degree)
    ]
    basis = quotient.orbit_basis(groups.closure(gens, dim=idx.total_dim), idx.total_dim)
    verdict = quotient.quotient_infinite_hitting(op.matrix, basis, final)
    u_h = quotient.quotient_walk(op.matrix, basis)
    fin_h = [j for j, orb in enumerate(basis.orbits) if set(orb) <= set(int(i) for i in final)]
    require(krylov_trapped_dim(u_h, fin_h) == verdict.intersection_dim, "s4 quotient Krylov rank")
    _, qg = quotient.quotient_shift_and_graph(graphs.shift_matrix(g), basis, graph=g)
    out[W.S4] = {
        "num_orbits": basis.num_orbits,
        "quotient_vertices": qg.num_vertices,
        "trapped_dim": report.trace_int,
        "intersection_dim": verdict.intersection_dim,
        "finals": W.s4_finals(cay),
        "note": "finals of acceptance criterion 12/S4, which expects 0; the program's "
                "two verdict routes and the Krylov rank of the reduced walk agree on "
                "this value",
    }
    print(W.S4, out[W.S4], flush=True)
    return out


def main() -> int:
    refs = {
        "generated_with": {"numpy": np.__version__, "python": sys.version.split()[0]},
        "closed-form": closed_form_references(),
        "dephasing": dephasing_references(),
        "symmetry": symmetry_references(),
    }
    path = HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
