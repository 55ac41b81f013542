"""Command-line driver for walk experiments.

Subcommands mirror the library: ``hitting``, ``sweep-decoherence``,
``spectrum``, ``quotient``, ``dfs``, ``classical``.  Every output embeds a
reproducibility manifest (command, graph, coin, seeds, tolerances, tool
version) and CSV bodies end with comment lines carrying the manifest and
its SHA-256 hash.  Exit codes: 0 success, 1 bad arguments or input or
out of memory, 2 indeterminate computation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__, decoherence, graphs, groups, hitting, quotient, spectral, walk
from .errors import IndeterminateError, QwlabError, ThresholdUnreachableError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with code 2 by default
        raise UsageError(message)


# ----------------------------------------------------------------------
# Argument resolution
# ----------------------------------------------------------------------

def _cayley(cay: graphs.CayleyGraph):
    return cay.graph, cay


# shorthand -> builder of (ColoredGraph, CayleyGraph | None); ":n" takes the size
GRAPHS = {
    "edge": lambda: (graphs.build_edge_graph(), None),
    "hypercube:n": lambda n: _cayley(graphs.cayley_hypercube(n)),
    "cycle:n": lambda n: (graphs.build_cycle(n), None),
    "distorted-hypercube:n": lambda n: (graphs.build_distorted_hypercube(n), None),
    "cayley:s3:2gen": lambda: _cayley(graphs.cayley_s3_2gen()),
    "cayley:s3:3gen": lambda: _cayley(graphs.cayley_s3_3gen()),
    "cayley:s4:3gen": lambda: _cayley(graphs.cayley_s4_3gen()),
}


def resolve_graph(descriptor: str, graph_file: str | None):
    """Return (ColoredGraph, CayleyGraph | None, descriptor)."""
    if graph_file is not None:
        with open(graph_file, "r", encoding="utf-8") as fh:
            return graphs.graph_from_json(fh.read()), None, f"file:{graph_file}"
    kind, _, size = descriptor.partition(":")
    try:
        if descriptor in GRAPHS:
            return (*GRAPHS[descriptor](), descriptor)
        if f"{kind}:n" in GRAPHS:
            return (*GRAPHS[f"{kind}:n"](int(size)), descriptor)
    except ValueError as exc:
        raise UsageError(f"bad graph descriptor {descriptor!r}: {exc}") from None
    raise UsageError(f"unknown graph {descriptor!r}; shorthands: {', '.join(GRAPHS)}")


def resolve_coin(name: str, degree: int) -> walk.Coin:
    if name == "grover":
        return walk.grover_coin(degree)
    if name == "dft":
        return walk.dft_coin(degree)
    raise UsageError(f"unknown coin {name!r} (grover, dft)")


def resolve_final(tokens: str, g: graphs.ColoredGraph, cay) -> tuple[int, ...]:
    """Final vertices: 'all-ones', 'all-ones-but-last', 'v<ID>', 'w<COLORS>'."""
    out = []
    for tok in tokens.split(","):
        tok = tok.strip()
        if tok == "all-ones":
            out.append(g.num_vertices - 1)
        elif tok == "all-ones-but-last":
            out.append(g.num_vertices - 2)
        elif tok.startswith("v"):
            out.append(int(tok[1:]))
        elif tok.startswith("w"):
            if cay is None:
                raise UsageError("word finals need a Cayley graph")
            out.append(cay.vertex_of_word(int(c) for c in tok[1:]))
        else:
            raise UsageError(f"bad final token {tok!r}")
    for v in out:
        if not 0 <= v < g.num_vertices:
            raise UsageError(f"final vertex {v} out of range")
    return tuple(sorted(set(out)))


def resolve_start(token: str, g: graphs.ColoredGraph) -> np.ndarray:
    if token == "symmetric":
        return hitting.symmetric_state(g, 0)
    kind, *place = token.split(":")
    if kind == "basis" and len(place) == 2 and all(p.removeprefix("-").isdigit() for p in place):
        return hitting.basis_state(g, int(place[0]), int(place[1]))
    raise UsageError(f"bad start {token!r} (symmetric or basis:v:c)")


def resolve_subgroup(tokens: list[str], cay) -> tuple[groups.Permutation, ...]:
    """Basis automorphisms lifted from direction permutations: the subgroup's
    generators, which is all the orbit and quotient code needs."""
    if cay is None:
        raise UsageError("subgroups are specified for Cayley graphs only")
    return tuple(
        groups.direction_perm_to_automorphism(cay, groups.parse_cycles(text, cay.degree))
        for text in tokens
    )


# ----------------------------------------------------------------------
# Output plumbing
# ----------------------------------------------------------------------

def _manifest(command: str, **fields) -> dict:
    """A subcommand's manifest: its fields plus the versions every one records."""
    return {"command": command, **fields, "numpy_version": np.__version__,
            "tool_version": __version__}


def manifest_json(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(manifest_json(manifest).encode()).hexdigest()


def emit_csv(out, header: list[str], rows: list[list], manifest: dict):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if x is None else str(x) for x in row))
    lines.append(f"# manifest={manifest_json(manifest)}")
    lines.append(f"# manifest-sha256={manifest_hash(manifest)}")
    out.write("\n".join(lines) + "\n")


def emit_json(out, payload: dict, manifest: dict):
    payload = dict(payload)
    payload["manifest"] = manifest
    payload["manifest_sha256"] = manifest_hash(manifest)
    out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _result_row(result: hitting.HittingResult) -> list:
    return [
        result.kind,
        None if result.value is None else f"{result.value:.12g}",
        result.method,
        None if result.escape_probability is None else f"{result.escape_probability:.12g}",
        None if result.arrival_mass is None else f"{result.arrival_mass:.12g}",
    ]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _measured_walk(args):
    """(graph, manifest fields, spec) for the walk that --graph, --coin,
    --final and --start describe."""
    g, cay, descr = resolve_graph(args.graph, args.graph_file)
    coin = resolve_coin(args.coin, g.degree_value)
    final = resolve_final(args.final, g, cay)
    start = resolve_start(args.start, g)
    op = walk.evolution_operator(g, coin)
    fields = {"graph": descr, "coin": args.coin, "start": args.start, "final": list(final)}
    return g, fields, hitting.measured_walk(op, start, final_vertices=final)


def cmd_hitting(args, out) -> int:
    _, fields, spec = _measured_walk(args)
    manifest = _manifest(
        "hitting",
        **fields,
        method=args.method,
        epsilon=args.epsilon,
        step_cap=args.step_cap,
        tolerances={
            "singular_rtol": hitting.SINGULAR_RTOL,
            "escape_atol": hitting.ESCAPE_ATOL,
        },
    )
    if args.method == "series":
        result = hitting.hitting_time_series(spec, args.epsilon, step_cap=args.step_cap)
    else:
        result = hitting.hitting_time_closed_form(spec)
    if args.distribution is not None:  # before the row, so a failure prints nothing
        dist = hitting.first_hit_distribution(spec, args.horizon)
        body = hitting.distribution_csv(dist)
        with open(args.distribution, "w", encoding="utf-8") as fh:
            fh.write(body)
            fh.write(f"# manifest-sha256={manifest_hash(manifest)}\n")
    header = ["graph", "kind", "tau", "method", "escape", "arrival_mass"]
    emit_csv(out, header, [[fields["graph"]] + _result_row(result)], manifest)
    return 0


def cmd_sweep(args, out) -> int:
    g, fields, spec = _measured_walk(args)
    grid = [float(tok) for tok in args.p_grid.split(",")]
    kinds = args.kinds.split(",")
    manifest = _manifest(
        "sweep-decoherence",
        **fields,
        kinds=kinds,
        p_grid=grid,
        tolerances={
            "singular_rtol": hitting.SINGULAR_RTOL,
            "escape_atol": hitting.ESCAPE_ATOL,
            "gmres_rtol": decoherence.GMRES_RTOL,
            "gmres_restart": decoherence.GMRES_RESTART,
            "gmres_stall": decoherence.GMRES_STALL,
        },
    )
    rows = []
    for kind in kinds:
        for p in grid:
            ch = decoherence.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
            result = decoherence.decohered_hitting_time(spec, ch)
            rows.append([kind, f"{p:.12g}"] + _result_row(result)[1:4])
    emit_csv(out, ["kind", "p", "tau", "method", "escape"], rows, manifest)
    return 0


def cmd_spectrum(args, out) -> int:
    g, cay, descr = resolve_graph(args.graph, args.graph_file)
    coin = resolve_coin(args.coin, g.degree_value)
    final = resolve_final(args.final, g, cay)
    op = walk.evolution_operator(g, coin)
    idx = graphs.BasisIndexing.from_graph(g)
    report = spectral.infinite_hitting_projector(op, idx.indices_for(final))
    payload = spectral.report_to_dict(report)
    payload["zero_coin_eigenvalues"] = {
        str(block.vertex): block.zero_eigenvalue_count
        for block in spectral.coin_overlap_matrices(report, g)
    }
    payload["degeneracy_condition"] = spectral.degeneracy_condition(
        report.clusters, g.degree_value
    )
    manifest = _manifest("spectrum", graph=descr, coin=args.coin, final=list(final))
    emit_json(out, payload, manifest)
    return 0


def cmd_quotient(args, out) -> int:
    g, cay, descr = resolve_graph(args.graph, args.graph_file)
    gens = resolve_subgroup(args.subgroup, cay)
    dim = graphs.BasisIndexing.from_graph(g).total_dim
    basis = quotient.orbit_basis(gens, dim)
    sh, qg = quotient.quotient_shift_and_graph(graphs.shift_permutation(g), basis, graph=g)
    payload = {
        "orbits": [list(o) for o in basis.orbits],
        "quotient_graph": quotient.quotient_graph_to_dict(qg),
        "s_h": sh.tolist(),
    }
    if args.coin is not None:
        coin = resolve_coin(args.coin, g.degree_value)
        op = walk.evolution_operator(g, coin)
        uh = quotient.quotient_walk(op, basis)
        payload["u_h"] = walk.matrix_to_json(uh)
    manifest = _manifest("quotient", graph=descr, coin=args.coin, subgroup=args.subgroup)
    emit_json(out, payload, manifest)
    return 0


def cmd_dfs(args, out) -> int:
    g, cay, descr = resolve_graph(args.graph, args.graph_file)
    n = g.degree_value
    if n < 2:  # before the uniform kappas divide by sqrt(n - 1)
        raise ValueError("swap dephasing needs n >= 2")
    if args.kappas == "uniform":
        kappas = [1.0 / np.sqrt(n - 1)] * (n - 1)
    else:
        kappas = [float(t) for t in args.kappas.split(",")]
    # the adjacent transpositions are the channel's and the default subgroup
    adjacent = [f"({i},{i + 1})" for i in range(1, n)]
    swaps = resolve_subgroup(adjacent, cay)
    ch = decoherence._swap_dephasing(swaps, kappas)
    subgroup = args.subgroup or adjacent
    gens = resolve_subgroup(args.subgroup, cay) if args.subgroup else swaps
    dim = graphs.BasisIndexing.from_graph(g).total_dim
    basis = quotient.orbit_basis(gens, dim)
    verdict = decoherence.dfs_check_kraus(ch, basis.matrix)
    payload = {
        "is_dfs": verdict.is_dfs,
        "coefficients": None
        if verdict.coefficients is None
        else [[c.real, c.imag] for c in verdict.coefficients],
        "witness": None if verdict.witness is None else list(verdict.witness),
        "num_orbits": basis.num_orbits,
    }
    manifest = _manifest("dfs", graph=descr, kappas=kappas, subgroup=subgroup)
    emit_json(out, payload, manifest)
    return 0


def cmd_classical(args, out) -> int:
    n = args.hypercube
    tau = hitting.classical_hypercube_hitting(n)
    manifest = _manifest("classical", hypercube=n, mc_trials=args.mc_trials, seed=args.seed)
    row = [n, f"{tau:.12g}", None, None, args.mc_trials, args.seed]
    if args.mc_trials:
        g = graphs.build_hypercube(n)
        est = hitting.classical_hitting_monte_carlo(
            g, 0, g.num_vertices - 1, args.mc_trials, args.seed
        )
        row[2] = f"{est.mean:.12g}"
        row[3] = f"{est.stderr:.12g}"
    emit_csv(
        out,
        ["n", "tau_recursion", "mc_mean", "mc_stderr", "trials", "seed"],
        [row],
        manifest,
    )
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="qwlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("--graph", default="edge", help="graph shorthand")
        p.add_argument("--graph-file", default=None, help="graph JSON file")

    p = sub.add_parser("hitting", help="hitting time of a measured walk")
    add_graph_args(p)
    p.add_argument("--coin", default="grover")
    p.add_argument("--start", default="symmetric")
    p.add_argument("--final", default="all-ones")
    p.add_argument("--method", choices=("closed-form", "series"), default="closed-form")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--step-cap", type=int, default=hitting.DEFAULT_STEP_CAP)
    p.add_argument("--distribution", default=None, help="write (t, p_t, cumulative) CSV here")
    p.add_argument("--horizon", type=int, default=200, help="steps in the distribution CSV")
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("sweep-decoherence", help="hitting time over a dephasing grid")
    add_graph_args(p)
    p.add_argument("--coin", default="grover")
    p.add_argument("--start", default="symmetric")
    p.add_argument("--final", default="all-ones")
    p.add_argument("--kinds", default="both", help="comma list of both,coin,position")
    p.add_argument("--p-grid", default="0,0.2,0.4,0.6,0.8,1", help="comma list of p values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="eigenvalue clusters and trapped projector")
    add_graph_args(p)
    p.add_argument("--coin", default="grover")
    p.add_argument("--final", default="all-ones")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("quotient", help="orbit basis and reduced walk")
    add_graph_args(p)
    p.add_argument("--coin", default=None)
    p.add_argument(
        "--subgroup",
        action="append",
        required=True,
        help="direction permutation in cycle notation; repeatable",
    )
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("dfs", help="decoherence-free-subspace check under direction-swap dephasing")
    add_graph_args(p)
    p.add_argument("--kappas", default="uniform")
    p.add_argument(
        "--subgroup",
        action="append",
        default=None,
        help="direction permutation generators; default all adjacent transpositions",
    )
    p.set_defaults(func=cmd_dfs)

    p = sub.add_parser("classical", help="classical hypercube baselines")
    p.add_argument("--hypercube", type=int, required=True)
    p.add_argument("--mc-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classical)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IndeterminateError, ThresholdUnreachableError) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except (QwlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
