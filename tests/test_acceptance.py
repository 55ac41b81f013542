"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line; run with ``pytest -v`` (or ``-s``
to see the lines inline).  The battery used by criteria 7 and 8 spans
cycles, hypercubes up to n = 3, the two permutation Cayley graphs, and the
rewired hypercube, all with walk-space dimension at most 128.
"""

import time

import numpy as np
import pytest

from qwlab import decoherence as deco
from qwlab import graphs, groups, hitting, quotient, spectral, walk

from conftest import battery, full_direction_group

_cache: dict = {}


def cube_operator(n, coin_kind):
    key = ("op", n, coin_kind)
    if key not in _cache:
        g = graphs.build_hypercube(n)
        coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
        _cache[key] = (g, walk.evolution_operator(g, coin))
    return _cache[key]


def cube_spec(n, coin_kind, start="symmetric"):
    g, op = cube_operator(n, coin_kind)
    psi = hitting.symmetric_state(g, 0) if start == "symmetric" else hitting.basis_state(g, 0, 1)
    return hitting.measured_walk(op, psi, final_vertices=[2 ** n - 1])


def cube_report(n, coin_kind):
    key = ("report", n, coin_kind)
    if key not in _cache:
        g, op = cube_operator(n, coin_kind)
        fin = graphs.BasisIndexing.from_graph(g).indices_for([2 ** n - 1])
        _cache[key] = spectral.infinite_hitting_projector(op.matrix, fin)
    return _cache[key]


def test_criterion_01_dft_cube_escape_probability():
    started = time.time()
    spec = cube_spec(4, "dft")
    result = hitting.hitting_time_closed_form(spec)
    assert not result.is_finite
    assert result.escape_probability == pytest.approx(0.4286, abs=5e-4)
    mass = hitting.first_hit_distribution(spec, 2000).sum()
    assert mass == pytest.approx(1.0 - result.escape_probability, abs=2e-3)
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(
        f"[criterion 1] PASS escape={result.escape_probability:.6f} "
        f"mass@2000={mass:.6f} ({elapsed:.1f}s)"
    )


def test_criterion_02_dft_cube_degeneracies():
    started = time.time()
    _, op = cube_operator(4, "dft")
    clusters = spectral.eigenspace_clusters(op.matrix)
    mults = {}
    for target in (1, -1, 1j, -1j):
        match = [c.multiplicity for c in clusters if abs(c.eigenvalue - target) < 1e-8]
        assert match == [8]
        mults[target] = match[0]
    elapsed = time.time() - started
    assert elapsed < 30.0
    print(f"[criterion 2] PASS multiplicities {mults} ({elapsed:.1f}s)")


def test_criterion_03_uniform_cube_projector_trace():
    started = time.time()
    report = cube_report(4, "grover")
    assert report.dim == 64
    assert report.trace_p == pytest.approx(32.0, abs=1e-6)
    elapsed = time.time() - started
    assert elapsed < 30.0
    print(f"[criterion 3] PASS trace={report.trace_p:.9f} of dim 64 ({elapsed:.1f}s)")


def test_criterion_04_coin_overlap_structure():
    g, _ = cube_operator(4, "grover")
    cv = spectral.coin_overlap_matrix(cube_report(4, "grover"), g, 0)
    zero_eigs = np.sum(cv.eigenvalues < 1e-8)
    assert zero_eigs == 1
    uniform = np.full(4, 0.5)
    overlap = abs(np.vdot(cv.eigenvectors[:, 0], uniform))
    assert overlap > 1 - 1e-8
    cv_dft = spectral.coin_overlap_matrix(cube_report(4, "dft"), g, 0)
    assert cv_dft.eigenvalues[0] > 1e-6
    print(
        f"[criterion 4] PASS uniform-coin overlap={overlap:.12f}, "
        f"dft smallest eigenvalue={cv_dft.eigenvalues[0]:.6f}"
    )


def test_criterion_05_quotient_golden_matrices():
    # two-generator graph with the direction swap
    cay2 = graphs.cayley_s3_2gen()
    op2 = walk.evolution_operator(cay2.graph, walk.grover_coin(2))
    swap = groups.direction_perm_to_automorphism(cay2, groups.parse_cycles("(1,2)", 2))
    basis2 = quotient.orbit_basis(groups.closure([swap]), 12)
    u2 = quotient.quotient_walk(op2.matrix, basis2)
    golden2 = np.zeros((6, 6))
    for row, col in ((1, 0), (3, 1), (0, 2), (5, 3), (2, 4), (4, 5)):
        golden2[row, col] = 1.0
    perm2 = [0, 1, 2, 4, 3, 5]  # recorded basis permutation
    err2 = np.max(np.abs(u2[np.ix_(perm2, perm2)] - golden2))
    assert err2 < 1e-12

    # cube with the full direction group
    cay3 = graphs.cayley_hypercube(3)
    op3 = walk.evolution_operator(cay3.graph, walk.grover_coin(3))
    basis3 = quotient.orbit_basis(full_direction_group(cay3), 24)
    u3 = quotient.quotient_walk(op3.matrix, basis3)
    r = 2 * np.sqrt(2) / 3
    golden3 = np.array(
        [
            [0, -1 / 3, r, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1 / 3, r, 0],
            [0, r, 1 / 3, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, r, -1 / 3, 0],
        ]
    )
    err3 = np.max(np.abs(u3 - golden3))  # recorded permutation is the identity
    assert err3 < 1e-12
    print(f"[criterion 5] PASS golden deviations {err2:.2e}, {err3:.2e}")


def test_criterion_06_line_reduction_and_growth():
    started = time.time()
    # termwise distribution equivalence, full space vs line, n = 3..6
    worst = 0.0
    for n in range(3, 7):
        g, op = cube_operator(n, "grover")
        full_spec = hitting.measured_walk(
            op, hitting.symmetric_state(g, 0), final_vertices=[2 ** n - 1]
        )
        lw = quotient.hypercube_line_reduction(n)
        start = np.zeros(2 * n, dtype=complex)
        start[lw.start_index] = 1.0
        line_spec = hitting.measured_walk(
            walk.WalkOperator(lw.matrix), start, final_indices=[lw.final_index]
        )
        diff = np.max(
            np.abs(
                hitting.first_hit_distribution(full_spec, 200)
                - hitting.first_hit_distribution(line_spec, 200)
            )
        )
        worst = max(worst, diff)
        assert diff < 1e-9

    # closed-form growth in the line subspace, n = 3..32.  The trapped
    # projector vanishes identically for this family while the resolvent
    # gap shrinks exponentially, so the relative Stein residual of the
    # (provably convergent) solve is held to a tighter bound.
    sizes = np.arange(3, 33)
    taus = []
    for n in sizes:
        lw = quotient.hypercube_line_reduction(int(n))
        rep = spectral.infinite_hitting_projector(lw.matrix, np.array([2 * n - 1]))
        assert rep.trace_p < 1e-9
        start = np.zeros(2 * n, dtype=complex)
        start[0] = 1.0
        spec = hitting.measured_walk(
            walk.WalkOperator(lw.matrix), start, final_indices=[2 * n - 1]
        )
        res = hitting.hitting_time_closed_form(spec, singular_rtol=1e-12)
        assert res.is_finite and res.value > 0
        taus.append(res.value)
    taus = np.asarray(taus)
    exponent = np.polyfit(np.log(sizes), np.log(taus), 1)[0]
    assert exponent < 2.0
    ratio = hitting.classical_hypercube_hitting(16) / taus[sizes.tolist().index(16)]
    assert ratio > 100.0
    elapsed = time.time() - started
    assert elapsed < 300.0
    print(
        f"[criterion 6] PASS dist-dev={worst:.2e} fit-exponent={exponent:.3f} "
        f"classical/quantum@16={ratio:.1f} ({elapsed:.1f}s)"
    )


def test_criterion_07_series_matches_closed_form():
    agreements = []
    for name, spec in battery():
        closed = hitting.hitting_time_closed_form(spec)
        if not closed.is_finite:
            continue
        series = hitting.hitting_time_series(spec, 1e-8)
        if not series.is_finite:
            continue
        rel = abs(series.value - closed.value) / closed.value
        assert rel <= 1e-3, f"{name}: relative deviation {rel:.2e}"
        agreements.append((name, rel))
    assert len(agreements) >= 10
    worst = max(rel for _, rel in agreements)
    print(f"[criterion 7] PASS {len(agreements)} finite specs, worst rel dev {worst:.2e}")


def test_criterion_08_singularity_iff_trapped_projector():
    disagreements = []
    checked = 0
    for name, spec in battery():
        _, _, singular = hitting.superoperator_singularity(spec)
        report = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
        trapped = report.trace_p > 1e-6
        checked += 1
        if singular != trapped:
            disagreements.append((name, singular, report.trace_p))
    assert disagreements == []
    print(f"[criterion 8] PASS {checked} specs, zero disagreements")


def test_criterion_09_dephasing_limits():
    g, _ = cube_operator(3, "grover")
    spec = cube_spec(3, "grover")
    unit = hitting.hitting_time_closed_form(spec)
    for kind in ("both", "coin", "position"):
        ch = deco.dephasing_channel(kind, 0.0, g.num_vertices, g.degree_value)
        res = deco.decohered_hitting_time(spec, ch)
        assert res.method == unit.method
        assert abs(res.value - unit.value) <= 1e-10
    for p in (0.0, 1.0):
        values = [
            deco.decohered_hitting_time(
                spec, deco.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
            ).value
            for kind in ("both", "coin", "position")
        ]
        assert max(values) - min(values) <= 1e-6
    trapped = cube_spec(3, "grover", start="basis")
    assert not hitting.hitting_time_closed_form(trapped).is_finite
    ch = deco.dephasing_channel("both", 0.05, g.num_vertices, g.degree_value)
    revived = deco.decohered_hitting_time(trapped, ch)
    assert revived.is_finite
    print(
        f"[criterion 9] PASS p=0 matches unitary tau={unit.value:.6f}; "
        f"trapped start at p=0.05 gives tau={revived.value:.3f}"
    )


def test_criterion_10_slope_formula():
    g, _ = cube_operator(3, "grover")
    spec = cube_spec(3, "grover")
    analytic = deco.hitting_time_slope(spec, "both", 0.5)
    h = 1e-4
    up = deco.decohered_hitting_time(
        spec, deco.dephasing_channel("both", 0.5 + h, g.num_vertices, g.degree_value)
    ).value
    down = deco.decohered_hitting_time(
        spec, deco.dephasing_channel("both", 0.5 - h, g.num_vertices, g.degree_value)
    ).value
    fd = (up - down) / (2 * h)
    rel = abs(analytic - fd) / abs(fd)
    assert rel <= 1e-4
    print(f"[criterion 10] PASS slope={analytic:.8f} fd={fd:.8f} rel={rel:.2e}")


def test_criterion_11_dfs_checks():
    residuals = {}
    for n in (3, 4):
        cay = graphs.cayley_hypercube(n)
        basis = quotient.orbit_basis(full_direction_group(cay), (1 << n) * n)
        kappas = np.ones(n - 1) / np.sqrt(n - 1)
        ch = deco.swap_dephasing_example(n, kappas)
        verdict = deco.dfs_check_kraus(ch, basis.matrix, atol=1e-10)
        assert verdict.is_dfs
        assert np.allclose(verdict.coefficients, kappas, atol=1e-10)
        worst = max(
            np.linalg.norm(a @ basis.matrix[:, j] - k * basis.matrix[:, j])
            for a, k in zip(ch.kraus, kappas)
            for j in range(basis.num_orbits)
        )
        assert worst < 1e-10
        residuals[n] = worst
    cay3 = graphs.cayley_hypercube(3)
    basis3 = quotient.orbit_basis(full_direction_group(cay3), 24)
    bad = deco.dephasing_channel("both", 0.5, 8, 3)
    verdict = deco.dfs_check_kraus(bad, basis3.matrix)
    assert not verdict.is_dfs
    assert verdict.witness is not None and verdict.witness[2] > 1e-9
    print(
        f"[criterion 11] PASS swap residuals {residuals[3]:.2e}/{residuals[4]:.2e}; "
        f"basis dephasing witness residual {verdict.witness[2]:.3f}"
    )


def test_criterion_12_hypercube_quotient_verdicts():
    cay = graphs.cayley_hypercube(3)
    idx = graphs.BasisIndexing.from_graph(cay.graph)
    _, op = cube_operator(3, "grover")

    basis_full = quotient.orbit_basis(full_direction_group(cay), 24)
    all_ones = quotient.quotient_infinite_hitting(op.matrix, basis_full, idx.indices_for([7]))
    assert all_ones.intersection_dim == 0

    stab = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(2,3)", 3))
    basis_stab = quotient.orbit_basis(groups.closure([stab]), 24)
    near_ones = quotient.quotient_infinite_hitting(op.matrix, basis_stab, idx.indices_for([6]))
    assert near_ones.intersection_dim > 0
    print(
        f"[criterion 12/hypercube] PASS full-group dim={all_ones.intersection_dim}, "
        f"stabilizer dim={near_ones.intersection_dim}"
    )


def test_criterion_12_s4_quotient_verdict():
    cay = graphs.cayley_s4_3gen()
    idx = graphs.BasisIndexing.from_graph(cay.graph)
    op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
    basis = quotient.orbit_basis(full_direction_group(cay), 72)
    finals = [cay.vertex_of_word([1, 3, 2, 1]), cay.vertex_of_word([2, 3, 1, 2])]
    fin = idx.indices_for(finals)
    report = spectral.infinite_hitting_projector(op.matrix, fin)
    assert report.trace_p > 1e-6
    verdict = quotient.quotient_infinite_hitting(op.matrix, basis, fin)
    print(
        f"[criterion 12/s4] original trace={report.trace_p:.1f}, "
        f"quotient intersection dim={verdict.intersection_dim} "
        f"(both computation routes agree)"
    )
    # Expected dimension 0; both independent routes instead find a
    # two-dimensional trapped subspace inside the symmetric subspace (one
    # combination each in the +1 and -1 eigenspaces of the reduced walk,
    # final-overlap and eigen-residuals at machine precision).  See the
    # decisions ledger for the full analysis.
    assert verdict.intersection_dim == 0, (
        "quotient of the S4 walk retains a trapped subspace of dimension "
        f"{verdict.intersection_dim}; the dimension-0 expectation is not "
        "reproducible from this construction"
    )


def test_criterion_13_glued_trees():
    h = quotient.glued_trees_quotient_hamiltonian(4, 1.0)
    assert np.allclose(np.diag(h), [2, 3, 3, 3, 2, 3, 3, 3, 2])
    assert np.allclose(np.diag(h, 1), -np.sqrt(2))
    worst_proj = 0.0
    for depth in range(1, 6):
        g = graphs.build_glued_trees(depth)
        full = walk.continuous_hamiltonian(g, 1.0, "laplacian")
        b = quotient.glued_trees_column_isometry(depth)
        reduced = quotient.glued_trees_quotient_hamiltonian(depth, 1.0)
        dev = np.max(np.abs(b.T @ full @ b - reduced))
        worst_proj = max(worst_proj, dev)
        assert dev < 1e-12
    depth = 5
    g = graphs.build_glued_trees(depth)
    full = walk.continuous_hamiltonian(g, 1.0, "laplacian")
    reduced = quotient.glued_trees_quotient_hamiltonian(depth, 1.0)
    cols = graphs.glued_trees_columns(depth)
    root, exit_vertex = cols[0][0], cols[-1][0]
    worst_amp = 0.0
    probs = []
    for t in np.linspace(0.5, 8.0, 16):
        uf = walk.continuous_propagator(full, float(t)).matrix
        uq = walk.continuous_propagator(reduced, float(t)).matrix
        p_full = abs(uf[exit_vertex, root]) ** 2
        p_quot = abs(uq[2 * depth, 0]) ** 2
        worst_amp = max(worst_amp, abs(p_full - p_quot))
        probs.append(p_full)
        assert abs(p_full - p_quot) < 1e-8
    assert max(probs) > 0.1  # the packet does cross to the far root
    print(
        f"[criterion 13] PASS projection dev {worst_proj:.2e}, "
        f"transport dev {worst_amp:.2e}, peak crossing prob {max(probs):.3f}"
    )


def test_criterion_14_classical_baseline():
    exact = hitting.classical_hypercube_hitting(3)
    assert exact == 10.0
    g = graphs.build_hypercube(3)
    est = hitting.classical_hitting_monte_carlo(g, 0, 7, 100_000, seed=20240817)
    assert abs(est.mean - exact) <= 3 * est.stderr
    print(
        f"[criterion 14] PASS recursion={exact} monte-carlo={est.mean:.4f}"
        f"+-{est.stderr:.4f} (seed {est.seed})"
    )
