import io
import json
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from qwlab import cli, fourier, graphs, hitting, quotient, spectral, walk

from conftest import (battery, color_permuted, color_shift, direction_group, full_direction_group, random_unitary,
                      relabelled, trapped_projector)


def hypercube_setup(n, coin_kind):
    g = graphs.build_hypercube(n)
    coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
    op = walk.evolution_operator(g, coin)
    fin = graphs.BasisIndexing.from_graph(g).indices_for([2 ** n - 1])
    return g, op, fin


class OracleCluster(NamedTuple):
    """An oracle's cluster: its eigenvalue, multiplicity and D x m eigenbasis."""

    eigenvalue: complex
    multiplicity: int
    basis: np.ndarray


def eig_qr_clusters(u, tol=spectral.CLUSTER_TOL):
    """The general-eigensolver clustering, kept as the oracle: eigenvalues
    sorted by phase, neighbours within tol chained (with the wrap across
    the branch cut), each cluster's eigenvectors re-orthonormalised by QR."""
    w, v = np.linalg.eig(np.asarray(u, dtype=complex))
    order = np.argsort(np.angle(w))
    w, v = w[order], v[:, order]
    groups = [[0]]
    for i in range(1, w.size):
        if abs(w[i] - w[i - 1]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) > 1 and abs(w[groups[0][0]] - w[groups[-1][-1]]) <= tol:
        groups[0] = groups.pop() + groups[0]
    clusters = []
    for idx in groups:
        q, _ = np.linalg.qr(v[:, idx])
        lam = complex(np.mean(w[idx]))
        clusters.append(OracleCluster(lam / abs(lam), len(idx), q))
    return tuple(clusters)


def eig_qr_report(u, fin):
    """(clusters, contributions, projector) of the per-cluster projector loop
    on the oracle clusters, with the stacked trapped basis re-orthonormalised
    by QR as the general-eigensolver route did."""
    clusters, b, _, contributions, _ = loop_report(eig_qr_clusters(u), fin)
    q, _ = np.linalg.qr(b)
    return clusters, contributions, q @ q.conj().T


def loop_runs(values, tol):
    """Slices of ascending ``values`` over the runs whose neighbours lie within tol."""
    v = values.tolist()
    cuts = [0, *(i for i in range(1, len(v)) if v[i] - v[i - 1] > tol), len(v)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def loop_eigen_runs(a, tol):
    """Eigenvector blocks of Hermitian a, one per run of its eigenvalues;
    [None], the whole space, within tol/2 of a multiple of the identity."""
    k = len(a)
    if k == 1 or 2 * np.linalg.norm(a - np.trace(a).real / k * np.eye(k)) <= tol:
        return [None]
    vals, y = np.linalg.eigh(a)
    return [y[:, run] for run in loop_runs(vals, tol)]


def loop_joint_blocks(c, s, tol):
    """Blocks on which diag(c) and the commuting Hermitian s each have one
    run, by splitting along one and then the other until neither splits."""
    if np.ptp(c) <= tol:
        return loop_eigen_runs(s, tol)
    blocks = []
    stack = [(np.eye(len(c)), np.diag(c), s, False)]
    while stack:
        x, a, b, settled = stack.pop()
        parts = loop_eigen_runs(x.conj().T @ a @ x, tol)
        if len(parts) > 1:
            stack.extend((x @ y, b, a, True) for y in parts)
        elif settled:
            blocks.append(x)
        else:
            stack.append((x, b, a, True))
    return blocks


def loop_clusters(u, tol=spectral.CLUSTER_TOL):
    """The per-chain clustering loop, kept as the oracle of the batched split:
    one Python pass per chain of cosines with its own small eighs, and one
    Rayleigh trace per cluster."""
    m = np.asarray(u, dtype=complex)
    a = m.real if not m.imag.any() else m
    cos, w = np.linalg.eigh((a + a.conj().T) / 2)
    ikw = ((a - a.conj().T) / 2) @ w
    clusters = []
    for chain in loop_runs(cos, max(tol, np.sqrt(tol))):
        wc, ikc = w[:, chain], ikw[:, chain]
        t = wc.conj().T @ ikc
        assert np.linalg.norm(ikc - wc @ t) <= tol
        mc = np.diag(cos[chain]) + t
        for x in loop_joint_blocks(cos[chain], -1j * t, tol):
            if x is None:
                lam, basis = complex(np.trace(mc)), wc.astype(complex)
            else:
                lam, basis = complex(np.trace(x.conj().T @ mc @ x)), wc @ x
            clusters.append(OracleCluster(lam / abs(lam), basis.shape[1], basis))
    clusters.sort(key=lambda c: -np.pi if abs(c.eigenvalue + 1) <= tol else np.angle(c.eigenvalue))
    return tuple(clusters)


def loop_report(clusters, fin, tol=spectral.CLUSTER_TOL, null_rtol=spectral.NULLSPACE_RTOL):
    """The per-cluster projector loop, one SVD per cluster, kept as the oracle
    of the stacked SVDs: (clusters, trapped basis, untrapped basis,
    contributions, warnings) of the given clusters for final indices ``fin``."""
    trapped, untrapped, contributions, warnings = [], [], [], []
    for ci, cluster in enumerate(clusters):
        _, sv, vh = np.linalg.svd(cluster.basis[np.asarray(fin)])
        cutoff = max(null_rtol * (sv[0] if sv.size else 0.0), spectral.NULLSPACE_ATOL)
        rank = int(np.sum(sv > cutoff))
        band = int(np.sum((sv > cutoff) & (sv <= 10 * cutoff)))
        if band:
            warnings.append(
                f"cluster {ci} (eigenvalue {cluster.eigenvalue:.6f}): "
                f"{band} singular value(s) within 10x of cutoff"
            )
        n = len(clusters)
        if ci < (n if n > 2 else n - 1):
            nxt = clusters[(ci + 1) % n]
            gap = abs(cluster.eigenvalue - nxt.eigenvalue)
            if gap <= 10 * tol:
                warnings.append(
                    f"clusters {ci} and {(ci + 1) % n} (eigenvalues {cluster.eigenvalue:.6f} "
                    f"and {nxt.eigenvalue:.6f}): gap {gap:.1e} within 10x of the cluster tolerance"
                )
        contributions.append(cluster.multiplicity - rank)
        trapped.append(cluster.basis @ vh[rank:].conj().T)
        untrapped.append(cluster.basis @ vh[:rank].conj().T)
    return clusters, np.hstack(trapped), np.hstack(untrapped), tuple(contributions), tuple(warnings)


def planted(phases, rng, fin=(0, 1)):
    """(U, final indices) for a random eigenbasis with the given phases."""
    v = random_unitary(len(phases), rng)
    return (v * np.exp(1j * np.asarray(phases))) @ v.conj().T, np.array(fin)


def planted_cases() -> dict:
    rng = np.random.default_rng(4242)
    theta = rng.uniform(0.2, 2.9, 3)
    eps = 5e-9  # one singular value of the overlap at 5x the cutoff
    w = np.zeros((4, 4), dtype=complex)
    w[0, 0] = w[3, 3] = 1.0
    w[1:3, 1:3] = [[eps, np.sqrt(1 - eps ** 2)], [np.sqrt(1 - eps ** 2), -eps]]
    return {
        "multiplicities-1-6": planted(
            np.repeat(rng.uniform(-np.pi, np.pi, 6), [1, 2, 3, 4, 5, 6]), rng),
        # e^{+i theta} and e^{-i theta} share a cosine: one chain, split by eigh
        "conjugate-pairs": planted(
            np.repeat(np.concatenate([theta, -theta]), [1, 2, 3, 3, 1, 2]), rng),
        # cosines 3e-6 * sin(theta) apart: one chain spread wider than tol
        "wide-chain": planted(
            [theta[0], theta[0] + 3e-6, -theta[0], -theta[0], 1.0, 2.5], rng),
        "warning-band": ((w * [1, 1, 1j, -1]) @ w.conj().T, np.array([0, 1])),
    }


PLANTED_CASES = planted_cases()


def oracle_cases() -> dict:
    cases = {name: (spec.walk.matrix, spec.final_array) for name, spec in battery()}
    for n in (4, 5):
        for coin_kind in ("grover", "dft"):
            _, op, fin = hypercube_setup(n, coin_kind)
            cases[f"hypercube{n}-{coin_kind}"] = (op.matrix, fin)
    cay = graphs.cayley_s4_3gen()
    finals = [cay.vertex_of_word([1, 3, 2, 1]), cay.vertex_of_word([2, 3, 1, 2])]
    op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
    cases["s4g3-12"] = (op.matrix, graphs.BasisIndexing.from_graph(cay.graph).indices_for(finals))
    rng = np.random.default_rng(909)
    for i in range(5):
        # phases repeated 1..4 times, so clusters of several sizes meet two final indices
        phases = np.repeat(rng.uniform(-np.pi, np.pi, 4), [1, 2, 3, 4])
        v = random_unitary(phases.size, rng)
        cases[f"random{i}"] = ((v * np.exp(1j * phases)) @ v.conj().T, np.array([0, 1]))
    angles = np.array([np.pi - 5e-10, -np.pi + 5e-10, 0.3])
    cases["branch-cut"] = (np.diag(np.exp(1j * angles)), np.array([2]))
    # equal sines, cosines 2e-5 apart: one chain of cosines, two clusters
    v = random_unitary(5, rng)
    angles = np.array([np.pi / 2 - 1e-5, np.pi / 2 + 1e-5, np.pi / 2 + 1e-5, 2.0, -1.0])
    cases["equal-sines"] = ((v * np.exp(1j * angles)) @ v.conj().T, np.array([0]))
    return cases


ORACLE_CASES = oracle_cases()


class TestClusters:
    def test_identity_single_cluster(self):
        clusters = spectral.eigenspace_clusters(np.eye(6, dtype=complex))
        assert len(clusters) == 1
        assert clusters[0].multiplicity == 6
        assert clusters[0].eigenvalue == pytest.approx(1.0)

    def test_distinct_phases_stay_split(self, rng):
        phases = np.linspace(0.1, 2 * np.pi - 0.5, 7)
        v = random_unitary(7, rng)
        u = (v * np.exp(1j * phases)) @ v.conj().T
        clusters = spectral.eigenspace_clusters(u)
        assert [c.multiplicity for c in clusters] == [1] * 7

    def test_multiplicities_sum_to_dimension(self):
        _, op, _ = hypercube_setup(3, "grover")
        clusters = spectral.eigenspace_clusters(op.matrix)
        assert sum(c.multiplicity for c in clusters) == 24

    def test_bases_orthonormal_and_eigen(self):
        _, op, _ = hypercube_setup(3, "dft")
        for c in spectral.eigenspace_clusters(op.matrix):
            gram = c.basis.conj().T @ c.basis
            assert np.max(np.abs(gram - np.eye(c.multiplicity))) < 1e-12
            assert np.max(np.abs(op.matrix @ c.basis - c.eigenvalue * c.basis)) < 1e-8

    def test_branch_cut_wraparound_merges(self):
        angles = np.array([np.pi - 5e-10, -np.pi + 5e-10, 0.3])
        u = np.diag(np.exp(1j * angles))
        clusters = spectral.eigenspace_clusters(u)
        assert sorted(c.multiplicity for c in clusters) == [1, 2]

    @pytest.mark.parametrize("walk_kind", ["cycle6-grover", "cycle4-dft"])
    def test_minus_one_cluster_first_then_by_phase(self, walk_kind):
        n, coin = (6, walk.grover_coin(2)) if walk_kind == "cycle6-grover" else (4, walk.dft_coin(2))
        u = walk.evolution_operator(graphs.build_cycle(n), coin).matrix
        clusters = spectral.eigenspace_clusters(u)
        assert abs(clusters[0].eigenvalue + 1) < 1e-12
        phases = [np.angle(c.eigenvalue) for c in clusters[1:]]
        assert phases == sorted(phases)

    def test_non_normal_matrix_rejected(self, rng):
        with pytest.raises(ValueError, match="not normal"):
            spectral.eigenspace_clusters(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not normal"):
            spectral.eigenspace_clusters(rng.standard_normal((8, 8)))

    def test_non_normal_block_in_a_stack_rejected(self, rng):
        normal = random_unitary(4, rng)
        for stack in ([normal, rng.standard_normal((4, 4))], [[[1.0, 1.0], [0.0, 1.0]], np.eye(2)]):
            with pytest.raises(ValueError, match="not normal"):
                spectral._split_stack(np.array(stack, dtype=complex), spectral.CLUSTER_TOL)

    def test_stacked_blocks_split_as_each_alone(self, rng):
        # block 0's largest cosine, cos 0.5, is block 1's smallest: flattened,
        # the two would chain across the blocks
        blocks = []
        for phases in ([2.0, 2.0, -1.0, 0.5], [0.5, -0.5, 0.2, 0.2]):
            v = random_unitary(4, rng)
            blocks.append((v * np.exp(1j * np.array(phases))) @ v.conj().T)
        sums, first, vectors, chains = spectral._split_stack(np.array(blocks), spectral.CLUSTER_TOL)
        alone = [spectral._split_stack(b[None], spectral.CLUSTER_TOL) for b in blocks]
        assert np.array_equal(first, np.concatenate([alone[0][1], alone[1][1] + 4]))
        assert np.array_equal(first, [0, 2, 3, 4, 5, 6])  # e^{2i} and e^{0.2i} twice
        assert np.max(np.abs(sums - np.concatenate([a[0] for a in alone]))) <= 1e-14
        assert np.max(np.abs(vectors - np.concatenate([a[2] for a in alone]))) <= 1e-14

        def by_start(chains, offset=0):
            return {int(s) + offset: blk for starts, blks in chains for s, blk in zip(starts, blks)}

        # the kept chain blocks are each block in its own eigenvectors
        kept, want = by_start(chains), {**by_start(alone[0][3]), **by_start(alone[1][3], 4)}
        assert kept.keys() == want.keys()
        assert all(np.max(np.abs(kept[s] - want[s])) <= 1e-14 for s in want)
        for s, blk in kept.items():
            k, first = divmod(s, 4)
            v = vectors[k][:, first + np.arange(len(blk))]
            assert np.max(np.abs(v.conj().T @ blocks[k] @ v - blk)) <= 1e-13


class TestAgainstGeneralEigensolver:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_clusters_contributions_and_projector(self, name):
        u, fin = ORACLE_CASES[name]
        report = spectral.infinite_hitting_projector(u, fin)
        clusters, contributions, oracle_p = eig_qr_report(u, fin)
        unmatched = list(range(len(clusters)))
        for i, c in enumerate(report.clusters):
            j = next(
                (j for j in unmatched
                 if clusters[j].multiplicity == c.multiplicity
                 and abs(clusters[j].eigenvalue - c.eigenvalue) <= 1e-12),
                None,
            )
            assert j is not None, f"cluster {c.eigenvalue} x{c.multiplicity} has no oracle match"
            assert report.contributions[i] == contributions[j]
            unmatched.remove(j)
        assert not unmatched
        assert np.max(np.abs(trapped_projector(report) - oracle_p)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES) + sorted(PLANTED_CASES))
    def test_batched_split_matches_the_loop_oracle(self, name):
        u, fin = {**ORACLE_CASES, **PLANTED_CASES}[name]
        report = spectral.infinite_hitting_projector(u, fin)
        clusters, b, w, contributions, warnings = loop_report(loop_clusters(u), fin)
        assert [c.multiplicity for c in report.clusters] == [c.multiplicity for c in clusters]
        assert report.contributions == contributions
        assert report.warnings == warnings
        lams = np.array([c.eigenvalue for c in report.clusters])
        assert np.max(np.abs(lams - [c.eigenvalue for c in clusters])) <= 1e-12
        assert np.max(np.abs(trapped_projector(report) - b @ b.conj().T)) <= 1e-12
        w_report = report.untrapped @ report.untrapped.conj().T
        assert np.max(np.abs(w_report - w @ w.conj().T)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES) + sorted(PLANTED_CASES))
    def test_reduced_step_from_the_chains_is_w_q_u_w(self, name):
        # A_r read off U on its chains is the product W+ (Q_f U) W with the
        # D-tall W, but for the entries between clusters that the clusters'
        # blocks leave out: 1.1e-10 in the wide chain's turned block, whose
        # alternating split separates cosines 3e-6 apart, and at rounding
        # level elsewhere
        u, fin = {**ORACLE_CASES, **PLANTED_CASES}[name]
        report = spectral.infinite_hitting_projector(u, fin)
        w = report.untrapped
        quw = np.asarray(u) @ w
        quw[fin] = 0.0
        tol = 1e-9 if name == "wide-chain" else 1e-12
        assert np.max(np.abs(report.reduced_step() - w.conj().T @ quw)) <= tol

    def test_planted_cases_reach_every_path(self, monkeypatch):
        joint_calls = []
        joint_blocks = spectral._joint_blocks

        def counting(*args):
            joint_calls.append(args)
            return joint_blocks(*args)

        monkeypatch.setattr(spectral, "_joint_blocks", counting)
        reports = {name: spectral.infinite_hitting_projector(u, fin)
                   for name, (u, fin) in PLANTED_CASES.items()}
        assert len(joint_calls) == 1  # only the wide chain takes the alternating split
        mults = [c.multiplicity for c in reports["multiplicities-1-6"].clusters]
        assert sorted(mults) == [1, 2, 3, 4, 5, 6]
        assert sorted(reports["multiplicities-1-6"].contributions) == [0, 0, 1, 2, 3, 4]
        assert len(reports["conjugate-pairs"].clusters) == 6
        assert len(reports["wide-chain"].clusters) == 5

    def test_no_general_eigensolver_or_qr_on_the_verdict_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("general eigensolver or QR called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        for coin_kind in ("grover", "dft"):
            _, op, fin = hypercube_setup(4, coin_kind)
            assert spectral.infinite_hitting_projector(op.matrix, fin).trace_int > 0
        cay = graphs.cayley_hypercube(4)
        op = walk.evolution_operator(cay.graph, walk.grover_coin(4))
        fin = graphs.BasisIndexing.from_graph(cay.graph).indices_for([cay.vertex_of_word([1, 2, 3, 4])])
        basis = quotient.orbit_basis(full_direction_group(cay), 64)
        assert quotient.quotient_infinite_hitting(op.matrix, basis, fin).intersection_dim == 0


class TestProjector:
    @pytest.mark.parametrize("final", [-1, 24])
    def test_out_of_range_final_rejected(self, final):
        """-1 would wrap to index 23 and 24 would fail as an IndexError."""
        _, op, _ = hypercube_setup(3, "grover")
        with pytest.raises(ValueError, match="out of range"):
            spectral.infinite_hitting_projector(op.matrix, [final])

    def test_repeated_finals_give_the_report_of_the_set(self, rng):
        # P_f is a projector however often a final is named: a repeat must
        # not count a final's row twice in the overlaps or in A_r
        op = walk.evolution_operator(graphs.build_cycle(8), walk.grover_coin(2))
        once = spectral.infinite_hitting_projector(op, [14, 15])
        twice = spectral.infinite_hitting_projector(op, [15, 14, 15])
        assert np.array_equal(twice.finals, [14, 15]) and not twice.finals.flags.writeable
        assert twice.contributions == once.contributions
        assert np.array_equal(twice.reduced_step(), once.reduced_step())
        columns = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        (esc_once, start_once), (esc_twice, start_twice) = once.split_start(columns), twice.split_start(columns)
        assert esc_twice == esc_once and np.array_equal(start_twice, start_once)
        w, qu = twice.untrapped, op.matrix.copy()
        qu[[14, 15]] = 0.0
        assert np.max(np.abs(twice.reduced_step() - w.conj().T @ qu @ w)) < 1e-12

    @pytest.mark.parametrize("descriptor, coin_kind", [
        ("distorted-hypercube:6", "dft"), ("hypercube:6", "grover"), ("hypercube:6", "dft"),
        ("cayley:s4:3gen", "grover"), ("cayley:s4:3gen", "dft")])
    def test_dense_eigensolve_peak_within_its_estimate(self, monkeypatch, descriptor, coin_kind):
        # EIGENSOLVE_WORK_ARRAYS counts U and a caller's rho_0 with its
        # columns, D x D each at full rank, beside the eigensolve's own
        # arrays; the distorted cube is not bipartite and
        # takes the eigh, the bipartite walks the parity split (forced below
        # its crossover on the Cayley graph), held to the eigh's peak; the
        # cube's colors are permuted, so that its dense U takes the dense route
        g, u = dense_route_walk(descriptor, coin_kind)
        fin = graphs.BasisIndexing.from_graph(g).indices_for([g.num_vertices - 1])
        peaks, splits = [], count_parity_splits(monkeypatch)
        for min_dim in (len(u) + 1, 0):
            monkeypatch.setattr(spectral, "PARITY_MIN_DIM", min_dim)
            tracemalloc.start()
            try:
                report = spectral.infinite_hitting_projector(u, fin)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.route == "dense"
            del report
        assert len(splits) == (descriptor != "distorted-hypercube:6")
        unit = 16 * len(u) ** 2
        assert peaks[1] <= (spectral.EIGENSOLVE_WORK_ARRAYS - 3) * unit
        assert peaks[1] <= peaks[0] + 0.01 * unit  # index arrays and Python objects

    def test_dense_report_holds_v_and_builds_w_and_b_on_read(self):
        # V, D^2 complex entries, and U in its chains, sum L^2 complex
        # entries, stay held, beside the clusters' final overlaps and their
        # SVDs' coefficients, D |finals| each, and small objects; trace(P)
        # is a count and builds nothing; W and B are each
        # built on read, D-tall with one spare column, and B's peak, beside
        # U, V and W, stays within the estimate it is refused by; the
        # color-permuted cube takes the dense route
        g, u = dense_route_walk("hypercube:6", "grover")
        fin = graphs.BasisIndexing.from_graph(g).indices_for([g.num_vertices - 1])
        tracemalloc.start()
        try:
            report = spectral.infinite_hitting_projector(u, fin)
            held = tracemalloc.get_traced_memory()[0]
            report.trace_p
            with_trace = tracemalloc.get_traced_memory()[0]
            report.untrapped
            with_w = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report.basis
            with_basis, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        d, r, t, f = len(u), report.untrapped_dim, report.trapped_dim, len(fin)
        chained = sum(blocks.size for _, blocks in report.frame.chains)
        assert (r, t) == (72, 312)
        assert 16 * (d * d + chained) <= held <= 16 * (d * d + chained + 2 * d * f) + 0.02 * 16 * d * d
        assert with_trace - held <= 1024
        assert 16 * d * r <= with_w - with_trace <= 16 * d * (r + 1) + 0.01 * 16 * d * d
        assert 16 * d * t <= with_basis - with_w <= 16 * d * (t + 1) + 0.01 * 16 * d * d
        estimate = fourier.DENSE_BASIS_ARRAYS * d * d + chained + 2 * d * min(d, fourier.SYNTHESIS_COLUMNS)
        assert 16 * d * d + peak <= 16 * estimate  # U, allocated before tracing, and the rest

    def test_zero_when_every_eigenvector_sees_final(self, rng):
        u = random_unitary(6, rng)  # generic: no eigenvector avoids index 0
        report = spectral.infinite_hitting_projector(u, np.array([0]))
        assert report.trace_p == pytest.approx(0.0, abs=1e-12)
        assert report.basis.shape == (6, 0)

    def test_grover_hypercube4_half_dimension(self):
        _, op, fin = hypercube_setup(4, "grover")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        assert report.trace_p == pytest.approx(32.0, abs=1e-6)
        assert report.dim == 64

    def test_projector_invariants(self):
        _, op, fin = hypercube_setup(3, "grover")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        p = trapped_projector(report)
        assert np.max(np.abs(p @ p - p)) < 1e-9
        assert np.max(np.abs(p - p.conj().T)) < 1e-9
        p_f = np.zeros_like(p)
        p_f[fin, fin] = 1.0
        assert np.max(np.abs(p @ p_f)) < 1e-9
        assert np.max(np.abs(op.matrix @ p - p @ op.matrix)) < 1e-8

    def test_basis_columns_are_trapped_eigenvectors(self):
        _, op, fin = hypercube_setup(4, "dft")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        u = op.matrix
        for k in range(report.basis.shape[1]):
            v = report.basis[:, k]
            assert np.linalg.norm(v[fin]) < 1e-8
            w = u @ v
            lam = np.vdot(v, w)
            assert np.linalg.norm(w - lam * v) < 1e-8

    def test_trace_near_integer(self):
        for coin_kind in ("grover", "dft"):
            _, op, fin = hypercube_setup(3, coin_kind)
            report = spectral.infinite_hitting_projector(op.matrix, fin)
            assert abs(report.trace_p - report.trace_int) < 1e-6

    def test_degenerate_clusters_contribute_at_least_excess(self):
        # a cluster of multiplicity k can always shed the final vertex's d
        # coin directions, leaving at least k - d trapped dimensions
        _, op, fin = hypercube_setup(4, "dft")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        big = [
            report.contributions[i]
            for i, c in enumerate(report.clusters)
            if c.multiplicity == 8
        ]
        assert len(big) == 4
        assert all(contrib >= 8 - 4 for contrib in big)
        assert sum(big) >= 16

    def test_near_tolerance_neighbours_warn(self):
        # eigenvalue pairs 3e-8 apart, just above the cluster tolerance: the
        # clustering keeps them apart, and each close call is reported
        rng = np.random.default_rng(0)
        base = rng.uniform(-np.pi, np.pi, 6)
        u, fin = planted(np.concatenate([base - 1.5e-8, base + 1.5e-8]), rng, fin=(0,))
        report = spectral.infinite_hitting_projector(u, fin)
        assert len(report.clusters) == 12
        gap_warnings = [w for w in report.warnings if "gap" in w]
        assert len(gap_warnings) == 6
        for i in range(0, 12, 2):
            assert any(w.startswith(f"clusters {i} and {i + 1} ") for w in gap_warnings)

    def test_wrapping_neighbours_warn(self):
        # the last cluster and the first are neighbours across the branch cut
        u = np.diag(np.exp(1j * np.array([np.pi - 2e-8, -np.pi + 2e-8, 0.3, 1.2])))
        report = spectral.infinite_hitting_projector(u, np.array([2]))
        assert [w.split(" (")[0] for w in report.warnings] == ["clusters 3 and 0"]

    def test_no_oracle_case_warns(self):
        # the smallest neighbour gap among these is 2e-5, on the planted
        # equal-sines case; among the walks it is 3.6e-4, on hypercube:5 dft
        for name, (u, fin) in ORACLE_CASES.items():
            assert spectral.infinite_hitting_projector(u, fin).warnings == (), name

    def test_rank_decision_warning_band(self):
        # eigenvalue 1 twice, on e0 and a vector with 5e-9 on e1: the overlap
        # with finals e0, e1 has one singular value at 5x the cutoff
        u, fin = PLANTED_CASES["warning-band"]
        report = spectral.infinite_hitting_projector(u, fin)
        assert [w.split(" (")[0] for w in report.warnings] == ["cluster 1"]


def glued_trees_flip_flop(depth):
    """(graph, U) of the flip-flop Grover walk on ``build_glued_trees``: each
    vertex's Grover coin of its own degree, then the shift that swaps the
    two half-edges of each edge."""
    g = graphs.build_glued_trees(depth)
    image = graphs.shift_permutation(g)
    coin = np.zeros((image.size, image.size))
    lo = 0
    for deg in g.degrees:
        coin[lo:lo + deg, lo:lo + deg] = walk.grover_coin(deg).matrix
        lo += deg
    u = np.empty_like(coin)
    u[image] = coin
    return g, u


class TestRankFloor:
    def test_rounding_level_overlaps_are_trapped_on_the_glued_trees(self):
        # D = 56, finals the right root's two half-edges; four two-fold
        # clusters, at angles +-0.6155 and +-2.5261, have final overlaps of
        # rounding size only (7e-17 to 4e-16), which the floor counts as
        # rank 0: 32 trapped dimensions, as a block Krylov space of the
        # finals finds, where a cutoff relative to each cluster's largest
        # singular value alone counted 24 and the Stein doubling overflowed
        g, u = glued_trees_flip_flop(3)
        fin = [54, 55]
        report = spectral.infinite_hitting_projector(u, fin)
        krylov = [np.eye(len(u))[:, fin]]
        for _ in range(len(u)):
            krylov.append(u @ krylov[-1])
        sv = np.linalg.svd(np.hstack(krylov), compute_uv=False)
        reached = int(np.sum(sv > 1e-8 * sv[0]))
        assert (report.trapped_dim, report.untrapped_dim, reached) == (32, 24, 24)
        assert report.warnings == ()
        spec = hitting.measured_walk(walk.WalkOperator(u), hitting.symmetric_state(g, 0), final_indices=fin)
        closed, series = hitting.hitting_time_closed_form(spec), hitting.hitting_time_series(spec, 1e-10)
        assert closed.method == "pseudo_inverse" and series.is_finite
        assert closed.value == pytest.approx(8.5, rel=1e-12)
        assert series.value == pytest.approx(closed.value, rel=1e-8)


class TestEscape:
    def test_dft_hypercube4_symmetric_start(self):
        g, op, fin = hypercube_setup(4, "dft")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        esc = spectral.escape_probability(report, hitting.symmetric_state(g, 0))
        assert esc == pytest.approx(0.4286, abs=5e-4)
        # observed to be the rational 3/7 to machine precision
        assert esc == pytest.approx(3.0 / 7.0, abs=1e-12)

    def test_dft_hypercube5_partial_trapping(self):
        # qualitative only: the trapped mass is strictly between 0 and 1
        g, op, fin = hypercube_setup(5, "dft")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        esc = spectral.escape_probability(report, hitting.symmetric_state(g, 0))
        assert 0.0 < esc < 1.0

    def test_grover_hypercube4_symmetric_start_escapes_nothing(self):
        g, op, fin = hypercube_setup(4, "grover")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        esc = spectral.escape_probability(report, hitting.symmetric_state(g, 0))
        assert esc < 1e-9

    def test_orthogonal_state_escapes_nothing(self):
        _, op, fin = hypercube_setup(3, "grover")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        # complement of the trapped subspace
        comp = np.eye(24) - trapped_projector(report)
        q, _ = np.linalg.qr(comp)
        psi = q[:, 0]
        psi = psi / np.linalg.norm(psi)
        assert spectral.escape_probability(report, psi) < 1e-9

    def test_density_matrix_input(self):
        g, op, fin = hypercube_setup(3, "grover")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        psi = hitting.basis_state(g, 0, 1)
        rho = np.outer(psi, psi.conj())
        assert spectral.escape_probability(report, rho) == pytest.approx(
            spectral.escape_probability(report, psi), abs=1e-12
        )
        with pytest.raises(ValueError, match="vector or a density matrix"):
            spectral.escape_probability(report, rho[:, :, None])

    def test_projector_not_built_for_escape_or_coin_blocks(self):
        g, op, fin = hypercube_setup(3, "dft")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        psi = hitting.symmetric_state(g, 0)
        spectral.escape_probability(report, psi)
        spectral.escape_probability(report, np.outer(psi, psi.conj()))
        for v in range(g.num_vertices):
            spectral.coin_overlap_matrix(report, g, v)


class TestCoinOverlap:
    def test_grover_unique_safe_direction(self):
        g, op, fin = hypercube_setup(4, "grover")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        cv = spectral.coin_overlap_matrix(report, g, 0)
        assert cv.zero_eigenvalue_count == 1
        uniform = np.full(4, 0.5)
        assert abs(np.vdot(cv.eigenvectors[:, 0], uniform)) > 1 - 1e-8

    def test_dft_no_safe_direction(self):
        g, op, fin = hypercube_setup(4, "dft")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        cv = spectral.coin_overlap_matrix(report, g, 0)
        assert cv.eigenvalues[0] > 1e-6

    def test_zero_projector_gives_zero_blocks(self, rng):
        g = graphs.build_cycle(4)
        op = walk.evolution_operator(g, walk.grover_coin(2))
        fin = graphs.BasisIndexing.from_graph(g).indices_for([2])
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        assert report.trace_p < 1e-9
        for v in range(4):
            cv = spectral.coin_overlap_matrix(report, g, v)
            assert np.max(np.abs(cv.matrix)) < 1e-12

    def test_batched_blocks_are_the_per_vertex_blocks(self):
        g, op, fin = hypercube_setup(4, "dft")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        idx = graphs.BasisIndexing.from_graph(g)
        blocks = spectral.coin_overlap_matrices(report, g)
        assert [b.vertex for b in blocks] == list(range(16))
        for v, block in enumerate(blocks):
            b = report.basis[list(idx.vertex_indices(v))]
            assert np.max(np.abs(block.matrix - b @ b.conj().T)) <= 1e-14
            single = spectral.coin_overlap_matrix(report, g, v)
            assert np.array_equal(single.eigenvalues, block.eigenvalues)

    def test_blocks_tile_the_trace(self):
        for coin_kind in ("grover", "dft"):
            g, op, fin = hypercube_setup(3, coin_kind)
            report = spectral.infinite_hitting_projector(op.matrix, fin)
            total = sum(
                np.trace(spectral.coin_overlap_matrix(report, g, v).matrix).real
                for v in range(g.num_vertices)
            )
            assert total == pytest.approx(report.trace_p, abs=1e-8)


class TestDegeneracyCondition:
    def test_dft_hypercube4_sufficient(self):
        _, op, _ = hypercube_setup(4, "dft")
        assert spectral.degeneracy_condition(op.matrix, 4) == spectral.SUFFICIENT_FOR_INFINITE

    def test_nondegenerate_inconclusive(self, rng):
        phases = np.linspace(0.2, 5.8, 6)
        v = random_unitary(6, rng)
        u = (v * np.exp(1j * phases)) @ v.conj().T
        assert spectral.degeneracy_condition(u, 1) == spectral.INCONCLUSIVE

    def test_continuous_walk_uses_unit_coin_dimension(self):
        # any doubly degenerate level of the propagator suffices when d = 1
        h = walk.continuous_hamiltonian(graphs.build_cycle(4))
        u = walk.continuous_propagator(h, 1.0).matrix
        assert spectral.degeneracy_condition(u, 1) == spectral.SUFFICIENT_FOR_INFINITE


class TestReportDict:
    def test_serializable_summary(self):
        _, op, fin = hypercube_setup(3, "grover")
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        d = spectral.report_to_dict(report)
        assert d["trace_p_int"] == report.trace_int
        assert sum(e["multiplicity"] for e in d["eigenvalues"]) == 24


def dense_walk(descriptor, coin_kind):
    """(graph, dense U) of a CLI graph shorthand with a grover or dft coin."""
    g, _, _ = cli.resolve_graph(descriptor, None)
    coin = walk.grover_coin(g.degree_value) if coin_kind == "grover" else walk.dft_coin(g.degree_value)
    return g, walk.evolution_operator(g, coin).matrix


def dense_route_walk(descriptor, coin_kind):
    """:func:`dense_walk`, a hypercube's with its colors permuted: the same
    walk, which takes the dense route."""
    g, u = dense_walk(descriptor, coin_kind)
    return g, color_permuted(u, g.degree_value) if descriptor.startswith("hypercube:") else u


CLI_GRAPHS = ("edge", "cycle:8", "cycle:16", "cycle:32", "cycle:64", "cayley:s3:2gen",
              "cayley:s3:3gen", "cayley:s4:3gen", "distorted-hypercube:3", "distorted-hypercube:4",
              "distorted-hypercube:5", "hypercube:3", "hypercube:4", "hypercube:5", "hypercube:6")


def cli_cases():
    """(name, graph, dense U, final indices, starts) of the CLI's graphs with
    both coins, to the last vertex from the symmetric and basis:0:1 starts,
    and of cayley:s4:3gen to the finals w1321, w2312; U is that of
    :func:`dense_route_walk`, so that every case takes the dense route."""
    for descriptor, final in [(d, "all-ones") for d in CLI_GRAPHS] + [("cayley:s4:3gen", "w1321,w2312")]:
        g, cay, _ = cli.resolve_graph(descriptor, None)
        fin = graphs.BasisIndexing.from_graph(g).indices_for(cli.resolve_final(final, g, cay))
        starts = [cli.resolve_start(s, g) for s in ("symmetric", "basis:0:1")]
        for coin_kind in ("grover", "dft"):
            yield f"{descriptor}-{coin_kind}-{final}", g, dense_route_walk(descriptor, coin_kind)[1], fin, starts


class TestReadFromUntrapped:
    """The escape and the coin-overlap blocks are read from W on both routes:
    on the dense route they equal their forms in the trapped basis B."""

    def test_dense_escape_and_blocks_equal_the_trapped_basis_forms(self):
        cases = [(name, spec.walk.graph, spec.walk.matrix, spec.final_array, [spec.state])
                 for name, spec in battery()]
        for name, g, u, fin, starts in cases + list(cli_cases()):
            report = spectral.infinite_hitting_projector(u, fin)
            b = report.basis
            rho = sum(np.outer(psi, psi.conj()) for psi in starts) / len(starts)
            for state in [*starts, rho]:
                if state.ndim == 1:
                    want = np.linalg.norm(b.conj().T @ state) ** 2
                else:
                    want = np.trace(b.conj().T @ state @ b).real
                assert abs(spectral.escape_probability(report, state) - want) <= 1e-13, name
            rows = np.array([list(r) for r in map(graphs.BasisIndexing.from_graph(g).vertex_indices,
                                                  range(g.num_vertices))])
            blocks = report.vertex_blocks(rows)
            assert np.max(np.abs(blocks - b[rows] @ b[rows].conj().transpose(0, 2, 1))) <= 1e-13, name

    def test_one_report_class_serves_both_routes(self):
        # the frame, not a subclass, says which route a report took
        _, op, fin = hypercube_setup(3, "grover")
        reports = [spectral.infinite_hitting_projector(u, fin) for u in (op, color_permuted(op.matrix, 3))]
        assert [type(r) for r in reports] == [spectral.SpectralReport] * 2
        assert [r.route for r in reports] == ["fourier", "dense"]
        assert not spectral.SpectralReport.__subclasses__()


def eager_bases(u, fin):
    """(contributions, B, W) as the dense report built them when it built
    both eagerly: each cluster of the no-final clustering rotated by the full
    SVD of its final overlap, its first rank columns into W, the rest into B."""
    contributions, trapped, untrapped = [], [], []
    for c in spectral.eigenspace_clusters(u):
        _, s, vh = np.linalg.svd(c.basis[fin])
        rank = int(np.sum(s > spectral.NULLSPACE_RTOL * s[:1]))
        rotated = c.basis @ vh.conj().T if 0 < rank < c.multiplicity else c.basis
        contributions.append(c.multiplicity - rank)
        trapped.append(rotated[:, rank:])
        untrapped.append(rotated[:, :rank])
    return tuple(contributions), np.hstack(trapped), np.hstack(untrapped)


class TestTrappedBasisOnRead:
    """The dense report builds W and B when each is read, and trace(P)
    comes from W's coefficients."""

    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    @pytest.mark.parametrize("descriptor", [
        "cycle:8", "cycle:16", "distorted-hypercube:3", "distorted-hypercube:4", "distorted-hypercube:5",
        "cayley:s3:2gen", "cayley:s3:3gen", "cayley:s4:3gen", "hypercube:3", "hypercube:4", "hypercube:5"])
    def test_lazy_basis_matches_the_eager_construction(self, descriptor, coin_kind):
        g, u = dense_route_walk(descriptor, coin_kind)
        idx = graphs.BasisIndexing.from_graph(g)
        last = g.num_vertices - 1
        for finals in ([last], [last, last // 2]):
            fin = idx.indices_for(finals)
            report = spectral.infinite_hitting_projector(u, fin)
            contributions, b_eager, w_eager = eager_bases(u, fin)
            assert report.contributions == contributions
            assert report.trapped_dim == b_eager.shape[1]
            assert "basis" not in vars(report)
            b, w, dim = report.basis, report.untrapped, len(u)
            assert np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1])), initial=0.0) <= 1e-12
            assert np.max(np.abs(b.conj().T @ w), initial=0.0) <= 1e-12
            assert np.max(np.abs(b @ b.conj().T - (np.eye(dim) - w @ w.conj().T))) <= 1e-10
            assert np.max(np.abs(b @ b.conj().T - b_eager @ b_eager.conj().T)) <= 1e-10
            assert np.max(np.abs(w @ w.conj().T - w_eager @ w_eager.conj().T)) <= 1e-10
            assert abs(report.trace_p - np.linalg.norm(b) ** 2) <= 1e-12 * dim

    def test_verdict_with_r_below_t_builds_no_trapped_basis(self, monkeypatch):
        class Built(Exception):
            pass

        def refuse(report):
            raise Built

        monkeypatch.setattr(spectral.SpectralReport, "basis", property(refuse))  # on both routes
        cay = graphs.cayley_hypercube(6)
        op = walk.evolution_operator(cay.graph, walk.grover_coin(6))
        fin = graphs.BasisIndexing.from_graph(cay.graph).indices_for([63])
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        assert (report.untrapped_dim, report.trapped_dim) == (72, 312)
        verdict = quotient.quotient_infinite_hitting(op.matrix, quotient.orbit_basis(full_direction_group(cay), op.dim), fin)
        assert verdict.intersection_dim == 0

        g, u = dense_walk("distorted-hypercube:5", "grover")
        fin = graphs.BasisIndexing.from_graph(g).indices_for([g.num_vertices - 1])
        spec = hitting.measured_walk(walk.WalkOperator(u), hitting.symmetric_state(g, 0), final_indices=fin)
        hitting.hitting_time_closed_form(spec)
        spectral.coin_overlap_matrices(spectral.infinite_hitting_projector(u, spec.final_array), g)

        cay = graphs.cayley_s4_3gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
        finals = [cay.vertex_of_word([1, 3, 2, 1]), cay.vertex_of_word([2, 3, 1, 2])]
        fin = graphs.BasisIndexing.from_graph(cay.graph).indices_for(finals)
        report = spectral.infinite_hitting_projector(op.matrix, fin)
        assert (report.trapped_dim, report.untrapped_dim) == (18, 54)
        # the full group's 14 orbits are fewer than either basis has columns,
        # so neither is built; the 38 orbits of (1,2) are not, and with
        # t <= r the trapped basis is read
        full = quotient.orbit_basis(full_direction_group(cay), op.dim)
        assert quotient.quotient_infinite_hitting(op.matrix, full, fin).intersection_dim == 2
        swap = quotient.orbit_basis(direction_group(cay, "(1,2)"), op.dim)
        assert swap.num_orbits == 38
        with pytest.raises(Built):
            quotient.quotient_infinite_hitting(op.matrix, swap, fin)

    def test_basis_refused_before_it_allocates(self, monkeypatch):
        _, op, fin = hypercube_setup(4, "dft")
        report = spectral.infinite_hitting_projector(color_permuted(op.matrix, 4), fin)
        assert report.route == "dense"
        # U, V and W with B, 3 complex arrays of 64 x 64, U on its chains
        # (512 entries), two chunks of 64 columns and the SVD factors of the
        # partly trapped clusters, four of 4 x 4 and four of 8 x 8, against
        # a 64 KiB budget
        assert sum(blocks.size for _, blocks in report.frame.chains) == 512
        monkeypatch.setattr(walk, "_memory_budget", lambda: 64 * 2**10)
        with pytest.raises(ValueError, match="dimension 64 needs an estimated 333 KiB, over a memory budget of 64 KiB"):
            report.basis
        assert "basis" not in vars(report)

    @pytest.mark.parametrize("route", ["dense", "fourier"])
    def test_basis_refused_before_its_svds(self, monkeypatch, route):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran before the memory check")

        _, op, fin = hypercube_setup(6, "grover")
        report = spectral.infinite_hitting_projector(op if route == "fourier" else color_permuted(op.matrix, 6), fin)
        assert report.route == route and report.trapped_dim == 312
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**10)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        with pytest.raises(ValueError, match="over a memory budget of 1 KiB"):
            report.basis


def count_parity_splits(monkeypatch) -> list:
    """The arguments of every parity split from here on, in a list."""
    calls, parity_split = [], spectral._parity_split

    def counting(*args):
        calls.append(args)
        return parity_split(*args)

    monkeypatch.setattr(spectral, "_parity_split", counting)
    return calls


class TestParitySplit:
    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    @pytest.mark.parametrize("descriptor", [
        "hypercube:4", "hypercube:5", "hypercube:6", "hypercube:7", "cayley:s4:3gen", "cycle:32", "cycle:64"])
    def test_both_paths_agree(self, monkeypatch, descriptor, coin_kind):
        g, u = dense_route_walk(descriptor, coin_kind)
        default = spectral.PARITY_MIN_DIM
        project = spectral.infinite_hitting_projector
        splits = count_parity_splits(monkeypatch)

        def closed_form_on(report, spec):
            monkeypatch.setattr(spectral, "infinite_hitting_projector", lambda *_: report)
            return hitting.hitting_time_closed_form(spec)

        last = g.num_vertices - 1
        starts = (hitting.symmetric_state(g, 0), hitting.basis_state(g, 0, 1))
        for finals in ([last], [last, last - 1]):
            fin = graphs.BasisIndexing.from_graph(g).indices_for(finals)
            reports = []
            for min_dim in (len(u) + 1, 0):
                monkeypatch.setattr(spectral, "PARITY_MIN_DIM", min_dim)
                before = len(splits)
                reports.append(project(u, fin))
                assert len(splits) - before == (min_dim == 0)
            eigh, parity = reports
            assert [c.multiplicity for c in parity.clusters] == [c.multiplicity for c in eigh.clusters]
            assert parity.contributions == eigh.contributions and parity.warnings == eigh.warnings
            lams = [c.eigenvalue for c in parity.clusters]
            assert np.max(np.abs(np.subtract(lams, [c.eigenvalue for c in eigh.clusters]))) <= 1e-14
            bases = np.hstack([c.basis for c in parity.clusters])
            each = np.repeat(lams, [c.multiplicity for c in parity.clusters])
            assert np.max(np.abs(u @ bases - bases * each)) <= 1e-10
            assert np.max(np.abs(trapped_projector(parity) - trapped_projector(eigh))) <= 1e-12
            for psi in starts:
                spec = hitting.measured_walk(walk.WalkOperator(u), psi, final_indices=fin)
                got, want = closed_form_on(parity, spec), closed_form_on(eigh, spec)
                assert (got.method, got.kind) == (want.method, want.kind)
                if want.is_finite:
                    assert got.value == pytest.approx(want.value, rel=1e-12)
                else:
                    assert got.escape_probability == pytest.approx(want.escape_probability, abs=1e-12)
        monkeypatch.setattr(spectral, "PARITY_MIN_DIM", default)
        before = len(splits)
        project(u, [0])
        assert len(splits) - before == (len(u) >= default)  # the default takes it from D = 128

    def test_other_walks_stay_on_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parity split taken")

        monkeypatch.setattr(spectral, "_parity_split", refuse)
        tol = spectral.CLUSTER_TOL
        assert spectral.PARITY_MIN_DIM > 40  # every closed-form and dephasing walk
        for _, spec in battery():
            spectral.eigenspace_clusters(spec.walk.matrix)
        _, below = dense_walk("hypercube:4", "grover")  # D = 64, bipartite
        assert spectral._parity_sides(below) is not None
        spectral.eigenspace_clusters(below)
        _, distorted = dense_walk("distorted-hypercube:6", "grover")  # D = 384, an odd cycle
        assert spectral._parity_sides(distorted) is None
        spectral.infinite_hitting_projector(distorted, [0])
        # a unitary whose pattern 2-colours has equal halves, so the odd and
        # unequal cases are Hermitian: a path on 129 vertices, K(60, 68)
        path = np.diag(np.ones(128), 1)
        k60_68 = np.zeros((128, 128))
        k60_68[:60, 60:] = 1.0
        for m in (path + path.T, k60_68 + k60_68.T):
            assert spectral._parity_sides(m) is None
            spectral._split_stack(m[None], tol)
        _, u = dense_walk("hypercube:5", "grover")
        linked = (u != 0) | (u != 0).T
        k = np.flatnonzero(linked[0])[0]
        i, j = np.setdiff1d(np.flatnonzero(linked[k]), [0])[:2]  # both two steps from 0
        assert spectral._parity_sides(u)[[0, i, j]].all() and u[i, j] == 0
        u[i, j] = 1e-300  # inside a half: the pattern no longer 2-colours
        assert spectral._parity_sides(u) is None
        spectral.infinite_hitting_projector(u, [0])


def permuted_color_cube(n):
    """build_hypercube(n) with colors 1 and 2 swapped, read back from JSON:
    the same graph, whose shift is not the one the Fourier route reads."""
    doc = graphs.graph_to_dict(graphs.build_hypercube(n))
    swap = {1: 2, 2: 1}
    for e in doc["edges"]:
        e["cu"] = e["cv"] = swap.get(e["cu"], e["cu"])
    return graphs.graph_from_json(json.dumps(doc))


def cube_walk_spec(n, coin_kind, start, finals):
    g = graphs.build_hypercube(n)
    coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
    psi = hitting.symmetric_state(g, 0) if start == "symmetric" else hitting.basis_state(g, 0, 1)
    return hitting.measured_walk(walk.evolution_operator(g, coin), psi, final_vertices=finals)


class TestFourierRoute:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    def test_matches_the_dense_route(self, n, coin_kind):
        for start in ("symmetric", "basis"):
            for finals in ([2**n - 1], [2**n - 1, 2**n - 2]):
                spec = cube_walk_spec(n, coin_kind, start, finals)
                # the same walk with its colors permuted, which the dense
                # route takes; P keeps the finals, which are whole vertices
                image = color_shift(spec.dim, n)
                dense = hitting.measured_walk(walk.WalkOperator(relabelled(spec.walk.matrix, image)),
                                              relabelled(spec.state, image), final_indices=spec.final_indices)
                fr = spectral.infinite_hitting_projector(spec.walk, spec.final_array)
                dr = spectral.infinite_hitting_projector(dense.walk, spec.final_array)
                assert (fr.route, dr.route) == ("fourier", "dense")
                assert [c.multiplicity for c in fr.clusters] == [c.multiplicity for c in dr.clusters]
                assert fr.contributions == dr.contributions and fr.warnings == dr.warnings
                lams = [c.eigenvalue for c in fr.clusters]
                assert np.max(np.abs(np.subtract(lams, [c.eigenvalue for c in dr.clusters]))) <= 1e-12
                got, want = hitting.hitting_time_closed_form(spec), hitting.hitting_time_closed_form(dense)
                assert (got.method, got.kind) == (want.method, want.kind)
                if want.is_finite:
                    assert got.value == pytest.approx(want.value, rel=1e-10)
                else:
                    assert got.escape_probability == pytest.approx(want.escape_probability, abs=1e-12)

    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    def test_bases_span_the_dense_subspaces(self, coin_kind):
        spec = cube_walk_spec(4, coin_kind, "symmetric", [15])
        fr = spectral.infinite_hitting_projector(spec.walk, spec.final_array)
        dr = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
        for got, want in ((fr.basis, dr.basis), (fr.untrapped, dr.untrapped)):
            assert np.max(np.abs(got.conj().T @ got - np.eye(got.shape[1]))) <= 1e-12
            assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T)) <= 1e-10
        u = spec.walk.matrix
        for c in fr.clusters:
            assert np.max(np.abs(u @ c.basis - c.eigenvalue * c.basis)) <= 1e-10
        rho = spec.rho0
        escapes = [spectral.escape_probability(report, rho) for report in (fr, dr)]
        assert escapes[0] == pytest.approx(escapes[1], abs=1e-12)
        mixed = hitting.MeasuredWalkSpec(spec.walk, spec.final_indices, rho)
        start = fr.untrapped_start(mixed.columns)  # W+ Psi, with rho = Psi Psi+
        assert np.max(np.abs(start @ start.conj().T - fr.untrapped.conj().T @ rho @ fr.untrapped)) <= 1e-12
        assert hitting.hitting_time_closed_form(mixed).value == pytest.approx(
            hitting.hitting_time_closed_form(spec).value, rel=1e-10)

    def test_no_finals_trap_everything(self):
        _, op, _ = hypercube_setup(3, "dft")
        for u in (op, op.matrix):
            report = spectral.infinite_hitting_projector(u, [])
            assert report.trapped_dim == report.trace_int == 24 and report.untrapped.shape == (24, 0)

    @pytest.mark.parametrize("walk_kind", ["distorted", "dense-matrix", "permuted-colors"])
    def test_other_walks_take_the_dense_route(self, walk_kind):
        g = permuted_color_cube(3) if walk_kind == "permuted-colors" else (
            graphs.build_distorted_hypercube(3) if walk_kind == "distorted" else graphs.build_hypercube(3))
        op = walk.evolution_operator(g, walk.grover_coin(3))
        if walk_kind == "dense-matrix":  # the cube's, its colors permuted
            op = walk.WalkOperator(color_permuted(op.matrix, 3))
        spec = hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_indices=range(21, 24))
        cube = cube_walk_spec(3, "grover", "symmetric", [7])
        want = hitting.hitting_time_closed_form(cube).value
        report = spectral.infinite_hitting_projector(op, spec.final_array)
        assert report.route == "dense"
        spectral.eigenspace_clusters(op)
        got = hitting.hitting_time_closed_form(spec).value
        if walk_kind != "distorted":  # the same walk, relabelled or given densely
            assert got == pytest.approx(want, rel=1e-12)

    def test_builds_no_dense_matrix(self, monkeypatch):
        # spectrum and hitting on hypercube:3-8, with the dense U unavailable;
        # the grover hitting times match the Hamming-weight line walk
        def refuse(*args, **kwargs):
            raise AssertionError("dense U read")

        line_taus = {}
        for n in range(3, 9):
            lw = quotient.hypercube_line_reduction(n)
            start = np.zeros(lw.dim)
            start[lw.start_index] = 1.0
            line = hitting.measured_walk(walk.WalkOperator(lw.matrix), start, final_indices=[lw.final_index])
            line_taus[n] = hitting.hitting_time_closed_form(line).value
        monkeypatch.setattr(walk.WalkOperator, "matrix", property(refuse))
        monkeypatch.setattr(graphs, "shift_matrix", refuse)
        for n in range(3, 9):
            out = io.StringIO()
            assert cli.main(["spectrum", "--graph", f"hypercube:{n}"], out=out) == 0
            payload = json.loads(out.getvalue())
            assert payload["trace_p_int"] == sum(e["trapped_dim"] for e in payload["eigenvalues"])
            out = io.StringIO()
            assert cli.main(["hitting", "--graph", f"hypercube:{n}"], out=out) == 0
            tau = float(out.getvalue().splitlines()[1].split(",")[2])
            assert tau == pytest.approx(line_taus[n], rel=1e-10)

    def test_memory_estimate_refuses_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Fourier route allocated")

        # 10240 x (8 x 10 + 8 x 10) complex entries against an 8 MiB budget
        spec = cube_walk_spec(10, "grover", "symmetric", [1023])
        monkeypatch.setattr(walk, "_memory_budget", lambda: 8 * 2**20)
        monkeypatch.setattr(spectral, "_frame", refuse)
        with pytest.raises(ValueError, match="dimension 10240 needs an estimated 25 MiB, over a memory budget of 8 MiB"):
            hitting.hitting_time_closed_form(spec)


class TestOneClosedForm:
    """The unitary closed form reads the frame alone on every route: the
    start from the members' coefficients, A_r from U on its chains."""

    @pytest.mark.parametrize("descriptor, route, parity", [
        ("distorted-hypercube:4", "dense", False), ("cycle:64", "dense", True), ("hypercube:4", "fourier", False)])
    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    def test_builds_no_basis_and_applies_no_walk(self, monkeypatch, descriptor, route, parity, coin_kind):
        # the mixed start is the mean of two pure ones, psi and U psi, and
        # its hitting time, linear in the start, the mean of theirs
        def refuse(*args, **kwargs):
            raise AssertionError("a D-tall basis was built or the walk applied")

        g, u = dense_walk(descriptor, coin_kind)  # the cube's dense U takes the Fourier route
        op = walk.WalkOperator(u)
        fin = graphs.BasisIndexing.from_graph(g).indices_for([g.num_vertices - 1])
        psi = hitting.symmetric_state(g, 0)
        psis = (psi, u @ psi)
        specs = [hitting.measured_walk(op, psi, final_indices=fin) for psi in psis]
        rho = sum(np.outer(psi, psi.conj()) for psi in psis) / 2
        specs.append(hitting.MeasuredWalkSpec(op, specs[0].final_indices, rho))
        splits = count_parity_splits(monkeypatch)
        monkeypatch.setattr(fourier.Frame, "span", refuse)
        monkeypatch.setattr(walk.WalkOperator, "apply", refuse)
        results = [hitting.hitting_time_closed_form(spec) for spec in specs]
        assert spectral.infinite_hitting_projector(op, fin).route == route
        assert len(splits) == 4 * parity
        if results[2].is_finite:
            assert all(r.is_finite for r in results)
            assert results[2].value == pytest.approx((results[0].value + results[1].value) / 2, rel=1e-10)
        else:
            escapes = [r.escape_probability for r in results]
            assert escapes[2] == pytest.approx((escapes[0] + escapes[1]) / 2, abs=1e-12)


def cube_matrix(n, coin_kind):
    """The dense U of the walk on the n-cube, as ``build_hypercube`` colors it."""
    coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
    return walk.evolution_operator(graphs.build_hypercube(n), coin).matrix


def touched(u, n, what):
    """A copy of the n-cube's dense U with one entry changed: one of vertex
    1's coin entries by one ulp or to NaN, or an entry that the walk leaves
    zero to 1e-300 or NaN."""
    u = u.copy()
    coin_entry, zero_entry = ((1 ^ 2) * n + 1, n), (0, 1)  # C[1, 0] at vertex 1; U[0, 1]
    assert u[coin_entry] != 0
    if what == "ulp":
        u.real[coin_entry] = np.nextafter(u.real[coin_entry], np.inf)
    elif what == "nan-coin":
        u[coin_entry] = np.nan
    else:
        assert u[zero_entry] == 0
        u[zero_entry] = 1e-300 if what == "stray" else np.nan
    return u


class TestCubeRecognizer:
    """The Fourier route is taken by the walk on the n-cube in either form,
    factored or one dense block, and by nothing else."""

    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_dense_cube_takes_the_fourier_route(self, n, coin_kind):
        u = cube_matrix(n, coin_kind)
        coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
        fin = graphs.BasisIndexing.from_graph(graphs.build_hypercube(n)).indices_for([2**n - 1])
        for form in (u, walk.WalkOperator(u)):
            got = fourier._cube_coin(walk._as_walk(form))
            assert got.dtype == coin.matrix.dtype and np.array_equal(got, coin.matrix)
            assert spectral.infinite_hitting_projector(form, fin).route == "fourier"

    def test_one_block_with_a_shift_image_takes_the_dense_route(self):
        # its dense U is the block with its rows moved, not the block
        u = cube_matrix(3, "grover")
        op = walk.WalkOperator(u, image=np.roll(np.arange(len(u)), 1))
        assert fourier._cube_coin(op) is None
        assert spectral.infinite_hitting_projector(op, [0]).route == "dense"

    @pytest.mark.parametrize("case", [
        *(f"distorted-hypercube:{n}" for n in range(3, 7)),
        *(f"{what}-{coin}" for what in ("permuted", "ulp", "stray", "nan-coin", "nan-stray")
          for coin in ("grover", "dft"))])
    def test_other_dense_walks_take_the_dense_route(self, case):
        n = 4
        if case.startswith("distorted"):
            g, u = dense_walk(case, "grover")
            n = g.degree_value
        elif case.startswith("permuted"):
            u = color_permuted(cube_matrix(n, case.split("-")[1]), n)
        else:
            what, coin_kind = case.rsplit("-", 1)
            u = touched(cube_matrix(n, coin_kind), n, what)
        assert len(u) == n << n
        assert fourier._cube_coin(walk.WalkOperator(u)) is None
        if "nan" in case:  # the dense route refuses a NaN
            with pytest.raises(ValueError):
                spectral.infinite_hitting_projector(u, [0])
        else:
            assert spectral.infinite_hitting_projector(u, [0]).route == "dense"


class TestCubeWalk:
    """``fourier.cube_walk`` reads a dense n-cube walk as its factors, once,
    and hands every other walk back as it is."""

    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_a_dense_cube_becomes_its_coin_and_shift(self, n, coin_kind):
        g = graphs.build_hypercube(n)
        coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
        op = walk.evolution_operator(g, coin)
        u = op.matrix
        got = fourier.cube_walk(walk.WalkOperator(u))
        assert got.block.dtype == coin.matrix.dtype and np.array_equal(got.block, coin.matrix)
        assert np.array_equal(got.image, op.image)
        assert not np.shares_memory(got.block, u)
        m = got.matrix
        assert m.dtype == u.dtype and np.array_equal(m.view(np.float64), u.view(np.float64))
        assert np.array_equal(np.signbit(m.view(np.float64)), np.signbit(u.view(np.float64)))
        assert fourier.cube_walk(op) is op  # already factored

    @pytest.mark.parametrize("case", [
        *(f"permuted-hypercube:{n}-{coin}" for n in (2, 4, 6) for coin in ("grover", "dft")),
        *(f"distorted-hypercube:{n}" for n in range(3, 7)),
        "cayley:s3:2gen", "cayley:s3:3gen", "cayley:s4:3gen", "cycle:8"])
    def test_every_other_walk_is_returned_as_it_is(self, case):
        if case.startswith("permuted"):
            descriptor, coin_kind = case.removeprefix("permuted-").rsplit("-", 1)
            g, u = dense_walk(descriptor, coin_kind)
            u = color_permuted(u, g.degree_value)
        else:
            g, u = dense_walk(case, "grover")
        for op in (walk.WalkOperator(u), walk.evolution_operator(g, walk.grover_coin(g.degree_value))):
            assert fourier.cube_walk(op) is op
