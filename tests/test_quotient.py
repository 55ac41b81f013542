import contextlib
import dataclasses
import functools
import io
import math
import re
import tracemalloc
import types

import numpy as np
import pytest

from qwlab import cli, fourier, graphs, groups, hitting, quotient, spectral, walk
from qwlab.errors import SymmetryError

from conftest import (color_permuted, color_shift, direction_group, full_direction_group, random_unitary,
                      relabelled_group, subgroup_forms)

R22 = 2.0 * np.sqrt(2.0) / 3.0

# Reduced walk on the six orbit states of the two-generator permutation
# graph with the direction-swap symmetry (rows/cols in orbit order sorted
# by smallest member; the last two orbits swap relative to the common
# listing order, recorded as GOLDEN_PERM below).
GOLDEN_S3_2GEN = np.array(
    [
        [0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0],
    ],
    dtype=complex,
)
GOLDEN_S3_2GEN_PERM = (0, 1, 2, 4, 3, 5)

# Reduced walk of the three-generator permutation graph under the cyclic
# direction rotation (common listing order; orbits 2 and 3 swap relative
# to smallest-member order).
GOLDEN_S3_3GEN_CYCLIC = np.array(
    [
        [0, -1 / 3, 2 / 3, 2 / 3, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 2 / 3, 2 / 3, -1 / 3, 0, 0],
        [0, 2 / 3, -1 / 3, 2 / 3, 0, 0],
    ],
    dtype=complex,
)
GOLDEN_S3_3GEN_CYCLIC_PERM = (0, 1, 3, 2, 4, 5)

# Hamming-weight reduction of the three-dimensional cube walk with the
# uniform coin, basis R0, L1, R1, L2, R2, L3.
GOLDEN_CUBE3_LINE = np.array(
    [
        [0, -1 / 3, R22, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1 / 3, R22, 0],
        [0, R22, 1 / 3, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, R22, -1 / 3, 0],
    ]
)

GOLDEN_2x2_COIN_BLOCK = np.array([[-1 / 3, R22], [R22, 1 / 3]])


def cube_walk(n, coin="grover"):
    cay = graphs.cayley_hypercube(n)
    c = walk.grover_coin(n) if coin == "grover" else walk.dft_coin(n)
    return cay, walk.evolution_operator(cay.graph, c)


class TestOrbitBasis:
    def test_trivial_group_is_identity(self):
        for sub in subgroup_forms(groups.closure([], dim=5)):
            basis = quotient.orbit_basis(sub, 5)
            assert np.array_equal(basis.matrix, np.eye(5, dtype=complex))
            assert [f.name for f in dataclasses.fields(basis)] == ["labels"]

    def test_is_its_labels(self):
        cay, _ = cube_walk(3)
        grp = full_direction_group(cay)
        for sub in subgroup_forms(grp):
            basis = quotient.orbit_basis(sub, 24)
            assert [f.name for f in dataclasses.fields(basis)] == ["labels"]
            assert np.array_equal(basis.labels, groups.orbit_labels(grp.generators, 24))
            assert not any(isinstance(v, groups.PermGroup) for v in vars(basis).values())

    def test_isometry_and_symmetry(self):
        cay = graphs.cayley_s3_2gen()
        grp = direction_group(cay, "(1,2)")
        for sub in subgroup_forms(grp):
            basis = quotient.orbit_basis(sub, 12)
            gram = basis.matrix.conj().T @ basis.matrix
            assert np.max(np.abs(gram - np.eye(6))) < 1e-14
            for p in grp.elements:
                sigma = p.matrix()
                assert np.max(np.abs(sigma @ basis.matrix - basis.matrix)) < 1e-12

    def test_two_generator_orbit_vectors(self):
        cay = graphs.cayley_s3_2gen()
        basis = quotient.orbit_basis(direction_group(cay, "(1,2)"), 12)
        expected_pairs = [(0, 1), (2, 5), (3, 4), (6, 9), (7, 8), (10, 11)]
        for j, pair in enumerate(expected_pairs):
            col = np.zeros(12)
            col[list(pair)] = 1 / np.sqrt(2)
            assert np.allclose(basis.matrix[:, j], col, atol=1e-15)

    def test_cube_normalizations(self):
        cay, _ = cube_walk(3)
        for sub in subgroup_forms(full_direction_group(cay)):
            basis = quotient.orbit_basis(sub, 24)
            norms = sorted(set(np.round(basis.matrix[basis.matrix != 0].real, 12)))
            assert norms == sorted({round(1 / np.sqrt(3), 12), round(1 / np.sqrt(6), 12)})

    def test_column_space_matches_fixed_space_dimension(self):
        # independent route: nullspace of the stacked (sigma - I) maps
        cay, _ = cube_walk(3)
        grp = full_direction_group(cay)
        stack = np.vstack([p.matrix() - np.eye(24) for p in grp.elements])
        rank = np.linalg.matrix_rank(stack, tol=1e-10)
        for sub in subgroup_forms(grp):
            assert 24 - rank == quotient.orbit_basis(sub, 24).num_orbits


class TestWalkSymmetry:
    def test_uniform_coin_full_group(self):
        cay, op = cube_walk(3)
        for sub in subgroup_forms(full_direction_group(cay)):
            chk = quotient.check_walk_symmetry(op.matrix, sub)
            assert chk.commutes and chk.max_residual < 1e-12

    def test_fourier_coin_breaks_transpositions(self):
        cay, op = cube_walk(3, coin="dft")
        for sub in subgroup_forms(direction_group(cay, "(1,2)")):
            assert not quotient.check_walk_symmetry(op.matrix, sub).commutes

    def test_trivial_group_always_commutes(self, rng):
        u = np.eye(6)[rng.permutation(6)].astype(complex)
        for sub in subgroup_forms(groups.closure([], dim=6)):
            chk = quotient.check_walk_symmetry(u, sub)
            assert chk.commutes and chk.max_residual == 0.0

    def test_row_blocks_match_whole_matrix_residual(self, rng):
        # the residual must equal, bit for bit, the one read off
        # whole-matrix copies.
        dim = 512
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        perms = [groups.Permutation(tuple(rng.permutation(dim).tolist())) for _ in range(3)]
        expected = max(
            float(np.max(np.abs(m[:, np.asarray(p.image)] - m[np.argsort(p.image), :])))
            for p in perms
        )
        assert quotient.check_walk_symmetry(m, perms).max_residual == expected

    def test_quotient_walk_raises_on_leak(self):
        cay, op = cube_walk(3, coin="dft")
        for sub in subgroup_forms(direction_group(cay, "(1,2)")):
            basis = quotient.orbit_basis(sub, 24)
            with pytest.raises(SymmetryError):
                quotient.quotient_walk(op.matrix, basis)

    def test_quotient_walk_needs_only_the_symmetric_subspace_kept(self, rng):
        # U = B B+ + Q W Q+ keeps ran(B) and is the identity there, while a
        # random unitary W on the complement breaks every commutation
        cay, _ = cube_walk(3)
        grp = full_direction_group(cay)
        basis = quotient.orbit_basis(grp, 24)
        b, k = basis.matrix, basis.num_orbits
        q = np.linalg.svd(b)[0][:, k:]
        u = b @ b.T + q @ random_unitary(24 - k, rng) @ q.T
        assert np.max(np.abs(quotient.quotient_walk(u, basis) - np.eye(k))) < 1e-12
        assert not quotient.check_walk_symmetry(u, grp.generators).commutes

    def test_leak_residual_is_read_off_the_orbit_sums(self):
        cay, op = cube_walk(3, coin="dft")
        basis = quotient.orbit_basis(direction_group(cay, "(1,2)"), 24)
        b = basis.matrix
        u_h = b.T @ op.matrix @ b
        leak = np.max(np.abs(b.T @ op.matrix - u_h @ b.T))
        with pytest.raises(SymmetryError, match=re.escape(f"(residual {leak:.3e})")):
            quotient.quotient_walk(op, basis)

    def test_reduction_runs_without_the_commutation_test(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the commutation test ran")

        monkeypatch.setattr(quotient, "check_walk_symmetry", refuse)
        argv = ["quotient", "--graph", "hypercube:4", "--coin", "grover"]
        argv += [arg for i in range(1, 4) for arg in ("--subgroup", f"({i},{i + 1})")]
        assert cli.main(argv, out=io.StringIO()) == 0
        cay, op = cube_walk(4)
        basis = quotient.orbit_basis(full_direction_group(cay), op.dim)
        final = graphs.BasisIndexing.from_graph(cay.graph).indices_for([15])
        assert quotient.quotient_infinite_hitting(op, basis, final).intersection_dim == 0


class TestReducedWalks:
    def test_two_generator_golden_matrix(self):
        cay = graphs.cayley_s3_2gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(2))
        basis = quotient.orbit_basis(direction_group(cay, "(1,2)"), 12)
        uh = quotient.quotient_walk(op.matrix, basis)
        perm = list(GOLDEN_S3_2GEN_PERM)
        assert np.max(np.abs(uh[np.ix_(perm, perm)] - GOLDEN_S3_2GEN)) < 1e-12

    def test_three_generator_cyclic_golden_matrix(self):
        cay = graphs.cayley_s3_3gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
        basis = quotient.orbit_basis(direction_group(cay, "(1,2,3)"), 18)
        uh = quotient.quotient_walk(op.matrix, basis)
        perm = list(GOLDEN_S3_3GEN_CYCLIC_PERM)
        assert np.max(np.abs(uh[np.ix_(perm, perm)] - GOLDEN_S3_3GEN_CYCLIC)) < 1e-12

    def test_three_generator_full_group_reduction_is_unitary(self):
        # 4-state reduction; entries mix 0, +-1/3, 2sqrt(2)/3
        cay = graphs.cayley_s3_3gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
        basis = quotient.orbit_basis(full_direction_group(cay), 18)
        uh = quotient.quotient_walk(op.matrix, basis)
        assert uh.shape == (4, 4)
        assert np.max(np.abs(uh.conj().T @ uh - np.eye(4))) < 1e-12
        expected = np.array(
            [
                [0, -1 / 3, R22, 0],
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [0, R22, 1 / 3, 0],
            ]
        )
        assert np.max(np.abs(uh - expected)) < 1e-12

    def test_cube_full_group_equals_line_reduction(self):
        cay, op = cube_walk(3)
        lw = quotient.hypercube_line_reduction(3)
        for sub in subgroup_forms(full_direction_group(cay)):
            uh = quotient.quotient_walk(op.matrix, quotient.orbit_basis(sub, 24))
            assert np.max(np.abs(uh - GOLDEN_CUBE3_LINE)) < 1e-12
            assert np.max(np.abs(uh - lw.matrix)) < 1e-12

    def test_trivial_subgroup_returns_original(self):
        cay, op = cube_walk(2)
        basis = quotient.orbit_basis(groups.closure([], dim=8), 8)
        uh = quotient.quotient_walk(op.matrix, basis)
        assert np.max(np.abs(uh - op.matrix)) < 1e-15


class TestQuotientShiftAndGraph:
    def test_two_generator_line(self):
        cay = graphs.cayley_s3_2gen()
        basis = quotient.orbit_basis(direction_group(cay, "(1,2)"), 12)
        sh, qg = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        assert sorted(sh.tolist()) == list(range(6))
        assert qg.num_vertices == 4
        assert qg.degrees == (1, 2, 2, 1)
        assert qg.connections == (1, 0, 4, 5, 2, 3)
        assert qg.self_loops == ()

    def test_cube_collapses_to_line(self):
        cay, _ = cube_walk(3)
        basis = quotient.orbit_basis(full_direction_group(cay), 24)
        sh, qg = quotient.quotient_shift_and_graph(
            graphs.shift_permutation(cay.graph), basis, graph=cay.graph
        )
        assert qg.num_vertices == 4
        assert qg.degrees == (1, 2, 2, 1)

    def test_connected_orbits_share_cardinality(self):
        cay, _ = cube_walk(3)
        basis = quotient.orbit_basis(full_direction_group(cay), 24)
        sh, qg = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        for j, k in enumerate(qg.connections):
            assert len(basis.orbits[j]) == len(basis.orbits[k])

    def test_direction_preserving_subgroup_yields_self_loops(self):
        cay = graphs.cayley_hypercube(2)
        grp = groups.closure([groups.left_translation(cay, 1)])
        basis = quotient.orbit_basis(grp, 8)
        sh, qg = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        assert qg.self_loops
        payload = quotient.quotient_graph_to_dict(qg)
        assert any(e.get("self_loop") for e in payload["edges"])

    @pytest.mark.parametrize(
        "shift",
        [np.full((8, 8), 0.125), np.eye(8)[[1, 0, 2, 3, 4, 5, 6, 7]] * 2, np.zeros(8, dtype=int)],
        ids=["dense-uniform", "dense-scaled", "image-not-bijective"],
    )
    def test_non_permutation_shift_rejected(self, shift):
        basis = quotient.orbit_basis(groups.closure([], dim=8), 8)
        with pytest.raises(ValueError, match="permutation"):
            quotient.quotient_shift_and_graph(shift, basis)

    def test_non_symmetry_subgroup_rejected(self):
        cay = graphs.cayley_hypercube(2)
        rogue = groups.Permutation((1, 0) + tuple(range(2, 8)))
        grp = groups.closure([rogue])
        with pytest.raises(SymmetryError):
            quotient.quotient_shift_and_graph(
                graphs.shift_matrix(cay.graph), quotient.orbit_basis(grp, 8), graph=cay.graph
            )


class TestQuotientCoin:
    def test_two_generator_blocks(self):
        cay = graphs.cayley_s3_2gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(2))
        basis = quotient.orbit_basis(direction_group(cay, "(1,2)"), 12)
        uh = quotient.quotient_walk(op.matrix, basis)
        sh, qg = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        c_h, blocks = quotient.quotient_coin(uh, qg)
        assert [b.shape[0] for b in blocks] == [1, 2, 2, 1]
        assert np.allclose(blocks[0], [[1.0]])
        assert np.allclose(blocks[3], [[1.0]])
        flip = np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(blocks[1] - flip)) < 1e-12
        assert np.max(np.abs(blocks[2] - flip)) < 1e-12
        assert np.max(np.abs(c_h[np.argsort(sh)] - uh)) < 1e-12

    def test_cube_stabilizer_blocks(self):
        # fixing one direction leaves 2x2 mixing blocks and 3x3 uniform blocks
        cay, op = cube_walk(3)
        basis = quotient.orbit_basis(direction_group(cay, "(2,3)"), 24)
        uh = quotient.quotient_walk(op.matrix, basis)
        _, qg = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        _, blocks = quotient.quotient_coin(uh, qg)
        sizes = sorted(b.shape[0] for b in blocks)
        assert sizes == [2, 2, 2, 2, 3, 3]
        for b in blocks:
            if b.shape[0] == 3:
                assert np.max(np.abs(b - walk.grover_coin(3).matrix)) < 1e-12
            else:
                assert np.max(np.abs(np.abs(b) - np.abs(GOLDEN_2x2_COIN_BLOCK))) < 1e-12

    def test_trivial_subgroup_restores_tensor_coin(self):
        cay, op = cube_walk(2)
        basis = quotient.orbit_basis(groups.closure([], dim=8), 8)
        uh = quotient.quotient_walk(op.matrix, basis)
        _, qg = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        c_h, blocks = quotient.quotient_coin(uh, qg)
        assert np.max(np.abs(c_h - np.kron(np.eye(4), walk.grover_coin(2).matrix))) < 1e-12

    def test_rejects_non_permutation_shift(self):
        qg = quotient.QuotientGraph(2, ((0,), (1,)), (0, 1), (0, 0))
        with pytest.raises(ValueError, match="permutation"):
            quotient.quotient_coin(np.eye(2), qg)


class TestLineReduction:
    def test_endpoint_coin_values(self):
        lw = quotient.hypercube_line_reduction(4)
        assert lw.labels[0] == "R0"
        assert lw.labels[-1] == "L4"
        assert lw.coin[0, 0] == pytest.approx(1.0)      # cos at weight 0
        assert lw.coin[-1, -1] == pytest.approx(1.0)    # -cos at weight n

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 21, 40])
    def test_unitary(self, n):
        lw = quotient.hypercube_line_reduction(n)
        assert np.max(np.abs(lw.matrix.conj().T @ lw.matrix - np.eye(2 * n))) < 1e-12

    def test_first_hit_distribution_matches_full_walk(self):
        n = 3
        cay, op = cube_walk(n)
        full_spec = hitting.measured_walk(
            op, hitting.symmetric_state(cay.graph, 0), final_vertices=[2 ** n - 1]
        )
        lw = quotient.hypercube_line_reduction(n)
        start = np.zeros(2 * n, dtype=complex)
        start[lw.start_index] = 1.0
        line_spec = hitting.measured_walk(
            walk.WalkOperator(lw.matrix), start, final_indices=[lw.final_index]
        )
        full_dist = hitting.first_hit_distribution(full_spec, 200)
        line_dist = hitting.first_hit_distribution(line_spec, 200)
        assert np.max(np.abs(full_dist - line_dist)) < 1e-9


class TestGluedTreesQuotient:
    def test_golden_tridiagonal(self):
        h = quotient.glued_trees_quotient_hamiltonian(4, 1.0)
        assert np.allclose(np.diag(h), [2, 3, 3, 3, 2, 3, 3, 3, 2])
        assert np.allclose(np.diag(h, 1), -np.sqrt(2))
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_matches_projected_full_hamiltonian(self, depth):
        g = graphs.build_glued_trees(depth)
        full = walk.continuous_hamiltonian(g, 1.0, "laplacian")
        b = quotient.glued_trees_column_isometry(depth)
        reduced = quotient.glued_trees_quotient_hamiltonian(depth, 1.0)
        assert np.max(np.abs(b.T @ full @ b - reduced)) < 1e-12

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_column_isometry_bit_identical(self, depth):
        cols = graphs.glued_trees_columns(depth)
        b = np.zeros((cols[-1][-1] + 1, len(cols)))
        for j, members in enumerate(cols):
            b[list(members), j] = 1.0 / np.sqrt(len(members))
        assert np.array_equal(quotient.glued_trees_column_isometry(depth), b)

    def test_diagonal_mirror_symmetry(self):
        h = quotient.glued_trees_quotient_hamiltonian(5, 2.0)
        d = np.diag(h)
        assert np.allclose(d, d[::-1])

    def test_transport_amplitude_matches_full_space(self):
        depth = 3
        g = graphs.build_glued_trees(depth)
        full = walk.continuous_hamiltonian(g, 1.0, "laplacian")
        reduced = quotient.glued_trees_quotient_hamiltonian(depth, 1.0)
        cols = graphs.glued_trees_columns(depth)
        root, exit_vertex = cols[0][0], cols[-1][0]
        for t in (0.9, 2.5, 4.0):
            uf = walk.continuous_propagator(full, t).matrix
            uq = walk.continuous_propagator(reduced, t).matrix
            assert abs(uf[exit_vertex, root]) ** 2 == pytest.approx(
                abs(uq[2 * depth, 0]) ** 2, abs=1e-12
            )


class TestQuotientInfiniteHitting:
    def test_cyclic_subgroup_keeps_trapped_states(self):
        cay = graphs.cayley_s3_3gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
        fin = graphs.BasisIndexing.from_graph(cay.graph).indices_for([cay.vertex_of_word([1, 2])])
        for sub in subgroup_forms(direction_group(cay, "(1,2,3)")):
            basis = quotient.orbit_basis(sub, 18)
            verdict = quotient.quotient_infinite_hitting(op.matrix, basis, fin)
            assert verdict.full_trace > 1e-6
            assert verdict.has_infinite_hitting

    def test_full_group_with_paired_finals_clears(self):
        cay = graphs.cayley_s3_3gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
        finals = [cay.vertex_of_word([1, 2]), cay.vertex_of_word([2, 1])]
        fin = graphs.BasisIndexing.from_graph(cay.graph).indices_for(finals)
        for sub in subgroup_forms(full_direction_group(cay)):
            basis = quotient.orbit_basis(sub, 18)
            verdict = quotient.quotient_infinite_hitting(op.matrix, basis, fin)
            assert verdict.full_trace < 1e-6
            assert verdict.intersection_dim == 0

    @pytest.mark.parametrize("final", [-1, 12])
    def test_out_of_range_final_rejected(self, final):
        """-1 would wrap to index 11 and 12 would fail as an IndexError."""
        cay = graphs.cayley_s3_2gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(2))
        basis = quotient.orbit_basis(direction_group(cay, "(1,2)"), 12)
        with pytest.raises(ValueError, match="out of range"):
            quotient.quotient_infinite_hitting(op.matrix, basis, [final])

    def test_incompatible_measurement_rejected(self):
        cay = graphs.cayley_s3_3gen()
        op = walk.evolution_operator(cay.graph, walk.grover_coin(3))
        fin = graphs.BasisIndexing.from_graph(cay.graph).indices_for([cay.vertex_of_word([1, 2])])
        for sub in subgroup_forms(full_direction_group(cay)):
            basis = quotient.orbit_basis(sub, 18)
            with pytest.raises(SymmetryError):
                quotient.quotient_infinite_hitting(op.matrix, basis, fin)


class TestQuotientAutomorphismCheck:
    def test_subgroup_elements_act_trivially(self):
        cay = graphs.cayley_s3_3gen()
        grp = direction_group(cay, "(1,2,3)")
        basis = quotient.orbit_basis(grp, 18)
        sh, _ = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        for h in grp.elements:
            assert quotient.quotient_automorphism_check(h, basis, sh)

    def test_coset_representative_preserves_reduced_shift(self):
        cay = graphs.cayley_s3_3gen()
        basis = quotient.orbit_basis(direction_group(cay, "(1,2,3)"), 18)
        sh, _ = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        swap = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 3))
        assert quotient.quotient_automorphism_check(swap, basis, sh)

    def test_orbit_scattering_rejected(self):
        cay = graphs.cayley_s3_3gen()
        basis = quotient.orbit_basis(direction_group(cay, "(1,2,3)"), 18)
        sh, _ = quotient.quotient_shift_and_graph(
            graphs.shift_matrix(cay.graph), basis, graph=cay.graph
        )
        image = list(range(18))
        image[0], image[3] = image[3], image[0]  # mixes two distinct orbits
        rogue = groups.Permutation(tuple(image))
        with pytest.raises(SymmetryError):
            quotient.quotient_automorphism_check(rogue, basis, sh)


def dense_isometry(orbits, dim):
    b = np.zeros((dim, len(orbits)))
    for j, orb in enumerate(orbits):
        b[list(orb), j] = 1.0 / np.sqrt(len(orb))
    return b


ORACLE_GRAPHS = {
    "cayley:s3:2gen": graphs.cayley_s3_2gen,
    "cayley:s3:3gen": graphs.cayley_s3_3gen,
    "cayley:s4:3gen": graphs.cayley_s4_3gen,
    **{f"hypercube:{n}": functools.partial(graphs.cayley_hypercube, n) for n in (3, 4, 5)},
}


class TestLabelSumsAgainstDenseIsometry:
    """The label-array paths against B, S and B+ U B built densely here."""

    @pytest.mark.parametrize("subgroup", ["(1,2)", "full", "trivial"])
    @pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
    def test_walk_shift_and_verdict(self, name, subgroup):
        cay = ORACLE_GRAPHS[name]()
        g = cay.graph
        op = walk.evolution_operator(g, walk.grover_coin(cay.degree))
        grp = {
            "(1,2)": lambda: direction_group(cay, "(1,2)"),
            "full": lambda: full_direction_group(cay),
            "trivial": lambda: groups.closure([], dim=op.dim),
        }[subgroup]()
        basis = quotient.orbit_basis(grp.generators, op.dim)
        b = dense_isometry(basis.orbits, op.dim)
        dense_uh = b.T @ op.matrix @ b
        assert np.max(np.abs(quotient.quotient_walk(op, basis) - dense_uh)) <= 1e-13

        sh, qg = quotient.quotient_shift_and_graph(graphs.shift_permutation(g), basis, graph=g)
        dense_sh = b.T @ graphs.shift_matrix(g) @ b
        assert np.max(np.abs(dense_sh - np.round(dense_sh.real))) < 1e-12
        assert sh.tolist() == np.argmax(dense_sh.real, axis=0).tolist() == list(qg.connections)

        final = graphs.BasisIndexing.from_graph(g).indices_for([cay.vertex_index[cay.identity]])
        verdict = quotient.quotient_infinite_hitting(op, basis, final)
        report = spectral.infinite_hitting_projector(op.matrix, final)
        cosines = np.linalg.svd(report.basis.conj().T @ b, compute_uv=False)
        fin_h = np.flatnonzero([set(o) <= set(final.tolist()) for o in basis.orbits])
        report_q = spectral.infinite_hitting_projector(dense_uh, fin_h)
        assert verdict.intersection_dim == int(np.sum(cosines > 1.0 - 1e-8))
        assert verdict.intersection_dim == report_q.trace_int
        assert abs(verdict.full_trace - report.trace_p) <= 1e-12
        assert abs(verdict.quotient_trace - report_q.trace_p) <= 1e-12


@pytest.mark.parametrize("descriptor", ["hypercube:4", "cayley:s4:3gen"])
def test_symmetry_paths_build_no_dense_isometry_or_shift(monkeypatch, descriptor):
    def refuse(*args, **kwargs):
        raise AssertionError("a symmetry path built a dense D x D matrix")

    monkeypatch.setattr(graphs, "shift_matrix", refuse)
    monkeypatch.setattr(groups.Permutation, "matrix", refuse)
    made, build = [], quotient.orbit_basis
    monkeypatch.setattr(quotient, "orbit_basis", lambda *a: made.append(build(*a)) or made[-1])
    g, cay, _ = cli.resolve_graph(descriptor, None)
    texts = [f"({i},{i + 1})" for i in range(1, cay.degree)]
    argv = ["quotient", "--graph", descriptor]
    for text in texts:
        argv += ["--subgroup", text]
    for coin in ([], ["--coin", "grover"]):
        assert cli.main(argv + coin, out=io.StringIO()) == 0

    op = walk.evolution_operator(g, walk.grover_coin(cay.degree))
    basis = quotient.orbit_basis(cli.resolve_subgroup(texts, cay), op.dim)
    final = graphs.BasisIndexing.from_graph(g).indices_for([cay.vertex_index[cay.identity]])
    quotient.quotient_infinite_hitting(op, basis, final)
    assert len(made) == 3
    assert all("matrix" not in vars(b) for b in made[:2])
    # the verdict reads the D x k isometry only on the narrow side, with
    # fewer orbits than either D-tall basis of the report has columns
    report = spectral.infinite_hitting_projector(op, final)
    narrow = basis.num_orbits < min(report.trapped_dim, report.untrapped_dim)
    assert ("matrix" in vars(basis)) == narrow


@pytest.mark.parametrize("subgroup", ["(1,2)", "full"])
@pytest.mark.parametrize("descriptor", [
    "hypercube:3", "hypercube:4", "hypercube:5", "hypercube:6",
    "cayley:s3:2gen", "cayley:s3:3gen", "cayley:s4:3gen"])
def test_quotient_command_builds_no_dense_walk_or_shift(monkeypatch, descriptor, subgroup):
    # the reduced walk is summed from the walk's factors; the dft coin does
    # not commute with direction swaps, and its leak is found the same way
    def refuse(*args, **kwargs):
        raise AssertionError("a D x D walk or shift was built")

    monkeypatch.setattr(walk.WalkOperator, "matrix", property(refuse))
    monkeypatch.setattr(graphs, "shift_matrix", refuse)
    degree = cli.resolve_graph(descriptor, None)[0].degree_value
    texts = ["(1,2)"] if subgroup == "(1,2)" else [f"({i},{i + 1})" for i in range(1, degree)]
    argv = ["quotient", "--graph", descriptor] + [a for t in texts for a in ("--subgroup", t)]
    assert cli.main(argv + ["--coin", "grover"], out=io.StringIO()) == 0
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(argv + ["--coin", "dft"], out=io.StringIO()) == 1
    assert err.getvalue().startswith("error: walk leaks out of the symmetric subspace")


@pytest.mark.parametrize("descriptor, subgroup", [
    ("hypercube:3", ["(1,2)"]), ("hypercube:5", ["(1,2)", "(2,3)"]), ("cayley:s4:3gen", ["(1,2)"])])
def test_factored_sums_equal_the_dense_sums(descriptor, subgroup):
    # the same rows in the same order: equal as numbers, the dense U's
    # products with 0 aside, which may leave a -0.0 where the factors give 0.0
    g, cay, _ = cli.resolve_graph(descriptor, None)
    op = walk.evolution_operator(g, walk.grover_coin(cay.degree))
    basis = quotient.orbit_basis(cli.resolve_subgroup(subgroup, cay), op.dim)
    assert np.array_equal(quotient.quotient_walk(op, basis), quotient.quotient_walk(op.matrix, basis))


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_quotient_walk_peak_within_its_estimate(monkeypatch, form):
    # hypercube:6 under (1,2): k = 256 orbits of D = 384; the rows of C (the
    # whole U when dense), R, the leak's temporaries and U_H stay within the
    # D b + ORBIT_SUM_ARRAYS k D + k^2 entries that are checked first
    cay, op = cube_walk(6)
    basis = quotient.orbit_basis(cli.resolve_subgroup(["(1,2)"], cay), op.dim)
    u = op.matrix if form == "dense" else op
    d, b, k = op.dim, (op.dim if form == "dense" else 6), basis.num_orbits
    assert (d, k) == (384, 256)
    estimates = []
    check = walk._check_memory
    monkeypatch.setattr(quotient, "_check_memory", lambda dim, entries, dtype: estimates.append(
        entries * np.dtype(dtype).itemsize) or check(dim, entries, dtype))
    tracemalloc.start()
    try:
        quotient.quotient_walk(u, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimates == [8 * (d * b + quotient.ORBIT_SUM_ARRAYS * k * d + k * k)]
    assert peak <= estimates[0]


@pytest.mark.parametrize("n", [6, 7])
def test_a_full_group_verdict_lists_no_table(n):
    # orbits and the verdict read the generators only; up to hypercube:7
    # the lift, closure and verdict stay under one 896 x 896 complex array
    # (12.25 MiB), where the listed and sorted 5040 x 896 table took 26 MiB
    cay, op = cube_walk(n)
    final = graphs.BasisIndexing.from_graph(cay.graph).indices_for([2**n - 1])
    tracemalloc.start()
    try:
        grp = full_direction_group(cay)
        verdict = quotient.quotient_infinite_hitting(op, quotient.orbit_basis(grp, op.dim), final)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "table" not in vars(grp)
    assert (grp.order, grp.degree, verdict.intersection_dim) == (math.factorial(n), op.dim, 0)
    assert peak < 896**2 * np.dtype(complex).itemsize


@pytest.mark.parametrize("labels", [20, 30])
def test_an_orbit_basis_of_another_dimension_is_refused(labels):
    cay, op = cube_walk(3)
    basis = quotient.OrbitBasis(np.arange(labels))
    final = graphs.BasisIndexing.from_graph(cay.graph).indices_for([7])
    message = f"orbit basis of dimension {labels} on a walk of dimension 24"
    for u in (op, op.matrix):
        with pytest.raises(ValueError, match=message):
            quotient.quotient_walk(u, basis)
        with pytest.raises(ValueError, match=message):
            quotient.quotient_infinite_hitting(u, basis, final)


def permuted_cube_verdict_args(relabel_subgroup: bool):
    """(U, orbit basis, finals) for the walk on hypercube:6 with its colors
    permuted, given as its dense matrix, which takes the dense eigensolve.
    With the subgroup (1,2) relabelled the same way the walk keeps its
    symmetric subspace; with the subgroup as built it leaks out of it."""
    g, cay, _ = cli.resolve_graph("hypercube:6", None)
    image = color_shift(384, 6)
    u = color_permuted(walk.evolution_operator(g, walk.grover_coin(6)).matrix, 6)
    gens = cli.resolve_subgroup(["(1,2)"], cay)
    basis = quotient.orbit_basis(relabelled_group(gens, image) if relabel_subgroup else gens, 384)
    return u, basis, image[graphs.BasisIndexing.from_graph(g).indices_for([63])]


def test_verdict_over_the_memory_budget_raises(monkeypatch):
    # U (1.1 MiB) and its orbit sums fit in 8 MiB, the eigensolve's seven
    # 384 x 384 complex arrays do not; the spectral report refuses before
    # its eigensolve starts
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve started")

    u, basis, final = permuted_cube_verdict_args(relabel_subgroup=True)
    assert quotient.quotient_infinite_hitting(u, basis, final).intersection_dim >= 0
    monkeypatch.setattr(walk, "_memory_budget", lambda: 8 * 2**20)
    monkeypatch.setattr(spectral, "_split_stack", refuse)
    with pytest.raises(ValueError, match="dimension 384 needs an estimated 16 MiB, over a memory budget of 8 MiB"):
        quotient.quotient_infinite_hitting(u, basis, final)


def test_leak_is_raised_before_the_eigensolve_is_refused(monkeypatch):
    # under the same budget, a walk that also leaks out of the symmetric
    # subspace raises the leak, the exact check on its orbit sums, first
    u, basis, final = permuted_cube_verdict_args(relabel_subgroup=False)
    monkeypatch.setattr(walk, "_memory_budget", lambda: 8 * 2**20)
    with pytest.raises(SymmetryError, match="leaks out of the symmetric subspace"):
        quotient.quotient_infinite_hitting(u, basis, final)


def test_orbit_sums_over_the_memory_budget_are_refused_before_they_allocate(monkeypatch):
    # the dense U is one 384 x 384 block: its rows gathered by orbit, three
    # 256 x 384 float64 arrays and the 256 x 256 U_H (3.9 MiB) against a
    # 2 MiB budget, refused before the rows are gathered
    def refuse(*args, **kwargs):
        raise AssertionError("orbit sums started")

    u, basis, _ = permuted_cube_verdict_args(relabel_subgroup=True)
    monkeypatch.setattr(walk, "_memory_budget", lambda: 2 * 2**20)
    monkeypatch.setattr(quotient, "_orbit_sums", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dimension 384 needs an estimated 4 MiB, over a memory budget of 2 MiB"):
            quotient.quotient_walk(u, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_cube_verdict_under_that_budget_takes_the_fourier_route(monkeypatch, form):
    # the budget that refuses the dense eigensolve above holds the Fourier
    # route's estimate (576 KiB), so the cube walk itself, given either way,
    # gets its verdict
    g, cay, _ = cli.resolve_graph("hypercube:6", None)
    op = walk.evolution_operator(g, walk.grover_coin(6))
    u = op if form == "factored" else op.matrix
    basis = quotient.orbit_basis(cli.resolve_subgroup(["(1,2)"], cay), op.dim)
    final = graphs.BasisIndexing.from_graph(g).indices_for([63])
    want = quotient.quotient_infinite_hitting(u, basis, final)
    monkeypatch.setattr(walk, "_memory_budget", lambda: 8 * 2**20)
    assert quotient.quotient_infinite_hitting(u, basis, final) == want


@pytest.mark.parametrize("form", ["dense", "factored"])
@pytest.mark.parametrize("n", [5, 6])
def test_verdict_on_a_leaking_walk_raises_before_any_eigensolve(monkeypatch, n, form):
    # The dft coin does not commute with direction swaps, so the walk leaks
    # out of the symmetric subspace; that is found from the orbit sums alone.
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve started")

    cay, op = cube_walk(n, "dft")
    basis = quotient.orbit_basis(full_direction_group(cay).generators, op.dim)
    final = graphs.BasisIndexing.from_graph(cay.graph).indices_for([2**n - 1])
    monkeypatch.setattr(spectral, "infinite_hitting_projector", refuse)
    monkeypatch.setattr(quotient, "infinite_hitting_projector", refuse)
    with pytest.raises(SymmetryError, match="leaks out of the symmetric subspace"):
        quotient.quotient_infinite_hitting(op.matrix if form == "dense" else op, basis, final)


@pytest.mark.parametrize("coin", ["grover", "dft"])
@pytest.mark.parametrize("subgroup", ["(1,2)", "full", "translations"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_shared_directions_agree_on_either_basis(n, subgroup, coin):
    # Counted on whichever of the trapped and untrapped bases is narrower,
    # the intersection with the symmetric subspace is the count of cosines
    # above 1 - ANGLE_ATOL against the trapped basis.
    cay, op = cube_walk(n, coin)
    gens = {
        "(1,2)": lambda: direction_group(cay, "(1,2)").generators,
        "full": lambda: full_direction_group(cay).generators,
        "translations": lambda: [groups.left_translation(cay, a) for a in cay.generators],
    }[subgroup]()
    basis = quotient.orbit_basis(gens, op.dim)
    final = graphs.BasisIndexing.from_graph(cay.graph).indices_for([2**n - 1])
    final = np.flatnonzero(np.isin(basis.labels, basis.labels[final]))
    for u in (op, op.matrix):
        report = spectral.infinite_hitting_projector(u, final)
        cosines = np.linalg.svd(report.basis.conj().T @ basis.matrix, compute_uv=False)
        expected = int(np.sum(cosines > 1.0 - quotient.ANGLE_ATOL))
        assert quotient._shared_directions(report, basis) == expected


@pytest.mark.parametrize("wide", [True, False])
@pytest.mark.parametrize("gap, shared", [(0.75, 2), (1.25, 1)])
def test_shared_directions_at_the_angle_tolerance(wide, gap, shared):
    # Orbits {0, 1}, {2, 3}, {4} and {5}: ran B is spanned by b0 = (e0 + e1)/sqrt2,
    # b1 = (e2 + e3)/sqrt2, e4 and e5.  The trapped subspace holds b1 and b0
    # turned by theta towards c0 = (e0 - e1)/sqrt2, with 1 - cos(theta) =
    # gap * ANGLE_ATOL, and, when wide, also c1 = (e2 - e3)/sqrt2: then W is
    # as wide as V (r = t = 3) and the tie is counted on W, else V is the
    # narrower basis (t = 2 < r = 4).  k = 4 orbits keep both off the
    # coordinates side.
    basis = quotient.OrbitBasis(np.array([0, 0, 1, 1, 2, 3]))
    b0, b1, c0, c1 = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0],
                               [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]]) / np.sqrt(2)
    e4, e5 = np.eye(6)[4:]
    theta = np.arccos(1.0 - gap * quotient.ANGLE_ATOL)
    x, y = np.cos(theta) * b0 + np.sin(theta) * c0, -np.sin(theta) * b0 + np.cos(theta) * c0
    trapped, untrapped = ([x, b1, c1], [y, e4, e5]) if wide else ([x, b1], [y, c1, e4, e5])
    b, w = np.array(trapped).T, np.array(untrapped).T
    report = types.SimpleNamespace(basis=b, untrapped=w, trapped_dim=b.shape[1], untrapped_dim=w.shape[1])
    assert (report.untrapped_dim <= report.trapped_dim) == wide
    assert quotient._shared_directions(report, basis) == shared


def _outcome(f, *args):
    """f(*args), or the message of the SymmetryError it raises."""
    try:
        return f(*args)
    except SymmetryError as exc:
        return str(exc)


def _same(a, b) -> bool:
    """a and b hold the same values, arrays bit for bit and of one dtype."""
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestOneWalkForm:
    """The spectral and quotient entry points read a walk as a WalkOperator
    and wrap an array as one, whose dense matrix is the array itself."""

    def test_wrapping_an_array_copies_nothing(self, rng):
        for m in (random_unitary(6, rng), walk.grover_coin(4).matrix):
            op = walk.WalkOperator(m)
            assert op.matrix is m and np.shares_memory(op.matrix, m)

    @pytest.mark.parametrize("coin", ["grover", "dft"])
    @pytest.mark.parametrize("descriptor, texts", [
        ("cayley:s3:2gen", ["(1,2)"]), ("cayley:s4:3gen", ["(1,2)", "(2,3)"]), ("hypercube:3", ["(1,2)"])])
    def test_an_array_and_its_walk_operator_give_identical_results(self, descriptor, texts, coin):
        g, cay, _ = cli.resolve_graph(descriptor, None)
        c = walk.grover_coin(cay.degree) if coin == "grover" else walk.dft_coin(cay.degree)
        u = walk.evolution_operator(g, c).matrix
        gens = cli.resolve_subgroup(texts, cay)
        basis = quotient.orbit_basis(gens, len(u))
        fin = graphs.BasisIndexing.from_graph(g).indices_for([cay.vertex_index[cay.identity]])
        results = []
        for form in (u, walk.WalkOperator(u)):
            report = spectral.infinite_hitting_projector(form, fin)
            assert isinstance(report.walk, walk.WalkOperator) and report.walk.matrix is u
            clusters = spectral.eigenspace_clusters(form)
            results.append([
                report.contributions, report.warnings, report.trace_p, report.untrapped, report.basis,
                report.reduced_step(), [(c.eigenvalue, c.basis) for c in clusters],
                spectral.degeneracy_condition(form, cay.degree),
                quotient.check_walk_symmetry(form, gens),
                _outcome(quotient.quotient_walk, form, basis),
                _outcome(quotient.quotient_infinite_hitting, form, basis, fin),
            ])
        assert all(_same(a, b) for a, b in zip(*results))

    @pytest.mark.parametrize("coin", ["grover", "dft"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_a_cube_array_and_its_factored_walk_give_identical_results(self, n, coin):
        # both take the Fourier route, the array with the coin gathered from
        # its entries, which is the factored walk's block bit for bit
        cay, op = cube_walk(n, coin)
        u, g = op.matrix, cay.graph
        fin = graphs.BasisIndexing.from_graph(g).indices_for([2**n - 1])
        starts = (hitting.symmetric_state(g, 0), hitting.basis_state(g, 0, 1))
        subgroups = ([groups.left_translation(cay, cay.generators[0])], full_direction_group(cay).generators)
        results = []
        for form in (op, u):
            report = spectral.infinite_hitting_projector(form, fin)
            assert report.route == "fourier"
            verdicts = []
            for gens in subgroups:
                basis = quotient.orbit_basis(gens, op.dim)
                final = np.flatnonzero(np.isin(basis.labels, basis.labels[fin]))
                verdicts.append(_outcome(quotient.quotient_infinite_hitting, form, basis, final))
            results.append([
                report.contributions, report.warnings, report.trace_p, report.untrapped,
                [spectral.escape_probability(report, psi) for psi in starts],
                [dataclasses.astuple(hitting.hitting_time_closed_form(
                    hitting.measured_walk(walk._as_walk(form), psi, final_indices=fin))) for psi in starts],
                verdicts,
            ])
        assert all(_same(a, b) for a, b in zip(*results))

    @pytest.mark.parametrize("coin, subgroup", [
        ("grover", "(1,2)"), ("grover", "full"), ("grover", "translation"), ("dft", "translation")])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cube_verdict_equals_the_dense_verdict(self, n, coin, subgroup):
        # the WalkOperator takes the Fourier route; the same walk with its
        # colors permuted by P, given as its dense matrix with the subgroup
        # and the finals relabelled by P, takes the dense route; the two
        # verdicts are equal, traces included
        cay, op = cube_walk(n, coin)
        gens = {
            "(1,2)": lambda: direction_group(cay, "(1,2)").generators,
            "full": lambda: full_direction_group(cay).generators,
            "translation": lambda: [groups.left_translation(cay, cay.generators[0])],
        }[subgroup]()
        basis = quotient.orbit_basis(gens, op.dim)
        final = graphs.BasisIndexing.from_graph(cay.graph).indices_for([2**n - 1])
        final = np.flatnonzero(np.isin(basis.labels, basis.labels[final]))
        image = color_shift(op.dim, n)
        permuted = color_permuted(op.matrix, n)
        assert fourier._cube_coin(op) is op.block and fourier._cube_coin(walk.WalkOperator(permuted)) is None
        verdict = quotient.quotient_infinite_hitting(op, basis, final)
        permuted_basis = quotient.orbit_basis(relabelled_group(gens, image), op.dim)
        assert verdict == quotient.quotient_infinite_hitting(permuted, permuted_basis, image[final])
        assert verdict.full_trace == float(spectral.infinite_hitting_projector(op, final).trapped_dim)


VERDICT_GRAPHS = [f"hypercube:{n}" for n in range(3, 7)] + ["cayley:s3:2gen", "cayley:s3:3gen", "cayley:s4:3gen"]
VERDICT_SUBGROUPS = {"adjacent": None, "(1,2)": ["(1,2)"], "(1,2),(2,3)": ["(1,2)", "(2,3)"]}
S4_FINAL_WORDS = ((1, 3, 2, 1), (2, 3, 1, 2))


def verdict_cases():
    """(graph, subgroup, finals): every subgroup that fits the degree, with
    the far vertex of a cube or the identity of a Cayley graph as final,
    and S4's pair of finals besides."""
    for descriptor in VERDICT_GRAPHS:
        finals = ["far" if descriptor.startswith("hypercube") else "identity"]
        finals += ["s4"] if descriptor == "cayley:s4:3gen" else []
        for name in VERDICT_SUBGROUPS:
            if not (descriptor == "cayley:s3:2gen" and name == "(1,2),(2,3)"):
                yield from ((descriptor, name, f) for f in finals)


def verdict_args(descriptor, subgroup, finals, coin="grover"):
    """(factored walk, orbit basis, final indices) of one verdict case."""
    g, cay, _ = cli.resolve_graph(descriptor, None)
    c = walk.grover_coin(cay.degree) if coin == "grover" else walk.dft_coin(cay.degree)
    op = walk.evolution_operator(g, c)
    texts = VERDICT_SUBGROUPS[subgroup] or [f"({i},{i + 1})" for i in range(1, cay.degree)]
    basis = quotient.orbit_basis(cli.resolve_subgroup(texts, cay), op.dim)
    if finals == "s4":
        vertices = sorted(cay.vertex_of_word(w) for w in S4_FINAL_WORDS)
        assert vertices == [20, 23]
    else:
        vertices = [g.num_vertices - 1] if finals == "far" else [cay.vertex_index[cay.identity]]
    return op, basis, graphs.BasisIndexing.from_graph(g).indices_for(vertices)


@pytest.mark.parametrize("descriptor, subgroup, finals", list(verdict_cases()))
def test_the_dense_verdict_equals_the_factored_one_on_every_side(descriptor, subgroup, finals):
    # the dense U of a cube is read as its factors; any U, dense or not,
    # gives one count whichever side the principal-angle overlap is formed on
    op, basis, fin = verdict_args(descriptor, subgroup, finals)
    verdict = quotient.quotient_infinite_hitting(op, basis, fin)
    dense = quotient.quotient_infinite_hitting(op.matrix, basis, fin)
    assert (dense.intersection_dim, dense.full_trace, dense.quotient_trace) == (
        verdict.intersection_dim, verdict.full_trace, verdict.quotient_trace)
    report, k = spectral.infinite_hitting_projector(op, fin), basis.num_orbits
    counts = [
        quotient._count_from_untrapped(report.untrapped_start(basis.matrix), k),
        quotient._count_from_untrapped(quotient._orbit_sums(report.untrapped, basis, 0), k),
        quotient._count_from_trapped(quotient._orbit_sums(report.basis, basis, 0)),
    ]
    assert counts == [verdict.intersection_dim] * 3


def test_the_verdict_battery_takes_every_side_of_the_overlap(monkeypatch):
    # the narrow-side choice is made by the verdict itself: the full groups
    # of hypercube:4-6 and the larger Cayley graphs read the coordinates of
    # B, the smaller subgroups of hypercube:5-6 the orbit sums of W, and
    # hypercube:3 and (1,2) on hypercube:4 and the Cayley graphs those of V
    trapped_read = []
    count = quotient._count_from_trapped
    monkeypatch.setattr(quotient, "_count_from_trapped", lambda o: trapped_read.append(1) or count(o))
    sides = {}
    for case in verdict_cases():
        op, basis, fin = verdict_args(*case)
        trapped_read.clear()
        quotient.quotient_infinite_hitting(op, basis, fin)
        side = "trapped" if trapped_read else "coordinates" if "matrix" in vars(basis) else "untrapped"
        sides.setdefault(side, []).append(case[:2])
    assert set(sides) == {"coordinates", "untrapped", "trapped"}
    assert ("hypercube:6", "adjacent") in sides["coordinates"]
    assert ("hypercube:6", "(1,2)") in sides["untrapped"]
    assert ("cayley:s4:3gen", "(1,2)") in sides["trapped"]


def test_coordinates_of_the_isometry_refused_before_they_allocate(monkeypatch):
    # hypercube:6 under its full group: 12 orbits, fewer than r = 72 and
    # t = 312, so W+ B is read from the frame's coordinates of B.  Beside
    # the 36864 entries a hitting time holds, four 384 x 12 complex arrays
    # (864 KiB) against a 512 KiB budget are refused before the frame
    # transforms B; the 384 x 12 real B itself (36 KiB) fits
    def refuse(*args, **kwargs):
        raise AssertionError("the frame's coordinates were formed")

    op, basis, fin = verdict_args("hypercube:6", "adjacent", "far")
    report = spectral.infinite_hitting_projector(op, fin)
    assert (basis.num_orbits, report.untrapped_dim, report.trapped_dim) == (12, 72, 312)
    assert report.held_entries == 36864
    monkeypatch.setattr(walk, "_memory_budget", lambda: 512 * 2**10)
    monkeypatch.setattr(type(report.frame), "coordinates", refuse)
    with pytest.raises(ValueError, match="dimension 384 needs an estimated 864 KiB, over a memory budget of 512 KiB"):
        quotient._shared_directions(report, basis)


@pytest.mark.parametrize("descriptor, subgroup, finals", list(verdict_cases()))
def test_a_leaking_dft_walk_raises_alike_in_either_form(descriptor, subgroup, finals):
    op, basis, fin = verdict_args(descriptor, subgroup, finals, coin="dft")
    outcome = _outcome(quotient.quotient_infinite_hitting, op, basis, fin)
    assert outcome.startswith("walk leaks out of the symmetric subspace")
    assert _outcome(quotient.quotient_infinite_hitting, op.matrix, basis, fin) == outcome


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_dense_cube_verdict_hands_the_quotient_no_dense_block(monkeypatch, n):
    op, basis, fin = verdict_args(f"hypercube:{n}", "adjacent", "far")
    reduce, seen = quotient.quotient_walk, []

    def factored_only(u, b):
        assert isinstance(u, walk.WalkOperator) and u.block.shape == (n, n)
        seen.append(u)
        return reduce(u, b)

    monkeypatch.setattr(quotient, "quotient_walk", factored_only)
    verdict = quotient.quotient_infinite_hitting(op.matrix, basis, fin)
    assert len(seen) == 1 and verdict.intersection_dim == 0
