import numpy as np
import pytest

from qwlab import graphs, groups, hitting, spectral, walk

from conftest import full_direction_group, random_unitary


class TestGroverCoin:
    def test_two_dimensional_is_bit_flip(self):
        assert np.array_equal(walk.grover_coin(2).matrix, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_four_dimensional_entries(self):
        m = walk.grover_coin(4).matrix
        assert np.allclose(np.diag(m), -0.5)
        off = m[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.5)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_reflection_squares_to_identity(self, d):
        m = walk.grover_coin(d).matrix
        assert np.allclose(m @ m, np.eye(d), atol=1e-14)
        assert np.max(np.abs(m - m.T)) == 0.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            walk.grover_coin(0)

    def test_permutation_symmetric(self, rng):
        m = walk.grover_coin(5).matrix
        for _ in range(5):
            p = np.eye(5)[rng.permutation(5)]
            assert np.allclose(p @ m @ p.T, m, atol=1e-15)


class TestDftCoin:
    def test_two_dimensional(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(walk.dft_coin(2).matrix, expected, atol=1e-15)

    def test_first_row_uniform(self):
        m = walk.dft_coin(4).matrix
        assert np.allclose(m[0], 0.5)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8])
    def test_unitary(self, d):
        m = walk.dft_coin(d).matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_not_permutation_symmetric(self, d):
        m = walk.dft_coin(d).matrix
        swap = np.eye(d)
        swap[[0, 1]] = swap[[1, 0]]
        assert np.max(np.abs(swap @ m @ swap.T - m)) > 1e-3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            walk.dft_coin(0)


class TestCustomCoin:
    def test_accepts_unitary(self, rng):
        walk.custom_coin(random_unitary(3, rng))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            walk.custom_coin(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestEvolutionOperator:
    def test_single_edge_equals_shift(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        assert np.array_equal(op.matrix, graphs.shift_matrix(g))

    @pytest.mark.parametrize("n", [3, 6])
    def test_equals_shift_times_coin_product(self, n, rng):
        g = graphs.build_hypercube(n)
        for coin in (walk.grover_coin(n), walk.dft_coin(n), walk.custom_coin(random_unitary(n, rng))):
            product = graphs.shift_matrix(g) @ np.kron(np.eye(g.num_vertices), coin.matrix)
            assert np.array_equal(walk.evolution_operator(g, coin).matrix, product)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree"):
            walk.evolution_operator(graphs.build_hypercube(3), walk.grover_coin(2))

    def test_inconsistent_coloring_rejected(self):
        g = graphs.build_glued_trees(2)
        with pytest.raises(ValueError):
            walk.evolution_operator(g, walk.grover_coin(3))

    def test_non_unitary_coin_rejected_before_u_is_built(self, monkeypatch):
        # U is not checked itself: it is a row permutation of I (x) C
        def refuse(*args, **kwargs):
            raise AssertionError("U was assembled from a non-unitary coin")

        monkeypatch.setattr(walk, "shift_permutation", refuse)
        with pytest.raises(ValueError, match="coin is not unitary"):
            walk.evolution_operator(
                graphs.build_cycle(4), walk.custom_coin(np.array([[1.0, 0.1], [0.0, 1.0]]))
            )

    @pytest.mark.parametrize(
        "g, d",
        [
            (graphs.build_hypercube(3), 3),
            (graphs.build_cycle(6), 2),
            (graphs.build_distorted_hypercube(3), 3),
        ],
        ids=["hypercube3", "cycle6", "distorted3"],
    )
    def test_unitarity(self, g, d, rng):
        for coin in (walk.grover_coin(d), walk.dft_coin(d), walk.custom_coin(random_unitary(d, rng))):
            op = walk.evolution_operator(g, coin)
            defect = np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(op.dim)))
            assert defect < 1e-10

    def test_memory_estimate_counts_the_dtype_allocated(self, monkeypatch):
        # U and the product it is gathered from at D = 384: 2.25 MiB in
        # float64 for grover, 4.5 MiB in complex128 for dft; a 3 MiB budget
        monkeypatch.setattr(walk, "_memory_budget", lambda: 3 * 2**20)
        g = graphs.build_hypercube(6)
        assert walk.evolution_operator(g, walk.grover_coin(6)).matrix.dtype == np.float64
        with pytest.raises(ValueError, match="dimension 384 needs an estimated 4 MiB, over a memory budget of 3 MiB"):
            walk.evolution_operator(g, walk.dft_coin(6)).matrix

    @pytest.mark.parametrize("need, budget, text", [
        (3 * 2**20, 2**20, "3 MiB, over a memory budget of 1 MiB"),
        (2**20 - 2**10, 3 * 2**18, "1023 KiB, over a memory budget of 768 KiB"),
        (1000, 100, "1000 bytes, over a memory budget of 100 bytes"),
    ])
    def test_memory_refusal_gives_sizes_below_one_mib(self, monkeypatch, need, budget, text):
        monkeypatch.setattr(walk, "_memory_budget", lambda: budget)
        with pytest.raises(ValueError, match=f"^dimension 5 needs an estimated {text}$"):
            walk._check_memory(5, need, np.uint8)

    def test_dft_hypercube4_eigenvalue_multiplicities(self):
        op = walk.evolution_operator(graphs.build_hypercube(4), walk.dft_coin(4))
        clusters = spectral.eigenspace_clusters(op.matrix)
        for target in (1, -1, 1j, -1j):
            mults = [c.multiplicity for c in clusters if abs(c.eigenvalue - target) < 1e-8]
            assert mults == [8]


FACTORED_WALKS = {
    "hypercube4-grover": (graphs.build_hypercube(4), walk.grover_coin),
    "hypercube4-dft": (graphs.build_hypercube(4), walk.dft_coin),
    "cycle8-grover": (graphs.build_cycle(8), walk.grover_coin),
    "distorted3-grover": (graphs.build_distorted_hypercube(3), walk.grover_coin),
    "s4-3gen-dft": (graphs.cayley_s4_3gen().graph, walk.dft_coin),
}


def refuse_matrix(self):
    raise AssertionError("the dense walk matrix was read")


class TestFactoredStep:
    @staticmethod
    def assert_apply_matches(op, u, rng):
        x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        cols = rng.standard_normal((op.dim, 5)) + 1j * rng.standard_normal((op.dim, 5))
        assert op.apply(x).shape == x.shape and op.apply(cols).shape == cols.shape
        assert np.max(np.abs(op.apply(x) - u @ x)) < 1e-13
        assert np.max(np.abs(op.apply(cols) - u @ cols)) < 1e-13
        assert np.max(np.abs(op.apply(np.eye(op.dim)) - u)) < 1e-15

    @pytest.mark.parametrize("name", FACTORED_WALKS)
    def test_apply_matches_the_dense_matrix(self, name, rng):
        g, coin = FACTORED_WALKS[name]
        op = walk.evolution_operator(g, coin(g.degree_value))
        assert op.block.shape == (g.degree_value, g.degree_value)
        product = graphs.shift_matrix(g) @ np.kron(np.eye(g.num_vertices), op.block)
        self.assert_apply_matches(op, product, rng)

    def test_dense_operator_is_one_block_with_the_identity_image(self, rng):
        u = random_unitary(12, rng)
        op = walk.WalkOperator(u)
        assert np.array_equal(op.image, np.arange(12))
        assert np.array_equal(op.matrix, u)
        self.assert_apply_matches(op, u, rng)

    def test_step_iterated_paths_read_no_dense_matrix(self, monkeypatch):
        g = graphs.build_hypercube(4)
        grover = walk.evolution_operator(g, walk.grover_coin(4))
        dft = walk.evolution_operator(g, walk.dft_coin(4))
        e1, e2 = hitting.basis_state(g, 0, 1), hitting.basis_state(g, 3, 2)
        mixed = 0.5 * (np.outer(e1, e1) + np.outer(e2, e2))
        starts = {
            "grover-pure": (grover, hitting.symmetric_state(g, 0)),
            "grover-mixed": (grover, mixed),
            "dft-mixed": (dft, mixed),
        }

        def measured(op, start):
            finals = graphs.BasisIndexing.from_graph(g).indices_for([15])
            return hitting.measured_walk(op, start, final_indices=finals)

        def run(op, start):
            spec = measured(op, start)
            res = hitting.hitting_time_series(spec, 1e-6)
            return (
                res.value if res.is_finite else res.escape_probability,
                res.truncation,
                hitting.first_hit_distribution(spec, 40),
            )

        # the same paths on one dense D x D block, computed before the lock
        dense = {k: run(walk.WalkOperator(op.matrix), start) for k, (op, start) in starts.items()}
        # the concurrent time asks the spectrum, which reads U, before it steps
        whens = {
            k: [hitting.concurrent_hitting_time(measured(w, start), 0.4)
                for w in (op, walk.WalkOperator(op.matrix))]
            for k, (op, start) in starts.items()
        }
        monkeypatch.setattr(walk.WalkOperator, "matrix", property(refuse_matrix))
        # values of the dense-matrix step, recorded before the factored one
        recorded = {
            "grover-pure": (6.6666101154647945, 70, 0.9996620406755028, 4),
            "grover-mixed": (0.5686274509803921, 512, 0.4312179821720292, 14),
            "dft-mixed": (0.48214285714286154, 1536, 0.43765694909711783, 30),
        }
        for key, (op, start) in starts.items():
            value, steps, dist = run(op, start)
            want_value, want_steps, want_mass, want_when = recorded[key]
            assert value == pytest.approx(want_value, rel=1e-12)
            assert value == pytest.approx(dense[key][0], rel=1e-12)
            assert steps == want_steps == dense[key][1]
            assert whens[key] == [want_when] * 2
            assert dist.sum() == pytest.approx(want_mass, rel=1e-12)
            assert np.max(np.abs(dist - dense[key][2])) < 1e-12
        sym, far = hitting.symmetric_state(g, 0), hitting.symmetric_state(g, 15)
        assert hitting.one_shot_hitting_time(grover, sym, far, 0.5, 200) == 4


class TestWalkSymmetries:
    def test_translations_commute_for_any_coin(self, rng):
        cay = graphs.cayley_hypercube(3)
        coin = walk.custom_coin(random_unitary(3, rng))
        u = walk.evolution_operator(cay.graph, coin).matrix
        for a in (1, 2, 5, 7):
            sigma = groups.left_translation(cay, a).matrix()
            assert np.max(np.abs(u @ sigma - sigma @ u)) < 1e-12

    def test_grover_walk_commutes_with_direction_permutations(self):
        cay = graphs.cayley_hypercube(3)
        u = walk.evolution_operator(cay.graph, walk.grover_coin(3)).matrix
        for p in full_direction_group(cay).elements:
            sigma = p.matrix()
            assert np.max(np.abs(u @ sigma - sigma @ u)) < 1e-12

    def test_dft_walk_breaks_direction_permutations(self):
        cay = graphs.cayley_hypercube(3)
        u = walk.evolution_operator(cay.graph, walk.dft_coin(3)).matrix
        p = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 3))
        sigma = p.matrix()
        assert np.max(np.abs(u @ sigma - sigma @ u)) > 1e-3


class TestContinuous:
    def test_laplacian_entries(self):
        g = graphs.build_hypercube(2)
        h = walk.continuous_hamiltonian(g, gamma=1.0, convention="laplacian")
        assert np.allclose(np.diag(h), 2.0)
        a = graphs.adjacency_matrix(g)
        assert np.array_equal(h, 2.0 * np.eye(4) - a)

    def test_conventions_differ_by_degree_shift(self):
        g = graphs.build_hypercube(3)
        lap = walk.continuous_hamiltonian(g, gamma=0.7, convention="laplacian")
        adj = walk.continuous_hamiltonian(g, gamma=0.7, convention="adjacency")
        assert np.allclose(lap + adj, 0.7 * 3 * np.eye(8))

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            walk.continuous_hamiltonian(graphs.build_edge_graph(), convention="bogus")

    def test_propagator_at_zero_is_identity(self):
        h = walk.continuous_hamiltonian(graphs.build_cycle(4))
        assert np.allclose(walk.continuous_propagator(h, 0.0).matrix, np.eye(4), atol=1e-14)

    def test_semigroup_property(self):
        h = walk.continuous_hamiltonian(graphs.build_glued_trees(2))
        u1 = walk.continuous_propagator(h, 0.8).matrix
        u2 = walk.continuous_propagator(h, 1.7).matrix
        u12 = walk.continuous_propagator(h, 2.5).matrix
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-8

    def test_two_vertex_transfer_probability(self):
        # exp(i X t) rotates the pair, giving |<1|U|0>|^2 = sin(t)^2
        h = walk.continuous_hamiltonian(graphs.build_edge_graph(), 1.0, "adjacency")
        for t in (0.3, 1.0, 2.2):
            u = walk.continuous_propagator(h, t).matrix
            assert abs(abs(u[1, 0]) ** 2 - np.sin(t) ** 2) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            walk.continuous_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = random_unitary(3, rng)
        again = walk.matrix_from_json(walk.matrix_to_json(m))
        assert np.allclose(again, m, atol=0)
