import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwlab import graphs, walk
from qwlab.graphs import BasisIndexing, ColoredGraph, Edge


def undirected_edge_set(g, color=None):
    return {
        frozenset((e.u, e.v))
        for e in g.edges
        if color is None or e.cu == color
    }


class TestHypercube:
    def test_smallest_case(self):
        g = graphs.build_hypercube(1)
        assert g.num_vertices == 2
        assert g.edges == (Edge(0, 1, 1, 1),)

    def test_n2_opposite_edges_share_colors(self):
        g = graphs.build_hypercube(2)
        assert undirected_edge_set(g, color=1) == {frozenset((0, 1)), frozenset((2, 3))}
        assert undirected_edge_set(g, color=2) == {frozenset((0, 2)), frozenset((1, 3))}

    def test_n3_counts(self):
        g = graphs.build_hypercube(3)
        assert g.num_vertices == 8
        assert len(g.edges) == 12
        assert g.degree_value == 3
        assert g.is_consistently_colored

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            graphs.build_hypercube(0)

    def test_refused_before_its_edges_are_listed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an edge was listed")

        # 5120 edges at HYPERCUBE_EDGE_BYTES each, against a 1 MiB budget
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        monkeypatch.setattr(graphs, "Edge", refuse)
        with pytest.raises(ValueError, match="dimension 10240 needs an estimated 3 MiB, over a memory budget of 1 MiB"):
            graphs.build_hypercube(10)


def sigma_x_on_bit(bit: int, n: int) -> np.ndarray:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    m = np.eye(1, dtype=complex)
    for b in range(n - 1, -1, -1):
        m = np.kron(m, x if b == bit else eye)
    return m


class TestShift:
    def test_pauli_structure_n2(self):
        # each color is one bit flip tensored with its coin projector
        g = graphs.build_hypercube(2)
        expected = np.zeros((8, 8), dtype=complex)
        for c in (1, 2):
            proj = np.zeros((2, 2))
            proj[c - 1, c - 1] = 1.0
            expected += np.kron(sigma_x_on_bit(c - 1, 2), proj)
        assert np.array_equal(graphs.shift_matrix(g), expected)

    @pytest.mark.parametrize(
        "g",
        [
            graphs.build_hypercube(3),
            graphs.build_cycle(6),
            graphs.build_distorted_hypercube(3),
            graphs.build_glued_trees(2),
            graphs.cayley_s3_3gen().graph,
        ],
        ids=["hypercube3", "cycle6", "distorted3", "glued2", "s3-3gen"],
    )
    def test_always_a_permutation(self, g):
        s = graphs.shift_matrix(g)
        assert np.array_equal(s.sum(axis=0), np.ones(s.shape[0]))
        assert np.array_equal(s.sum(axis=1), np.ones(s.shape[0]))
        assert set(np.unique(s)) <= {0.0 + 0j, 1.0 + 0j}

    @pytest.mark.parametrize(
        "g",
        [graphs.build_hypercube(2), graphs.build_cycle(4), graphs.cayley_s3_2gen().graph],
        ids=["hypercube2", "cycle4", "s3-2gen"],
    )
    def test_consistent_coloring_gives_involution(self, g):
        s = graphs.shift_matrix(g)
        assert np.array_equal(s, s.T)
        assert np.array_equal(s @ s, np.eye(s.shape[0]))

    def test_single_edge_swap(self):
        s = graphs.shift_matrix(graphs.build_edge_graph())
        assert np.array_equal(s, np.array([[0, 1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize(
        "g",
        [
            graphs.build_hypercube(4),
            graphs.build_distorted_hypercube(3),
            graphs.build_glued_trees(3),
            graphs.cayley_s4_3gen().graph,
            ColoredGraph(4, (Edge(0, 2, 3, 5), Edge(1, 1, 0, 7), Edge(3, 1, 1, 4))),
        ],
        ids=["hypercube4", "distorted3", "glued3", "s4-3gen", "irregular-colors"],
    )
    def test_neighbor_table_matches_the_half_edges(self, g):
        far_vertex, far_index = g.neighbor_table
        idx = BasisIndexing.from_graph(g)
        want_vertex, want_index = [], []
        for v in range(g.num_vertices):
            for c in g.colors(v):
                w, cw = g.neighbor(v, c)
                want_vertex.append(w)
                want_index.append(idx.index(w, cw))
        assert far_vertex.tolist() == want_vertex and far_index.tolist() == want_index
        assert not far_vertex.flags.writeable and not far_index.flags.writeable
        image = graphs.shift_permutation(g)
        assert image.tolist() == want_index and image.flags.writeable


class TestCayley:
    def test_s3_two_generators(self):
        cay = graphs.cayley_s3_2gen()
        assert cay.graph.num_vertices == 6
        assert cay.graph.degree_value == 2

    def test_s3_three_generators(self):
        cay = graphs.cayley_s3_3gen()
        assert cay.graph.num_vertices == 6
        assert cay.graph.degree_value == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boolean_cube_equals_hypercube(self, n):
        cay = graphs.cayley_hypercube(n)
        assert cay.graph == graphs.build_hypercube(n)
        assert np.array_equal(
            graphs.shift_matrix(cay.graph), graphs.shift_matrix(graphs.build_hypercube(n))
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_hypercube_group_is_xor_on_the_built_cube(self, n):
        cay = graphs.cayley_hypercube(n)
        assert cay.graph == graphs.build_hypercube(n)
        assert cay.elements == tuple(range(1 << n))
        assert cay.generators == tuple(1 << i for i in range(n))
        assert cay.identity == 0
        assert cay.vertex_index == {v: v for v in range(1 << n)}
        assert all(
            cay.mul(a, b) == a ^ b
            for a in cay.elements
            for b in cay.generators + (cay.elements[-1],)
        )

    def test_integer_generators_need_mul_and_identity(self):
        with pytest.raises(ValueError, match="supply mul and identity"):
            graphs.build_cayley((1, 2))

    def test_rejects_identity_generator(self):
        with pytest.raises(ValueError, match="identity"):
            graphs.build_cayley((0, 1), mul=lambda a, b: a ^ b, identity=0)

    def test_rejects_non_involution(self):
        three_cycle = (1, 2, 0)
        with pytest.raises(ValueError, match="involution"):
            graphs.build_cayley((three_cycle,))

    def test_word_lookup(self):
        cay = graphs.cayley_s3_2gen()
        assert cay.vertex_of_word([]) == 0
        assert cay.vertex_of_word([1, 2, 1]) == 5
        assert cay.vertex_of_word([1, 1]) == 0

    @pytest.mark.parametrize("word", [[0], [1, 9], [3]])
    def test_word_letter_out_of_range(self, word):
        # 0 would read the last generator, and 3 or more is past the end
        with pytest.raises(ValueError, match=r"generator index \d outside 1\.\.2"):
            graphs.cayley_s3_2gen().vertex_of_word(word)


def is_bipartite(g: ColoredGraph) -> bool:
    color = [-1] * g.num_vertices
    for root in range(g.num_vertices):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for c in g.colors(v):
                w, _ = g.neighbor(v, c)
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


class TestDistortedHypercube:
    def test_rejects_small(self):
        with pytest.raises(ValueError):
            graphs.build_distorted_hypercube(1)

    def test_n2_rewired_square(self):
        g = graphs.build_distorted_hypercube(2)
        assert g.degree_value == 2
        assert undirected_edge_set(g, color=1) == {frozenset((0, 3)), frozenset((1, 2))}

    def test_n3_not_bipartite(self):
        assert is_bipartite(graphs.build_hypercube(3))
        assert not is_bipartite(graphs.build_distorted_hypercube(3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_degree_sequence_preserved(self, n):
        g = graphs.build_distorted_hypercube(n)
        assert g.degrees == graphs.build_hypercube(n).degrees
        assert g.is_consistently_colored

    def test_exactly_eight_shift_entries_move(self):
        s0 = graphs.shift_matrix(graphs.build_hypercube(3))
        s1 = graphs.shift_matrix(graphs.build_distorted_hypercube(3))
        assert int(np.sum(s0 != s1)) == 8


class TestGluedTrees:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            graphs.build_glued_trees(0)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_column_counts(self, depth):
        cols = graphs.glued_trees_columns(depth)
        sizes = [len(c) for c in cols]
        assert len(cols) == 2 * depth + 1
        assert sizes == sizes[::-1]
        assert sizes[depth] == 2 ** depth
        g = graphs.build_glued_trees(depth)
        assert g.num_vertices == 3 * 2 ** depth - 2

    def test_degrees(self):
        g = graphs.build_glued_trees(3)
        cols = graphs.glued_trees_columns(3)
        assert g.degree(cols[0][0]) == 2
        assert g.degree(cols[-1][0]) == 2
        assert all(g.degree(v) == 2 for v in cols[3])
        assert all(g.degree(v) == 3 for v in cols[1])
        assert set(g.degrees) == {2, 3}


class TestAdjacency:
    def test_hypercube_row_sums(self):
        a = graphs.adjacency_matrix(graphs.build_hypercube(2))
        assert np.array_equal(a.sum(axis=1), np.full(4, 2.0))

    def test_glued_trees_row_sums(self):
        g = graphs.build_glued_trees(2)
        a = graphs.adjacency_matrix(g)
        assert set(a.sum(axis=1)) == {2.0, 3.0}

    @pytest.mark.parametrize(
        "g",
        [graphs.build_glued_trees(3), graphs.build_distorted_hypercube(3)],
        ids=["glued3", "distorted3"],
    )
    def test_symmetric(self, g):
        a = graphs.adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert np.array_equal(a.sum(axis=1), np.asarray(g.degrees, dtype=float))


class TestValidation:
    def test_color_reuse_rejected(self):
        with pytest.raises(ValueError, match="reused"):
            ColoredGraph(3, (Edge(0, 1, 1, 1), Edge(0, 1, 2, 1)))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ColoredGraph(2, (Edge(0, 1, 5, 1),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ColoredGraph(2, (Edge(0, 1, 0, 2),))

    def test_parallel_edge_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            ColoredGraph(2, (Edge(0, 1, 1, 1), Edge(0, 2, 1, 2)))

    def test_missing_color_raises(self):
        g = graphs.build_edge_graph()
        with pytest.raises(ValueError, match="no edge of color"):
            g.neighbor(0, 3)


class TestIndexing:
    def test_bijection(self):
        g = graphs.build_glued_trees(2)
        idx = BasisIndexing.from_graph(g)
        seen = set()
        for v in range(g.num_vertices):
            for c in g.colors(v):
                i = idx.index(v, c)
                assert idx.pair(i) == (v, c)
                seen.add(i)
        assert seen == set(range(idx.total_dim))

    def test_total_dimension(self):
        g = graphs.build_hypercube(3)
        idx = BasisIndexing.from_graph(g)
        assert idx.total_dim == sum(g.degrees) == 24


BUILDERS = {
    "edge": graphs.build_edge_graph,
    "hypercube3": lambda: graphs.build_hypercube(3),
    "cycle6": lambda: graphs.build_cycle(6),
    "distorted3": lambda: graphs.build_distorted_hypercube(3),
    "glued2": lambda: graphs.build_glued_trees(2),
    "s4-3gen": lambda: graphs.cayley_s4_3gen().graph,
}


class TestJson:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_round_trip_is_identity(self, name):
        g = BUILDERS[name]()
        assert graphs.graph_from_json(graphs.graph_to_json(g)) == g

    def test_reader_rejects_bad_document(self):
        with pytest.raises(ValueError, match="malformed"):
            graphs.graph_from_dict({"edges": []})
        bad = json.loads(graphs.graph_to_json(graphs.build_edge_graph()))
        bad["edges"].append({"u": 0, "cu": 1, "v": 1, "cv": 1})
        with pytest.raises(ValueError):
            graphs.graph_from_dict(bad)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5))
    def test_hypercube_round_trip_any_dimension(self, n):
        g = graphs.build_hypercube(n)
        assert graphs.graph_from_json(graphs.graph_to_json(g)) == g
