import collections
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwlab import graphs, groups, quotient, walk
from qwlab.errors import GroupOrderError, NotAnAutomorphismError
from qwlab.graphs import BasisIndexing
from qwlab.groups import Permutation

from conftest import direction_group, full_direction_group


class TestParseCycles:
    def test_transposition_fixes_rest(self):
        p = groups.parse_cycles("(1,2)", 3)
        assert p.image == (1, 0, 2)

    def test_three_cycle(self):
        p = groups.parse_cycles("(1,2,3)", 3)
        assert p(0) == 1 and p(1) == 2 and p(2) == 0

    def test_empty_is_identity(self):
        assert groups.parse_cycles("", 4).is_identity

    def test_disjoint_product(self):
        p = groups.parse_cycles("(1,2)(3,4)", 4)
        assert p.image == (1, 0, 3, 2)

    def test_whitespace_ignored(self):
        assert groups.parse_cycles(" (1, 2) ", 2).image == (1, 0)

    @pytest.mark.parametrize("bad", ["(1,2", "1,2)", "(1,a)", "((1,2))"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError, match="malformed"):
            groups.parse_cycles(bad, 4)

    def test_repeated_symbol(self):
        with pytest.raises(ValueError, match="repeated"):
            groups.parse_cycles("(1,2)(2,3)", 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            groups.parse_cycles("(1,5)", 3)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_rejects_non_integer_images(self):
        with pytest.raises(ValueError, match="not integers"):
            Permutation((0.0, 1.0))

    def test_numpy_integer_images_become_ints(self):
        p = Permutation(tuple(np.array([1, 0, 2])))
        assert p.image == (1, 0, 2)
        assert all(type(x) is int for x in p.image)

    def test_matrix_conjugation_is_exact(self):
        g = graphs.build_hypercube(2)
        cay = graphs.cayley_hypercube(2)
        shift = graphs.shift_permutation(g)
        p = groups.left_translation(cay, 3)
        img = np.asarray(p.image)
        assert np.array_equal(shift[img], img[shift])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_compose_inverse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        p = Permutation(tuple(rng.permutation(8).tolist()))
        assert p.compose(p.inverse()).is_identity
        assert p.inverse().compose(p).is_identity


def lift_oracle(cay, dirperm):
    """The lift by a pure-Python breadth-first search and edge-by-edge check;
    returns the basis image, or (vertex, color) of the first bad edge."""
    g, d = cay.graph, cay.degree
    e = cay.vertex_index[cay.identity]
    vmap = {e: e}
    queue = collections.deque([e])
    while queue:
        v = queue.popleft()
        for c in range(1, d + 1):
            w, _ = g.neighbor(v, c)
            if w not in vmap:
                vmap[w] = g.neighbor(vmap[v], dirperm(c - 1) + 1)[0]
                queue.append(w)
    for v in range(g.num_vertices):
        for c in range(1, d + 1):
            if vmap[g.neighbor(v, c)[0]] != g.neighbor(vmap[v], dirperm(c - 1) + 1)[0]:
                return v, c
    idx = BasisIndexing.from_graph(g)
    return tuple(
        idx.index(vmap[v], dirperm(c - 1) + 1) for v in range(g.num_vertices) for c in range(1, d + 1)
    )


class TestDirectionPermLift:
    @pytest.mark.parametrize(
        "cay, texts",
        [
            (graphs.cayley_hypercube(5), ("(1,2)", "(4,5)", "(1,3,5)", "(1,2)(3,4,5)")),
            (graphs.cayley_s4_3gen(), ("(1,2)", "(2,3)", "(1,2,3)")),
            (graphs.cayley_s3_3gen(), ("(1,3)", "(1,3,2)")),
        ],
        ids=["hypercube5", "s4-3gen", "s3-3gen"],
    )
    def test_matches_the_breadth_first_oracle(self, cay, texts):
        for text in texts:
            p = groups.parse_cycles(text, cay.degree)
            assert groups.direction_perm_to_automorphism(cay, p).image == lift_oracle(cay, p)

    @pytest.mark.parametrize("text", ["(1,3)", "(2,3)", "(1,2,3)"])
    def test_non_automorphism_names_the_first_bad_edge(self, text):
        cay = graphs.build_cayley(((1, 0, 3, 2), (2, 1, 0, 3), (2, 3, 0, 1)))
        p = groups.parse_cycles(text, 3)
        v, c = lift_oracle(cay, p)
        with pytest.raises(NotAnAutomorphismError, match=f"vertex {v}, color {c} maps"):
            groups.direction_perm_to_automorphism(cay, p)

    def test_hypercube_swap_matches_direct_construction(self):
        cay = graphs.cayley_hypercube(3)
        lifted = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 3))
        idx = BasisIndexing.from_graph(cay.graph)

        def swap_bits(v):
            a, b = v & 1, (v >> 1) & 1
            return (v & ~3) | (b << 0) | (a << 1)

        coin_swap = {1: 2, 2: 1, 3: 3}
        expected = [0] * idx.total_dim
        for v in range(8):
            for c in (1, 2, 3):
                expected[idx.index(v, c)] = idx.index(swap_bits(v), coin_swap[c])
        assert lifted.image == tuple(expected)
        assert groups.is_automorphism(cay.graph, lifted)

    def test_identity_direction_perm(self):
        cay = graphs.cayley_s3_2gen()
        lifted = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("", 2))
        assert lifted.is_identity

    def test_three_cycle_on_triangle_group(self):
        cay = graphs.cayley_s3_3gen()
        lifted = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2,3)", 3))
        assert groups.is_automorphism(cay.graph, lifted)
        assert groups.closure([lifted]).order == 3

    def test_detects_non_automorphism(self):
        # dihedral group of the square: swapping an edge reflection with the
        # central rotation cannot extend to a group automorphism
        refl = (1, 0, 3, 2)       # (12)(34)
        diag = (2, 1, 0, 3)       # (13)
        center = (2, 3, 0, 1)     # (13)(24)
        cay = graphs.build_cayley((refl, diag, center))
        assert cay.graph.num_vertices == 8
        with pytest.raises(NotAnAutomorphismError):
            groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,3)", 3))

    def test_one_breadth_first_tree_per_graph(self):
        # the tree does not depend on the permutation: the first lift builds
        # it, every later lift on the graph reads it
        cay = graphs.cayley_hypercube(5)
        first = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 5))
        tree = vars(cay)["breadth_first_tree"]
        assert groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 5)) == first
        assert cay.breadth_first_tree is tree
        assert len(tree) == 5  # one level per Hamming weight
        children = np.concatenate([child for child, _, _ in tree])
        assert sorted(children.tolist()) == list(range(1, 32))

    def test_degree_mismatch(self):
        cay = graphs.cayley_hypercube(2)
        with pytest.raises(ValueError):
            groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 3))


class TestIsAutomorphism:
    def test_bit_flip_translation(self):
        cay = graphs.cayley_hypercube(2)
        assert groups.is_automorphism(cay.graph, groups.left_translation(cay, 2))

    def test_diagonal_reflection_needs_direction_swap(self):
        g = graphs.build_hypercube(2)
        idx = BasisIndexing.from_graph(g)
        vmap = {0: 0, 1: 2, 2: 1, 3: 3}

        def build(coin_map):
            image = [0] * idx.total_dim
            for v in range(4):
                for c in (1, 2):
                    image[idx.index(v, c)] = idx.index(vmap[v], coin_map[c])
            return Permutation(tuple(image))

        assert not groups.is_automorphism(g, build({1: 1, 2: 2}))
        assert groups.is_automorphism(g, build({1: 2, 2: 1}))

    def test_identity(self):
        g = graphs.build_hypercube(2)
        assert groups.is_automorphism(g, Permutation.identity(8))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            groups.is_automorphism(graphs.build_hypercube(2), Permutation.identity(4))


def oracle_closure(generators):
    """Breadth-first closure over ``Permutation.compose``, sorted by image."""
    e = Permutation.identity(generators[0].degree)
    seen = {e.image: e}
    queue = collections.deque([e])
    while queue:
        p = queue.popleft()
        for s in generators:
            q = s.compose(p)
            if q.image not in seen:
                seen[q.image] = q
                queue.append(q)
    return tuple(sorted(seen.values(), key=lambda p: p.image))


def cayley_translations(cay):
    return groups.closure([groups.left_translation(cay, a) for a in cay.generators])


ORACLE_CASES = {
    "cayley:s3:2gen": lambda: full_direction_group(graphs.cayley_s3_2gen()),
    "cayley:s3:3gen": lambda: full_direction_group(graphs.cayley_s3_3gen()),
    "cayley:s4:3gen": lambda: full_direction_group(graphs.cayley_s4_3gen()),
    "hypercube:3": lambda: full_direction_group(graphs.cayley_hypercube(3)),
    "hypercube:4": lambda: full_direction_group(graphs.cayley_hypercube(4)),
    "hypercube:5": lambda: full_direction_group(graphs.cayley_hypercube(5)),
    "cayley:s3:translations": lambda: cayley_translations(graphs.cayley_s3_2gen()),
}


def breadth_first_table(generators, degree):
    """The group table by breadth-first products of whole frontiers, each
    product row looked up among the rows' bytes, sorted by big-endian row
    bytes; past ``DEFAULT_MAX_ORDER`` rows it raises.  An oracle for
    ``closure``'s stabilizer chain that shares none of its code."""
    dtype = groups._index_dtype(degree)
    gens = [np.asarray(g.image, dtype=dtype) for g in generators]
    frontier = np.arange(degree, dtype=dtype)[None, :]
    if not gens:
        return frontier
    seen = {frontier.tobytes()}
    levels = [frontier]
    width = frontier.nbytes
    while len(frontier):
        fresh = []
        for s in gens:
            products = s[frontier]
            buf = products.tobytes()
            new_rows = []
            for i in range(len(products)):
                key = buf[i * width:(i + 1) * width]
                if key not in seen:
                    if len(seen) >= groups.DEFAULT_MAX_ORDER:
                        raise GroupOrderError(f"group order exceeds max_order={groups.DEFAULT_MAX_ORDER}")
                    seen.add(key)
                    new_rows.append(i)
            fresh.append(products[new_rows])
        frontier = np.concatenate(fresh)
        levels.append(frontier)
    table = np.concatenate(levels)
    if degree:
        keys = table.astype(table.dtype.newbyteorder(">"))
        table = table[np.argsort(keys.view(np.dtype((np.void, width))).ravel())]
    return table


def lifted(cay, *cycle_texts):
    return [groups.direction_perm_to_automorphism(cay, groups.parse_cycles(t, cay.degree))
            for t in cycle_texts]


def adjacent_transpositions(cay):
    return lifted(cay, *(f"({i},{i + 1})" for i in range(1, cay.degree)))


def translations(cay):
    return [groups.left_translation(cay, a) for a in cay.generators]


def _hypercube(n):
    return graphs.cayley_hypercube(n)


CHAIN_CASES = {
    **{f"hypercube:{n}/full": (lambda n=n: adjacent_transpositions(_hypercube(n))) for n in range(3, 8)},
    "hypercube:6/(1,2)(3,4)": lambda: lifted(_hypercube(6), "(1,2)(3,4)"),
    "hypercube:5/(1,2,3,4,5)": lambda: lifted(_hypercube(5), "(1,2,3,4,5)"),
    "cayley:s3:2gen/full": lambda: adjacent_transpositions(graphs.cayley_s3_2gen()),
    "cayley:s3:3gen/full": lambda: adjacent_transpositions(graphs.cayley_s3_3gen()),
    "cayley:s3:3gen/(1,2,3)": lambda: lifted(graphs.cayley_s3_3gen(), "(1,2,3)"),
    "cayley:s4:3gen/full": lambda: adjacent_transpositions(graphs.cayley_s4_3gen()),
    "cayley:s4:3gen/(1,2,3)": lambda: lifted(graphs.cayley_s4_3gen(), "(1,2,3)"),
    "cayley:s3:2gen/translations": lambda: translations(graphs.cayley_s3_2gen()),
    "cayley:s4:3gen/translations": lambda: translations(graphs.cayley_s4_3gen()),
    "hypercube:4/translations": lambda: translations(_hypercube(4)),
    "hypercube:3/translations+(1,2)": lambda: translations(_hypercube(3)) + lifted(_hypercube(3), "(1,2)"),
    "hypercube:4/translations+full": lambda: translations(_hypercube(4)) + adjacent_transpositions(_hypercube(4)),
    "hypercube:5/(1,2)+translation": lambda: lifted(_hypercube(5), "(1,2)") + translations(_hypercube(5))[2:3],
    "hypercube:4/identity,duplicates": lambda: (
        lifted(_hypercube(4), "", "(1,2)", "(1,2)", "(2,3)", "", "(2,3)", "(3,4)")
    ),
    "hypercube:4/redundant": lambda: (
        lifted(_hypercube(4), "(1,2)", "(1,3)", "(1,2,3)", "(1,2,3,4)", "(1,4)(2,3)", "(1,2)(3,4)")
    ),
    "hypercube:4/identity only": lambda: lifted(_hypercube(4), "", ""),
    "degree 1": lambda: [Permutation((0,))],
    "degree 0": lambda: [Permutation(()), Permutation(())],
}


class TestClosure:
    def test_single_involution(self):
        p = Permutation((1, 0, 2))
        grp = groups.closure([p])
        assert grp.order == 2
        assert Permutation.identity(3) in grp

    def test_empty_generators_give_trivial_group(self):
        grp = groups.closure([], dim=5)
        assert grp.order == 1
        assert grp.elements[0].is_identity

    def test_degree_zero_generator(self):
        assert groups.closure([Permutation(())]).order == 1

    def test_inverse_closed(self):
        cay = graphs.cayley_s3_3gen()
        grp = direction_group(cay, "(1,2,3)")
        for p in grp.elements:
            assert p.inverse() in grp

    def test_order_guard(self, monkeypatch):
        cay = graphs.cayley_s3_3gen()
        a = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 3))
        b = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2,3)", 3))
        monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 4)
        with pytest.raises(GroupOrderError):
            groups.closure([a, b])

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_compose_oracle(self, case):
        grp = ORACLE_CASES[case]()
        assert grp.elements == oracle_closure(grp.generators)
        assert grp.order == len(grp.elements)
        assert grp.degree == grp.generators[0].degree

    def test_order_guard_is_exact(self, monkeypatch):
        gens = full_direction_group(graphs.cayley_hypercube(4)).generators
        monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 24)
        assert groups.closure(gens).order == 24
        monkeypatch.setattr(groups, "DEFAULT_MAX_ORDER", 23)
        with pytest.raises(GroupOrderError, match="max_order=23"):
            groups.closure(gens)

    @pytest.mark.parametrize("case", list(CHAIN_CASES))
    def test_matches_the_breadth_first_table(self, case):
        gens = tuple(CHAIN_CASES[case]())
        grp = groups.closure(gens)
        table = breadth_first_table(gens, gens[0].degree)
        assert grp.table.dtype == table.dtype
        assert grp.table.shape == table.shape
        assert grp.table.tobytes() == table.tobytes()
        assert grp.order == len(table)
        assert grp.generators == gens

    def test_empty_generators_match_the_breadth_first_table(self):
        for dim in (0, 1, 6):
            grp = groups.closure([], dim=dim)
            assert grp.table.tobytes() == breadth_first_table([], dim).tobytes()
            assert grp.table.shape == (1, dim)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), degree=st.integers(0, 10), count=st.integers(0, 4))
    def test_random_generators_match_the_breadth_first_table(self, data, degree, count):
        perms = st.permutations(range(degree)).map(lambda image: Permutation(tuple(image)))
        gens = tuple(data.draw(st.lists(perms, min_size=count, max_size=count)))
        try:
            table = breadth_first_table(gens, degree)
        except GroupOrderError:
            with pytest.raises(GroupOrderError, match=f"max_order={groups.DEFAULT_MAX_ORDER}"):
                groups.closure(gens, dim=degree)
            return
        grp = groups.closure(gens, dim=degree)
        assert grp.table.tobytes() == table.tobytes()
        assert grp.order == len(table)
        assert grp.generators == gens

    @pytest.mark.parametrize("n", [8, 9])
    def test_full_direction_group_refused_before_listing(self, n):
        # |S_8| = 40,320 rows of 2,048 and |S_9| rows of 4,608 would take
        # 165 MB and 3.3 GB; the refusal comes from the chain's order alone.
        gens = adjacent_transpositions(graphs.cayley_hypercube(n))
        tracemalloc.start()
        try:
            with pytest.raises(GroupOrderError, match="group order exceeds max_order=10080"):
                groups.closure(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_table_over_the_memory_budget_raises(self, monkeypatch):
        # S_6 on hypercube:6 is 720 rows of 384 int16 entries, 540 KiB a
        # copy; the refusal comes before the first copy is made.
        gens = adjacent_transpositions(graphs.cayley_hypercube(6))
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension 384 needs an estimated 2 MiB, over a memory budget of 1 MiB"):
                groups.closure(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 720 * 384 * 2

    def test_mixed_generator_degrees_rejected(self):
        gens = [Permutation((1, 0)), Permutation((1, 0, 2))]
        with pytest.raises(ValueError, match="different degrees"):
            groups.closure(gens)
        with pytest.raises(ValueError, match="does not match dim"):
            groups.closure(gens, dim=2)

    def test_verdict_never_builds_elements(self):
        cay = graphs.cayley_hypercube(4)
        grp = full_direction_group(cay)
        op = walk.evolution_operator(cay.graph, walk.grover_coin(4))
        idx = BasisIndexing.from_graph(cay.graph)
        basis = quotient.orbit_basis(grp, idx.total_dim)
        quotient.quotient_infinite_hitting(op.matrix, basis, idx.indices_for([15]))
        assert "elements" not in vars(grp)

    def test_membership_agrees_with_elements(self, rng):
        cay = graphs.cayley_hypercube(3)
        grp = full_direction_group(cay)
        members = set(grp.elements)
        for p in grp.elements:
            assert p in grp
        outsiders = [groups.left_translation(cay, a) for a in range(1, 8)]
        outsiders += [Permutation(tuple(rng.permutation(24).tolist())) for _ in range(20)]
        outsiders += [p.compose(t) for p in grp.elements for t in outsiders[:7]]
        for q in outsiders:
            assert (q in grp) == (q in members)
        assert not any(q in grp for q in outsiders[:7])
        assert Permutation.identity(12) not in grp


def union_find_labels(perms, dim):
    """Orbit labels by union-find, orbits numbered by smallest member."""
    parent = list(range(dim))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in perms:
        for i, j in enumerate(p.image):
            a, b = find(i), find(j)
            parent[max(a, b)] = min(a, b)
    roots = [find(i) for i in range(dim)]
    rank = {r: k for k, r in enumerate(sorted(set(roots)))}
    return [rank[r] for r in roots]


class TestOrbits:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 60), count=st.integers(0, 3))
    def test_labels_match_union_find(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        perms = []
        for _ in range(count):
            # a few short cycles, so that orbits stay small and many
            image = np.arange(dim)
            moved = rng.choice(dim, size=min(dim, 4), replace=False)
            image[moved] = np.roll(moved, 1)
            perms.append(Permutation(tuple(image.tolist())))
        assert groups.orbit_labels(perms, dim).tolist() == union_find_labels(perms, dim)

    def test_hypercube_subgroup_labels_match_union_find(self):
        cay = graphs.cayley_hypercube(6)
        gens = direction_group(cay, "(1,2)", "(4,5,6)").generators
        assert groups.orbit_labels(gens, 384).tolist() == union_find_labels(gens, 384)

    def test_trivial_group_gives_singletons(self):
        grp = groups.closure([], dim=6)
        assert quotient.orbit_basis(grp, 6).orbits == tuple((i,) for i in range(6))

    def test_s3_two_generator_direction_swap(self):
        cay = graphs.cayley_s3_2gen()
        grp = direction_group(cay, "(1,2)")
        orbs = quotient.orbit_basis(grp, 12).orbits
        assert orbs == ((0, 1), (2, 5), (3, 4), (6, 9), (7, 8), (10, 11))

    def test_hypercube_full_direction_group(self):
        cay = graphs.cayley_hypercube(3)
        grp = full_direction_group(cay)
        assert grp.order == 6
        orbs = quotient.orbit_basis(grp, 24).orbits
        assert [len(o) for o in orbs] == [3, 3, 6, 6, 3, 3]

    def test_partition_and_invariance(self):
        cay = graphs.cayley_s3_3gen()
        grp = full_direction_group(cay)
        orbs = quotient.orbit_basis(grp, 18).orbits
        flat = sorted(i for o in orbs for i in o)
        assert flat == list(range(18))
        for orb in orbs:
            members = set(orb)
            for p in grp.elements:
                assert {p(i) for i in orb} == members


def translation_oracle(cay, element):
    """Image of g -> a*g on the basis, state by state through BasisIndexing."""
    g = cay.graph
    idx = BasisIndexing.from_graph(g)
    image = [0] * idx.total_dim
    for v in range(g.num_vertices):
        w = cay.vertex_index[cay.mul(element, cay.elements[v])]
        for c in g.colors(v):
            image[idx.index(v, c)] = idx.index(w, c)
    return tuple(image)


class TestLeftTranslation:
    @pytest.mark.parametrize(
        "build",
        [graphs.cayley_s3_2gen, graphs.cayley_s3_3gen, graphs.cayley_s4_3gen,
         lambda: graphs.cayley_hypercube(3)],
        ids=["cayley:s3:2gen", "cayley:s3:3gen", "cayley:s4:3gen", "hypercube:3"],
    )
    def test_matches_the_basis_indexing_loop(self, build):
        cay = build()
        for a in cay.elements:
            assert groups.left_translation(cay, a).image == translation_oracle(cay, a)


class TestDirectionPreserving:
    def test_left_translations_have_block_structure(self):
        cay = graphs.cayley_hypercube(3)
        for a in (1, 3, 7):
            p = groups.left_translation(cay, a)
            assert groups.is_direction_preserving(cay.graph, p)
            assert groups.is_automorphism(cay.graph, p)

    def test_direction_swap_is_not(self):
        cay = graphs.cayley_hypercube(2)
        p = groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 2))
        assert not groups.is_direction_preserving(cay.graph, p)

    def test_left_translations_exhaust_small_case(self):
        # brute force over all vertex permutations with identity coin action
        cay = graphs.cayley_s3_2gen()
        g = cay.graph
        idx = BasisIndexing.from_graph(g)
        found = set()
        for vperm in itertools.permutations(range(6)):
            image = [0] * idx.total_dim
            for v in range(6):
                for c in g.colors(v):
                    image[idx.index(v, c)] = idx.index(vperm[v], c)
            p = Permutation(tuple(image))
            if groups.is_automorphism(g, p):
                found.add(p.image)
        translations = {groups.left_translation(cay, a).image for a in cay.elements}
        assert found == translations
        assert len(found) == 6


# order and the first 16 hex digits of the SHA-256 of the little-endian
# table bytes of each chain case, as the tuple-built chain listed them
TABLE_DIGESTS = {
    'hypercube:3/full': (6, '2f64dd6865db2b81'),
    'hypercube:4/full': (24, 'ef75446bb704e954'),
    'hypercube:5/full': (120, 'aa16906106ce6f21'),
    'hypercube:6/full': (720, '30cfd30c789165bc'),
    'hypercube:7/full': (5040, 'f5a7ed826aa09e5e'),
    'hypercube:6/(1,2)(3,4)': (2, 'fa9c9986c74a6ab6'),
    'hypercube:5/(1,2,3,4,5)': (5, '5193447c32c17e72'),
    'cayley:s3:2gen/full': (2, '68505f0ee61e16ff'),
    'cayley:s3:3gen/full': (6, 'a0185efae0441448'),
    'cayley:s3:3gen/(1,2,3)': (3, '0215d8d2d928dafc'),
    'cayley:s4:3gen/full': (6, '764457d6e0840dd1'),
    'cayley:s4:3gen/(1,2,3)': (3, '4a79a450b81633de'),
    'cayley:s3:2gen/translations': (6, 'a71a15c796a3f541'),
    'cayley:s4:3gen/translations': (24, 'f2d569ce26ff7b3c'),
    'hypercube:4/translations': (16, 'f476dbc23ca8d749'),
    'hypercube:3/translations+(1,2)': (16, '8521294c4847ec3c'),
    'hypercube:4/translations+full': (384, '4d5c535a1f62b829'),
    'hypercube:5/(1,2)+translation': (4, 'f54033548c43e7e6'),
    'hypercube:4/identity,duplicates': (24, 'ef75446bb704e954'),
    'hypercube:4/redundant': (24, 'ef75446bb704e954'),
    'hypercube:4/identity only': (1, 'd9f3c8064105485f'),
    'degree 1': (1, '96a296d224f285c6'),
    'degree 0': (1, 'e3b0c44298fc1c14'),
}


class TestPermutationArrays:
    """A permutation keeps its image as a read-only index array beside the
    tuple; the array readers give what the tuple readers gave."""

    @pytest.mark.parametrize("image", [
        [0, 0, 1], [0, 3, 1], [-1, 0, 1], [2, 0, 1, 5], np.array([0.0, 1.0]), np.array([True, False]),
        np.array([[0, 1]]), np.array([1, 0], dtype=np.uint8), np.array([2**62, 0]), np.array([], dtype=int),
        np.array([2, 0, 1], dtype=np.int16)])
    def test_an_array_raises_as_its_tuple_does(self, image):
        arr = np.asarray(image)
        outcomes = []
        for form in (arr, tuple(arr)):
            try:
                p = Permutation(form)
                outcomes.append((p.image, p.array.tolist(), p.array.dtype))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_the_array_is_a_read_only_copy(self):
        source = np.array([2, 0, 1])
        p = Permutation(source)
        source[0] = 1
        assert p.image == (2, 0, 1) and all(type(x) is int for x in p.image)
        assert p.array.tolist() == [2, 0, 1] and not p.array.flags.writeable
        assert p == Permutation((2, 0, 1)) and hash(p) == hash(Permutation((2, 0, 1)))
        with pytest.raises(ValueError):
            p.array[0] = 0

    @pytest.mark.parametrize("case", list(CHAIN_CASES))
    def test_closure_orders_and_tables_are_unchanged(self, case):
        grp = groups.closure(CHAIN_CASES[case]())
        digest = hashlib.sha256(grp.table.astype("<i2").tobytes()).hexdigest()[:16]
        assert (grp.order, digest) == TABLE_DIGESTS[case]

    @pytest.mark.parametrize("case", ["hypercube:5/full", "hypercube:4/translations+full", "degree 0"])
    def test_elements_equal_the_tuple_built_elements(self, case):
        grp = groups.closure(CHAIN_CASES[case]())
        built = tuple(Permutation(tuple(row)) for row in grp.table.tolist())
        assert grp.elements == built
        assert all(np.array_equal(p.array, q.array) for p, q in zip(grp.elements, built))
        assert all(p in grp for p in grp.elements)
