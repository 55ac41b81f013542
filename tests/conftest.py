import functools

import numpy as np
import pytest

from qwlab import graphs, groups, hitting, walk


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def trapped_projector(report) -> np.ndarray:
    """The D x D projector B B+ onto a spectral report's trapped subspace."""
    return report.basis @ report.basis.conj().T


def color_shift(dim: int, n: int) -> np.ndarray:
    """The image of the relabelling v*n + c -> v*n + (c + 1) % n of the n
    colors at every vertex."""
    v, c = np.divmod(np.arange(dim), n)
    return v * n + (c + 1) % n


def relabelled(x: np.ndarray, image: np.ndarray) -> np.ndarray:
    """P x for a vector, P x P+ for a matrix, P moving index j to image[j]."""
    out = np.empty_like(x)
    out[np.ix_(*[image] * x.ndim)] = x
    return out


def color_permuted(u: np.ndarray, n: int) -> np.ndarray:
    """P U P+ for the :func:`color_shift` P: on the n-cube the same walk,
    whose dense matrix takes the dense route, not the Fourier route."""
    return relabelled(u, color_shift(len(u), n))


def relabelled_group(gens, image: np.ndarray) -> list[groups.Permutation]:
    """P g P+ for each basis permutation g of ``gens``."""
    out = []
    for g in gens:
        conj = np.empty_like(image)
        conj[image] = image[np.asarray(g.image)]
        out.append(groups.Permutation(tuple(conj.tolist())))
    return out


def direction_group(cay: graphs.CayleyGraph, *cycle_texts: str) -> groups.PermGroup:
    """Closure of the basis automorphisms induced by direction permutations."""
    gens = [
        groups.direction_perm_to_automorphism(cay, groups.parse_cycles(t, cay.degree))
        for t in cycle_texts
    ]
    dim = graphs.BasisIndexing.from_graph(cay.graph).total_dim
    return groups.closure(gens, dim=dim)


def subgroup_forms(grp: groups.PermGroup) -> tuple:
    """The two forms the orbit code accepts: the closed group and its generators."""
    return grp, tuple(grp.generators)


def full_direction_group(cay: graphs.CayleyGraph) -> groups.PermGroup:
    """All direction permutations, generated by adjacent transpositions."""
    d = cay.degree
    texts = [f"({i},{i + 1})" for i in range(1, d)]
    return direction_group(cay, *texts)


def two_cycles(n: int) -> graphs.ColoredGraph:
    """Two disjoint n-cycles for even n, vertices 0..n-1 and n..2n-1, colored
    like build_cycle(n)."""
    edges = [graphs.Edge(o + k, 1 + k % 2, o + (k + 1) % n, 1 + k % 2) for o in (0, n) for k in range(n)]
    return graphs.ColoredGraph(2 * n, tuple(edges))


def two_four_cycles() -> graphs.ColoredGraph:
    """Two disjoint 4-cycles, vertices 0-3 and 4-7."""
    return two_cycles(4)


@functools.cache
def battery() -> tuple:
    """(name, spec) pairs over cycles, hypercubes up to n = 3, the two
    permutation Cayley graphs and the rewired hypercube (largest D = 24)."""
    specs = []

    def add(name, g, coin, start, finals):
        op = walk.evolution_operator(g, coin)
        specs.append((name, hitting.measured_walk(op, start, final_vertices=finals)))

    edge = graphs.build_edge_graph()
    add("edge", edge, walk.grover_coin(1), hitting.basis_state(edge, 0, 1), [1])
    c4 = graphs.build_cycle(4)
    add("cycle4-uniform-basis", c4, walk.grover_coin(2), hitting.basis_state(c4, 0, 1), [2])
    add("cycle4-dft-basis", c4, walk.dft_coin(2), hitting.basis_state(c4, 0, 1), [2])
    c6 = graphs.build_cycle(6)
    add("cycle6-uniform-sym", c6, walk.grover_coin(2), hitting.symmetric_state(c6, 0), [3])
    c8 = graphs.build_cycle(8)
    add("cycle8-dft-sym", c8, walk.dft_coin(2), hitting.symmetric_state(c8, 0), [4])
    for n in (2, 3):
        g = graphs.build_hypercube(n)
        add(f"cube{n}-uniform-sym", g, walk.grover_coin(n), hitting.symmetric_state(g, 0), [2 ** n - 1])
        add(f"cube{n}-dft-sym", g, walk.dft_coin(n), hitting.symmetric_state(g, 0), [2 ** n - 1])
        add(f"cube{n}-uniform-basis", g, walk.grover_coin(n), hitting.basis_state(g, 0, 1), [2 ** n - 1])
    s2 = graphs.cayley_s3_2gen().graph
    add("s3g2-basis", s2, walk.grover_coin(2), hitting.basis_state(s2, 0, 1), [5])
    add("s3g2-sym", s2, walk.grover_coin(2), hitting.symmetric_state(s2, 0), [5])
    s3 = graphs.cayley_s3_3gen().graph
    add("s3g3-uniform-sym", s3, walk.grover_coin(3), hitting.symmetric_state(s3, 0), [4])
    add("s3g3-dft-sym", s3, walk.dft_coin(3), hitting.symmetric_state(s3, 0), [4])
    d3 = graphs.build_distorted_hypercube(3)
    add("distorted3-sym", d3, walk.grover_coin(3), hitting.symmetric_state(d3, 0), [7])
    add("distorted3-basis", d3, walk.grover_coin(3), hitting.basis_state(d3, 0, 1), [7])
    assert all(spec.dim <= 128 for _, spec in specs)
    return tuple(specs)
