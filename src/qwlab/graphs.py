"""Colored graphs and their shift/adjacency matrices.

Vertices are canonical integers ``0..N-1``.  Every directed half-edge
``(v, c)`` carries a color ``c >= 1`` that is unique among the half-edges
leaving ``v``; the far end of the same undirected edge carries its own
color.  The flat ``(vertex, color)`` basis defined by :class:`BasisIndexing`
is the Hilbert-space basis all walk operators act on, and the edge structure
induces a permutation of that basis (the shift).

Graphs where every edge carries the same color at both ends and every
vertex uses exactly the colors ``1..d`` are *consistently colored*; those
are the graphs on which a position-independent coin factorizes as
``I (x) C``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Edge",
    "ColoredGraph",
    "BasisIndexing",
    "CayleyGraph",
    "build_edge_graph",
    "build_hypercube",
    "build_cycle",
    "build_distorted_hypercube",
    "build_glued_trees",
    "glued_trees_columns",
    "build_cayley",
    "cayley_hypercube",
    "cayley_s3_2gen",
    "cayley_s3_3gen",
    "cayley_s4_3gen",
    "perm_compose",
    "perm_identity",
    "shift_permutation",
    "shift_matrix",
    "adjacency_matrix",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
]


# bytes the per-vertex tables (degrees, colors, basis offsets) hold at once
# per vertex (81 by tracemalloc on edgeless graphs of 10^4-10^6 vertices)
VERTEX_TABLE_BYTES = 100


class Edge(NamedTuple):
    """One undirected edge with the color at each end."""

    u: int
    cu: int
    v: int
    cv: int


@dataclass(frozen=True)
class ColoredGraph:
    """An undirected graph with per-end edge colors.

    Each undirected edge appears exactly once in ``edges``, normalized so
    that ``(u, cu) <= (v, cv)``.  Parallel edges and self-loops are
    rejected; colors at a vertex must be pairwise distinct.  A vertex count
    whose per-vertex tables would not fit in the memory budget raises
    ValueError, with the estimate, before any is built.
    """

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        canon = []
        for e in self.edges:
            e = Edge(*e)
            if (e.v, e.cv) < (e.u, e.cu):
                e = Edge(e.v, e.cv, e.u, e.cu)
            canon.append(e)
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))
        self._validate()

    def _validate(self):
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        from .walk import _check_memory  # walk builds on this module

        _check_memory(self.num_vertices, VERTEX_TABLE_BYTES * self.num_vertices, np.uint8)
        seen_colors: set[tuple[int, int]] = set()
        seen_pairs: set[tuple[int, int]] = set()
        for e in self.edges:
            for w, c in ((e.u, e.cu), (e.v, e.cv)):
                if not 0 <= w < self.num_vertices:
                    raise ValueError(f"vertex {w} out of range")
                if c < 1:
                    raise ValueError(f"color {c} must be >= 1")
                if (w, c) in seen_colors:
                    raise ValueError(f"color {c} reused at vertex {w}")
                seen_colors.add((w, c))
            if e.u == e.v:
                raise ValueError(f"self-loop at vertex {e.u}")
            pair = (min(e.u, e.v), max(e.u, e.v))
            if pair in seen_pairs:
                raise ValueError(f"parallel edge between {pair}")
            seen_pairs.add(pair)

    @cached_property
    def _half_edges(self) -> dict[tuple[int, int], tuple[int, int]]:
        half: dict[tuple[int, int], tuple[int, int]] = {}
        for e in self.edges:
            half[(e.u, e.cu)] = (e.v, e.cv)
            half[(e.v, e.cv)] = (e.u, e.cu)
        return half

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.num_vertices
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return tuple(deg)

    @cached_property
    def vertex_colors(self) -> tuple[tuple[int, ...], ...]:
        cols: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for e in self.edges:
            cols[e.u].append(e.cu)
            cols[e.v].append(e.cv)
        return tuple(tuple(sorted(c)) for c in cols)

    @cached_property
    def neighbor_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(far vertex, far basis index) of every half-edge, in the flat
        basis order of :class:`BasisIndexing`; both arrays are read-only.

        Sorting the half-edges by (vertex, color) lists them in that order,
        so the rank of a half-edge is its basis index.
        """
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 4)
        vertex = np.concatenate([ends[:, 0], ends[:, 2]])
        color = np.concatenate([ends[:, 1], ends[:, 3]])
        rank = np.empty(vertex.size, dtype=np.int64)
        rank[np.lexsort((color, vertex))] = np.arange(vertex.size)
        half = len(self.edges)
        partner = np.concatenate([np.arange(half, 2 * half), np.arange(half)])
        far_vertex = np.empty_like(rank)
        far_index = np.empty_like(rank)
        far_vertex[rank] = vertex[partner]
        far_index[rank] = rank[partner]
        far_vertex.flags.writeable = far_index.flags.writeable = False
        return far_vertex, far_index

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def colors(self, v: int) -> tuple[int, ...]:
        return self.vertex_colors[v]

    def neighbor(self, v: int, c: int) -> tuple[int, int]:
        """Far end ``(w, cw)`` of the color-``c`` edge at ``v``."""
        try:
            return self._half_edges[(v, c)]
        except KeyError:
            raise ValueError(f"vertex {v} has no edge of color {c}") from None

    @property
    def is_regular(self) -> bool:
        return len(set(self.degrees)) == 1

    @property
    def degree_value(self) -> int:
        if not self.is_regular:
            raise ValueError("graph is not regular")
        return self.degrees[0]

    @cached_property
    def is_consistently_colored(self) -> bool:
        """True when every edge has equal end colors and vertex v uses 1..deg(v)."""
        if any(e.cu != e.cv for e in self.edges):
            return False
        return all(
            self.vertex_colors[v] == tuple(range(1, self.degrees[v] + 1))
            for v in range(self.num_vertices)
        )


@dataclass(frozen=True)
class BasisIndexing:
    """Flat ordering of the ``(vertex, color)`` basis.

    The index of ``(v, c)`` is ``offsets[v]`` plus the rank of ``c`` among
    the sorted colors of ``v``; the map is a bijection onto ``[0, D)`` with
    ``D = sum of degrees``.
    """

    offsets: tuple[int, ...]
    vertex_colors: tuple[tuple[int, ...], ...]
    total_dim: int

    @classmethod
    def from_graph(cls, g: ColoredGraph) -> "BasisIndexing":
        offsets = []
        acc = 0
        for v in range(g.num_vertices):
            offsets.append(acc)
            acc += g.degrees[v]
        return cls(tuple(offsets), g.vertex_colors, acc)

    @property
    def num_vertices(self) -> int:
        return len(self.offsets)

    def _colors(self, v: int) -> tuple[int, tuple[int, ...]]:
        """``v`` as an int, refused unless it is a whole number in range,
        and its colors."""
        v = _whole(v)
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex {v} out of range")
        return v, self.vertex_colors[v]

    def index(self, v: int, c: int) -> int:
        v, colors = self._colors(v)
        try:
            rank = colors.index(c)
        except ValueError:
            raise ValueError(f"vertex {v} has no color {c}") from None
        return self.offsets[v] + rank

    def pair(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.total_dim:
            raise ValueError(f"basis index {i} out of range")
        v = int(np.searchsorted(np.asarray(self.offsets), i, side="right")) - 1
        return v, self.vertex_colors[v][i - self.offsets[v]]

    def vertex_indices(self, v: int) -> range:
        v, colors = self._colors(v)
        size = len(colors)
        return range(self.offsets[v], self.offsets[v] + size)

    def indices_for(self, vertices: Iterable[int]) -> np.ndarray:
        out: list[int] = []
        for v in vertices:
            out.extend(self.vertex_indices(v))
        return np.array(sorted(out), dtype=int)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

# bytes an edge holds while the graph is built and checked (peak RSS over
# the baseline: 562, 529 and 517 at hypercube:12, 14 and 16; 572, 595 and
# 574 at cycle:100000, 200000 and 400000)
EDGE_BYTES = 600


def build_edge_graph() -> ColoredGraph:
    """Two vertices joined by a single edge of color 1."""
    return ColoredGraph(2, (Edge(0, 1, 1, 1),))


def build_hypercube(n: int) -> ColoredGraph:
    """n-dimensional hypercube; color i joins v and v XOR 2**(i-1).

    Vertices are the integers ``0..2**n - 1`` read as bit strings, so the
    color-1 edges flip the lowest bit and opposite edges of every square
    face share a color.  The n 2^(n-1) edges are listed in Python objects;
    a cube whose list would not fit in the memory budget raises ValueError
    before it is started, with the estimate.
    """
    if n < 1:
        raise ValueError("hypercube dimension must be >= 1")
    from .walk import _check_memory  # walk builds on this module

    _check_memory(n << n, EDGE_BYTES * (n << (n - 1)), np.uint8)
    edges = []
    for v in range(1 << n):  # vertex-major: the order ColoredGraph sorts into
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            if not v & bit:
                edges.append(Edge(v, i, v | bit, i))
    return ColoredGraph(1 << n, tuple(edges))


def build_cycle(n: int) -> ColoredGraph:
    """Even cycle with edges alternately colored 1 and 2.  A cycle whose
    edge list would not fit in the memory budget raises ValueError before it
    is started, with the estimate."""
    if n < 4 or n % 2:
        raise ValueError("consistent 2-coloring needs an even cycle, n >= 4")
    from .walk import _check_memory  # walk builds on this module

    _check_memory(n, EDGE_BYTES * n, np.uint8)
    edges = [Edge(k, 1 + k % 2, (k + 1) % n, 1 + k % 2) for k in range(n)]
    return ColoredGraph(n, tuple(edges))


def build_distorted_hypercube(n: int) -> ColoredGraph:
    """Hypercube with one face rewired: edges 0-1 and 2-3 become 0-3 and 1-2.

    The replacement edges carry color 1 at both ends, so the graph stays
    n-regular and consistently n-colored; for n >= 3 it acquires an odd
    cycle and is no longer bipartite.
    """
    if n < 2:
        raise ValueError("distorted hypercube needs n >= 2")
    base = build_hypercube(n)
    removed = {Edge(0, 1, 1, 1), Edge(2, 1, 3, 1)}
    edges = [e for e in base.edges if e not in removed]
    edges += [Edge(0, 1, 3, 1), Edge(1, 1, 2, 1)]
    return ColoredGraph(base.num_vertices, tuple(edges))


def glued_trees_columns(depth: int) -> tuple[tuple[int, ...], ...]:
    """Vertex ids per column, columns ``0..2*depth``."""
    if depth < 1:
        raise ValueError("glued trees depth must be >= 1")
    sizes = [2 ** min(j, 2 * depth - j) for j in range(2 * depth + 1)]
    cols = []
    acc = 0
    for m in sizes:
        cols.append(tuple(range(acc, acc + m)))
        acc += m
    return tuple(cols)


def build_glued_trees(depth: int) -> ColoredGraph:
    """Two binary trees of the given depth sharing their leaf column.

    Column j holds ``2**min(j, 2*depth - j)`` vertices; the two roots sit in
    columns 0 and 2*depth and the shared leaves in column ``depth``.  Column
    counts give ``3 * 2**depth - 2`` vertices with degrees 2 and 3.  Colors
    are assigned per endpoint as the lowest unused value in a fixed edge
    order; only continuous-time walks use this graph, so the coloring is a
    bookkeeping convention.
    """
    cols = glued_trees_columns(depth)
    num = cols[-1][-1] + 1
    next_color = [1] * num
    edges = []

    def connect(a: int, b: int):
        edges.append(Edge(a, next_color[a], b, next_color[b]))
        next_color[a] += 1
        next_color[b] += 1

    for j in range(2 * depth):
        if j < depth:
            for k, a in enumerate(cols[j]):
                connect(a, cols[j + 1][2 * k])
                connect(a, cols[j + 1][2 * k + 1])
        else:
            for k, a in enumerate(cols[j]):
                connect(a, cols[j + 1][k // 2])
    return ColoredGraph(num, tuple(edges))


# ----------------------------------------------------------------------
# Cayley graphs
# ----------------------------------------------------------------------

def perm_compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Composition a.b acting as `apply b first, then a`."""
    return tuple(a[x] for x in b)


def perm_identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def _transposition(m: int, a: int, b: int) -> tuple[int, ...]:
    img = list(range(m))
    img[a], img[b] = img[b], img[a]
    return tuple(img)


@dataclass(frozen=True, eq=False)
class CayleyGraph:
    """A colored graph built from a group with an involution generating set.

    ``graph`` carries the combinatorial structure with vertex v labeled by
    ``elements[v]``; color i edges connect g to g*s_i.
    """

    graph: ColoredGraph
    elements: tuple
    generators: tuple
    identity: object
    mul: Callable
    vertex_index: dict

    @property
    def degree(self) -> int:
        return len(self.generators)

    @cached_property
    def breadth_first_tree(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(child, parent, 0-based color) arrays of each level of the
        breadth-first tree from the identity: each new vertex hangs from its
        first (frontier vertex, color) in queue order.  The neighbor table is
        read as vertex x color, as on a consistently colored graph."""
        d = self.degree
        nbr = self.graph.neighbor_table[0].reshape(self.graph.num_vertices, d)  # nbr[v, c - 1]
        seen = np.zeros(self.graph.num_vertices, dtype=bool)
        frontier = np.array([self.vertex_index[self.identity]])
        seen[frontier] = True
        levels = []
        while True:
            far = nbr[frontier].ravel()
            fresh = np.flatnonzero(~seen[far])
            _, first = np.unique(far[fresh], return_index=True)
            first = fresh[np.sort(first)]
            if not first.size:
                return tuple(levels)
            levels.append((far[first], frontier[first // d], first % d))
            frontier = far[first]
            seen[frontier] = True

    def vertex_of_word(self, word: Iterable[int]) -> int:
        """Vertex reached from the identity by following 1-based generator
        indices; an index outside 1..degree raises ValueError."""
        g = self.identity
        for i in word:
            if not 1 <= i <= self.degree:
                raise ValueError(f"generator index {i} outside 1..{self.degree}")
            g = self.mul(g, self.generators[i - 1])
        return self.vertex_index[g]


def build_cayley(
    generators: Sequence,
    *,
    mul: Callable | None = None,
    identity=None,
) -> CayleyGraph:
    """Cayley graph on a finite group with involution generators.

    Generators are permutation tuples composed by :func:`perm_compose`
    unless ``mul`` and ``identity`` are given.  The vertex set is
    enumerated breadth-first from the identity, which also fixes the vertex
    ordering.  Generators must be involutions and must exclude the identity
    so each color labels a well-defined undirected edge family.
    """
    generators = tuple(generators)
    if not generators:
        raise ValueError("generating set is empty")
    if mul is None or identity is None:
        if not isinstance(generators[0], tuple):
            raise ValueError("supply mul and identity for custom group elements")
        mul, identity = perm_compose, perm_identity(len(generators[0]))
    for s in generators:
        if s == identity:
            raise ValueError("identity element in generating set")
        if mul(s, s) != identity:
            raise ValueError(f"generator {s} is not an involution")

    elements = [identity]
    index = {identity: 0}
    edges = []
    for g in elements:  # the list grows behind the loop: breadth-first order
        for i, s in enumerate(generators, start=1):
            h = mul(g, s)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
            if index[g] < index[h]:
                edges.append(Edge(index[g], i, index[h], i))
    graph = ColoredGraph(len(elements), tuple(edges))
    return CayleyGraph(graph, tuple(elements), generators, identity, mul, index)


def cayley_hypercube(n: int) -> CayleyGraph:
    """Z_2^n under XOR with generators 1 << i on :func:`build_hypercube`'s
    graph, whose vertex v is the group element v."""
    graph = build_hypercube(n)
    elements = tuple(range(1 << n))
    return CayleyGraph(graph, elements, tuple(1 << i for i in range(n)), 0,
                       operator.xor, {v: v for v in elements})


def cayley_s3_2gen() -> CayleyGraph:
    gens = (_transposition(3, 0, 1), _transposition(3, 1, 2))
    return build_cayley(gens)


def cayley_s3_3gen() -> CayleyGraph:
    gens = (_transposition(3, 0, 1), _transposition(3, 1, 2), _transposition(3, 0, 2))
    return build_cayley(gens)


def cayley_s4_3gen() -> CayleyGraph:
    gens = (_transposition(4, 0, 1), _transposition(4, 0, 2), _transposition(4, 0, 3))
    return build_cayley(gens)


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------

def shift_permutation(g: ColoredGraph) -> np.ndarray:
    """Image array of the shift on the flat basis: (v, c) -> far end of the edge."""
    return g.neighbor_table[1].copy()


def shift_matrix(g: ColoredGraph) -> np.ndarray:
    """Shift as a dense complex permutation matrix on the flat basis."""
    image = shift_permutation(g)
    d = image.size
    s = np.zeros((d, d), dtype=complex)
    s[image, np.arange(d)] = 1.0
    return s


def adjacency_matrix(g: ColoredGraph) -> np.ndarray:
    a = np.zeros((g.num_vertices, g.num_vertices))
    for e in g.edges:
        a[e.u, e.v] = 1.0
        a[e.v, e.u] = 1.0
    return a


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------

def graph_to_dict(g: ColoredGraph) -> dict:
    return {
        "num_vertices": g.num_vertices,
        "edges": [{"u": e.u, "cu": e.cu, "v": e.v, "cv": e.cv} for e in g.edges],
    }


def _whole(x) -> int:
    """``x`` as an int, refused with ValueError when it is a bool or a
    string, when it differs from its int(), so that 1.9, true and "1" are
    not read as 1, or when it has no int()."""
    try:
        n = int(x)
    except (TypeError, OverflowError) as exc:
        raise ValueError(str(exc)) from None
    if isinstance(x, (bool, np.bool_, str)) or n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def graph_from_dict(d: dict) -> ColoredGraph:
    try:
        num = _whole(d["num_vertices"])
        edges = tuple(
            Edge(_whole(e["u"]), _whole(e["cu"]), _whole(e["v"]), _whole(e["cv"]))
            for e in d["edges"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from None
    return ColoredGraph(num, edges)


def graph_to_json(g: ColoredGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2, sort_keys=True)


def graph_from_json(text: str) -> ColoredGraph:
    return graph_from_dict(json.loads(text))
