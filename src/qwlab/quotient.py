"""Orbit bases, quotient graphs, and symmetry-reduced walks.

A subgroup H of basis automorphisms partitions the (vertex, color) basis
into orbits, held as one label array: the orbit index of each basis index.
The uniform superpositions over orbits are the simultaneous eigenvalue-1
eigenvectors of all sigma(h); as columns they form an isometry B onto the
symmetric subspace.  When U keeps ran(B), as commuting with every sigma(h)
implies, the walk restricted there is U_H = B+ U B, a coined walk on a
smaller quotient graph whose vertices are orbit vertex-sets.  U_H is
scaled orbit sums of U's rows, summed from its factors, and then its
columns, and the reduced shift B+ S B is a permutation of the orbits,
read off the shift image; neither forms B.

The verdict reads the walk and the group in their compact forms: a dense
U that is the n-cube's walk as its coin and shift (``fourier.cube_walk``),
checked once and never gathered, the group as its generators' index
arrays, and the trapped subspace's overlap with ran(B) from the narrower
side, the D x k isometry B in the frame's coordinates when the orbits are
fewer than either D-tall basis of the report has columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import OracleMismatchError, SymmetryError
from .fourier import cube_walk
from .graphs import ColoredGraph, glued_trees_columns
from .groups import PermGroup, Permutation, generators_of, orbit_labels
from .spectral import _final_array, infinite_hitting_projector
from .walk import _as_walk, _check_memory

__all__ = [
    "OrbitBasis",
    "SymmetryCheck",
    "QuotientGraph",
    "LineWalk",
    "QuotientHittingVerdict",
    "orbit_basis",
    "check_walk_symmetry",
    "quotient_walk",
    "quotient_shift_and_graph",
    "quotient_coin",
    "hypercube_line_reduction",
    "glued_trees_quotient_hamiltonian",
    "glued_trees_column_isometry",
    "quotient_infinite_hitting",
    "quotient_automorphism_check",
    "quotient_graph_to_dict",
]

SYMMETRY_ATOL = 1e-10
UNITARITY_ATOL = 1e-9
ENTRY_ATOL = 1e-12
ANGLE_ATOL = 1e-8  # a principal angle cosine above 1 - ANGLE_ATOL is a shared direction
# k x D arrays of U's dtype counted beside the D x b rows of C that R sums
# and the k x k U_H: R, its leak taken in place, and U_H B+, built from a
# scaled copy of U_H, hold 2 k D + 2 k^2 <= 3 k D + k^2 for k <= D (3.34 k D
# measured in all under (1,2) on hypercube:6-7)
ORBIT_SUM_ARRAYS = 3


@dataclass(frozen=True, eq=False)
class OrbitBasis:
    """Orbit partition of the walk basis: its label array and nothing else.

    ``labels[i]`` is the orbit of basis index i; orbits are numbered by
    smallest member, which fixes every reduced matrix deterministically.
    Sizes, member lists, ``orbits`` and ``matrix``, the isometry whose
    column j is the normalized indicator of orbit j, derive from the labels
    when first read, ``matrix`` after a memory check.
    """

    labels: np.ndarray

    def __post_init__(self):
        self.labels.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.labels.size

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels)

    @property
    def num_orbits(self) -> int:
        return self.sizes.size

    @functools.cached_property
    def _members(self) -> np.ndarray:
        """Basis indices grouped by orbit, ascending within each orbit."""
        return np.argsort(self.labels, kind="stable")

    @functools.cached_property
    def _starts(self) -> np.ndarray:
        """Position in ``_members`` of each orbit's smallest member."""
        return np.cumsum(self.sizes) - self.sizes

    @functools.cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(m.tolist()) for m in np.split(self._members, self._starts[1:]))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        _check_memory(self.dim, self.dim * self.num_orbits, float)
        b = np.zeros((self.dim, self.num_orbits))
        b[np.arange(self.dim), self.labels] = 1.0 / np.sqrt(self.sizes[self.labels])
        return b


def orbit_basis(grp: PermGroup | Iterable[Permutation], dim: int) -> OrbitBasis:
    """Orbits of a subgroup, from its generators; its elements are never listed."""
    return OrbitBasis(orbit_labels(grp, dim))


def _orbit_map(basis: OrbitBasis, image: np.ndarray, what: str) -> np.ndarray:
    """Orbit map induced by a basis permutation given as its image: orbit j
    goes where its smallest member goes; raises when another member does not."""
    induced = basis.labels[image[basis._members[basis._starts]]]
    split = np.flatnonzero(basis.labels[image] != induced[basis.labels])
    if split.size:
        raise SymmetryError(f"{what} scatters orbit {basis.labels[split[0]]} across orbits")
    return induced


def _orbit_sums(a: np.ndarray, basis: OrbitBasis, axis: int) -> np.ndarray:
    """B+ a (axis 0) or a B (axis 1): each orbit's rows (columns) of a,
    summed and scaled by 1/sqrt(orbit size)."""
    sums = np.add.reduceat(np.take(a, basis._members, axis=axis), basis._starts, axis=axis)
    scale = 1.0 / np.sqrt(basis.sizes)
    return sums * (scale[:, None] if axis == 0 else scale)


@dataclass(frozen=True)
class SymmetryCheck:
    commutes: bool
    max_residual: float


def check_walk_symmetry(u, grp: PermGroup | Iterable[Permutation]) -> SymmetryCheck:
    """Largest entry of U sigma(h) - sigma(h) U over the generators.

    Commuting with the subgroup is sufficient for :func:`quotient_walk`,
    not necessary: the reduction needs only that U keeps ran(B).
    """
    m = _as_walk(u).matrix
    worst = 0.0
    for h in generators_of(grp):
        img = h.array
        inv = np.empty_like(img)
        inv[img] = np.arange(m.shape[0])
        # sigma(h) U permutes rows; U sigma(h) permutes columns (by inverse).
        worst = float(np.max(np.abs(m[:, img] - m[inv]), initial=worst))  # keeps a NaN
    return SymmetryCheck(worst <= SYMMETRY_ATOL, worst)


def _check_dim(basis: OrbitBasis, dim: int) -> None:
    if basis.dim != dim:
        raise ValueError(f"orbit basis of dimension {basis.dim} on a walk of dimension {dim}")


def quotient_walk(u, basis: OrbitBasis) -> np.ndarray:
    """U_H = B+ U B by orbit sums of U's rows, R = B+ U, then of R's columns.
    R is summed from U's factors: row j of I (x) C, row j mod b of C on
    vertex j // b, is row ``image[j]`` of U.  Sorted by (vertex, orbit of
    the image, image), the rows add in one ``np.add.reduceat``, in the dense
    sums' order; a one-block walk is one vertex.  U keeps ran(B) exactly
    when R = U_H B+; max |R - U_H B+| is its leak.  D b + ORBIT_SUM_ARRAYS
    k D + k^2 entries are checked before the rows are read."""
    op = _as_walk(u)
    d, b, k = op.dim, op.block.shape[0], basis.num_orbits
    _check_dim(basis, d)
    _check_memory(d, d * b + ORBIT_SUM_ARRAYS * k * d + k * k, op.block.dtype)
    vertex, orbit = np.arange(d) // b, basis.labels[op.image]
    rows = np.lexsort((op.image, orbit, vertex))
    run = vertex[rows] * k + orbit[rows]
    starts = np.flatnonzero(np.diff(run, prepend=-1))
    r = np.zeros((k, d // b, b), dtype=op.block.dtype)
    r[orbit[rows[starts]], vertex[rows[starts]]] = np.add.reduceat(op.block[rows % b], starts)
    r = r.reshape(k, d) * (1.0 / np.sqrt(basis.sizes))[:, None]
    uh = _orbit_sums(r, basis, 1)
    r -= np.take(uh / np.sqrt(basis.sizes), basis.labels, axis=1)  # R - U_H B+, in place
    leak = float(np.max(np.abs(r)))
    if not leak <= SYMMETRY_ATOL:
        raise SymmetryError(f"walk leaks out of the symmetric subspace (residual {leak:.3e})")
    defect = float(np.max(np.abs(uh.conj().T @ uh - np.eye(uh.shape[0]))))
    if not defect <= UNITARITY_ATOL:
        raise SymmetryError(f"reduced walk not unitary (defect {defect:.3e})")
    return uh


@dataclass(frozen=True, eq=False)
class QuotientGraph:
    """Quotient combinatorics: orbits grouped into vertices by vertex-set.

    ``vertex_slots[q]`` lists the orbit indices forming quotient vertex q
    (its direction slots, in orbit order).  ``connections[j]`` is the orbit
    the shift pairs with orbit j; a fixed point is a self-loop.
    """

    num_vertices: int
    vertex_slots: tuple[tuple[int, ...], ...]
    orbit_to_vertex: tuple[int, ...]
    connections: tuple[int, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.vertex_slots)

    def slot_of(self, orbit_index: int) -> int:
        """1-based direction slot of an orbit within its quotient vertex."""
        q = self.orbit_to_vertex[orbit_index]
        return self.vertex_slots[q].index(orbit_index) + 1

    @property
    def self_loops(self) -> tuple[int, ...]:
        return tuple(j for j, k in enumerate(self.connections) if j == k)


def _is_permutation(image: np.ndarray, n: int) -> bool:
    return image.shape == (n,) and bool(np.array_equal(np.sort(image), np.arange(n)))


def quotient_shift_and_graph(
    s, basis: OrbitBasis, *, graph: ColoredGraph | None = None
) -> tuple[np.ndarray, QuotientGraph]:
    """Reduce the shift and read off the quotient graph.

    ``s`` is the shift's image array or its 0/1 permutation matrix.  The
    reduced shift B+ S B is returned as its orbit image ``s_h``: column j
    has its one entry in row ``s_h[j]``.  It is a 0/1 permutation exactly
    when the shift carries each orbit whole onto an orbit of the same size;
    anything else means the subgroup was not a group of shift symmetries.
    """
    image = np.asarray(s)
    if image.ndim == 2:
        cols, rows = np.nonzero(image.T)
        if not (np.array_equal(cols, np.arange(len(image))) and np.all(image[rows, cols] == 1)):
            raise ValueError("shift matrix is not a 0/1 permutation matrix")
        image = rows
    if not _is_permutation(image, basis.dim):
        raise ValueError("shift image is not a permutation of the walk basis")
    conn = _orbit_map(basis, image, "shift")
    if not np.array_equal(basis.sizes[conn], basis.sizes):
        raise SymmetryError("reduced shift entries are not 0/1; connected orbits differ in size")

    # without a graph, index sets stand in for vertex sets
    vertex_of = np.arange(basis.dim) if graph is None else np.repeat(
        np.arange(graph.num_vertices), graph.degrees
    )
    vertex_ids: dict[frozenset, int] = {}
    orbit_to_vertex = tuple(
        vertex_ids.setdefault(frozenset(vertex_of[list(o)].tolist()), len(vertex_ids))
        for o in basis.orbits
    )
    slots: list[list[int]] = [[] for _ in vertex_ids]
    for j, q in enumerate(orbit_to_vertex):
        slots[q].append(j)
    qg = QuotientGraph(
        num_vertices=len(slots),
        vertex_slots=tuple(map(tuple, slots)),
        orbit_to_vertex=orbit_to_vertex,
        connections=tuple(conn.tolist()),
    )
    return conn, qg


def quotient_coin(
    u_h: np.ndarray, qgraph: QuotientGraph
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """C_H = S_H+ U_H with its per-vertex unitary blocks.

    The reduced shift is ``qgraph.connections``, its orbit image, so row j
    of C_H is row ``connections[j]`` of U_H.  Off-block mass raises, and so
    does a hand-built graph whose connections are not a permutation.
    """
    u_h = np.asarray(u_h)
    s_h = np.asarray(qgraph.connections)
    if not _is_permutation(s_h, u_h.shape[0]):
        raise ValueError("reduced shift must be a permutation of the orbits")
    c_h = u_h[s_h]
    blocks = []
    mask = np.zeros_like(c_h, dtype=bool)
    for slots in qgraph.vertex_slots:
        rows = np.asarray(slots)
        block = c_h[np.ix_(rows, rows)]
        defect = float(np.max(np.abs(block.conj().T @ block - np.eye(rows.size))))
        if not defect <= UNITARITY_ATOL:
            raise ValueError(f"coin block not unitary (defect {defect:.3e})")
        blocks.append(block)
        mask[np.ix_(rows, rows)] = True
    stray = float(np.max(np.abs(np.where(mask, 0.0, c_h))))
    if not stray <= ENTRY_ATOL:
        raise ValueError(f"reduced coin has off-block mass {stray:.3e}")
    return c_h, tuple(blocks)


@dataclass(frozen=True, eq=False)
class LineWalk:
    """Hamming-weight reduction of the hypercube walk with the uniform coin.

    Basis |R,0>, |L,1>, |R,1>, ..., |R,n-1>, |L,n> (2n states).  The shift
    swaps (R,x) with (L,x+1); the coin mixes L and R at fixed weight x
    through cos(w_x) = 1 - 2x/n, pinned to the single surviving state at
    the endpoints.
    """

    shift: np.ndarray
    coin: np.ndarray
    matrix: np.ndarray
    labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def start_index(self) -> int:
        return 0  # |R,0>

    @property
    def final_index(self) -> int:
        return self.dim - 1  # |L,n>


def hypercube_line_reduction(n: int) -> LineWalk:
    """The n-cube's :class:`LineWalk`: R_x is state 2x and L_x state 2x - 1,
    so the shift pairs 2x with 2x + 1 and the coin mixes 2x - 1 with 2x."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    dim = 2 * n
    r = np.arange(0, dim, 2)  # R_x, whose shift partner is L_(x+1)
    shift = np.zeros((dim, dim))
    shift[r, r + 1] = shift[r + 1, r] = 1.0
    c = 1.0 - 2.0 * np.arange(n + 1) / n
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    coin = np.zeros((dim, dim))
    coin[0, 0], coin[-1, -1] = c[0], -c[n]  # the ends keep one state: 1
    left, right = r[1:] - 1, r[1:]  # L_x and R_x for 0 < x < n
    coin[left, left], coin[right, right] = -c[1:n], c[1:n]
    coin[right, left] = coin[left, right] = s[1:n]
    labels = tuple(f"{'RL'[i % 2]}{(i + 1) // 2}" for i in range(dim))
    return LineWalk(shift, coin, shift @ coin, labels)


def glued_trees_quotient_hamiltonian(depth: int, gamma: float = 1.0) -> np.ndarray:
    """Column-collapsed Hamiltonian of the glued-trees walk (Laplacian form).

    Tridiagonal on 2*depth + 1 sites: off-diagonal -sqrt(2)*gamma, diagonal
    2*gamma at the roots and the shared-leaf column, 3*gamma elsewhere.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    m = 2 * depth + 1
    h = np.zeros((m, m))
    for j in range(m):
        h[j, j] = 2.0 * gamma if j in (0, depth, 2 * depth) else 3.0 * gamma
        if j + 1 < m:
            h[j, j + 1] = h[j + 1, j] = -np.sqrt(2.0) * gamma
    return h


def glued_trees_column_isometry(depth: int) -> np.ndarray:
    """Isometry whose columns are normalized column indicators (weights 2^(-min[j,2n-j]/2))."""
    cols = glued_trees_columns(depth)
    return OrbitBasis(np.repeat(np.arange(len(cols)), [len(c) for c in cols])).matrix


@dataclass(frozen=True)
class QuotientHittingVerdict:
    """Agreement-checked intersection of the trapped subspace with the quotient.

    ``intersection_dim`` is dim(ran P intersect ran P_H), computed both by
    principal angles on the full space and by diagonalizing the reduced
    walk; the two must agree exactly.
    """

    intersection_dim: int
    full_trace: float
    quotient_trace: float

    @property
    def has_infinite_hitting(self) -> bool:
        return self.intersection_dim > 0


def quotient_infinite_hitting(u, basis: OrbitBasis, final_indices) -> QuotientHittingVerdict:
    """Decide infinite hitting on the quotient by two independent routes.

    Route 1 intersects the full-space trapped subspace with the symmetric
    subspace via principal angles, the singular values of B+ V for the
    trapped basis V; route 2 builds the trapped projector of the reduced
    walk directly.  The measurement must commute with the subgroup, that
    is, no orbit may straddle the finals; otherwise the measured walk
    leaves the quotient.  A final index outside [0, D) raises ValueError.
    A dense U that is the n-cube's walk is read once as its coin and shift
    (``fourier.cube_walk``), and both the reduced walk and the full report
    take that factored walk, so U is checked once and never gathered.  The
    reduced walk is built first, so that a walk that leaks out of the
    symmetric subspace raises before either eigensolve.  Route 1's overlap
    is formed from the narrower side (:func:`_shared_directions`).  Each
    step checks its own memory; the spectral reports choose their routes.
    """
    op = cube_walk(_as_walk(u))
    _check_dim(basis, op.dim)
    final = np.unique(_final_array(final_indices, op.dim))
    inside = np.bincount(basis.labels[final], minlength=basis.num_orbits)
    if np.any((inside > 0) & (inside < basis.sizes)):
        raise SymmetryError(
            "final-vertex projector does not commute with the subgroup"
        )
    final_orbits = np.flatnonzero(inside)
    if not final_orbits.size:
        raise SymmetryError("final projector has no support on the quotient")

    u_h = quotient_walk(op, basis)
    report_full = infinite_hitting_projector(op, final)
    dim_full = _shared_directions(report_full, basis)

    report_q = infinite_hitting_projector(u_h, final_orbits)
    dim_q = report_q.trapped_dim
    if dim_full != dim_q:
        raise OracleMismatchError(
            f"intersection dims disagree: principal angles {dim_full}, "
            f"reduced spectrum {dim_q}"
        )
    return QuotientHittingVerdict(
        intersection_dim=dim_full,
        full_trace=report_full.trace_p,
        quotient_trace=report_q.trace_p,
    )


def _shared_directions(report, basis: OrbitBasis) -> int:
    """dim(ran B intersect the trapped subspace), counted from the narrower
    side of the principal-angle overlap.  With fewer orbits than both the
    D x r untrapped and the D x t trapped basis have columns, k < min(r, t),
    W+ B is read from the frame's coordinates of B, refused first by the
    report's split estimate (``report.split_start``), and neither D-tall
    basis is built; otherwise it is the orbit sums of W when r < t, else
    B+ V is the orbit sums of V."""
    k, r, t = basis.num_orbits, report.untrapped_dim, report.trapped_dim
    if k < min(r, t):
        return _count_from_untrapped(report.split_start(basis.matrix)[1], k)
    if r < t:
        return _count_from_untrapped(_orbit_sums(report.untrapped, basis, 0), k)
    return _count_from_trapped(_orbit_sums(report.basis, basis, 0))


def _count_from_trapped(overlap: np.ndarray) -> int:
    """The principal angle cosines above 1 - ANGLE_ATOL: the singular values
    of the k x t overlap B+ V with the trapped basis V."""
    return int(np.sum(np.linalg.svd(overlap, compute_uv=False) > 1.0 - ANGLE_ATOL))


def _count_from_untrapped(overlap: np.ndarray, k: int) -> int:
    """The same count from the r x k (or k x r) overlap W+ B with the
    untrapped basis W: the rows of B+ [V W] are orthonormal, so a shared
    direction has squared sine below 2 ANGLE_ATOL - ANGLE_ATOL^2 against W,
    and k less the singular values at or above that bound counts them."""
    sines = np.linalg.svd(overlap, compute_uv=False)
    return k - int(np.sum(sines**2 >= 2 * ANGLE_ATOL - ANGLE_ATOL**2))


def quotient_automorphism_check(
    p: Permutation, basis: OrbitBasis, s_h: np.ndarray
) -> bool:
    """True when an orbit-respecting automorphism preserves the reduced shift.

    ``s_h`` is the reduced shift's orbit image.  Raises when p does not map
    orbits onto orbits (membership in the orbit-stabilizing subgroup fails).
    """
    induced = _orbit_map(basis, p.array, "permutation")
    s_h = np.asarray(s_h)
    return bool(np.array_equal(s_h[induced], induced[s_h]))


def quotient_graph_to_dict(qg: QuotientGraph) -> dict:
    """Quotient graph in the shared edge-list schema, with self-loop markers."""
    edges = []
    done = set()
    for j, k in enumerate(qg.connections):
        key = (min(j, k), max(j, k))
        if key in done:
            continue
        done.add(key)
        entry = {
            "u": qg.orbit_to_vertex[j],
            "cu": qg.slot_of(j),
            "v": qg.orbit_to_vertex[k],
            "cv": qg.slot_of(k),
        }
        if qg.orbit_to_vertex[j] == qg.orbit_to_vertex[k]:
            entry["self_loop"] = True
        edges.append(entry)
    return {"num_vertices": qg.num_vertices, "edges": edges}
