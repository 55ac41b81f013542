"""Orbit bases, quotient graphs, and symmetry-reduced walks.

A subgroup H of basis automorphisms partitions the (vertex, color) basis
into orbits.  The uniform superpositions over orbits are the simultaneous
eigenvalue-1 eigenvectors of all sigma(h); stacking them as columns of an
isometry B gives the symmetric subspace.  When U commutes with every
sigma(h) the walk restricted there is U_H = B+ U B, a coined walk on a
smaller quotient graph whose vertices are orbit vertex-sets and whose
shift is B+ S B (a permutation with 0/1 entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import OracleMismatchError, SymmetryError
from .graphs import BasisIndexing, ColoredGraph, glued_trees_columns
from .groups import PermGroup, Permutation, generators_of, orbits
from .spectral import infinite_hitting_projector

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
_SYMMETRY_BLOCK_BYTES = 1 << 18  # per side, so that both blocks stay in cache


@dataclass(frozen=True, eq=False)
class OrbitBasis:
    """Orbit partition plus the isometry into the symmetric subspace.

    Column j of ``matrix`` is the normalized indicator of ``orbits[j]``;
    orbits are ordered by smallest flat index, which fixes every reduced
    matrix deterministically.  The orbits and every symmetry test need only
    the subgroup's ``generators``; its elements are never listed.
    """

    orbits: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    generators: tuple[Permutation, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)


def orbit_basis(grp: PermGroup | Iterable[Permutation], dim: int) -> OrbitBasis:
    gens = generators_of(grp)
    orbs = orbits(gens, dim)
    b = np.zeros((dim, len(orbs)), dtype=complex)
    for j, orb in enumerate(orbs):
        b[list(orb), j] = 1.0 / np.sqrt(len(orb))
    return OrbitBasis(orbs, b, gens)


@dataclass(frozen=True)
class SymmetryCheck:
    commutes: bool
    max_residual: float


def check_walk_symmetry(
    u, grp: PermGroup | Iterable[Permutation], *, atol: float = SYMMETRY_ATOL
) -> SymmetryCheck:
    """Largest entry of U sigma(h) - sigma(h) U over the generators.

    The two sides are compared one block of rows at a time, so no whole
    D x D copy of U is made.
    """
    m = np.asarray(getattr(u, "matrix", u), dtype=complex)
    dim = m.shape[0]
    rows = max(1, _SYMMETRY_BLOCK_BYTES // max(1, m[:1].nbytes))
    worst = 0.0
    for h in generators_of(grp):
        img = np.asarray(h.image)
        inv = np.empty_like(img)
        inv[img] = np.arange(dim)
        # sigma(h) U permutes rows; U sigma(h) permutes columns (by inverse).
        for lo in range(0, dim, rows):
            hi = lo + rows
            right = m[lo:hi][:, img]
            left = m[inv[lo:hi]]
            worst = max(worst, float(np.max(np.abs(right - left))))
    return SymmetryCheck(worst <= atol, worst)


def quotient_walk(u, basis: OrbitBasis, *, atol: float = SYMMETRY_ATOL) -> np.ndarray:
    """U_H = B+ U B; requires U to commute with the subgroup."""
    m = np.asarray(getattr(u, "matrix", u), dtype=complex)
    chk = check_walk_symmetry(m, basis.generators, atol=atol)
    if not chk.commutes:
        raise SymmetryError(
            f"walk leaks out of the symmetric subspace (residual {chk.max_residual:.3e})"
        )
    b = basis.matrix
    uh = b.conj().T @ m @ b
    defect = float(np.max(np.abs(uh.conj().T @ uh - np.eye(uh.shape[0]))))
    if defect > UNITARITY_ATOL:
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
    orbit_vertex_sets: tuple[frozenset, ...]
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


def quotient_shift_and_graph(
    s, basis: OrbitBasis, *, graph: ColoredGraph | None = None
) -> tuple[np.ndarray, QuotientGraph]:
    """Reduce the shift and read off the quotient graph.

    ``s`` may be the shift matrix or its permutation image array.  The
    reduced shift must be an exact 0/1 permutation, which holds precisely
    when connected orbits have equal cardinality; anything else means the
    subgroup was not a group of shift symmetries.
    """
    arr = np.asarray(s)
    if arr.ndim == 1:
        perm = arr.astype(int)
        dim = perm.size
        mat = np.zeros((dim, dim), dtype=complex)
        mat[perm, np.arange(dim)] = 1.0
    else:
        mat = arr.astype(complex)
    b = basis.matrix
    sh = b.conj().T @ mat @ b
    rounded = np.where(np.abs(sh) > ENTRY_ATOL, sh, 0.0)
    if np.max(np.abs(rounded.imag)) > ENTRY_ATOL:
        raise SymmetryError("reduced shift has complex entries")
    sh_real = rounded.real
    if np.max(np.abs(sh_real - np.round(sh_real))) > 1e-9:
        raise SymmetryError(
            "reduced shift entries are not 0/1; connected orbits differ in size"
        )
    sh01 = np.round(sh_real)
    if not (np.all(sh01.sum(axis=0) == 1) and np.all(sh01.sum(axis=1) == 1)):
        raise SymmetryError("reduced shift is not a permutation")

    idx = None
    if graph is not None:
        idx = BasisIndexing.from_graph(graph)

    def vertex_set(orb: tuple[int, ...]) -> frozenset:
        if idx is not None:
            return frozenset(idx.pair(i)[0] for i in orb)
        return frozenset(orb)  # fall back to index sets when no graph is given

    vsets = tuple(vertex_set(o) for o in basis.orbits)
    seen: dict[frozenset, int] = {}
    slots: list[list[int]] = []
    orbit_to_vertex = []
    for j, vs in enumerate(vsets):
        if vs not in seen:
            seen[vs] = len(slots)
            slots.append([])
        q = seen[vs]
        slots[q].append(j)
        orbit_to_vertex.append(q)
    connections = tuple(int(np.argmax(sh01[:, j])) for j in range(len(basis.orbits)))
    qg = QuotientGraph(
        num_vertices=len(slots),
        vertex_slots=tuple(tuple(s_) for s_ in slots),
        orbit_vertex_sets=vsets,
        orbit_to_vertex=tuple(orbit_to_vertex),
        connections=connections,
    )
    return sh01.astype(complex), qg


def quotient_coin(
    u_h: np.ndarray, s_h: np.ndarray, qgraph: QuotientGraph
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """C_H = S_H+ U_H with its per-vertex unitary blocks.

    The reduced shift is a permutation, so its adjoint is its inverse and
    each direction slot has a unique partner.  Off-block mass or a
    non-permutation shift raises.
    """
    s_h = np.asarray(s_h)
    perm_defect = np.max(np.abs(s_h @ s_h.conj().T - np.eye(s_h.shape[0])))
    if perm_defect > 1e-12 or np.max(np.abs(s_h - np.round(s_h.real))) > 1e-12:
        raise ValueError("reduced shift must be a 0/1 permutation matrix")
    c_h = s_h.conj().T @ np.asarray(u_h, dtype=complex)
    blocks = []
    mask = np.zeros_like(c_h, dtype=bool)
    for slots in qgraph.vertex_slots:
        rows = np.asarray(slots)
        block = c_h[np.ix_(rows, rows)]
        defect = float(np.max(np.abs(block.conj().T @ block - np.eye(rows.size))))
        if defect > UNITARITY_ATOL:
            raise ValueError(f"coin block not unitary (defect {defect:.3e})")
        blocks.append(block)
        mask[np.ix_(rows, rows)] = True
    stray = float(np.max(np.abs(np.where(mask, 0.0, c_h))))
    if stray > ENTRY_ATOL:
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
    if n < 1:
        raise ValueError("dimension must be >= 1")
    dim = 2 * n
    labels = []
    for x in range(n + 1):
        if x > 0:
            labels.append(f"L{x}")
        if x < n:
            labels.append(f"R{x}")
    index = {lab: i for i, lab in enumerate(labels)}

    shift = np.zeros((dim, dim), dtype=complex)
    for x in range(n):
        i, j = index[f"R{x}"], index[f"L{x + 1}"]
        shift[i, j] = 1.0
        shift[j, i] = 1.0

    coin = np.zeros((dim, dim), dtype=complex)
    for x in range(n + 1):
        c = 1.0 - 2.0 * x / n
        s = np.sqrt(max(0.0, 1.0 - c * c))
        has_l, has_r = x > 0, x < n
        if has_l and has_r:
            il, ir = index[f"L{x}"], index[f"R{x}"]
            coin[il, il] = -c
            coin[ir, il] = s
            coin[il, ir] = s
            coin[ir, ir] = c
        elif has_r:
            coin[index[f"R{x}"], index[f"R{x}"]] = c      # x = 0: c = 1
        else:
            coin[index[f"L{x}"], index[f"L{x}"]] = -c     # x = n: -c = 1
    return LineWalk(shift, coin, shift @ coin, tuple(labels))


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
    dim = cols[-1][-1] + 1
    b = np.zeros((dim, len(cols)))
    for j, members in enumerate(cols):
        b[list(members), j] = 1.0 / np.sqrt(len(members))
    return b


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


def _final_indices_invariant(final: np.ndarray, gens: tuple[Permutation, ...]) -> bool:
    fin = set(int(i) for i in final)
    for h in gens:
        if {h.image[i] for i in fin} != fin:
            return False
    return True


def quotient_infinite_hitting(
    u,
    basis: OrbitBasis,
    final_indices,
    *,
    angle_atol: float = 1e-8,
) -> QuotientHittingVerdict:
    """Decide infinite hitting on the quotient by two independent routes.

    Route 1 intersects the full-space trapped subspace with the symmetric
    subspace via principal angles; route 2 builds the trapped projector of
    the reduced walk directly.  The measurement must commute with the
    subgroup, otherwise the measured walk leaves the quotient.
    """
    m = np.asarray(getattr(u, "matrix", u), dtype=complex)
    final = np.asarray(sorted(int(i) for i in final_indices), dtype=int)
    if not _final_indices_invariant(final, basis.generators):
        raise SymmetryError(
            "final-vertex projector does not commute with the subgroup"
        )

    report_full = infinite_hitting_projector(m, final)
    b = basis.matrix
    if report_full.basis.shape[1] == 0:
        dim_full = 0
    else:
        cosines = np.linalg.svd(report_full.basis.conj().T @ b, compute_uv=False)
        dim_full = int(np.sum(cosines > 1.0 - angle_atol))

    u_h = quotient_walk(m, basis)
    p_fh = np.zeros((basis.num_orbits, basis.num_orbits), dtype=complex)
    fin_set = set(int(i) for i in final)
    for j, orb in enumerate(basis.orbits):
        inside = sum(1 for i in orb if i in fin_set)
        if inside == len(orb):
            p_fh[j, j] = 1.0
        elif inside:
            raise SymmetryError("an orbit straddles the final projector")
    if not np.any(np.diag(p_fh).real > 0.5):
        raise SymmetryError("final projector has no support on the quotient")
    report_q = infinite_hitting_projector(u_h, p_fh)
    dim_q = report_q.trace_int
    if abs(report_q.trace_p - dim_q) > 1e-6:
        raise OracleMismatchError(
            f"quotient trapped trace {report_q.trace_p} is not near an integer"
        )
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


def quotient_automorphism_check(
    p: Permutation, basis: OrbitBasis, s_h: np.ndarray
) -> bool:
    """True when an orbit-respecting automorphism preserves the reduced shift.

    Raises when p does not map orbits onto orbits (membership in the
    orbit-stabilizing subgroup fails).
    """
    orbit_of = {}
    for j, orb in enumerate(basis.orbits):
        for i in orb:
            orbit_of[i] = j
    induced = []
    for j, orb in enumerate(basis.orbits):
        images = {orbit_of[p(i)] for i in orb}
        if len(images) != 1:
            raise SymmetryError(f"permutation scatters orbit {j} across orbits")
        induced.append(images.pop())
    if sorted(induced) != list(range(len(basis.orbits))):
        raise SymmetryError("induced orbit map is not a permutation")
    s01 = np.round(np.asarray(s_h).real).astype(int)
    for j in range(len(induced)):
        k = int(np.argmax(s01[:, j]))
        if s01[induced[k], induced[j]] != 1:
            return False
    return True


def quotient_graph_to_dict(qg: QuotientGraph, s_h: np.ndarray) -> dict:
    """Quotient graph in the shared edge-list schema, with self-loop markers."""
    s01 = np.round(np.asarray(s_h).real).astype(int)
    edges = []
    done = set()
    for j in range(len(qg.orbit_to_vertex)):
        k = int(np.argmax(s01[:, j]))
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
