"""Permutations of the walk basis, graph automorphisms, and orbits.

A permutation is its image on the flat ``(vertex, color)`` basis;
matrices are materialized on demand.  The automorphism criterion is exact
integer arithmetic: p is an automorphism iff conjugating the shift
permutation by p returns it unchanged.

A closed group is an ``order x degree`` integer table, one image per row,
listed from a Schreier-Sims stabilizer chain (Sims 1970; Seress,
*Permutation Group Algorithms*, 2003, ch. 4): the chain gives the order
before any row exists, and every element once, as a product of coset
representatives.  The ``Permutation`` objects of its elements are built
only when first read; orbits, quotients and verdicts need only the
generators.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupOrderError, NotAnAutomorphismError
from .graphs import BasisIndexing, CayleyGraph, ColoredGraph, shift_permutation
from .walk import _check_memory

__all__ = [
    "Permutation",
    "PermGroup",
    "parse_cycles",
    "direction_perm_to_automorphism",
    "left_translation",
    "is_automorphism",
    "is_direction_preserving",
    "closure",
    "generators_of",
    "orbit_labels",
]

DEFAULT_MAX_ORDER = 10_080  # 2 * |S_7|; desk-scale graphs only
SIFT_ENTRIES = 2**20  # permutation entries a batch of Schreier generators holds


@dataclass(frozen=True)
class Permutation:
    """Bijection of ``[0, D)`` stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        try:
            image = tuple(map(operator.index, self.image))
        except TypeError:
            raise ValueError("image entries are not integers") from None
        object.__setattr__(self, "image", image)
        if sorted(image) != list(range(len(image))):
            raise ValueError("image is not a bijection")

    @classmethod
    def identity(cls, dim: int) -> "Permutation":
        return cls(tuple(range(dim)))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.other)(x) = self(other(x))."""
        return Permutation(tuple(self.image[x] for x in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, x in enumerate(self.image):
            inv[x] = i
        return Permutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.image))

    def matrix(self, dtype=complex) -> np.ndarray:
        d = len(self.image)
        m = np.zeros((d, d), dtype=dtype)
        m[np.asarray(self.image), np.arange(d)] = 1
        return m


def _index_dtype(degree: int) -> type:
    return np.int16 if degree < 32768 else np.int32


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A closed set of permutations with a distinguished generator list.

    ``table`` holds one element's image per row, rows in lexicographic
    order.  ``elements`` builds the matching ``Permutation`` tuple on first
    read; membership looks the image up among the rows' bytes.
    """

    table: np.ndarray
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        self.table.flags.writeable = False

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def degree(self) -> int:
        return self.table.shape[1]

    @functools.cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(row)) for row in self.table.tolist())

    @functools.cached_property
    def _row_keys(self) -> frozenset[bytes]:
        return frozenset(row.tobytes() for row in self.table)

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return np.asarray(p.image, dtype=self.table.dtype).tobytes() in self._row_keys


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint cycles over ``1..degree`` into a 0-based permutation.

    ``"(1,2)"`` swaps the first two symbols, ``"(1,2,3)"`` maps 1->2->3->1,
    and the empty string is the identity.  Whitespace is ignored.
    """
    stripped = re.sub(r"\s+", "", text)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    image = list(range(degree))
    if stripped:
        body = _CYCLE_RE.sub("", stripped)
        if body:
            raise ValueError(f"malformed cycle notation: {text!r}")
        seen: set[int] = set()
        for group in _CYCLE_RE.findall(stripped):
            if not group:
                continue
            try:
                symbols = [int(tok) for tok in group.split(",")]
            except ValueError:
                raise ValueError(f"malformed cycle notation: {text!r}") from None
            for s in symbols:
                if not 1 <= s <= degree:
                    raise ValueError(f"symbol {s} out of range 1..{degree}")
                if s in seen:
                    raise ValueError(f"symbol {s} repeated across cycles")
                seen.add(s)
            for a, b in zip(symbols, symbols[1:] + symbols[:1]):
                image[a - 1] = b - 1
    return Permutation(tuple(image))


def direction_perm_to_automorphism(cay: CayleyGraph, dirperm: Permutation) -> Permutation:
    """Lift a permutation of generator directions to a basis automorphism.

    The induced vertex map sends the word t_{i1}..t_{ik} to
    t_{pi(i1)}..t_{pi(ik)}; it is only well defined when any two words for
    the same vertex agree after relabeling, which is checked exhaustively
    over all edges.  The basis permutation acts as |v, c> -> |phi(v), pi(c)>.
    """
    g = cay.graph
    d = cay.degree
    if dirperm.degree != d:
        raise ValueError("direction permutation degree does not match generators")
    if not g.is_consistently_colored:
        raise ValueError("graph is not consistently colored")

    nbr = g.neighbor_table[0].reshape(g.num_vertices, d)  # nbr[v, c - 1]
    perm = np.asarray(dirperm.image)

    # Level by level: each new vertex takes the image given by its first
    # (frontier vertex, color) in queue order.
    vmap = np.full(g.num_vertices, -1)
    frontier = np.array([cay.vertex_index[cay.identity]])
    vmap[frontier] = frontier
    while frontier.size:
        far = nbr[frontier].ravel()
        target = nbr[vmap[frontier]][:, perm].ravel()
        fresh = np.flatnonzero(vmap[far] == -1)
        _, first = np.unique(far[fresh], return_index=True)
        first = fresh[np.sort(first)]
        frontier = far[first]
        vmap[frontier] = target[first]

    bad = np.argwhere(vmap[nbr] != nbr[vmap][:, perm])
    if bad.size:
        v, c = bad[0]
        raise NotAnAutomorphismError(
            f"direction permutation is not an automorphism: vertex {v}, "
            f"color {c + 1} maps inconsistently"
        )
    return _basis_image(vmap, perm)


def left_translation(cay: CayleyGraph, element) -> Permutation:
    """Direction-preserving automorphism g -> a*g: the vertex map of the
    left product with ``element``, and the identity on colors."""
    vmap = [cay.vertex_index[cay.mul(element, g)] for g in cay.elements]
    return _basis_image(vmap, range(cay.degree))


def _basis_image(vmap: Sequence[int], perm: Sequence[int]) -> Permutation:
    """The basis map |v, c> -> |vmap[v], perm[c]> of a Cayley graph, c the
    0-based color: the graph is regular and consistently colored, so
    (v, c) sits at v * d + c."""
    perm = np.asarray(perm)
    return Permutation(tuple((np.asarray(vmap)[:, None] * perm.size + perm).ravel().tolist()))


def is_automorphism(g: ColoredGraph, p: Permutation) -> bool:
    """Exact check that conjugating the shift by p returns the shift."""
    shift = shift_permutation(g)
    if p.degree != shift.size:
        raise ValueError("permutation dimension does not match the walk basis")
    img = np.asarray(p.image)
    return bool(np.array_equal(shift[img], img[shift]))


def is_direction_preserving(g: ColoredGraph, p: Permutation) -> bool:
    """True when p acts as (vertex permutation) x (identity on colors)."""
    idx = BasisIndexing.from_graph(g)
    for v in range(g.num_vertices):
        targets = set()
        for c in g.colors(v):
            w, cw = idx.pair(p(idx.index(v, c)))
            if cw != c:
                return False
            targets.add(w)
        if len(targets) != 1:
            return False
    return True


def _through(perms: np.ndarray, which: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``perms[which[r], points[r, x]]`` for every r and x: each row of
    ``points`` sent through the permutation row of ``perms`` that ``which``
    names, as one flat gather."""
    return np.take(perms, points + which[..., None] * perms.shape[1])


class _StabilizerChain:
    """Schreier-Sims stabilizer chain of the group generated by ``gens``.

    Level i holds a base point, the strong generators fixing every earlier
    base point, and its transversal: the base point's orbit under those
    generators, each orbit point with the coset representative that takes
    the base point there (and its inverse).  Schreier generators of a level
    are sifted through the levels below it; one that does not sift to the
    identity joins the levels it fixes, and checking resumes at the deepest
    of them.  A level whose Schreier generators all sift to the identity is
    complete, and once every level is, the order is the product of the
    transversal sizes.  That product only grows as the chain does, and is a
    lower bound on the order throughout, so a group past
    ``DEFAULT_MAX_ORDER`` is refused as soon as the bound passes it.
    """

    def __init__(self, gens: Sequence[np.ndarray], degree: int, dtype: type):
        self.identity = np.arange(degree, dtype=dtype)
        self.base: list[int] = []
        self.gens: list[list[np.ndarray]] = []
        self.orbits: list[np.ndarray] = []  # orbit points in discovery order
        self.reps: list[np.ndarray] = []  # reps[i][j] takes base[i] to orbits[i][j]
        self.inverses: list[np.ndarray] = []
        self.where: list[np.ndarray] = []  # where[i][x]: index of x in orbits[i], or -1
        gens = [g for g in gens if not np.array_equal(g, self.identity)]
        for g in gens:
            if np.array_equal(g[self.base], self.base):  # fixes every base point so far
                self._add_level(g)
        for i in range(len(self.base)):
            self.gens[i] = [g for g in gens if np.array_equal(g[self.base[:i]], self.base[:i])]
            self._transversal(i)
        i = len(self.base) - 1
        while i >= 0:
            residue, j = self._sifted_schreier(i)
            if residue is None:
                i -= 1
                continue
            if j == len(self.base):
                self._add_level(residue)
            for level in range(i + 1, j + 1):
                self.gens[level].append(residue)
                self._transversal(level)
            i = j

    @property
    def order(self) -> int:
        return math.prod(o.size for o in self.orbits)

    def _add_level(self, g: np.ndarray) -> None:
        """A new last level, based at the first point g moves; its
        transversal is built once its generators are in place."""
        point = int(np.argmax(g != self.identity))
        self.base.append(point)
        self.gens.append([])
        self.orbits.append(np.array([point]))
        self.reps.append(None)
        self.inverses.append(None)
        self.where.append(None)

    def _transversal(self, i: int) -> None:
        """Orbit of base point i under its level's generators, breadth-first,
        refused as soon as it makes the order bound pass DEFAULT_MAX_ORDER;
        the representative of s(x) is s after the representative of x."""
        gens = np.stack(self.gens[i])
        others = self.order // self.orbits[i].size
        orbit, parent, gen = [self.base[i]], [0], [0]
        index = {self.base[i]: 0}
        for j, x in enumerate(orbit):  # the orbit grows as it is read
            for k, y in enumerate(gens[:, x].tolist()):
                if y not in index:
                    index[y] = len(orbit)
                    orbit.append(y)
                    parent.append(j)
                    gen.append(k)
            if len(orbit) * others > DEFAULT_MAX_ORDER:
                raise GroupOrderError(f"group order exceeds max_order={DEFAULT_MAX_ORDER}")
        reps = np.empty((len(orbit), self.identity.size), dtype=self.identity.dtype)
        reps[0] = self.identity
        for j in range(1, len(orbit)):
            reps[j] = gens[gen[j]][reps[parent[j]]]
        inverses = np.empty_like(reps)
        np.put_along_axis(inverses, reps, self.identity, axis=1)
        where = np.full(self.identity.size, -1)
        where[orbit] = np.arange(len(orbit))
        self.orbits[i] = np.array(orbit)
        self.reps[i] = reps
        self.inverses[i] = inverses
        self.where[i] = where

    def _sifted_schreier(self, i: int) -> tuple[np.ndarray | None, int]:
        """The first Schreier generator u_{s(x)}^-1 s u_x of level i, for
        orbit points x and generators s, that does not sift to the identity
        through the levels below, with the level where its sift stopped;
        (None, -1) when every one does.  They sift in batches of whole
        generators, of at most SIFT_ENTRIES entries or one generator's."""
        gens = np.stack(self.gens[i])
        orbit, degree = self.orbits[i], self.identity.size
        step = max(1, SIFT_ENTRIES // (orbit.size * degree))
        for lo in range(0, len(gens), step):
            s = gens[lo:lo + step]
            h = _through(self.inverses[i], self.where[i][s[:, orbit]], s[:, self.reps[i]])
            h = h.reshape(-1, degree)
            for level in range(i + 1, len(self.base)):
                at = self.where[level][h[:, self.base[level]]]
                out = np.flatnonzero(at < 0)
                if out.size:
                    return h[out[0]], level
                h = _through(self.inverses[level], at, h)
            left = np.flatnonzero(np.any(h != self.identity, axis=1))
            if left.size:
                return h[left[0]], len(self.base)
        return None, -1


def closure(generators: Sequence[Permutation], *, dim: int | None = None) -> PermGroup:
    """Full element set, listed from a Schreier-Sims stabilizer chain.

    The chain gives the order before any element is listed: a group past
    ``DEFAULT_MAX_ORDER`` raises :class:`GroupOrderError` (the limit is read
    at each call), and a table past the memory budget raises ValueError.
    Every element is then u_1 u_2 ... u_k for one coset representative u_i
    per level, so the table is built once, bottom level first, with one
    gather per level, ``np.take(reps, table, axis=1)``, whose rows are
    ``u.compose(t)`` for every representative u and every row t.  No
    element is found twice.  Rows are sorted lexicographically.
    """
    generators = tuple(generators)
    if not generators and dim is None:
        raise ValueError("dim required for an empty generator list")
    if dim is not None and any(g.degree != dim for g in generators):
        raise ValueError("generator degree does not match dim")
    degree = generators[0].degree if generators else dim
    if any(g.degree != degree for g in generators):
        raise ValueError("generators have different degrees")

    dtype = _index_dtype(degree)
    chain = _StabilizerChain([np.asarray(g.image, dtype=dtype) for g in generators], degree, dtype)
    _check_memory(degree, 3 * chain.order * degree, dtype)  # the table, its sort keys, the sorted copy
    table = chain.identity[None, :]
    for reps in reversed(chain.reps):
        table = np.take(reps, table, axis=1).reshape(-1, degree)
    if degree:  # big-endian bytes of non-negative indices sort as the rows do
        keys = table.astype(table.dtype.newbyteorder(">"))
        table = table[np.argsort(keys.view(np.dtype((np.void, table[0].nbytes))).ravel())]
    return PermGroup(table, generators)


def generators_of(grp: PermGroup | Iterable[Permutation]) -> tuple[Permutation, ...]:
    """Generators of a subgroup given as a ``PermGroup`` or as the generators."""
    return grp.generators if isinstance(grp, PermGroup) else tuple(grp)


def orbit_labels(grp: PermGroup | Iterable[Permutation], dim: int) -> np.ndarray:
    """Orbit index of each point of ``[0, dim)``, orbits numbered by smallest member.

    Every point starts with its own index as label; each round lowers the
    label of i to that of p(i) where smaller, for every generator p, and
    then jumps each label to its label's label, until nothing changes.
    Labels only fall and stay within an orbit.  At the fixed point they do
    not rise along any cycle of any generator, so they are constant on each
    orbit: its smallest member.  The labels rank those members.
    """
    images = []
    for p in generators_of(grp):
        if p.degree != dim:
            raise ValueError("permutation degree does not match dim")
        images.append(np.asarray(p.image))
    label = np.arange(dim)
    while True:
        new = label
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new
