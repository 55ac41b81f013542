"""Permutations of the walk basis, graph automorphisms, and orbits.

A permutation is its image on the flat ``(vertex, color)`` basis, held as
a tuple and as a read-only index array that every numpy reader takes;
matrices are materialized on demand.  The automorphism criterion is exact
integer arithmetic: p is an automorphism iff conjugating the shift
permutation by p returns it unchanged.

A closed group is its generators and a Schreier-Sims stabilizer chain
(Sims 1970; Seress, *Permutation Group Algorithms*, 2003, ch. 4): the chain
gives the order and the degree without listing any element.  The
``order x degree`` integer table, one image per row, is listed from the
chain when first read, every element once as a product of coset
representatives, and its ``Permutation`` objects after it; orbits,
quotients and verdicts read only the generators.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
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
    """Bijection of ``[0, D)`` stored as its image tuple, and beside it as
    ``array``, the same image as a read-only index array that every numpy
    reader takes.

    A one-dimensional integer array is checked and copied by numpy once; any
    other image is read entry by entry.  Equality and hashing read the tuple.
    """

    image: tuple[int, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        image = self.image
        if isinstance(image, np.ndarray) and image.ndim == 1 and image.dtype.kind in "iu":
            array = image.astype(np.intp)  # a copy, which the caller cannot change
            if not np.array_equal(np.sort(array), np.arange(array.size)):
                raise ValueError("image is not a bijection")
            image = tuple(array.tolist())
        else:
            try:
                image = tuple(map(operator.index, image))
            except TypeError:
                raise ValueError("image entries are not integers") from None
            if sorted(image) != list(range(len(image))):
                raise ValueError("image is not a bijection")
            array = np.fromiter(image, np.intp, len(image))
        array.flags.writeable = False
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "array", array)

    @classmethod
    def identity(cls, dim: int) -> "Permutation":
        return cls(np.arange(dim))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.other)(x) = self(other(x))."""
        return Permutation(self.array[other.array])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.array)
        inv[self.array] = np.arange(self.degree)
        return Permutation(inv)

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.array, np.arange(self.degree)))

    def matrix(self, dtype=complex) -> np.ndarray:
        d = self.degree
        m = np.zeros((d, d), dtype=dtype)
        m[self.array, np.arange(d)] = 1
        return m


def _index_dtype(degree: int) -> type:
    return np.int16 if degree < 32768 else np.int32


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A closed set of permutations with a distinguished generator list.

    ``order`` and ``degree`` are read off the stabilizer chain.  ``table``,
    one element's image per row, rows in lexicographic order, is listed on
    first read, and ``elements``, the matching ``Permutation`` tuple, from
    it; membership looks the image up among the rows' bytes.
    """

    generators: tuple[Permutation, ...]
    chain: _StabilizerChain

    @property
    def order(self) -> int:
        return self.chain.order

    @property
    def degree(self) -> int:
        return self.chain.identity.size

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Each element is u_1 ... u_k for one coset representative u_i per
        level: one gather per level, bottom first, ``np.take(reps, table,
        axis=1)``, lists every element once; the rows are then sorted."""
        table = self.chain.identity[None, :]
        for reps in reversed(self.chain.reps):
            table = np.take(reps, table, axis=1).reshape(-1, self.degree)
        if self.degree:  # big-endian bytes of non-negative indices sort as the rows do
            keys = table.astype(table.dtype.newbyteorder(">"))
            table = table[np.argsort(keys.view(np.dtype((np.void, table[0].nbytes))).ravel())]
        table.flags.writeable = False
        return table

    @functools.cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(row) for row in self.table)

    @functools.cached_property
    def _row_keys(self) -> frozenset[bytes]:
        return frozenset(row.tobytes() for row in self.table)

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return p.array.astype(self.table.dtype).tobytes() in self._row_keys


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
    perm = dirperm.array

    # Down the breadth-first tree: a child's image is its parent's image's
    # neighbor along the permuted color.
    vmap = np.full(g.num_vertices, -1)
    root = cay.vertex_index[cay.identity]
    vmap[root] = root
    for child, parent, color in cay.breadth_first_tree:
        vmap[child] = nbr[vmap[parent], perm[color]]

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
    return Permutation((np.asarray(vmap)[:, None] * perm.size + perm).ravel())


def is_automorphism(g: ColoredGraph, p: Permutation) -> bool:
    """Exact check that conjugating the shift by p returns the shift."""
    shift = shift_permutation(g)
    if p.degree != shift.size:
        raise ValueError("permutation dimension does not match the walk basis")
    img = p.array
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
    base point, stacked as one array, and its transversal: the base point's
    orbit under those generators, each orbit point with the coset
    representative that takes the base point there (and its inverse).  Schreier generators of a level
    are sifted through the levels below it; one that does not sift to the
    identity joins the levels it fixes, and checking resumes at the deepest
    of them.  A level whose Schreier generators all sift to the identity is
    complete, and once every level is, the order is the product of the
    transversal sizes.  That product only grows as the chain does, and is a
    lower bound on the order throughout, so a group past
    ``DEFAULT_MAX_ORDER`` is refused as soon as the bound passes it.
    """

    def __init__(self, gens: np.ndarray, degree: int, dtype: type):
        self.identity = np.arange(degree, dtype=dtype)
        self.base: list[int] = []
        self.gens: list[np.ndarray] = []  # gens[i]: level i's generators, one per row
        self.orbits: list[np.ndarray] = []  # orbit points in discovery order
        self.reps: list[np.ndarray] = []  # reps[i][j] takes base[i] to orbits[i][j]
        self.inverses: list[np.ndarray] = []
        self.where: list[np.ndarray] = []  # where[i][x]: index of x in orbits[i], or -1
        gens = gens[np.any(gens != self.identity, axis=1)]
        for g in gens:
            if np.array_equal(g[self.base], self.base):  # fixes every base point so far
                self._add_level(g)
        for i in range(len(self.base)):
            self.gens[i] = gens[np.all(gens[:, self.base[:i]] == self.base[:i], axis=1)]
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
                self.gens[level] = np.vstack([self.gens[level], residue])
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
        self.gens.append(np.empty((0, self.identity.size), dtype=self.identity.dtype))
        self.orbits.append(np.array([point]))
        self.reps.append(None)
        self.inverses.append(None)
        self.where.append(None)

    def _transversal(self, i: int) -> None:
        """Orbit of base point i under its level's generators, breadth-first,
        refused as soon as it makes the order bound pass DEFAULT_MAX_ORDER;
        the representative of s(x) is s after the representative of x."""
        gens = self.gens[i]
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
        inverses[np.arange(len(orbit))[:, None], reps] = self.identity
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
        gens = self.gens[i]
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
    """The group the generators generate, held as its Schreier-Sims chain.

    The chain gives the order before any element is listed: a group past
    ``DEFAULT_MAX_ORDER`` raises :class:`GroupOrderError` (the limit is read
    at each call), and one whose table would pass the memory budget raises
    ValueError, both before this returns.  The table itself is listed only
    when :attr:`PermGroup.table` is first read.
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
    images = np.array([g.array for g in generators], dtype=dtype).reshape(len(generators), degree)
    chain = _StabilizerChain(images, degree, dtype)
    _check_memory(degree, 3 * chain.order * degree, dtype)  # the table, its sort keys, the sorted copy
    return PermGroup(generators, chain)


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
        images.append(p.array)
    label = np.arange(dim)
    while True:
        new = label
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new
