"""Permutations of the walk basis, graph automorphisms, and orbits.

A permutation is its image on the flat ``(vertex, color)`` basis;
matrices are materialized on demand.  The automorphism criterion is exact
integer arithmetic: p is an automorphism iff conjugating the shift
permutation by p returns it unchanged.

A closed group is an ``order x degree`` integer table, one image per row,
built by breadth-first products of whole frontiers of rows.  The
``Permutation`` objects of its elements are built only when first read;
orbits, quotients and verdicts need only the generators.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupOrderError, NotAnAutomorphismError
from .graphs import BasisIndexing, CayleyGraph, ColoredGraph, shift_permutation

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
    "group_to_dict",
    "group_from_dict",
]

DEFAULT_MAX_ORDER = 10_080  # 2 * |S_7|; desk-scale graphs only


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


def closure(generators: Sequence[Permutation], *, dim: int | None = None) -> PermGroup:
    """Full element set generated by breadth-first products.

    Each level multiplies the whole frontier by each generator with one
    gather, ``s[frontier]``, whose rows are the products ``s.compose(p)``.
    Finite closure under generator products contains inverses and the
    identity automatically.  Raises :class:`GroupOrderError` as soon as
    more than ``DEFAULT_MAX_ORDER`` elements are found, to guard against
    combinatorial blowup; the limit is read at each call.
    """
    generators = tuple(generators)
    if not generators:
        if dim is None:
            raise ValueError("dim required for an empty generator list")
        return PermGroup(np.arange(dim, dtype=_index_dtype(dim))[None, :], ())
    if dim is not None and any(g.degree != dim for g in generators):
        raise ValueError("generator degree does not match dim")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators have different degrees")

    dtype = _index_dtype(degree)
    gens = [np.asarray(g.image, dtype=dtype) for g in generators]
    frontier = np.arange(degree, dtype=dtype)[None, :]
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
                    if len(seen) >= DEFAULT_MAX_ORDER:
                        raise GroupOrderError(
                            f"group order exceeds max_order={DEFAULT_MAX_ORDER}"
                        )
                    seen.add(key)
                    new_rows.append(i)
            fresh.append(products[new_rows])
        frontier = np.concatenate(fresh)
        levels.append(frontier)
    table = np.concatenate(levels)
    if degree:  # big-endian bytes of non-negative indices sort as the rows do
        keys = table.astype(table.dtype.newbyteorder(">"))
        table = table[np.argsort(keys.view(np.dtype((np.void, width))).ravel())]
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


def group_to_dict(grp: PermGroup) -> dict:
    return {
        "degree": grp.degree,
        "generators": [list(p.image) for p in grp.generators],
        "elements": grp.table.tolist(),
    }


def group_from_dict(d: dict) -> PermGroup:
    try:
        gens = tuple(Permutation(tuple(img)) for img in d["generators"])
        elems = tuple(Permutation(tuple(img)) for img in d["elements"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed group document: {exc}") from None
    if not elems or any(p.degree != elems[0].degree for p in elems):
        raise ValueError("malformed group document: elements must share one degree")
    degree = elems[0].degree
    table = np.array([p.image for p in elems], dtype=_index_dtype(degree))
    return PermGroup(table.reshape(len(elems), degree), gens)


def group_to_json(grp: PermGroup) -> str:
    return json.dumps(group_to_dict(grp), sort_keys=True)


def group_from_json(text: str) -> PermGroup:
    return group_from_dict(json.loads(text))
