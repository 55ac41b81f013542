"""Eigenstructure of walk operators and the never-arriving subspace.

The projector P built here spans every eigenvector of U with no amplitude
on the final-vertex subspace.  A walk started inside ran(P) is never
detected, so trace(P) > 0 is exactly the infinite-hitting-time condition;
the per-vertex coin-overlap blocks of P identify which local coin states
avoid (or cannot avoid) being trapped.

A unitary is normal, so its spectrum comes from Hermitian eigensolves: one
of the Hermitian part (U + U+)/2, real for a real U, then small ones
inside each chain of nearby cosines (``eigenspace_clusters``); no general
eigensolver or QR is used, and non-normal input is rejected.  The small
work is batched: the blocks of all chains of one length are split by one
stacked eigh, and the final-vertex overlaps of all clusters of one
multiplicity by one stacked SVD, so a small walk costs a few numpy calls
rather than a Python pass per chain and per cluster.  What a report keeps
of each cluster is the part that sees the finals: an orthonormal basis W of
ran(I - P) made of eigenvectors of U, whose coefficients Z_c in a cluster
are the right singular vectors of its final overlap.  trace(P) is the
trapped dimension, the count sum_c (m_c - rank_c) of the rank decisions;
the escape (a start's mass outside W), the coin-overlap blocks I - W_v W_v+
and the hitting time are read from W, and no D x D projector is formed.
The trapped subspace's orthonormal basis B is built only when read.  Every
entry point takes the walk as a WalkOperator, and wraps an array as one
block, uncopied.  An eigensolve whose estimated working set exceeds the
memory budget (physical memory, or the cgroup limit where lower) raises
ValueError before U is built or read.

Both routes split through one stacked core, ``_split_stack``: the dense
route hands it U as a stack of one, and the walk on the n-cube, as
``build_hypercube`` colors it, takes the Fourier route of
:mod:`qwlab.fourier`, which hands it the walk's 2^n coin-sized blocks, in
O(2^n n^3) time and O(D (n + |finals|)) memory.  ``_cube_coin`` recognises
that walk factored, by its shift image, or as one dense block, by exact
checks of its entries; the same walk with its colors relabelled at every
vertex takes the dense route.

A walk on a bipartite graph anticommutes with the sign P = +-1 by side,
PUP = -U, so (U + U+)/2 is off-diagonal.  When a dense U's exact nonzero
pattern 2-colours into two equal halves, an O(D^2) check that reads no
graph, and D is at least PARITY_MIN_DIM, the core takes its cosines and
eigenvectors from one SVD of a D/2 x D/2 block instead of the D x D eigh
(``_parity_split``); below that size the check costs more than it saves,
and the Fourier blocks and non-bipartite walks keep the eigh.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import BasisIndexing, ColoredGraph
from .walk import WalkOperator, _as_walk, _check_memory

__all__ = [
    "EigenCluster",
    "SpectralReport",
    "CoinOverlapMatrix",
    "eigenspace_clusters",
    "infinite_hitting_projector",
    "escape_probability",
    "coin_overlap_matrices",
    "coin_overlap_matrix",
    "degeneracy_condition",
    "SUFFICIENT_FOR_INFINITE",
    "INCONCLUSIVE",
    "report_to_dict",
]

CLUSTER_TOL = 1e-8
NULLSPACE_RTOL = 1e-9
# complex D x D arrays held at once: the eigensolve's (3.0-3.5 measured)
# beside U and a caller's rho_0
EIGENSOLVE_WORK_ARRAYS = 6
# complex D x D arrays a dense report's hitting time holds besides its
# r x r solve: U, a mixed start, the report's bases and U W
DENSE_HELD_ARRAYS = 4
# complex D x D arrays held while a dense report builds its trapped basis:
# U, V, and W with B
DENSE_BASIS_ARRAYS = 3
# D from which a dense U whose nonzeros 2-colour into equal halves is split
# through the SVD of its off-diagonal half: measured faster from D = 128 on
# every bipartite walk tried; below, the check costs more than it saves
PARITY_MIN_DIM = 128

SUFFICIENT_FOR_INFINITE = "sufficient_for_infinite"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """One (numerically) degenerate eigenvalue of a unitary with its eigenbasis."""

    eigenvalue: complex
    multiplicity: int
    basis: np.ndarray  # D x multiplicity, orthonormal columns


class _BuiltOnRead:
    """A report field given at construction, or left out and built by the
    report's ``_build_<name>()`` the first time it is read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return None  # the field's default: build on read
        value = report.__dict__[self.name]
        if value is None:
            value = report.__dict__[self.name] = getattr(report, f"_build_{self.name}")()
        return value

    def __set__(self, report, value):
        report.__dict__[self.name] = value


class _UntrappedGroup(NamedTuple):
    """The clusters of one multiplicity m, at positions ``clusters``.

    ``rows[g]`` lists cluster g's columns of the frame its report is held in
    (V on the dense route, the Fourier members on the n-cube's), and
    ``z[g]`` holds their coefficients of its untrapped eigenvectors, the
    right singular vectors of its final overlap (width x m, zero past its
    rank); the dense route takes a cluster of full rank into W as it stands.
    ``slots[g]`` gives those eigenvectors' columns of W; past the rank it
    points at one spare column past the last, which is dropped.
    ``overlap[g]`` is the cluster's final overlap, the rows of its columns on
    the finals, and ``fin[g]`` the rows of its untrapped eigenvectors there,
    u s from the same SVD.
    """

    clusters: np.ndarray
    rows: np.ndarray
    z: np.ndarray
    slots: np.ndarray
    overlap: np.ndarray
    fin: np.ndarray


def _untrapped_groups(ranked, starts, rank, position, members=None) -> tuple[_UntrappedGroup, ...]:
    """The :class:`_UntrappedGroup` of each multiplicity of the thin SVDs
    ``ranked`` of :func:`_rank_clusters`: cluster i holds the frame columns
    ``members`` (default: all, in order) from starts[i] on, has rank[i], and
    sits at position[i] of the cluster order, which is also W's order."""
    by_position = np.empty_like(rank)
    by_position[position] = rank
    offset = (np.cumsum(by_position) - by_position)[position]
    groups = []
    for group, gathered, (u, sv, vh) in ranked:
        past = np.arange(vh.shape[1]) >= rank[group, None]
        cols = starts[group, None] + np.arange(vh.shape[2])
        groups.append(_UntrappedGroup(
            clusters=position[group],
            rows=cols if members is None else members[cols],
            z=np.where(past[:, :, None], 0.0, vh),
            slots=np.where(past, rank.sum(), offset[group, None] + np.arange(vh.shape[1])),
            overlap=gathered,
            fin=np.where(past[:, None, :], 0.0, u * sv[:, None, :]),
        ))
    return tuple(groups)


def _column_runs(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[p], first[p] + 1, ..., counts[p] of them, for each p in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(first + counts - ends, counts)


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Spectral decomposition of U together with the trapped subspace.

    ``untrapped`` spans the orthogonal complement of the trapped subspace,
    which holds the finals, with orthonormal eigenvectors W of U, built when
    the report is.  ``basis`` spans the trapped subspace with orthonormal
    columns and is built when first read, on both routes.  ``rank`` holds
    each cluster's rank, and ``groups`` its coefficients of W, by
    multiplicity; the dense route builds them when ``basis`` is first read,
    from the arguments ``ranking`` of :func:`_untrapped_groups`.
    ``contributions`` counts the trapped dimensions contributed by each
    cluster, in cluster order, and trace(P) is their sum.
    Warnings, in cluster order, record nullspace rank decisions that fell
    within 10x of the singular value cutoff, and neighbouring clusters whose
    eigenvalues lie within 10x of the cluster tolerance.  ``walk`` and
    ``finals`` are the walk and the final indices the report was made for, and
    ``vectors`` the dense route's eigenvectors V, whose columns the clusters'
    bases are.  ``split_start`` and ``reduced_step`` answer what the unitary
    closed form asks: the escape with the start in W's coordinates, and
    A_r = W+ (Q_f U) W; ``vertex_blocks`` gives the coin-overlap blocks; both
    read W alone.
    """

    contributions: tuple[int, ...]
    warnings: tuple[str, ...] = ()
    clusters: tuple[EigenCluster, ...] = _BuiltOnRead()
    basis: np.ndarray = _BuiltOnRead()
    untrapped: np.ndarray = _BuiltOnRead()
    walk: WalkOperator | None = None
    finals: np.ndarray | None = None
    rank: np.ndarray | None = None
    groups: tuple[_UntrappedGroup, ...] = _BuiltOnRead()
    vectors: np.ndarray | None = None
    ranking: tuple = ()

    @property
    def trace_p(self) -> float:
        """trace(P), the trapped dimension: B's columns are orthonormal."""
        return float(self.trapped_dim)

    @property
    def trace_int(self) -> int:
        return self.trapped_dim

    @property
    def dim(self) -> int:
        return self.untrapped.shape[0]

    @functools.cached_property
    def trapped_dim(self) -> int:
        return sum(self.contributions)

    @functools.cached_property
    def untrapped_dim(self) -> int:
        return self.dim - self.trapped_dim

    @property
    def held_entries(self) -> int:
        """Complex entries a hitting time on this report holds beside its solve."""
        return DENSE_HELD_ARRAYS * self.dim**2

    def split_start(self, state: np.ndarray) -> tuple[float, np.ndarray]:
        """(escape, W+ psi_0 or W+ rho_0 W) for the closed form, the escape as
        ||psi||^2 - ||W+ psi||^2 or Tr(rho) - Tr(W+ rho W), clipped at 0."""
        start = self.untrapped_start(state)
        if state.ndim == 1:
            mass = np.vdot(state, state) - np.vdot(start, start)
        else:
            mass = np.trace(state) - np.trace(start)
        return max(float(np.real(mass)), 0.0), start

    def escape(self, state: np.ndarray) -> float:
        """Mass of a state (vector or density matrix) inside the trapped subspace."""
        return self.split_start(state)[0]

    def vertex_blocks(self, rows: np.ndarray) -> np.ndarray:
        """I - W_v W_v+ for each row set v of the V x d ``rows``: the diagonal
        blocks of the trapped projector I - W W+."""
        return np.eye(rows.shape[1]) - _row_grams(self.untrapped, rows)

    def untrapped_start(self, state: np.ndarray) -> np.ndarray:
        """W+ psi_0 for a start vector, W+ rho_0 W for a density matrix."""
        start = self.untrapped.conj().T @ state
        return start @ self.untrapped if state.ndim == 2 else start

    def reduced_step(self) -> np.ndarray:
        """A_r = W+ (Q_f U) W, from U W."""
        w = self.untrapped
        aw = self.walk.apply(w)
        aw[self.finals] = 0.0
        return w.conj().T @ aw

    def _build_groups(self) -> tuple[_UntrappedGroup, ...]:
        return _untrapped_groups(*self.ranking)

    def _build_basis(self) -> np.ndarray:
        """The trapped directions of each cluster, in cluster order: all of a
        cluster that sees no final, by one np.take, and V_c N_c+ for a partly
        trapped one, N_c the right singular vectors past its rank from one
        full stacked SVD per multiplicity.  Refused first if B, beside U, V
        and W, would not fit."""
        v, dim = self.vectors, self.dim
        _check_memory(dim, DENSE_BASIS_ARRAYS * dim * dim)
        first = np.empty_like(self.rank)
        for g in self.groups:
            first[g.clusters] = g.rows[:, 0]
        size = np.array(self.contributions)
        b = np.take(v, _column_runs(first, size), axis=1)
        offset = np.cumsum(size) - size
        for g in self.groups:
            rank = self.rank[g.clusters]
            part = np.flatnonzero((rank > 0) & (rank < g.rows.shape[1]))
            if part.size:
                _, _, vh = np.linalg.svd(g.overlap[part])
                for j, vhj in zip(part.tolist(), vh):
                    k, lo, rows = rank[j], offset[g.clusters[j]], g.rows[j]
                    b[:, lo:lo + len(rows) - k] = v[:, rows[0]:rows[-1] + 1] @ vhj[k:].conj().T
        return b


def _row_grams(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a_v a_v+ for each row set v of the V x d ``rows``: one gather to
    V x d x k (a view when the rows are all of a's, in order) and one
    stacked product."""
    if np.array_equal(rows.ravel(), np.arange(len(a))):
        b = a.reshape(rows.shape + a.shape[1:])
    else:
        b = a[rows]
    return b @ b.conj().transpose(0, 2, 1)


def _as_matrix(op: WalkOperator) -> np.ndarray:
    """U as a dense matrix, refused before it is read or built if the
    eigensolve on it would not fit in the memory budget."""
    _check_memory(op.dim, EIGENSOLVE_WORK_ARRAYS * op.dim**2)
    return op.matrix


def _final_array(p_f, dim: int) -> np.ndarray:
    """``p_f`` as an index array, checked to lie in [0, dim): a negative
    index would otherwise wrap around to the last rows."""
    p_f = np.asarray(p_f, dtype=int)
    if p_f.size and (p_f.min() < 0 or p_f.max() >= dim):
        raise ValueError(f"final index out of range [0, {dim})")
    return p_f


def _runs(values: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the entries that start a run along the last axis of ascending
    ``values``: the first, and each more than tol above the one before it."""
    new_run = np.ones(values.shape, dtype=bool)
    new_run[..., 1:] = values[..., 1:] - values[..., :-1] > tol
    return new_run


def _eigen_runs(a: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(whole, eigenvectors, run starts) of a stack of Hermitian k x k blocks.

    A block within tol/2 of a multiple of the identity in Frobenius norm has
    all its eigenvalues within tol of each other: ``whole`` marks it as one
    run, and it takes no eigh.  The other blocks, a[~whole], are split by one
    stacked eigh: their eigenvectors in ascending order of eigenvalue, and
    the ``_runs`` mask of those eigenvalues.
    """
    k = a.shape[-1]
    dev = a - (np.trace(a, axis1=-2, axis2=-1).real / k)[..., None, None] * np.eye(k)
    whole = (k == 1) | (2 * np.linalg.norm(dev, axis=(-2, -1)) <= tol)
    if whole.all():
        return whole, np.empty((0, k, k)), np.empty((0, k), dtype=bool)
    vals, y = np.linalg.eigh(a[~whole])
    return whole, y, _runs(vals, tol)


def _joint_blocks(c: np.ndarray, s: np.ndarray, tol: float) -> list[np.ndarray]:
    """Orthonormal column blocks on which diag(c), for c spanning more than
    tol, and the commuting Hermitian s each have one run of eigenvalues.

    The space is split into the runs of one matrix restricted to it, each
    part into those of the other, and so on in turn; a part is final once
    neither splits it.
    """
    blocks = []
    stack = [(np.eye(len(c)), np.diag(c), s, False)]  # (columns, split by, other, whole under other)
    while stack:
        x, a, b, settled = stack.pop()
        _, y, new_run = _eigen_runs((x.conj().T @ a @ x)[None], tol)
        cuts = np.flatnonzero(new_run)[1:]  # none when the block is whole or one run
        if cuts.size:
            stack.extend((x @ part, b, a, True) for part in np.split(y[0], cuts, axis=1))
        elif settled:
            blocks.append(x)
        else:
            stack.append((x, b, a, True))
    return blocks


def _split_chains(starts: np.ndarray, c: np.ndarray, t: np.ndarray, tol: float):
    """(first columns, Rayleigh sums, turns) of the clusters in a stack of
    chains of one length L, cut from the blocks of :func:`_split_stack`.

    Chain g starts at column starts[g]; c[g] holds its ascending cosines and
    t[g] = W_g+ (iK) W_g its L x L block, so that diag(c[g]) + t[g] is the
    normal matrix W_g+ U W_g.  Each cluster is listed by its first column
    and the sum of its Rayleigh quotients.  A turn (chain starts, rotations)
    says that the columns of chain starts[i] are to be rotated by
    rotations[i] to become the clusters' bases; chains that are one cluster
    as they stand take none.  A chain whose cosines spread wider than tol
    takes the alternating split on its own; the others are split together
    by one stacked eigh of their blocks -i t, skipped for blocks within tol
    of a multiple of the identity.
    """
    size = c.shape[1]
    if size == 1:  # each chain is one cluster
        return [starts], [c[:, 0] + t[:, 0, 0]], []
    firsts, lams, turns = [], [], []
    wide = c[:, -1] - c[:, 0] > tol
    for i in np.flatnonzero(wide).tolist():
        parts = _joint_blocks(c[i], -1j * t[i], tol)
        at = np.cumsum([0] + [p.shape[1] for p in parts[:-1]])
        x = np.hstack(parts)
        rayleigh = np.sum(x.conj() * ((np.diag(c[i]) + t[i]) @ x), axis=0)
        firsts.append(starts[i] + at)
        lams.append(np.add.reduceat(rayleigh, at))
        turns.append((starts[i:i + 1], x[None]))
    if wide.all():
        return firsts, lams, turns
    starts, c, t = starts[~wide], c[~wide], t[~wide]
    mc = t + c[:, :, None] * np.eye(size)  # W_c+ U W_c
    whole, y, new_run = _eigen_runs(-1j * t, tol)
    firsts.append(starts[whole])
    lams.append(np.trace(mc[whole], axis1=1, axis2=2))
    if not whole.all():
        split = starts[~whole]
        rayleigh = np.sum(y.conj() * (mc[~whole] @ y), axis=1)  # per eigenvector
        at = np.flatnonzero(new_run)  # flat index of each run's first eigenvector
        firsts.append(split[at // size] + at % size)
        lams.append(np.add.reduceat(rayleigh.ravel(), at))
        turns.append((split, y))
    return firsts, lams, turns


def _parity_sides(u: np.ndarray) -> np.ndarray | None:
    """The mask of one side of a 2-colouring of U's exact nonzero pattern,
    every nonzero entry joining the two sides, when the two sides are equal
    halves; else None.  Breadth-first from each uncoloured index over the
    pattern and its transpose, then a check of every entry: O(D^2)."""
    linked = u != 0
    linked |= linked.T
    side = np.zeros(len(u), dtype=np.int8)  # 0: not reached yet
    for root in range(len(u)):
        if side[root]:
            continue
        side[root], frontier = 1, [root]
        while len(frontier):
            reached = linked[frontier].any(axis=0) & (side == 0)
            side[reached] = -side[frontier[0]]
            frontier = np.flatnonzero(reached)
    ones = side > 0
    if 2 * np.count_nonzero(ones) != len(u) or np.any(linked & (ones[:, None] == ones)):
        return None
    return ones


def _parity_split(u: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cosines, W, T) of :func:`_split_stack` for a U each of whose
    nonzeros joins the mask ``side`` to the rest, from one SVD at D/2.

    In that order U = [[0, A], [B, 0]], so (U + U+)/2 = [[0, M], [M+, 0]]
    and iK = (U - U+)/2 = [[0, N], [-N+, 0]] with M = (A + B+)/2 and
    N = (A - B+)/2.  M = X S Z+ gives the eigenpairs (-s, [x; -z]/sqrt(2))
    and (s, [x; z]/sqrt(2)), listed with ascending cosines (the
    Jordan-Wielandt form; Golub and Van Loan, Matrix Computations, 8.6),
    and T = W+ (iK) W has the blocks +-(Y +- Y+)/2 of Y = X+ N Z, the rows
    and columns of +s in reverse order.  The half blocks are freed as they
    are used and T is filled in place, so the peak stays under eigh's.
    """
    ones, others = np.flatnonzero(side), np.flatnonzero(~side)
    h = len(ones)
    a = u[np.ix_(ones, others)]
    b = np.conjugate(u[np.ix_(others, ones)]).T  # B+
    x, s, zh = np.linalg.svd((a + b) / 2)
    a -= b
    a /= 2  # N
    del b
    x /= np.sqrt(2)
    z = zh.conj().T / np.sqrt(2)
    del zh
    y = x.conj().T @ (a @ z)  # Y/2, from the columns' 1/sqrt(2)
    del a
    t = np.empty((2 * h, 2 * h), dtype=y.dtype)
    yh = y.conj().T
    np.subtract(yh, y, out=t[:h, :h])
    np.add(y, yh, out=t[:h, h:][:, ::-1])
    del y, yh
    np.negative(t[:h, :h][::-1, ::-1], out=t[h:, h:])
    np.negative(t[:h, h:].conj().T, out=t[h:, :h])
    w = np.empty_like(t)
    w[ones, :h], w[ones, h:] = x, x[:, ::-1]
    w[others, :h], w[others, h:] = -z, z[:, ::-1]
    return np.concatenate([-s, s[::-1]]), w, t


def _split_stack(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Rayleigh sums, first columns, eigenvectors) of the clusters of each
    matrix of a stack of normal k x k matrices, in flat column order: the
    one eigensolve of both routes, the dense one a stack of one.

    Column j of the result is column j % k of block j // k; cluster i holds
    the columns from ``first[i]`` up to the next cluster's first column, all
    in one block.  Each block's cosines, the eigenvalues of (M + M+)/2 with
    eigenvectors W, are cut into chains across gaps of at most sqrt(tol).
    A chain's block t is its diagonal block of T = W+ (iK W), and since W is
    unitary its residual ||iK W_c - W_c t|| is the norm of T's entries in
    the chain's columns and the other rows; the chains of one length are
    split together by :func:`_split_chains`.  T is formed with W conjugated
    in place and iK W freed before the residual, so a dense U's split holds
    about three D x D arrays at its peak.

    A stack of one of size at least PARITY_MIN_DIM whose nonzero pattern
    2-colours into equal halves (:func:`_parity_sides`) takes its cosines,
    W and T from :func:`_parity_split` instead, one SVD at D/2 and two
    (D/2)^3 products, within the same peak; the rest is the same code.
    """
    b, k = m.shape[:2]
    side = _parity_sides(m[0]) if b == 1 and k >= PARITY_MIN_DIM else None
    if side is not None:
        cos, w, t_all = (part[None] for part in _parity_split(m[0], side))
    else:
        cos, w = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2)
        ikw = ((m - m.conj().transpose(0, 2, 1)) / 2) @ w  # i K W
        t_all = np.conjugate(w, out=w).transpose(0, 2, 1) @ ikw
        del ikw
        np.conjugate(w, out=w)
    new_chain = _runs(cos, max(tol, np.sqrt(tol)))  # each block starts a chain
    chain = np.cumsum(new_chain, axis=1)
    leak = np.sum(np.abs(t_all) ** 2 * (chain[:, :, None] != chain[:, None, :]), axis=1)
    starts = np.flatnonzero(new_chain)
    residual = np.sqrt(np.max(np.add.reduceat(leak.ravel(), starts)))
    if not residual <= tol:
        raise ValueError(f"matrix is not normal (eigenspace block residual {residual:.3e} > {tol:.0e})")
    lengths = np.append(starts[1:], b * k) - starts
    cos = cos.ravel()
    firsts, lams, turns = [], [], []
    for size in sorted(set(lengths.tolist())):
        group = starts[lengths == size]
        cols = group[:, None] % k + np.arange(size)
        t = t_all[group[:, None, None] // k, cols[:, :, None], cols[:, None, :]]
        parts = _split_chains(group, cos[group[:, None] + np.arange(size)], t, tol)
        for out, part in zip((firsts, lams, turns), parts):
            out += part
    del t_all
    w = w.astype(complex, copy=False)
    for los, xs in turns:
        at = (los[:, None] // k, slice(None), los[:, None] % k + np.arange(xs.shape[1]))
        w[at] = xs.transpose(0, 2, 1) @ w[at]
    first = np.concatenate(firsts)
    order = np.argsort(first)
    return np.concatenate(lams)[order], first[order], w


def _phase_order(lams: np.ndarray, tol: float) -> np.ndarray:
    """Cluster order by phase in [-pi, pi), the cluster within tol of -1 first."""
    return np.argsort(np.where(np.abs(lams + 1) <= tol, -np.pi, np.angle(lams)), kind="stable")


def _clusters(lams, first, basis, order) -> tuple[EigenCluster, ...]:
    """The clusters in ``order``, each with a view of its columns of basis."""
    bounds = [*first.tolist(), basis.shape[1]]
    return tuple(
        EigenCluster(complex(lams[i]), bounds[i + 1] - bounds[i], basis[:, bounds[i]:bounds[i + 1]])
        for i in order.tolist()
    )


def _cube_coin(op: WalkOperator) -> np.ndarray | None:
    """The n x n coin C when the walk is S (I (x) C) on the n-cube that
    ``build_hypercube`` colors, whose shift sends v*n + c to
    (v XOR 2^c)*n + c; else None.  Reads no graph and uses no tolerance.

    A factored walk is that walk when its block is n x n and its image is
    that shift: O(D).  One dense D x D block with the identity image,
    D = n 2^n, is that walk when the n x n gathers
    U[(v XOR 2^c)*n + c, v*n + c'] of all vertices v equal the first
    exactly, and U has no other nonzero entry: its nonzero real and
    imaginary parts are as many as the gathers', O(D^2).
    """
    d, n = op.dim, op.block.shape[0]
    dense = n == d
    if dense:  # the n of D = n 2^n
        n = next((k for k in range(1, 63) if k << k >= d), 0)
    if not 1 <= n < 63 or d != n << n:
        return None
    v, c = np.divmod(np.arange(d), n)
    shifted = (v ^ (1 << c)) * n + c
    if not dense:
        return op.block if np.array_equal(op.image, shifted) else None
    if not np.array_equal(op.image, np.arange(d)):
        return None
    u = op.block
    coins = u[shifted.reshape(-1, n, 1), np.arange(d).reshape(-1, 1, n)]
    if not np.all(coins == coins[0]):  # a NaN fails too
        return None
    nonzero = np.count_nonzero(np.ascontiguousarray(u).view(np.float64))
    return coins[0] if nonzero == np.count_nonzero(coins.view(np.float64)) else None


def eigenspace_clusters(u, tol: float = CLUSTER_TOL) -> tuple[EigenCluster, ...]:
    """Eigenvalues of a unitary grouped into clusters by distance tol.

    U = H + iK with Hermitian H = (U + U+)/2 and K = (U - U+)/2i, which
    commute exactly when U is normal; each eigenvalue cos + i sin of U pairs
    an eigenvalue of H with one of K on a common eigenvector.  One eigh of
    H (in real arithmetic when U is real) gives the cosines and their
    eigenvectors W.  Cosines are chained across gaps of at most sqrt(tol),
    so that each chain's columns W_c span an invariant subspace of U to
    about eps/sqrt(tol).  Inside a chain the small Hermitian matrices
    diag(cos_c) and W_c+ K W_c are split in turn into runs of eigenvalues
    within tol of their neighbours, which separates e^{i theta} from
    e^{-i theta}.  Eigenvalues within tol on the circle are within tol in
    cosine and in sine, so chains of such neighbours share a cluster, across
    the branch cut at -1 too.  A step within tol in both cosine and sine
    but up to sqrt(2)*tol long on the circle also links two eigenvalues.

    Chains of one length are split together: one batched eigh of their
    blocks W_c+ K W_c, skipped for blocks within tol of a multiple of the
    identity, and one batched pass for the run cuts and the Rayleigh
    quotients.  Only a chain whose cosines spread wider than tol takes the
    alternating split on its own.

    Each cluster basis is orthonormal and orthogonal to the other clusters'
    by construction; its eigenvalue is the normalised mean Rayleigh quotient.
    Clusters are listed by phase in [-pi, pi): the cluster within tol of -1
    comes first.  Raises ValueError when U is not normal, i.e. when a
    chain's block residual ||K W_c - W_c (W_c+ K W_c)|| exceeds tol.  The
    clusters are those of the report for no final index, so the walk on the
    n-cube is split block by block in the Fourier basis, and its clusters'
    bases are built when read.
    """
    return _report(u, (), tol).clusters


def _rank_clusters(overlap, starts, size, lams, position):
    """(rank, warnings, groups) of the clusters' final overlaps.

    Cluster i's overlap is the block of columns of ``overlap`` from
    starts[i] on, size[i] wide; the overlaps of all clusters of one
    multiplicity are decomposed by one stacked thin SVD, each group listed as
    (cluster indices, overlaps, their SVD).  Warnings are (position,
    message) pairs for singular values within 10x of the cutoff.
    """
    rank = np.zeros(len(size), dtype=int)
    warnings, groups = [], []
    for k in sorted(set(size.tolist())):
        group = np.flatnonzero(size == k)
        gathered = overlap[:, starts[group, None] + np.arange(k)].transpose(1, 0, 2)
        svd = np.linalg.svd(gathered, full_matrices=False)
        sv = svd[1]
        cutoff = NULLSPACE_RTOL * sv[:, :1]
        kept = sv > cutoff
        rank[group] = kept.sum(axis=1)
        for i, band in zip(group, np.sum(kept & (sv <= 10 * cutoff), axis=1).tolist()):
            if band:
                warnings.append((position[i], f"cluster {position[i]} (eigenvalue "
                                 f"{complex(lams[i]):.6f}): {band} singular value(s) "
                                 "within 10x of cutoff"))
        groups.append((group, gathered, svd))
    return rank, warnings, groups


def _gap_warnings(ring: np.ndarray) -> list:
    """(position, message) for neighbouring clusters, eigenvalues ``ring`` in
    cluster order, within 10x the cluster tolerance, around the circle."""
    n = len(ring)
    gaps = np.abs(np.append(ring[1:], ring[:1]) - ring)  # cluster i to cluster i + 1, and around
    pairs = n if n > 2 else n - 1  # two clusters are one pair of neighbours, not two
    warnings = []
    for i in np.flatnonzero(gaps[:pairs] <= 10 * CLUSTER_TOL).tolist():
        j = (i + 1) % n
        warnings.append((i, f"clusters {i} and {j} (eigenvalues {complex(ring[i]):.6f} and "
                         f"{complex(ring[j]):.6f}): gap {gaps[i]:.1e} within 10x of the "
                         "cluster tolerance"))
    return warnings


def _in_order(warnings: list) -> tuple[str, ...]:
    return tuple(msg for _, msg in sorted(warnings, key=lambda w: w[0]))


def infinite_hitting_projector(u, p_f) -> SpectralReport:
    """Projector onto eigenvectors of U with no final-vertex overlap.

    ``p_f`` lists the basis indices of the final subspace.  For a cluster
    with orthonormal eigenbasis V (dim k) the trapped directions solve the
    homogeneous d x k system V[p_f] a = 0, the rows of V on the d final
    indices; the solution space has dimension k - rank.
    The overlaps V[p_f] of all clusters of one multiplicity are decomposed in
    one stacked SVD.  Rank decisions use singular values with a relative
    cutoff NULLSPACE_RTOL; values inside [cutoff, 10*cutoff) are reported as
    warnings rather than failures, and so are neighbouring clusters on the
    circle whose eigenvalues lie within 10*CLUSTER_TOL, where the clustering
    itself is a close call.  The clusters' bases are mutually orthogonal, so
    the trapped pieces are stacked into ``basis`` as they are.  A final
    index outside [0, D) raises ValueError.  The walk on the n-cube takes
    the Fourier route and returns a :class:`qwlab.fourier.FourierReport`.
    """
    return _report(u, p_f, CLUSTER_TOL)


def _report(u, p_f, tol: float) -> SpectralReport:
    """:func:`infinite_hitting_projector` with clusters cut at distance tol."""
    op = _as_walk(u)
    p_f = _final_array(p_f, op.dim)
    coin = _cube_coin(op)
    if coin is not None:
        from . import fourier  # which builds on this module

        return fourier.cube_report(op, coin, p_f, tol)
    sums, first, v = _split_stack(_as_matrix(op)[None], tol)
    lams, v = sums / np.abs(sums), v[0]
    dim, n = v.shape[0], len(lams)
    order = _phase_order(lams, tol)
    position = np.empty_like(order)
    position[order] = np.arange(n)
    size = np.diff([*first, dim])
    rank, warnings, ranked = _rank_clusters(v[p_f], first, size, lams, position)
    by_position = rank[order]
    offset = (np.cumsum(by_position) - by_position)[position]  # each cluster's first column of W
    partly = (rank > 0) & (rank < size)
    w = np.take(v, _column_runs(first[order], by_position), axis=1)  # each cluster's first rank columns
    for group, _, (_, _, vh) in ranked:  # which are V_c Z_c+ where the cluster is partly trapped
        for j in np.flatnonzero(partly[group]).tolist():
            i = group[j]
            w[:, offset[i]:offset[i] + rank[i]] = v[:, first[i]:first[i] + size[i]] @ vh[j, :rank[i]].conj().T
    return SpectralReport(
        clusters=_clusters(lams, first, v, order),
        contributions=tuple((size - rank)[order].tolist()),
        warnings=_in_order(warnings + _gap_warnings(lams[order])),
        untrapped=w,
        walk=op,
        finals=p_f,
        rank=by_position,
        vectors=v,
        ranking=(ranked, first, rank, position),
    )


def escape_probability(report: SpectralReport, state: np.ndarray) -> float:
    """Mass of a state (vector or density matrix) inside the trapped subspace."""
    state = np.asarray(state)
    if state.ndim not in (1, 2):
        raise ValueError("state must be a vector or a density matrix")
    return report.escape(state)


@dataclass(frozen=True, eq=False)
class CoinOverlapMatrix:
    """The d x d block of the trapped projector at one vertex.

    Hermitian and positive semidefinite; coin states in the kernel are
    exactly the local starting states with no trapped component.
    """

    vertex: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def zero_eigenvalue_count(self) -> int:
        return int(np.sum(self.eigenvalues < 1e-8))


def coin_overlap_matrices(report: SpectralReport, g: ColoredGraph, vertices=None):
    """The coin-overlap blocks of ``vertices`` (default: all) of equal degree
    d, from the report's ``vertex_blocks`` and one stacked eigh.  A block
    that is not Hermitian, or not positive semidefinite, to 1e-10 raises
    ValueError."""
    idx = BasisIndexing.from_graph(g)
    vertices = range(g.num_vertices) if vertices is None else vertices
    blocks = report.vertex_blocks(np.array([idx.vertex_indices(v) for v in vertices]))
    herm_defect = float(np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1)))) if blocks.size else 0.0
    if not herm_defect <= 1e-10:
        raise ValueError(f"coin-overlap block not Hermitian (defect {herm_defect:.3e})")
    blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
    w, v = np.linalg.eigh(blocks)
    if w.size and not w[:, 0].min() >= -1e-10:
        raise ValueError(f"coin-overlap block not PSD (min eigenvalue {w[:, 0].min():.3e})")
    return tuple(CoinOverlapMatrix(int(x), *parts) for x, *parts in zip(vertices, blocks, w, v))


def coin_overlap_matrix(
    report: SpectralReport, g: ColoredGraph, vertex: int
) -> CoinOverlapMatrix:
    return coin_overlap_matrices(report, g, [vertex])[0]


def degeneracy_condition(u_or_clusters, coin_dim: int) -> str:
    """Sufficient condition for a trapped subspace to exist for some final vertex.

    A cluster of multiplicity above the coin dimension always admits a
    combination with zero overlap on any single vertex's coin block; for
    continuous walks pass ``coin_dim=1``.
    """
    if isinstance(u_or_clusters, tuple):
        clusters = u_or_clusters
    else:
        clusters = eigenspace_clusters(u_or_clusters)
    if any(c.multiplicity > coin_dim for c in clusters):
        return SUFFICIENT_FOR_INFINITE
    return INCONCLUSIVE


def report_to_dict(report: SpectralReport) -> dict:
    return {
        "eigenvalues": [
            {
                "value": [float(c.eigenvalue.real), float(c.eigenvalue.imag)],
                "multiplicity": c.multiplicity,
                "trapped_dim": report.contributions[i],
            }
            for i, c in enumerate(report.clusters)
        ],
        "trace_p": report.trace_p,
        "trace_p_int": report.trace_int,
        "warnings": list(report.warnings),
    }
