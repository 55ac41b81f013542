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
the coin-overlap blocks I - W_v W_v+ are read from W, and no D x D
projector is formed.  The closed form's questions, the escape (a start's
mass outside W), W+ Psi and A_r = W+ (Q_f U) W, have one body on every
frame and for every start, read as its D x k columns Psi with rho_0 =
Psi Psi+: the start from its members' coefficients, A_r from U in its own
eigenbasis, which the frame keeps cut to its chains, so a hitting time
builds no D-tall basis.  W, the trapped subspace's orthonormal basis B and
the clusters' bases are built only when read.  Every entry point takes the
walk as a WalkOperator, and wraps an array as one block, uncopied.  An
eigensolve whose estimated working set exceeds the memory budget (physical
memory, or the cgroup limit where lower) raises ValueError before U is
built or read.

One report serves every walk, held in a :class:`qwlab.fourier.Frame` of
eigenvectors: the n-cube's walk, as ``build_hypercube`` colors it, in the
frame of its 2^n coin-sized Fourier blocks, in O(2^n n^3) time and
O(D (n + |finals|)) memory, and any other walk in the frame of the one
block U (``SpectralReport.route`` says which).  This module alone chooses
the route and refuses a report that would not fit; both routes split their
blocks through one stacked core, ``_split_stack``, into a frame
(``_frame``).  :func:`qwlab.fourier._cube_coin` recognises the cube's walk;
the same walk with its colors relabelled at every vertex is not it.

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

from . import fourier
from .graphs import BasisIndexing, ColoredGraph, _whole
from .walk import WalkOperator, _as_walk, _check_memory, _start_columns

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
# the rank cutoff's floor: an overlap's columns are unit vectors, so a
# singular value this small is rounding, whatever the cluster's largest
NULLSPACE_ATOL = 1e3 * np.finfo(float).eps
# complex D x D arrays held at once: the eigensolve's (3.0-3.3 measured,
# 4.0 on cayley:s4:3gen dft) beside U and a caller's start, rho_0 and its
# columns, D x D each at full rank
EIGENSOLVE_WORK_ARRAYS = 7
# complex D x D arrays a dense report's hitting time holds beside its r x r
# solve and its start's work: U, V and U on its chains (2.1-2.4 measured, by
# tracemalloc, on the dense hypercube:5-6, distorted-hypercube:5-6,
# cayley:s4:3gen and cycle:64-128 walks, grover and dft), and a mixed
# start's rho_0 and its columns
DENSE_HELD_ARRAYS = 5
# complex D x k arrays a start's k columns take while they are split: their
# coordinates, the projection's gathers and products, and W+ Psi (at most
# 4.0 D k measured beside the report on the walks above, k = 3 and k = D)
SPLIT_WORK_ARRAYS = 4
# D from which a dense U whose nonzeros 2-colour into equal halves is split
# through the SVD of its off-diagonal half: measured faster from D = 128 on
# every bipartite walk tried; below, the check costs more than it saves
PARITY_MIN_DIM = 128

SUFFICIENT_FOR_INFINITE = "sufficient_for_infinite"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """One (numerically) degenerate eigenvalue of a unitary with its
    eigenbasis, D x multiplicity orthonormal columns: its ``members`` of
    ``frame``, built when ``basis`` is first read."""

    eigenvalue: complex
    multiplicity: int
    frame: fourier.Frame
    members: np.ndarray

    @functools.cached_property
    def basis(self) -> np.ndarray:
        m = self.multiplicity
        return self.frame.span([(self.members[None], np.eye(m)[None], np.arange(m)[None])], m)


class _UntrappedGroup(NamedTuple):
    """The clusters of one multiplicity m, at positions ``clusters``.

    ``rows[g]`` lists cluster g's members of the report's frame, and ``z[g]``
    holds their coefficients of its untrapped eigenvectors, the right
    singular vectors of its final overlap (width x m, zero past its rank).
    ``slots[g]`` gives those eigenvectors' columns of W; past the rank it
    points at one spare column past the last, which is dropped.
    ``overlap[g]`` is the cluster's final overlap, the rows of its members
    on the finals, and ``fin[g]`` the rows of its untrapped eigenvectors
    there, u s from the same SVD.
    """

    clusters: np.ndarray
    rows: np.ndarray
    z: np.ndarray
    slots: np.ndarray
    overlap: np.ndarray
    fin: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Spectral decomposition of U together with the trapped subspace.

    ``frame`` holds U's eigenvectors, as the one block U or the n-cube's
    Fourier blocks (``route`` says which), U in their basis on its chains,
    and their clusters in phase order.  ``rank`` holds each cluster's rank,
    and ``groups`` its coefficients of W, by multiplicity.  ``contributions`` counts the
    trapped dimensions contributed by each cluster, in cluster order, and
    trace(P) is their sum.  Warnings, in cluster order, record nullspace
    rank decisions that fell within 10x of the singular value cutoff, and
    neighbouring clusters whose eigenvalues lie within 10x of the cluster
    tolerance.  ``walk`` and ``finals`` are the walk and the final indices
    the report was made for, the finals sorted and without repeats, and
    ``held_entries`` the complex entries a
    hitting time on it holds beside its solve.

    ``clusters``, ``untrapped`` and ``basis`` are built when first read:
    W, the orthonormal eigenvectors of U that span the orthogonal
    complement of the trapped subspace, which holds the finals, and B, an
    orthonormal basis of the trapped subspace.  ``split_start`` and
    ``reduced_step`` answer what the unitary closed form asks: the escape
    and W+ Psi of a start given as its D x k columns Psi (rho_0 = Psi Psi+,
    one column for a pure start), and A_r = W+ (Q_f U) W, each with one
    body over any frame and any start, read from the frame and the
    coefficients, never from W or the walk; ``vertex_blocks`` gives the
    coin-overlap blocks from W.
    """

    contributions: tuple[int, ...]
    warnings: tuple[str, ...]
    walk: WalkOperator
    finals: np.ndarray
    frame: fourier.Frame
    rank: np.ndarray
    groups: tuple[_UntrappedGroup, ...]
    held_entries: int

    @property
    def route(self) -> str:
        """The route taken: "dense" on the frame of one block, "fourier" on
        the n-cube's Fourier blocks."""
        return "fourier" if self.frame.bits else "dense"

    @property
    def trace_p(self) -> float:
        """trace(P), the trapped dimension: B's columns are orthonormal."""
        return float(self.trapped_dim)

    @property
    def trace_int(self) -> int:
        return self.trapped_dim

    @property
    def dim(self) -> int:
        return self.frame.dim

    @functools.cached_property
    def trapped_dim(self) -> int:
        return sum(self.contributions)

    @functools.cached_property
    def untrapped_dim(self) -> int:
        return self.dim - self.trapped_dim

    @functools.cached_property
    def clusters(self) -> tuple[EigenCluster, ...]:
        f = self.frame
        bounds = f.bounds.tolist()
        return tuple(EigenCluster(complex(lam), hi - lo, f, f.members[lo:hi])
                     for lam, lo, hi in zip(f.lams.tolist(), bounds, bounds[1:]))

    @functools.cached_property
    def untrapped(self) -> np.ndarray:
        """W: each cluster's members turned by its coefficients Z_c+, in
        cluster order."""
        return self.frame.span([(g.rows, g.z.conj(), g.slots) for g in self.groups], self.untrapped_dim)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """B: each cluster's null directions, the right singular vectors past
        its rank, from one full stacked SVD per multiplicity, in cluster
        order.  Refused before the SVDs if B and they would not fit."""
        size = np.array(self.contributions)
        first = np.cumsum(size) - size  # each cluster's first column of B
        parts = [(g, np.flatnonzero(self.rank[g.clusters] < g.rows.shape[1])) for g in self.groups]

        def turns():
            for g, part in parts:
                if part.size:
                    m, rank = g.rows.shape[1], self.rank[g.clusters[part]]
                    _, _, vh = np.linalg.svd(g.overlap[part])
                    past = np.arange(m) - rank[:, None]
                    slots = np.where(past >= 0, first[g.clusters[part], None] + past, self.trapped_dim)
                    yield g.rows[part], vh.conj(), slots

        svd_entries = sum(part.size * g.rows.shape[1] ** 2 for g, part in parts)
        return self.frame.span(turns(), self.trapped_dim, svd_entries)

    def split_start(self, columns: np.ndarray) -> tuple[float, np.ndarray]:
        """(escape, W+ Psi) for the closed form, from a start's D x k columns
        Psi: the escape is ||Psi||^2 - ||W+ Psi||^2, clipped at 0.  Refused
        first if the split, beside what a hitting time holds, would not fit
        in the memory budget."""
        _check_memory(self.dim, self.held_entries + SPLIT_WORK_ARRAYS * columns.size)
        start = self.untrapped_start(columns)
        mass = np.vdot(columns, columns) - np.vdot(start, start)
        return max(float(np.real(mass)), 0.0), start

    def vertex_blocks(self, rows: np.ndarray) -> np.ndarray:
        """I - W_v W_v+ for each row set v of the V x d ``rows``: the diagonal
        blocks of the trapped projector I - W W+."""
        return np.eye(rows.shape[1]) - _row_grams(self.untrapped, rows)

    def untrapped_start(self, columns: np.ndarray) -> np.ndarray:
        """W+ Psi, r x k, for a start's D x k columns Psi, from their
        members' coefficients."""
        coords = self.frame.coordinates(columns)
        out = np.zeros((self.untrapped_dim + 1, coords.shape[1]), dtype=complex)
        for g in self.groups:
            out[g.slots] = g.z @ coords[g.rows]
        return out[:-1]

    def reduced_step(self) -> np.ndarray:
        """A_r = W+ (Q_f U) W = blockdiag(W_c+ U W_c) - F+ G: U W by members
        from the frame's chain blocks, which join only members of one
        cluster; F and G the finals' rows of W and U W.  The D-tall arrays
        are as wide as a cluster's untrapped part, at most the final rows."""
        frame, r = self.frame, self.untrapped_dim
        width = max(g.z.shape[1] for g in self.groups)
        zt = np.zeros((self.dim, width), dtype=complex)  # row j: member j's coefficients
        for g in self.groups:
            zt[g.rows, :g.z.shape[1]] = g.z.conj().transpose(0, 2, 1)
        uz = np.empty_like(zt)  # U W, by members
        for starts, blocks in frame.chains:
            cols = starts[:, None] + np.arange(blocks.shape[1])
            uz[cols] = blocks @ zt[cols]
        a_r = np.zeros((r + 1, r + 1), dtype=complex)
        f = np.zeros((len(self.finals), r + 1), dtype=complex)  # the finals' rows of W
        g_rows = np.zeros_like(f)  # and of U W
        for g in self.groups:
            uzg = uz[g.rows][:, :, :g.z.shape[1]]
            a_r[g.slots[:, :, None], g.slots[:, None, :]] = g.z @ uzg
            f[:, g.slots] = g.fin.transpose(1, 0, 2)
            g_rows[:, g.slots] = (g.overlap @ uzg).transpose(1, 0, 2)
        return (a_r - f.conj().T @ g_rows)[:r, :r]


def _row_grams(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a_v a_v+ for each row set v of the V x d ``rows``: one gather to
    V x d x k (a view when the rows are all of a's, in order) and one
    stacked product."""
    if np.array_equal(rows.ravel(), np.arange(len(a))):
        b = a.reshape(rows.shape + a.shape[1:])
    else:
        b = a[rows]
    return b @ b.conj().transpose(0, 2, 1)


def _final_array(p_f, dim: int) -> np.ndarray:
    """``p_f`` in the one form every route reads: a new read-only int array,
    sorted and without repeats, so that P_f is a projector however often an
    index is named, and checked to lie in [0, dim): a negative index would
    otherwise wrap around to the last rows.  An integer array is read as it
    is; any other entry must be a whole number, not a bool or a string."""
    if not (isinstance(p_f, np.ndarray) and p_f.dtype.kind in "iu"):
        p_f = [_whole(x) for x in np.asarray(p_f, dtype=object).ravel()]
    p_f = np.unique(np.asarray(p_f, dtype=int))
    if p_f.size and (p_f[0] < 0 or p_f[-1] >= dim):
        raise ValueError(f"final index out of range [0, {dim})")
    p_f.flags.writeable = False
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
    """(first columns, Rayleigh sums, turns, turned blocks) of the clusters
    in a stack of chains of one length L, cut from the blocks of
    :func:`_split_stack`.

    Chain g starts at column starts[g]; c[g] holds its ascending cosines and
    t[g] = W_g+ (iK) W_g its L x L block, so that diag(c[g]) + t[g] is the
    normal matrix W_g+ U W_g.  Each cluster is listed by its first column
    and the sum of its Rayleigh quotients.  A turn (chain starts, rotations)
    says that the columns of chain starts[i] are to be rotated by
    rotations[i] to become the clusters' bases; chains that are one cluster
    as they stand take none.  A chain whose cosines spread wider than tol
    takes the alternating split on its own; the others are split together
    by one stacked eigh of their blocks -i t, skipped for blocks within tol
    of a multiple of the identity.  The turned blocks, G x L x L, are each
    chain's W_g+ U W_g in its turned columns, x+ (W_g+ U W_g) x from the
    product its Rayleigh sums read, with the entries between its clusters
    dropped, and the block itself where the chain takes no turn.
    """
    size = c.shape[1]
    mc = t + c[:, :, None] * np.eye(size)  # W_c+ U W_c
    kept = mc.astype(complex)
    if size == 1:  # each chain is one cluster
        return [starts], [c[:, 0] + t[:, 0, 0]], [], kept
    firsts, lams, turns = [], [], []
    wide = c[:, -1] - c[:, 0] > tol
    for i in np.flatnonzero(wide).tolist():
        parts = _joint_blocks(c[i], -1j * t[i], tol)
        at = np.cumsum([0] + [p.shape[1] for p in parts[:-1]])
        x = np.hstack(parts)
        mx = (np.diag(c[i]) + t[i]) @ x
        cluster = np.cumsum(np.isin(np.arange(size), at))
        kept[i] = (x.conj().T @ mx) * (cluster[:, None] == cluster)
        firsts.append(starts[i] + at)
        lams.append(np.add.reduceat(np.sum(x.conj() * mx, axis=0), at))
        turns.append((starts[i:i + 1], x[None]))
    if wide.all():
        return firsts, lams, turns, kept
    rest = np.flatnonzero(~wide)
    whole, y, new_run = _eigen_runs(-1j * t[rest], tol)
    firsts.append(starts[rest[whole]])
    lams.append(np.trace(mc[rest[whole]], axis1=1, axis2=2))
    if not whole.all():
        split = rest[~whole]
        my = mc[split] @ y
        cluster = np.cumsum(new_run, axis=1)
        kept[split] = (y.conj().transpose(0, 2, 1) @ my) * (cluster[:, :, None] == cluster[:, None, :])
        rayleigh = np.sum(y.conj() * my, axis=1)  # per eigenvector
        at = np.flatnonzero(new_run)  # flat index of each run's first eigenvector
        firsts.append(starts[split][at // size] + at % size)
        lams.append(np.add.reduceat(rayleigh.ravel(), at))
        turns.append((starts[split], y))
    return firsts, lams, turns, kept


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


def _split_stack(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """(Rayleigh sums, first columns, eigenvectors, chain blocks) of the
    clusters of each matrix of a stack of normal k x k matrices, in flat
    column order: the one eigensolve of both routes, the dense one a stack
    of one.

    Column j of the result is column j % k of block j // k; cluster i holds
    the columns from ``first[i]`` up to the next cluster's first column, all
    in one block.  Each block's cosines, the eigenvalues of (M + M+)/2 with
    eigenvectors W, are cut into chains across gaps of at most sqrt(tol).
    A chain's block t is its diagonal block of T = W+ (iK W), and since W is
    unitary its residual ||iK W_c - W_c t|| is the norm of T's entries in
    the chain's columns and the other rows; the chains of one length are
    split together by :func:`_split_chains`, and the chain blocks are their
    turned blocks, (chain starts, G x L x L) per chain length L: the matrix
    in its own eigenvectors, cut to its chains, sum L^2 <= b k^2 entries.
    T is formed with W conjugated in place and iK W freed before the
    residual, so a dense U's split holds about three D x D arrays at its
    peak.

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
    firsts, lams, turns, chains = [], [], [], []
    for size in sorted(set(lengths.tolist())):
        group = starts[lengths == size]
        cols = group[:, None] % k + np.arange(size)
        t = t_all[group[:, None, None] // k, cols[:, :, None], cols[:, None, :]]
        *parts, kept = _split_chains(group, cos[group[:, None] + np.arange(size)], t, tol)
        for out, part in zip((firsts, lams, turns), parts):
            out += part
        chains.append((group, kept))
    del t_all
    w = w.astype(complex, copy=False)
    for los, xs in turns:
        at = (los[:, None] // k, slice(None), los[:, None] % k + np.arange(xs.shape[1]))
        w[at] = xs.transpose(0, 2, 1) @ w[at]
    first = np.concatenate(firsts)
    order = np.argsort(first)
    return np.concatenate(lams)[order], first[order], w, tuple(chains)


def _phase_order(lams: np.ndarray, tol: float) -> np.ndarray:
    """Cluster order by phase in [-pi, pi), the cluster within tol of -1 first."""
    return np.argsort(np.where(np.abs(lams + 1) <= tol, -np.pi, np.angle(lams)), kind="stable")


def _frame(blocks: np.ndarray, bits: int, tol: float) -> fourier.Frame:
    """The frame of the 2^bits blocks, split by one stacked split, keeping
    the split's chain blocks in place of the blocks.  The clusters of more
    than one block merge across blocks: sorted by phase, neighbours within
    tol share a cluster, across the branch cut too.  Clusters are listed as
    :func:`_phase_order` lists them."""
    size = blocks.shape[0] * blocks.shape[1]
    sums, first, vectors, chains = _split_stack(blocks, tol)
    cluster, merged = np.arange(len(sums)), sums  # one block: no merge
    if bits:
        phase = np.angle(sums)
        by_phase = np.argsort(phase, kind="stable")
        ids = np.cumsum(_runs(phase[by_phase], tol)) - 1
        if ids[-1] and phase[by_phase[0]] + 2 * np.pi - phase[by_phase[-1]] <= tol:
            ids[ids == ids[-1]] = 0  # the last run wraps around to the first
        cluster[by_phase] = ids
        merged = np.bincount(cluster, sums.real) + 1j * np.bincount(cluster, sums.imag)
    lams = merged / np.abs(merged)
    order = _phase_order(lams, tol)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    labels = np.repeat(position[cluster], np.append(first[1:], size) - first)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels))])
    return fourier.Frame(bits, chains, vectors, lams[order], np.argsort(labels, kind="stable"), bounds)


def eigenspace_clusters(u) -> tuple[EigenCluster, ...]:
    """Eigenvalues of a unitary clustered at distance tol = CLUSTER_TOL.

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
    n-cube is split block by block in the Fourier basis; every cluster's
    basis is built when read.
    """
    return _report(u, ()).clusters


def _rank_clusters(frame: fourier.Frame, finals: np.ndarray) -> tuple[np.ndarray, list, tuple[_UntrappedGroup, ...]]:
    """(rank, warnings, groups) of the clusters' final overlaps.

    The overlaps of all clusters of one multiplicity, the rows ``finals``
    of their members, are decomposed by one stacked thin SVD, and their
    :class:`_UntrappedGroup` is read from it.  Warnings are (position,
    message) pairs for singular values within 10x of the cutoff.
    """
    size = frame.multiplicities
    overlap = frame.overlap(finals)
    rank = np.zeros(len(size), dtype=int)
    warnings, ranked = [], []
    for k in sorted(set(size.tolist())):
        group = np.flatnonzero(size == k)
        rows = frame.members[frame.bounds[group, None] + np.arange(k)]
        gathered = overlap[:, rows].transpose(1, 0, 2)
        u, sv, vh = np.linalg.svd(gathered, full_matrices=False)
        cutoff = np.maximum(NULLSPACE_RTOL * sv[:, :1], NULLSPACE_ATOL)
        kept = sv > cutoff  # the first rank of each row
        rank[group] = kept.sum(axis=1)
        band = np.sum(kept & (sv <= 10 * cutoff), axis=1)
        for j in np.flatnonzero(band).tolist():
            i = int(group[j])
            warnings.append((i, f"cluster {i} (eigenvalue {complex(frame.lams[i]):.6f}): "
                             f"{band[j]} singular value(s) within 10x of cutoff"))
        z, fin = np.where(kept[:, :, None], vh, 0.0), u * (sv * kept)[:, None, :]
        ranked.append((group, rows, kept, gathered, z, fin))
    first, spare = np.cumsum(rank) - rank, rank.sum()  # each cluster's first column of W, and past the last
    groups = tuple(
        _UntrappedGroup(group, rows, z, np.where(kept, first[group, None] + np.arange(z.shape[1]), spare),
                        gathered, fin)
        for group, rows, kept, gathered, z, fin in ranked)
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
    cutoff NULLSPACE_RTOL, floored at NULLSPACE_ATOL so that an overlap
    that is zero up to rounding has rank 0; values inside (cutoff,
    10*cutoff] are reported as warnings rather than failures, and so are
    neighbouring clusters on the circle whose eigenvalues lie within
    10*CLUSTER_TOL, where the clustering itself is a close call.  The
    clusters' bases are mutually orthogonal, so the trapped pieces are
    stacked into ``basis`` as they are.  A final
    index outside [0, D) raises ValueError.  The walk on the n-cube takes
    the Fourier route; ``route`` on the report says which it took.
    """
    return _report(u, p_f)


def _report(u, p_f) -> SpectralReport:
    """:func:`infinite_hitting_projector`, clusters cut at CLUSTER_TOL: on
    the frame of the n-cube's Fourier blocks for its walk, else on the
    frame of the one block U, read only once its estimate fits."""
    op = _as_walk(u)
    p_f = _final_array(p_f, op.dim)
    coin = fourier._cube_coin(op)
    if coin is None:
        _check_memory(op.dim, EIGENSOLVE_WORK_ARRAYS * op.dim**2)
        frame = _frame(op.matrix[None], 0, CLUSTER_TOL)
        held = DENSE_HELD_ARRAYS * op.dim**2
    else:
        n = coin.shape[0]
        held = fourier._entries(n, len(p_f))
        _check_memory(op.dim, held)
        frame = _frame(fourier.cube_blocks(coin), n, CLUSTER_TOL)
    rank, warnings, groups = _rank_clusters(frame, p_f)
    return SpectralReport(
        contributions=tuple((frame.multiplicities - rank).tolist()),
        warnings=_in_order(warnings + _gap_warnings(frame.lams)),
        walk=op,
        finals=p_f,
        frame=frame,
        rank=rank,
        groups=groups,
        held_entries=held,
    )


def escape_probability(report: SpectralReport, state: np.ndarray) -> float:
    """Mass of a state (vector or density matrix) inside the trapped subspace."""
    return report.split_start(_start_columns(np.asarray(state)))[0]


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
    d, from the report's ``vertex_blocks`` and one stacked eigh, and none
    for no vertices.  A block that is not Hermitian, or not positive
    semidefinite, to 1e-10 raises ValueError."""
    idx = BasisIndexing.from_graph(g)
    vertices = range(g.num_vertices) if vertices is None else list(vertices)
    if not vertices:
        return ()
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
