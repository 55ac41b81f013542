"""The walk on the n-cube in its Fourier basis.

Each translation x -> x XOR g of the n-cube commutes with a walk whose
shift sends v*n + c to (v XOR 2^c)*n + c (Moore and Russell, RANDOM 2002;
Krovi and Brun, PRA 73, 032341 (2006)).  In the basis
|k^, c> = 2^(-n/2) sum_x (-1)^(k.x) |x, c> U therefore splits into 2^n
blocks U_k = diag((-1)^(k_c)) C of the coin's size.  One stacked split of
the blocks, by the batched core of :mod:`qwlab.spectral`, gives every
eigenvector; clusters merge equal eigenvalues across blocks, each
cluster's final overlap has the entries 2^(-n/2) (-1)^(k.f) y_c, and a
state enters through one Walsh-Hadamard transform.  The route costs
O(2^n n^3) time and O(D (n + |finals|)) memory, and builds no D x D array
and no D-tall basis unless ``basis`` or ``untrapped`` is read.

:mod:`qwlab.spectral` takes this route for such a walk and imports this
module on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import (
    SpectralReport,
    _gap_warnings,
    _in_order,
    _phase_order,
    _rank_clusters,
    _runs,
    _split_stack,
    _untrapped_groups,
)
from .walk import _check_memory

__all__ = ["FourierReport", "cube_report", "frame"]

# complex entries the Fourier route holds at once, per D x n and per D x
# final index (a hitting time's peak by tracemalloc, beside its r x r solve,
# stays under 6 D n + 7 D |finals| on hypercube:6-12, grover and dft, one
# and two final vertices), and per D x column of a basis it builds, beside
# each cluster's full SVD (at most 5.5 on hypercube:4-8)
COIN_ARRAYS = 8
FINAL_ARRAYS = 8
BASIS_ARRAYS = 7
# bits of the index that one Walsh-Hadamard matrix product transforms, and
# the columns of a basis synthesized at once
WALSH_HADAMARD_BITS = 4
SYNTHESIS_COLUMNS = 256


def _entries(n: int, finals: int) -> int:
    """Complex entries the Fourier route on the n-cube holds at once."""
    return (n << n) * (COIN_ARRAYS * n + FINAL_ARRAYS * finals)


def _parity_signs(x: np.ndarray, bits: int) -> np.ndarray:
    """(-1)^(number of set bits) of each integer of x in [0, 2^bits)."""
    shift = 1 << (bits - 1).bit_length() if bits > 1 else 1
    while shift > 1:  # fold the upper half of the bits onto the lower half
        shift >>= 1
        x = x ^ (x >> shift)
    return 1.0 - 2.0 * (x & 1)


@functools.cache
def _sylvester(h: int) -> np.ndarray:
    """The orthonormal 2^h x 2^h Walsh-Hadamard matrix (-1)^(k.v) / 2^(h/2)."""
    k = np.arange(1 << h)
    h_matrix = _parity_signs(k[:, None] & k, h) / np.sqrt(1 << h)
    h_matrix.flags.writeable = False  # shared by every caller
    return h_matrix


def _walsh_hadamard(x: np.ndarray, n: int) -> np.ndarray:
    """2^(-n/2) sum_v (-1)^(k.v) x[v] for every k, over the 2^n rows of x.

    The transform is its own inverse.  It is applied WALSH_HADAMARD_BITS
    bits of the row index at a time, by one real matrix product each.
    """
    y = np.ascontiguousarray(x)
    if not y.size:
        return y
    cplx = np.iscomplexobj(y)
    if cplx:
        y = y.view(np.float64)  # real and imaginary parts side by side
    cols = y.size >> n
    for lo in range(0, n, WALSH_HADAMARD_BITS):
        h = min(WALSH_HADAMARD_BITS, n - lo)
        y = _sylvester(h) @ y.reshape(-1, 1 << h, cols << lo)
    y = y.reshape(1 << n, -1)
    return (y.view(complex) if cplx else y).reshape(x.shape)


@dataclass(frozen=True, eq=False)
class Frame:
    """Eigenvectors of the n-cube walk in the Fourier basis, by cluster.

    ``blocks[k]`` is U_k = diag((-1)^(k_c)) C.  Member j = k*n + i of the
    spectrum is column i of ``vectors[k]``, the eigenvector
    y -> 2^(-n/2) (-1)^(k.x) y_c of U.  ``lams`` holds the clusters'
    eigenvalues in phase order, ``labels[j]`` member j's cluster, and
    cluster p's members are ``members[bounds[p]:bounds[p + 1]]``.
    """

    n: int
    blocks: np.ndarray
    vectors: np.ndarray
    lams: np.ndarray
    labels: np.ndarray
    members: np.ndarray
    bounds: np.ndarray

    @property
    def dim(self) -> int:
        return self.n << self.n

    @property
    def multiplicities(self) -> np.ndarray:
        return self.bounds[1:] - self.bounds[:-1]

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """The members' coefficients of x along its first axis: one
        Walsh-Hadamard transform, then y+ in each block."""
        n, b = self.n, 1 << self.n
        xh = _walsh_hadamard(x.reshape(b, -1), n).reshape(b, n, -1)
        return (self.vectors.conj().transpose(0, 2, 1) @ xh).reshape(x.shape)

    def synthesize(self, coef: np.ndarray) -> np.ndarray:
        """The D x m columns whose members' coefficients are the D x m ``coef``."""
        n, b = self.n, 1 << self.n
        xh = (self.vectors @ coef.reshape(b, n, -1)).reshape(b, -1)
        return _walsh_hadamard(xh, n).reshape(coef.shape)

    def overlap(self, finals: np.ndarray) -> np.ndarray:
        """Rows ``finals`` of every member, as the |finals| x D entries
        2^(-n/2) (-1)^(k.f) y_c."""
        n, b = self.n, 1 << self.n
        f, c = np.divmod(finals, n)
        signs = _parity_signs(f[:, None] & np.arange(b), n) / np.sqrt(b)
        rows = self.vectors[:, c, :].transpose(1, 0, 2) * signs[:, :, None]
        return rows.reshape(len(finals), self.dim)

    def cluster(self, p: int) -> _Cluster:
        return _Cluster(complex(self.lams[p]), int(self.bounds[p + 1] - self.bounds[p]),
                        self, self.members[self.bounds[p]:self.bounds[p + 1]])


class _Cluster:
    """A :class:`spectral.EigenCluster` held as its members; ``basis`` is
    built on read."""

    def __init__(self, eigenvalue: complex, multiplicity: int, frame: Frame, columns: np.ndarray):
        self.eigenvalue, self.multiplicity, self.frame, self.columns = eigenvalue, multiplicity, frame, columns

    @functools.cached_property
    def basis(self) -> np.ndarray:
        _check_memory(self.frame.dim, BASIS_ARRAYS * self.frame.dim * self.multiplicity)
        coef = np.zeros((self.frame.dim, self.multiplicity), dtype=complex)
        coef[self.columns, np.arange(self.multiplicity)] = 1.0
        return self.frame.synthesize(coef)


def frame(coin: np.ndarray, tol: float) -> Frame:
    """Split the 2^n blocks of the walk on the n-cube with the n x n coin C
    by one stacked split, and merge their clusters across blocks: sorted by
    phase, neighbours within tol share a cluster, across the branch cut too;
    clusters are listed as :func:`spectral._phase_order` lists them."""
    n = coin.shape[0]
    k = np.arange(1 << n)
    signs = 1 - 2 * ((k[:, None] >> np.arange(n)) & 1)  # (-1)^(k_c)
    blocks = signs[:, :, None] * coin
    sums, first, vectors = _split_stack(blocks, tol)
    phase = np.angle(sums)
    by_phase = np.argsort(phase, kind="stable")
    ids = np.cumsum(_runs(phase[by_phase], tol)) - 1
    if ids[-1] and phase[by_phase[0]] + 2 * np.pi - phase[by_phase[-1]] <= tol:
        ids[ids == ids[-1]] = 0  # the last run wraps around to the first
    cluster = np.empty_like(ids)
    cluster[by_phase] = ids
    merged = np.bincount(cluster, sums.real) + 1j * np.bincount(cluster, sums.imag)
    lams = merged / np.abs(merged)
    order = _phase_order(lams, tol)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    labels = np.repeat(position[cluster], np.append(first[1:], n << n) - first)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels))])
    return Frame(n, blocks, vectors, lams[order], labels, np.argsort(labels, kind="stable"), bounds)


@dataclass(frozen=True, eq=False)
class FourierReport(SpectralReport):
    """A :class:`SpectralReport` of the walk on the n-cube, held in Fourier
    coordinates: ``clusters``, ``basis`` and ``untrapped`` are built only
    when read.  It overrides only what its frame changes: the start in W's
    coordinates and A_r = blockdiag(W_c+ U_k W_c) - F+ G, with F and G the
    final rows of W and U W, come from the blocks; no D x D array and no
    D-tall basis is formed for them.  The rows of its ``groups`` are
    members of ``frame``, given when the report is built."""

    frame: Frame | None = None

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def held_entries(self) -> int:
        return _entries(self.frame.n, len(self.finals))

    def _build_clusters(self) -> tuple:
        return tuple(self.frame.cluster(p) for p in range(len(self.frame.lams)))

    def _synthesized(self, coef: np.ndarray) -> np.ndarray:
        """The D-tall columns whose members' coefficients are the columns of
        ``coef``, synthesized SYNTHESIS_COLUMNS at a time."""
        out = np.empty_like(coef)
        for lo in range(0, coef.shape[1], SYNTHESIS_COLUMNS):
            out[:, lo:lo + SYNTHESIS_COLUMNS] = self.frame.synthesize(coef[:, lo:lo + SYNTHESIS_COLUMNS])
        return out

    def _check_columns(self, width: int, beside: int = 0) -> None:
        """Refuse a D x width basis before it is built, with ``beside``
        more entries held at once."""
        _check_memory(self.dim, BASIS_ARRAYS * self.dim * (width + 1) + beside)

    def _build_untrapped(self) -> np.ndarray:
        self._check_columns(self.untrapped_dim)
        coef = np.zeros((self.dim, self.untrapped_dim), dtype=complex)
        first = np.cumsum(self.rank) - self.rank  # each cluster's first column of W
        for g in self.groups:
            for rows, z, rank, col in zip(g.rows, g.z, self.rank[g.clusters], first[g.clusters]):
                coef[rows, col:col + rank] = z[:rank].conj().T
        return self._synthesized(coef)

    def _build_basis(self) -> np.ndarray:
        """Each cluster's null directions, the right singular vectors past its
        rank, from one full stacked SVD per multiplicity."""
        self._check_columns(self.trapped_dim, sum(g.rows.size * g.rows.shape[1] for g in self.groups))
        coef = np.zeros((self.dim, self.trapped_dim), dtype=complex)
        col = 0
        for g in self.groups:
            m = g.rows.shape[1]
            _, _, vh = np.linalg.svd(g.overlap)
            for rows, vhc, rank in zip(g.rows, vh, self.rank[g.clusters]):
                coef[rows, col:col + m - rank] = vhc[rank:].conj().T
                col += m - rank
        return self._synthesized(coef)

    def _project(self, coords: np.ndarray) -> np.ndarray:
        """W+ x for the members' coefficients of x along its first axis."""
        x = coords.reshape(self.dim, -1)
        out = np.zeros((self.untrapped_dim + 1, x.shape[1]), dtype=complex)
        for g in self.groups:
            out[g.slots] = g.z @ x[g.rows]
        return out[:-1].reshape((-1,) + coords.shape[1:])

    def untrapped_start(self, state: np.ndarray) -> np.ndarray:
        """W+ psi_0, or W+ rho_0 W, from the members' coefficients of the start."""
        start = self._project(self.frame.coordinates(state))
        if state.ndim == 1:
            return start
        return self._project(self.frame.coordinates(start.conj().T)).conj().T

    def reduced_step(self) -> np.ndarray:
        """A_r = blockdiag(W_c+ U W_c) - F+ G: each cluster's block from the
        block matrices y+ U_k y of its members, F and G the finals' rows of
        W and U W."""
        frame, r = self.frame, self.untrapped_dim
        b, n = 1 << frame.n, frame.n
        width = max(g.z.shape[1] for g in self.groups)
        zt = np.zeros((self.dim, width), dtype=complex)  # row j: member j's coefficients
        for g in self.groups:
            zt[g.rows, :g.z.shape[1]] = g.z.conj().transpose(0, 2, 1)
        label = frame.labels.reshape(b, n)
        step = frame.vectors.conj().transpose(0, 2, 1) @ frame.blocks @ frame.vectors
        step *= label[:, :, None] == label[:, None, :]  # y+ U_k y within each cluster
        uz = (step @ zt.reshape(b, n, width)).reshape(self.dim, width)  # U W, by members
        a_r = np.zeros((r + 1, r + 1), dtype=complex)
        f = np.zeros((len(self.finals), r + 1), dtype=complex)  # the finals' rows of W
        g_rows = np.zeros_like(f)  # and of U W
        for g in self.groups:
            uzg = uz[g.rows][:, :, :g.z.shape[1]]
            a_r[g.slots[:, :, None], g.slots[:, None, :]] = g.z @ uzg
            f[:, g.slots] = g.fin.transpose(1, 0, 2)
            g_rows[:, g.slots] = (g.overlap @ uzg).transpose(1, 0, 2)
        return (a_r - f.conj().T @ g_rows)[:r, :r]


def cube_report(u, coin: np.ndarray, p_f: np.ndarray, tol: float) -> FourierReport:
    """:func:`spectral.infinite_hitting_projector` of the walk u on the
    n-cube, whose n x n coin is ``coin``, for the final indices p_f, with
    clusters cut at distance tol, refused first if its estimate does not
    fit."""
    n = coin.shape[0]
    _check_memory(n << n, _entries(n, len(p_f)))
    cube = frame(coin, tol)
    size = cube.multiplicities
    overlap = cube.overlap(p_f)[:, cube.members]
    position = np.arange(len(size))
    rank, warnings, groups = _rank_clusters(overlap, cube.bounds[:-1], size, cube.lams, position)
    return FourierReport(
        contributions=tuple((size - rank).tolist()),
        warnings=_in_order(warnings + _gap_warnings(cube.lams)),
        walk=u,
        finals=p_f,
        frame=cube,
        rank=rank,
        groups=_untrapped_groups(groups, cube.bounds[:-1], rank, position, cube.members),
    )
