"""Eigenvector frames: U's eigenvectors as those of the blocks a group of
translations splits it into.

A frame holds 2^bits blocks of size m, D = m 2^bits.  Each translation
x -> x XOR g of the n-cube commutes with a walk whose shift sends v*n + c
to (v XOR 2^c)*n + c (Moore and Russell, RANDOM 2002; Krovi and Brun, PRA
73, 032341 (2006)).  In the basis |k^, c> = 2^(-n/2) sum_x (-1)^(k.x) |x, c>
U therefore splits into 2^n blocks U_k = diag((-1)^(k_c)) C of the coin's
size: the frame with n bits.  Every other walk is the frame with no bits,
one block U, where the Walsh-Hadamard transform is the identity and every
sign is 1.

A frame's eigenvectors come from one stacked split of its blocks; each
cluster's final overlap has the entries 2^(-bits/2) (-1)^(k.f) y_c, and a
state enters through one Walsh-Hadamard transform.  The frame keeps U in
its own eigenbasis, cut to the split's chains, in place of the blocks, so
that a closed form reads U from the frame alone, with one body for every
frame.  The cube costs O(2^n n^3) time and O(D (n + |finals|)) memory, and
builds no D x D array and no D-tall basis unless a basis is read.

This module owns the n-cube's convention (``cube_blocks``, ``_cube_coin``,
``cube_walk``, ``_entries``) and imports nothing from
:mod:`qwlab.spectral`, which splits blocks into frames, chooses the route
and builds the reports.  ``cube_walk`` is its one public reader of a walk:
it turns a dense one-block n-cube walk into the factored walk of its n x n
coin and the cube's shift, so that a caller holding the dense U checks it
once and every later reader takes the O(D n) paths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .walk import WalkOperator, _check_memory

__all__ = ["Frame", "cube_blocks", "cube_walk"]

# complex entries the cube's frame holds at once, per D x n and per D x
# final index (a hitting time's peak by tracemalloc, beside its r x r solve,
# stays under 6 D n + 7 D |finals| on hypercube:6-12, grover and dft, one
# and two final vertices), and per D x column of a basis it builds, beside
# each cluster's full SVD (at most 5.5 on hypercube:4-8)
COIN_ARRAYS = 8
FINAL_ARRAYS = 8
BASIS_ARRAYS = 7
# complex D x D arrays held while the frame with no bits builds a basis: U,
# V, and W with B; besides, U on its chains and two chunks of
# SYNTHESIS_COLUMNS columns
DENSE_BASIS_ARRAYS = 3
# bits of the index that one Walsh-Hadamard matrix product transforms, and
# the columns of a basis built at once
WALSH_HADAMARD_BITS = 4
SYNTHESIS_COLUMNS = 256


def _entries(n: int, finals: int) -> int:
    """Complex entries the frame of the n-cube holds at once."""
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
    if not (n and y.size):  # no bits: the identity
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
    """Eigenvectors of a walk split into 2^bits blocks of size m, by cluster,
    and U in their basis.

    Member j = k*m + i of the spectrum is column i of ``vectors[k]``, the
    eigenvector y -> 2^(-bits/2) (-1)^(k.x) y_c of U at rows x*m + c; with
    no bits, column j of U's eigenvectors V.  ``chains`` holds U on its
    chains of nearby eigenvalues, runs of members within one block: one
    (starts, blocks) pair per chain length L, chain g being the members
    starts[g] to starts[g] + L - 1 and blocks[g] the L x L matrix y+ U y on
    them, zero between members of different clusters; U has no entry
    between chains, to the eigensolve's tolerance.
    ``lams`` holds the clusters' eigenvalues in phase order, and cluster
    p's members are ``members[bounds[p]:bounds[p + 1]]``.
    """

    bits: int
    chains: tuple[tuple[np.ndarray, np.ndarray], ...]
    vectors: np.ndarray
    lams: np.ndarray
    members: np.ndarray
    bounds: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1] << self.bits

    @property
    def multiplicities(self) -> np.ndarray:
        return self.bounds[1:] - self.bounds[:-1]

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """The members' coefficients of x along its first axis: one
        Walsh-Hadamard transform, then y+ in each block, as (y^T x*)*, so
        that no conjugate of the eigenvectors is formed."""
        b, m = self.vectors.shape[:2]
        xh = _walsh_hadamard(x.reshape(b, -1), self.bits).reshape(b, m, -1)
        return np.conjugate(self.vectors.transpose(0, 2, 1) @ xh.conj()).reshape(x.shape)

    def synthesize(self, coef: np.ndarray) -> np.ndarray:
        """The D x w columns whose members' coefficients are the D x w ``coef``."""
        b, m = self.vectors.shape[:2]
        xh = (self.vectors @ coef.reshape(b, m, -1)).reshape(b, -1)
        return _walsh_hadamard(xh, self.bits).reshape(coef.shape)

    def overlap(self, finals: np.ndarray) -> np.ndarray:
        """Rows ``finals`` of every member, as the |finals| x D entries
        2^(-bits/2) (-1)^(k.f) y_c: V[finals] with no bits."""
        if not self.bits:
            return self.vectors[0][finals]
        b, m = self.vectors.shape[:2]
        f, c = np.divmod(finals, m)
        signs = _parity_signs(f[:, None] & np.arange(b), self.bits) / np.sqrt(b)
        rows = self.vectors[:, c, :].transpose(1, 0, 2) * signs[:, :, None]
        return rows.reshape(len(finals), self.dim)

    def span(self, parts, width: int, beside: int = 0) -> np.ndarray:
        """The D x width columns, column slots[g, j] the sum of members
        rows[g, i] times coef[g, j, i], for each (rows, coef, slots) of the
        iterable ``parts``: G x k members, G x w x k coefficients and G x w
        slots.  A slot of ``width`` is dropped.

        With no bits each chunk of clusters gathers its columns of V, as
        rows, and turns them, and no product with the D x D V is formed; a
        cube's coefficients go in one D x width array, synthesized
        SYNTHESIS_COLUMNS at a time.  Refused before ``parts`` is read if
        the columns, with ``beside`` more entries held, would not fit.
        """
        d = self.dim
        if not self.bits:
            chained = sum(blocks.size for _, blocks in self.chains)
            _check_memory(d, DENSE_BASIS_ARRAYS * d * d + chained + 2 * d * min(d, SYNTHESIS_COLUMNS) + beside)
            vt, out = self.vectors[0].T, np.empty((width + 1, d), dtype=complex)
            for rows, coef, slots in parts:
                step = max(1, SYNTHESIS_COLUMNS // rows.shape[1])
                for lo in range(0, len(rows), step):
                    at = slice(lo, lo + step)
                    out[slots[at]] = coef[at] @ vt[rows[at]]
            return out[:width].T
        _check_memory(d, BASIS_ARRAYS * d * (width + 1) + beside)
        coefs = np.zeros((d, width + 1), dtype=complex)
        for rows, coef, slots in parts:
            coefs[rows[:, None, :], slots[:, :, None]] = coef
        coefs, out = coefs[:, :width], np.empty((d, width), dtype=complex)
        for lo in range(0, width, SYNTHESIS_COLUMNS):
            out[:, lo:lo + SYNTHESIS_COLUMNS] = self.synthesize(coefs[:, lo:lo + SYNTHESIS_COLUMNS])
        return out


def cube_blocks(coin: np.ndarray) -> np.ndarray:
    """The 2^n blocks diag((-1)^(k_c)) C of the walk on the n-cube with the
    n x n coin C."""
    n = coin.shape[0]
    k = np.arange(1 << n)
    signs = 1 - 2 * ((k[:, None] >> np.arange(n)) & 1)  # (-1)^(k_c)
    return signs[:, :, None] * coin


def _cube_shift(n: int) -> np.ndarray:
    """The image of the n-cube's shift as ``build_hypercube`` colors it:
    v*n + c goes to (v XOR 2^c)*n + c."""
    v, c = np.divmod(np.arange(n << n), n)
    return (v ^ (1 << c)) * n + c


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
    shifted = _cube_shift(n)
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


def cube_walk(op: WalkOperator) -> WalkOperator:
    """The walk in its factors: a dense one-block walk that is the n-cube's
    walk, as :func:`_cube_coin` reads it, becomes the walk of its n x n coin
    and the cube's shift, on the same graph, whose ``matrix`` equals the
    block entry for entry; any other walk, a factored one included, is
    returned as it is.  The dense block is checked once, in O(D^2), and
    never gathered; what reads the result takes its O(D b) paths."""
    coin = _cube_coin(op)
    if coin is None or coin is op.block:  # not the cube's walk, or factored already
        return op
    return WalkOperator(coin, op.graph, image=_cube_shift(coin.shape[0]))
