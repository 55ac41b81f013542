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
rather than a Python pass per chain and per cluster.  Only the D-tall
products stay per chain, on column views.  The trapped subspace is kept as
an orthonormal basis B; trace(P), escape probabilities and coin-overlap
blocks are read from B, and no D x D projector is formed.  The rest of
each cluster, the eigenvectors that do see the finals, is kept too: an
orthonormal basis W of ran(I - P) made of eigenvectors of U, in which the
hitting module solves for the hitting time.  An eigensolve whose estimated
working set exceeds the memory budget (physical memory, or the cgroup
limit where lower) raises ValueError before U is built or read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BasisIndexing, ColoredGraph
from .walk import _check_memory

__all__ = [
    "EigenCluster",
    "SpectralReport",
    "CoinOverlapMatrix",
    "eigenspace_clusters",
    "infinite_hitting_projector",
    "escape_probability",
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

SUFFICIENT_FOR_INFINITE = "sufficient_for_infinite"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """One (numerically) degenerate eigenvalue of a unitary with its eigenbasis."""

    eigenvalue: complex
    multiplicity: int
    basis: np.ndarray  # D x multiplicity, orthonormal columns


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Spectral decomposition of U together with the trapped subspace.

    ``basis`` spans the trapped subspace with orthonormal columns;
    ``untrapped`` spans its orthogonal complement, which holds the finals,
    with orthonormal eigenvectors of U.  ``contributions`` counts the trapped
    dimensions contributed by each cluster, in cluster order.  Warnings, in
    cluster order, record nullspace rank decisions that fell within 10x of
    the singular value cutoff, and neighbouring clusters whose eigenvalues
    lie within 10x of the cluster tolerance.
    """

    clusters: tuple[EigenCluster, ...]
    basis: np.ndarray
    untrapped: np.ndarray
    contributions: tuple[int, ...]
    warnings: tuple[str, ...] = ()

    @property
    def trace_p(self) -> float:
        return float(np.linalg.norm(self.basis) ** 2)

    @property
    def trace_int(self) -> int:
        return int(round(self.trace_p))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _walk_dim(u) -> int:
    """D of a WalkOperator or a square array, without reading a dense U."""
    return u.dim if hasattr(u, "dim") else np.shape(u)[0]


def _as_matrix(u) -> np.ndarray:
    """U as a dense matrix, refused before it is read or built if the
    eigensolve on it would not fit in the memory budget."""
    d = _walk_dim(u)
    _check_memory(d, EIGENSOLVE_WORK_ARRAYS * d * d)
    return np.asarray(getattr(u, "matrix", u))


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
    new_run[..., 1:] = np.diff(values, axis=-1) > tol
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


def _split(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, first columns, basis) of the clusters of unitary m, in chain order.

    Cluster i's orthonormal eigenbasis is the block of columns of the D x D
    ``basis`` from ``first[i]`` up to the next cluster's first column.  Each
    chain's D-tall work runs on column views; its small blocks are stacked
    with those of the other chains of its length and split together.
    """
    cos, w = np.linalg.eigh((m + m.conj().T) / 2)
    ikw = ((m - m.conj().T) / 2) @ w  # i K W
    starts = np.flatnonzero(_runs(cos, max(tol, np.sqrt(tol))))
    blocks = []
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(cos)]):
        wc, ikc = w[:, lo:hi], ikw[:, lo:hi]
        t = wc.conj().T @ ikc  # i W_c+ K W_c
        residual = float(np.linalg.norm(ikc - wc @ t))
        if not residual <= tol:
            raise ValueError(
                f"matrix is not normal (eigenspace block residual {residual:.3e} > {tol:.0e})"
            )
        blocks.append(t)
    del ikw

    lengths = np.diff([*starts, len(cos)])
    wide = cos[starts + lengths - 1] - cos[starts] > tol
    firsts, lams, turns = [], [], []  # turns: (chain start, rotation of its columns)
    for i in np.flatnonzero(wide).tolist():  # cosines spread wider than tol
        c = cos[starts[i]:starts[i] + lengths[i]]
        parts = _joint_blocks(c, -1j * blocks[i], tol)
        at = np.cumsum([0] + [p.shape[1] for p in parts[:-1]])
        x = np.hstack(parts)
        rayleigh = np.sum(x.conj() * ((np.diag(c) + blocks[i]) @ x), axis=0)
        firsts.append(starts[i] + at)
        lams.append(np.add.reduceat(rayleigh, at))
        turns.append((starts[i], x))
    for size in sorted(set(lengths[~wide].tolist())):
        group = np.flatnonzero((lengths == size) & ~wide)
        c = cos[starts[group, None] + np.arange(size)]
        t = np.stack([blocks[i] for i in group])
        mc = t + c[:, :, None] * np.eye(size)  # W_c+ U W_c
        whole, y, new_run = _eigen_runs(-1j * t, tol)
        firsts.append(starts[group[whole]])
        lams.append(np.trace(mc[whole], axis1=1, axis2=2))
        if whole.all():
            continue
        split = starts[group[~whole]]
        rayleigh = np.sum(y.conj() * (mc[~whole] @ y), axis=1)  # per eigenvector
        at = np.flatnonzero(new_run)  # flat index of each run's first eigenvector
        firsts.append(split[at // size] + at % size)
        lams.append(np.add.reduceat(rayleigh.ravel(), at))
        turns += zip(split.tolist(), y)

    first = np.concatenate(firsts)
    order = np.argsort(first)
    lam = np.concatenate(lams)[order]
    basis = w.astype(complex, copy=False)
    for lo, x in turns:
        basis[:, lo:lo + len(x)] = basis[:, lo:lo + len(x)] @ x
    return lam / np.abs(lam), first[order], basis


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
    chain's block residual ||K W_c - W_c (W_c+ K W_c)|| exceeds tol.
    """
    lams, first, basis = _split(_as_matrix(u), tol)
    return _clusters(lams, first, basis, _phase_order(lams, tol))


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
    index outside [0, D) raises ValueError.
    """
    m = _as_matrix(u)
    p_f = _final_array(p_f, m.shape[0])
    lams, first, v = _split(m, CLUSTER_TOL)
    dim, n = v.shape[0], len(lams)
    order = _phase_order(lams, CLUSTER_TOL)
    position = np.empty_like(order)
    position[order] = np.arange(n)
    size = np.diff([*first, dim])
    overlap = v[p_f]

    rank = np.zeros(n, dtype=int)
    warnings = []  # (cluster position, message)
    for k in sorted(set(size.tolist())):
        group = np.flatnonzero(size == k)
        _, sv, vh = np.linalg.svd(overlap[:, first[group, None] + np.arange(k)].transpose(1, 0, 2))
        cutoff = NULLSPACE_RTOL * sv[:, :1]
        kept = sv > cutoff
        rank[group] = kept.sum(axis=1)
        for i, band in zip(group, np.sum(kept & (sv <= 10 * cutoff), axis=1).tolist()):
            if band:
                warnings.append((position[i], f"cluster {position[i]} (eigenvalue "
                                 f"{complex(lams[i]):.6f}): {band} singular value(s) "
                                 "within 10x of cutoff"))
        for i, vhi in zip(group.tolist(), vh):
            if 0 < rank[i] < k:  # rotate the first rank columns onto the overlap's row space
                cols = slice(first[i], first[i] + k)
                v[:, cols] = v[:, cols] @ vhi.conj().T

    ring = lams[order]
    gaps = np.abs(ring - np.roll(ring, -1))  # cluster i to cluster i + 1, and around
    pairs = n if n > 2 else n - 1  # two clusters are one pair of neighbours, not two
    for i in np.flatnonzero(gaps[:pairs] <= 10 * CLUSTER_TOL).tolist():
        j = (i + 1) % n
        warnings.append((i, f"clusters {i} and {j} (eigenvalues {complex(ring[i]):.6f} and "
                         f"{complex(ring[j]):.6f}): gap {gaps[i]:.1e} within 10x of the "
                         "cluster tolerance"))

    columns = np.argsort(np.repeat(position, size), kind="stable")  # in cluster order
    sees_finals = (np.arange(dim) - np.repeat(first, size) < np.repeat(rank, size))[columns]
    return SpectralReport(
        clusters=_clusters(lams, first, v, order),
        basis=np.take(v, columns[~sees_finals], axis=1),
        untrapped=np.take(v, columns[sees_finals], axis=1),
        contributions=tuple((size - rank)[order].tolist()),
        warnings=tuple(msg for _, msg in sorted(warnings, key=lambda w: w[0])),
    )


def escape_probability(report: SpectralReport, state: np.ndarray) -> float:
    """Mass of a state (vector or density matrix) inside the trapped subspace."""
    state = np.asarray(state)
    if state.ndim == 1:
        amps = report.basis.conj().T @ state
        return float(np.real(np.vdot(amps, amps)))
    if state.ndim == 2:
        return float(np.real(np.vdot(report.basis, state @ report.basis)))
    raise ValueError("state must be a vector or a density matrix")


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


def coin_overlap_matrix(
    report: SpectralReport, g: ColoredGraph, vertex: int
) -> CoinOverlapMatrix:
    idx = BasisIndexing.from_graph(g)
    rows = np.asarray(idx.vertex_indices(vertex))
    b = report.basis[rows]
    block = b @ b.conj().T
    herm_defect = float(np.max(np.abs(block - block.conj().T))) if block.size else 0.0
    if not herm_defect <= 1e-10:
        raise ValueError(f"coin-overlap block not Hermitian (defect {herm_defect:.3e})")
    block = (block + block.conj().T) / 2
    w, v = np.linalg.eigh(block)
    if w.size and not w[0] >= -1e-10:
        raise ValueError(f"coin-overlap block not PSD (min eigenvalue {w[0]:.3e})")
    return CoinOverlapMatrix(vertex, block, w, v)


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
