"""Eigenstructure of walk operators and the never-arriving subspace.

The projector P built here spans every eigenvector of U with no amplitude
on the final-vertex subspace.  A walk started inside ran(P) is never
detected, so trace(P) > 0 is exactly the infinite-hitting-time condition;
the per-vertex coin-overlap blocks of P identify which local coin states
avoid (or cannot avoid) being trapped.

A unitary is normal, so its spectrum comes from Hermitian eigensolves: one
of the Hermitian part (U + U+)/2, then small ones inside each cluster of
its eigenvalues (``eigenspace_clusters``); no general eigensolver or QR is
used, and non-normal input is rejected.  The trapped subspace is kept as an
orthonormal basis B; trace(P), escape probabilities and coin-overlap
blocks are read from B, and no D x D projector is formed.  The rest of
each cluster, the eigenvectors that do see the finals, is kept too: an
orthonormal basis W of ran(I - P) made of eigenvectors of U, in which the
hitting module solves for the hitting time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BasisIndexing, ColoredGraph

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
    dimensions contributed by each cluster, in cluster order.  Warnings
    record nullspace rank decisions that fell within 10x of the singular
    value cutoff.
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


def _as_matrix(u) -> np.ndarray:
    return np.asarray(getattr(u, "matrix", u), dtype=complex)


def _runs(values: np.ndarray, tol: float) -> list[slice]:
    """Slices of ascending ``values`` over the runs whose neighbours lie within tol."""
    v = values.tolist()
    cuts = [0, *(i for i in range(1, len(v)) if v[i] - v[i - 1] > tol), len(v)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _eigen_runs(a: np.ndarray, tol: float) -> list[np.ndarray | None]:
    """Eigenvector blocks of Hermitian a, one per run of its eigenvalues.

    A matrix within tol/2 of a multiple of the identity in Frobenius norm
    has all its eigenvalues within tol of each other: it gives [None], the
    whole space, without an eigh.
    """
    k = len(a)
    if k == 1 or 2 * np.linalg.norm(a - np.trace(a).real / k * np.eye(k)) <= tol:
        return [None]
    vals, y = np.linalg.eigh(a)
    return [y[:, run] for run in _runs(vals, tol)]


def _joint_blocks(c: np.ndarray, s: np.ndarray, tol: float) -> list[np.ndarray | None]:
    """Orthonormal column blocks (None for the whole space) on which diag(c)
    and the commuting Hermitian s each have one run of eigenvalues.

    When c spans more than tol, the space is split into the runs of one
    matrix restricted to it, each part into those of the other, and so on
    in turn; a part is final once neither splits it.
    """
    if np.ptp(c) <= tol:  # diag(c) restricted to any subspace has one run
        return _eigen_runs(s, tol)
    blocks = []
    stack = [(np.eye(len(c)), np.diag(c), s, False)]  # (columns, split by, other, whole under other)
    while stack:
        x, a, b, settled = stack.pop()
        parts = _eigen_runs(x.conj().T @ a @ x, tol)
        if len(parts) > 1:
            stack.extend((x @ y, b, a, True) for y in parts)
        elif settled:
            blocks.append(x)
        else:
            stack.append((x, b, a, True))
    return blocks


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

    Each cluster basis is orthonormal and orthogonal to the other clusters'
    by construction; its eigenvalue is the normalised mean Rayleigh quotient.
    Clusters are listed by phase in [-pi, pi): the cluster within tol of -1
    comes first.  Raises ValueError when U is not normal, i.e. when a
    chain's block residual ||K W_c - W_c (W_c+ K W_c)|| exceeds tol.
    """
    m = _as_matrix(u)
    a = m.real if not m.imag.any() else m
    cos, w = np.linalg.eigh((a + a.conj().T) / 2)
    ikw = ((a - a.conj().T) / 2) @ w  # i K W

    clusters = []
    for chain in _runs(cos, max(tol, np.sqrt(tol))):
        wc, ikc = w[:, chain], ikw[:, chain]
        t = wc.conj().T @ ikc  # i W_c+ K W_c
        residual = float(np.linalg.norm(ikc - wc @ t))
        if residual > tol:
            raise ValueError(
                f"matrix is not normal (eigenspace block residual {residual:.3e} > {tol:.0e})"
            )
        mc = np.diag(cos[chain]) + t  # W_c+ U W_c
        for x in _joint_blocks(cos[chain], -1j * t, tol):
            if x is None:
                lam, basis = complex(np.trace(mc)), wc.astype(complex)
            else:
                lam, basis = complex(np.trace(x.conj().T @ mc @ x)), wc @ x
            clusters.append(EigenCluster(lam / abs(lam), basis.shape[1], basis))
    clusters.sort(key=lambda c: -np.pi if abs(c.eigenvalue + 1) <= tol else np.angle(c.eigenvalue))
    return tuple(clusters)


def _final_range_basis(p_f, dim: int) -> np.ndarray:
    """Orthonormal basis of ran(P_f) as columns, from a matrix or index list."""
    arr = np.asarray(p_f)
    if arr.ndim == 1:
        basis = np.zeros((dim, arr.size), dtype=complex)
        basis[arr.astype(int), np.arange(arr.size)] = 1.0
        return basis
    if arr.shape != (dim, dim):
        raise ValueError("projector dimension mismatch")
    w, v = np.linalg.eigh(arr.astype(complex))
    cols = v[:, w > 0.5]
    if not np.allclose(arr, cols @ cols.conj().T, atol=1e-10):
        raise ValueError("p_f is not a projector")
    return cols


def infinite_hitting_projector(
    u,
    p_f,
    *,
    cluster_tol: float = CLUSTER_TOL,
    null_rtol: float = NULLSPACE_RTOL,
) -> SpectralReport:
    """Projector onto eigenvectors of U with no final-vertex overlap.

    For a cluster with orthonormal eigenbasis V (dim k) the trapped
    directions solve the homogeneous d x k system F* V a = 0, where F spans
    the rank-d final subspace; the solution space has dimension k - rank.
    Rank decisions use singular values with a relative cutoff; values inside
    [cutoff, 10*cutoff) are reported as warnings rather than failures.  The
    clusters' bases are mutually orthogonal, so the trapped pieces are
    stacked into ``basis`` as they are.
    """
    m = _as_matrix(u)
    d = m.shape[0]
    fin_h = _final_range_basis(p_f, d).conj().T
    clusters = eigenspace_clusters(m, tol=cluster_tol)

    trapped, untrapped = [], []
    contributions = []
    warnings: list[str] = []
    for ci, cluster in enumerate(clusters):
        overlap = fin_h @ cluster.basis  # d x k
        _, sv, vh = np.linalg.svd(overlap)
        smax = sv[0] if sv.size else 0.0
        cutoff = null_rtol * smax
        if smax == 0.0:
            rank = 0
        else:
            rank = int(np.sum(sv > cutoff))
            band = np.sum((sv > cutoff) & (sv <= 10 * cutoff))
            if band:
                warnings.append(
                    f"cluster {ci} (eigenvalue {cluster.eigenvalue:.6f}): "
                    f"{band} singular value(s) within 10x of cutoff"
                )
        contributions.append(cluster.multiplicity - rank)
        trapped.append(cluster.basis @ vh[rank:].conj().T)
        # when nothing is trapped, any orthonormal basis of the cluster will do
        untrapped.append(
            cluster.basis if rank == cluster.multiplicity else cluster.basis @ vh[:rank].conj().T
        )

    return SpectralReport(
        clusters=clusters,
        basis=np.hstack(trapped),
        untrapped=np.hstack(untrapped),
        contributions=tuple(contributions),
        warnings=tuple(warnings),
    )


def escape_probability(report: SpectralReport, state: np.ndarray) -> float:
    """Mass of a state (vector or density matrix) inside the trapped subspace."""
    state = np.asarray(state, dtype=complex)
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
    if herm_defect > 1e-10:
        raise ValueError(f"coin-overlap block not Hermitian (defect {herm_defect:.3e})")
    block = (block + block.conj().T) / 2
    w, v = np.linalg.eigh(block)
    if w.size and w[0] < -1e-10:
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
