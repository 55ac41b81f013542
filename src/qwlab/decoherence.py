"""Quantum channels, decohered hitting times, and decoherence-free subspaces.

A channel is a Kraus family {A_i} with sum A_i+ A_i = I, applied between
the unitary step and the final-vertex measurement.  When every A_i is
diagonal it is the Schur multiplier rho -> m o rho with
m = sum_i diag(A_i) diag(A_i)+; dephasing of strength p (position, coin
or both) has m = (1 - p) + p M for a 0/1 mask M.  The vectorized
survive/detect maps are then the rows of U (x) U* scaled by vec(m), with
the rows outside Q_f (x) Q_f* (for N_D) or P_f (x) P_f* (for Y_D) zeroed;
the slope in p scales the same rows by M - 1.  Channels with no
multiplier keep the Kraus superoperator sum_i A_i (x) A_i* before U (x) U*.
The closed form keeps the unitary inverse/pseudo-inverse policy; the step
series iterates D x D density matrices.

A subspace is decoherence-free exactly when every Kraus (or Lindblad)
operator acts on it as a scalar; the checks here estimate the scalar from
the first basis vector and verify the residual on all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .hitting import (
    ESCAPE_ATOL,
    DEFAULT_DIM_GUARD,
    DEFAULT_STEP_CAP,
    SINGULAR_RTOL,
    HittingResult,
    MeasuredWalkSpec,
    _accumulate_series,
    _vec_identity_dot,
    closed_form_engine,
    hitting_time_closed_form,
    vectorize,
)

__all__ = [
    "Channel",
    "LindbladSet",
    "DfsVerdict",
    "KIND_BOTH",
    "KIND_COIN",
    "KIND_POSITION",
    "dephasing_channel",
    "apply_channel",
    "channel_superoperator",
    "decohered_superoperators",
    "decohered_hitting_time",
    "decohered_hitting_series",
    "hitting_time_slope",
    "dfs_check_kraus",
    "dfs_check_lindblad",
    "swap_dephasing_example",
]

COMPLETENESS_ATOL = 1e-10
DFS_ATOL = 1e-9
# residual mass of the series that estimates the escape of a singular I - N_D
ESCAPE_SERIES_EPSILON = 1e-9

KIND_BOTH = "both"
KIND_COIN = "coin"
KIND_POSITION = "position"


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map in Kraus form.

    ``schur`` is derived: sum_i diag(A_i) diag(A_i)+ when every A_i is
    diagonal (the channel is then rho -> schur o rho), else None.
    """

    kraus: tuple[np.ndarray, ...]
    label: str = "channel"
    schur: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=complex) for a in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for a in ops:
            if a.shape != (d, d):
                raise ValueError("Kraus operators must share one square shape")
            total += a.conj().T @ a
        defect = float(np.max(np.abs(total - np.eye(d))))
        if defect > COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated (defect {defect:.3e})")
        schur = None
        off_diagonal = ~np.eye(d, dtype=bool)
        if not any(np.any(a[off_diagonal]) for a in ops):
            schur = np.zeros((d, d), dtype=complex)
            for a in ops:
                schur += np.outer(np.diag(a), np.diag(a).conj())
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "schur", schur)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def is_identity(self) -> bool:
        return len(self.kraus) == 1 and bool(
            np.array_equal(self.kraus[0], np.eye(self.dim))
        )


@dataclass(frozen=True, eq=False)
class LindbladSet:
    """Lindblad operators with nonnegative rates (no completeness constraint)."""

    ops: tuple[np.ndarray, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(m, dtype=complex) for m in self.ops)
        rates = tuple(float(r) for r in self.rates)
        if len(ops) != len(rates):
            raise ValueError("one rate per Lindblad operator")
        if any(r < 0 for r in rates):
            raise ValueError("rates must be nonnegative")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "rates", rates)


def _basis_projectors(kind: str, num_vertices: int, coin_dim: int) -> list[np.ndarray]:
    """Diagonal projectors onto the classes of a label of walk index i = v*coin_dim + c."""
    i = np.arange(num_vertices * coin_dim)
    labels = {KIND_BOTH: i, KIND_COIN: i % coin_dim, KIND_POSITION: i // coin_dim}
    if kind not in labels:
        raise ValueError(f"unknown dephasing kind {kind!r}")
    label = labels[kind]
    return [np.diag((label == k).astype(complex)) for k in range(label.max() + 1)]


def dephasing_channel(
    kind: str, p: float, num_vertices: int, coin_dim: int = 1
) -> Channel:
    """Dephasing of strength p in the chosen basis family.

    Kraus set sqrt(1-p) I together with sqrt(p) Pi_i over the projector
    family: rank-1 basis projectors for ``both``, coin projectors for
    ``coin``, position projectors for ``position``.  Completeness holds
    exactly because each family sums to the identity.  The ``schur``
    multiplier is (1 - p) + p M, where the 0/1 mask M keeps (i, j) when i
    and j share a basis state, coin or vertex.  Unknown kinds are rejected.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("dephasing strength must lie in [0, 1]")
    projectors = _basis_projectors(kind, num_vertices, coin_dim)
    ops: list[np.ndarray] = []
    if p < 1.0:
        ops.append(np.sqrt(1.0 - p) * np.eye(num_vertices * coin_dim, dtype=complex))
    if p > 0.0:
        ops.extend(np.sqrt(p) * pi for pi in projectors)
    return Channel(tuple(ops), label=f"dephasing-{kind}(p={p})")


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if ch.schur is not None:
        return ch.schur * rho
    out = np.zeros_like(rho)
    for a in ch.kraus:
        out += a @ rho @ a.conj().T
    return out


def channel_superoperator(ch: Channel) -> np.ndarray:
    """sum_i A_i (x) A_i*, the row-stacked matrix of the channel."""
    d = ch.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in ch.kraus:
        out += np.kron(a, a.conj())
    return out


def _survive_detect(
    rows: np.ndarray, weights: np.ndarray, final: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(N, Y): rows of a vectorized map scaled by D x D weights, masked by
    Q_f (x) Q_f* (row (i, j) kept iff neither i nor j is final) and by
    P_f (x) P_f* (kept iff both are)."""
    is_final = np.zeros(weights.shape[0], dtype=bool)
    is_final[final] = True
    n_w = weights * np.logical_and.outer(~is_final, ~is_final)
    y_w = weights * np.logical_and.outer(is_final, is_final)
    return n_w.reshape(-1, 1) * rows, y_w.reshape(-1, 1) * rows


def decohered_superoperators(
    spec: MeasuredWalkSpec, ch: Channel
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized survive/detect maps with the channel after each unitary step."""
    if ch.dim != spec.dim:
        raise ValueError("channel dimension does not match the walk")
    u = spec.walk.matrix
    uu = np.kron(u, u.conj())
    if ch.schur is None:
        return _survive_detect(
            channel_superoperator(ch) @ uu, np.ones((spec.dim, spec.dim)), spec.final_array
        )
    return _survive_detect(uu, ch.schur, spec.final_array)


def decohered_hitting_time(
    spec: MeasuredWalkSpec,
    ch: Channel,
    *,
    dim_guard: int = DEFAULT_DIM_GUARD,
    singular_rtol: float = SINGULAR_RTOL,
    escape_atol: float = ESCAPE_ATOL,
) -> HittingResult:
    """Closed-form hitting time of the decohered measured walk.

    The identity channel is the unitary walk and goes to
    :func:`hitting_time_closed_form`.  Otherwise the unitary policy applies
    when I - N_D is singular, with the escape mass estimated by iterating
    the decohered series to a stall.
    """
    if ch.is_identity and ch.dim == spec.dim:
        return hitting_time_closed_form(
            spec, dim_guard=dim_guard, singular_rtol=singular_rtol, escape_atol=escape_atol
        )
    if spec.dim > dim_guard:
        raise ValueError(f"dimension {spec.dim} exceeds guard {dim_guard}")
    n_d, y_d = decohered_superoperators(spec, ch)

    def escape() -> float:
        result = decohered_hitting_series(spec, ch, ESCAPE_SERIES_EPSILON)
        return result.escape_probability or 0.0

    return closed_form_engine(
        n_d,
        y_d,
        vectorize(spec.rho0),
        singular_rtol=singular_rtol,
        escape_atol=escape_atol,
        escape_fn=escape,
    )


def decohered_hitting_series(
    spec: MeasuredWalkSpec,
    ch: Channel,
    epsilon: float,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    stall_window: int | None = None,
) -> HittingResult:
    """Step-iterated hitting time: sigma = Phi(U rho U+), detect on P_f, keep Q_f sigma Q_f."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if ch.dim != spec.dim:
        raise ValueError("channel dimension does not match the walk")
    u = spec.walk.matrix
    u_dag = u.conj().T
    fin = spec.final_array

    def probabilities():
        rho = spec.rho0
        while True:
            sigma = apply_channel(ch, u @ rho @ u_dag)
            yield max(float(np.real(sigma[fin, fin].sum())), 0.0)
            sigma[fin, :] = 0.0
            sigma[:, fin] = 0.0
            rho = sigma

    window = 4 * spec.dim if stall_window is None else stall_window
    return _accumulate_series(
        probabilities(), epsilon, step_cap=step_cap, stall_window=window
    )


def hitting_time_slope(
    spec: MeasuredWalkSpec,
    kind: str,
    p: float,
    *,
    singular_rtol: float = SINGULAR_RTOL,
) -> float:
    """Analytic derivative of the dephased hitting time with respect to p.

    Differentiating tau = vec(I) . Y(p) (I - N(p))^(-2) vec(rho_0) with the
    product rule on the squared resolvent S = (I - N)^(-1) gives

        dtau/dp = vec(I) . Y' S^2 rho + vec(I) . Y (S N' S^2 + S^2 N' S) rho

    with constant N' and Y' because the dephasing multiplier (1 - p) + p M
    is affine in p: they are the rows of U (x) U* scaled by M - 1.
    Raises when I - N(p) is singular (at p = 0 for walks with a trapped
    subspace the slope is undefined in this form).
    """
    if spec.walk.graph is None:
        raise ValueError("slope needs the walk's graph to build the dephasing family")
    g = spec.walk.graph
    nv, cd = g.num_vertices, g.degree_value
    u = spec.walk.matrix
    uu = np.kron(u, u.conj())
    fin = spec.final_array
    n_d, y_d = _survive_detect(uu, dephasing_channel(kind, p, nv, cd).schur, fin)
    m = np.eye(n_d.shape[0]) - n_d
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= singular_rtol * sv[0]:
        raise ValueError(
            f"I - N is singular at p={p}; the slope formula needs an invertible resolvent"
        )

    mask = dephasing_channel(kind, 1.0, nv, cd).schur
    dn, dy = _survive_detect(uu, mask - 1.0, fin)
    # three solves with one factorisation each: S rho; [S^2 rho, S N' S rho];
    # [S N' S^2 rho, S^2 N' S rho]
    s1 = np.linalg.solve(m, vectorize(spec.rho0))
    s2, t = np.linalg.solve(m, np.column_stack([s1, dn @ s1])).T
    w1, w2 = np.linalg.solve(m, np.column_stack([dn @ s2, t])).T
    term1 = _vec_identity_dot(dy @ s2)
    term2 = _vec_identity_dot(y_d @ (w1 + w2))
    return term1 + term2


# ----------------------------------------------------------------------
# Decoherence-free subspaces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DfsVerdict:
    """Outcome of a decoherence-free-subspace check.

    ``coefficients`` holds the per-operator scalars when the subspace is a
    DFS; ``witness`` is (operator index, basis column, residual) otherwise.
    """

    is_dfs: bool
    coefficients: tuple[complex, ...] | None = None
    witness: tuple[int, int, float] | None = None


def _check_scalar_action(
    ops: Sequence[np.ndarray], basis: np.ndarray, atol: float
) -> DfsVerdict:
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[1] == 0:
        raise ValueError("basis must be a nonempty matrix of columns")
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-9:
        raise ValueError("basis columns must be orthonormal")
    coeffs = []
    for i, a in enumerate(ops):
        v0 = basis[:, 0]
        c = complex(np.vdot(v0, a @ v0))
        for j in range(basis.shape[1]):
            v = basis[:, j]
            residual = float(np.linalg.norm(a @ v - c * v))
            if residual > atol:
                return DfsVerdict(False, witness=(i, j, residual))
        coeffs.append(c)
    return DfsVerdict(True, coefficients=tuple(coeffs))


def dfs_check_kraus(ch: Channel, basis: np.ndarray, *, atol: float = DFS_ATOL) -> DfsVerdict:
    """Scalar-action test A_i v = c_i v for every basis vector of the subspace."""
    return _check_scalar_action(ch.kraus, basis, atol)


def dfs_check_lindblad(
    lset: LindbladSet, basis: np.ndarray, *, atol: float = DFS_ATOL
) -> DfsVerdict:
    return _check_scalar_action(lset.ops, basis, atol)


def _position_bit_swap(n: int, i: int, j: int) -> np.ndarray:
    """Permutation of 0..2^n-1 exchanging bits (i-1) and (j-1)."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    dim = 1 << n
    perm = np.arange(dim)
    for v in range(dim):
        a, b = bool(v & bi), bool(v & bj)
        if a != b:
            perm[v] = v ^ bi ^ bj
    m = np.zeros((dim, dim), dtype=complex)
    m[perm, np.arange(dim)] = 1.0
    return m


def _coin_transposition(d: int, i: int, j: int) -> np.ndarray:
    m = np.eye(d, dtype=complex)
    m[[i - 1, j - 1]] = m[[j - 1, i - 1]]
    return m


def swap_dephasing_example(n: int, kappas: Iterable[float | complex]) -> Channel:
    """Nearest-neighbor qubit-swap dephasing on the hypercube walk space.

    Kraus operator i is kappa_i times the unitary that swaps position bits
    i, i+1 and transposes the matching pair of coin directions, i.e. the
    walk-basis representation of the direction transposition (i, i+1).
    Orbit states of the full direction-permutation group are fixed points
    of every such unitary, so that orbit basis is decoherence-free with
    coefficients kappa_i.  Requires sum |kappa_i|^2 = 1 over i = 1..n-1.
    """
    if n < 2:
        raise ValueError("swap dephasing needs n >= 2")
    kap = tuple(complex(k) for k in kappas)
    if len(kap) != n - 1:
        raise ValueError(f"expected {n - 1} coefficients, got {len(kap)}")
    norm = sum(abs(k) ** 2 for k in kap)
    if abs(norm - 1.0) > COMPLETENESS_ATOL:
        raise ValueError(f"sum |kappa|^2 = {norm} != 1")
    ops = []
    for i, k in enumerate(kap, start=1):
        swap = np.kron(_position_bit_swap(n, i, i + 1), _coin_transposition(n, i, i + 1))
        ops.append(k * swap)
    return Channel(tuple(ops), label=f"swap-dephasing(n={n})")
