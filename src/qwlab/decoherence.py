"""Quantum channels, decohered hitting times, and decoherence-free subspaces.

A channel is a Kraus family {A_i} with sum A_i+ A_i = I.  Interleaving the
channel between the unitary step and the final-vertex measurement replaces
the vectorized superoperators by

    N_D = (Q_f (x) Q_f*) . (sum_i A_i (x) A_i*) . (U (x) U*)
    Y_D = (P_f (x) P_f*) . (sum_i A_i (x) A_i*) . (U (x) U*)

and the closed-form hitting value keeps its shape with the same
inverse/pseudo-inverse policy.

A subspace is decoherence-free exactly when every Kraus (or Lindblad)
operator acts on it as a scalar; the checks here estimate the scalar from
the first basis vector and verify the residual on all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
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

KIND_BOTH = "both"
KIND_COIN = "coin"
KIND_POSITION = "position"


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map in Kraus form."""

    kraus: tuple[np.ndarray, ...]
    label: str = "channel"

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
        object.__setattr__(self, "kraus", ops)

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


def _basis_projectors(kind: str, num_vertices: int, coin_dim: int):
    d = num_vertices * coin_dim
    if kind == KIND_BOTH:
        for i in range(d):
            p = np.zeros((d, d), dtype=complex)
            p[i, i] = 1.0
            yield p
    elif kind == KIND_COIN:
        eye_v = np.eye(num_vertices)
        for c in range(coin_dim):
            pc = np.zeros((coin_dim, coin_dim))
            pc[c, c] = 1.0
            yield np.kron(eye_v, pc).astype(complex)
    elif kind == KIND_POSITION:
        eye_c = np.eye(coin_dim)
        for v in range(num_vertices):
            pv = np.zeros((num_vertices, num_vertices))
            pv[v, v] = 1.0
            yield np.kron(pv, eye_c).astype(complex)
    else:
        raise ValueError(f"unknown dephasing kind {kind!r}")


def dephasing_channel(
    kind: str, p: float, num_vertices: int, coin_dim: int = 1
) -> Channel:
    """Dephasing of strength p in the chosen basis family.

    Kraus set sqrt(1-p) I together with sqrt(p) Pi_i over the projector
    family: rank-1 basis projectors for ``both``, coin projectors for
    ``coin``, position projectors for ``position``.  Completeness holds
    exactly because each family sums to the identity.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("dephasing strength must lie in [0, 1]")
    d = num_vertices * coin_dim
    ops: list[np.ndarray] = []
    if p < 1.0:
        ops.append(np.sqrt(1.0 - p) * np.eye(d, dtype=complex))
    if p > 0.0:
        ops.extend(np.sqrt(p) * pi for pi in _basis_projectors(kind, num_vertices, coin_dim))
    return Channel(tuple(ops), label=f"dephasing-{kind}(p={p})")


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
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


def _masked_rows(mat: np.ndarray, final: np.ndarray, dim: int, keep_final: bool) -> np.ndarray:
    """Apply P_f (x) P_f* (keep_final) or Q_f (x) Q_f* from the left.

    Both are diagonal 0/1 projectors in the vectorized basis, so they act by
    zeroing rows: row (i, j) survives P (x) P* iff both i and j are final,
    and survives Q (x) Q* iff neither is.
    """
    is_final = np.zeros(dim, dtype=bool)
    is_final[final] = True
    row_keep = np.logical_and.outer(is_final, is_final) if keep_final else \
        np.logical_and.outer(~is_final, ~is_final)
    out = mat.copy()
    out[~row_keep.reshape(-1), :] = 0.0
    return out


def decohered_superoperators(
    spec: MeasuredWalkSpec, ch: Channel
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized survive/detect maps with the channel after each unitary step."""
    if ch.dim != spec.dim:
        raise ValueError("channel dimension does not match the walk")
    u = spec.walk.matrix
    uu = np.kron(u, u.conj())
    du = channel_superoperator(ch) @ uu if not ch.is_identity else uu
    fin = spec.final_array
    n_d = _masked_rows(du, fin, spec.dim, keep_final=False)
    y_d = _masked_rows(du, fin, spec.dim, keep_final=True)
    return n_d, y_d


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
        result = decohered_hitting_series(spec, ch, 1e-9)
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
    """Step-iterated hitting time of the measure-channel-step composition."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    n_d, y_d = decohered_superoperators(spec, ch)
    rho_vec = vectorize(spec.rho0)

    def probabilities():
        vec = rho_vec
        while True:
            yield max(_vec_identity_dot(y_d @ vec), 0.0)
            vec = n_d @ vec

    window = 4 * spec.dim if stall_window is None else stall_window
    return _accumulate_series(
        probabilities(), epsilon, step_cap=step_cap, stall_window=window
    )


def _dephasing_superop_derivative(
    kind: str, num_vertices: int, coin_dim: int
) -> np.ndarray:
    """d/dp of the dephasing superoperator: -I (x) I + sum_i Pi_i (x) Pi_i*."""
    d = num_vertices * coin_dim
    out = -np.eye(d * d, dtype=complex)
    for pi in _basis_projectors(kind, num_vertices, coin_dim):
        out += np.kron(pi, pi.conj())
    return out


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

    with constant N' and Y' because the dephasing family is affine in p.
    Raises when I - N(p) is singular (at p = 0 for walks with a trapped
    subspace the slope is undefined in this form).
    """
    if spec.walk.graph is None:
        raise ValueError("slope needs the walk's graph to build the dephasing family")
    g = spec.walk.graph
    nv, cd = g.num_vertices, g.degree_value
    ch = dephasing_channel(kind, p, nv, cd)
    n_d, y_d = decohered_superoperators(spec, ch)
    m = np.eye(n_d.shape[0]) - n_d
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= singular_rtol * sv[0]:
        raise ValueError(
            f"I - N is singular at p={p}; the slope formula needs an invertible resolvent"
        )

    u = spec.walk.matrix
    uu = np.kron(u, u.conj())
    d_super = _dephasing_superop_derivative(kind, nv, cd) @ uu
    fin = spec.final_array
    dn = _masked_rows(d_super, fin, spec.dim, keep_final=False)
    dy = _masked_rows(d_super, fin, spec.dim, keep_final=True)

    rho_vec = vectorize(spec.rho0)
    s1 = np.linalg.solve(m, rho_vec)        # S rho
    s2 = np.linalg.solve(m, s1)             # S^2 rho
    term1 = _vec_identity_dot(dy @ s2)
    w1 = np.linalg.solve(m, dn @ s2)        # S N' S^2 rho
    w2 = np.linalg.solve(m, np.linalg.solve(m, dn @ s1))  # S^2 N' S rho
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
