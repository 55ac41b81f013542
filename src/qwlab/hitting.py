"""Measured-walk dynamics and hitting times.

A measured walk applies the unitary U and then asks, projectively, whether
the walker sits at the final vertex.  The first-detection probabilities

    p(t) = Tr{ P_f U (Q_f U)^(t-1) rho_0 (U+ Q_f)^(t-1) U+ P_f }

define the expected hitting time tau = sum_t t p(t).  When every walker
arrives, tau is the summed survival mass: with A = Q_f U,

    tau = sum_{t>=0} Tr(A^t rho_0 A^t+) = Tr(X rho_0),

where X = sum_t (A^t)+ A^t solves the Stein equation X - A+ X A = I.

Every route reads the start in one form: the D x k columns Psi with
rho_0 = Psi Psi+ (``MeasuredWalkSpec.columns``), a pure start's one column
psi_0 or a rank-k density matrix's k.  The series steps the k columns, in
blocks of up to 64 steps at two array calls a step, the escape is
||Psi||^2 - ||W+ Psi||^2, and every closed form, this one with S = W+ Psi
(S = Psi with nothing trapped) and the decohered one with S = Psi, reads
tau = Tr(S+ X S) through one helper, ``_start_trace``: no closed form
builds a density matrix.

The sum converges exactly when U has no trapped eigenvector, one without
final-vertex amplitude.  A start state with mass in the trapped subspace
never arrives: an infinite hitting time with that escape mass (Krovi and
Brun, PRA 74, 042334 (2006)).  With no trapped subspace at all the closed
form solves on A itself, in U's dtype, so a real walk runs in float64.
Otherwise it solves in the orthonormal eigenbasis W of U's other
eigenvectors, whose range holds the finals and reduces A to the r x r
matrix A_r = W+ A W, formed from U so that the residual checks the walk
itself.  Either way the solve is Smith doubling, after an O(D^3)
eigensolve, in O(D^2) memory, each refused before it allocates if its
estimated working set exceeds the memory budget.  On the n-cube the
spectral report comes from the walk's 2^n Fourier blocks instead, and
gives the escape, W+ Psi and A_r in O(2^n n^3) time and O(D n) memory
with no D x D array; the solve is the same.  A
solve that does not converge, leaves a residual above the bound or
produces a non-finite entry raises IndeterminateError.  With a trapped
subspace this is the Moore-Penrose value of the vectorized formula

    tau = vec(I) . Y (I - N)^(-2) vec(rho_0),   N = A (x) A*,

whose dense D^2 x D^2 superoperators are kept as a small-D test oracle,
with vec(rho) = rho.reshape(-1).
The decohered closed form (decoherence module) solves its own Heisenberg
equation by GMRES, with the same Smith doubling as preconditioner.

Classical baselines: the exact hypercube first-passage time from the
Hamming-weight recursion, and a seeded Monte Carlo estimator that serves
as the oracle on arbitrary graphs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import spectral
from .errors import IndeterminateError, ThresholdUnreachableError
from .graphs import BasisIndexing, ColoredGraph
from .walk import WalkOperator, _check_bytes, _check_memory, _inexact, _start_columns

__all__ = [
    "MeasuredWalkSpec",
    "HittingResult",
    "MonteCarloEstimate",
    "measured_walk",
    "symmetric_state",
    "basis_state",
    "first_hit_distribution",
    "distribution_csv",
    "hitting_time_series",
    "concurrent_hitting_time",
    "one_shot_hitting_time",
    "superoperators",
    "superoperator_singularity",
    "hitting_time_closed_form",
    "classical_hypercube_hitting",
    "classical_hitting_monte_carlo",
]

DEFAULT_STEP_CAP = 1_000_000
SINGULAR_RTOL = 1e-9
ESCAPE_ATOL = 1e-9
STALL_GAIN = 1e-12
MAX_DOUBLINGS = 64
# r x r arrays held at once by the Stein solve: its two doubling powers, X
# and temporaries (6 r^2 measured), beside A; the start's r x k columns S
# and X S are counted apart, as 2 r k complex entries (the solve's peak is
# max(6 r^2, 2 r^2 + r k) measured at k = 1 and full rank); the spectral
# report states what it holds beside them.  Complex for A_r = W+ A W in r
# dimensions, U's dtype for A = Q_f U itself at r = D (7.0 D^2 measured
# with A, on grover and dft cycle:64 and cycle:128)
STEIN_WORK_ARRAYS = 7
# complex D x k arrays held at once by the series on a start's k columns:
# its buffer (the columns and a block's rows of finals' amplitudes, at most
# D k entries more), the product with C and the int64 gather index (3.0-3.7
# measured by tracemalloc on hypercube:4, 6 and 7, dft, k = 64)
SERIES_COLUMN_ARRAYS = 4
# steps in the series' largest block: each block's bookkeeping is spread
# over up to 64 steps, and at most 63 steps run past the stop
SERIES_BLOCK_STEPS = 64
# int64 arrays per trial held at once by the Monte Carlo walker (6.1
# measured on hypercubes, 7.1 with the per-walker bounds of glued trees)
MC_WORK_ARRAYS = 8
# bytes held per step of a first-hit distribution: its list of
# probabilities, its array and the CSV text written from it (145-182
# measured through distribution_csv on cycle:6 and hypercube:3 and 5, 10^4
# to 3 x 10^5 steps)
DISTRIBUTION_STEP_BYTES = 200

METHOD_CLOSED_FORM = "closed_form"
METHOD_PSEUDO_INVERSE = "pseudo_inverse"
METHOD_SERIES = "series"


@dataclass(frozen=True, eq=False)
class MeasuredWalkSpec:
    """Walk operator, final-vertex projector, and start state.

    ``final_indices`` (also ``final_array``) holds the flat basis indices
    supporting P_f (all coin states of the final vertices for a coined
    walk) as ``spectral._final_array`` gives them: read-only, sorted,
    without repeats and range-checked.  ``state`` is the start
    as given, a unit vector psi_0 or a density matrix rho_0, and
    ``columns`` the one form every route reads: the D x k columns Psi with
    rho_0 = Psi Psi+, built once here.  A vector is its own single column,
    a view; a density matrix is factored by the eigh that checks it, so a
    rank-k start is D x k.  ``psi0`` is the vector, or None for a mixed
    start; ``rho0`` is the density matrix, built as psi_0 psi_0+ on first
    read for a pure start, which only a channel's density step does.
    """

    walk: WalkOperator
    final_indices: np.ndarray
    state: np.ndarray
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.walk.dim
        state = _inexact(self.state)
        if state.shape == (d,):
            if not abs(np.linalg.norm(state) - 1.0) <= 1e-12:
                raise ValueError("start state must be normalized")
        elif state.shape == (d, d):
            trace = np.trace(state)
            if not (abs(trace.real - 1.0) <= 1e-12 and abs(trace.imag) <= 1e-12):
                raise ValueError("rho0 must have unit trace")
            if not np.max(np.abs(state - state.conj().T)) <= 1e-10:
                raise ValueError("rho0 must be Hermitian")
        else:
            raise ValueError(f"start state of shape {state.shape} does not match dimension {d}")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "columns", _start_columns(state))
        fin = spectral._final_array(self.final_indices, d)
        if not fin.size:
            raise ValueError("final projector must have positive rank")
        object.__setattr__(self, "final_indices", fin)

    @property
    def psi0(self) -> np.ndarray | None:
        return self.state if self.state.ndim == 1 else None

    @functools.cached_property
    def rho0(self) -> np.ndarray:
        psi = self.psi0
        return self.state if psi is None else np.outer(psi, psi.conj())

    @property
    def dim(self) -> int:
        return self.walk.dim

    @property
    def final_array(self) -> np.ndarray:
        return self.final_indices


def symmetric_state(g: ColoredGraph, vertex: int = 0) -> np.ndarray:
    """Walker at ``vertex`` with an equal superposition over its directions."""
    idx = BasisIndexing.from_graph(g)
    psi = np.zeros(idx.total_dim)
    rows = np.asarray(idx.vertex_indices(vertex))
    psi[rows] = 1.0 / np.sqrt(rows.size)
    return psi


def basis_state(g: ColoredGraph, vertex: int, color: int) -> np.ndarray:
    idx = BasisIndexing.from_graph(g)
    psi = np.zeros(idx.total_dim)
    psi[idx.index(vertex, color)] = 1.0
    return psi


def measured_walk(
    walk: WalkOperator,
    start: np.ndarray,
    *,
    final_vertices: Iterable[int] | None = None,
    final_indices: Iterable[int] | None = None,
) -> MeasuredWalkSpec:
    """Assemble a measured-walk description.

    ``start`` may be a pure state vector or a density matrix.  The finals
    are given once: as ``final_vertices``, resolved through the walk's
    graph, or as explicit ``final_indices`` for reduced (graph-free) walks.
    """
    if (final_vertices is None) == (final_indices is None):
        raise ValueError("specify exactly one of final_vertices and final_indices")
    if final_indices is None:
        if walk.graph is None:
            raise ValueError("walk has no graph; use final_indices")
        final_indices = BasisIndexing.from_graph(walk.graph).indices_for(final_vertices)
    return MeasuredWalkSpec(walk=walk, final_indices=final_indices, state=start)


# ----------------------------------------------------------------------
# Step-iterated dynamics
# ----------------------------------------------------------------------

def _hit_probabilities(spec: MeasuredWalkSpec) -> Iterator[list[float]]:
    """Yield p(1), p(2), ... in blocks of 8, 16, 32 and then 64 steps, by
    stepping the start's k columns, refused first if they would not fit in
    the memory budget.

    The columns stay in the coin-major order that WalkOperator.apply
    multiplies in, held flat, entry (i, j) at i k + j, in one buffer held
    for the whole series.  Each step is two array calls: the product with C
    into ``prod``, whose one trailing entry stays zero, and one gather from
    it that writes the finals' a = |F| k amplitudes and then the next
    state, with the finals pointed at that zero, so the one gather reads
    and zeroes them.  Step j writes a entries further into the buffer than
    step j - 1, so a block's amplitudes lie contiguous at its head, and
    p(t) for the whole block is one stacked product of conjugated
    amplitudes and amplitudes, the sum that np.vdot takes.  A block holds
    at most D // |F| steps, so its amplitudes fit in ``prod`` to be
    conjugated there.
    """
    walk = spec.walk
    d, k = spec.columns.shape
    n = d * k
    _check_memory(d, SERIES_COLUMN_ARRAYS * n)
    dtype = np.result_type(walk.block, spec.columns)
    c = walk.block.astype(dtype, copy=False)
    b = c.shape[0]
    most = min(SERIES_BLOCK_STEPS, d // spec.final_array.size)
    coin_major, rows = walk._gathers
    a = spec.final_array.size * k
    buf = np.empty(n + most * a, dtype)
    buf[:n].reshape(d, k)[...] = spec.columns[coin_major]
    lanes = np.arange(k)
    step = (rows[coin_major][:, None] * k + lanes).ravel()
    at = (np.argsort(coin_major)[spec.final_array][:, None] * k + lanes).ravel()  # the finals
    ext = np.concatenate([step[at], step])
    ext[a + at] = n
    del step
    prod = np.zeros(n + 1, dtype)
    out = prod[:n].reshape(b, -1)
    dot, take = c.dot, prod.take
    states, gathered = [], []
    size = min(8, most)
    while True:
        for j in range(len(states), size):
            states.append(buf[j * a:j * a + n].reshape(b, -1))
            gathered.append(buf[j * a:(j + 1) * a + n])
        for j in range(size):
            dot(states[j], out=out)
            take(ext, out=gathered[j], mode="clip")
        amps = buf[:size * a].reshape(size, 1, a)
        conj = np.conjugate(amps, out=prod[:size * a].reshape(size, 1, a))
        p = np.matmul(conj, amps.transpose(0, 2, 1))
        buf[:n] = buf[size * a:size * a + n]
        size = min(2 * size, most)
        yield p.real.ravel().tolist()


def _clamp_probability(p: float) -> float:
    if not p >= -1e-12:
        raise ValueError(f"negative first-hit probability {p:.3e}")
    return max(p, 0.0)


def first_hit_distribution(spec: MeasuredWalkSpec, horizon: int) -> np.ndarray:
    """First-detection probabilities p(1..horizon), refused before the
    first step if they and their CSV text would not fit in the memory
    budget."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _check_bytes(f"a distribution of {horizon} steps", DISTRIBUTION_STEP_BYTES * horizon)
    ps = []
    for block in _hit_probabilities(spec):
        ps += block
        if len(ps) >= horizon:
            break
    out = np.array([_clamp_probability(p) for p in ps[:horizon]])
    if out.sum() > 1.0 + 1e-9:
        raise ValueError("first-hit probabilities exceed unit mass")
    return out


def distribution_csv(dist: np.ndarray) -> str:
    """CSV body with columns (t, p_t, cumulative) for a first-hit distribution."""
    lines = ["t,p_t,cumulative"]
    total = 0.0
    for t, p in enumerate(np.asarray(dist, dtype=float), start=1):
        total += p
        lines.append(f"{t},{p:.17g},{total:.17g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HittingResult:
    """Outcome of a hitting-time computation.

    ``value`` is the expected number of steps when finite;
    ``escape_probability`` the never-arriving mass when infinite.
    ``truncation`` reports the number of summed steps for series results.
    """

    method: str
    value: float | None = None
    escape_probability: float | None = None
    arrival_mass: float | None = None
    truncation: int | None = None

    def __post_init__(self):
        if (self.value is None) == (self.escape_probability is None):
            raise ValueError("exactly one of value and escape_probability is set")
        if self.escape_probability is not None and not -1e-9 <= self.escape_probability <= 1 + 1e-9:
            raise ValueError(f"escape probability {self.escape_probability} outside [0, 1]")
        if self.value is not None and self.value < -1e-9:
            raise ValueError(f"negative hitting time {self.value}")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    @property
    def kind(self) -> str:
        return "finite" if self.is_finite else "infinite"


def _accumulate_series(
    blocks: Iterator[list[float]],
    target: float,
    *,
    step_cap: int,
    stall_window: int,
) -> HittingResult:
    """Sum t*p(t) over the blocks of p(t) until the mass reaches
    ``target``, stalls, or hits the cap.

    The result's ``truncation`` is the last step summed.  A stall (mass gain
    below STALL_GAIN across ``stall_window`` consecutive steps) classifies
    the walk as infinite-hitting with escape estimate 1 - mass: the decaying
    component of a measured walk loses mass geometrically, so a flat stretch
    this long means the remainder is trapped.  A stall within ESCAPE_ATOL
    of the target is the mass sum's rounding, an arrival with a finite
    result, as an escape that small is for the closed form.
    """
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    if stall_window < 1:
        raise ValueError("stall_window must be >= 1")
    mass = 0.0
    tau = 0.0
    t = 0
    mark_step, mark_mass = 0, 0.0
    for block in blocks:
        for p in block:
            if not p >= 0.0:
                p = _clamp_probability(p)
            t += 1
            mass += p
            tau += t * p
            if mass >= target:
                return HittingResult(METHOD_SERIES, value=tau, arrival_mass=mass, truncation=t)
            if t - mark_step >= stall_window:
                if mass - mark_mass < STALL_GAIN:
                    if mass >= target - ESCAPE_ATOL:
                        return HittingResult(METHOD_SERIES, value=tau, arrival_mass=mass, truncation=t)
                    return HittingResult(METHOD_SERIES, escape_probability=1.0 - mass, arrival_mass=mass, truncation=t)
                mark_step, mark_mass = t, mass
            if t == step_cap:
                raise IndeterminateError(
                    f"series did not reach mass {target:.12g} or stall within {step_cap} steps"
                )


def _series_hitting_time(
    spec: MeasuredWalkSpec,
    blocks: Iterator[list[float]],
    epsilon: float,
    step_cap: int,
    stall_window: int | None,
) -> HittingResult:
    """The series summed to mass 1 - epsilon, with a stall window of 4 D
    steps unless one is given."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    window = 4 * spec.dim if stall_window is None else stall_window
    return _accumulate_series(blocks, 1.0 - epsilon, step_cap=step_cap, stall_window=window)


def hitting_time_series(
    spec: MeasuredWalkSpec,
    epsilon: float,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    stall_window: int | None = None,
) -> HittingResult:
    """Truncated-series hitting time: sum of t*p(t) up to residual epsilon."""
    return _series_hitting_time(spec, _hit_probabilities(spec), epsilon, step_cap, stall_window)


def concurrent_hitting_time(
    spec: MeasuredWalkSpec,
    threshold: float,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> int:
    """Least T with cumulative arrival mass >= threshold.

    The spectrum answers first: a threshold above the reachable mass
    1 - escape by more than ESCAPE_ATOL raises ThresholdUnreachableError
    before the walk is stepped, however slowly its mass creeps toward that
    limit.  A series that stalls below the threshold raises it too.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")

    def blocks() -> Iterator[list[float]]:
        # first read by _accumulate_series, after its own argument checks
        report = spectral.infinite_hitting_projector(spec.walk, spec.final_array)
        reachable = 1.0 - report.split_start(spec.columns)[0]
        if threshold > reachable + ESCAPE_ATOL:
            raise ThresholdUnreachableError(
                f"threshold {threshold} exceeds the reachable arrival mass {reachable:.12g}",
                arrival_mass=reachable,
            )
        yield from _hit_probabilities(spec)

    result = _accumulate_series(
        blocks(), threshold, step_cap=step_cap, stall_window=4 * spec.dim
    )
    if not result.is_finite:
        raise ThresholdUnreachableError(
            f"threshold {threshold} exceeds total arrival mass ~{result.arrival_mass:.6f}",
            arrival_mass=result.arrival_mass,
        )
    return result.truncation


def one_shot_hitting_time(
    walk: WalkOperator,
    start_state: np.ndarray,
    final_state: np.ndarray,
    threshold: float,
    t_max: int,
) -> int | None:
    """Least t <= t_max with |<final|U^t|start>|^2 >= threshold (unmeasured walk).

    Returns None when the probability never clears the threshold.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    psi = np.asarray(start_state)
    fin = np.asarray(final_state)
    t = 0
    while abs(np.vdot(fin, psi)) ** 2 < threshold:
        if t == t_max:
            return None
        psi = walk.apply(psi)
        t += 1
    return t


# ----------------------------------------------------------------------
# The dense oracle and the closed form
# ----------------------------------------------------------------------

def superoperators(spec: MeasuredWalkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized survive (N) and detect (Y) superoperators.

    With row stacking, vec(rho) = rho.reshape(-1) and rho -> A rho B
    becomes (A (x) B^T) vec(rho), so the maps rho -> (Q_f U) rho (Q_f U)+
    and rho -> (P_f U) rho (P_f U)+ are
    N = (Q_f U) (x) (Q_f U)* and Y = (P_f U) (x) (P_f U)*.  Both are
    D^2 x D^2; the unitary closed form never builds them, so they serve as
    the dense oracle for small D.
    """
    u = spec.walk.matrix
    fin = spec.final_array
    qu = u.copy()
    qu[fin, :] = 0.0
    pu = np.zeros_like(u)
    pu[fin, :] = u[fin, :]
    return np.kron(qu, qu.conj()), np.kron(pu, pu.conj())


def superoperator_singularity(spec: MeasuredWalkSpec) -> tuple[float, float, bool]:
    """(sigma_min, sigma_max, is_singular) of I - N by dense SVD, singular
    below SINGULAR_RTOL relative."""
    n_mat, _ = superoperators(spec)
    m = np.eye(n_mat.shape[0]) - n_mat
    sv = np.linalg.svd(m, compute_uv=False)
    return float(sv[-1]), float(sv[0]), bool(sv[-1] <= SINGULAR_RTOL * sv[0])


def closed_form_engine(
    n_mat: np.ndarray,
    y_mat: np.ndarray,
    rho_vec: np.ndarray,
    *,
    escape_fn=None,
) -> HittingResult:
    """Invert/pseudo-invert policy on dense vectorized superoperators: the
    small-D test oracle of both closed forms, called by no production path.
    ``rho_vec`` is vec(rho_0) = rho_0.reshape(-1), and tau is the trace of
    Y x, reshaped to D x D, for x = (I - N)^(-2) vec(rho_0).

    ``escape_fn`` is called only when I - N is singular to SINGULAR_RTOL
    and must return the never-arriving mass; escape above ESCAPE_ATOL
    classifies the walk as infinite, otherwise the pseudo-inverse (relative
    singular value cutoff) replaces the inverse.
    """
    dim2 = n_mat.shape[0]
    m = np.eye(dim2) - n_mat
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] > SINGULAR_RTOL * sv[0]:
        method = METHOD_CLOSED_FORM
        x = np.linalg.solve(m, np.linalg.solve(m, rho_vec))
    else:
        escape = float(escape_fn()) if escape_fn is not None else 0.0
        if escape > ESCAPE_ATOL:
            return HittingResult(METHOD_CLOSED_FORM, escape_probability=escape)
        uu, s, vh = np.linalg.svd(m)
        keep = s > SINGULAR_RTOL * s[0]
        inv_s = np.zeros_like(s)
        inv_s[keep] = 1.0 / s[keep]
        method, x = METHOD_PSEUDO_INVERSE, rho_vec
        for _ in range(2):  # the pseudo-inverse, applied twice
            x = vh.conj().T @ (inv_s * (uu.conj().T @ x))
    d = math.isqrt(dim2)
    return HittingResult(method, value=float(np.real(np.trace((y_mat @ x).reshape(d, d)))))


def _doubling_powers(
    a: np.ndarray, tail_bound: float = np.finfo(float).eps
) -> Iterator[np.ndarray]:
    """Yield A, A^2, A^4, ..., A^(2^(k-1)): the powers Smith doubling needs.

    k is the first step with ||A^(2^k)||_F^2 under ``tail_bound``, machine
    epsilon unless a caller wants a cheaper, inexact sum; that bounds the
    tail the Stein sum leaves out, relative to the full sum.
    A power is yielded once its square is known to be finite, and dropped
    when the next one is; a consumer that folds each power in as it comes
    holds two at a time.  Raises IndeterminateError on overflow or when no
    such k <= 64 exists, i.e. when the spectral radius of A is not below one.
    """
    ak = a
    for _ in range(MAX_DOUBLINGS):
        with np.errstate(over="ignore", invalid="ignore"):
            square = ak @ ak
            tail = np.vdot(square, square).real
        if not np.isfinite(tail):
            raise IndeterminateError(
                "Stein doubling overflowed: the spectral radius of Q_f U is not below 1"
            )
        yield ak
        if tail <= tail_bound:
            return
        ak = square
    raise IndeterminateError(
        f"Stein doubling did not converge in {MAX_DOUBLINGS} doublings "
        f"(tail bound {tail:.3e})"
    )


def _stein_sum(powers: Iterable[np.ndarray], c: np.ndarray) -> np.ndarray:
    """sum_t (A^t)+ C A^t, the solution X of X - A+ X A = C, from the
    doubling powers of A: after step k, X holds the first 2^k terms."""
    x = c
    for ak in powers:
        x = x + ak.conj().T @ x @ ak
    return x


def _start_trace(x: np.ndarray, columns: np.ndarray) -> float:
    """Tr(X S S+) = Tr(S+ X S): a hitting time or its slope read off a
    solve's X with the columns S of the start it reads, Psi or W+ Psi."""
    return float(np.real(np.vdot(columns, x @ columns)))


def _stein_trace(a: np.ndarray, start: np.ndarray, *, residual_rtol: float) -> float:
    """Tr(S+ X S) for the solution X = sum_t (A^t)+ A^t of X - A+ X A = I
    and the start's columns S, solved in A's dtype: a real A in float64."""
    eye = np.eye(a.shape[0], dtype=a.dtype)
    x = _stein_sum(_doubling_powers(a), eye)
    residual = np.linalg.norm(x - a.conj().T @ x @ a - eye) / np.linalg.norm(x)
    if not residual <= residual_rtol:
        raise IndeterminateError(
            f"Stein residual {residual:.3e} exceeds {residual_rtol:.3e}"
        )
    return _start_trace(x, start)


def hitting_time_closed_form(
    spec: MeasuredWalkSpec, *, singular_rtol: float = SINGULAR_RTOL
) -> HittingResult:
    """Expected hitting time from the Stein equation X - A+ X A = I, A = Q_f U.

    With no trapped subspace W is unitary, so there is no escape: tau =
    Tr(Psi+ X Psi) for the start's columns Psi, X solved on A itself, U
    with its final rows zeroed, in U's dtype (method ``closed_form``).  An
    IndeterminateError there falls back to the eigenbasis solve, which
    meets singular_rtol = 1e-12 on the n-cube's line at n = 26 and 30 where
    this solve does not.  Otherwise escape mass in the trapped subspace
    above ESCAPE_ATOL makes the hitting time infinite (method
    ``closed_form``), and below it A maps the range of the untrapped
    eigenbasis W into itself, as A_r = W+ A W, and tau = Tr(S+ X_r S) for
    X_r - A_r+ X_r A_r = I with S = W+ Psi, so no start is formed as a
    density matrix (method ``pseudo_inverse``).
    A ``singular_rtol`` that is not a finite positive number raises
    ValueError before the report.  A relative residual ||X - A+ X A - I||
    / ||X|| above ``singular_rtol``, a non-finite entry or a solve that does
    not converge raises IndeterminateError.  The eigensolve and the solve
    are each refused first if they would not fit in the memory budget, and
    so is the start's split.  The report answers the escape, W+ Psi and
    A_r, so one body serves the dense route and the n-cube's Fourier route,
    and any start.
    """
    if not 0.0 < singular_rtol < math.inf:
        raise ValueError(f"singular_rtol must be a finite positive number, not {singular_rtol!r}")
    report = spectral.infinite_hitting_projector(spec.walk, spec.final_array)
    if not report.trapped_dim:  # W is unitary: no escape, and A needs no reduction
        d, itemsize = spec.dim, spec.walk.block.itemsize
        unheld = d * d if report.route == "fourier" else 0  # U, which a dense report holds
        _check_bytes(f"dimension {d}", (STEIN_WORK_ARRAYS * d * d + unheld) * itemsize
                     + 16 * (2 * spec.columns.size + report.held_entries))
        a = spec.walk.matrix.copy()
        a[spec.final_array] = 0.0
        try:
            return HittingResult(METHOD_CLOSED_FORM, value=_stein_trace(a, spec.columns, residual_rtol=singular_rtol))
        except IndeterminateError:
            del a  # freed for the eigenbasis solve, which near critical may meet the bound
    escape, start = report.split_start(spec.columns)
    if escape > ESCAPE_ATOL:
        return HittingResult(METHOD_CLOSED_FORM, escape_probability=escape)

    r, k = start.shape
    _check_memory(spec.dim, STEIN_WORK_ARRAYS * r * r + 2 * r * k + report.held_entries)
    value = _stein_trace(report.reduced_step(), start, residual_rtol=singular_rtol)
    method = METHOD_PSEUDO_INVERSE if report.trapped_dim else METHOD_CLOSED_FORM
    return HittingResult(method, value=value)


# ----------------------------------------------------------------------
# Classical baselines
# ----------------------------------------------------------------------

def classical_hypercube_hitting(n: int) -> float:
    """Expected first-passage steps of the simple walk from 0...0 to 1...1.

    By symmetry the walk reduces to the Hamming weight x; telescoping the
    weight recursion gives tau(0) as a sum over x of cumulative binomial
    ratios.  Exact integer arithmetic, converted to float term by term (the
    value grows like 2**n and passes the largest float from n = 1024 on,
    which raises ValueError).
    """
    if n < 1:
        raise ValueError("hypercube dimension must be >= 1")
    total = 0.0
    cumulative = 1  # sum of C(n, k) for k <= x
    try:
        for x in range(n):
            if x:
                cumulative += math.comb(n, x)
            total += cumulative / math.comb(n - 1, x)
    except OverflowError:
        raise ValueError(
            f"classical hitting time for n = {n} exceeds the float limit {np.finfo(float).max:g}"
        ) from None
    return total


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int
    generator: str = "PCG64"


def classical_hitting_monte_carlo(
    g: ColoredGraph,
    start: int,
    final: int,
    trials: int,
    seed: int,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> MonteCarloEstimate:
    """Empirical mean first-passage time of the simple random walk.

    The walkers still out advance in lockstep, in trial order, with
    vectorized neighbor draws from a PCG64 generator, so results are
    reproducible given the seed; an arrival leaves the walking set.  A
    walker is its vertex's offset in the half-edge order, so one gather at
    offset + k moves it to its k-th neighbor's.  A regular graph draws with
    one scalar bound, which gives the same stream as the per-walker bounds
    of an irregular one.  An unreachable final, and walkers still out at
    ``step_cap``, raise IndeterminateError; a start or final outside
    [0, V), and trials past the memory budget, raise ValueError before they
    allocate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    for name, v in (("start", start), ("final", final)):
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"{name} vertex {v} out of range [0, {g.num_vertices})")
    _check_bytes(f"a Monte Carlo run of {trials} trials", MC_WORK_ARRAYS * 8 * trials)
    deg = np.asarray(g.degrees)
    offsets = np.cumsum(deg) - deg
    far = g.neighbor_table[0]  # neighbor k of v at offsets[v] + k
    adjacent, first = far.tolist(), offsets.tolist()
    seen, todo = {start}, [start]
    for v in todo:  # breadth-first over start's component, in O(V d)
        fresh = set(adjacent[first[v]:first[v] + g.degrees[v]]) - seen
        seen |= fresh
        todo += fresh
    if final not in seen:
        raise IndeterminateError(f"final vertex {final} is not reachable from start vertex {start}")
    hop = offsets[far]  # on start's component no two vertices share an offset
    degree_at = None if g.is_regular else np.repeat(deg, deg)  # indexed by vertex offset
    rng = np.random.Generator(np.random.PCG64(seed))

    steps = np.zeros(trials, dtype=np.int64)
    live = np.arange(trials if start != final else 0)  # trials still walking
    pos = np.full(live.size, offsets[start])
    t = 0
    while live.size:
        t += 1
        if t > step_cap:
            raise IndeterminateError(
                f"{live.size} of {trials} walkers not absorbed after {step_cap} steps"
            )
        bound = deg[start] if degree_at is None else degree_at[pos]
        pos = hop[pos + rng.integers(0, bound, size=live.size)]
        arrived = pos == offsets[final]
        if arrived.any():
            steps[live[arrived]] = t
            keep = np.flatnonzero(~arrived)
            live, pos = live[keep], pos[keep]

    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed)

