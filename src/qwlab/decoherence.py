"""Quantum channels, decohered hitting times, and decoherence-free subspaces.

A channel is a Kraus family {A_i} with sum A_i+ A_i = I, applied between
the unitary step and the final-vertex measurement.  The structured
channels have monomial A_i, a permutation matrix times a diagonal: the
channel holds each as an image and a weight vector, applies it by index
gathers in O(D^2), and makes the dense family only when read.  Dephasing
of strength p (position, coin or both) has diagonal A_i, the identity
image, and also holds its Schur multiplier m = sum_i diag(A_i) diag(A_i)+
= (1 - p) + p M for a 0/1 mask M, applied as rho -> m o rho; swap
dephasing permutes the basis.

A step of the decohered walk that does not detect the walker maps rho to
N_D(rho) = Q_f Phi(U rho U+) Q_f.  The channel keeps the trace, so the
detect map drops out of the closed form: vec(I) . Y_D = vec(I) . (I - N_D),
and

    tau = vec(I) . Y_D (I - N_D)^(-2) vec(rho_0) = Tr(X rho_0),   X - L(X) = I,

with L the adjoint of N_D (the survive map in Heisenberg form):
X -> U+ Phi+(Q_f X Q_f) U.  Restarted GMRES solves this on D x D
matrices, in O(D^3) time per step and O(D^2) memory per Krylov vector;
for a multiplier it is preconditioned by the Stein inverse of
sqrt(min Re m) Q_f U, applied by the Smith doubling of the unitary closed
form, stopped at a looser tail.  Channel data keeps the dtype of its
entries, as walk data does, so type promotion runs the solve in float64
when U and the channel are real (Grover walks under dephasing, or swap
dephasing with real kappa), else in complex128.  Every solve reads the
start as its D x k columns Psi, rho_0 = Psi Psi+
(``MeasuredWalkSpec.columns``): tau = Tr(Psi+ X Psi), by the unitary
closed form's one trace helper.  The slope in p is one more solve with
the same operator, and the step series, the one route with a channel to
step, iterates D x D density matrices.  A solve
that stagnates marks I - N_D as singular; as in the unitary closed form,
an orthonormal basis T of the trapped subspace then decides the escape
||T+ Psi||^2, and the same map solves again for the right side
I - T T+, as L keeps each block of the split by T T+.  N_D of a unital
channel is a Hilbert-Schmidt contraction with its fixed points in
B(ran T), so this is the Moore-Penrose value of the dense D^2 x D^2
formula, the test oracle.

A subspace is decoherence-free exactly when every Kraus (or Lindblad)
operator acts on it as a scalar; the checks here estimate the scalar from
the first basis vector and verify the residual on all of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import graphs, groups, spectral
from .errors import IndeterminateError
from .hitting import (
    ESCAPE_ATOL,
    DEFAULT_STEP_CAP,
    MAX_DOUBLINGS,
    SINGULAR_RTOL,
    METHOD_CLOSED_FORM,
    METHOD_PSEUDO_INVERSE,
    HittingResult,
    MeasuredWalkSpec,
    _series_hitting_time,
    _doubling_powers,
    _start_trace,
    _stein_sum,
    hitting_time_closed_form,
)
from .walk import _check_memory, _inexact

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
    "swap_dephasing",
    "swap_dephasing_example",
]

COMPLETENESS_ATOL = 1e-10
DFS_ATOL = 1e-9
# GMRES on X - L(X) = C: target relative residual ||X - L(X) - C|| / ||X||,
# Krylov basis size per restart cycle, and the factor by which a cycle must
# cut the residual (a cycle that does not has stagnated)
GMRES_RTOL = 1e-13
GMRES_RESTART = 40
GMRES_STALL = 0.5
# tail bound at which the Stein doubling of the GMRES preconditioner stops
# (machine epsilon in the unitary closed form): a preconditioner need not be
# exact, and each power left out saves two D x D products per application;
# at 1e-5 the hypercube:3-6 points keep 6, 5, 4 of 8, 6, 5 powers at p =
# 0.25, 0.5, 0.75 and take no more GMRES steps
STEIN_PRECONDITIONER_TAIL = 1e-5
# D x D arrays held during a solve: the Krylov basis, at most MAX_DOUBLINGS
# preconditioner powers, ten more (9.5 measured on hypercube:4-5, 5.5-7.3
# by the trapped basis growth), and U, rho_0 with its columns and a
# dephasing multiplier, held by the caller, each counted in the solve's dtype
DECOHERED_WORK_ARRAYS = GMRES_RESTART + 1 + MAX_DOUBLINGS + 14
# 8-byte D x D arrays held while a dephasing channel builds its multiplier
# (the multiplier and its label comparison, 1.2 measured at D = 384 and
# 2048), and 8-byte arrays per row x D of the Kraus weights it builds when
# they are read (the scaled class rows and their concatenation, 2.0-2.2
# measured there for all three kinds)
DEPHASING_SQUARE_ARRAYS = 2
DEPHASING_ROW_ARRAYS = 3
# complex D x D arrays held at once by a density-matrix series step: its
# own (5.6 measured on hypercube:4-6 under swap dephasing, 4.5 under a
# multiplier) beside a caller's rho_0 and multiplier
SERIES_WORK_ARRAYS = 7
# complex D x k arrays the scalar-action check holds at once: the basis and
# its complex copy, one image, c b and the residual with its squares (4.4 to
# 5.1 measured on orbit bases of hypercube:6-7)
SCALAR_ACTION_ARRAYS = 6

KIND_BOTH = "both"
KIND_COIN = "coin"
KIND_POSITION = "position"


class Channel:
    """Completely positive trace-preserving map in Kraus form.

    ``schur`` is sum_i diag(A_i) diag(A_i)+ when every A_i is diagonal (the
    channel is then rho -> schur o rho), else None.  A channel made by
    :meth:`_from_monomials` holds ``monomials``, a k x D image array and a
    k x D weight array with A_i e_j = weights[i, j] e_image[i, j] (a
    permutation matrix times a diagonal), and builds its dense Kraus family
    on the first read of ``kraus``.  A dephasing channel holds its
    multiplier, its class ``labels`` and its strength ``p``, and builds its
    monomials from them on first read.  ``dtype`` is the result type of the
    data that the channel's maps read: the multiplier, else the monomial
    weights, else the Kraus operators.
    """

    labels: np.ndarray | None = None
    p: float = 0.0

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = tuple(_inexact(a) for a in kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        self.dtype = np.result_type(*ops)
        total = np.zeros((d, d), dtype=self.dtype)
        for a in ops:
            if a.shape != (d, d):
                raise ValueError("Kraus operators must share one square shape")
            total += a.conj().T @ a
        defect = float(np.max(np.abs(total - np.eye(d))))
        if not defect <= COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated (defect {defect:.3e})")
        schur = None
        off_diagonal = ~np.eye(d, dtype=bool)
        if not any(np.any(a[off_diagonal]) for a in ops):
            schur = np.zeros((d, d), dtype=self.dtype)
            for a in ops:
                schur += np.outer(np.diag(a), np.diag(a).conj())
        self.schur = schur
        self.kraus = ops

    @classmethod
    def _from_monomials(cls, images: np.ndarray, weights: np.ndarray) -> "Channel":
        """The channel with Kraus operators e_j -> weights[i, j] e_images[i, j].

        Each A_i+ A_i is diag(|weights[i]|^2), so completeness is an O(D)
        check: sum_i |weights[i, j]|^2 = 1 for every j.
        """
        images = np.asarray(images)
        weights = _inexact(weights)
        k, d = images.shape
        if not np.array_equal(np.sort(images, axis=1), np.broadcast_to(np.arange(d), (k, d))):
            raise ValueError("monomial Kraus images must be permutations")
        defect = float(np.max(np.abs(np.sum(np.abs(weights) ** 2, axis=0) - 1.0)))
        if not defect <= COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated (defect {defect:.3e})")
        ch = cls.__new__(cls)
        ch.schur = None
        ch.monomials = (images, weights)
        ch.dtype = weights.dtype
        return ch

    @functools.cached_property
    def monomials(self) -> tuple[np.ndarray, np.ndarray] | None:
        """A dephasing channel's monomials, built from its labels on first
        read: sqrt(1 - p) I and sqrt(p) Pi_c over the label classes, all
        with the identity image, refused first if they would not fit; None
        for a channel given by its Kraus operators."""
        if self.labels is None:
            return None
        label, p = self.labels, self.p
        d, classes = label.size, int(label.max(initial=-1)) + 1
        _check_memory(d, DEPHASING_ROW_ARRAYS * (classes + 1) * d, float)
        rows = [np.full((1, d), np.sqrt(1.0 - p))] if p < 1.0 else []
        if p > 0.0:
            rows.append(np.sqrt(p) * (np.arange(classes)[:, None] == label))
        weights = np.concatenate(rows)
        return np.broadcast_to(np.arange(d), weights.shape), weights

    @functools.cached_property
    def kraus(self) -> tuple[np.ndarray, ...]:
        images, weights = self.monomials
        d = images.shape[1]
        ops = []
        for image, w in zip(images, weights):
            a = np.zeros((d, d), dtype=weights.dtype)
            a[image, np.arange(d)] = w
            ops.append(a)
        return tuple(ops)

    @property
    def is_identity(self) -> bool:
        return self.schur is not None and bool((self.schur == 1).all())

    @property
    def dim(self) -> int:
        if self.schur is not None:
            return self.schur.shape[0]
        if self.monomials is not None:
            return self.monomials[0].shape[1]
        return self.kraus[0].shape[0]


@dataclass(frozen=True, eq=False)
class LindbladSet:
    """Lindblad operators with positive rates (no completeness constraint):
    an operator at rate 0 is absent from the generator, so it is refused
    rather than read by a DFS check that does not weigh rates."""

    ops: tuple[np.ndarray, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        ops = tuple(_inexact(m) for m in self.ops)
        rates = tuple(float(r) for r in self.rates)
        if len(ops) != len(rates):
            raise ValueError("one rate per Lindblad operator")
        if not all(r > 0 for r in rates):
            raise ValueError("rates must be positive")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "rates", rates)


def _basis_labels(kind: str, num_vertices: int, coin_dim: int) -> np.ndarray:
    """Class label of walk index i = v*coin_dim + c: the basis state, coin or vertex."""
    i = np.arange(num_vertices * coin_dim)
    labels = {KIND_BOTH: i, KIND_COIN: i % coin_dim, KIND_POSITION: i // coin_dim}
    if kind not in labels:
        raise ValueError(f"unknown dephasing kind {kind!r}")
    return labels[kind]


def dephasing_channel(
    kind: str, p: float, num_vertices: int, coin_dim: int = 1
) -> Channel:
    """Dephasing of strength p in the chosen basis family.

    The channel is the Schur multiplier (1 - p) + p M, where the 0/1 mask
    M keeps (i, j) when i and j share a basis state (``both``), coin
    (``coin``) or vertex (``position``).  It holds the multiplier, the
    class labels and p; its Kraus operators, the diagonals sqrt(1-p) I and
    sqrt(p) Pi_c over the projectors onto the label classes, are built as
    monomials with the identity image when read, complete because the
    projectors sum to the identity.  Unknown kinds are rejected, and so is
    a multiplier that would not fit in the memory budget, before it is
    built.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("dephasing strength must lie in [0, 1]")
    label = _basis_labels(kind, num_vertices, coin_dim)
    _check_memory(label.size, DEPHASING_SQUARE_ARRAYS * label.size**2, float)
    ch = Channel.__new__(Channel)
    ch.labels, ch.p = label, p
    ch.schur = (1.0 - p) + p * (label[:, None] == label[None, :])
    ch.dtype = ch.schur.dtype
    return ch


def _monomial_apply(image: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for A e_j = weights[j] e_image[j], x a vector or a block of columns."""
    out = np.empty(x.shape, dtype=np.result_type(weights, x))
    out[image] = (weights * x.T).T
    return out


def _monomial_adjoint(image: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A+ x for the same A, which sends e_image[j] to weights[j]* e_j: one
    gather, (A+ x)_j = weights[j]* x_image[j]."""
    return (weights.conj() * x[image].T).T


def _kraus_actions(ch: Channel, *, adjoint: bool) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The maps X -> A_i X, or X -> A_i+ X when ``adjoint``, on blocks of
    columns; monomial A_i act by gathers, O(D) per column."""
    if ch.monomials is None:
        return _dense_actions([a.conj().T if adjoint else a for a in ch.kraus])
    act = _monomial_adjoint if adjoint else _monomial_apply
    return [functools.partial(act, *a) for a in zip(*ch.monomials)]


def _channel_map(ch: Channel, *, adjoint: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Phi, or Phi+ when ``adjoint``, on D x D arrays, with a multiplier m
    conjugated once: m o rho and m* o Y; else sum_i A_i Y A_i+, with A_i+
    in place of A_i for Phi+, as A (A Y+)+ through the :func:`_kraus_actions`
    X -> A X, which for monomial A go by gathers; Y+ is formed once."""
    if ch.schur is not None:
        m = ch.schur.conj() if adjoint else ch.schur
        return lambda y: m * y
    actions = _kraus_actions(ch, adjoint=adjoint)

    def apply(y: np.ndarray) -> np.ndarray:
        yh = y.conj().T
        return sum(a(a(yh).conj().T) for a in actions)

    return apply


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Phi(rho), by :func:`_channel_map`."""
    return _channel_map(ch, adjoint=False)(np.asarray(rho))


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
    """Vectorized survive/detect maps with the channel after each unitary step.

    Dense D^2 x D^2 arrays: the test oracle of the matrix-free solve.
    """
    if ch.dim != spec.dim:
        raise ValueError("channel dimension does not match the walk")
    u = spec.walk.matrix
    uu = np.kron(u, u.conj())
    if ch.schur is None:
        return _survive_detect(
            channel_superoperator(ch) @ uu, np.ones((spec.dim, spec.dim)), spec.final_array
        )
    return _survive_detect(uu, ch.schur, spec.final_array)


def _givens_step(column: list, rotations: list, residual: float) -> float:
    """One step of the Givens reduction of the Arnoldi least-squares problem.

    ``column`` holds the k + 2 entries of the new Hessenberg column,
    ``rotations`` the k earlier rotations (c, s), and ``residual`` the
    least-squares residual of the k columns before, beta at k = 0.  The
    earlier rotations take the column to its new diagonal entry a over the
    subdiagonal b, and the rotation [[c, s], [-s*, c]] that zeroes b is
    appended; it leaves |s| = |b| / ||(a, b)|| of the residual.  Returns
    that residual ||beta e_1 - H y|| of the least-squares solution y for the
    k + 1 columns, in O(k) scalar operations.  The rest of the rotated
    column, the triangle's entries above a, is not needed: y comes from
    one least-squares solve on H itself.
    """
    a = column[0]
    for (c, s), h in zip(rotations, column[1:]):
        a = c * h - s.conjugate() * a
    b = column[-1]
    nu = math.hypot(abs(a), abs(b))
    c, s = (0.0, 1.0) if a == 0 else (abs(a) / nu, a / abs(a) * b.conjugate() / nu)
    rotations.append((c, s))
    return abs(s) * residual


def _gmres(
    operator: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Solve operator(X) = rhs for a D x D matrix X by restarted GMRES.

    Right-preconditioned (Saad & Schultz 1986): each cycle builds an
    orthonormal Krylov basis of operator(precondition(.)), with the
    Gram-Schmidt pass run twice, until the least-squares residual falls
    under GMRES_RTOL ||X|| or the basis holds GMRES_RESTART matrices.  That
    residual is read off the Givens rotations of :func:`_givens_step`,
    O(k) scalar work per step; the Hessenberg matrix H itself is kept
    unrotated, and the cycle's coefficients y are one minimum-norm
    least-squares solve of H y = beta e_1 at its last step, which keeps y
    bounded when I - L is singular.  There the rotations read the exact
    residual, which can vanish where that of the rank-truncated solve does
    not, so a cycle may end early; its true residual then stalls.  The loop
    ends once the true residual ||operator(X) - rhs|| is under
    GMRES_RTOL ||X||, or when a cycle leaves it above GMRES_STALL times its
    value at the cycle start.  Returns X and that relative residual.  The
    Krylov basis and the least-squares problem take the dtype of ``rhs``.
    Memory is O(GMRES_RESTART D^2); each step is one operator and one
    preconditioner application.
    """
    shape = rhs.shape
    b = rhs.reshape(-1)
    x = np.zeros_like(b)
    r, res = b, float(np.linalg.norm(b))
    if res == 0.0:
        return x.reshape(shape), 0.0
    scale = res  # ||X||, estimated by ||rhs|| before the first cycle
    basis = np.empty((GMRES_RESTART + 1, b.size), dtype=b.dtype)
    hess = np.empty((GMRES_RESTART + 1, GMRES_RESTART), dtype=b.dtype)
    while True:
        basis[0] = r / res
        hess[:] = 0.0
        e1 = np.zeros(GMRES_RESTART + 1, dtype=b.dtype)
        e1[0] = res
        rotations, estimate = [], res
        for k in range(GMRES_RESTART):
            w = operator(precondition(basis[k].reshape(shape))).reshape(-1)
            for _ in range(2):
                h = (basis[: k + 1] @ w.conj()).conj()
                w = w - h @ basis[: k + 1]
                hess[: k + 1, k] += h
            hess[k + 1, k] = np.linalg.norm(w)
            estimate = _givens_step(hess[: k + 2, k].tolist(), rotations, estimate)
            if estimate <= GMRES_RTOL * scale or hess[k + 1, k] == 0.0:
                break
            basis[k + 1] = w / hess[k + 1, k]
        y = np.linalg.lstsq(hess[: k + 2, : k + 1], e1[: k + 2], rcond=None)[0]
        x = x + precondition((y @ basis[: k + 1]).reshape(shape)).reshape(-1)
        r = b - operator(x.reshape(shape)).reshape(-1)
        last, res = res, float(np.linalg.norm(r))
        scale = float(np.linalg.norm(x))
        # a non-finite residual ends the loop as a stall
        if res <= GMRES_RTOL * scale or not res <= GMRES_STALL * last:
            return x.reshape(shape), res / scale


class _SurvivalMap:
    """The decohered survive map in Heisenberg form, and its resolvent.

    N_D(rho) = Q_f Phi(U rho U+) Q_f has the adjoint
    L(X) = U+ Phi+(Q_f X Q_f) U.  For a channel with Schur multiplier m,
    the preconditioner is the Stein inverse C -> sum_t (B^t)+ C B^t of
    B = sqrt(c) A with A = Q_f U, where c = min Re m (1 - p for dephasing)
    is the weight of the identity in the channel, summed by doubling until
    the tail bound falls under STEIN_PRECONDITIONER_TAIL.  The solve runs in
    ``dtype``, the result type of U and the channel: float64 for a real
    walk under a real channel.  A map whose solve would not fit in the
    memory budget is refused before U is read.
    """

    def __init__(self, spec: MeasuredWalkSpec, ch: Channel):
        if ch.dim != spec.dim:
            raise ValueError("channel dimension does not match the walk")
        self.dtype = np.result_type(spec.walk.block, ch.dtype)
        _check_memory(spec.dim, DECOHERED_WORK_ARRAYS * spec.dim**2, self.dtype)
        u = spec.walk.matrix
        self.a = u.copy()
        self.a[spec.final_array, :] = 0.0
        keep = np.ones(spec.dim)
        keep[spec.final_array] = 0.0
        q = np.outer(keep, keep)
        u_dag = u.conj().T
        adjoint = _channel_map(ch, adjoint=True)
        self.apply = lambda x: u_dag @ adjoint(q * x) @ u
        self.powers: list[np.ndarray] | None = []
        c = 0.0 if ch.schur is None else float(np.clip(ch.schur.real.min(), 0.0, 1.0))
        if c > 0.0:
            try:
                self.powers = list(
                    _doubling_powers(np.sqrt(c) * self.a, STEIN_PRECONDITIONER_TAIL)
                )
            except IndeterminateError:
                # then m = 1 and L is the Stein map of A, whose
                # spectral radius is not below one: I - L is singular
                self.powers = None

    def solve(self, c: np.ndarray) -> np.ndarray | None:
        """X with X - L(X) = C, or None when I - L is singular: GMRES ends
        with a relative residual ||X - L(X) - C|| / ||X|| above SINGULAR_RTOL.
        The solve runs in ``dtype``, or in complex for a complex C."""
        if self.powers is None:
            return None
        x, residual = _gmres(
            lambda y: y - self.apply(y),
            lambda y: _stein_sum(self.powers, y),
            np.asarray(c, dtype=np.result_type(c, self.dtype)),
        )
        return x if residual <= SINGULAR_RTOL else None


def _trapped_basis(spec: MeasuredWalkSpec, ch: Channel) -> np.ndarray:
    """Orthonormal basis T of the largest subspace off the finals that every
    A_i U and its adjoint keep: the projector P = B B+ grows from P_f to the
    range of P + Phi(U P U+) + U+ Phi+(P) U, with rank cutoff
    NULLSPACE_RTOL, until its rank stops, and T spans the rest.  Phi and
    Phi+ are the :func:`_channel_map` maps of the survive map and the
    series, so a step holds a few D x D arrays whatever the number of Kraus
    operators.  N_D and L map each block of the split by T T+ into itself.
    T is real when U and the channel are."""
    u = spec.walk.matrix
    u_dag = u.conj().T
    channel = _channel_map(ch, adjoint=False)
    adjoint = _channel_map(ch, adjoint=True)
    basis = np.eye(spec.dim)[:, spec.final_array]
    while True:
        p = basis @ basis.conj().T
        w, v = np.linalg.eigh(p + channel(u @ p @ u_dag) + u_dag @ adjoint(p) @ u)
        keep = w > spectral.NULLSPACE_RTOL * w[-1]
        if keep.sum() == basis.shape[1]:
            return v[:, ~keep]
        basis = v[:, keep]


def decohered_hitting_time(spec: MeasuredWalkSpec, ch: Channel) -> HittingResult:
    """Closed-form hitting time of the decohered measured walk.

    The identity channel is the unitary walk and goes to
    :func:`hitting_time_closed_form`.  Otherwise tau = Tr(X rho_0) =
    Tr(Psi+ X Psi) for the start's columns Psi, where X solves X - L(X) = I
    for the Heisenberg survive map L of :class:`_SurvivalMap` (method
    ``closed_form``).  A solve whose relative residual ends above
    SINGULAR_RTOL marks I - N_D as singular.  The same
    map then solves X - L(X) = I - T T+ for the :func:`_trapped_basis` T;
    escape ||T+ Psi||^2 above ESCAPE_ATOL is infinite (``closed_form``),
    else tau = Tr(X rho_0) (``pseudo_inverse``), the Moore-Penrose value for
    a unital channel.  A second stagnating solve, as when a channel moves
    mass into a region it keeps, raises IndeterminateError.  A solve that
    would not fit in the memory budget is refused first.
    """
    if ch.is_identity and ch.dim == spec.dim:
        return hitting_time_closed_form(spec)
    survival = _SurvivalMap(spec, ch)
    eye = np.eye(spec.dim, dtype=survival.dtype)
    x = survival.solve(eye)
    if x is not None:
        return HittingResult(METHOD_CLOSED_FORM, value=_start_trace(x, spec.columns))
    trapped = _trapped_basis(spec, ch)
    x = survival.solve(eye - trapped @ trapped.conj().T)
    if x is None:
        raise IndeterminateError(
            f"I - N_D is singular off the trapped subspace (dimension {trapped.shape[1]})"
        )
    inside = trapped.conj().T @ spec.columns
    escape = float(np.real(np.vdot(inside, inside)))
    if escape > ESCAPE_ATOL:
        return HittingResult(METHOD_CLOSED_FORM, escape_probability=escape)
    return HittingResult(METHOD_PSEUDO_INVERSE, value=_start_trace(x, spec.columns))


def _density_hit_probabilities(
    spec: MeasuredWalkSpec, step_map: Callable[[np.ndarray], np.ndarray]
) -> Iterator[list[float]]:
    """Yield p(1), p(2), ..., one step to a block, by stepping rho_0 to
    sigma = step_map(U rho U+), detecting on P_f and keeping Q_f sigma Q_f:
    the one series with a channel to step.  Refused before rho_0 is read if
    the step would not fit in the memory budget."""
    _check_memory(spec.dim, SERIES_WORK_ARRAYS * spec.dim**2)
    walk, fin = spec.walk, spec.final_array
    rho = spec.rho0
    while True:
        sig = step_map(walk.apply(walk.apply(rho).conj().T).conj().T)  # U rho U+ = (U (U rho)+)+
        p = float(np.real(np.sum(sig[fin, fin])))
        sig[fin, :] = 0.0
        sig[:, fin] = 0.0
        rho = sig
        yield [p]


def decohered_hitting_series(
    spec: MeasuredWalkSpec,
    ch: Channel,
    epsilon: float,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
    stall_window: int | None = None,
) -> HittingResult:
    """Step-iterated hitting time: sigma = Phi(U rho U+), detect on P_f, keep Q_f sigma Q_f."""
    if ch.dim != spec.dim:
        raise ValueError("channel dimension does not match the walk")
    probabilities = _density_hit_probabilities(spec, _channel_map(ch, adjoint=False))
    return _series_hitting_time(spec, probabilities, epsilon, step_cap, stall_window)


def hitting_time_slope(spec: MeasuredWalkSpec, kind: str, p: float) -> float:
    """Analytic derivative of the dephased hitting time with respect to p.

    tau(p) = Tr(X rho_0), where X - L(X) = I and
    L(X) = A+ (m o X) A with A = Q_f U and the multiplier
    m = (1 - p) + p M, affine in p.  Differentiating the equation gives
    one more solve with the same operator,

        X' - L(X') = A+ ((M - 1) o X) A,    dtau/dp = Tr(X' rho_0).

    Raises ValueError when I - N(p) is singular (at p = 0 for walks with a
    trapped subspace the slope is undefined in this form), and refuses a
    solve that would not fit in the memory budget first.
    """
    if spec.walk.graph is None:
        raise ValueError("slope needs the walk's graph to build the dephasing family")
    g = spec.walk.graph
    ch = dephasing_channel(kind, p, g.num_vertices, g.degree_value)
    survival = _SurvivalMap(spec, ch)
    x = survival.solve(np.eye(spec.dim, dtype=survival.dtype))
    if x is not None:
        a = survival.a
        dm = (ch.labels[:, None] == ch.labels[None, :]) - 1.0
        x = survival.solve(a.conj().T @ (dm * x) @ a)
    if x is None:
        raise ValueError(
            f"I - N is singular at p={p}; the slope formula needs an invertible resolvent"
        )
    return _start_trace(x, spec.columns)


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
    ops: Sequence[Callable[[np.ndarray], np.ndarray]], basis: np.ndarray, atol: float
) -> DfsVerdict:
    """Each op, given as the map X -> A X on blocks of columns, must act on
    every basis column b as A b = c b, checked with c = <b_0, A b_0> of the
    first column.  The coefficient returned is (A v)_i, v the first column
    scaled to v_i = 1 at its largest entry i: on an orbit column of equal
    real entries, real or complex typed, a monomial A gives exactly its kappa.
    Refused before the first copy if the check would not fit in the memory
    budget."""
    given = np.asarray(basis)
    if given.ndim != 2 or given.shape[1] == 0:
        raise ValueError("basis must be a nonempty matrix of columns")
    d, k = given.shape
    _check_memory(d, SCALAR_ACTION_ARRAYS * d * k + 2 * k * k)
    basis = np.asarray(given, dtype=complex)
    gram = basis.conj().T @ basis
    if not np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-9:
        raise ValueError("basis columns must be orthonormal")
    top = int(np.argmax(np.abs(given[:, 0])))
    pivot = given[top, 0]
    scaled = given[:, :1] / pivot  # in real arithmetic for a real basis, where x / x is 1
    if np.iscomplexobj(scaled) and pivot.imag == 0:  # complex x / x can miss 1 by an ulp
        scaled.real, scaled.imag = given[:, :1].real / pivot.real, given[:, :1].imag / pivot.real
    coeffs = []
    for i, apply in enumerate(ops):
        image = apply(basis)
        c = complex(np.vdot(basis[:, 0], image[:, 0]))
        residuals = np.linalg.norm(image - c * basis, axis=0)
        bad = np.flatnonzero(~(residuals <= atol))
        if bad.size:
            return DfsVerdict(False, witness=(i, int(bad[0]), float(residuals[bad[0]])))
        coeffs.append(complex(apply(scaled)[top, 0]))
    return DfsVerdict(True, coefficients=tuple(coeffs))


def _dense_actions(ops: Sequence[np.ndarray]) -> list[Callable[[np.ndarray], np.ndarray]]:
    return [np.asarray(a).__matmul__ for a in ops]


def dfs_check_kraus(ch: Channel, basis: np.ndarray, *, atol: float = DFS_ATOL) -> DfsVerdict:
    """Scalar-action test A_i v = c_i v for every basis vector of the subspace;
    monomial Kraus operators act by gathers, O(D) per column."""
    return _check_scalar_action(_kraus_actions(ch, adjoint=False), basis, atol)


def dfs_check_lindblad(lset: LindbladSet, basis: np.ndarray) -> DfsVerdict:
    return _check_scalar_action(_dense_actions(lset.ops), basis, DFS_ATOL)


def swap_dephasing_example(n: int, kappas: Iterable[float | complex]) -> Channel:
    """Nearest-neighbor qubit-swap dephasing on the hypercube walk space.

    Kraus operator i is kappa_i sigma((i, i+1)): the direction
    transposition (i, i+1) lifted by
    :func:`~qwlab.groups.direction_perm_to_automorphism` on
    :func:`~qwlab.graphs.cayley_hypercube`, which swaps position bits i, i+1
    and the matching pair of coin directions.  Orbit states of the full
    direction-permutation group are fixed points of every such unitary, so
    that orbit basis is decoherence-free with coefficients kappa_i.
    Requires sum |kappa_i|^2 = 1 over i = 1..n-1.
    """
    if n < 2:
        raise ValueError("swap dephasing needs n >= 2")
    cay = graphs.cayley_hypercube(n)
    swaps = [
        groups.direction_perm_to_automorphism(cay, groups.parse_cycles(f"({i},{i + 1})", n))
        for i in range(1, n)
    ]
    return swap_dephasing(swaps, kappas)


def swap_dephasing(
    swaps: Sequence[groups.Permutation], kappas: Iterable[float | complex]
) -> Channel:
    """The channel with Kraus operators kappa_i sigma_i for the lifted basis
    permutations ``swaps``, one coefficient each, sum |kappa_i|^2 = 1: the
    one constructor of swap dephasing, on the n-cube for
    :func:`swap_dephasing_example` and on any Cayley graph for ``qwlab dfs``."""
    kap = _inexact(tuple(kappas))
    if len(kap) != len(swaps):
        raise ValueError(f"expected {len(swaps)} coefficients, got {len(kap)}")
    with np.errstate(over="ignore"):  # an overflowing sum is refused below, as inf
        norm = sum(abs(k) ** 2 for k in kap)
    if not abs(norm - 1.0) <= COMPLETENESS_ATOL:
        raise ValueError(f"sum |kappa|^2 = {norm} != 1")
    images = np.array([s.array for s in swaps])
    weights = np.repeat(kap[:, None], images.shape[1], axis=1)
    return Channel._from_monomials(images, weights)
