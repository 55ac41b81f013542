"""Coins, discrete evolution operators, and continuous-time propagators.

A discrete step is U = S (I (x) C): coin flip in each vertex's direction
space followed by the shift along colored edges.  Continuous walks drop
the coin and exponentiate a symmetric Hamiltonian built from the
adjacency structure.  Walk data is float64 when its entries are real (the
Grover coin and its U) and complex128 when not (the DFT coin, a phased
walk); numpy's type promotion picks the arithmetic of what is computed
from it.  The memory budget lives here too: the dense U, the eigensolves
and the solves on it each check their estimated working set against it
before they allocate.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .graphs import ColoredGraph, adjacency_matrix, shift_permutation

__all__ = [
    "Coin",
    "WalkOperator",
    "grover_coin",
    "dft_coin",
    "custom_coin",
    "evolution_operator",
    "continuous_hamiltonian",
    "continuous_propagator",
    "matrix_to_json",
    "matrix_from_json",
]

COIN_UNITARITY_ATOL = 1e-10
PROPAGATOR_UNITARITY_ATOL = 1e-9
# bytes held per entry while a matrix is written as JSON: the [re, im]
# list, its two floats and its share of the text written from them (180 to
# 212 measured through the CLI's JSON output, 256 x 256 to 1408 x 1408)
JSON_ENTRY_BYTES = 256
# where this process's cgroups are listed, and where they are mounted
PROC_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"


def _inexact(a) -> np.ndarray:
    """``a`` as float64 when its entries are real, else as complex128."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, float), copy=False)


def _start_columns(state: np.ndarray) -> np.ndarray:
    """The D x k columns Psi of a start, with rho_0 = Psi Psi+: a vector is
    its own single column, a view; a density matrix is factored by the eigh
    that checks it is positive semidefinite to 1e-10, its eigenvalues at
    most D eps lambda_max dropped, so that a rank-k start is D x k."""
    if state.ndim == 1:
        return state[:, None]
    if state.ndim != 2:
        raise ValueError("state must be a vector or a density matrix")
    w, v = np.linalg.eigh((state + state.conj().T) / 2)
    if not w[0] >= -1e-10:
        raise ValueError(f"rho0 not positive semidefinite (min eig {w[0]:.3e})")
    keep = w > len(w) * np.finfo(float).eps * w[-1]
    return v[:, keep] * np.sqrt(w[keep])


def _require_unitary(m: np.ndarray, atol: float, what: str):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    if not defect <= atol:
        raise ValueError(f"{what} is not unitary (defect {defect:.3e} > {atol:.0e})")


@functools.cache
def _memory_budget() -> int:
    """Physical memory, or the lowest memory limit set on this process's
    cgroup (v2, or v1's memory controller) or one of its ancestors; read
    once per process."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open(PROC_CGROUP) as f:
            listing = [line.split(":", 2) for line in f.read().splitlines()]
    except OSError:
        listing = []
    for _, controllers, path in listing:
        v1 = "memory" in controllers.split(",")
        if controllers and not v1:
            continue
        parts = [CGROUP_ROOT, "memory"] if v1 else [CGROUP_ROOT]
        for part in path.split("/"):  # the mount root, then one level down at a time
            parts.append(part)
            try:
                with open(os.path.join(*parts, "memory.limit_in_bytes" if v1 else "memory.max")) as f:
                    budget = min(budget, int(f.read()))
            except (OSError, ValueError):  # no such file, or "max"
                pass
    return budget


def _check_memory(dim: int, entries: int, dtype=complex) -> None:
    """Refuse work in dimension ``dim`` before it allocates: an estimated
    ``entries`` numbers of ``dtype`` held at once beyond the memory budget."""
    _check_bytes(f"dimension {dim}", entries * np.dtype(dtype).itemsize)


def _check_bytes(subject: str, need: int) -> None:
    """Refuse work on ``subject`` before it allocates: an estimated ``need``
    bytes held at once beyond the memory budget."""
    budget = _memory_budget()
    if need > budget:
        raise ValueError(f"{subject} needs an estimated {_size_text(need)}, "
                         f"over a memory budget of {_size_text(budget)}")


def _size_text(nbytes: int) -> str:
    """nbytes rounded in the largest of MiB, KiB and bytes that it reaches."""
    for unit, scale in (("MiB", 2**20), ("KiB", 2**10)):
        if nbytes >= scale:
            return f"{nbytes / scale:.0f} {unit}"
    return f"{nbytes} bytes"


@dataclass(frozen=True, eq=False)
class Coin:
    """A unitary acting on one vertex's direction space."""

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _inexact(self.matrix))
        _require_unitary(self.matrix, COIN_UNITARITY_ATOL, "coin")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """A unitary on the walk basis in the factored form U = S (I (x) C).

    ``block`` (C, b x b) acts on each run of b consecutive basis states, and
    the permutation ``image`` then moves state j to image[j]: row j of
    I (x) C is row image[j] of U.  ``WalkOperator(matrix)`` is the same form
    with one D x D block and the identity image, whose ``matrix`` is that
    block itself.  :meth:`apply` costs O(D b) per column; any other dense
    ``matrix`` is built on first read, and refused first if it would not
    fit in the memory budget.  ``graph``,
    when given, is the graph the walk runs on; the finals and the
    dephasing labels of a measured walk are read from it.
    """

    block: np.ndarray
    graph: ColoredGraph | None = None
    image: np.ndarray | None = None

    def __post_init__(self):
        block = _inexact(self.block)
        object.__setattr__(self, "block", block)
        if self.image is None:
            object.__setattr__(self, "image", np.arange(block.shape[0]))

    @property
    def dim(self) -> int:
        return self.image.size

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        d, b = self.dim, self.block.shape[0]
        if b == d and np.array_equal(self.image, np.arange(d)):
            return self.block
        _check_memory(d, 2 * d * d, self.block.dtype)  # U and the product it is gathered from
        u = np.empty((d, d), dtype=self.block.dtype)
        eye = np.eye(d // b)  # I (x) C, entry for entry as np.kron forms it
        u[self.image] = (eye[:, None, :, None] * self.block[None, :, None, :]).reshape(d, d)
        return u

    @functools.cached_property
    def _gathers(self) -> tuple[np.ndarray, np.ndarray]:
        """Row gathers around the one product with C.  The first lists the
        basis coin-major (state v*b + c at position c*n + v), so that C acts
        on a b x (n k) matrix; the second reads row i of U x at the
        coin-major position of the state that U moves to i."""
        b = self.block.shape[0]
        n = self.dim // b
        source = np.empty_like(self.image)
        source[self.image] = np.arange(self.dim)
        return np.arange(self.dim).reshape(n, b).T.ravel(), source % b * n + source // b

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x for a length-D vector or a D x k block of columns."""
        coin_major, rows = self._gathers
        b = self.block.shape[0]
        return (self.block @ x[coin_major].reshape(b, -1)).reshape(x.shape)[rows]


def _as_walk(u) -> WalkOperator:
    """``u`` itself when it is a WalkOperator, else ``WalkOperator(u)``: an
    array is wrapped as one block, which its ``matrix`` returns uncopied."""
    return u if isinstance(u, WalkOperator) else WalkOperator(u)


def grover_coin(d: int) -> Coin:
    """Reflection about the uniform direction state: 2/d off-diagonal, 2/d - 1 diagonal."""
    if d < 1:
        raise ValueError("coin dimension must be >= 1")
    m = np.full((d, d), 2.0 / d) - np.eye(d)
    return Coin("grover", m)


def dft_coin(d: int) -> Coin:
    """Discrete Fourier transform coin with entries omega**(j*k) / sqrt(d)."""
    if d < 1:
        raise ValueError("coin dimension must be >= 1")
    jk = np.outer(np.arange(d), np.arange(d))
    m = np.exp(2j * np.pi * jk / d) / np.sqrt(d)
    return Coin("dft", m)


def custom_coin(matrix: np.ndarray, kind: str = "custom") -> Coin:
    return Coin(kind, matrix)


def evolution_operator(g: ColoredGraph, coin: Coin) -> WalkOperator:
    """U = S (I (x) C) for a regular, consistently colored graph.

    U is a row permutation of I (x) C, so it is as unitary as the coin.
    """
    if not g.is_regular:
        raise ValueError("coined evolution needs a regular graph")
    if not g.is_consistently_colored:
        raise ValueError("coined evolution needs a consistently colored graph")
    d = g.degree_value
    if coin.dim != d:
        raise ValueError(f"coin dimension {coin.dim} != graph degree {d}")
    return WalkOperator(coin.matrix, g, image=shift_permutation(g))


def continuous_hamiltonian(
    g: ColoredGraph, gamma: float = 1.0, convention: str = "laplacian"
) -> np.ndarray:
    """Hamiltonian of the continuous walk at jumping rate gamma.

    ``laplacian`` puts gamma * degree on the diagonal and -gamma on edges;
    ``adjacency`` is gamma * A, which differs from the Laplacian by the
    constant gamma*d*I on regular graphs (a global phase after
    exponentiation).
    """
    a = adjacency_matrix(g)
    if convention == "adjacency":
        return gamma * a
    if convention == "laplacian":
        return gamma * (np.diag(np.asarray(g.degrees, dtype=float)) - a)
    raise ValueError(f"unknown convention {convention!r}")


def continuous_propagator(h: np.ndarray, t: float) -> WalkOperator:
    """exp(i H t) via eigendecomposition of the symmetric Hamiltonian."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be square")
    if not np.max(np.abs(h - h.T)) <= 1e-12:
        raise ValueError("Hamiltonian must be symmetric")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w * t)) @ v.T
    _require_unitary(u, PROPAGATOR_UNITARITY_ATOL, "propagator")
    return WalkOperator(u)


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, for golden tests and CLI output;
    refused before they are built if they and their text would not fit."""
    _check_bytes(f"a JSON matrix of {np.size(m)} entries", np.size(m) * JSON_ENTRY_BYTES)
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])
