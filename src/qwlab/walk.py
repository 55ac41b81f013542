"""Coins, discrete evolution operators, and continuous-time propagators.

A discrete step is U = S (I (x) C): coin flip in each vertex's direction
space followed by the shift along colored edges.  Continuous walks drop
the coin and exponentiate a symmetric Hamiltonian built from the
adjacency structure.
"""

from __future__ import annotations

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


def _require_unitary(m: np.ndarray, atol: float, what: str):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    if defect > atol:
        raise ValueError(f"{what} is not unitary (defect {defect:.3e} > {atol:.0e})")


@dataclass(frozen=True, eq=False)
class Coin:
    """A unitary acting on one vertex's direction space."""

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        _require_unitary(self.matrix, COIN_UNITARITY_ATOL, "coin")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """Dense unitary on the walk basis, with provenance when available."""

    matrix: np.ndarray
    graph: ColoredGraph | None = None
    coin: Coin | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    image = shift_permutation(g)
    u = np.empty((image.size, image.size), dtype=complex)
    u[image] = np.kron(np.eye(g.num_vertices), coin.matrix)  # row j of I (x) C is row image[j] of U
    return WalkOperator(u, graph=g, coin=coin)


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
    if np.max(np.abs(h - h.T)) > 1e-12:
        raise ValueError("Hamiltonian must be symmetric")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w * t)) @ v.T
    _require_unitary(u, PROPAGATOR_UNITARITY_ATOL, "propagator")
    return WalkOperator(u)


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, for golden tests and CLI output."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])
