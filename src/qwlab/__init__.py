"""Quantum walks on colored graphs: hitting times, spectra, decoherence, quotients.

``qwlab.fourier`` holds the eigenvector frames every spectral report is
held in (the hypercube walk's Fourier blocks, or one dense block) and the
n-cube's convention; it imports nothing from ``qwlab.spectral``, which
imports it at load time and alone chooses a walk's spectral route.
"""

from . import decoherence, fourier, graphs, groups, hitting, quotient, spectral, walk
from .errors import (
    GroupOrderError,
    IndeterminateError,
    NotAnAutomorphismError,
    OracleMismatchError,
    QwlabError,
    SymmetryError,
    ThresholdUnreachableError,
)

__version__ = "0.1.0"

__all__ = [
    "graphs",
    "groups",
    "walk",
    "hitting",
    "spectral",
    "fourier",
    "decoherence",
    "quotient",
    "QwlabError",
    "IndeterminateError",
    "ThresholdUnreachableError",
    "GroupOrderError",
    "NotAnAutomorphismError",
    "SymmetryError",
    "OracleMismatchError",
    "__version__",
]
