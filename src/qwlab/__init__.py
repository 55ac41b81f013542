"""Quantum walks on colored graphs: hitting times, spectra, decoherence, quotients.

``qwlab.fourier``, the hypercube walk's Fourier route, is imported by
``qwlab.spectral`` on first use.
"""

from . import decoherence, graphs, groups, hitting, quotient, spectral, walk
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
