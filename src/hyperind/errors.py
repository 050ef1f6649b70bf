"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HyperindError",
    "InvalidVertex",
    "EmptyEdge",
    "EmptyHypergraph",
    "NotLinear",
    "BadUniformity",
    "NegativeDegree",
    "NonConvergent",
    "HypothesisViolated",
    "BadSpec",
    "HgFormatError",
]


class HyperindError(Exception):
    """Base class for all package errors."""


class InvalidVertex(HyperindError):
    """A vertex id falls outside the vertex range of the hypergraph."""


class EmptyEdge(HyperindError):
    """An edge with no vertices was supplied."""


class EmptyHypergraph(HyperindError):
    """The operation needs at least one vertex."""


class NotLinear(HyperindError):
    """Two edges share more than one vertex."""


class BadUniformity(HyperindError):
    """The uniformity parameter r is out of range (needs r >= 2)."""


class NegativeDegree(HyperindError):
    """A degree argument below zero was supplied."""


class NonConvergent(HyperindError):
    """Numerical integration could not bring its error estimate below tol."""


class HypothesisViolated(HyperindError):
    """The input fails a structural precondition (uniform/linear/triangle-free)."""


class BadSpec(HyperindError):
    """An instance specification contains invalid parameters."""


class HgFormatError(HyperindError):
    """Malformed .hg text."""
