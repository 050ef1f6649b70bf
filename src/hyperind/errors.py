"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HyperindError",
    "BadArgument",
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


class BadArgument(HyperindError, ValueError):
    """A refused argument, the one error the CLI exits 2 on; a ValueError too."""


class InvalidVertex(HyperindError):
    """A vertex id or count breaks the rule: an integer, not a bool, with
    an id in [0, n) and a count n >= 0."""


class EmptyEdge(HyperindError):
    """An edge with no vertices was supplied."""


class EmptyHypergraph(HyperindError):
    """The operation needs at least one vertex."""


class NotLinear(HyperindError):
    """Two edges share more than one vertex."""


class BadUniformity(BadArgument):
    """The uniformity parameter r is out of range (needs r >= 2)."""


class NegativeDegree(BadArgument):
    """A degree argument below zero was supplied."""


class NonConvergent(HyperindError):
    """Quadrature could not reach its error-estimate target in float arithmetic."""


class HypothesisViolated(HyperindError):
    """The input fails a structural precondition (uniform/linear/triangle-free)."""


class BadSpec(BadArgument):
    """An instance specification contains invalid parameters."""


class HgFormatError(HyperindError):
    """Malformed .hg text."""
