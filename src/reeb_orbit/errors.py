"""Exception types shared across the package."""

import math


class ReebOrbitError(Exception):
    """Base class for all package errors."""


class ParseError(ReebOrbitError):
    """Malformed input file or JSON document."""


class DataError(ReebOrbitError):
    """Well-formed input with invalid numeric data (e.g. non-positive area)."""


class TopologyError(ReebOrbitError):
    """Input mesh is not an oriented surface (non-manifold edge,
    inconsistent orientation, disconnected 1-skeleton)."""


class UnsupportedMap(ReebOrbitError):
    """remap() was given a transformation it does not implement."""


class NotSimpleMorse(ReebOrbitError):
    """Operation requires a field that passed validation."""


class UnclassifiableTransition(ReebOrbitError):
    """Level transition at a critical component matches no vertex type."""


class InsufficientSamples(ReebOrbitError):
    """Asymptotic fit requested with a window larger than the profile."""


class LevelOnVertex(ReebOrbitError):
    """Query level hits a mesh vertex exactly; perturb the query value."""


class InfeasibleTarget(ReebOrbitError):
    """Requested circulation/cycle data cannot be realized by any one-form."""


class InvalidGraph(ReebOrbitError):
    """Measured Reeb graph violates a structural invariant."""


class AmbiguousMatching(ReebOrbitError):
    """Vertex f-values too close to force the candidate bijection."""


class NonIntegerFormulaValue(ReebOrbitError):
    """The closed genus formula evaluated to a non-integer."""

    def __init__(self, value: float):
        super().__init__(f"genus formula returned non-integer value {value!r}")
        self.value = value


def check_tolerances(**tols: float | None) -> None:
    """Raise DataError unless each tolerance given (not None) is finite and non-negative."""
    for name, tol in tols.items():
        if tol is not None and not 0.0 <= tol < math.inf:
            raise DataError(f"{name} must be finite and non-negative, got {tol!r}")
