"""Exception types shared across the package."""


class DiskmapError(Exception):
    """Base class for all diskmap errors."""


class DegenerateTriangle(DiskmapError):
    """Triangle area is below the scale-relative degeneracy threshold."""


class DegenerateCoefficient(DiskmapError):
    """Beltrami coefficient too close to the unit circle."""


class DimensionMismatch(DiskmapError):
    """Array shapes do not match the mesh or each other."""


class InsufficientData(DiskmapError):
    """Not enough usable rows for a fit."""


class InvalidTopology(DiskmapError):
    """Mesh connectivity violates the manifold-with-boundary invariants."""


class NearPole(DiskmapError):
    """Point too close to the projection pole."""


class NonFiniteVertex(DiskmapError):
    """A mesh vertex, or the value an input file gives for one, has a NaN
    or infinite coordinate."""


class NonFiniteWeight(DiskmapError):
    """A Laplacian weight evaluated to NaN or infinity."""


class ParseError(DiskmapError):
    """An input file (OFF mesh, Beltrami CSV) could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SingularSystem(DiskmapError):
    """A sparse matrix could not be factored (``laplacian.factorize``)."""


class SolverFailure(DiskmapError):
    """Linear solve finished but the residual check failed."""


class ZeroReference(DiskmapError):
    """Reference map has zero norm, relative error undefined."""
