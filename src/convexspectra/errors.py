"""Exception types shared across the package.

Every checked failure mode gets its own class so callers (and the CLI exit-code
mapping) can distinguish bad input from a failed property check.
"""


class ConvexSpectraError(Exception):
    """Base class for all package-specific errors."""


class NotConvexError(ConvexSpectraError):
    """Vertex chain contains a right turn after orientation normalization."""


class DegenerateError(ConvexSpectraError):
    """Polygon has collinear or duplicate consecutive vertices, or zero area."""


class NotSymmetricError(ConvexSpectraError):
    """Operation requires a centrally symmetric body."""


class EdgeThroughOriginError(ConvexSpectraError):
    """Chosen edge lies on a line through the origin; normalization is singular."""


class NotStandardPositionError(ConvexSpectraError):
    """Body does not contain the unit square or leaks out of the vertical slab."""


class NoConvergenceError(ConvexSpectraError):
    """Adaptive quadrature hit its subdivision limit without reaching tolerance."""


class NotTileableError(ConvexSpectraError):
    """Lattice construction is only defined for symmetric quadrilaterals and hexagons."""


class CovolumeMismatchError(ConvexSpectraError):
    """Lattice covolume does not match the body area; exact cover is impossible."""


class TooFewVerticesError(ConvexSpectraError):
    """Obstruction certificates require a symmetric 2n-gon with n >= 4."""


class NoBlowupError(ConvexSpectraError):
    """Cap slope stays bounded as delta -> 0; scale selection is undefined."""


class NoZerosFoundError(ConvexSpectraError):
    """No transform zeros located in the requested scan region."""


class BodyFileError(ConvexSpectraError):
    """Body description file is malformed; message carries the offending field path."""


class BodyParseError(BodyFileError):
    """File is not readable as a body description (bad JSON, missing fields)."""


class BodyValidationError(BodyFileError):
    """File parsed but the described body is invalid (wraps geometry errors)."""
