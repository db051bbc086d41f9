"""Exception types shared across the package."""


class OrbifloerError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateCone(OrbifloerError):
    """Cone generators are linearly dependent."""


class NotSimple(OrbifloerError):
    """Polytope is not simple (or a facet inequality is not supported)."""


class Unbounded(OrbifloerError):
    """Polytope has a nonzero recession direction."""


class NonPrimitiveNormal(OrbifloerError):
    """A facet normal has content > 1."""


class EmptyInterior(OrbifloerError):
    """Polytope is empty or not full-dimensional."""


class PointNotInterior(OrbifloerError):
    """A fiber point u was expected strictly inside the polytope."""


class NonPositiveBulkExponent(OrbifloerError):
    """Bulk deformation exponents must be strictly positive."""


class ZeroCoordinate(OrbifloerError):
    """Torus coordinates must be nonzero."""


class NoConvergence(OrbifloerError):
    """Numeric root search failed after the allotted restarts."""


class TooManyScenarios(OrbifloerError):
    """Scenario enumeration exceeded its combinatorial guard."""


class SpanNeverFull(OrbifloerError):
    """Finite-energy generators never span the ambient space."""


class InputError(OrbifloerError):
    """Malformed user input (CLI or JSON)."""
