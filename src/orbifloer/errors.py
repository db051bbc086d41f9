"""Exception types shared across the package."""


class OrbifloerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OrbifloerError):
    """A request refused as invalid: the command line exits 2 on these."""


class DegenerateCone(ValidationError):
    """Cone generators are linearly dependent."""


class NotSimple(ValidationError):
    """Polytope is not simple (or a facet inequality is not supported)."""


class Unbounded(ValidationError):
    """Polytope has a nonzero recession direction."""


class NonPrimitiveNormal(ValidationError):
    """A facet normal has content > 1."""


class EmptyInterior(ValidationError):
    """Polytope is empty or not full-dimensional."""


class PointNotInterior(ValidationError):
    """A fiber point u was expected strictly inside the polytope."""


class NonPositiveBulkExponent(ValidationError):
    """Bulk deformation exponents must be strictly positive."""


class ZeroCoordinate(ValidationError):
    """Torus coordinates must be nonzero."""


class NoConvergence(OrbifloerError):
    """Numeric root search failed after the allotted restarts."""


class TooManyScenarios(OrbifloerError):
    """Scenario enumeration exceeded its combinatorial guard."""


class SpanNeverFull(OrbifloerError):
    """Finite-energy generators never span the ambient space."""


class InputError(ValidationError):
    """Malformed user input (CLI or JSON)."""
