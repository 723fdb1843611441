"""Shared exception types.

The CLI maps these onto exit codes: usage problems exit 1, mathematical
degeneracies exit 2, verification failures exit 3, and EnumerationBound, a
resource ceiling, exits 4.  TorsionUnavailable maps to 4 as well, though no
subcommand raises it.
"""


class RadicantError(Exception):
    """Base class for all library errors."""


class ContextMismatch(RadicantError):
    """Two field elements from different field contexts were mixed."""


class DegenerateParams(RadicantError):
    """Tate parameters with vanishing discriminant (or b = 0)."""


class NoRootError(RadicantError):
    """The requested radical does not exist in the field."""


class DegenerateStep(RadicantError):
    """A radical step hit a pole of the rational expression."""

    def __init__(self, message, alpha=None):
        super().__init__(message)
        self.alpha = alpha


class SupportCollision(RadicantError):
    """A function was evaluated at a point of its divisor's support."""


class TorsionUnavailable(RadicantError):
    """The full N-torsion E[N] is not rational over the field asked for (or,
    in `full_torsion_degree`, over any extension up to its degree bound): a
    property of the curve, not a resource ceiling."""


class EnumerationBound(RadicantError):
    """A field or matrix group is too large for exhaustive enumeration."""


class InvariantError(RadicantError):
    """An internal consistency check failed: a defect, not a property of the
    input.  Raised in place of ``assert`` so that ``python -O`` keeps it."""
