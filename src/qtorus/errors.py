"""Exception types shared across the package, and the value classes' base.

Every error carries a short machine-readable ``code`` so the CLI can emit
stable error objects without string-matching messages. :class:`_Frozen` is
here because every layer imports this module.
"""

from __future__ import annotations


class _Frozen:
    """Base of the slotted value classes: ``__init__`` sets each field once
    through ``object.__setattr__``, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")


class QtorusError(Exception):
    """Base class for all validation errors raised by this package."""

    code = "error"

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.message = message
        # dotted location of the offending input field, "" when not applicable
        self.path = path


class InvariantViolation(Exception):
    """An internal cross-check failed.

    This is never a user error: it means two independent computations of the
    same quantity disagreed, and the result cannot be trusted.
    """

    code = "invariant_violation"


class NonSquareMatrix(QtorusError):
    code = "non_square_matrix"


class DimensionMismatch(QtorusError):
    code = "dimension_mismatch"


class ShapeMismatch(QtorusError):
    code = "shape_mismatch"


class NonUnimodular(QtorusError):
    code = "non_unimodular"


class RelationViolated(QtorusError):
    code = "relation_violated"


class UnsupportedGenus(QtorusError):
    code = "unsupported_genus"


class NotInKernel(QtorusError):
    code = "not_in_kernel"


class NotInvariant(QtorusError):
    code = "not_invariant"


class BadComponent(QtorusError):
    code = "bad_component"


class ResourceLimit(QtorusError):
    code = "resource_limit"


class BadFraction(QtorusError):
    code = "bad_fraction"


class BadJobSpec(QtorusError):
    code = "bad_job_spec"
