"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ModelError (malformed input) exits 2,
the numerical refusals (cap exceeded, unnormalizable model, a sum out of
float range) exit 1.
"""


class ZboundsError(Exception):
    """Base class for all package errors."""


class ModelError(ZboundsError):
    """Malformed model, table, assignment, or argument."""


class EnumerationCapError(ZboundsError):
    """An exact enumeration was refused because the state space is too large."""


class UnnormalizableError(ZboundsError):
    """The partition function is zero, so marginals do not exist."""


class NumericRangeError(ZboundsError):
    """An exact sum overflowed or is NaN, so no finite value can be returned."""
