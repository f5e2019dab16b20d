"""Exception types shared across the package, and the rule by which a check
keeps its largest deviation."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedCaseError(ValueError):
    """The requested parameter regime has no implemented formula."""


class ResourceLimitError(RuntimeError):
    """A configured size/budget cap would be exceeded."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


def exceeds(dev: float, worst: float) -> bool:
    """Whether ``dev`` replaces ``worst`` as a check's largest deviation.  The
    first NaN replaces any number and is kept, so that its check fails."""
    return dev > worst or (math.isnan(dev) and not math.isnan(worst))
