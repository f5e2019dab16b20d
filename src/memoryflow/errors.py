"""Exception types shared across the package, the one memory budget and its
refusal, and the array rule by which a check keeps its largest deviation and
where it occurred, and becomes a report entry."""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedCaseError(ValueError):
    """The requested parameter regime has no implemented formula."""


class ResourceLimitError(RuntimeError):
    """A configured size/budget cap would be exceeded."""


#: bytes one run may hold in its largest tables; every memory cap counts the
#: bytes its run would hold and is refused by ``require_bytes`` before any
#: allocation
MAX_GRID_BYTES = 1 << 28


def require_bytes(nbytes, fields: str) -> None:
    """Refuse, with a ``ResourceLimitError`` naming ``fields``, a run whose
    count of bytes is not at most ``MAX_GRID_BYTES``: an infinite or NaN count
    is refused too, so a count may stay a float until it has passed."""
    if not nbytes <= MAX_GRID_BYTES:
        raise ResourceLimitError(
            f"the grid set by {fields} would exceed MAX_GRID_BYTES = {MAX_GRID_BYTES} bytes")


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


def largest_deviation(devs, locate) -> tuple[float, str]:
    """The largest of an array of deviations in report order, and its location
    ``locate(flat_index)``, formatted for that entry alone; (0.0, "") when none
    is positive.  One ``np.argmax`` keeps the first NaN, so that its check
    fails, and the first of equal deviations."""
    devs = np.concatenate(([0.0], np.ravel(devs)))  # index 0: none positive
    index = int(np.argmax(devs))
    return (float(devs[index]), locate(index - 1)) if index else (0.0, "")


def check(name: str, deviation: tuple[float, str], tol: float) -> dict:
    """The report entry of a check from its (largest deviation, location)
    pair: it passes when the deviation is at most ``tol``, so a NaN fails."""
    max_dev, location = deviation
    return {
        "name": name,
        "max_dev": float(max_dev),
        "tol": float(tol),
        "pass": bool(max_dev <= tol),
        "location": location,
    }
