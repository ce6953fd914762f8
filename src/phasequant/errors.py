"""Exception types shared across the package, its domain rule and its route-check rule."""

import math

__all__ = [
    "check_domain",
    "check_route",
    "DomainError",
    "ConvergenceError",
    "DimensionMismatchError",
    "TruncationError",
    "DegenerateReadingError",
    "InconsistentDataError",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""


class DimensionMismatchError(ValueError):
    """Operands live on different truncated spaces (dim or k differ)."""


class TruncationError(RuntimeError):
    """Requested truncation dimension cannot meet the declared tail bound."""


class DegenerateReadingError(ValueError):
    """Interference readings carry no phase information (P3 = 0)."""


class InconsistentDataError(ValueError):
    """Input data violate the model assumed by the estimator."""


def check_route(site: str, deviation: float, tol: float, error=TruncationError,
                context: str = "") -> None:
    """Raise ``error`` unless two routes agree: deviation <= tol, so NaN fails.

    Every dual-route comparison in the package ends here.  ``site`` names the
    routes as the subject of "disagree"; ``context`` ends the message.
    """
    if not deviation <= tol:
        raise error(f"{site} disagree by {deviation:.3e} (tolerance {tol:.3e}) {context}".rstrip())


def _worst(*values):
    # the largest value (0.0 if none), or NaN if any is: the built-in max keeps
    # a NaN only in first position, so max(0.0, nan) would read as a pass
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)


def _integer(value) -> int:
    # an int, or a number equal to one; never a bool
    number = int(value)
    if isinstance(value, bool) or number != value:
        raise ValueError(value)
    return number


# each domain: how a value is read, the test the reading must pass, and the
# words for that test; a real is finite, so NaN and +-inf lie in no real domain
_DOMAINS = {
    "positive real": (float, lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "nonnegative real": (float, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "finite real": (float, lambda v: -math.inf < v < math.inf, "finite"),
    "positive integer": (_integer, lambda v: v > 0, "an integer > 0"),
    "nonnegative integer": (_integer, lambda v: v >= 0, "an integer >= 0"),
}


def check_domain(name: str, value, domain: str = "positive real", message: str = ""):
    """Return ``value`` read as ``domain``, or raise DomainError.

    ``domain`` is "positive real", "nonnegative real", "finite real",
    "positive integer" or "nonnegative integer".  Every k, rho, phi, dim and
    config integer the package takes is checked here, and so is every
    command-line flag.  The message is "<name> must be <test>, got <value>";
    a site with an older message passes it as ``message`` (formatted with
    ``{value}``), used for a finite value that fails the sign test.
    """
    read, test, words = _DOMAINS[domain]
    try:
        number = read(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is not None and test(number):
        return number
    if message and number is not None and math.isfinite(number):
        raise DomainError(message.format(value=value))
    raise DomainError(f"{name} must be {words}, got {value!r}")
