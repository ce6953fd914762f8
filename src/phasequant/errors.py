"""Exception types shared across the package, and its one route-check rule."""

__all__ = [
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
