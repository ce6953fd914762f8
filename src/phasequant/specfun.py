"""Log-Gamma and modified Bessel functions of real order.

Self-contained implementations of ln Gamma, I_nu and K_nu tuned for the
argument ranges this package actually visits (orders up to a few tens,
arguments up to a few hundred).  Evaluation strategy:

* ``ln_gamma`` -- Lanczos approximation (g = 7, 9 coefficients) plus a
  downward recurrence for arguments below 1/2.
* ``bessel_i`` -- ascending power series below ``EvalPolicy.series_cutoff``;
  between the cutoff and ``asymptotic_threshold`` the same series is summed
  with terms scaled by e^{-x} so nothing overflows; above the threshold an
  exponentially scaled asymptotic sum with optimal truncation.
* ``bessel_k`` -- adaptive quadrature of the integral representation
  K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt, which is uniformly
  valid in real nu and avoids the I_{-nu} - I_nu cancellation at integer nu.

The scaled variants ``bessel_i_scaled`` (e^{-x} I_ue) and ``bessel_k_scaled``
(e^{x} K_nu) exist because downstream ratios such as I_{2k}(2 rho)/I_{2k-1}(2 rho)
and products I*K are needed at 2*rho ~ 200 where the unscaled values leave
double range or waste precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = [
    "EvalPolicy",
    "DEFAULT_POLICY",
    "ln_gamma",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_i_asymptotic",
    "bessel_k",
    "bessel_k_scaled",
]


@dataclass(frozen=True)
class EvalPolicy:
    """Thresholds steering the series/asymptotics switch for I_nu.

    Parameters
    ----------
    series_cutoff : float
        Largest argument evaluated with the plain ascending series.
    asymptotic_threshold : float
        Above this the exponentially scaled asymptotic sum takes over;
        between the two thresholds the scaled series is used.  Must be
        strictly larger than ``series_cutoff``.
    abs_tol : float
        A series is truncated once the current term drops below this value
        relative to the accumulated sum.
    max_terms : int
        Hard cap on summed terms; exceeded means ``ConvergenceError``.
    """

    series_cutoff: float = 30.0
    asymptotic_threshold: float = 400.0
    abs_tol: float = 1e-15
    max_terms: int = 500

    def __post_init__(self) -> None:
        if not self.series_cutoff > 0:
            raise DomainError("series_cutoff must be positive")
        if not self.series_cutoff < self.asymptotic_threshold:
            raise DomainError("series_cutoff must be < asymptotic_threshold")
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_POLICY = EvalPolicy()

# Lanczos g=7 coefficients, accurate to ~1e-15 relative for Re x > 1/2.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Relative error stays below 1e-13 on [1e-3, 1e6].

    Raises
    ------
    DomainError
        If ``x <= 0``.
    """
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    # Push small arguments up where Lanczos is accurate: Gamma(x) = Gamma(x+1)/x.
    shift = 0.0
    while x < 0.5:
        shift -= math.log(x)
        x += 1.0
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return shift + _HALF_LN_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _i_series(nu: float, x: float, policy: EvalPolicy, scale: float) -> float:
    """Ascending series for I_nu(x), with every term multiplied by e^{-scale}."""
    log_t0 = nu * math.log(x / 2.0) - ln_gamma(nu + 1.0) - scale
    term = math.exp(log_t0)
    if term == 0.0:
        return 0.0
    total = term
    q = 0.25 * x * x
    for m in range(1, policy.max_terms + 1):
        term *= q / (m * (nu + m))
        total += term
        # Terms ascend until m(nu+m) > q; the cutoff may only fire on the
        # tail, and is taken relative to the sum (terms are all positive).
        # With <=, a subnormal sum, whose tolerance rounds to 0, still stops.
        if term <= policy.abs_tol * total and m * (nu + m) > q:
            return total
    raise ConvergenceError(
        f"I series for nu={nu}, x={x} not converged in {policy.max_terms} terms"
    )


def _i_asymptotic_scaled(nu: float, x: float, policy: EvalPolicy) -> float:
    """Optimally truncated asymptotic sum for e^{-x} I_nu(x), large x."""
    mu = 4.0 * nu * nu
    term = 1.0
    total = term
    for j in range(policy.max_terms):
        nxt = -term * (mu - (2 * j + 1) ** 2) / (8.0 * (j + 1) * x)
        if abs(nxt) >= abs(term):
            break  # past the optimal truncation point
        term = nxt
        total += term
        if abs(term) < policy.abs_tol * abs(total):
            break
    else:
        raise ConvergenceError(
            f"asymptotic sum for nu={nu}, x={x} not converged in {policy.max_terms} terms"
        )
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i(nu: float, x: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Modified Bessel function of the first kind, I_nu(x).

    Parameters
    ----------
    nu : float
        Order, nu >= 0.
    x : float
        Argument, x >= 0.
    policy : EvalPolicy
        Evaluation thresholds; see :class:`EvalPolicy`.

    Raises
    ------
    DomainError
        For negative order or argument.
    ConvergenceError
        If the term budget is exhausted.
    """
    if nu < 0.0 or x < 0.0:
        raise DomainError(f"bessel_i requires nu >= 0 and x >= 0, got nu={nu}, x={x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= policy.series_cutoff:
        return _i_series(nu, x, policy, scale=0.0)
    return math.exp(x) * bessel_i_scaled(nu, x, policy)


def bessel_i_scaled(nu: float, x: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Exponentially scaled e^{-x} I_nu(x); safe out to very large x."""
    if nu < 0.0 or x < 0.0:
        raise DomainError(f"bessel_i_scaled requires nu >= 0 and x >= 0, got nu={nu}, x={x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= policy.asymptotic_threshold:
        return _i_series(nu, x, policy, scale=x)
    return _i_asymptotic_scaled(nu, x, policy)


def bessel_i_asymptotic(nu: float, x: float) -> float:
    """Three-term large-argument expansion of I_nu(x).

    e^x/sqrt(2 pi x) * [1 - (4 nu^2 - 1)/(8x) + 2 (4 nu^2 - 1)(4 nu^2 - 9)/(16^2 x^2)].

    A pure formula: the caller is responsible for x being large enough that
    the retained terms decrease.
    """
    mu = 4.0 * nu * nu
    bracket = 1.0 - (mu - 1.0) / (8.0 * x) + 2.0 * (mu - 1.0) * (mu - 9.0) / (256.0 * x * x)
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * bracket


def _ln_cosh(y: float) -> float:
    y = abs(y)
    return y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)


def _k_quad(nu: float, x: float, scaled: bool, policy: EvalPolicy) -> float:
    """Quadrature of K_nu(x), scaled by e^x when requested.

    The scaled exponent is written as -2x sinh^2(t/2) to avoid the
    cancellation of x - x cosh(t) near t = 0.
    """

    # Beyond t ~ 700 the e^{-x cosh t} factor has killed the integrand for any
    # x in domain, and cosh itself would overflow; clamp to zero there.
    if scaled:

        def integrand(t: float) -> float:
            if t > 700.0:
                return 0.0
            s = math.sinh(0.5 * t)
            e = -2.0 * x * s * s + _ln_cosh(nu * t)
            return math.exp(e) if e > -745.0 else 0.0

    else:

        def integrand(t: float) -> float:
            if t > 700.0:
                return 0.0
            e = -x * math.cosh(t) + _ln_cosh(nu * t)
            return math.exp(e) if e > -745.0 else 0.0

    from scipy.integrate import quad  # deferred: scipy is slow to import

    value, abserr, info, *rest = quad(
        integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400, full_output=1
    )
    if rest or abserr > 1e-8 * abs(value):
        raise ConvergenceError(
            f"K quadrature for nu={nu}, x={x}: estimated error {abserr:.2e} of {value:.2e}"
        )
    return value


def bessel_k(nu: float, x: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Modified Bessel function of the third kind, K_nu(x), for x > 0.

    Evaluated by adaptive quadrature of the integral representation; positive
    and monotone decreasing in x.

    Raises
    ------
    DomainError
        For x <= 0 or nu < 0.
    ConvergenceError
        If the quadrature error estimate is not small relative to the value.
    """
    if nu < 0.0:
        raise DomainError(f"bessel_k requires nu >= 0, got nu={nu}")
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got x={x}")
    return _k_quad(nu, x, scaled=False, policy=policy)


def bessel_k_scaled(nu: float, x: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Exponentially scaled e^{x} K_nu(x).

    The integrand becomes exp(-2x sinh^2(t/2)) cosh(nu t), so the scaling is
    applied inside the quadrature rather than as an overflowing prefactor.
    """
    if nu < 0.0:
        raise DomainError(f"bessel_k_scaled requires nu >= 0, got nu={nu}")
    if not x > 0.0:
        raise DomainError(f"bessel_k_scaled requires x > 0, got x={x}")
    return _k_quad(nu, x, scaled=True, policy=policy)
