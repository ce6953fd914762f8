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
* ``bessel_k`` -- the trapezoid rule on the integral representation
  K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt, which is uniformly
  valid in real nu and avoids the I_{-nu} - I_nu cancellation at integer nu.
  The integrand is entire and decays double-exponentially, so the rule
  converges exponentially (Takahasi & Mori, Publ. RIMS 9 (1974) 721;
  Trefethen & Weideman, SIAM Review 56 (2014) 385).  The step is halved
  until the change drops below 1e-13 relative; that change, plus the size
  of the cut-off tail, is the error estimate.

The private tanh-sinh rule ``_tanh_sinh`` (the same halving, after the
double-exponential map of a finite interval) serves the radial moment and
the quadrature route of g_k in ``bgstates``.  Both rules evaluate each
level's nodes in one numpy expression; nothing here imports scipy.

The scaled variants ``bessel_i_scaled`` (e^{-x} I_nu) and ``bessel_k_scaled``
(e^{x} K_nu) exist because downstream ratios such as I_{2k}(2 rho)/I_{2k-1}(2 rho)
and products I*K are needed at 2*rho ~ 200 where the unscaled values leave
double range or waste precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# Halvings of the step before a quadrature rule gives up; read at call time.
_DE_LEVELS = 10
# Initial intervals of every rule, and the tanh-sinh half-range in s: at
# s = 3.5 the nodes lie within 2.7e-23 (relative) of the endpoints.
_DE_INTERVALS = 8
_TS_SPAN = 3.5
# The K integrand is cut where its exponent bound has dropped by this much.
_K_DROP = 45.0
_LN2 = math.log(2.0)


def _trapezoid(F, span: float, tol: float):
    """h (F(0)/2 + sum_j F(j h)) over nodes in [0, span], halving h.

    F is even, analytic in a strip and decays double-exponentially, so the
    trapezoid sum converges exponentially and each halving roughly squares
    the error.  F maps a 1-d array of nodes to values of shape (..., nodes);
    every leading entry is an integral of its own.  The step is halved until
    every change is at most tol |value|.  The error estimate is the last
    change plus h |F(span)|, the size of the dropped tail.  Returns
    (value, error); error is inf if no halving was allowed.
    """
    n = _DE_INTERVALS
    h = span / n
    vals = F(h * np.arange(n + 1))
    edge = np.abs(vals[..., -1])
    total = h * (vals.sum(axis=-1) - 0.5 * vals[..., 0])
    err = np.full_like(total, np.inf)
    for _ in range(_DE_LEVELS):
        h *= 0.5
        new = 0.5 * total + h * F(h * np.arange(1, 2 * n, 2)).sum(axis=-1)
        err = np.abs(new - total) + h * edge
        total, n = new, 2 * n
        if np.all(err <= tol * np.abs(total)):
            break
    return total, err


def _tanh_sinh(f, b: float, tol: float):
    """int_0^b f(x) dx by the tanh-sinh rule x = b/2 (1 + tanh(pi/2 sinh s)).

    Nodes at s and -s are evaluated together.  Their distance to the nearer
    endpoint, b q/(1+q) with q = e^{-pi sinh s}, never cancels, so nodes
    next to 0 are exact and f may have an integrable singularity there.
    f maps a 1-d array of nodes to values of shape (..., nodes).  Returns
    (value, error) as :func:`_trapezoid`.
    """

    def folded(s):
        q = np.exp(-np.pi * np.sinh(s))
        near = b * q / (1.0 + q)
        weight = np.pi * b * np.cosh(s) * q / (1.0 + q) ** 2
        vals = f(np.concatenate([near, b - near]))
        return weight * (vals[..., :s.size] + vals[..., s.size:])

    return _trapezoid(folded, _TS_SPAN, tol)


def _k_frame(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut point T and integer reference exponent R of the scaled K integrand.

    B(t) = nu t - 2x sinh^2(t/2) bounds the scaled exponent from above
    (ln cosh y <= y) and peaks at t_b = asinh(nu/x); R is B(t_b) rounded.
    T > t_b solves x (cosh T - 1) = nu T - B(t_b) + _K_DROP.  The fixed-point
    iteration rises monotonically to it and contracts, since x sinh T > nu
    there.  T is rounded up to a power of two, so every node t = T j 2^-m is
    exact.
    """
    tb = np.log(nu + np.hypot(nu, x)) - np.log(x)
    peak = nu * tb - np.hypot(nu, x) + x
    span = tb
    for _ in range(8):
        span = np.arccosh(np.minimum(1.0 + (nu * span - peak + _K_DROP) / x, 1e300))
    return np.exp2(np.ceil(np.log2(np.minimum(span + 0.5, 700.0)))), np.rint(peak)


def _k_quad(nu: float, x: np.ndarray, scaled: bool) -> np.ndarray:
    """K_nu at every x of an array, scaled by e^x when requested.

    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt.  The integrand is even
    and entire in t and decays double-exponentially, so the trapezoid rule
    on [0, T(x)] converges exponentially.  All x share one node grid in
    t/T(x), one array expression per level.  The scaled exponent is written
    as -2x sinh^2(t/2), which avoids the cancellation of x - x cosh(t) near
    t = 0.  It is taken relative to R, so it stays small near the peak, and
    e^R (and e^{-x}) multiply the sum afterwards.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # an inf cuts the integrand off or fails the check
        span, ref = _k_frame(nu, x)
        col_span, col_ref, col_x = span[:, None], ref[:, None], x[:, None]

        def integrand(tau):
            # ln cosh(nu t) = nu t + ln(1 + e^{-2 nu t}) - ln 2
            t = col_span * tau
            y = nu * t
            rest = np.log1p(np.exp(-2.0 * y)) - _LN2 - 2.0 * col_x * np.sinh(0.5 * t) ** 2
            return col_span * np.exp((y - col_ref) + rest)

        value, err = _trapezoid(integrand, 1.0, 1e-13)
        factor = np.exp(ref) if scaled else np.exp(ref) * np.exp(-x)
        value, err = value * factor, err * factor
    bad = ~((err <= 1e-8 * np.abs(value)) & np.isfinite(value))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"K quadrature for nu={nu}, x={x[i]}: "
            f"estimated error {err[i]:.2e} of {value[i]:.2e}"
        )
    return value


def bessel_k(nu: float, x: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Modified Bessel function of the third kind, K_nu(x), for x > 0.

    Evaluated by the trapezoid rule on int_0^T exp(-x cosh t) cosh(nu t) dt,
    with the step halved until the change is below 1e-13 relative; positive
    and monotone decreasing in x.  ``policy`` steers only the I evaluators.

    Raises
    ------
    DomainError
        For x <= 0 or nu < 0.
    ConvergenceError
        If the rule's error estimate (last change plus cut-off tail) exceeds
        1e-8 of the value, or the value is not representable.
    """
    if nu < 0.0:
        raise DomainError(f"bessel_k requires nu >= 0, got nu={nu}")
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got x={x}")
    return float(_k_quad(nu, np.array([x]), scaled=False)[0])


def bessel_k_scaled(nu: float, x: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Exponentially scaled e^{x} K_nu(x).

    The same trapezoid rule and error check as :func:`bessel_k`, on the
    integrand exp(-2x sinh^2(t/2)) cosh(nu t): the scaling is applied inside
    the rule rather than as an overflowing prefactor.
    """
    if nu < 0.0:
        raise DomainError(f"bessel_k_scaled requires nu >= 0, got nu={nu}")
    if not x > 0.0:
        raise DomainError(f"bessel_k_scaled requires x > 0, got x={x}")
    return float(_k_quad(nu, np.array([x]), scaled=True)[0])
