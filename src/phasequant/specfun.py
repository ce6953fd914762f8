"""Log-Gamma, Gamma-weighted power series and modified Bessel functions.

Tuned for the argument ranges this package visits (orders up to a few
tens, arguments up to a few hundred):

* ``ln_gamma`` -- the stdlib's ``math.lgamma`` behind a domain check, also
  elementwise on a numpy array.
* One private series rule.  Every Barut-Girardello sum in the package (the
  normalization through I_{2k-1}(2 rho), the coefficients, g(rho), the
  overlap kernel) has terms t_n = w^n / (n! Gamma(a+n)), and the oscillator
  weights are w^n / n!.  ``_series_cut`` returns the cut N, the first n
  past the term peak below a log tolerance (DLMF 10.25.2).  It bisects on
  the closed-form ln t_n of the largest w alone, which decides for every
  row; ``_log_terms`` tabulates ln t_n, n <= N, for the callers that sum.
* ``bessel_i`` / ``bessel_i_scaled`` -- for nu > -1: the ascending series up
  to x = 30, then up to x = 400 the same series with every term scaled by
  e^{-x}.  Above that the exponentially scaled asymptotic sum is used where
  it converges: cut at its smallest term, its last kept term must be below
  1e-15 of the total.  Where it does not (orders of a few tens and more),
  the scaled series is summed instead while its sum stays in double range.
  The series sums t_m = t_{m-1} (x/2)^2 / (m (nu+m)) as a
  cumulative product over the rule's length: exponentiating the log table
  instead loses about a digit at x = 400.  Both raise DomainError where
  their value overflows (I_nu past x = 709, or the series lead
  (x/2)^nu / Gamma(nu+1) near nu = -1 at tiny x), or where neither the
  asymptotic sum nor the series can be formed; the private
  ``_ln_bessel_i`` keeps that lead a logarithm and so stays finite.  The
  private routines take Gamma's argument a = nu + 1 apart from nu, so a
  caller whose nu = 2k - 1 lost the low bits of a small 2k passes 2k
  itself.
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
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, check_route

__all__ = [
    "ln_gamma",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_i_asymptotic",
    "bessel_k",
    "bessel_k_scaled",
]

# Largest argument of the plain I series, and of the e^{-x}-scaled one.
_SERIES_CUTOFF = 30.0
_ASYMPTOTIC_THRESHOLD = 400.0
# Most terms any series may take; read at call time.
_MAX_TERMS = 200_000
# Terms below this fraction of a series' largest term are dropped.
_LOG_SERIES_TOL = math.log(1e-18)
# Largest argument of math.exp that does not overflow.
_LOG_MAX = math.log(sys.float_info.max)

_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def ln_gamma(x):
    """Natural log of the Gamma function for x > 0; elementwise on an array.

    The stdlib's ``math.lgamma``: within a few ulp of ln Gamma(x) on
    [1e-3, 2e5] (checked against mpmath at 50 digits).

    Raises
    ------
    DomainError
        If any ``x <= 0``.
    """
    if np.ndim(x):
        x = np.asarray(x, dtype=np.float64)
        if not x.min() > 0.0:
            raise DomainError(f"ln_gamma requires x > 0, got {x[~(x > 0.0)][0]}")
        return _LGAMMA(x).astype(np.float64)
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _log_terms(log_w, a: float | None, size: int) -> np.ndarray:
    """ln(w^n / (n! Gamma(a+n))) for n < size, one row per entry of log_w.

    The result has shape log_w.shape + (size,).  a = None drops the
    Gamma(a+n) factor, which leaves the Poisson form w^n / n!.
    """
    n = np.arange(size, dtype=np.float64)
    lg = ln_gamma(n + 1.0)
    if a is not None:
        lg += ln_gamma(a + n)
    return np.multiply.outer(log_w, n) - lg


def _series_cut(log_w, a: float | None, log_tol=None, ratio: float = 1.0,
                error: type[Exception] = ConvergenceError) -> int:
    """The cut N of the series of :func:`_log_terms`: they sum n = 0 .. N.

    N is the first n >= 1 past the peak, where t_n <= ratio t_{n-1}, at which
    every series (one per entry of log_w) has ln t_n < log_tol.  log_tol
    defaults to each series' largest term times 1e-18 (with ratio 1); the
    terms past N then fall at least geometrically and are dropped.

    The largest w decides alone: its terms are the largest at every n >= 1,
    and past its peak they lie furthest above their own largest term too,
    as d/d ln w of n ln w - max_m (m ln w - c_m) is n - m* >= 0.  Its ln t_n,
    formed as :func:`_log_terms` forms them, fall past the peak: doubling
    and bisection find the last n clear above the cut by twice their
    rounding (``slack``) and the n after it are scanned, so a cut costs
    O(log N) lgamma calls.  Where log_tol rounds onto the largest term, or
    no n below ``_MAX_TERMS`` qualifies, ``error`` is raised.
    """
    top = float(log_w.max() if isinstance(log_w, np.ndarray) else log_w)
    if not math.isfinite(top):
        raise error(f"series in w = e^{top} cannot be summed")
    uncut = f"series in w = e^{top:.6g}, a = {a} not cut within {_MAX_TERMS} terms"
    w = math.exp(min(top, 700.0))
    turn = w / ratio
    if a is not None:
        # the root of n (a + n - 1) = turn, in the form that does not cancel
        b = a - 1.0
        root = math.hypot(b, 2.0 * math.sqrt(turn))
        turn = 2.0 * turn / (root + b) if b > 0.0 else 0.5 * (root - b)
    if turn >= _MAX_TERMS:
        # the peak itself lies past the longest series: fail before walking to it
        raise error(uncut)
    # the first n >= 1 with t_n <= ratio t_{n-1}: t_n / t_{n-1} = w / (n (a + n - 1))
    first = max(1, math.ceil(turn) - 1)
    while ratio * (first if a is None else first * (a + first - 1.0)) < w:
        first += 1

    def log_term(n):  # _log_terms(top, a, n + 1)[n], bit for bit
        lg = math.lgamma(n + 1.0)
        if a is not None:
            lg += math.lgamma(a + n)
        return top * n - lg

    # bounds the rounding of every log_term below _MAX_TERMS: a few ulp of its parts
    x = _MAX_TERMS + (a or 0.0)
    slack = 8.0 * sys.float_info.epsilon * (abs(top) * _MAX_TERMS + x * math.log(x + 2.0))
    if log_tol is None:
        peak = log_term(first - 1)
        if not peak + _LOG_SERIES_TOL < peak:
            raise error(f"{uncut}: its log-terms near {peak:.2g} do not resolve "
                        f"the {math.exp(_LOG_SERIES_TOL):.0e} cut")
        for step in (1, -1):  # none past 2 slack below the largest seen rounds above it
            n = first - 1 + step
            while n >= 0 and (value := log_term(n)) >= peak - 2.0 * slack:
                peak = max(peak, value)
                n += step
        log_tol = peak + _LOG_SERIES_TOL
    above = log_tol + 2.0 * slack  # a term here has every earlier one above the cut
    last = _MAX_TERMS - 1
    lo, hi = first - 1, first
    while hi <= last and log_term(hi) >= above:
        lo, hi = hi, 2 * hi - first + 1
    hi = min(hi, last + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_term(mid) >= above:
            lo = mid
        else:
            hi = mid
    for n in range(lo + 1, last + 1):
        if log_term(n) < log_tol:
            return n
    raise error(uncut)


def _i_log_series(nu: float, x: float, a: float | None = None) -> tuple[float, float]:
    """Ascending series for I_nu(x), nu > -1, as (ln lead, sum).

    I_nu(x) = exp(ln lead) * sum, with lead = (x/2)^nu / Gamma(nu+1) the
    first term, so sum >= 1.  The lead stays a logarithm: near nu = -1 at
    tiny x it lies far outside double range.  ``a`` is nu + 1 exactly
    (default: formed from nu); it enters Gamma(a) and the first term ratio.
    Raises DomainError where the sum leaves double range, which happens only
    above the asymptotic threshold.
    """
    a = nu + 1.0 if a is None else a
    half = 0.5 * x
    # x/2 underflows to 0 at the smallest subnormal x; its logarithm does not
    log_half = math.log(half) if half > 0.0 else math.log(x) - math.log(2.0)
    m = np.arange(1.0, _series_cut(2.0 * log_half, a) + 1)
    shifted = nu + m
    shifted[0] = a
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        rest = float(np.sum(np.cumprod(half * half / (m * shifted))))
    if not rest < math.inf:
        raise DomainError(
            f"I_nu(x) cannot be formed at nu={nu}, x={x}: the asymptotic sum does not "
            "converge there and the ascending series leaves double range"
        )
    return nu * log_half - ln_gamma(a), 1.0 + rest


def _i_series(nu: float, x: float, scale: float, a: float | None = None) -> float:
    """Ascending series for I_nu(x), nu > -1, every term multiplied by e^{-scale}.

    Raises DomainError where that value overflows.
    """
    log_lead, total = _i_log_series(nu, x, a)
    if log_lead - scale < _LOG_MAX:
        value = math.exp(log_lead - scale) * total
        if value < math.inf:
            return value
    what = "e^-x I_nu(x)" if scale else "I_nu(x)"
    raise DomainError(
        f"{what} = e^{log_lead - scale + math.log(total):.6g} overflows at nu={nu}, x={x}"
    )


def _ln_bessel_i(nu: float, x: float, a: float | None = None) -> float:
    """ln I_nu(x) for nu > -1 and x > 0, also where I_nu(x) leaves double range.

    Where e^{-x} I_nu(x) is a normal double this is ln(bessel_i_scaled) + x,
    bit for bit; where the series is summed it is otherwise formed from
    the logarithm of the series lead, which is never exponentiated.  ``a``
    is nu + 1 exactly, as for :func:`_i_log_series`.
    """
    _check_i_domain("ln_bessel_i", nu, x)
    if x > _ASYMPTOTIC_THRESHOLD:
        scaled = _i_asymptotic_scaled(nu, x)
        if scaled is not None:
            return math.log(scaled) + x
    log_lead, total = _i_log_series(nu, x, a)
    if log_lead - x < _LOG_MAX:
        scaled = math.exp(log_lead - x) * total
        if sys.float_info.min <= scaled < math.inf:
            return math.log(scaled) + x
    return log_lead + math.log(total)


def _i_asymptotic_scaled(nu: float, x: float) -> float | None:
    """Asymptotic sum for e^{-x} I_nu(x), large x, or None where it does not converge.

    The sum stops at its smallest term (optimal truncation).  It is accepted
    only if its last kept term is below 1e-15 of the total; for orders with
    nu^2 of the order of x or more the terms turn before that.
    """
    mu = 4.0 * nu * nu
    term = 1.0
    total = term
    for j in range(_MAX_TERMS):
        nxt = -term * (mu - (2 * j + 1) ** 2) / (8.0 * (j + 1) * x)
        if abs(nxt) >= abs(term):
            return None  # past the optimal truncation point, not converged
        term = nxt
        total += term
        if abs(term) < 1e-15 * abs(total):
            return total / math.sqrt(2.0 * math.pi * x)
    return None


def _check_i_domain(name: str, nu: float, x: float) -> None:
    if not (nu > -1.0 and x >= 0.0) or (nu < 0.0 and x == 0.0):
        raise DomainError(
            f"{name} requires nu > -1 and x >= 0 (x > 0 for nu < 0), got nu={nu}, x={x}"
        )


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_nu(x).

    Parameters
    ----------
    nu : float
        Order, nu > -1.
    x : float
        Argument, x >= 0 (x > 0 for negative order, where I_nu(0) is infinite).

    Raises
    ------
    DomainError
        For an order or argument outside that domain, or where I_nu(x)
        overflows (x beyond about 709); use :func:`bessel_i_scaled` there.
    ConvergenceError
        If the term budget is exhausted.
    """
    _check_i_domain("bessel_i", nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= _SERIES_CUTOFF:
        return _i_series(nu, x, scale=0.0)
    try:
        return math.exp(x) * bessel_i_scaled(nu, x)
    except OverflowError:
        raise DomainError(
            f"bessel_i overflows at x={x}; use bessel_i_scaled instead"
        ) from None


def bessel_i_scaled(nu: float, x: float) -> float:
    """Exponentially scaled e^{-x} I_nu(x) for nu > -1; safe out to very large x."""
    _check_i_domain("bessel_i_scaled", nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    return _i_scaled(nu, x)


def _i_scaled(nu: float, x: float, a: float | None = None) -> float:
    """e^{-x} I_nu(x) for x > 0, unchecked; ``a`` as for :func:`_i_log_series`."""
    if x > _ASYMPTOTIC_THRESHOLD:
        value = _i_asymptotic_scaled(nu, x)
        if value is not None:
            return value
    return _i_series(nu, x, scale=x, a=a)


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
    # checked at the first failing x; a value that is not finite has a NaN
    # tolerance, so it fails too
    tol = np.where(np.isfinite(value), 1e-8 * np.abs(value), np.nan)
    i = int(np.argmax(~(err <= tol)))
    check_route("K quadrature step halvings", err[i], tol[i], ConvergenceError,
                context=f"for nu={nu}, x={x[i]}")
    return value


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the third kind, K_nu(x), for x > 0.

    Evaluated by the trapezoid rule on int_0^T exp(-x cosh t) cosh(nu t) dt,
    with the step halved until the change is below 1e-13 relative; positive
    and monotone decreasing in x.

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


def bessel_k_scaled(nu: float, x: float) -> float:
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
