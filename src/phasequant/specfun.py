"""Log-Gamma, Gamma-weighted power series and modified Bessel functions.

Orders up to about 2000 and arguments up to about 3000 are checked
against mpmath:

* ``ln_gamma`` -- the stdlib's ``math.lgamma`` behind a domain check, also
  elementwise on a numpy array.
* One private series rule.  Every Gamma-weighted sum in the package (the
  I_nu series, g(rho), the bound scan, b_ratio's series mean, the coherent
  state) has terms t_n = w^n / (n! Gamma(a+n)), and the oscillator weights
  are w^n / n!.  ``_series_cut`` returns the cut N, the first n past the
  term peak below a log tolerance (DLMF 10.25.2), for a below ``_A_LIMIT``;
  it bisects on the closed-form ln t_n of the largest w alone, which
  decides for every row.  ``_peak_table`` tabulates t_n / t_p from a first
  index to N as products of the term ratios w / (n (a+n-1)) out from the
  largest term t_p, with ln(t_p / t_first) beside it, for every caller
  that sums; no summed table holds ln Gamma(a+n).  Every series mean is
  ``_weighted_means``' sum t_n w_n / sum t_n per row of such a table.
* Windows and blocks.  The series means g/I (the bound scan and
  ``ratio_gI``), b_ratio and the oscillator's h1 and h2 carry their weight
  within a few sqrt(w) of the term peak, so ``_series_means`` and
  ``_series_blocks`` tabulate each row only over the window n = lo .. hi
  that carries it (``_series_window``): hi is the cut on the largest w of
  a block of rows, lo the mirror cut below the peak of its smallest w,
  widened by the weights' largest ratio to their value at a peak.  The
  rows, sorted by w, are cut into blocks of at most ``_BLOCK_ENTRIES``
  (2^16) entries, so a row costs O(sqrt w) terms and no table of a mean
  passes 512 KB unless one row's window alone is wider.  There
  ``_MAX_TERMS`` bounds a window's width; for every other series (the
  state's own table, the overlap's closed form, g_k's two routes, I_nu) it
  bounds the last index, as the whole n = 0 .. N is summed.
* ``bessel_i`` / ``bessel_i_scaled`` -- for nu > -1, one ascending series
  (DLMF 10.25.2) at every x, its terms t_m = t_{m-1} (x/2)^2 / (m (nu+m))
  summed relative to the largest as cumulative products over the rule's
  length, so the sum lies in [1, N+1].  The logarithm of the largest term,
  of e^{-x} for the scaled value and of the sum meet in one ``math.fsum``
  before the one exp, so no part need be a double on its own.
  ``bessel_i_scaled`` takes the exponentially scaled asymptotic sum (DLMF
  10.40.1) instead wherever that holds: cut at its smallest term, its last
  kept term must be below 1e-15 of the total, and so must e^{-2x}, the
  relative size of the second exponential it omits.  Both raise
  DomainError where their value overflows (I_nu past x = 709, or near
  nu = -1 at tiny x), and ConvergenceError past the series' term budget
  (x beyond about 3.9e5 where the asymptotic sum does not hold).
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
(e^{x} K_nu) exist because downstream values are needed where the unscaled
ones leave double range: I_{2k}(2 rho)/I_{2k-1}(2 rho) where the phase
series' window is not cut (past rho = 34392762.81 at the smallest k), and
K_{2k-1}(2 rho) e^{2 rho} in the radial moment.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, check_domain, check_route

__all__ = [
    "ln_gamma",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_i_asymptotic",
    "bessel_k",
    "bessel_k_scaled",
]

# Most terms any series may take, read at call time: the width of a series
# mean's window, the last index of every other series.
_MAX_TERMS = 200_000
# Most entries (rows times window width) of one table that a series mean
# builds; a single row whose window is wider is a block of its own.
_BLOCK_ENTRIES = 2 ** 16
# Terms below this fraction of a series' largest term are dropped.
_LOG_SERIES_TOL = math.log(1e-18)
# Largest argument of math.exp that does not overflow.
_LOG_MAX = math.log(sys.float_info.max)

_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)
# math.lgamma overflows from here on
_LGAMMA_LIMIT = 2.5599833278516387e+305
# _series_cut refuses a from here on, where ln Gamma(a) nears 2^59: its ulp of
# 128 rounds the 1e-18 cut away (first at a = 1.58788157537119e16)
_A_LIMIT = 1.58788e16


def ln_gamma(x):
    """Natural log of the Gamma function for x > 0; elementwise on an array.

    The stdlib's ``math.lgamma``: within a few ulp of ln Gamma(x) on
    [1e-3, 2e5] (checked against mpmath at 50 digits).

    Raises
    ------
    DomainError
        If any ``x <= 0``, or any x is at least ``_LGAMMA_LIMIT`` (2.56e305),
        where ``math.lgamma`` overflows.
    """
    if np.ndim(x):
        x = np.asarray(x, dtype=np.float64)
        if not x.min() > 0.0:
            raise DomainError(f"ln_gamma requires x > 0, got {x[~(x > 0.0)][0]}")
        _check_lgamma(x.max())
        return _LGAMMA(x).astype(np.float64)
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    _check_lgamma(x)
    return math.lgamma(x)


def _check_lgamma(x) -> None:
    if not x < _LGAMMA_LIMIT:
        raise DomainError(f"ln_gamma requires x < {_LGAMMA_LIMIT!r}, where math.lgamma "
                          f"overflows, got x={float(x)!r}")


def _peak_table(w, log_w, a: float | None, size: int, root: bool = False,
                first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """t_n / t_p, first <= n < first + size, of the series in w^n / (n! (a)_n); ln(t_p / t_first).

    One row per entry of w >= 0, given as a product of doubles, with
    log_w = ln w beside it.  The term ratios r_n = w / (n (a + n - 1)), or
    w / n where a is None, fall with n, so the largest term of the row is
    t_p with p - first = #{r_n > 1, first < n < first + size}: the peak
    itself wherever it lies in the row's window, as ``_series_window``
    places it.  The row is multiplied out from t_p, by r_n above p and by
    1/r_n below, so its largest entry is exactly 1 and none overflows, and
    ln(t_p / t_first) sums ln r_n, first < n <= p, with ln r_{first+1} as
    log_w less the log of its denominator: r_1 overflows at a tiny a.  root
    divides w by the square root of each n (a + n - 1) instead: the
    amplitudes w^n / sqrt(n! (a)_n) of the series in w^2.  w^0 = 1 also at
    w = 0, which keeps t_0 alone.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    n = np.arange(first, first + size, dtype=np.float64)
    grow = n if a is None else n * (a + (n - 1.0))
    if root:
        grow = np.sqrt(grow)
    # r_n = w / grow[n] exceeds 1 exactly where grow[n] < w
    peak = np.searchsorted(grow[1:], w)[:, np.newaxis]
    ln_first = log_w - math.log(grow[1]) if size > 1 else 0.0
    j = np.arange(size)
    rising, falling = j < peak, j > peak
    # fall[:, j] = 1 / r_{j+1} below the peak; table holds ln of those first.
    # Both share one allocation: freed together, it stays in the allocator's
    # heap for the next table of that size, where two would be handed back
    # to the system and fault their pages in again (4000 page faults, 8 ms,
    # per default bound scan)
    fall, table = np.empty((2, w.size, size))
    fall.fill(1.0)
    np.divide(grow[1:], w[:, np.newaxis], out=fall[:, :-1], where=rising[:, :-1])
    table.fill(0.0)
    np.log(fall[:, 1:], out=table[:, 1:], where=rising[:, 1:])
    ln_peak = np.where(peak[:, 0] > 0, ln_first, 0.0) - table.sum(axis=1)
    table.fill(1.0)
    np.divide(w[:, np.newaxis], grow, out=table, where=falling)
    np.cumprod(table, axis=1, out=table)
    np.cumprod(fall[:, ::-1], axis=1, out=fall[:, ::-1])
    table *= fall
    return table, ln_peak


def _weighted_means(terms: np.ndarray, weights: np.ndarray,
                    factor) -> tuple[np.ndarray, np.ndarray]:
    """factor (sum t_n w_n / sum t_n) and sum t_n, per row of a term table.

    terms holds t_n / t_p with one row per argument, as :func:`_peak_table`
    gives it, so sum t_n lies in [1, size]; weights holds w_n as one array,
    or a tuple of them, one per mean (a column of the result), and factor
    broadcasts against the means.  Each mean is one matrix-vector product:
    a matrix product summed 8347 terms of h2 at r = 442 into 3.4e-15, the
    products into 1.5e-18.
    """
    total = np.sum(terms, axis=1)
    if isinstance(weights, tuple):
        weighted = np.column_stack([terms @ w for w in weights])
        return factor * (weighted / total[:, np.newaxis]), total
    return factor * ((terms @ weights) / total), total


def _turn(top: float, a: float | None, ratio: float = 1.0) -> tuple[float, float]:
    # w = e^top (held below e^700) and the real n at which ratio n (a + n - 1) = w,
    # in the form that does not cancel: the term ratio falls through ratio there
    w = math.exp(min(top, 700.0))
    turn = w / ratio
    if a is not None:
        b = a - 1.0
        root = math.hypot(b, 2.0 * math.sqrt(turn))
        turn = 2.0 * turn / (root + b) if b > 0.0 else 0.5 * (root - b)
    return w, turn


def _first_past(w: float, turn: float, a: float | None, ratio: float = 1.0) -> int:
    # the first n >= 1 with t_n <= ratio t_{n-1}: t_n / t_{n-1} = w / (n (a + n - 1))
    first = max(1, math.ceil(turn) - 1)
    while ratio * (first if a is None else first * (a + first - 1.0)) < w:
        first += 1
    return first


def _log_term(top: float, a: float | None, last: int):
    # ln t_n = n top - ln n! - ln Gamma(a + n), and a bound on its rounding
    # for n <= last: a few ulp of its parts
    def log_term(n):
        lg = math.lgamma(n + 1.0)
        if a is not None:
            lg += math.lgamma(a + n)
        return top * n - lg

    x = last + 1 + (a or 0.0)
    return log_term, 8.0 * sys.float_info.epsilon * (abs(top) * (last + 1) + x * math.log(x + 2.0))


def _peak_value(log_term, first: int, slack: float) -> float:
    # the largest ln t_n about the peak first - 1: none past 2 slack below the
    # largest seen rounds above it
    peak = log_term(first - 1)
    for step in (1, -1):
        n = first - 1 + step
        while n >= 0 and (value := log_term(n)) >= peak - 2.0 * slack:
            peak = max(peak, value)
            n += step
    return peak


def _walk(log_term, start: int, end: int, step: int, above: float, log_tol: float) -> int | None:
    # the first n from start towards end (by step, end included) with
    # ln t_n < log_tol, where ln t_n falls that way: doubling and bisection
    # find the last n clear above the cut (>= above) and the n after it are
    # scanned; None where none qualifies
    lo, hi = start, start + step
    while (end - hi) * step >= 0 and log_term(hi) >= above:
        lo, hi = hi, hi + (hi - start)
    if (hi - end) * step > 0:
        hi = end + step
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if log_term(mid) >= above:
            lo = mid
        else:
            hi = mid
    for n in range(lo + step, end + step, step):
        if log_term(n) < log_tol:
            return n
    return None


def _check_a(a: float | None) -> None:
    if a is not None and not a < _A_LIMIT:
        raise DomainError(f"the series in w^n / (n! Gamma(a+n)) requires a < {_A_LIMIT!r} "
                          f"(k < {_A_LIMIT / 2.0:.6g} where a = 2k), where ln Gamma(a) "
                          f"resolves the 1e-18 cut, got a={float(a)!r}")


def _series_cut(log_w, a: float | None, log_tol=None, ratio: float = 1.0,
                error: type[Exception] = ConvergenceError, floor: int = 0) -> int:
    """The cut N of the series in w^n / (n! Gamma(a+n)): they sum n = floor .. N.

    N is the first n >= 1 past the peak, where t_n <= ratio t_{n-1}, at which
    every series (one per entry of log_w) has ln t_n < log_tol.  log_tol
    defaults to each series' largest term times 1e-18 (with ratio 1); the
    terms past N then fall at least geometrically and are dropped.

    The largest w decides alone: its terms are the largest at every n >= 1,
    and past its peak they lie furthest above their own largest term too,
    as d/d ln w of n ln w - max_m (m ln w - c_m) is n - m* >= 0.  Its ln t_n,
    n ln w - ln n! - ln Gamma(a+n), fall past the peak: doubling
    and bisection find the last n clear above the cut by twice their
    rounding (``slack``) and the n after it are scanned, so a cut costs
    O(log N) lgamma calls.  Where no n below floor + ``_MAX_TERMS``
    qualifies, ``error`` is raised: a series from n = 0 is held to that many
    terms, a window from its floor (``_series_window``) to that width.  An a
    from ``_A_LIMIT`` on raises DomainError.
    """
    _check_a(a)
    top = float(log_w.max() if isinstance(log_w, np.ndarray) else log_w)
    if top == -math.inf:
        return 1  # every w is 0: t_1 = 0 is the first term past the peak t_0
    if not math.isfinite(top):
        raise error(f"series in w = e^{top} cannot be summed")
    last = floor + _MAX_TERMS - 1
    uncut = f"series in w = e^{top:.6g}, a = {a} not cut within {_MAX_TERMS} terms"
    if floor:
        uncut += f" from n = {floor}"
    w, turn = _turn(top, a, ratio)
    if turn >= last + 1:
        # the peak itself lies past the longest series: fail before walking to it
        raise error(uncut)
    first = _first_past(w, turn, a, ratio)
    log_term, slack = _log_term(top, a, last)
    if log_tol is None:
        log_tol = _peak_value(log_term, first, slack) + _LOG_SERIES_TOL
    # a term at or above log_tol + 2 slack has every earlier one above the cut
    cut = _walk(log_term, first - 1, last, 1, log_tol + 2.0 * slack, log_tol)
    if cut is None:
        raise error(uncut)
    return cut


def _series_window(bottom: float, top: float, a: float | None, weights) -> tuple[int, int]:
    """The window [lo, hi] of n that carries the series means of w = e^bottom .. e^top.

    hi is ``_series_cut``'s cut on the largest w, with lo as its floor.  lo
    mirrors it below the peak of the smallest w, which decides alone there:
    d/d ln w of n ln w - max_m (m ln w - c_m) is n - m* < 0 below every
    peak.  lo is the first n walking down from that peak with ln t_n below
    its largest term times 1e-18, widened by ln(largest weight / weight at
    a peak): the weights w_n = ``weights(n)`` (one column per mean, each
    monotone in n, as 1/(n+2k) is) may be largest at n = 0, where a tiny k
    makes them huge.  0 where no n qualifies.  A window wider than
    ``_MAX_TERMS`` raises ConvergenceError; one whose floor would lie that
    far below the peak is refused before any walk, from the bound
    t_{p+M} / t_p >= exp(-M^2 (1/p + 1/(a+p-1))) with M = ``_MAX_TERMS``.
    """
    _check_a(a)
    lo = 0
    if bottom > -math.inf:
        if not math.isfinite(bottom):
            raise ConvergenceError(f"series in w = e^{bottom} cannot be summed")
        w, turn = _turn(bottom, a)
        if turn > 2.0 and _MAX_TERMS ** 2 * (1.0 / (turn - 1.0) + (
                0.0 if a is None else 1.0 / (a + (turn - 2.0)))) < -_LOG_SERIES_TOL:
            raise ConvergenceError(f"series in w = e^{bottom:.6g}, a = {a}: its window about "
                                   f"the peak is wider than {_MAX_TERMS} terms")
        first = _first_past(w, turn, a)
        if first > 1:
            log_term, slack = _log_term(bottom, a, first)
            log_tol = _peak_value(log_term, first, slack) + _LOG_SERIES_TOL
            if log_term(0) < log_tol:
                # t_0 lies below the cut: widen it by the weights at 0, at the
                # smallest w's peak and at or past the largest's
                at = np.array([0.0, first - 1.0, min(math.ceil(_turn(top, a)[1]),
                                                     first + _MAX_TERMS)])
                values = np.abs(np.asarray(weights(at), dtype=np.float64)).reshape(-1, 3)
                widen = max(math.log(max(row)) - math.log(min(row[1:]))
                            for row in values.tolist())
                log_tol -= widen
                end = max(0, first - _MAX_TERMS)
                lo = _walk(log_term, first - 1, end, -1, log_tol + 2.0 * slack, log_tol)
                if lo is None:
                    if end > 0:
                        raise ConvergenceError(f"series in w = e^{bottom:.6g}, a = {a}: its "
                                               f"window below the peak is wider than "
                                               f"{_MAX_TERMS} terms")
                    lo = 0
    return lo, _series_cut(top, a, floor=lo)


def _estimated_windows(log_w: np.ndarray, a: float | None) -> tuple[np.ndarray, np.ndarray]:
    # about where each row's window starts and ends: the peak, plus and
    # minus sqrt(2 ln 1e18) standard deviations of the terms about it, whose
    # variance is 1 / (1/p + 1/(a+p)) (w for the Poisson weights), and a few
    w = np.exp(np.minimum(log_w, 700.0))
    if a is None:
        peak = var = w
    else:
        b = a - 1.0
        root = np.hypot(b, 2.0 * np.sqrt(w))
        peak = 2.0 * w / (root + b) if b > 0.0 else 0.5 * (root - b)
        var = peak * (a + peak) / (a + 2.0 * peak)
    half = math.sqrt(-2.0 * _LOG_SERIES_TOL) * np.sqrt(var) + 4.0
    return np.maximum(peak - half, 0.0), peak + half


def _series_blocks(w: np.ndarray, log_w: np.ndarray, a: float | None, weights):
    """The tables of a series mean: (rows, n, t_n / t_p, ln(t_p / t_lo)) per block of rows.

    Each block is a run of rows, consecutive in w, with one window
    n = lo .. hi (``_series_window``) and at most ``_BLOCK_ENTRIES`` entries,
    unless it is a single row whose window alone is wider.  rows indexes the
    caller's arrays: the whole grid, in its order, where its one window
    fits; else runs of the rows sorted by w, as many as their estimated
    windows (``_estimated_windows``) fit, fewer where the cut window does
    not, so each block costs a few cuts.  weights is the means' weight
    function of n, which the windows' lower cut reads.
    """
    size = w.size

    def window(rows, count):
        # the window of rows and the most rows that one as wide may hold; a
        # window not cut within _MAX_TERMS holds none, unless rows is one row
        try:
            lo, hi = _series_window(float(log_w[rows].min()), float(log_w[rows].max()), a,
                                    weights)
        except ConvergenceError:
            if count == 1:
                raise
            return None, 0
        return (lo, hi), max(1, _BLOCK_ENTRIES // (hi - lo + 1))

    def block(rows, lo, hi):
        return rows, np.arange(lo, hi + 1, dtype=np.float64), *_peak_table(
            w[rows], log_w[rows], a, hi - lo + 1, first=lo)

    cut, most = window(slice(None), size)
    if size <= most:
        yield block(slice(None), *cut)
        return
    order = np.argsort(log_w, kind="stable")
    est_lo, est_hi = _estimated_windows(log_w[order], a)
    start = 0
    while start < size:
        # as many rows as their estimated block has at most _BLOCK_ENTRIES
        # entries and is at most twice as wide as the window of its last row
        # alone, so no row costs more than twice its own; fewer while the cut
        # window does not fit, half as many where it is not cut
        span = est_hi[start:] - est_lo[start] + 1.0
        fits = ((np.arange(1, size - start + 1) * span <= _BLOCK_ENTRIES)
                & (span <= 2.0 * (est_hi[start:] - est_lo[start:] + 1.0)))
        stop = size if fits.all() else start + max(1, int(np.argmin(fits)))
        while stop - start > (most := window(order[start:stop], stop - start))[1]:
            stop = start + (most[1] or (stop - start) // 2)
        yield block(order[start:stop], *most[0])
        start = stop


def _series_means(w: np.ndarray, log_w: np.ndarray, a: float | None, weights,
                  factor: np.ndarray) -> np.ndarray:
    """factor sum t_n w_n / sum t_n for each row, over its block's windowed table."""
    means = np.empty(w.size)
    for rows, n, terms, _ in _series_blocks(w, log_w, a, weights):
        means[rows] = _weighted_means(terms, weights(n), factor[rows])[0]
    return means


def _i_series(nu: float, x: float, scale: float) -> float:
    """Ascending series for I_nu(x), nu > -1, times e^{-scale} (DLMF 10.25.2).

    t_m = t_{m-1} r_m with r_m = (x/2)^2 / (m (nu+m)), t_0 = (x/2)^nu /
    Gamma(nu+1).  r_m falls with m, so the largest term is t_p with p the
    number of r_m > 1.  The terms are summed relative to it, as cumulative
    products of 1/r below p and of r above, so the sum lies in [1, N+1] at
    every x.  ln t_p, e^{-scale} and the sum meet in one ``math.fsum`` before
    the one exp: neither the lead near nu = -1 at tiny x, nor t_p, nor e^{-x}
    need be a double on its own.  Raises DomainError where the value
    overflows.
    """
    a = nu + 1.0
    half = 0.5 * x
    # x/2 underflows to 0 at the smallest subnormal x; its logarithm does not
    log_half = math.log(half) if half > 0.0 else math.log(x) - math.log(2.0)
    m = np.arange(1.0, _series_cut(2.0 * log_half, a) + 1)
    r = half * half / (m * (nu + m))
    p = int(np.count_nonzero(r > 1.0))
    rise = r[:p]
    total = 1.0 + float(np.sum(np.cumprod(1.0 / rise[::-1]))) + float(np.sum(np.cumprod(r[p:])))
    parts = [nu * log_half, -ln_gamma(a), -scale, math.log(total), *np.log(rise).tolist()]
    log_value = math.fsum(parts)
    if log_value <= _LOG_MAX:
        # e^{log_value} alone would add |log_value| eps / 2; the residual restores it
        value = math.exp(log_value) * (1.0 + math.fsum([*parts, -log_value]))
        if value < math.inf:
            return value
    what = "e^-x I_nu(x)" if scale else "I_nu(x)"
    hint = "" if scale else "; use bessel_i_scaled instead"
    raise DomainError(f"{what} = e^{log_value:.6g} overflows at nu={nu}, x={x}{hint}")


def _i_asymptotic_scaled(nu: float, x: float) -> float | None:
    """Asymptotic sum for e^{-x} I_nu(x) (DLMF 10.40.1), or None where it does not hold.

    The sum stops at its smallest term (optimal truncation).  It is accepted
    only if its last kept term is below 1e-15 of the total; for orders with
    nu^2 of the order of x or more the terms turn before that.  It omits a
    second exponential of relative size e^{-2x}, so it is refused where that
    is not below 1e-15 too: at half-integer nu the sum ends exactly, however
    small x is.
    """
    if not math.exp(-2.0 * x) < 1e-15:
        return None
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
            # 2 pi x overflows above x = 2.86e307; only there is the root
            # taken in two factors, so every other value keeps its bits
            two_pi_x = 2.0 * math.pi * x
            if two_pi_x == math.inf:
                return total / (math.sqrt(2.0 * math.pi) * math.sqrt(x))
            return total / math.sqrt(two_pi_x)
    return None


def _check_i_domain(name: str, nu: float, x: float) -> None:
    message = f"{name} requires nu > -1 and x >= 0 (x > 0 for nu < 0), got nu={nu}, x={x}"
    check_domain("nu", nu, "finite real")
    check_domain("x", x, "nonnegative real", message)
    if not nu > -1.0 or (nu < 0.0 and x == 0.0):
        raise DomainError(message)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_nu(x).

    Parameters
    ----------
    nu : float
        Order, finite, nu > -1.
    x : float
        Argument, finite, x >= 0 (x > 0 for negative order, where I_nu(0) is infinite).

    Raises
    ------
    DomainError
        For an order or argument outside that domain, or where I_nu(x)
        overflows (x beyond about 709); use :func:`bessel_i_scaled` there.
    ConvergenceError
        If the term budget is exhausted (x beyond about 3.9e5).
    """
    _check_i_domain("bessel_i", nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    return _i_series(nu, x, scale=0.0)


def bessel_i_scaled(nu: float, x: float) -> float:
    """Exponentially scaled e^{-x} I_nu(x) for nu > -1.

    The asymptotic sum where it holds (to any finite x at orders up to a few
    tens), else the ascending series of :func:`bessel_i` scaled by e^{-x}.
    """
    _check_i_domain("bessel_i_scaled", nu, x)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    value = _i_asymptotic_scaled(nu, x)
    return _i_series(nu, x, scale=x) if value is None else value


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
# Below this x the K integrand's tail lies past t = 710, where sinh^2(t/2)
# overflows and cuts it off: K_{1/2}(7.4e-308) was 1.1e-13 off, unflagged.
_K_X_MIN = 1e-306
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
    (ln cosh y <= y) and peaks at t_b = asinh(nu/x); R is B(t_b) rounded,
    about ln(e^x K_nu(x)).  Where R passes ln DBL_MAX, e^R overflows and the
    rule cannot form K: DomainError names nu and the first such x, as it
    does an x below ``_K_X_MIN``.
    T > t_b solves x (cosh T - 1) = nu T - B(t_b) + _K_DROP.  The fixed-point
    iteration rises monotonically to it and contracts, since x sinh T > nu
    there.  T is rounded up to a power of two, so every node t = T j 2^-m is
    exact.
    """
    tb = np.log(nu + np.hypot(nu, x)) - np.log(x)
    peak = nu * tb - np.hypot(nu, x) + x
    ref = np.rint(peak)
    i = int(np.argmax(~(ref <= _LOG_MAX)))
    if not ref[i] <= _LOG_MAX:
        raise DomainError(
            f"K_nu(x) is out of the quadrature's range at nu={nu!r}, x={float(x[i])!r}: its "
            f"reference exponent {ref[i]:.6g}, about ln(e^x K_nu(x)), passes ln DBL_MAX = "
            f"{_LOG_MAX:.6g}"
        )
    if not x.min() >= _K_X_MIN:
        raise DomainError(
            f"K_nu(x) is out of the quadrature's range at nu={nu!r}, x={float(x.min())!r}: "
            f"below x = {_K_X_MIN!r} its integrand's tail lies past t = 710, where "
            "sinh^2(t/2) overflows"
        )
    span = tb
    for _ in range(8):
        span = np.arccosh(np.minimum(1.0 + (nu * span - peak + _K_DROP) / x, 1e300))
    return np.exp2(np.ceil(np.log2(np.minimum(span + 0.5, 700.0)))), ref


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
        Unless nu is a finite real >= 0 and x a finite real > 0; and, before
        any node is evaluated, for x below ``_K_X_MIN`` (1e-306) or where the
        rule's reference exponent, about ln(e^x K_nu(x)), passes ln DBL_MAX
        (K_200(1), K_15(3.2e-21)).
    ConvergenceError
        If the rule's error estimate (last change plus cut-off tail) exceeds
        1e-8 of the value, or the value is not representable.
    """
    check_domain("nu", nu, "nonnegative real", "bessel_k requires nu >= 0, got nu={value}")
    check_domain("x", x, "positive real", "bessel_k requires x > 0, got x={value}")
    return float(_k_quad(nu, np.array([x]), scaled=False)[0])


def bessel_k_scaled(nu: float, x: float) -> float:
    """Exponentially scaled e^{x} K_nu(x).

    The same trapezoid rule and error check as :func:`bessel_k`, on the
    integrand exp(-2x sinh^2(t/2)) cosh(nu t): the scaling is applied inside
    the rule rather than as an overflowing prefactor.
    """
    check_domain("nu", nu, "nonnegative real", "bessel_k_scaled requires nu >= 0, got nu={value}")
    check_domain("x", x, "positive real", "bessel_k_scaled requires x > 0, got x={value}")
    return float(_k_quad(nu, np.array([x]), scaled=True)[0])
