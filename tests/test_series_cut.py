"""The series cut against the table scan it replaced, an exact cut, and the tables it spares.

``specfun._series_cut`` sums the log term ratios outward from the term peak.
``_table_cut`` below is the earlier rule, which built a table of
ln t_n = n ln w - ln n! - ln Gamma(a+n) (``_lgamma_table``), doubled it
until some n past the peak had every row below the tolerance, and returned
the table up to that n.  Both must give the same N, or fail with the same
error class, on a seeded sweep over every kind of call the package makes
where ln Gamma(a + n) resolves the cut.  From a ~ 1e13 on it does not, so
there the cut is held to ``_exact_cut``: the peak found by bisection on the
ratios, and ln(t_n / t_p) as the ``math.fsum`` of ``math.log`` ratios.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from phasequant import bgstates, fockreal, specfun
from phasequant.errors import ConvergenceError, TruncationError
from phasequant.specfun import _LOG_SERIES_TOL, _MAX_TERMS, _series_cut

_TABLE_DEPTH = 48.0


def _lgamma_table(log_w, a, size):
    # ln(w^n / (n! Gamma(a+n))) for n < size, one row per entry of log_w, as
    # the package once tabulated every series; w^0 = 1 also at w = 0
    n = np.arange(size, dtype=np.float64)
    lg = specfun.ln_gamma(n + 1.0)
    if a is not None:
        lg += specfun.ln_gamma(a + n)
    power = np.empty(np.shape(log_w) + (size,))
    power[..., 0] = 0.0
    np.multiply.outer(log_w, n[1:], out=power[..., 1:])
    return power - lg


def _table_cut(log_w, a, log_tol=None, ratio=1.0, error=ConvergenceError):
    # the earlier rule, kept verbatim as the reference: the table up to N
    log_w = np.asarray(log_w, dtype=np.float64)
    top = float(log_w.max())
    if not math.isfinite(top):
        raise error(f"series in w = e^{top} cannot be summed")
    w = math.exp(min(top, 700.0))
    uncut = f"series in w = e^{top:.6g}, a = {a} not cut within {_MAX_TERMS} terms"

    def grow(n):  # t_n / t_{n-1} = w / grow(n)
        return n if a is None else n * (a + n - 1.0)

    turn = w / ratio
    if a is not None:
        # sqrt((a - 1)^2 + 4 turn) without squaring, which overflows for a ~ 1e154
        turn = 0.5 * (1.0 - a + math.hypot(a - 1.0, 2.0 * math.sqrt(turn)))
    if turn >= _MAX_TERMS:
        # the peak itself lies past the longest table: fail before walking to it
        raise error(uncut)
    first = max(1, math.ceil(turn))
    while first > 1 and ratio * grow(first - 1) >= w:
        first -= 1
    while ratio * grow(first) < w:
        first += 1
    size = int(turn + math.sqrt(2.0 * _TABLE_DEPTH * (turn + 1.0))) + 8
    while True:
        size = min(size, _MAX_TERMS)
        log_t = _lgamma_table(log_w, a, size)
        if log_tol is None:
            tol = log_t.max(axis=-1, keepdims=True) + _LOG_SERIES_TOL
        else:
            tol = log_tol
        below = (log_t < tol).reshape(-1, size).all(axis=0)[first:]
        if below.any():
            return log_t[..., : first + int(below.argmax()) + 1]
        if size == _MAX_TERMS:
            raise error(uncut)
        size *= 2


def _log_ratio(log_w, a, m):
    # ln r_m of the term ratios r_m = w / (m (a + m - 1)), or w / m
    return log_w - math.log(m) - (0.0 if a is None else math.log(a + (m - 1.0)))


def _peak(log_w, a):
    # p = #{r_m > 1} by bisection, as the ratios fall with m
    lo, hi = 0, 1
    while _log_ratio(log_w, a, hi) > 0.0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _log_ratio(log_w, a, mid) > 0.0 else (lo, mid)
    return lo


def _exact_cut(log_w, a):
    # the first n past the peak with t_n below 1e-18 of t_p, in exact sums:
    # ln(t_n / t_p) as the math.fsum of the log ratios up from the peak
    logs = []
    n = _peak(log_w, a)
    while True:
        n += 1
        logs.append(_log_ratio(log_w, a, n))
        if math.fsum(logs) < _LOG_SERIES_TOL:
            return n


def _mpmath_cut(log_w, a):
    # the same cut at 30 digits, each term built from the one before by its ratio
    with mpmath.workdps(30):
        w, a, tol = mpmath.exp(mpmath.mpf(log_w)), mpmath.mpf(a), mpmath.mpf(10) ** -18
        t, peak, n = mpmath.mpf(1), mpmath.mpf(1), 0
        while True:
            n += 1
            ratio = w / (n * (a + n - 1))
            t *= ratio
            peak = max(peak, t)
            if ratio <= 1 and t < tol * peak:
                return n


def _outcome(cut, args, kwargs):
    try:
        result = cut(*args, **kwargs)
    except (ConvergenceError, TruncationError) as exc:
        return type(exc).__name__
    return result if isinstance(result, int) else result.shape[-1] - 1


def _large_a(rng, low, high):
    # log-uniform a in [10^low, 10^high], with w from e^-30 to 2e4 times a
    a = float(10.0 ** rng.uniform(low, high))
    return math.log(a) + float(rng.uniform(-30.0, math.log(2e4))), a


def _sweep():
    # (group, args, kwargs) for every kind of call the package makes
    rng = np.random.default_rng(17)
    for _ in range(8000):  # the I series: Gamma-weighted, one row
        yield "gamma", (float(rng.uniform(-700.0, 12.0)), float(10.0 ** rng.uniform(-3, 4))), {}
    for _ in range(4000):  # oscillator weights: Poisson, one row
        yield "poisson", (float(rng.uniform(-700.0, 12.0)), None), {}
    log_rho = 2.0 * np.log(bgstates._default_rho_grid())
    for k in bgstates._default_k_grid():  # the default kbound_scan rows
        yield "scan rows", (log_rho, 2.0 * float(k)), {}
    for _ in range(2000):  # random grids of many rows, rho up to 100 as in the scan
        rows = 2.0 * np.log(10.0 ** rng.uniform(-3, 2, int(rng.integers(2, 24))))
        a = float(10.0 ** rng.uniform(-3, 1.5)) if rng.random() < 0.7 else None
        yield "grid", (rows, a), {}
    for _ in range(3000):  # make_bg_state's tail cut: an explicit tolerance, terms that halve
        yield "ratio 0.5", (float(rng.uniform(-50.0, 12.0)), float(10.0 ** rng.uniform(-3, 3))), {
            "log_tol": float(rng.uniform(-80.0, 10.0)), "ratio": 0.5, "error": TruncationError}
    for _ in range(2000):  # e^{-r^2} r^{2n}/n! below 1e-14, the former coherent-vector cut
        r = float(10.0 ** rng.uniform(-3, 1.5))
        yield "explicit", (2.0 * math.log(r), None), {
            "log_tol": math.log(1e-14) + r * r, "error": TruncationError}
    for _ in range(1000):  # a >= 1e12: the peak root once cancelled, the log-terms round
        yield "a >= 1e12", _large_a(rng, 12, 16), {}
    for _ in range(1000):  # past the former refusal of a >= 1.58788e16
        yield "a past 1.58788e16", _large_a(rng, math.log10(1.58788e16), 300), {}


_EXACT = ("a >= 1e12", "a past 1.58788e16")


def _cut_outcome(args, kwargs):
    # an explicit tolerance on ln t_n of the earlier rule's terms, with
    # t_0 = 1 / Gamma(a), moved to the largest term t_p, as the cut takes it
    if "log_tol" in kwargs:
        log_w, a = args
        p = _peak(log_w, a)
        log_peak = p * log_w - math.lgamma(p + 1.0) - (0.0 if a is None else math.lgamma(a + p))
        kwargs = dict(kwargs, log_tol=kwargs["log_tol"] - log_peak)
    return _outcome(_series_cut, args, kwargs)


def test_the_cut_equals_the_table_scan_on_a_seeded_sweep():
    cases = list(_sweep())
    assert len(cases) >= 21_000
    differ = [(group, args, kwargs) for group, args, kwargs in cases if group not in _EXACT
              and _cut_outcome(args, kwargs) != _outcome(_table_cut, args, kwargs)]
    assert differ == []
    groups = {group for group, _, _ in cases}
    assert len(groups) == 8


def test_the_cut_is_exact_where_ln_gamma_rounds_it_away():
    # from a ~ 1e13 the lgamma rule's ln Gamma(a + n) rounds past the 1e-18
    # cut: it differed from the exact cut in 279 of the 1000 cases with
    # a >= 1e12 (cutting at 1 where it is 4 at (25.678, 5.261e15), at 59,
    # just past the peak, where it is 140 at (40.378, 5.898e15)), and
    # refused every a past 1.58788e16
    cases = [args for group, args, _ in _sweep() if group in _EXACT]
    assert len(cases) == 2000
    assert [args for args in cases if _series_cut(*args) != _exact_cut(*args)] == []
    assert _series_cut(25.678285440732285, 5260695866332641.0) == 4
    assert _series_cut(40.37812450444881, 5898042762219487.0) == 140
    # the exact reference itself against mpmath on a seeded subset
    rng = np.random.default_rng(36)
    for i in rng.choice(len(cases), 50, replace=False).tolist():
        assert _exact_cut(*cases[i]) == _mpmath_cut(*cases[i]), cases[i]


def test_the_cut_is_an_int():
    assert type(_series_cut(2.0 * math.log(3.0), 2.0)) is int
    assert _series_cut(2.0 * math.log(3.0), 2.0) == 19


def test_the_cut_reaches_every_double_a():
    # a = 2k up to DBL_MAX: n (a + n - 1) overflows there, so the cut takes
    # each factor's logarithm alone.  Once refused from a = 1.58788e16 on,
    # as ln Gamma(a) rounded the cut away; a = 2e100 took a 200,000-row
    # table before that
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1.58788e16, 2e100, 1.7976931348623157e308):
            for log_w in (2.0 * math.log(1e-3), 0.0, min(math.log(a) + 5.0, 709.0)):
                assert _series_cut(log_w, a) == _exact_cut(log_w, a)
        # a series whose w is no double cannot be tabulated
        with pytest.raises(ConvergenceError, match=r"w is no finite double"):
            _series_cut(math.log(1.7976931348623157e308) + 1.0, 1.7976931348623157e308)


@pytest.fixture
def peak_tables(monkeypatch):
    # every specfun._peak_table call through the modules that import it, by size
    sizes = []
    real = specfun._peak_table

    def counted(w, log_w, a, size, root=False, first=0):
        sizes.append(size)
        return real(w, log_w, a, size, root, first)

    for module in (specfun, bgstates):
        monkeypatch.setattr(module, "_peak_table", counted)
    return sizes


def test_index_only_callers_build_no_table(peak_tables):
    specfun._i_series(1.0, 6.0, 0.0)
    assert peak_tables == []
    # the tail cut is an index; the one table is the state's own
    assert bgstates.make_bg_state(1.0, 3.0).dim == 17
    assert len(peak_tables) == 1
    # the sizing is an index; the integrand's offset forms its own ln Gamma
    # coefficients, so the second route of g_k shares no table
    peak_tables.clear()
    bgstates._g_quadrature(1.0, 3.0)
    assert peak_tables == []
    # the one table is the window of h1, h2 and the coherent vector (the
    # vector once had a table of its own, from n = 0)
    fockreal.alpha_expectations(1.0, 2.0)
    assert len(peak_tables) == 1


def test_make_bg_state_builds_one_table(peak_tables):
    # README-size states (coherent, nfm-sim, verify-all): the coefficients,
    # S, c_0 and the tail cut read one amplitude table
    for k, rho in ((1.0, 3.0), (1.0, 3.0 * np.exp(0.5j)), (0.75, 2.0), (0.5, 0.5)):
        peak_tables.clear()
        state = bgstates.make_bg_state(k, rho)
        assert len(peak_tables) == 1 and peak_tables[0] >= state.dim
