"""The series cut against the table scan it replaced, and the tables it spares.

``specfun._series_cut`` returns the cut N by bisection on the log-terms of
the largest series.  ``_table_cut`` below is the earlier rule, which built
a ``_log_terms`` table, doubled it until some n past the peak had every row
below the tolerance, and returned the table up to that n.  Both must give
the same N, or fail with the same error class, on a seeded sweep over every
kind of call the package makes.
"""

import math
import re

import numpy as np
import pytest

from phasequant import bgstates, fockreal, specfun
from phasequant.errors import ConvergenceError, DomainError, TruncationError
from phasequant.specfun import _LOG_SERIES_TOL, _MAX_TERMS, _log_terms, _series_cut

_TABLE_DEPTH = 48.0


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
        log_t = _log_terms(log_w, a, size)
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


def _outcome(cut, args, kwargs):
    try:
        result = cut(*args, **kwargs)
    except (ConvergenceError, TruncationError) as exc:
        return type(exc).__name__
    return result if isinstance(result, int) else result.shape[-1] - 1


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
    for _ in range(2000):  # alpha_expectations: e^{-r^2} r^{2n}/n! below 1e-14
        r = float(10.0 ** rng.uniform(-3, 1.5))
        yield "explicit", (2.0 * math.log(r), None), {
            "log_tol": math.log(1e-14) + r * r, "error": TruncationError}
    for _ in range(1000):  # a >= 1e12: the peak root once cancelled, the log-terms round
        a = float(10.0 ** rng.uniform(12, 16))
        yield "a >= 1e12", (math.log(a) + float(rng.uniform(-30.0, math.log(2e4))), a), {}


def test_the_cut_equals_the_table_scan_on_a_seeded_sweep():
    cases = list(_sweep())
    assert len(cases) >= 20_000
    differ = [(group, args, kwargs) for group, args, kwargs in cases
              if _outcome(_series_cut, args, kwargs) != _outcome(_table_cut, args, kwargs)]
    assert differ == []
    groups = {group for group, _, _ in cases}
    assert len(groups) == 7


def test_the_cut_is_an_int():
    assert type(_series_cut(2.0 * math.log(3.0), 2.0)) is int
    assert _series_cut(2.0 * math.log(3.0), 2.0) == 19


def test_unresolvable_log_terms_are_refused_at_once():
    # ln t_0 = -ln Gamma(2e100) = -4.6e102: a 41-nat cut rounds onto it, as it
    # does from ln Gamma(a) = 2^59 on; once a ConvergenceError after the peak scan
    inside = math.nextafter(specfun._A_LIMIT, 0.0)
    assert math.lgamma(inside) < 2.0 ** 59
    for log_w in (2.0 * math.log(1e-3), 0.0, 2.0 * math.log(1e9)):
        assert _series_cut(log_w, inside) >= 1
    for a in (specfun._A_LIMIT, 2e100):
        with pytest.raises(DomainError, match=r"requires a < 1\.58788e\+16 \(k < 7\.9394e\+15 "
                                              r"where a = 2k\).*" + re.escape(f"got a={a!r}")):
            _series_cut(0.0, a)


@pytest.fixture
def state_tables(monkeypatch):
    # every bgstates._state_log_terms call, by size
    sizes = []
    real = bgstates._state_log_terms
    monkeypatch.setattr(bgstates, "_state_log_terms",
                        lambda log_w, k, size: sizes.append(size) or real(log_w, k, size))
    return sizes


@pytest.fixture
def log_term_tables(monkeypatch):
    # every _log_terms call through the modules that import it, by size
    sizes = []
    real = specfun._log_terms

    def counted(log_w, a, size):
        sizes.append(size)
        return real(log_w, a, size)

    for module in (specfun, bgstates, fockreal):
        monkeypatch.setattr(module, "_log_terms", counted)
    return sizes


def test_index_only_callers_build_no_table(log_term_tables, state_tables):
    specfun._i_series(1.0, 6.0, 0.0)
    assert log_term_tables == []
    # the tail cut is an index; the one table is the state's own
    assert bgstates.make_bg_state(1.0, 3.0).dim == 17
    assert len(state_tables) == 1 and log_term_tables == state_tables
    # the sizing is an index; the one table is the integrand's offset
    log_term_tables.clear()
    bgstates._g_quadrature(1.0, 3.0)
    assert len(log_term_tables) == 1
    # the dim is an index; the tables are the weights and the coefficients
    log_term_tables.clear()
    fockreal.alpha_expectations(1.0, 2.0)
    assert len(log_term_tables) == 2


def test_make_bg_state_builds_one_table(log_term_tables, state_tables):
    # README-size states (coherent, nfm-sim, verify-all): the coefficients,
    # ln S, c_0 and the tail cut read one table
    for k, rho in ((1.0, 3.0), (1.0, 3.0 * np.exp(0.5j)), (0.75, 2.0), (0.5, 0.5)):
        state_tables.clear()
        log_term_tables.clear()
        state = bgstates.make_bg_state(k, rho)
        assert len(state_tables) == 1 and state_tables[0] >= state.dim
        assert log_term_tables == state_tables
