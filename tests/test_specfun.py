"""Tests for the log-Gamma and modified Bessel evaluators.

Reference values were frozen from mpmath at 30 significant digits; identities
(recurrence, Wronskian, half-integer closed forms) act as independent oracles
that exercise the I and K branches against each other.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant import specfun
from phasequant.errors import ConvergenceError, DomainError
from phasequant.specfun import (
    bessel_i,
    bessel_i_asymptotic,
    bessel_i_scaled,
    bessel_k,
    bessel_k_scaled,
    ln_gamma,
)

REL = 1e-12
IDENTITY_REL = 1e-10


def rel_err(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# ln_gamma


@pytest.mark.parametrize(
    "x, want",
    [
        (2.5, 0.28468287047291915963),
        (0.1, 2.2527126517342059599),
        (1e-3, 6.9071788853838536825),
        (1.0, 0.0),
        (2.0, 0.0),
        (11.0, math.log(3628800.0)),
    ],
)
def test_ln_gamma_reference_values(x, want):
    # Mixed bound: near the zeros of ln Gamma (x ~ 1, 2) relative error is
    # ill-conditioned, but the absolute error stays at machine level.
    assert abs(ln_gamma(x) - want) <= 1e-13 * max(1.0, abs(want))


def test_ln_gamma_against_mpmath():
    # 50-digit oracle on [1e-3, 2e5]; arrays are evaluated elementwise
    mpmath.mp.dps = 50
    x = np.geomspace(1e-3, 2e5, 240)
    got = ln_gamma(x)
    for xi, gi in zip(x, got):
        want = mpmath.loggamma(float(xi))
        assert abs(mpmath.mpf(gi) - want) <= 1e-15 * max(1.0, abs(want))
        assert gi == ln_gamma(float(xi))


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-1.5)
    with pytest.raises(DomainError):
        ln_gamma(np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# bessel_i: frozen references and branch joins


@pytest.mark.parametrize(
    "nu, x, want",
    [
        (0.0, 1.0, 1.2660658777520083356),
        (0.5, 2.0, 2.0462368630890550366),
        (3.0, 7.5, 142.06144236359167641),
    ],
)
def test_bessel_i_reference_values(nu, x, want):
    assert rel_err(bessel_i(nu, x), want) < REL


@pytest.mark.parametrize(
    "nu, x, want",
    [
        (1.0, 100.0, 0.039744153025130252674),
        (2.5, 500.0, 0.017734407809452483211),
    ],
)
def test_bessel_i_scaled_reference_values(nu, x, want):
    assert rel_err(bessel_i_scaled(nu, x), want) < REL


def test_bessel_i_at_zero_argument():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(0.7, 0.0) == 0.0
    assert bessel_i_scaled(0.0, 0.0) == 1.0


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.5, 7.0])
def test_bessel_i_branch_joins_are_seamless(nu):
    # Evaluate both branches at each switch point: the series/scaled-series
    # and scaled-series/asymptotic pairs must agree.
    x = specfun._SERIES_CUTOFF
    plain = specfun._i_series(nu, x, scale=0.0)
    assert rel_err(plain * math.exp(-x), specfun._i_series(nu, x, scale=x)) < 1e-12
    x = specfun._ASYMPTOTIC_THRESHOLD
    series = specfun._i_series(nu, x, scale=x)
    assert rel_err(series, specfun._i_asymptotic_scaled(nu, x)) < 1e-11


def test_bessel_i_scaled_equals_damped_unscaled():
    for nu in (0.0, 1.5, 6.0):
        for x in (0.5, 10.0, 29.0):
            want = bessel_i(nu, x) * math.exp(-x)
            assert rel_err(bessel_i_scaled(nu, x), want) < 1e-13


def test_bessel_i_half_integer_closed_form():
    for x in (0.05, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0):
        want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert rel_err(bessel_i(0.5, x), want) < REL


def test_bessel_i_asymptotic_agreement_cubic_in_x():
    # The two retained corrections leave an O(x^-3) remainder; the scaled
    # constant stays below 0.5 for the orders this package uses.
    for nu in (0.0, 0.5, 1.0, 2.0):
        for x in (20.0, 50.0, 100.0, 300.0):
            approx = bessel_i_asymptotic(nu, x) * math.exp(-x)
            exact = bessel_i_scaled(nu, x)
            assert rel_err(approx, exact) * x**3 < 0.5


def test_bessel_i_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_i(1.0, -2.0)
    with pytest.raises(DomainError):
        bessel_i_scaled(-1.5, 1.0)
    with pytest.raises(DomainError):
        bessel_i_scaled(-0.5, 0.0)
    with pytest.raises(DomainError, match="bessel_i_scaled"):
        bessel_i(0.0, 800.0)


@pytest.mark.parametrize("x", [1e-323, 1e-300])
def test_ln_bessel_i_near_order_minus_one_against_mpmath(x):
    # at 1e-323 the lead (x/2)^nu / Gamma(nu+1) is e^725.6, past double range;
    # its logarithm is never exponentiated
    with mpmath.workdps(40):
        want = mpmath.log(mpmath.besseli(-0.98, mpmath.mpf(x)))
        got = specfun._ln_bessel_i(-0.98, x)
        assert abs(mpmath.mpf(got) - want) <= 4e-16 * abs(want)


def test_bessel_i_overflow_is_a_domain_error():
    for f in (bessel_i, bessel_i_scaled):
        with pytest.raises(DomainError, match="overflows at nu=-0.98"):
            f(-0.98, 1e-323)


def test_bessel_i_at_smallest_subnormal_against_mpmath():
    # x/2 underflows to 0 here; |ln x| ~ 745 in the lead amplifies rounding
    # to about 6e-14
    mpmath.mp.dps = 50
    x = 5e-324
    for nu in (0.0, 0.5, -0.5):
        want = mpmath.besseli(nu, mpmath.mpf(x))
        assert abs(mpmath.mpf(bessel_i(nu, x)) - want) <= 1e-13 * want
        want_scaled = want * mpmath.exp(-mpmath.mpf(x))
        assert abs(mpmath.mpf(bessel_i_scaled(nu, x)) - want_scaled) <= 1e-13 * want_scaled


def test_bessel_i_term_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError):
        bessel_i(0.0, 25.0)


def test_bessel_i_scaled_against_mpmath():
    # 50-digit oracle across both switch points; 2.8e-14 was the worst error
    # of the scalar series loop this replaced
    mpmath.mp.dps = 50
    for nu in (0.0, 0.3, 0.5, 1.0, 2.5, 7.0, 20.0):
        for x in (1e-3, 0.05, 1.0, 10.0, 29.9, 30.1, 100.0, 250.0, 399.9):
            want = mpmath.besseli(nu, x) * mpmath.exp(-x)
            assert abs(mpmath.mpf(bessel_i_scaled(nu, x)) - want) <= 5e-14 * want


@pytest.mark.parametrize("nu, x", [(40.0, 600.0), (99.0, 600.0)])
def test_bessel_i_past_the_asymptotic_reach_against_mpmath(nu, x):
    # the asymptotic sum turns here before it converges (it read 3.8x and
    # 3483x too large); the e^{-x}-scaled series takes over
    with mpmath.workdps(50):
        want = mpmath.besseli(nu, x) * mpmath.exp(-x)
        assert abs(mpmath.mpf(bessel_i_scaled(nu, x)) - want) <= 1e-13 * want
        ln_want = mpmath.log(mpmath.besseli(nu, x))
        assert abs(mpmath.mpf(specfun._ln_bessel_i(nu, x)) - ln_want) <= 1e-15 * ln_want


def test_bessel_i_where_neither_large_argument_branch_applies():
    # at nu = 99, x = 1000 the asymptotic sum turns early and the series sum overflows
    assert specfun._i_asymptotic_scaled(99.0, 1000.0) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (bessel_i_scaled, specfun._ln_bessel_i):
            with pytest.raises(DomainError, match=r"nu=99\.0, x=1000\.0"):
                f(99.0, 1000.0)


def test_bessel_i_negative_orders_against_mpmath():
    # -1 < nu < 0 is the order 2k-1 of states with k < 1/2
    mpmath.mp.dps = 50
    for nu in (-0.9, -0.5, -0.2):
        for x in (1e-3, 0.05, 1.0, 10.0, 30.1, 100.0, 250.0, 399.9, 400.1, 550.0, 700.0):
            want = mpmath.besseli(nu, x) * mpmath.exp(-x)
            assert abs(mpmath.mpf(bessel_i_scaled(nu, x)) - want) <= 4.4e-13 * want
    assert rel_err(bessel_i(-0.5, 2.0), math.sqrt(2.0 / (math.pi * 2.0)) * math.cosh(2.0)) < REL


# ---------------------------------------------------------------------------
# bessel_k: frozen references, monotonicity, scaling


@pytest.mark.parametrize(
    "nu, x, want",
    [
        (0.0, 1.0, 0.42102443824070833334),
        (0.5, 1.0, 0.46106850444789455844),
        (0.5, 2.0, 0.11993777196806144737),
        (3.0, 0.1, 7990.0124304654361785),
    ],
)
def test_bessel_k_reference_values(nu, x, want):
    assert rel_err(bessel_k(nu, x), want) < REL


def test_bessel_k_deep_tail():
    want = 3.4101677497894955139e-23
    got = bessel_k(0.0, 50.0)
    assert got < 1e-20
    assert rel_err(got, want) < 1e-10


def test_bessel_k_scaled_reference_value():
    assert rel_err(bessel_k_scaled(1.0, 200.0), 0.088788601585003679764) < 1e-10


def test_bessel_k_scaled_equals_boosted_unscaled():
    for nu in (0.0, 0.5, 2.0):
        for x in (0.1, 1.0, 30.0):
            want = bessel_k(nu, x) * math.exp(x)
            assert rel_err(bessel_k_scaled(nu, x), want) < 1e-11


def test_bessel_k_half_integer_closed_form():
    for x in (0.05, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0):
        want = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert rel_err(bessel_k(0.5, x), want) < REL


def test_bessel_k_monotone_decreasing_in_x():
    for nu in (0.0, 0.5, 1.0, 4.0):
        xs = [0.05, 0.2, 1.0, 3.0, 10.0, 40.0]
        vals = [bessel_k(nu, x) for x in xs]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_bessel_k_domain_errors():
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k_scaled(0.5, -1.0)


K_ORACLE_NU = (0.0, 0.5, 1.0, 2.3, 11.0, 25.0)
K_ORACLE_X = (1e-3, 0.1, 1.0, 10.0, 50.0, 200.0, 600.0)


def test_bessel_k_against_mpmath():
    # 50-digit oracle; the bounds are the worst errors of the adaptive
    # QUADPACK quadrature this rule replaced, so the rule is no less accurate
    worst_k = worst_scaled = 0.0
    with mpmath.workdps(50):
        for nu in K_ORACLE_NU:
            for x in K_ORACLE_X:
                want = mpmath.besselk(nu, x)
                worst_k = max(worst_k, float(abs(bessel_k(nu, x) / want - 1)))
                want_scaled = want * mpmath.exp(x)
                worst_scaled = max(
                    worst_scaled, float(abs(bessel_k_scaled(nu, x) / want_scaled - 1)))
    assert worst_k < 4.7e-14
    assert worst_scaled < 5.9e-15


def test_bessel_k_shared_grid_matches_scalar_calls():
    # one grid for many x halves until the slowest x converges; the others
    # only gain from the extra levels
    x = np.array(K_ORACLE_X)
    for nu in (0.0, 2.3, 25.0):
        got = specfun._k_quad(nu, x, scaled=True)
        for g, v in zip(got, K_ORACLE_X):
            assert rel_err(g, bessel_k_scaled(nu, v)) < 2e-15


def test_bessel_k_capped_rule_raises(monkeypatch):
    # one halving leaves a 1e-4 change, far above the 1e-8 acceptance
    monkeypatch.setattr(specfun, "_DE_LEVELS", 1)
    with pytest.raises(ConvergenceError, match="K quadrature"):
        bessel_k(1.0, 1.0)
    with pytest.raises(ConvergenceError, match="K quadrature"):
        bessel_k_scaled(1.0, 1.0)


def test_bessel_k_unrepresentable_raises():
    # K_100(0.01) ~ 1e380 overflows double; the rule refuses it
    with pytest.raises(ConvergenceError):
        bessel_k(100.0, 0.01)


# ---------------------------------------------------------------------------
# identities tying I and K together


@settings(max_examples=150, deadline=None)
@given(
    nu=st.floats(min_value=1.0, max_value=10.0),
    x=st.floats(min_value=0.1, max_value=50.0),
)
def test_recurrence_identity(nu, x):
    lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
    rhs = 2.0 * nu / x * bessel_i(nu, x)
    assert rel_err(lhs, rhs) < IDENTITY_REL


def test_recurrence_identity_at_half_order():
    # Order nu - 1 = -1/2 sits outside the evaluator's domain; use the
    # closed form I_{-1/2}(x) = sqrt(2/(pi x)) cosh x as the missing leg.
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0):
        i_minus = math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
        lhs = i_minus - bessel_i(1.5, x)
        rhs = (1.0 / x) * bessel_i(0.5, x)
        assert rel_err(lhs, rhs) < IDENTITY_REL


@settings(max_examples=150, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=10.0),
    x=st.floats(min_value=0.05, max_value=60.0),
)
def test_wronskian_identity(nu, x):
    w = bessel_i(nu, x) * bessel_k(nu + 1.0, x) + bessel_i(nu + 1.0, x) * bessel_k(nu, x)
    assert abs(w - 1.0 / x) * x < IDENTITY_REL
