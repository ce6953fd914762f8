"""Tests for the log-Gamma and modified Bessel evaluators.

Reference values were frozen from mpmath at 30 significant digits; identities
(recurrence, Wronskian, half-integer closed forms) act as independent oracles
that exercise the I and K branches against each other.
"""

import math
import sys
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


def test_ln_gamma_past_the_lgamma_limit_is_a_domain_error():
    # math.lgamma overflows from 2.5599833278516387e+305; ln_gamma once
    # leaked its OverflowError, and so did the series cut through 2k, which
    # then refused every a from 1.58788e16 on and now reads no ln Gamma:
    # t_1 / t_0 = 1/a is below the cut at once
    limit = 2.5599833278516387e+305
    assert ln_gamma(math.nextafter(limit, 0.0)) == sys.float_info.max
    message = r"requires x < 2\.5599833278516387e\+305, where math\.lgamma overflows, got x=3e\+305"
    with pytest.raises(DomainError, match=message):
        ln_gamma(3e305)
    with pytest.raises(DomainError, match=message):
        ln_gamma(np.array([1.0, 3e305]))
    assert specfun._series_cut(0.0, limit) == specfun._series_cut(0.0, 3e305) == 1


# ---------------------------------------------------------------------------
# bessel_i: frozen references and route agreement


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
@pytest.mark.parametrize("x", [30.0, 400.0])
def test_bessel_i_routes_agree_where_both_hold(nu, x):
    # the scaled series and the asymptotic sum are independent routes
    asymptotic = specfun._i_asymptotic_scaled(nu, x)
    assert asymptotic is not None
    assert rel_err(specfun._i_series(nu, x, scale=x), asymptotic) < 1e-13


def test_bessel_i_asymptotic_sum_is_refused_where_its_second_exponential_counts():
    # the omitted e^{-2x} is above 1e-15 up to x = ln(1e15)/2 = 17.27; at
    # half-integer nu the sum ends exactly there, and once read 500x too small
    assert specfun._i_asymptotic_scaled(0.5, 17.2) is None
    assert specfun._i_asymptotic_scaled(0.5, 1e-3) is None
    assert specfun._i_asymptotic_scaled(0.5, 17.3) is not None
    for x in (1e-3, 1.0, 17.2, 17.3):
        want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x) * math.exp(-x)
        assert rel_err(bessel_i_scaled(0.5, x), want) < REL


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
    # 50-digit oracle over both routes: the series alone below x = 17.27, the
    # asymptotic sum from there at small orders
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


@pytest.mark.parametrize("x", [3e307, 1e308, sys.float_info.max])
def test_bessel_i_scaled_where_2_pi_x_overflows_against_mpmath(x):
    # 2 pi x overflows above x = 2.86e307: e^{-x} I_1(x) once read 0 there
    with mpmath.workdps(50):
        want = mpmath.besseli(1, x) * mpmath.exp(-mpmath.mpf(x))
        assert abs(mpmath.mpf(bessel_i_scaled(1.0, x)) - want) <= 1e-15 * want


@pytest.mark.parametrize("nu, x", [(99.0, 1000.0), (1000.0, 1500.0), (1000.0, 2000.0)])
def test_bessel_i_where_neither_large_argument_branch_applies(nu, x):
    # the asymptotic sum turns early here; the scaled series once overflowed
    # (a DomainError at 99 and 2000) or lost its lead to underflow (0.0 at
    # 1500, where the value is 9.3e-143)
    assert specfun._i_asymptotic_scaled(nu, x) is None
    with mpmath.workdps(50):
        want = mpmath.besseli(nu, x) * mpmath.exp(-mpmath.mpf(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bessel_i_scaled(nu, x)
    assert abs(mpmath.mpf(got) - want) <= 2e-12 * want


def test_bessel_i_scaled_seeded_sweep_against_mpmath():
    # every cell whose e^{-x} I_nu(x) is a normal double is returned, within
    # 2e-12: orders log-uniform in [0.1, 2000] or uniform in (-1, 0),
    # arguments log-uniform in [1e-3, 3000]
    rng = np.random.default_rng(133)
    cells = 0
    with mpmath.workdps(30):
        for _ in range(600):
            nu = (-rng.uniform(0.0, 1.0) if rng.random() < 0.2
                  else math.exp(rng.uniform(math.log(0.1), math.log(2000.0))))
            x = math.exp(rng.uniform(math.log(1e-3), math.log(3000.0)))
            want = mpmath.besseli(nu, x) * mpmath.exp(-mpmath.mpf(x))
            if not sys.float_info.min <= want <= sys.float_info.max:
                continue
            cells += 1
            got = bessel_i_scaled(nu, x)
            assert abs(mpmath.mpf(got) - want) <= 2e-12 * want, (nu, x, got)
    assert cells > 400


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
    # K_100(0.01) ~ 1e380 overflows double; the rule refuses it before any node
    with pytest.raises(DomainError, match=r"nu=100\.0, x=0\.01: its reference exponent 890"):
        bessel_k(100.0, 0.01)


@pytest.mark.parametrize("nu, x, ref", [
    # once "K quadrature step halvings disagree by inf (tolerance nan)"
    (15.0, 3.2e-21, 744), (200.0, 1.0, 999), (5.0, 1e-200, 2309),
    # once a RuntimeWarning from arccosh, and from a multiply, first
    (5.0, 1e-308, 3552), (50.0, 1e-10, 1332),
])
@pytest.mark.parametrize("k_function", [bessel_k, bessel_k_scaled])
def test_bessel_k_out_of_range_is_one_domain_error(k_function, nu, x, ref):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^K_nu\(x\) is out of the quadrature's range at "
                                              rf"nu={nu!r}, x={x!r}: its reference exponent {ref},"):
            k_function(nu, x)


@pytest.mark.parametrize("nu, x", [
    # once ConvergenceError: the tail past t = 710, where sinh^2(t/2)
    # overflows, was cut off; 1.1e-13 off, with no error, at (0.5, 7.4e-308)
    (0.5, 5e-324), (0.5, 1e-310), (0.5, 2.2250738585072014e-308), (0.0, 5e-324),
    (0.5, 7.4e-308), (1.0, math.nextafter(1e-306, 0.0)),
])
@pytest.mark.parametrize("k_function", [bessel_k, bessel_k_scaled])
def test_bessel_k_below_the_smallest_x_is_one_domain_error(k_function, nu, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^K_nu\(x\) is out of the quadrature's range at "
                                              rf"nu={nu!r}, x={x!r}: below x = 1e-306 "):
            k_function(nu, x)


def test_bessel_k_range_limit_is_the_reference_exponent():
    # R = 690 and 345 lie below the limit, and K is formed there, as it is
    # down to the smallest x, 1e-306, for every nu whose R lies below it
    mpmath.mp.dps = 30
    for nu, x in ((1.0, 1e-300), (0.5, 1e-300), (0.0, 1e-306), (0.25, 1e-306),
                  (0.5, 1e-306), (0.9, 1e-306), (1.0, 1e-306)):
        assert specfun._k_frame(nu, np.array([x]))[1][0] <= specfun._LOG_MAX
        want = mpmath.besselk(nu, x)
        assert abs(bessel_k(nu, x) - want) <= 1e-13 * want
        assert abs(bessel_k_scaled(nu, x) - want * mpmath.exp(x)) <= 1e-13 * want


# ---------------------------------------------------------------------------
# the term table


def test_peak_table_against_mpmath():
    # w^n / (n! (a)_n) over its largest term, and ln(t_p / t_0), at 30 digits,
    # with no warning: r_1 = w / a overflows at a = 4.6e-308 with w = 900,
    # and a subnormal rho has normal amplitudes rho^n / sqrt(n! (a)_n)
    mpmath.mp.dps = 30
    cases = [(900.0, 2 * math.log(30.0), 4.6e-308, 120, False),
             (4.9e5, 2 * math.log(700.0), 100.0, 1500, False),
             (1e-3, math.log(1e-3), 7.0, 8, False),
             (9.0, 2 * math.log(3.0), None, 40, False),
             (1e-310, math.log(1e-310), 4.6e-308, 3, True),
             (30.0, math.log(30.0), 2.0, 120, True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, log_w, a, size, root in cases:
            table, ln_peak = specfun._peak_table(w, log_w, a, size, root)
            assert table.shape == (1, size) and table.max() == 1.0
            want = [mpmath.mpf(1)]
            for n in range(1, size):
                grow = n * (mpmath.mpf(a) + (n - 1)) if a is not None else mpmath.mpf(n)
                want.append(want[-1] * mpmath.mpf(w) / (mpmath.sqrt(grow) if root else grow))
            top = max(want)
            assert abs(ln_peak[0] - mpmath.log(top)) <= 1e-14 * max(1, abs(mpmath.log(top)))
            for got, term in zip(table[0].tolist(), want):
                if term / top > 1e-300:
                    assert abs(got - term / top) <= 1e-13 * (term / top), (w, a, root)


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


def test_a_zero_w_keeps_the_first_term_alone():
    # w = 0, ln w = -inf: w^0 = 1, and the series is cut at N = 1 with t_1 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, ln_peak = specfun._peak_table(np.array([0.0, 1.0]), np.array([-math.inf, 0.0]),
                                             2.5, 3)
        assert specfun._series_cut(np.array([-math.inf, -math.inf]), 2.5) == 1
    assert table[0].tolist() == [1.0, 0.0, 0.0] and ln_peak.tolist() == [0.0, 0.0]
    assert table[1].tolist() == [1.0, 1.0 / 2.5, (1.0 / 2.5) * (1.0 / (2.0 * 3.5))]
