"""Tests for coherent states, their moments, and the phase-bound scan.

Reference values were frozen from a 40-digit evaluation of the defining
series and Bessel quotients.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasequant import bgstates, specfun
from phasequant.bgstates import (
    BGState,
    b_ratio,
    completeness_check,
    eigenvector_residual,
    flip_bracket,
    g_k,
    k3_moments,
    k12_moments,
    kbound_scan,
    make_bg_state,
    moment_integral,
    overlap,
    phase_expectations,
    ratio_gI,
    ratio_gI_asymptote,
    scan_json_summary,
)
from phasequant.errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    TruncationError,
)
from phasequant.repalg import TruncatedOperator
from phasequant.specfun import bessel_i_scaled, ln_gamma

OVERLAP_K1_Z1_Z2 = 0.8595907244977986777519
OVERLAP_COMPLEX = -0.01829014793784351973543 - 0.01278175079661050377989j
G_AT_1_2 = 8.362055663710218018987
G_AT_HALF_HALF = 0.7360677101438281616427
G_AT_2_10 = 33380122.52886712605948
RATIO_AT_1_50 = 0.9950378800081568419983
RATIO_AT_QUARTER = 1.042068554018751546482  # rho = 1.02
B_AT_1_50 = 0.9850378800081568419983
K3_MEAN_1_50 = 50.25189400040784209991
K3_VAR_1_50 = 24.99904337218216615266

REL = 1e-10


def rel_err(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# construction


def test_normalization_at_fixed_dim():
    s = make_bg_state(0.5, 1.0, dim=60)
    assert abs(float(np.sum(np.abs(s.coeffs) ** 2)) - 1.0) < 1e-12


def test_zero_argument_state():
    s = make_bg_state(1.0, 0.0, dim=5)
    assert np.array_equal(s.coeffs, np.array([1, 0, 0, 0, 0], dtype=complex))


def test_auto_dim_tail():
    for k, rho in [(0.5, 1.0), (1.0, 10.0), (0.25, 2.0), (2.0, 50.0)]:
        s = make_bg_state(k, rho)
        tail = 1.0 - float(np.sum(np.abs(s.coeffs) ** 2))
        # the lower slack absorbs summation roundoff at a few hundred terms
        assert -1e-13 < tail < s.tail_tol


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rho", [1e-5, 1e-3, 0.5])
def test_auto_dim_tail_below_rho_one(k, rho):
    # the tail past the chosen dim, summed from a wider build of the same state
    s = make_bg_state(k, rho)
    wide = make_bg_state(k, rho, dim=s.dim + 40)
    assert float(np.sum(np.abs(wide.coeffs[s.dim:]) ** 2)) < s.tail_tol


def test_number_state_probability():
    k, rho, n = 1.0, 2.0, 3
    s = make_bg_state(k, rho)
    want = math.exp(
        (2.0 * (n + k) - 1.0) * math.log(rho) - ln_gamma(n + 1.0)
        - ln_gamma(2.0 * k + n) - 2.0 * rho
    ) / bessel_i_scaled(2.0 * k - 1.0, 2.0 * rho)
    assert rel_err(abs(s.coeffs[n]) ** 2, want) < 1e-12


def test_coeff_zero_real_positive():
    s = make_bg_state(0.75, 3.0 * np.exp(2.2j))
    assert s.coeffs[0].imag == 0.0 and s.coeffs[0].real > 0.0


def test_coefficients_against_mpmath():
    # |c_n| = sqrt(rho^{2n+2k-1} / (I_{2k-1}(2 rho) n! Gamma(2k+n))), 50 digits
    mpmath.mp.dps = 50
    for k in (0.25, 0.5, 1.0, 2.5):
        for rho in (1e-3, 0.5, 3.0, 10.0, 40.0):
            s = make_bg_state(k, rho * np.exp(0.7j))
            kk, r = mpmath.mpf(k), mpmath.mpf(rho)
            norm = mpmath.besseli(2 * kk - 1, 2 * r)
            for n in range(s.dim):
                want = mpmath.sqrt(r ** (2 * n + 2 * kk - 1)
                                   / (norm * mpmath.factorial(n) * mpmath.gamma(2 * kk + n)))
                assert abs(abs(s.coeffs[n]) - want) <= 2e-13 * want


def test_overlap_kernel_against_mpmath():
    # sum_n w^n / (n! Gamma(2k+n)) = 0F1(; 2k; w) / Gamma(2k); the error is
    # taken against the series of |w|, which bounds the rounding of any sum
    mpmath.mp.dps = 50
    for k in (0.25, 0.5, 1.0, 2.5):
        kk = mpmath.mpf(k)
        for w in (0.3 + 0.1j, 2.0 - 1.0j, 9.0, -25.0 + 4.0j, 100.0j, 900.0 + 300.0j):
            scale = 2.0 * math.sqrt(abs(w))
            got = bgstates._entire_series_scaled(k, w, scale)
            damp = mpmath.exp(-scale) / mpmath.gamma(2 * kk)
            want = mpmath.hyp0f1(2 * kk, mpmath.mpc(w)) * damp
            size = mpmath.hyp0f1(2 * kk, abs(w)) * damp
            assert abs(mpmath.mpc(got) - want) <= 5e-14 * size


def test_eigenvector_residual_tail_dominated():
    for k, z in [(0.5, 1.0), (1.0, 5.0 * np.exp(1.1j)), (2.0, 30.0)]:
        s = make_bg_state(k, z)
        m = s.dim
        bound = math.sqrt(s.tail_tol / s.rho * m * (2.0 * k + m - 1.0))
        assert eigenvector_residual(s) < bound + 1e-13


def test_construction_validation():
    with pytest.raises(DomainError):
        make_bg_state(0.0, 1.0)
    with pytest.raises(DomainError):
        make_bg_state(1.0, 1.0, tail_tol=0.0)
    with pytest.raises(TruncationError):
        make_bg_state(1.0, 10.0, dim=5)
    # the series peak lies past the term budget: fails at once, not after a walk
    with pytest.raises(TruncationError, match="not cut within"):
        make_bg_state(0.5, 1e300)
    with pytest.raises(DimensionMismatchError):
        BGState(k=1.0, z=0j, dim=3, coeffs=np.ones(2, dtype=complex), tail_tol=1e-14)
    with pytest.raises(DomainError):
        BGState(k=1.0, z=1 + 0j, dim=1, coeffs=np.array([1j]), tail_tol=1e-14)


# ---------------------------------------------------------------------------
# overlaps


def test_overlap_real_reference():
    s1 = make_bg_state(1.0, 1.0)
    s2 = make_bg_state(1.0, 2.0)
    ov = overlap(s1, s2)
    assert abs(ov - OVERLAP_K1_Z1_Z2) < REL
    assert abs(ov.imag) == 0.0


def test_overlap_complex_reference():
    s1 = make_bg_state(0.75, 2.0 * np.exp(0.6j))
    s2 = make_bg_state(0.75, 3.5 * np.exp(-1.9j))
    assert abs(overlap(s1, s2) - OVERLAP_COMPLEX) < REL


def test_overlap_with_self_and_ground():
    s = make_bg_state(1.3, 2.0 + 1.0j)
    assert abs(overlap(s, s) - 1.0) < 1e-12
    ground = make_bg_state(1.3, 0.0)
    assert abs(overlap(ground, s) - np.conj(s.coeffs[0])) < 1e-14


def test_overlap_k_mismatch():
    with pytest.raises(DimensionMismatchError):
        overlap(make_bg_state(1.0, 1.0), make_bg_state(1.5, 1.0))


def test_overlap_disparate_rho():
    # the cross tail past the shorter vector dominates 1e-10; must not raise
    ov = overlap(make_bg_state(1.0, 0.5), make_bg_state(1.0, 20.0))
    assert abs(ov) < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    k=st.floats(0.3, 2.5),
    re1=st.floats(-3, 3), im1=st.floats(-3, 3),
    re2=st.floats(-3, 3), im2=st.floats(-3, 3),
)
# the second state was cut short at rho = 1e-5 and the overlap routes split
@example(k=1.0, re1=0.0, im1=1.0, re2=0.0, im2=1e-5)
def test_overlap_cauchy_schwarz(k, re1, im1, re2, im2):
    z1, z2 = complex(re1, im1), complex(re2, im2)
    ov = overlap(make_bg_state(k, z1), make_bg_state(k, z2))
    assert abs(ov) <= 1.0 + 1e-12
    if abs(z1 - z2) > 0.3:
        assert abs(ov) < 1.0 - 1e-8


# ---------------------------------------------------------------------------
# completeness and the radial moment


def test_moment_integral_quarter_examples():
    # n = 0 moments at k = 1/2 and k = 1 both equal 1/4
    assert rel_err(moment_integral(0.5, 0), 0.25) < 1e-10
    assert rel_err(moment_integral(1.0, 0), 0.25) < 1e-10


def test_moment_identity():
    for k, n in [(1.0, 3), (1.5, 5), (0.5, 10)]:
        closed = math.exp(ln_gamma(n + 1.0) + ln_gamma(2.0 * k + n)) / 4.0
        assert rel_err(moment_integral(k, n), closed) < 1e-8


def test_completeness_values():
    for k, n in [(0.5, 0), (1.0, 0), (1.0, 3), (1.5, 5)]:
        assert abs(completeness_check(k, n) - 1.0) < 1e-6


def test_completeness_validation():
    with pytest.raises(DomainError):
        completeness_check(0.4, 0)
    with pytest.raises(DomainError):
        completeness_check(1.0, 25)
    with pytest.raises(DomainError):
        moment_integral(1.0, 5, rho_max=10.0)


def test_moment_integral_against_mpmath():
    worst = 0.0
    with mpmath.workdps(50):
        for k in (0.5, 0.75, 1.0, 2.5):
            for n in (0, 5, 20):
                want = mpmath.factorial(n) * mpmath.gamma(2 * k + n) / 4
                worst = max(worst, float(abs(moment_integral(k, n) / want - 1)))
    assert worst < 1e-14


def test_completeness_to_rounding():
    # k = 1/2 puts the logarithmic K_0 singularity at rho = 0
    for k in (0.5, 1.0, 1.5, 2.7):
        for n in range(6):
            assert abs(completeness_check(k, n) - 1.0) <= 1e-13, (k, n)


def test_moment_capped_rule_raises(monkeypatch):
    # the outer tanh-sinh rule gets one halving; the inner K rule keeps its
    # full budget, so the moment's own error check is what fires
    k_quad = bgstates._k_quad

    def full_k_quad(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(specfun, "_DE_LEVELS", 10)
            return k_quad(*args, **kwargs)

    monkeypatch.setattr(bgstates, "_k_quad", full_k_quad)
    monkeypatch.setattr(specfun, "_DE_LEVELS", 1)
    with pytest.raises(ConvergenceError, match="moment quadrature"):
        moment_integral(1.0, 3)


def test_moment_tail_nonconvergence():
    # rho_max barely past the decay threshold leaves an O(1) tail estimate
    with pytest.raises(ConvergenceError):
        moment_integral(1.0, 5, rho_max=12.2)


# ---------------------------------------------------------------------------
# occupation moments


def test_b_ratio_tanh_oracle():
    # at k = 1/4 the quotient collapses to I_{1/2}/I_{-1/2} = tanh
    for rho in (0.3, 3.0, 20.0):
        assert rel_err(b_ratio(0.25, rho), math.tanh(2.0 * rho)) < 1e-13


def test_b_ratio_refuses_an_underflowed_denominator():
    assert bessel_i_scaled(2.0 * 123.456 - 1.0, 5.0) == 0.0
    with pytest.raises(DomainError, match=r"k=123\.456, rho=2\.5"):
        b_ratio(123.456, 2.5)


def test_make_bg_state_refuses_k_whose_order_rounds_to_minus_one():
    k_min = bgstates._K_MIN
    assert 2.0 * k_min - 1.0 > -1.0
    assert 2.0 * math.nextafter(k_min, 0.0) - 1.0 == -1.0
    with pytest.raises(DomainError, match="got k=1e-20"):
        make_bg_state(1e-20, 1e-300)
    assert make_bg_state(k_min, 1e-300).dim == 1


@pytest.mark.parametrize("k", [1e-10, 1e-14, 1e-16, 2.775557561562892e-17])
def test_tiny_k_state_is_normalized(k):
    # 2k reaches the I series apart from the order 2k - 1, which lost its low
    # bits: the norm was off by up to 0.5
    state = make_bg_state(k, 1e-300)
    with mpmath.workdps(50):
        kk, r = mpmath.mpf(k), mpmath.mpf(1e-300)
        lead = r ** (2 * kk - 1) / mpmath.besseli(2 * kk - 1, 2 * r)
        want = sum(lead * r ** (2 * n) / (mpmath.factorial(n) * mpmath.gamma(2 * kk + n))
                   for n in range(state.dim))
    norm = float(np.sum(np.abs(state.coeffs) ** 2))
    assert abs(norm - want) <= 1e-13 and abs(norm - 1.0) <= 1e-13


@pytest.mark.parametrize("k", [1e-10, 1e-16])
def test_b_ratio_at_tiny_k_against_mpmath(k):
    # the denominator's order 2k - 1 lost 2k's low bits: 2e-11 off at rho = 1e-3
    with mpmath.workdps(50):
        for rho in (1e-3, 1.0):
            kk, r = mpmath.mpf(k), mpmath.mpf(rho)
            want = mpmath.besseli(2 * kk, 2 * r) / mpmath.besseli(2 * kk - 1, 2 * r)
            assert abs(b_ratio(k, rho) - want) <= 1e-14 * want


def test_k3_mean_past_the_asymptotic_reach_against_mpmath():
    # I_99(600) once came from an asymptotic sum 3483x too large, and the
    # K3 routes disagreed by 350
    m = k3_moments(make_bg_state(50.0, 300.0))
    with mpmath.workdps(50):
        want = 50 + 300 * mpmath.besseli(100, 600) / mpmath.besseli(99, 600)
    assert abs(m.mean - want) <= 1e-10 * want


def test_b_ratio_values_and_slope():
    assert rel_err(b_ratio(1.0, 50.0), B_AT_1_50) < 1e-12
    assert b_ratio(1.0, 0.0) == 0.0
    for k in (0.5, 1.0, 2.0):
        # leading behavior rho/(2k); at k=1/2 this is the rho limit itself
        assert rel_err(b_ratio(k, 1e-4) / 1e-4, 1.0 / (2.0 * k)) < 1e-7


def test_k3_moments_ground_state():
    m = k3_moments(make_bg_state(0.75, 0.0))
    assert (m.mean, m.second, m.variance, m.b_k) == (0.75, 0.5625, 0.0, 0.0)


def test_k3_moments_large_rho():
    # tolerance set by the Bessel-quotient accuracy at argument 100
    m = k3_moments(make_bg_state(1.0, 50.0))
    assert abs(m.mean - K3_MEAN_1_50) < 5e-10
    assert abs(m.variance - K3_VAR_1_50) < 5e-10
    assert rel_err(m.mean, 50.0 + 0.25) < 0.01
    assert rel_err(m.variance, 25.0) < 0.01


def test_k3_variance_to_mean_ratio():
    # (Delta K3)^2 / (<K3> - k) approaches 1/2, unlike a Poisson profile
    r50 = k3_moments(make_bg_state(1.0, 50.0))
    r200 = k3_moments(make_bg_state(1.0, 200.0))
    q50 = r50.variance / (r50.mean - 1.0)
    q200 = r200.variance / (r200.mean - 1.0)
    assert abs(q50 - 0.5) < 0.01
    assert abs(q200 - 0.5) < abs(q50 - 0.5)


def test_k3_closed_vs_sum_grid():
    # construction cross-checks closed forms against coefficient sums
    for k in (0.5, 1.0, 2.0):
        for rho in (0.5, 2.0, 10.0):
            k3_moments(make_bg_state(k, rho * np.exp(0.4j)))


def test_k12_moments_real_and_imaginary_z():
    m = k12_moments(make_bg_state(1.0, 3.0))
    assert (m.mean_k1, m.mean_k2) == (3.0, -0.0)
    mi = k12_moments(make_bg_state(1.0, 2.0j))
    assert abs(mi.mean_k1) < 1e-12
    assert abs(mi.mean_k2 + 2.0) < 1e-12


def test_k12_uncertainty_saturation():
    for k in (0.5, 1.0, 2.0):
        for rho in (0.5, 2.0, 10.0):
            st_ = make_bg_state(k, rho * np.exp(-1.2j))
            m = k12_moments(st_)
            k3m = k3_moments(st_)
            assert m.var_k1 == m.var_k2
            assert abs(m.var_k1 * m.var_k2 - 0.25 * k3m.mean**2) < 1e-12
            assert abs(m.second_k1 + m.second_k2 - (rho**2 + k3m.mean)) < 1e-10


def test_moment_routes_never_densify(monkeypatch):
    def refuse(op):
        raise AssertionError(f"dense view of {op.name} built")

    monkeypatch.setattr(TruncatedOperator, "entries", property(refuse))
    state = make_bg_state(1.0, 300.0)
    k12_moments(state)
    phase_expectations(state)


@pytest.mark.parametrize("which", ["k12", "phase"])
def test_banded_moment_checks_fire_on_a_perturbed_route(monkeypatch, which):
    matvec = bgstates.banded_matvec
    monkeypatch.setattr(bgstates, "banded_matvec", lambda a, c: matvec(a, c) * (1.0 + 1e-8))
    state = make_bg_state(1.0, 3.0 * np.exp(0.4j))
    with pytest.raises(TruncationError, match="disagree"):
        (k12_moments if which == "k12" else phase_expectations)(state)


@pytest.mark.parametrize("rho", [1e-200, 5e-324])
def test_moments_at_tiny_rho(rho):
    s = make_bg_state(1.0, rho * np.exp(0.3j))
    assert k3_moments(s).mean == 1.0
    assert k12_moments(s).var_k1 == 0.5


@pytest.mark.parametrize("moments", [k3_moments, k12_moments])
def test_moment_checks_fire_at_tiny_rho(monkeypatch, moments):
    # a dim-1 state's routes differ by about rho, so a 1e-5 shift must show;
    # |deviation - shift| is the smaller of the two signed shifts
    state = make_bg_state(1.0, 1e-150 * np.exp(0.3j))
    check = bgstates.check_route
    monkeypatch.setattr(bgstates, "check_route",
                        lambda site, deviation, tol, *args, **kwargs:
                        check(site, abs(deviation - 1e-5), tol, *args, **kwargs))
    with pytest.raises(TruncationError, match="disagree"):
        moments(state)


# ---------------------------------------------------------------------------
# the radial phase weight and its ratio


def test_g_k_reference_values():
    assert rel_err(g_k(1.0, 2.0), G_AT_1_2) < REL
    assert rel_err(g_k(0.5, 0.5), G_AT_HALF_HALF) < REL
    assert rel_err(g_k(2.0, 10.0), G_AT_2_10) < REL


def test_g_k_dual_route_below_half():
    # negative Bessel order in the quadrature route; must still agree
    assert g_k(0.25, 1.02) > 0.0


def _g_scaled_reference(k, rho):
    # e^{-2 rho} g(rho) from its defining series at 50 digits
    with mpmath.workdps(50):
        k, rho = mpmath.mpf(k), mpmath.mpf(rho)
        terms = [
            rho ** (2 * (n + k)) / (mpmath.factorial(n) * mpmath.gamma(2 * k + n))
            * (1 / (n + k) + 1 / (n + k + 1))
            for n in range(200)
        ]
        return mpmath.fsum(terms) / 2 * mpmath.exp(-2 * rho)


@pytest.mark.parametrize("k", [0.25, 0.4, 1.0, 2.0])
def test_g_k_quadrature_route_against_mpmath(k):
    for rho in (0.01, 0.5, 1.02, 5.0, 40.0):
        value, err = bgstates._g_quadrature(k, rho)
        want = _g_scaled_reference(k, rho)
        assert float(abs(value / want - 1)) < 1e-13, rho
        assert err < 1e-11 * value


def test_g_k_routes_agree_for_small_k():
    # u^{2k-1} is singular at 0 for k < 1/2; g_k raises unless both routes
    # agree to 1e-10
    for k in (0.02, 0.05, 0.1, 0.25, 0.4, 0.5, 0.75):
        for rho in (1e-6, 0.3, 1.02, 10.0, 200.0):
            assert g_k(k, rho) > 0.0


def test_g_k_capped_rule_raises(monkeypatch):
    monkeypatch.setattr(specfun, "_DE_LEVELS", 1)
    with pytest.raises(ConvergenceError, match="g_k quadrature"):
        g_k(1.0, 2.0)


def test_g_k_domain():
    assert g_k(1.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        g_k(0.0, 1.0)
    with pytest.raises(DomainError):
        g_k(1.0, 400.0)


def test_ratio_reference_and_excess():
    assert rel_err(ratio_gI(1.0, 50.0), RATIO_AT_1_50) < REL
    assert abs(ratio_gI(1.0, 50.0) - 0.995) < 0.001
    assert rel_err(ratio_gI(0.25, 1.02), RATIO_AT_QUARTER) < REL
    assert ratio_gI(0.25, 1.02) > 1.0


def test_ratio_vanishes_linearly():
    for k in (0.25, 0.5, 1.0, 2.0):
        slope = 0.5 * (1.0 / k + 1.0 / (k + 1.0))
        assert rel_err(ratio_gI(k, 1e-3) / 1e-3, slope) < 1e-5
        assert ratio_gI(k, 0.0) == 0.0


def _ratio_reference(k, rho):
    # g(rho) / I_{2k-1}(2 rho) at the working precision, g summed by the term
    # ratio rho^2 / (n (2k+n-1)) past 1e-55
    kk, r = mpmath.mpf(k), mpmath.mpf(rho)
    term, g, n = r ** (2 * kk) / mpmath.gamma(2 * kk), 0, 0
    while n <= rho or term > 1e-55 * g:
        g += term * (1 / (n + kk) + 1 / (n + kk + 1)) / 2
        n += 1
        term *= r * r / (n * (2 * kk + n - 1))
    return g / mpmath.besseli(2 * kk - 1, 2 * r)


def test_ratio_against_mpmath():
    mpmath.mp.dps = 50
    for k in (0.25, 0.5, 1.0, 2.5):
        for rho in (0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 100.0, 300.0):
            want = _ratio_reference(k, rho)
            assert abs(mpmath.mpf(ratio_gI(k, rho)) - want) <= 5e-15 * want


def test_ratio_at_large_k_against_mpmath():
    # every term underflowed at k = 100, rho = 0.5: once a ZeroDivisionError
    with mpmath.workdps(50), warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (0.01, 0.5, 3.0):
            want = _ratio_reference(100.0, rho)
            assert abs(mpmath.mpf(ratio_gI(100.0, rho)) - want) <= 5e-15 * want
            row = kbound_scan([100.0], [rho]).ratio[0, 0]
            assert abs(mpmath.mpf(row) - want) <= 5e-15 * want


@pytest.mark.parametrize("k", [100.0, 1000.0])
def test_scan_rows_at_large_k_are_finite_and_bounded(k):
    # at small rho every term of these rows underflowed, and the ratio read 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = kbound_scan([k])
    assert np.all(np.isfinite(result.ratio)) and np.all(result.ratio > 0.0)
    assert result.verdicts == ("BOUNDED",)


def test_ratio_matches_scaled_bessel_quotient():
    # independent denominator route through the dedicated Bessel evaluator
    for k in (0.5, 1.0, 2.0):
        for rho in (0.5, 3.0, 40.0):
            direct = g_k(k, rho) * math.exp(-2.0 * rho) / bessel_i_scaled(
                2.0 * k - 1.0, 2.0 * rho
            )
            assert rel_err(ratio_gI(k, rho), direct) < 1e-11


def test_ratio_asymptote_band():
    # |ratio - (1 - 1/(4 rho))| falls below 0.5/rho^2 across the far grid for
    # k up to 1; the second-order coefficient grows with k, so k = 2 gets a
    # wider measured envelope
    for k, band in ((0.5, 0.5), (1.0, 0.5), (2.0, 1.2)):
        for rho in np.linspace(20.0, 100.0, 33):
            dev = abs(ratio_gI(k, float(rho)) - ratio_gI_asymptote(float(rho)))
            assert dev * rho * rho < band


# ---------------------------------------------------------------------------
# the scan


@pytest.fixture(scope="module")
def default_scan():
    return kbound_scan()


def test_scan_grid_shape(default_scan):
    res = default_scan
    assert res.ratio.shape == (39, 200)
    assert math.isclose(res.k_values[0], 0.1) and math.isclose(res.k_values[-1], 2.0)
    assert math.isclose(res.rho_values[0], 0.01) and math.isclose(res.rho_values[-1], 100.0)


def test_scan_entries_finite_positive(default_scan):
    assert bool(np.all(np.isfinite(default_scan.ratio)))
    assert bool(np.all(default_scan.ratio > 0.0))


def test_scan_verdicts(default_scan):
    res = default_scan
    def at(kt):
        return int(np.argmin(np.abs(res.k_values - kt)))
    for kt in (0.4, 0.5, 1.0, 2.0):
        assert res.verdicts[at(kt)] == "BOUNDED"
        assert res.sup_per_k[at(kt)] <= 1.0
    i = at(0.25)
    assert res.verdicts[i] == "EXCEEDS"
    assert abs(res.sup_per_k[i] - 1.042037322) < 1e-6
    assert abs(res.argmax_rho[i] - 1.0234) < 2e-3


def test_scan_flip_bracket(default_scan):
    lo, hi = flip_bracket(default_scan)
    assert math.isclose(lo, 0.30, abs_tol=1e-9)
    assert math.isclose(hi, 0.35, abs_tol=1e-9)


def test_scan_matches_scalar_route(default_scan):
    res = default_scan
    for i, j in [(3, 100), (8, 50), (18, 199), (38, 0)]:
        want = ratio_gI(float(res.k_values[i]), float(res.rho_values[j]))
        assert abs(res.ratio[i, j] - want) < 1e-12


def test_scan_rows_single_dip_then_monotone(default_scan):
    # empirical shape for k >= 0.5: at most one interior dip, then a strictly
    # increasing climb toward 1 from below
    res = default_scan
    for i in np.where(res.k_values >= 0.5 - 1e-12)[0]:
        row = res.ratio[i]
        d = np.diff(row)
        turns = np.where(np.diff(np.sign(d)) != 0)[0]
        assert len(turns) <= 2
        start = turns[-1] + 1 if len(turns) else 0
        assert bool(np.all(d[start:] > 0.0))
        assert 0.99 < row[-1] < 1.0


def test_scan_custom_grid_and_validation():
    res = kbound_scan(np.array([0.5, 1.0]), np.array([1.0, 2.0, 3.0]))
    assert res.ratio.shape == (2, 3)
    with pytest.raises(DomainError):
        kbound_scan(np.array([]), np.array([1.0]))
    with pytest.raises(DomainError):
        kbound_scan(np.array([0.5]), np.array([-1.0]))


def test_scan_json_summary(default_scan):
    summary = scan_json_summary(default_scan)
    assert summary["flip_bracket"] == [0.30000000000000004, 0.35000000000000003] or (
        abs(summary["flip_bracket"][0] - 0.3) < 1e-9
        and abs(summary["flip_bracket"][1] - 0.35) < 1e-9
    )
    assert len(summary["rows"]) == 39
    row = summary["rows"][0]
    assert set(row) == {"k", "sup", "argmax_rho", "verdict"}


# ---------------------------------------------------------------------------
# phase expectations


def test_phase_expectation_signs_and_ratio():
    pe = phase_expectations(make_bg_state(1.0, 2.0))
    assert pe.sin_mean == 0.0
    assert pe.cos_mean > 0.0
    phi = math.pi / 4.0
    tans = [
        phase_expectations(make_bg_state(k, 3.0 * np.exp(1j * phi))).tan_ratio
        for k in (0.5, 2.0)
    ]
    assert abs(tans[0] - tans[1]) < 1e-14
    assert abs(tans[0] - math.tan(phi)) < 1e-14


def test_phase_expectation_correspondence_limit():
    pe = phase_expectations(make_bg_state(1.0, 200.0))
    assert 0.998 < pe.cos_mean < 1.0


def test_phase_expectation_guards():
    assert math.isnan(phase_expectations(make_bg_state(1.0, 0.0)).tan_ratio)
    # phase pi/2 in floats leaves a tiny cosine, so the ratio is simply huge
    assert abs(phase_expectations(make_bg_state(1.0, 2.0j)).tan_ratio) > 1e15


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rho", [1e-8, 1e-6, 1e-4])
def test_phase_expectations_at_small_rho(monkeypatch, k, rho):
    # a short state drops the rho-sized coupling of its last coefficient to
    # the omitted ones, so both routes pass; a shift of 100 rho still shows
    state = make_bg_state(k, rho * np.exp(0.3j))
    pe = phase_expectations(state)
    assert abs(pe.tan_ratio - math.tan(0.3)) < 1e-14
    # |deviation - shift| is the smaller of the two signed shifts
    check = bgstates.check_route
    monkeypatch.setattr(
        bgstates, "check_route",
        lambda site, deviation, tol, *args, **kwargs:
        check(site, abs(deviation - 100.0 * rho), tol, *args, **kwargs),
    )
    with pytest.raises(TruncationError, match="expectation"):
        phase_expectations(state)


def test_phase_expectation_matches_excess_at_quarter():
    pe = phase_expectations(make_bg_state(0.25, 1.02))
    assert pe.cos_mean > 1.0
