"""Tests for coherent states, their moments, and the phase-bound scan.

Reference values were frozen from a 40-digit evaluation of the defining
series and Bessel quotients.
"""

import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasequant import bgstates, phaseops, specfun
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


def _overlap_0f1(k, z1, z2):
    # <k,z2|k,z1> = 0F1(; 2k; conj(z2) z1) / sqrt(0F1(; 2k; rho1^2) 0F1(; 2k; rho2^2))
    two_k = 2 * mpmath.mpf(k)
    z1, z2 = mpmath.mpc(z1), mpmath.mpc(z2)
    return mpmath.hyp0f1(two_k, mpmath.conj(z2) * z1) / mpmath.sqrt(
        mpmath.hyp0f1(two_k, abs(z1) ** 2) * mpmath.hyp0f1(two_k, abs(z2) ** 2))


def test_overlap_kernel_against_mpmath():
    # the closed route alone, against mpmath's 0F1 ratio; |overlap| <= 1, so
    # the error is absolute
    mpmath.mp.dps = 40
    pairs = [(0.0, 0.0), (0.0, 3.0 * cmath.exp(1.0j)), (2.0, 0.0), (1e-300, 5.0 * cmath.exp(2.0j)),
             (0.5, -0.7), (3.0j, -3.0j), (10.0, 30.0 * cmath.exp(-2.0j)), (30.0, 30.0 * cmath.exp(0.1j)),
             (1e-5, 20.0 * cmath.exp(1.0j))]
    for k in (0.25, 0.5, 1.0, 2.5, 20.0, 100.0, 300.0):
        for z1, z2 in pairs:
            got = bgstates._overlap_closed(k, complex(z1), complex(z2))
            assert abs(mpmath.mpc(got) - _overlap_0f1(k, z1, z2)) <= 1e-12, (k, z1, z2)
    # where S(rho^2) itself overflows a double (e^1400)
    z1, z2 = 700.0 + 0.0j, 700.0 * cmath.exp(0.3j)
    got = bgstates._overlap_closed(0.5, z1, z2)
    assert abs(mpmath.mpc(got) - _overlap_0f1(0.5, z1, z2)) <= 1e-12


def test_overlap_kernel_at_large_k_against_mpmath():
    # ln S once carried a few ulp of ln Gamma(2k): 2.9e-13 at k = 300,
    # 1.5e-12 at k = 1000, 1.7e-11 at k = 1e4
    mpmath.mp.dps = 40
    pairs = [(0.5, 0.7j), (3.0 * cmath.exp(1.0j), 2.0), (10.0, 30.0 * cmath.exp(-2.0j)),
             (1e-300, 5.0 * cmath.exp(2.0j)), (30.0, 30.0 * cmath.exp(0.1j))]
    for k in (86.0, 300.0, 1000.0, 1e4):
        for z1, z2 in pairs:
            got = bgstates._overlap_closed(k, complex(z1), complex(z2))
            assert abs(mpmath.mpc(got) - _overlap_0f1(k, z1, z2)) <= 1e-14, (k, z1, z2)


def test_state_table_against_mpmath():
    # c_n = z^n / sqrt(n! (2k)_n 0F1(; 2k; rho^2)) at 30 digits, over the
    # whole k range: until the state read its own table, k below 2.78e-17 was
    # refused and the coefficients lost digits as k grew (1.1e-11 at k = 1e4)
    rng = np.random.default_rng(31)
    ks = np.exp(rng.uniform(math.log(2.3e-308), math.log(1e6), 60))
    rhos = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), 60))
    phis = rng.uniform(-math.pi, math.pi, 60)
    with mpmath.workdps(30):
        for k, rho, phi in zip(ks.tolist(), rhos.tolist(), phis.tolist()):
            state = make_bg_state(k, rho * cmath.exp(1j * phi))
            two_k, z = 2 * mpmath.mpf(k), mpmath.mpc(state.z)
            want = 1 / mpmath.sqrt(mpmath.hyp0f1(two_k, abs(z) ** 2))
            for n, got in enumerate(state.coeffs.tolist()):
                if n:
                    want *= z / mpmath.sqrt(n * (two_k + (n - 1)))
                assert abs(mpmath.mpc(got) - want) <= 1e-13 * abs(want), (k, rho, phi, n)
            assert abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0) <= 1e-14, (k, rho)


def _phase_series_means(k, rho):
    # rho sum t_n / (n + 2k) / sum t_n (b_k) and rho sum t_n w_n / sum t_n (g/I),
    # t_n = rho^{2n} / (n! (2k)_n), w_n = (1/(n+k) + 1/(n+k+1))/2, summed in
    # the working precision past the peak until the terms fall below 1e-32
    k, rho = mpmath.mpf(k), mpmath.mpf(rho)
    term, total, b_sum, g_sum, n = mpmath.mpf(1), 0, 0, 0, 0
    while n <= rho or term > 1e-32 * total:
        total += term
        b_sum += term / (n + 2 * k)
        g_sum += term * (1 / (n + k) + 1 / (n + k + 1)) / 2
        n += 1
        term *= rho * rho / (n * (2 * k + (n - 1)))
    return rho * b_sum / total, rho * g_sum / total, total


def test_state_and_means_against_mpmath_over_the_whole_range():
    # k log-uniform from the k floor to 1e6 and rho from 1e-3 to 700, at 30
    # digits: every coefficient that is a normal double within 1e-13, and
    # b_k, <K3> and <cos> within 1e-15.  With ln Gamma(2k+n) in the phase
    # table and n ln w in the state's, they were 1.8e-12 and 1.0e-13 off
    rng = np.random.default_rng(2034)
    cells = zip(np.exp(rng.uniform(math.log(phaseops._K_MIN), math.log(1e6), 40)).tolist(),
                np.exp(rng.uniform(math.log(1e-3), math.log(700.0), 40)).tolist(),
                rng.uniform(-math.pi, math.pi, 40).tolist())
    refused = 0
    with mpmath.workdps(30):
        for k, rho, phi in cells:
            try:
                state = make_bg_state(k, rho * cmath.exp(1j * phi))
            except DomainError as exc:  # c_0 below the smallest double
                assert "c_0 underflows" in str(exc)
                refused += 1
                continue
            b, ratio, total = _phase_series_means(k, state.rho)
            z = mpmath.mpc(state.z)
            want = 1 / mpmath.sqrt(total)
            for n, got in enumerate(state.coeffs.tolist()):
                if n:
                    want *= z / mpmath.sqrt(n * (2 * mpmath.mpf(k) + (n - 1)))
                if abs(got) >= sys.float_info.min:
                    assert abs(mpmath.mpc(got) - want) <= 1e-13 * abs(want), (k, rho, n)
            k3 = k + state.rho * b
            cos = mpmath.cos(state.phi) * ratio
            assert abs(b_ratio(k, state.rho) - b) <= 1e-15 * b, (k, rho)
            assert abs(k3_moments(state).mean - k3) <= 1e-15 * k3, (k, rho)
            assert abs(phase_expectations(state).cos_mean - cos) <= 1e-15 * abs(cos), (k, rho)
    assert refused <= 2


# make_bg_state(k, rho).dim with k log-uniform from the k floor to 1e6 and rho
# from 1e-3 to 700 (numpy.random.default_rng(41)), 0 for a refusal: recorded
# while the state read a ln Gamma table, before it read term ratios
FROZEN_DIMS = (
    4, 24, 5, 28, 8, 4, 5, 11, 6, 7, 14, 8, 8, 6, 22, 52, 5, 55, 11, 56, 38, 5, 12, 5, 4, 49,
    188, 34, 18, 63, 10, 29, 37, 2, 8, 4, 257, 353, 20, 4, 4, 8, 35, 11, 4, 4, 10, 304, 5, 169,
    8, 6, 8, 6, 5, 14, 9, 10, 6, 25, 4, 536, 5, 9, 14, 28, 10, 31, 4, 6, 4, 130, 19, 21, 5, 78,
    4, 45, 4, 343, 187, 906, 9, 18, 58, 4, 4, 8, 4, 24, 37, 471, 338, 4, 39, 406, 421, 6, 16, 4,
    4, 734, 6, 31, 24, 237, 6, 5, 51, 40, 14, 4, 68, 8, 5, 26, 7, 5, 39, 4, 44, 7, 4, 4, 25, 232,
    45, 117, 4, 63, 0, 420, 7, 37, 16, 4, 20, 4, 5, 5, 11, 39, 117, 4, 689, 124, 8, 4, 5, 5, 17,
    19, 9, 4, 33, 8, 742, 9, 139, 101, 5, 21, 4, 7, 870, 5, 15, 237, 289, 118, 9, 91, 5, 4, 235,
    78, 5, 12, 0, 23, 400, 346, 5, 100, 4, 20, 14, 34, 18, 150, 34, 5, 129, 5, 6, 17, 0, 595, 38,
    167,
)


def test_state_dims_are_unchanged_on_a_seeded_sweep():
    rng = np.random.default_rng(41)
    ks = np.exp(rng.uniform(math.log(phaseops._K_MIN), math.log(1e6), 200))
    rhos = np.exp(rng.uniform(math.log(1e-3), math.log(700.0), 200))
    dims = []
    for k, rho in zip(ks.tolist(), rhos.tolist()):
        try:
            dims.append(make_bg_state(k, rho).dim)
        except DomainError:
            dims.append(0)
    assert tuple(dims) == FROZEN_DIMS


def test_state_tail_lies_in_its_documented_range_at_tiny_k():
    # 0 <= 1 - sum |c_n|^2 < tail_tol, to 4 dim eps, where rho^2 is near 2k:
    # the logarithmic table missed it in 133 of these 200 cells, by up to 32x
    rng = np.random.default_rng(2035)
    ks = np.exp(rng.uniform(math.log(1e-300), math.log(1e-20), 200))
    vs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 200))
    for k, v in zip(ks.tolist(), vs.tolist()):
        state = make_bg_state(k, math.sqrt(2.0 * k * v))
        tail = 1.0 - float(np.sum(np.abs(state.coeffs) ** 2))
        slack = 4.0 * state.dim * sys.float_info.epsilon
        assert -slack <= tail <= state.tail_tol + slack, (k, v, tail)


@pytest.mark.parametrize("k", [100.0, 300.0, 1000.0])
def test_overlap_returns_at_large_k(k):
    # the closed form once rebuilt both normalizations through ln I and
    # overflowed exp from k = 85.71 at rho = 0.5 on
    s1, s2 = make_bg_state(k, 0.5), make_bg_state(k, 0.7j)
    want = _overlap_0f1(k, s1.z, s2.z)
    assert abs(mpmath.mpc(overlap(s1, s2)) - want) <= 1e-12


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
    # the series peak lies past the term budget, and c_0 underflows wherever
    # it does: fails at once on c_0, before the cut
    with pytest.raises(DomainError, match="c_0 underflows"):
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


def _b_mpmath(k, rho):
    k, rho = mpmath.mpf(k), mpmath.mpf(rho)
    return mpmath.besseli(2 * k, 2 * rho) / mpmath.besseli(2 * k - 1, 2 * rho)


@pytest.mark.parametrize("k, rho", [
    # e^{-2 rho} I_2k(2 rho) = 1.24e-322 is subnormal: the quotient was off by 1.4e-3
    (51.112930054530516, 0.02755827865580318),
    # a subnormal numerator: off by 5.0e-6
    (39.88159296635607, 0.003073835879535938),
    (51.0, 0.0275),
    # I_{2k-1}(2 rho) underflows to 0: once refused
    (123.456, 2.5), (300.0, 1.0), (1e4, 0.5),
])
def test_b_ratio_where_a_bessel_value_is_not_normal(k, rho):
    assert min(bessel_i_scaled(2.0 * k - 1.0, 2.0 * rho),
               bessel_i_scaled(2.0 * k, 2.0 * rho)) < sys.float_info.min
    mpmath.mp.dps = 30
    want = _b_mpmath(k, rho)
    assert abs(b_ratio(k, rho) - want) <= 1e-13 * want


def test_b_ratio_against_mpmath_at_large_k_and_small_rho():
    # seeded sweep, k log-uniform in [20, 1e4] and rho in [1e-6, 3]: the
    # Bessel quotient, taken where both values were normal doubles, carried
    # a few ulp of its series lead's |nu ln(x/2)| ~ 400, 2.0e-13 at k = 72.8,
    # rho = 2.06; every cell is now the series mean
    mpmath.mp.dps = 30
    rng = np.random.default_rng(30)
    for _ in range(120):
        k = float(10.0 ** rng.uniform(math.log10(20.0), 4.0))
        rho = float(10.0 ** rng.uniform(-6.0, math.log10(3.0)))
        want = _b_mpmath(k, rho)
        assert abs(b_ratio(k, rho) - want) <= 1e-13 * want, (k, rho)


@settings(max_examples=60, deadline=None)
@given(log_k=st.floats(-3.0, 4.0), log_rho=st.floats(-3.0, math.log10(2e4)))
# the Bessel quotient's worst cells: 5.6e-13 at (479.45, 392.17) and
# 2.5e-14 at (72.8, 2.5); refused at (50, 700); 2.8e-13 at (300, 300), where
# the K3 variance failed its route check; and the long tables of small k
@example(log_k=math.log10(479.45), log_rho=math.log10(392.17))
@example(log_k=math.log10(72.8), log_rho=math.log10(2.5))
@example(log_k=math.log10(50.0), log_rho=math.log10(700.0))
@example(log_k=math.log10(300.0), log_rho=math.log10(300.0))
@example(log_k=math.log10(0.5), log_rho=math.log10(300.0))
@example(log_k=math.log10(0.0196), log_rho=math.log10(16333.0))
def test_b_ratio_against_mpmath_property(log_k, log_rho):
    # README's bound for the series mean: 1e-13, at 40 digits
    k, rho = 10.0 ** log_k, 10.0 ** log_rho
    with mpmath.workdps(40):
        kk, r = mpmath.mpf(k), 2 * mpmath.mpf(rho)
        want = (mpmath.besseli(2 * kk, r, maxterms=10**6)
                / mpmath.besseli(2 * kk - 1, r, maxterms=10**6))
        assert abs(b_ratio(k, rho) - want) <= 1e-13 * want


def test_the_phase_series_names_its_rho_limit():
    # the window about the peak near n = rho widens as sqrt(rho); the
    # smallest k, whose weight at n = 0 widens the lower cut most, first
    # leaves it uncut at rho = 34392557.93108839 (scanned, then bisected to
    # the double).  Once the whole table was held to 200000 terms, and every
    # k refused from rho = 197133.69 on
    assert bgstates._RHO_CUT == 34392557.93
    k_min = phaseops._K_MIN
    assert 0.99 < ratio_gI(k_min, bgstates._RHO_CUT) < 1.0
    with pytest.raises(DomainError, match=r"^the phase series' window is not cut within "
                                          r"200000 terms at k=2\.2250738585072014e-308, "
                                          r"rho=34392557\.94: rho <= 34392557\.93 is cut at "
                                          r"every k"):
        ratio_gI(k_min, 34392557.94)
    with pytest.raises(DomainError, match=r"at k=1\.0, rho=200000000\.0: rho <= 34392557\.93"):
        ratio_gI(1.0, 2e8)
    # a larger k reaches further, and no rho cut today is refused
    for k, rho in ((1e-300, bgstates._RHO_CUT), (1.0, 1.98e8), (1e4, 2.15e8)):
        assert 0.99 < ratio_gI(k, rho) < 1.0


def test_make_bg_state_refuses_a_subnormal_k():
    # the one k floor of every entry point, phaseops._K_MIN; the Bessel order
    # 2k - 1 of the normalization once set it at 2.78e-17
    with pytest.raises(DomainError, match=r"make_bg_state requires k >= 2\.2250738585072014e-308 "
                                          r".*got k=1e-310"):
        make_bg_state(1e-310, 1e-300)
    assert make_bg_state(phaseops._K_MIN, 1e-300).dim == 1
    for rho in (1e-300, 0.5, 3.0, 30.0):
        state = make_bg_state(phaseops._K_MIN, rho)
        assert abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0) <= 1e-14


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


def _small_rho_references(k, rho):
    # b = I_2k(2 rho)/I_{2k-1}(2 rho) and g/I_{2k-1}(2 rho) as rho times
    # weighted means of a_n = rho^{2n}/(n! Gamma(2k+n)), at 60 digits; eight
    # terms are exact at rho <= 1e-7
    with mpmath.workdps(60):
        k, rho = mpmath.mpf(k), mpmath.mpf(rho)
        a = [rho ** (2 * n) / (mpmath.factorial(n) * mpmath.gamma(2 * k + n)) for n in range(8)]
        total = mpmath.fsum(a)
        b = rho * mpmath.fsum(an / (2 * k + n) for n, an in enumerate(a)) / total
        w = (an * (1 / (n + k) + 1 / (n + k + 1)) / 2 for n, an in enumerate(a))
        return b, rho * mpmath.fsum(w) / total


def test_small_rho_branches_against_mpmath():
    # below rho = 1e-7 the leading terms rho/(2k) and rho w_0 once dropped a
    # relative rho^2/(2k): b_ratio was 0.5 off at (1e-16, 1e-8) and 177x at
    # (2.78e-17, 9.9e-8)
    ks = [2.78e-17, 1e-16, *np.geomspace(1e-15, 10.0, 9).tolist()]
    rhos = [1e-300, 1e-200, 1e-100, 1e-30, 1e-17, 1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 5e-8, 9.9e-8]
    for k in ks:
        for rho in rhos:
            want_b, want_ratio = _small_rho_references(k, rho)
            assert abs(b_ratio(k, rho) - want_b) <= 3e-14 * want_b, (k, rho)
            assert abs(ratio_gI(k, rho) - want_ratio) <= 3e-14 * want_ratio, (k, rho)
    assert ratio_gI(0.25, 1e-300) == 2.4e-300


@pytest.mark.parametrize("rho", [3e307, 8.9e307])
def test_b_ratio_where_2_pi_x_overflows_against_mpmath(rho):
    # the asymptotic I_{2k-1}(2 rho) read 0 once 2 pi (2 rho) overflowed, and
    # b_ratio raised "underflows" from rho = 1.43e307 on
    with mpmath.workdps(50):
        r = 2 * mpmath.mpf(rho)
        want = mpmath.besseli(2, r) / mpmath.besseli(1, r)
        assert abs(b_ratio(1.0, rho) - want) <= 1e-15 * want


@pytest.mark.parametrize("k", [0.25, 1.0])
@pytest.mark.parametrize("rho", [1e-300, 1e-200])
def test_scan_cells_at_tiny_rho_against_mpmath(k, rho):
    # rho sum t_n w_n underflowed at (1/4, 1e-300), and the cell read 0
    want = _small_rho_references(k, rho)[1]
    cell = kbound_scan([k], [rho]).ratio[0, 0]
    assert abs(cell - want) <= 3e-14 * want


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


def test_k3_moments_where_k_squared_overflows():
    # k^2 in the closed second moment: once a RuntimeWarning from the summed
    # route, then "disagree by nan (tolerance inf)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"k3_moments: the K3 second moment .* at k=1e\+200, "
                                              r"rho=0\.0: k\^2 overflows past "
                                              r"k = 1\.3407807929942596e\+154"):
            k3_moments(make_bg_state(1e200, 0.0))
        k = math.sqrt(sys.float_info.max)
        assert k3_moments(make_bg_state(k, 0.0)).second == k * k


def test_k3_variance_is_summed_about_k():
    # from k = 2^51 on k + n rounds to ulp 0.5: the variance summed about the
    # mean level once read 0.25 at k = 4296874917913091, against 1.1e-16
    for k in (4296874917913091.0, 7.9e15):
        m = k3_moments(make_bg_state(k, 1.0))
        assert m.mean == k and abs(m.variance) < 1e-15


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


@pytest.mark.parametrize("k", [2.78e-17, 1e-16, 1e-10, 1e-6, 1e-4])
def test_g_k_at_tiny_k_against_mpmath(k):
    # in w = u^{2k} every u above 1e-300 lay in the last thousand ulps below
    # w = 1, and the exponent (2k - 1) + 1 lost k: the two routes once
    # disagreed at every rho of a 40-point grid for k = 1e-10
    for rho in (1e-9, 1e-7, 0.01, 1.0, 3.4, 40.0):
        want = _g_scaled_reference(k, rho)
        value, err = bgstates._g_quadrature(k, rho)
        assert float(abs(value / want - 1)) < 1e-13, rho
        assert err < 1e-11 * value
        assert float(abs(g_k(k, rho) / (want * mpmath.exp(2 * rho)) - 1)) < 1e-13, rho
    for rho in np.geomspace(1e-7, 300.0, 40).tolist():
        assert g_k(k, rho) > 0.0


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


def test_ratio_gI_is_the_one_point_scan_bit_for_bit():
    # the scalar and the grid share one g/I routine, so they give the same bits
    rng = np.random.default_rng(19)
    ks = rng.uniform(0.1, 3.0, 2000)
    rhos = np.exp(rng.uniform(-4.0, 5.0, 2000))
    mismatched = [(k, rho) for k, rho in zip(ks.tolist(), rhos.tolist())
                  if ratio_gI(k, rho) != kbound_scan([k], [rho]).ratio[0, 0]]
    assert mismatched == []


def _refuse_bessel_i(monkeypatch, allowed=()):
    # every I_nu routine that specfun and bgstates hold raises, but those named
    # in allowed, which bgstates calls through a counter and whose specfun
    # helpers stay; returns the calls
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("an I_nu routine was called")

    helpers = () if allowed else ("_i_series", "_i_asymptotic_scaled")
    for module in (specfun, bgstates):
        for name in ("bessel_i", "bessel_i_scaled", "bessel_i_asymptotic", *helpers):
            if hasattr(module, name) and name not in allowed:
                monkeypatch.setattr(module, name, refuse)
    for name in allowed:
        real = getattr(bgstates, name)
        monkeypatch.setattr(bgstates, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def test_the_state_and_the_closed_overlap_call_no_bessel_i(monkeypatch):
    # the state is normalized by its own table, and b_k and g/I are series
    # means over the phase table, so no I_nu routine enters up to _RHO_CUT
    _refuse_bessel_i(monkeypatch)
    for k, z in ((1.0, 3.0), (1e-300, 2.0j), (1e4, 3.0), (0.5, 700.0), (300.0, 300.0)):
        state = make_bg_state(k, z)
        assert state.dim > 1
        assert k3_moments(state).b_k == b_ratio(k, abs(z))
        assert k12_moments(state).var_k1 > 0.0
        assert abs(phase_expectations(state).cos_mean) < 1.0
    assert abs(bgstates._overlap_closed(1.0, 3.0 + 0.0j, 2.0j)) < 1.0
    for k in (1e-300, 1.0, 1e4):
        assert 0.99 < ratio_gI(k, bgstates._RHO_CUT) < 1.0
    assert 0.99 < b_ratio(1.0, bgstates._RHO_CUT) < 1.0


def test_b_ratio_past_the_phase_series_calls_only_bessel_i_scaled(monkeypatch):
    # past _RHO_CUT the window is cut at k = 1 up to rho = 199077157.76, and
    # not at all further on: there the asymptotic quotient
    calls = _refuse_bessel_i(monkeypatch, allowed=("bessel_i_scaled",))
    for rho in (math.nextafter(bgstates._RHO_CUT, math.inf), 3e5, 1.99e8):
        assert 0.99 < b_ratio(1.0, rho) < 1.0
    assert calls == []
    for rho in (2e8, 1e300):
        calls.clear()
        assert 0.99 < b_ratio(1.0, rho) <= 1.0
        assert calls == ["bessel_i_scaled", "bessel_i_scaled"]
    with mpmath.workdps(40):
        for rho in (3e5, 2e8):
            r = 2 * mpmath.mpf(rho)
            want = mpmath.besseli(2, r) / mpmath.besseli(1, r)
            assert abs(b_ratio(1.0, rho) - want) <= 1e-15 * want


def test_b_ratio_past_the_phase_series_reads_the_table_where_it_is_cut(monkeypatch):
    # the quotient once refused (1e4, 2e5), and would be 1.9e-11 off.
    # mpmath (30 digits, maxterms 10**6) took 264 s for this reference, so it
    # is frozen
    _refuse_bessel_i(monkeypatch)
    want = 0.95125034800023766398
    assert abs(b_ratio(1e4, 2e5) - want) <= 1e-14 * want


def _phase_series_moments(k, rho):
    # b_k = sum t_n rho/(n + 2k) / sum t_n and the mean and variance of n
    # under the state's weights t_n = rho^{2n} / (n! (2k)_n), in mpmath at 30
    # digits, each term built from the one before by its ratio
    with mpmath.workdps(30):
        a, r = 2 * mpmath.mpf(k), mpmath.mpf(rho)
        t, n, total, b, first, second = mpmath.mpf(1), 0, 0, 0, 0, 0
        while True:
            total += t
            b += t * r / (n + a)
            first += t * n
            second += t * n * n
            n += 1
            t *= r * r / (n * (a + n - 1))
            if n > r and t < total * mpmath.mpf(10) ** -35:
                break
        mean = first / total
        return float(b / total), float(mean), float(second / total - mean * mean)


def test_every_series_in_2k_runs_past_k_7_9394e15():
    # 40 seeded cells with k log-uniform in [1e12, 1e154]: the lgamma cut
    # refused every k from 7.9394e15 on, 39 of these cells, and below that
    # cut some states short of their tail ("tail -7.439e-01" at
    # (2949021381109743.5, 586135911.9030025))
    rng = np.random.default_rng(36)
    ks = np.exp(rng.uniform(math.log(1e12), math.log(1e154), 40))
    rhos = np.exp(rng.uniform(math.log(1e-3), math.log(300.0), 40))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, rho in zip(ks.tolist(), rhos.tolist()):
            state = make_bg_state(k, rho)
            b, mean, variance = _phase_series_moments(k, rho)
            assert abs(b_ratio(k, rho) - b) <= 1e-15 * b, (k, rho)
            p = np.abs(state.coeffs) ** 2
            n = np.arange(state.dim)
            occupation = float(np.sum(p * n))
            assert abs(occupation - mean) <= 1e-15 * mean + 1e-14, (k, rho)
            assert abs(float(np.sum(p * (n - occupation) ** 2)) - variance) <= (
                1e-15 * variance + 1e-14), (k, rho)
            moments = k3_moments(state)
            assert moments.mean == k + rho * moments.b_k
            assert ratio_gI(k, rho) == kbound_scan([k], [rho]).ratio[0, 0] > 0.0
            assert 0.0 <= g_k(k, rho) < math.inf
    assert make_bg_state(2949021381109743.5, 586135911.9030025).dim > 1


def test_k3_variance_check_reads_no_band():
    # the exact cut gives this state dim 5 (the lgamma cut gave 7), where the
    # banded routes' row-dim term 10 |c_4|^2 dim (2k + dim - 1) / 4 = 0.0116
    # let the closed variance 3.0517578125e-05 pass against the summed
    # 5.3941680508274e-05 (mpmath); the K3 routes read no band
    state = make_bg_state(1315173966583160.0, 376676.7683790129)
    assert state.dim == 5
    with pytest.raises(TruncationError, match=r"K3 variance.*\(tolerance 5\.005e-07\)"):
        k3_moments(state)


def test_interior_check_and_residual_share_the_kminus_rows(monkeypatch):
    rows = []
    real = bgstates._kminus_rows
    monkeypatch.setattr(bgstates, "_kminus_rows", lambda s: rows.append(real(s)) or rows[-1])
    state = make_bg_state(0.75, 2.0 + 1.0j)
    assert eigenvector_residual(state) == float(np.linalg.norm(rows[-1]))
    assert len(rows) == 2 and np.array_equal(rows[0], rows[1])
    assert rows[-1][-1] == -state.z * state.coeffs[-1]
