"""The single route-check rule and the NaN deviations it must refuse.

Every dual-route comparison goes through ``errors.check_route``, which
passes only when deviation <= tol.  Each test below forces a NaN into one
route at one site and asserts the package error: a NaN compares false with
everything, so a plain ``deviation > tol`` test (or the built-in ``max``)
would let it through.  The infinite-k tests cover the domain checks that
``not k > 0`` alone used to leave open.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from phasequant import bgstates, fockreal, nfm, phaseops, specfun
from phasequant.bgstates import (
    BGState,
    g_k,
    k3_moments,
    k12_moments,
    make_bg_state,
    moment_integral,
    overlap,
    phase_expectations,
)
from phasequant.errors import (
    ConvergenceError,
    DomainError,
    InconsistentDataError,
    TruncationError,
    _worst,
    check_route,
)
from phasequant.fockreal import (
    alpha_expectations,
    h2_curve,
    hp_generators,
    hp_phase_ops,
    squared_boson,
    two_mode,
)
from phasequant.phaseops import (
    PhaseOperatorPair,
    build_phase_ops,
    ground_state_variance,
    k1_bound,
    phase_extremes,
    phase_spectrum,
)
from phasequant.repalg import (
    RepLabel,
    TruncatedOperator,
    band_gap,
    build_k3,
    build_kplus,
    commutator_gap,
)


def _with_nan(op, at=1):
    # the operator with entry ``at`` of every stored diagonal set to NaN
    return dataclasses.replace(op, diagonals={
        d: np.where(np.arange(v.size) == at, np.nan, v) for d, v in op.diagonals.items()})


def _nan_build(build, only_k=None):
    # an abstract builder whose output carries a NaN (at sector k only_k)
    def built(label, dim):
        op = build(label, dim)
        return op if only_k is not None and label.k != only_k else _with_nan(op)
    return built


def _nan_at(module, monkeypatch, fragment):
    # the module's check_route, with the deviation at sites naming fragment
    # replaced by NaN
    check = module.check_route

    def forced(site, deviation, tol, *args, **kwargs):
        return check(site, math.nan if fragment in site else deviation, tol, *args, **kwargs)
    monkeypatch.setattr(module, "check_route", forced)


# ---------------------------------------------------------------------------
# the rule itself


def test_check_route_passes_up_to_the_tolerance():
    check_route("two routes", 0.0, 0.0)
    check_route("two routes", 1e-13, 1e-13)


@pytest.mark.parametrize("deviation, tol", [(2e-13, 1e-13), (math.nan, 1e-13),
                                            (0.0, math.nan), (math.inf, 1e300)])
def test_check_route_refuses_excess_and_nan(deviation, tol):
    with pytest.raises(TruncationError, match="two routes disagree"):
        check_route("two routes", deviation, tol)


def test_check_route_message_and_error_class():
    with pytest.raises(ConvergenceError) as info:
        check_route("x routes", 2.5e-9, 1e-10, ConvergenceError, context="at k=1.0")
    assert str(info.value) == "x routes disagree by 2.500e-09 (tolerance 1.000e-10) at k=1.0"
    with pytest.raises(InconsistentDataError) as info:
        check_route("y routes", math.nan, 1e-13, InconsistentDataError)
    assert str(info.value) == "y routes disagree by nan (tolerance 1.000e-13)"


# ---------------------------------------------------------------------------
# aggregators: NaN in any argument and diagonal order


@pytest.mark.parametrize("at", [0, 1, 2])
def test_worst_keeps_a_nan_in_any_position(at):
    # the built-in max keeps a NaN only in first position
    values = [0.0, 1.0, 2.0]
    values[at] = math.nan
    assert math.isnan(_worst(*values))
    assert _worst(0.0, 2.0, 1.0) == 2.0 and _worst() == 0.0


def test_poisson_bracket_check_keeps_a_nan_residual():
    # 2h overflows, so every residual is NaN; the fold, which starts at 0.0,
    # must not drop it
    assert math.isnan(nfm.poisson_bracket_check([(0.3, 1.0)], h=1e308))
    assert math.isnan(nfm.poisson_bracket_check([(0.3, 1.0), (0.0, 2.0)], h=1e308))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_band_gap_propagates_nan_in_either_order(offset):
    clean = {-1: np.zeros(3), 0: np.zeros(4), 1: np.zeros(3)}
    dirty = dict(clean)
    dirty[offset] = np.where(np.arange(clean[offset].size) == 1, np.nan, 0.0)
    assert math.isnan(band_gap(clean, dirty))
    assert math.isnan(band_gap(dirty, clean))
    # an absent diagonal counts as zero, on either side
    assert math.isnan(band_gap({offset: dirty[offset]}, {}))
    assert math.isnan(band_gap({}, {offset: dirty[offset]}))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_commutator_gap_propagates_nan_in_either_order(offset):
    dim = 5
    inside = np.ones(dim, dtype=bool)
    a = {0: np.arange(dim, dtype=float)}
    b = {-1: np.ones(dim - 1), 1: np.ones(dim - 1)}
    exact = {d: -d * v for d, v in b.items()}  # [diag(n), B] on these bands
    assert commutator_gap(a, b, exact, dim, inside) == 0.0
    expected = dict(exact)
    expected[offset] = np.where(np.arange(dim - abs(offset)) == 2, np.nan,
                                expected.get(offset, np.zeros(dim - abs(offset))))
    assert math.isnan(commutator_gap(a, b, expected, dim, inside))
    assert math.isnan(commutator_gap(b, a, {d: -v for d, v in expected.items()}, dim, inside))


# ---------------------------------------------------------------------------
# phaseops


def test_build_routes_refuse_nan_in_the_f_route(monkeypatch):
    coupling = phaseops._coupling
    monkeypatch.setattr(phaseops, "_coupling",
                        lambda k, n: np.where(np.arange(n.size) == 3, np.nan, coupling(k, n)))
    with pytest.raises(TruncationError, match="routes disagree"):
        build_phase_ops(RepLabel(k=1.0), 16)


def test_build_routes_refuse_nan_in_the_symmetrized_route(monkeypatch):
    # a NaN in the ladder's K- map, the one input of route (a)
    ladder = phaseops._ladder

    def nan_lowering(label, dim, caller):
        kp, km = ladder(label, dim, caller)
        return kp, {1: np.where(np.arange(dim - 1) == 3, np.nan, km[1])}
    monkeypatch.setattr(phaseops, "_ladder", nan_lowering)
    with pytest.raises(TruncationError, match="routes disagree"):
        build_phase_ops(RepLabel(k=1.0), 16)


def test_k1_bound_refuses_a_nan_root(monkeypatch):
    monkeypatch.setattr(phaseops, "ground_state_variance", lambda k: math.nan)
    with pytest.raises(TruncationError, match="k1_bound"):
        k1_bound()


def test_spectrum_refuses_a_nan_sin_band():
    # a NaN in the one band E reaches cos and sin alike
    pair = build_phase_ops(RepLabel(k=1.0), 16)
    skewed = PhaseOperatorPair(np.where(np.arange(15) == 5, np.nan, pair.lower), pair.k)
    with pytest.raises(DomainError, match="phase_spectrum requires a finite phase band"):
        phase_spectrum(skewed)
    with pytest.raises(DomainError, match="phase_extremes requires a finite phase band"):
        phase_extremes(skewed, 1)


def test_extremes_refuse_a_nan_count_band(monkeypatch):
    # a NaN half-size band counts nothing below either end of the window
    monkeypatch.setattr(phaseops, "_half_size_band",
                        lambda off: (np.full(8, np.nan), np.full(8, np.nan)))
    with pytest.raises(TruncationError, match="Sturm counts of the half-size band"):
        phase_extremes(build_phase_ops(RepLabel(k=1.0), 16), 1)


def test_diagonal_identities_report_a_nan_residual(monkeypatch):
    # NaN in the sum-of-squares closed form alone: max(finite, nan) read finite
    monkeypatch.setattr(phaseops, "_closed_sum_squares_diag", lambda x, q: np.full_like(x, np.nan))
    assert math.isnan(phaseops.diagonal_identities(RepLabel(k=1.0), 16).residual)


# ---------------------------------------------------------------------------
# fockreal


@pytest.mark.parametrize("name, build, what", [
    ("build_kplus", build_kplus, "dressed raising"),
    ("build_k3", build_k3, "dressed compact"),
])
def test_hp_generators_refuse_nan(monkeypatch, name, build, what):
    monkeypatch.setattr(fockreal, name, _nan_build(build))
    with pytest.raises(InconsistentDataError, match=what):
        hp_generators(0.5, 16)


def test_hp_phase_ops_refuse_a_nan_abstract_pair(monkeypatch):
    build = fockreal.build_phase_ops

    def nan_pair(label, dim):
        pair = build(label, dim)
        return dataclasses.replace(
            pair, lower=np.where(np.arange(dim - 1) == 1, np.nan, pair.lower))
    monkeypatch.setattr(fockreal, "build_phase_ops", nan_pair)
    with pytest.raises(InconsistentDataError, match="cos: band profile vs abstract pair"):
        hp_phase_ops(1.0, 16)


def test_alpha_expectations_refuse_a_nan_matrix_value(monkeypatch):
    monkeypatch.setattr(fockreal, "_expect", lambda bands, c: complex(math.nan))
    with pytest.raises(TruncationError, match="K1 mean: closed form and matrix value"):
        alpha_expectations(1.0, 0.5 + 0.5j)


@pytest.mark.parametrize("shift", [1e-9, math.nan])
def test_radial_sums_refuse_a_wrong_poisson_total(monkeypatch, shift):
    # ln(t_p / t_lo) of every windowed table off by shift, so every weight
    # is off by the factor e^shift: the means divide it away, the raw total
    # does not.  The first radius that fails is named
    series_blocks = fockreal._series_blocks

    def shifted(*args):
        for rows, n, terms, ln_peak in series_blocks(*args):
            yield rows, n, terms, ln_peak + shift

    monkeypatch.setattr(fockreal, "_series_blocks", shifted)
    with pytest.raises(TruncationError, match=r"Poisson weights: raw total and 1 .* r=1\.0$"):
        h2_curve(1.0, [0.0, 1.0, 2.0])
    with pytest.raises(TruncationError, match="Poisson weights: raw total and 1"):
        alpha_expectations(1.0, 0.5 + 0.5j)


def test_squared_boson_refuses_a_nan_sector(monkeypatch):
    monkeypatch.setattr(fockreal, "build_kplus", _nan_build(build_kplus, only_k=0.75))
    with pytest.raises(InconsistentDataError, match="odd sector raising"):
        squared_boson(16)


def test_two_mode_refuses_a_nan_sector(monkeypatch):
    # one build serves sectors -2 and 2; the first one checked is named
    monkeypatch.setattr(fockreal, "build_k3", _nan_build(build_k3, only_k=1.5))
    with pytest.raises(InconsistentDataError, match="sector -2 compact"):
        two_mode(8)


def test_two_mode_checks_both_slices_of_a_shared_build(monkeypatch):
    # NaN only in the block of sector +2, which starts at (2, 0)
    sector, d = fockreal._sector, 8

    def nan_at_plus_two(bands, start, stride, size):
        block = sector(bands, start, stride, size)
        return {o: v * np.nan for o, v in block.items()} if start == 2 * d else block
    monkeypatch.setattr(fockreal, "_sector", nan_at_plus_two)
    with pytest.raises(InconsistentDataError, match="sector 2 raising"):
        two_mode(d)


def test_two_mode_refuses_a_nan_corner(monkeypatch):
    _nan_at(fockreal, monkeypatch, "corner sector")
    with pytest.raises(InconsistentDataError, match="corner sector -7"):
        two_mode(8)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_two_mode_refuses_a_nan_commutator(monkeypatch, which):
    # one NaN among three gaps; the built-in max reads 0.0 unless it comes first
    calls = []

    def gap(*args):
        calls.append(args)
        return math.nan if len(calls) == which + 1 else 0.0
    monkeypatch.setattr(fockreal, "commutator_gap", gap)
    with pytest.raises(InconsistentDataError, match="commutators"):
        two_mode(6)


# ---------------------------------------------------------------------------
# bgstates


def _rebuilt_amplitudes(monkeypatch, change):
    # the amplitude table that an explicit dim rebuilds, past the one that
    # gave S, changed by ``change``; the sizes of both
    sizes = []
    table = bgstates._peak_table

    def changed(w, log_w, a, size, root=False):
        sizes.append(size)
        amp, ln_peak = table(w, log_w, a, size, root)
        return (amp, ln_peak) if len(sizes) == 1 else (change(amp), ln_peak)

    monkeypatch.setattr(bgstates, "_peak_table", changed)
    return sizes


def test_make_bg_state_refuses_a_nan_coefficient(monkeypatch):
    sizes = _rebuilt_amplitudes(monkeypatch, lambda amp: np.append(amp[:, :-1], np.nan)[None])
    with pytest.raises(TruncationError, match="coherent-state coefficients"):
        make_bg_state(1.0, 3.0, dim=40)
    assert len(sizes) == 2 and sizes[0] < sizes[1] == 40


def test_make_bg_state_refuses_a_tail_below_zero(monkeypatch):
    # every coefficient 1e-12 too large: K- c = z c holds, and the norm
    # 1 + 2e-12 leaves a tail of -2e-12
    sizes = _rebuilt_amplitudes(monkeypatch, lambda amp: amp * (1.0 + 1e-12))
    with pytest.raises(TruncationError, match=r"coherent-state tail 1 - sum \|c_n\|\^2 .* "
                                              r"\(tail -2\.0\d\de-12\)$"):
        make_bg_state(1.0, 3.0, dim=40)
    assert len(sizes) == 2


def test_overlap_refuses_a_nan_closed_form(monkeypatch):
    s1, s2 = make_bg_state(1.0, 1.0), make_bg_state(1.0, 2.0j)
    monkeypatch.setattr(bgstates, "_overlap_closed", lambda k, z1, z2: complex(math.nan))
    with pytest.raises(TruncationError, match="overlap routes disagree"):
        overlap(s1, s2)


def test_moment_integral_refuses_a_nan_error_estimate(monkeypatch):
    monkeypatch.setattr(bgstates, "_tanh_sinh",
                        lambda f, b, tol: (np.float64(1.0), np.float64(math.nan)))
    with pytest.raises(ConvergenceError, match="moment quadrature"):
        moment_integral(1.0, 2)


@pytest.mark.parametrize("moments, what", [(k3_moments, "K3 mean"),
                                           (k12_moments, "K1 second moment")])
def test_moments_refuse_a_nan_closed_form(monkeypatch, moments, what):
    state = make_bg_state(1.0, 2.0 * np.exp(0.4j))
    monkeypatch.setattr(bgstates, "b_ratio", lambda k, rho: math.nan)
    with pytest.raises(TruncationError, match=f"{what}: closed form and truncated sum"):
        moments(state)


def test_phase_expectations_refuse_a_nan_closed_form(monkeypatch):
    state = make_bg_state(1.0, 2.0 * np.exp(0.4j))
    monkeypatch.setattr(bgstates, "ratio_gI", lambda k, rho: math.nan)
    with pytest.raises(TruncationError, match="cos expectation"):
        phase_expectations(state)


def test_g_k_refuses_a_nan_quadrature_error(monkeypatch):
    monkeypatch.setattr(bgstates, "_g_quadrature", lambda k, rho: (1.0, math.nan))
    with pytest.raises(ConvergenceError, match="g_k quadrature"):
        g_k(1.0, 2.0)


def test_g_k_refuses_a_nan_series(monkeypatch):
    # the old relative scale max(|nan|, ...) was itself NaN, so nothing fired
    phase_terms = bgstates._phase_terms

    def with_nan(k, rho):
        terms, weights, ln_peak = phase_terms(k, rho)
        return np.full_like(terms, math.nan), weights, ln_peak

    monkeypatch.setattr(bgstates, "_phase_terms", with_nan)
    with pytest.raises(TruncationError, match="g_k series and quadrature routes disagree"):
        g_k(1.0, 2.0)


# ---------------------------------------------------------------------------
# specfun


@pytest.mark.parametrize("value, err", [(1.0, math.nan), (math.nan, 0.0), (math.inf, 0.0)])
def test_k_quadrature_refuses_nan_and_unrepresentable_values(monkeypatch, value, err):
    monkeypatch.setattr(specfun, "_trapezoid",
                        lambda f, span, tol: (np.array([value]), np.array([err])))
    with pytest.raises(ConvergenceError, match="K quadrature"):
        specfun.bessel_k_scaled(1.0, 1.0)


def test_k_quadrature_names_the_first_failing_argument(monkeypatch):
    monkeypatch.setattr(specfun, "_trapezoid",
                        lambda f, span, tol: (np.ones(3), np.array([0.0, math.nan, 1.0])))
    with pytest.raises(ConvergenceError, match=r"disagree by nan .* x=2\.0$"):
        specfun._k_quad(1.0, np.array([1.0, 2.0, 3.0]), scaled=True)


# ---------------------------------------------------------------------------
# nfm


@pytest.mark.parametrize("fragment", ["component variances", "<K3^2>", "integer level"])
def test_level_estimate_refuses_nan_deviations(monkeypatch, fragment):
    # the level n = 1 at k = 1/2: variances 5/4, <K3> = 3/2
    args = (1.25, 1.25, 1.5, 2.25)
    assert nfm.estimate_k_from_number_state(*args).n_estimate == 1
    _nan_at(nfm, monkeypatch, fragment)
    with pytest.raises(InconsistentDataError, match="disagree by nan"):
        nfm.estimate_k_from_number_state(*args)


# ---------------------------------------------------------------------------
# infinite and overflowing k


@pytest.mark.parametrize("make", [
    lambda: RepLabel(k=math.inf),
    lambda: TruncatedOperator(2, math.inf, {0: [1.0, 2.0]}),
    lambda: BGState(k=math.inf, z=0j, dim=1, coeffs=np.ones(1, dtype=complex), tail_tol=1e-14),
    lambda: make_bg_state(math.inf, 1.0),
    lambda: hp_generators(math.inf, 4),
    lambda: hp_phase_ops(math.inf, 4),
    lambda: build_phase_ops(RepLabel(k=math.inf), 4),
    lambda: alpha_expectations(math.inf, 0.5),
    lambda: h2_curve(math.inf, [0.0, 1.0]),
    lambda: h2_curve(1e308, [0.0, 1.0]),
    lambda: ground_state_variance(math.inf),
    lambda: ground_state_variance(1e103),
    lambda: ground_state_variance(1e300),
])
def test_infinite_or_overflowing_k_is_refused_quietly(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite|k <= 1e102"):
            make()


def test_largest_accepted_k_stays_finite():
    assert ground_state_variance(1e102) == pytest.approx(5e-103, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h2 = h2_curve(8e307, [0.0, 1.0, 20.0])
    assert np.all(np.isfinite(h2)) and h2[0] == 0.0


def test_nan_omega_is_refused():
    with pytest.raises(DomainError, match="unit modulus"):
        RepLabel(k=1.0, omega=complex(math.nan, 0.0))


def test_finite_k_messages_are_unchanged():
    with pytest.raises(DomainError, match=r"^Bargmann index must be positive, got k=0\.0$"):
        RepLabel(k=0.0)
    with pytest.raises(DomainError, match=r"^h2_curve requires k > 0, got -1\.0$"):
        h2_curve(-1.0, [1.0])
    with pytest.raises(DomainError, match=r"^ground_state_variance requires k > 0, got 0\.0$"):
        ground_state_variance(0.0)
