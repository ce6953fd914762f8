"""The single domain rule, ``errors.check_domain``, and the entry points on it.

Every k, rho, phi, dim and config integer the package takes is checked by one
rule with five domains.  The command line's flag types are built on the same
rule, so a flag and the library cannot disagree about what they accept.
"""

import argparse
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from phasequant import bgstates, cli, fockreal, nfm, phaseops, repalg, specfun
from phasequant.errors import DomainError, check_domain

DOMAINS = ("positive real", "nonnegative real", "finite real",
           "positive integer", "nonnegative integer")


@pytest.mark.parametrize("domain, accepted, refused", [
    ("positive real", [5e-324, 1.0, 1e308, 3],
     [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, "x", None, 1j]),
    ("nonnegative real", [0.0, -0.0, 5e-324, 1e308],
     [-5e-324, -1.0, math.nan, math.inf, "x"]),
    ("finite real", [-1e308, -0.0, 0.0, 1e308],
     [math.nan, math.inf, -math.inf, "x"]),
    ("positive integer", [1, 7, np.int64(3), 4.0, 2 ** 80],
     [0, -1, 2.5, True, math.nan, math.inf, "7", None]),
    ("nonnegative integer", [0, 1, np.int32(0), 0.0],
     [-1, 0.5, False, math.inf, "0"]),
])
def test_each_domain_accepts_and_refuses(domain, accepted, refused):
    for value in accepted:
        assert check_domain("x", value, domain) == value
    for value in refused:
        with pytest.raises(DomainError):
            check_domain("x", value, domain)


def test_the_value_comes_back_read():
    assert type(check_domain("k", 3)) is float
    assert type(check_domain("n", 4.0, "nonnegative integer")) is int
    assert math.copysign(1.0, check_domain("rho", -0.0, "nonnegative real")) == -1.0


def test_one_message_form():
    with pytest.raises(DomainError, match=r"^k must be finite and > 0, got inf$"):
        check_domain("k", math.inf)
    with pytest.raises(DomainError, match=r"^rho must be finite and >= 0, got -1\.0$"):
        check_domain("rho", -1.0, "nonnegative real")
    with pytest.raises(DomainError, match=r"^phi must be finite, got nan$"):
        check_domain("phi", math.nan, "finite real")
    with pytest.raises(DomainError, match=r"^dim must be an integer > 0, got 2\.5$"):
        check_domain("dim", 2.5, "positive integer")
    with pytest.raises(DomainError, match=r"^n must be an integer >= 0, got -1$"):
        check_domain("n", -1, "nonnegative integer")


def test_a_site_message_covers_finite_values_only():
    site = "f requires k > 0, got {value}"
    with pytest.raises(DomainError, match=r"^f requires k > 0, got -2\.0$"):
        check_domain("k", -2.0, message=site)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=r"^k must be finite and > 0"):
            check_domain("k", value, message=site)


ENTRY_POINTS = {
    "RepLabel": lambda k: repalg.RepLabel(k=k),
    "TruncatedOperator": lambda k: repalg.TruncatedOperator(1, k, {0: [1.0]}),
    "fluctuation_closed_forms": lambda k: repalg.fluctuation_closed_forms(k, 1),
    "ladder_log_norm": lambda k: repalg.ladder_log_norm(k, 1),
    "ladder_norm": lambda k: repalg.ladder_norm(k, 1),
    "f_coeff": lambda k: phaseops.f_coeff(k, 1),
    "ground_state_variance": phaseops.ground_state_variance,
    "commutator_diag_asymptote": lambda k: phaseops.commutator_diag_asymptote(k, 50),
    "cos_squared_diag_asymptote": lambda k: phaseops.cos_squared_diag_asymptote(k, 50),
    "improper_eigvec": lambda k: phaseops.improper_eigvec(k, 0.5, 1.0, 4),
    "BGState": lambda k: bgstates.BGState(k=k, z=0j, dim=1, coeffs=np.ones(1, dtype=complex),
                                          tail_tol=1e-14),
    "make_bg_state": lambda k: bgstates.make_bg_state(k, 1.0),
    "moment_integral": lambda k: bgstates.moment_integral(k, 0),
    "completeness_check": lambda k: bgstates.completeness_check(k, 0),
    "b_ratio": lambda k: bgstates.b_ratio(k, 1.0),
    "g_k": lambda k: bgstates.g_k(k, 1.0),
    "ratio_gI": lambda k: bgstates.ratio_gI(k, 1.0),
    "kbound_scan": lambda k: bgstates.kbound_scan([1.0, k], [1.0]),
    "hp_generators": lambda k: fockreal.hp_generators(k, 4),
    "hp_phase_ops": lambda k: fockreal.hp_phase_ops(k, 4),
    "alpha_expectations": lambda k: fockreal.alpha_expectations(k, 0.5),
    "h2_curve": lambda k: fockreal.h2_curve(k, [0.0, 1.0]),
    "casimir_gap": lambda k: nfm.casimir_gap(k, 1.0, 1.0),
    "NumberStateSpec": lambda k: nfm.NumberStateSpec(k=k, n=0),
    "BGStateSpec": lambda k: nfm.BGStateSpec(k=k, z=1.0),
    "parse_state_spec": lambda k: nfm.parse_state_spec({"kind": "bg", "k": k, "rho": 1.0}),
}


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_k_quietly(entry, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ENTRY_POINTS[entry](k)


# the entry points that divide by k: below 1/DBL_MAX, 1/k overflows
DIVIDING_BY_K = ("f_coeff", "ground_state_variance", "improper_eigvec", "b_ratio", "g_k",
                 "ratio_gI", "kbound_scan", "alpha_expectations", "h2_curve")


@pytest.mark.parametrize("k", [5e-324, 1e-309, math.nextafter(sys.float_info.min, 0.0)])
@pytest.mark.parametrize("entry", DIVIDING_BY_K)
def test_every_entry_point_dividing_by_k_refuses_a_subnormal_k(entry, k):
    # these once returned inf or NaN, or raised a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"requires k >= 2\.2250738585072014e-308 .*"
                                              + re.escape(f"got k={k!r}")):
            ENTRY_POINTS[entry](k)


def _all_finite(value) -> bool:
    # every number in a result: a scalar, an array or a record of them
    if hasattr(value, "__dataclass_fields__"):
        return all(_all_finite(getattr(value, name)) for name in value.__dataclass_fields__)
    if isinstance(value, tuple) and all(isinstance(item, str) for item in value):
        return True
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


@pytest.mark.parametrize("entry", DIVIDING_BY_K)
def test_the_smallest_normal_k_gives_finite_values(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _all_finite(ENTRY_POINTS[entry](sys.float_info.min))


@pytest.mark.parametrize("route", [phaseops.phase_spectrum,
                                   lambda pair: phaseops.phase_extremes(pair, 2)])
def test_spectrum_routes_refuse_a_band_whose_squares_overflow(route):
    # at k = 5e-324 the cos band starts at 1.6e161, so its squares overflow:
    # the Sturm check once failed on them and blamed the route
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"every cos entry <= 6\.70390396497129\de\+153"):
            route(phaseops.build_phase_ops(repalg.RepLabel(k=5e-324), 4))
        top = float(np.max(route(phaseops.build_phase_ops(repalg.RepLabel(k=1e-308), 4))))
    # the top eigenvalue is about the first entry, f_1/4 = sqrt(2/k)/4
    assert top == pytest.approx(math.sqrt(2.0) / math.sqrt(1e-308) / 4.0, rel=1e-12)


_LGAMMA_LIMIT = 2.5599833278516387e+305


@pytest.mark.parametrize("call, inside, outside, message", [
    # g_k reads ln Gamma(2k); its quadrature's exponents reach -inf near
    # t = 0 just inside the limit, which once raised an overflow warning
    (lambda k: bgstates.g_k(k, 1.0), 1.2e305, _LGAMMA_LIMIT / 2,
     r"g_k requires 2k < 2\.5599833278516387e\+305, .* got k=1\.2799916639258194e\+305"),
    (lambda nu: specfun.bessel_i(nu, 2.0), math.nextafter(_LGAMMA_LIMIT, 0.0), _LGAMMA_LIMIT,
     r"bessel_i requires nu \+ 1 < 2\.5599833278516387e\+305, .* got nu=2\.55998"),
    (lambda nu: specfun.bessel_i_scaled(nu, 2.0), 2.5e305, 3e305,
     r"bessel_i_scaled requires nu \+ 1 < 2\.5599833278516387e\+305, .* got nu=3e\+305"),
])
def test_ln_gamma_limits_are_named_by_their_callers(call, inside, outside, message):
    assert specfun._LGAMMA_LIMIT == _LGAMMA_LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = call(inside)
        # e^{-ln Gamma} underflows: a zero, and not a negative one
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        with pytest.raises(DomainError, match=message):
            call(outside)


@pytest.mark.parametrize("make", [
    lambda: bgstates.make_bg_state(1.0, complex(math.inf, 0.0)),
    lambda: bgstates.make_bg_state(1.0, complex(0.0, math.nan)),
    lambda: bgstates.b_ratio(1.0, math.inf),
    lambda: bgstates.g_k(1.0, math.nan),
    lambda: bgstates.ratio_gI(1.0, -1.0),
    lambda: bgstates.kbound_scan([1.0], [1.0, math.inf]),
    lambda: fockreal.alpha_expectations(1.0, math.inf),
    lambda: nfm.parse_state_spec({"kind": "bg", "k": 1.0, "rho": 1.0, "phi": math.inf}),
    lambda: nfm.parse_run_config({"state": {"kind": "number", "k": 1.0, "n": 0},
                                  "seed": -1}),
    lambda: nfm.run_trials(nfm.BGStateSpec(k=1.0, z=1.0), trials=2.5),
    lambda: repalg.TruncatedOperator(2.5, 1.0, {}),
    lambda: repalg.build_kplus(repalg.RepLabel(k=1.0), math.inf),
    lambda: phaseops.build_phase_ops(repalg.RepLabel(k=1.0), math.inf),
    lambda: phaseops.improper_eigvec(1.0, 0.5, 1.0, math.inf),
    lambda: fockreal.hp_generators(1.0, math.inf),
    lambda: fockreal.dirac_sg_ops(4.5),
    lambda: fockreal.squared_boson(math.inf),
    lambda: fockreal.two_mode(2.5),
    lambda: fockreal.alpha_expectations(1.0, complex(0.0, math.nan)),
    lambda: bgstates.make_bg_state(1.0, 1.0, dim=math.inf),
    lambda: bgstates.moment_integral(1.0, 2.5),
    lambda: nfm.InterferenceReading("x", 1.0, 1.0, 1.0, 1.0, 1.0),
    lambda: bgstates.BGState(k=1.0, z=0j, dim=math.inf, coeffs=np.ones(1, dtype=complex),
                             tail_tol=1e-14),
    lambda: phaseops.improper_eigvec(1.0, math.nan, 1.0, 4),
    lambda: phaseops.improper_eigvec(1.0, 0.5, math.inf, 4),
    lambda: phaseops.phase_extremes(phaseops.build_phase_ops(repalg.RepLabel(k=1.0), 8), 1.5),
    lambda: specfun.bessel_i(1.0, math.inf),
    lambda: specfun.bessel_i_scaled(1.0, math.inf),
    *(lambda f=f, nu=nu, x=x: f(nu, x)
      for f in (specfun.bessel_k, specfun.bessel_k_scaled)
      for nu, x in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf))),
    *(lambda rho=rho: bgstates.ratio_gI_asymptote(rho) for rho in (0.0, math.nan, -1.0)),
    *(lambda f=f, k=k, n=n: f(k, n)
      for f, k in ((phaseops.commutator_diag_asymptote, 1.0),
                   (phaseops.cos_squared_diag_asymptote, 0.5))
      for n in (-1, 2.5)),
    *(lambda margin=margin: phaseops.diagonal_identities(repalg.RepLabel(k=1.0), 8, margin)
      for margin in (2.5, True)),
    lambda: repalg.commutator_residual(
        *(build(repalg.RepLabel(k=1.0), 8) for build in (repalg.build_k1, repalg.build_k2,
                                                         repalg.build_k3)), margin=2.5),
])
def test_rho_phi_and_dims_are_refused_quietly(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            make()


def test_a_coherent_state_whose_c0_underflows_is_built(capsys, tmp_path):
    # c_0 ~ e^{-rho} at k = 1/2 leaves double range at rho = 746.7; it once
    # failed the internal "coeffs[0] must be real positive", then was refused
    # as "c_0 underflows ... ln|c_0| = -747.712".  The state takes c_0 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (750.0, 1e3, 1e5):
            state = bgstates.make_bg_state(0.5, rho)
            assert state.coeffs[0] == 0.0 and state.coeffs[0].imag == 0.0
            assert abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0) <= 1e-13
    assert bgstates.make_bg_state(0.5, 720.0).coeffs[0].real > 0.0
    target = tmp_path / "c.csv"
    assert cli.main(["coherent", "--k", "0.5", "--rho", "750", "--out", str(target)]) == 0
    assert capsys.readouterr().err == "" and "\ndim,1061\n" in target.read_text()


def test_a_state_past_its_series_cut_names_the_bound():
    # The tail cut, where the terms halve from rho^2 <= n (2k + n - 1) / 2 on,
    # must lie within the 200000 terms: rho just inside the bound of k builds
    # the last index, just outside raises.  From rho ~ 1e5 on the cut once
    # failed with "series in w = e^27.631, a = 2.0 not cut within 200000
    # terms", naming neither rho nor a limit; then as "c_0 underflows ...
    # ln|c_0| < -17328.7", and past 1.34e154 as "w is no finite double"
    for k, bound in ((0.5, 141420.6491305283), (1.0, 141421.00268347695)):
        assert bgstates.make_bg_state(k, bound * (1.0 - 1e-12)).dim == 199999
        for rho in (bound * (1.0 + 1e-12), 2e5, 1e155, 1e307):
            message = (f"make_bg_state: the state's series is not cut within 200000 terms at "
                       f"k={k!r}, rho={rho!r}: at this k it is cut up to rho = {bound!r}")
            with pytest.raises(DomainError, match=re.escape(message)):
                bgstates.make_bg_state(k, rho)
    child = subprocess.run([sys.executable, "-m", "phasequant.cli", "coherent",
                            "--k", "1", "--rho", "1e6"], capture_output=True, text=True)
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == ("error: make_bg_state: the state's series is not cut within 200000 "
                            "terms at k=1.0, rho=1000000.0: at this k it is cut up to "
                            "rho = 141421.00268347695\n")


def test_a_rho_or_r_whose_square_or_double_overflows_is_refused(capsys):
    # 2 rho (the Bessel argument) and r^2 (the Poisson mean) must be finite;
    # past them the calls once failed with an unrelated message ("x must be
    # finite", "I_{2k-1} underflows" or "not cut within 200000 terms")
    top = sys.float_info.max / 2.0
    for call in (lambda rho: bgstates.b_ratio(1.0, rho),
                 lambda rho: bgstates.ratio_gI(1.0, rho),
                 lambda rho: bgstates.make_bg_state(1.0, rho),
                 lambda rho: bgstates.kbound_scan([1.0], [rho])):
        for rho in (1e308, math.nextafter(top, math.inf)):
            with pytest.raises(DomainError, match=r"rho <= 8\.988465674311579e\+307, so that "
                                                  r"2 rho is finite, got rho="):
                call(rho)
    assert 2.0 * top < math.inf and bgstates.b_ratio(1.0, 1e300) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda r: fockreal.alpha_expectations(1.0, r),
                     lambda r: fockreal.h2_curve(1.0, [0.0, r])):
            for r in (1e200, 1.4e154):
                with pytest.raises(DomainError, match=re.escape(_window_refusal(1.0, r))):
                    call(r)
    assert cli.main(["coherent", "--k", "1", "--rho", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: make_bg_state requires rho <= ") and err.count("\n") == 1


def _window_refusal(k, r):
    return (f"the Poisson series' window is not cut within 200000 terms at k={k!r}, r={r!r}: "
            "r <= 5332.8 is cut at every k, a larger r only at a larger k")


@pytest.mark.parametrize("k, bound", [(phaseops._K_MIN, 5332.868669756628),
                                      (1.0, 10427.577722055998)])
def test_the_oscillator_radius_limit_is_where_the_window_is_cut(k, bound):
    # the Poisson window of h1, h2 and the coherent vector must be cut within
    # 200000 terms: r just inside the bound of k is summed, just outside
    # raises.  It was r <= 442.668 at every k while alpha_expectations
    # tabulated its vector from n = 0
    inside, outside = bound * (1.0 - 1e-12), bound * (1.0 + 1e-12)
    assert 0.0 < fockreal.h2_curve(k, [inside])[0] <= 1.0
    assert fockreal.alpha_expectations(k, inside).mean_k3 == inside * inside + k
    for call in (lambda r: fockreal.alpha_expectations(k, r),
                 lambda r: fockreal.h2_curve(k, [0.0, 1.0, r])):
        with pytest.raises(DomainError, match=f"^{re.escape(_window_refusal(k, outside))}$"):
            call(outside)
    assert fockreal._R_CUT < bound


def test_the_oscillator_command_takes_radii_whose_square_underflows(capsys, tmp_path):
    # it exited 1 with "Poisson weights: raw total and 1 disagree by nan
    # (tolerance nan) at r=5e-324"
    target = tmp_path / "h2.csv"
    assert cli.main(["oscillator", "--k", "1", "--r-max", "5e-324", "--points", "2",
                     "--out", str(target)]) == 0
    assert capsys.readouterr().err == ""
    assert target.read_text().splitlines()[-2:] == ["0.0,0.0", "5e-324,0.0"]


def test_the_oscillator_command_names_the_radius_limit(tmp_path):
    child = subprocess.run([sys.executable, "-m", "phasequant.cli", "oscillator", "--k", "1",
                            "--r-max", "10428", "--points", "3", "--out", "h2.csv"],
                           capture_output=True, text=True, cwd=tmp_path)
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == f"error: {_window_refusal(1.0, 10428.0)}\n"
    assert list(tmp_path.iterdir()) == []


FLAG_TYPES = {
    "positive real": cli._positive_float,
    "nonnegative real": cli._nonneg_float,
    "finite real": cli._finite_float,
    "positive integer": cli._positive_int,
    "nonnegative integer": cli._nonneg_int,
}
GRID = ("5e-324", "1e308", "-0.0", "nan", "inf", "2.5", "x", "0", "7")
# what each flag accepts of GRID, stated once so the rule cannot drift unseen
EXPECTED = {
    "positive real": {"5e-324", "1e308", "2.5", "7"},
    "nonnegative real": {"5e-324", "1e308", "-0.0", "2.5", "0", "7"},
    "finite real": {"5e-324", "1e308", "-0.0", "2.5", "0", "7"},
    "positive integer": {"7"},
    "nonnegative integer": {"0", "7"},
}


def _library_accepts(text: str, domain: str) -> bool:
    # the library reads numbers; a flag's text is read as the number type first
    read = int if domain.endswith("integer") else float
    try:
        check_domain("x", read(text), domain)
    except (ValueError, DomainError):
        return False
    return True


def _flag_accepts(text: str, domain: str) -> bool:
    try:
        FLAG_TYPES[domain](text)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return True


@pytest.mark.parametrize("domain", DOMAINS)
def test_flag_types_accept_exactly_what_the_rule_accepts(domain):
    accepted = {text for text in GRID if _flag_accepts(text, domain)}
    assert accepted == {text for text in GRID if _library_accepts(text, domain)}
    assert accepted == EXPECTED[domain]
    assert FLAG_TYPES[domain].__name__ == domain
