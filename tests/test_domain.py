"""The single domain rule, ``errors.check_domain``, and the entry points on it.

Every k, rho, phi, dim and config integer the package takes is checked by one
rule with five domains.  The command line's flag types are built on the same
rule, so a flag and the library cannot disagree about what they accept.
"""

import argparse
import math
import warnings

import numpy as np
import pytest

from phasequant import bgstates, cli, fockreal, nfm, phaseops, repalg
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
    "NumberState": lambda k: repalg.NumberState(k=k, n=0),
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
    lambda: fockreal.alpha_expectations(1.0, 0.5, dim=math.inf),
    lambda: bgstates.make_bg_state(1.0, 1.0, dim=math.inf),
    lambda: bgstates.moment_integral(1.0, 2.5),
    lambda: nfm.InterferenceReading("x", 1.0, 1.0, 1.0, 1.0, 1.0),
    lambda: bgstates.BGState(k=1.0, z=0j, dim=math.inf, coeffs=np.ones(1, dtype=complex),
                             tail_tol=1e-14),
    lambda: phaseops.improper_eigvec(1.0, math.nan, 1.0, 4),
    lambda: phaseops.improper_eigvec(1.0, 0.5, math.inf, 4),
    lambda: phaseops.phase_extremes(phaseops.build_phase_ops(repalg.RepLabel(k=1.0), 8), 1.5),
])
def test_rho_phi_and_dims_are_refused_quietly(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            make()


def test_a_coherent_state_whose_c0_underflows_is_refused(capsys, tmp_path):
    # c_0 ~ e^{-rho} at k = 1/2 leaves double range between rho = 720 and 750;
    # it once failed the internal "coeffs[0] must be real positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (750.0, 1e3, 1e5):
            with pytest.raises(DomainError, match=r"k=0\.5, rho=.*ln\|c_0\| = -"):
                bgstates.make_bg_state(0.5, rho)
    assert bgstates.make_bg_state(0.5, 720.0).coeffs[0].real > 0.0
    target = tmp_path / "c.csv"
    assert cli.main(["coherent", "--k", "0.5", "--rho", "750", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ln|c_0| = -747.712" in err and not target.exists()


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
