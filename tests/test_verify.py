"""The verify battery's operator checks work on the stored diagonals.

The dense formulas the checks used before are kept here as references: the
detail strings must come out byte-identical.  A NaN forced into any check's
numbers must make that check fail.
"""

import cmath
import copy
import dataclasses
import math
from collections.abc import Mapping

import numpy as np
import pytest

from phasequant import bgstates, fockreal, nfm, phaseops, repalg, specfun, verify


def _details(modules):
    return {r.name: r.detail for r in verify.run_all(modules)}


def test_band_checks_build_only_the_eigvalsh_views(monkeypatch):
    # omega_covariance's two 48 x 48 eigvalsh inputs are the only dense views
    built = []
    densify = repalg.TruncatedOperator.entries.func

    def entries(op):
        built.append(op.name)
        return densify(op)

    monkeypatch.setattr(repalg.TruncatedOperator, "entries", property(entries))
    results = verify.run_all(["repalg", "nfm"])
    assert all(r.passed for r in results)
    assert built == ["K1", "K1"]


def test_a_module_named_twice_runs_once():
    # the specfun battery ran once per mention, and its line read 8/8
    twice = verify.run_all(["specfun", "specfun"])
    assert len(twice) == 4
    assert [r.name for r in twice] == [r.name for r in verify.run_all(["specfun"])]
    modules = [r.module for r in verify.run_all(["nfm", "specfun", "nfm"])]
    assert list(dict.fromkeys(modules)) == ["nfm", "specfun"]  # first-occurrence order
    assert modules.count("specfun") == 4


def test_double_storage_fails_one_check_more(monkeypatch):
    # with repalg's two names at the double types, as where np.longdouble is
    # a plain double (MSVC, macOS arm64), the dressed ladder's interior
    # commutators reach 1.8e-12 against 1e-12; every other verdict holds
    monkeypatch.setattr(repalg, "_REAL", np.float64)
    monkeypatch.setattr(repalg, "_COMPLEX", np.complex128)
    failed = [r.name for r in verify.run_all() if not r.passed]
    assert failed == ["containment claim k=0.5 (documented, fails honestly)",
                      "five realizations close the algebra"]


def test_band_check_details_match_dense_formulas():
    details = _details(["repalg", "nfm"])

    label = repalg.RepLabel(k=1.3, omega=cmath.exp(0.3j))
    kp = repalg.build_kplus(label, 32).entries
    km = repalg.build_kminus(label, 32).entries
    gap = float(np.max(np.abs(km - kp.conjugate().T)))
    assert details["ladder adjointness"] == f"max |K- - (K+)^dag| = {gap:.3e}"

    def dense_sum_squares(k, dim):
        k1 = repalg.build_k1(repalg.RepLabel(k=k), dim).entries
        k2 = repalg.build_k2(repalg.RepLabel(k=k), dim).entries
        return np.diag(k1 @ k1 + k2 @ k2).real

    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        diag = dense_sum_squares(k, 64)
        for n in (0, 10, 40):
            closed = repalg.fluctuation_closed_forms(k, n).sum_squares
            worst = max(worst, abs(float(diag[n]) - closed))
    assert details["second moments vs closed forms"] == f"max |matrix - closed| = {worst:.3e}"

    a = repalg.build_k1(repalg.RepLabel(k=0.75), 48).entries
    b = repalg.build_k1(repalg.RepLabel(k=0.75, omega=1j), 48).entries
    da = np.sort(np.linalg.eigvalsh(a.astype(np.complex128)))
    db = np.sort(np.linalg.eigvalsh(b.astype(np.complex128)))
    gap = float(np.max(np.abs(da - db)))
    diag_gap = float(np.max(np.abs(np.diag(a @ a) - np.diag(b @ b))))
    assert details["omega covariance"] == (
        f"spectrum gap {gap:.3e}, diagonal gap {diag_gap:.3e}")

    obs = nfm.classical_observables(
        nfm.classical_readings(nfm.ClassicalConfig(4.0, 1.0, 1.1)))
    circle = abs(obs.P1 ** 2 + obs.P2 ** 2 - obs.P3 ** 2)
    sq = float(dense_sum_squares(0.8, 48)[3])
    casimir = abs(nfm.casimir_gap(0.8, sq, (0.8 + 3) ** 2))
    assert details["circle identity and Casimir gap"] == (
        f"circle residual {circle:.2e}, Casimir gap {casimir:.2e}")


def _poison(value):
    # the same value with every float in it NaN; integers, labels and flags kept
    if isinstance(value, (float, complex, np.floating, np.complexfloating, np.ndarray)):
        return value * math.nan
    if isinstance(value, Mapping):
        return {key: _poison(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_poison(item) for item in value)
    if dataclasses.is_dataclass(value):
        clone = copy.copy(value)
        for field in dataclasses.fields(value):
            object.__setattr__(clone, field.name, _poison(getattr(value, field.name)))
        return clone
    return value


# (module run, patched module, function, first poisoned call, checks that use it)
# From the second call on, the first value is a real one: the built-in max
# keeps it and drops every later NaN.
NAN_SITES = [
    ("specfun", specfun, "bessel_i", 2, ["three-term recurrence"]),
    ("specfun", specfun, "bessel_k", 2, ["I/K Wronskian", "half-integer closed forms"]),
    ("specfun", specfun, "bessel_i_asymptotic", 2, ["asymptotic remainder order"]),
    ("repalg", repalg, "build_k2", 1, ["generator hermiticity"]),
    ("repalg", repalg, "band_gap", 1, ["ladder adjointness"]),
    ("repalg", repalg, "fluctuation_closed_forms", 2,
     ["second moments vs closed forms", "correspondence-limit ratio"]),
    ("repalg", repalg, "banded_matmul", 2, ["omega covariance"]),
    ("phaseops", repalg, "commutator_residual", 2, ["number-phase commutators"]),
    ("phaseops", repalg, "commutator_gap", 2, ["[cos,sin] and cos^2+sin^2 central"]),
    ("phaseops", phaseops, "f_coeff", 2, ["ground-state uncertainty equality"]),
    ("phaseops", phaseops, "cos_squared_diag_asymptote", 2, ["large-n diagonal asymptote"]),
    ("phaseops", phaseops, "phase_extremes", 1,
     ["containment claim k=0.5 (documented, fails honestly)", "containment k=1",
      "excess at k=0.25"]),
    ("bgstates", bgstates, "eigenvector_residual", 2, ["lowering eigenvector residual bound"]),
    ("bgstates", bgstates, "ratio_gI", 2, ["dual-route moment agreement"]),
    ("bgstates", bgstates, "make_bg_state", 1, ["normalization by direct sum"]),
    ("bgstates", bgstates, "overlap", 2, ["overlap Cauchy-Schwarz"]),
    ("bgstates", bgstates, "_series_means", 1, ["ratio rows bounded/monotone"]),
    ("fockreal", repalg, "commutator_gap", 2, ["five realizations close the algebra"]),
    ("fockreal", repalg, "band_gap", 2, ["dressed ladder equals abstract irrep"]),
    ("fockreal", fockreal, "hp_phase_ops", 1, ["band decay toward the historical pair"]),
    ("fockreal", fockreal, "h2_curve", 2, ["h2 bound for k >= 0.5"]),
    ("nfm", nfm, "classical_observables", 2, ["classical round trip"]),
    ("nfm", nfm, "casimir_gap", 1, ["circle identity and Casimir gap"]),
    ("nfm", nfm, "poisson_bracket_check", 2, ["bracket residual is O(h^2)"]),
    ("nfm", nfm, "classical_readings", 2, ["gauge-shift invariance"]),
]


@pytest.mark.parametrize("run, module, name, first, checks", NAN_SITES,
                         ids=[f"{site[2]}-{site[0]}" for site in NAN_SITES])
def test_a_nan_fails_the_check(monkeypatch, run, module, name, first, checks):
    real = getattr(module, name)
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        value = real(*args, **kwargs)
        return _poison(value) if len(calls) >= first else value

    monkeypatch.setattr(module, name, poisoned)
    passed = {r.name: r.passed for r in verify.run_all([run])}
    assert len(calls) >= first
    assert not any(passed[check] for check in checks), passed


def test_every_numeric_check_is_poisoned_above():
    # the sector table is counts only; every other check computes a number
    covered = {check for site in NAN_SITES for check in site[4]}
    names = {r.name for r in verify.run_all()}
    assert names - covered == {"two-mode sector exhaustiveness"}
