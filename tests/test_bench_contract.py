"""The benchmark's checks pass on small package outputs.

``bench/checks.py`` reads record fields and names of the package (the dense
``cos_op``/``sin_op`` views, ``TwoModeOps.sector_table``, the
``FockOperator`` alias); this test imports it unedited, so a change that
breaks what it reads fails here and not only in a benchmark run.
"""

import cmath
import importlib.util
from pathlib import Path

import mpmath
import pytest

from phasequant import fockreal, phaseops, repalg

_CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    # the module sets mpmath's precision on import; the rest of the suite
    # keeps its own
    dps = mpmath.mp.dps
    try:
        spec = importlib.util.spec_from_file_location("bench_checks", _CHECKS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        mpmath.mp.dps = dps
    return module


@pytest.mark.parametrize("k", [0.25, 1.0])
def test_spectrum_check(checks, k):
    eigs = phaseops.phase_spectrum(phaseops.build_phase_ops(repalg.RepLabel(k=k), 64))
    assert checks.spectrum(k, 64, eigs, phaseops.spectrum_verdict(eigs)) == []


def test_diagonal_identities_check(checks):
    result = phaseops.diagonal_identities(repalg.RepLabel(k=1.3), 32)
    assert checks.diagonal_identities(1.3, 32, result) == []


def test_hp_phase_ops_check(checks):
    assert checks.hp_phase_ops(0.8, 32, fockreal.hp_phase_ops(0.8, 32)) == []


def test_two_mode_check(checks):
    assert checks.two_mode(6, fockreal.two_mode(6)) == []


def test_repr_k1_check(checks):
    omega = cmath.exp(0.7j)
    op = repalg.build_k1(repalg.RepLabel(k=0.9, omega=omega), 8)
    assert checks.repr_k1(0.9, omega, 8, (repalg.csv_lines(op), repalg.json_envelope(op))) == []


def test_the_benchmark_names_resolve():
    # bench/tracer.py imports the former realization operator type by name
    assert fockreal.FockOperator is repalg.TruncatedOperator
