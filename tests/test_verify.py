"""The verify battery's operator checks work on the stored diagonals.

The dense formulas the checks used before are kept here as references: the
detail strings must come out byte-identical.
"""

import cmath

import numpy as np

from phasequant import nfm, repalg, verify


def _details(modules):
    return {r.name: r.detail for r in verify.run_all(modules)}


def test_band_checks_build_only_the_eigvalsh_views(monkeypatch):
    # omega_covariance's two 48 x 48 eigvalsh inputs are the only dense views
    built = []

    def entries(op):
        built.append(op.name)
        return repalg._densify(op.diagonals, op.dim, np.clongdouble)

    monkeypatch.setattr(repalg.TruncatedOperator, "entries", property(entries))
    results = verify.run_all(["repalg", "nfm"])
    assert all(r.passed for r in results)
    assert built == ["K1", "K1"]


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
