"""Acceptance gate: eleven numbered criteria, one test per criterion.

Each test pins the stated tolerance and asserts its runtime budget, so the
`pytest -v` lines for this file are the criterion-by-criterion record.
Criterion 4 is split into its (a) and (b) halves so the passing scan half
stays visible next to the known red half: the spectral containment claim
for the lowest label 1/2 has a stable numerical counterexample
(max eigenvalue 1.00648... at every dimension), mirrored by the matching
unit test and the verify battery.  It is asserted here exactly as stated
so the failure stays in the record instead of being papered over.
"""

import math
import time

import numpy as np
import pytest

from phasequant import bgstates, fockreal, nfm, phaseops, repalg, specfun, verify
from phasequant.repalg import RepLabel

_shared_runtime = {}


def _interior(matrix, margin=4):
    return float(np.max(np.abs(np.asarray(matrix, dtype=np.complex128)[:-margin, :-margin])))


def test_criterion_01_ground_state_variance():
    start = time.perf_counter()
    analytic = {0.5: phaseops.ground_state_variance(0.5),
                1.0: phaseops.ground_state_variance(1.0)}
    matrix = {}
    for k in (0.5, 1.0):
        pair = phaseops.build_phase_ops(RepLabel(k=k), 16)
        cos = pair.cos_op.entries
        matrix[k] = float((cos @ cos)[0, 0].real)
    elapsed = time.perf_counter() - start

    assert abs(analytic[0.5] - 4.0 / 9.0) < 1e-12
    assert abs(analytic[1.0] - 9.0 / 32.0) < 1e-12
    for k in (0.5, 1.0):
        assert abs(matrix[k] - analytic[k]) < 1e-12
    assert elapsed < 1.0


def test_criterion_02_critical_label():
    start = time.perf_counter()
    k1 = phaseops.k1_bound()
    value = phaseops.ground_state_variance(k1)
    elapsed = time.perf_counter() - start

    assert 0.1620 <= k1 <= 0.1630
    assert abs(value - 1.0) < 1e-10
    assert elapsed < 1.0


def test_criterion_03_commutator_residuals():
    dim, margin = 256, 4
    start = time.perf_counter()
    worst = 0.0

    for k in (0.25, 0.5, 1.0, 2.0):
        label = RepLabel(k=k)
        abstract = (repalg.build_kplus(label, dim).entries,
                    repalg.build_kminus(label, dim).entries,
                    repalg.build_k3(label, dim).entries)
        hp = fockreal.hp_generators(k, dim)
        dressed = (hp.kp.entries, hp.km.entries, hp.k3.entries)
        for kp, km, k3 in (abstract, dressed):
            d3 = np.diag(k3)
            worst = max(worst, _interior(kp @ km - km @ kp + 2.0 * k3, margin))
            worst = max(worst, _interior(d3[:, None] * kp - kp * d3[None, :] - kp, margin))
            worst = max(worst, _interior(d3[:, None] * km - km * d3[None, :] + km, margin))

    sb = fockreal.squared_boson(dim)
    worst = max(worst, _interior(
        sb.kp.entries @ sb.km.entries - sb.km.entries @ sb.kp.entries
        + 2.0 * sb.k3.entries, margin))

    tm = fockreal.two_mode(16)
    d = tm.dim_per_mode
    n1 = np.repeat(np.arange(d), d)
    n2 = np.tile(np.arange(d), d)
    window = np.flatnonzero(np.maximum(n1, n2) <= d - 2)
    comm = tm.kp.entries @ tm.km.entries - tm.km.entries @ tm.kp.entries
    residual = np.asarray(comm + 2.0 * tm.k3.entries, dtype=np.complex128)
    worst = max(worst, float(np.max(np.abs(residual[np.ix_(window, window)]))))

    sg = fockreal.dirac_sg_ops(dim)
    cos, sin = sg.cos_sg.entries, sg.sin_sg.entries
    n = np.arange(dim, dtype=np.longdouble)
    worst = max(worst, _interior(n[:, None] * cos - cos * n[None, :] + 1j * sin, margin))
    worst = max(worst, _interior(n[:, None] * sin - sin * n[None, :] - 1j * cos, margin))

    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"max interior residual {worst:.3e}"
    assert elapsed < 10.0


def test_criterion_04a_scan_verdicts():
    start = time.perf_counter()
    scan = bgstates.kbound_scan()
    _shared_runtime["criterion_04"] = time.perf_counter() - start

    verdicts = {}
    for row in bgstates.scan_json_summary(scan)["rows"]:
        verdicts[round(row["k"], 6)] = row["verdict"]
    for k in (0.4, 0.5, 1.0, 2.0):
        assert verdicts[k] == "BOUNDED", f"k={k}: {verdicts[k]}"
    assert verdicts[0.25] == "EXCEEDS"


def test_criterion_04b_spectral_containment():
    # the k = 1/2 clause is the documented counterexample; asserted as
    # stated so the record shows the measured excess, not a softened bound
    start = time.perf_counter()
    tops = {}
    for k in (0.25, 0.5, 1.0):
        pair = phaseops.build_phase_ops(RepLabel(k=k), 2000)
        tops[k] = float(np.max(np.abs(phaseops.phase_spectrum(pair))))
    elapsed = time.perf_counter() - start

    total = elapsed + _shared_runtime.get("criterion_04", 0.0)
    assert total < 60.0
    assert tops[0.25] > 1.0, f"k=0.25 max eigenvalue {tops[0.25]!r}"
    assert tops[1.0] <= 1.0 + 1e-12, f"k=1 max |eigenvalue| {tops[1.0]!r}"
    assert tops[0.5] <= 1.0 + 1e-12, f"k=0.5 max |eigenvalue| {tops[0.5]!r}"


def test_criterion_05_asymptotics():
    start = time.perf_counter()

    rhos = np.linspace(20.0, 100.0, 81)
    excess = max(abs(bgstates.ratio_gI(1.0, rho) - (1.0 - 0.25 / rho)) * rho * rho
                 for rho in rhos)

    moment_rel = 0.0
    for k in (0.5, 1.0):
        state = bgstates.make_bg_state(k, 50.0)
        m3 = bgstates.k3_moments(state)
        moment_rel = max(moment_rel, abs(m3.mean - 50.25) / 50.25)
        moment_rel = max(moment_rel, abs(m3.variance - 25.0) / 25.0)

    diag_rel = 0.0
    for k in (0.5, 1.0):
        di = phaseops.diagonal_identities(RepLabel(k=k), 64)
        asym = phaseops.commutator_diag_asymptote(k, 50)
        diag_rel = max(diag_rel, abs(di.commutator_diag[50] - asym) / abs(asym))

    elapsed = time.perf_counter() - start
    assert excess < 0.5, f"|ratio error| * rho^2 reaches {excess:.3f}"
    assert moment_rel < 0.01, f"K3 moment asymptote off by {moment_rel:.3%}"
    assert diag_rel < 0.05, f"commutator diagonal off by {diag_rel:.3%}"
    assert elapsed < 10.0


def test_criterion_06_closed_forms_vs_sums():
    start = time.perf_counter()
    worst = 0.0
    worst_sat = 0.0
    for k in (0.5, 1.0, 2.0):
        label = RepLabel(k=k)
        for rho in (0.5, 2.0, 10.0):
            z = rho * complex(math.cos(0.3), math.sin(0.3))
            state = bgstates.make_bg_state(k, z)
            m3 = bgstates.k3_moments(state)
            m12 = bgstates.k12_moments(state)
            ph = bgstates.phase_expectations(state)

            # converged truncation: the closed forms face a fully summed tail
            long = bgstates.make_bg_state(k, z, dim=state.dim + 40)
            c = long.coeffs
            weights = np.abs(c) ** 2
            levels = k + np.arange(long.dim)
            pairs = [
                (m3.mean, float(np.sum(weights * levels))),
                (m3.second, float(np.sum(weights * levels * levels))),
            ]
            applied = {}
            for name, build, mean, second in (
                ("k1", repalg.build_k1, m12.mean_k1, m12.second_k1),
                ("k2", repalg.build_k2, m12.mean_k2, m12.second_k2),
            ):
                op = build(label, long.dim).entries.astype(np.complex128)
                applied[name] = op @ c
                pairs.append((mean, float(np.real(np.vdot(c, applied[name])))))
                pairs.append((second, float(np.real(np.vdot(applied[name], applied[name])))))
            ops = bgstates.build_phase_ops(label, long.dim)
            for closed, op in ((ph.cos_mean, ops.cos_op), (ph.sin_mean, ops.sin_op)):
                entries = op.entries.astype(np.complex128)
                pairs.append((closed, float(np.real(np.vdot(c, entries @ c)))))
            for closed, summed in pairs:
                worst = max(worst, abs(closed - summed) / max(1.0, abs(closed)))

            mean3_s = float(np.sum(weights * levels))
            variances = []
            for name in ("k1", "k2"):
                vec = applied[name]
                variances.append(float(np.real(np.vdot(vec, vec)))
                                 - float(np.real(np.vdot(c, vec))) ** 2)
            sat = abs(math.sqrt(variances[0] * variances[1]) - 0.5 * mean3_s)
            worst_sat = max(worst_sat, sat / max(1.0, 0.5 * mean3_s))

    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"worst closed-vs-sum gap {worst:.3e}"
    assert worst_sat < 1e-12, f"uncertainty product misses the minimum by {worst_sat:.3e}"
    assert elapsed < 10.0


def test_criterion_07_completeness():
    start = time.perf_counter()
    pairs = ((0.5, 0), (1.0, 0), (1.0, 3), (1.5, 5))
    for k, n in pairs:
        value = bgstates.completeness_check(k, n)
        assert abs(value - 1.0) < 1e-6, f"(k={k}, n={n}): {value!r}"
        moment = bgstates.moment_integral(k, n)
        expected = math.exp(
            specfun.ln_gamma(n + 1.0) + specfun.ln_gamma(2.0 * k + n)) / 4.0
        assert abs(moment - expected) / expected < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_08_realization_identifications():
    start = time.perf_counter()
    dim = 256

    for k in (0.25, 0.5, 1.0, 2.0):
        label = RepLabel(k=k)
        hp = fockreal.hp_generators(k, dim)
        for dressed, abstract in (
            (hp.kp, repalg.build_kplus(label, dim)),
            (hp.km, repalg.build_kminus(label, dim)),
            (hp.k3, repalg.build_k3(label, dim)),
        ):
            gap = float(np.max(np.abs(dressed.entries - abstract.entries)))
            assert gap < 1e-13, f"HP vs abstract k={k}: {gap:.3e}"

    sb = fockreal.squared_boson(dim)
    for offset, k_sector in ((0, 0.25), (1, 0.75)):
        idx = np.arange(offset, dim, 2)
        block = np.asarray(sb.kp.entries, dtype=np.complex128)[np.ix_(idx, idx)]
        abstract = repalg.build_kplus(RepLabel(k=k_sector), idx.size).entries
        gap = float(np.max(np.abs(block - np.asarray(abstract, dtype=np.complex128))))
        assert gap < 1e-13, f"squared sector k={k_sector}: {gap:.3e}"

    tm = fockreal.two_mode(24)
    d = tm.dim_per_mode
    for entry in tm.sector_table:
        assert entry.irrep_k == 0.5 + abs(entry.n1 - entry.n2) / 2.0
    kp = np.asarray(tm.kp.entries, dtype=np.complex128)
    for sector in (0, 1, 5, -3):
        size = d - abs(sector)
        m = np.arange(size)
        if sector >= 0:
            idx = (m + sector) * d + m
        else:
            idx = m * d + (m - sector)
        block = kp[np.ix_(idx, idx)]
        k_sector = 0.5 + abs(sector) / 2.0
        abstract = repalg.build_kplus(RepLabel(k=k_sector), size).entries
        gap = float(np.max(np.abs(block - np.asarray(abstract, dtype=np.complex128))))
        assert gap < 1e-13, f"two-mode sector {sector}: {gap:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_09_oscillator_bound():
    start = time.perf_counter()
    r = np.linspace(0.0, 20.0, 200)
    for k in (0.5, 1.0):
        h2 = fockreal.h2_curve(k, r)
        top = float(np.max(h2))
        assert top <= 1.0 + 1e-12, f"k={k}: max h2 = {top!r}"
        assert float(h2[-1]) > 0.98
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_10_interference_round_trip():
    start = time.perf_counter()

    rng = np.random.default_rng(2026)
    for _ in range(1000):
        intensities = np.exp(rng.uniform(math.log(0.01), math.log(100.0), size=2))
        phi = rng.uniform(-math.pi, math.pi)
        cfg = nfm.ClassicalConfig(I1=float(intensities[0]),
                                  I2=float(intensities[1]), phi=float(phi))
        obs = nfm.classical_observables(nfm.classical_readings(cfg))
        p = math.sqrt(cfg.I1 * cfg.I2)
        scale = max(1.0, p)
        assert abs(obs.P3 - p) < 1e-12 * scale
        assert abs(obs.cos_phi - math.cos(phi)) < 1e-12
        assert abs(obs.sin_phi - math.sin(phi)) < 1e-12

    samples = [(rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 10.0))
               for _ in range(100)]
    residual = nfm.poisson_bracket_check(samples, h=1e-5)
    assert residual < 1e-8, f"bracket residual {residual:.3e}"

    for k, rho, phi in ((0.5, 2.0, 0.9), (1.0, 5.0, -2.2), (2.0, 0.7, 3.0)):
        spec = nfm.BGStateSpec(k=k, z=rho * complex(math.cos(phi), math.sin(phi)))
        outcome = nfm.simulate_and_reconstruct(spec)
        assert outcome.errors["err_rho"] < 1e-12
        assert outcome.errors["err_phi"] < 1e-12

    for _ in range(20):
        k = float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(0, 31))
        outcome = nfm.simulate_and_reconstruct(nfm.NumberStateSpec(k=k, n=n))
        rec = outcome.reconstruction
        assert rec.K1_mean == 0.0 and rec.K2_mean == 0.0
        assert rec.n_estimate == n
        assert abs(rec.k_estimate - k) < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_criterion_11_property_battery():
    start = time.perf_counter()
    results = verify.run_all()
    elapsed = time.perf_counter() - start

    assert elapsed < 300.0, f"battery took {elapsed:.1f} s"
    assert {r.module for r in results} == set(verify.MODULE_ORDER)
    failures = [(r.module, r.name) for r in results if not r.passed]
    # completion is required, a clean exit is not: the one red check is the
    # documented containment counterexample and must stay visible
    assert failures == [
        ("phaseops", "containment claim k=0.5 (documented, fails honestly)")
    ], f"unexpected failures: {failures}"
