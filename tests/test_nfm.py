"""Tests for the six-reading observables and the reconstruction pipeline."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant.errors import (
    DegenerateReadingError,
    DomainError,
    InconsistentDataError,
)
from phasequant.nfm import (
    BGStateSpec,
    ClassicalConfig,
    InterferenceReading,
    NumberStateSpec,
    SecondMoments,
    StateTruth,
    casimir_gap,
    classical_observables,
    classical_readings,
    config_from_amplitudes,
    estimate_k_from_number_state,
    ideal_readings,
    ideal_second_moments,
    parse_run_config,
    parse_state_spec,
    poisson_bracket_check,
    quantum_reconstruct,
    recovered_phase,
    run_trials,
    simulate_and_reconstruct,
    state_truth,
    trials_json_summary,
)
from phasequant.repalg import RepLabel, build_k3, build_kminus, build_kplus


# ---------------------------------------------------------------------------
# classical readings


def test_reading_examples():
    r = classical_readings(ClassicalConfig(1.0, 1.0, 0.0))
    assert (r.w3, r.w4, r.w5, r.w6) == (4.0, 0.0, 2.0, 2.0)
    r = classical_readings(ClassicalConfig(1.0, 1.0, math.pi / 2.0))
    assert max(abs(r.w3 - 2.0), abs(r.w4 - 2.0), abs(r.w5), abs(r.w6 - 4.0)) < 1e-15
    r = classical_readings(ClassicalConfig(4.0, 1.0, math.pi / 3.0))
    assert abs(r.w3 - 7.0) < 1e-12


def test_reading_sum_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        cfg = ClassicalConfig(
            I1=float(rng.uniform(0.01, 50.0)),
            I2=float(rng.uniform(0.01, 50.0)),
            phi=float(rng.uniform(-math.pi, math.pi)),
        )
        r = classical_readings(cfg)
        assert r.sum_residual() <= 1e-12 * (cfg.I1 + cfg.I2)


def test_reading_clamps_roundoff_negatives():
    r = InterferenceReading(I1=1.0, I2=1.0, w3=4.0, w4=-1e-14, w5=2.0, w6=2.0)
    assert r.w4 == 0.0
    with pytest.raises(DomainError):
        InterferenceReading(I1=1.0, I2=1.0, w3=4.0, w4=-0.1, w5=2.0, w6=2.0)


def test_config_validation():
    with pytest.raises(DomainError):
        ClassicalConfig(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        ClassicalConfig(1.0, -2.0, 0.0)
    with pytest.raises(DomainError):
        ClassicalConfig(1.0, 1.0, math.inf)
    with pytest.raises(DomainError):
        config_from_amplitudes(0.0, 0.0, 1.0, 0.0)


@given(
    a1=st.floats(0.1, 10.0),
    a2=st.floats(0.1, 10.0),
    phi1=st.floats(-3.0, 3.0),
    phi2=st.floats(-3.0, 3.0),
    shift=st.floats(-5.0, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_gauge_shift_leaves_readings_unchanged(a1, a2, phi1, phi2, shift):
    base = classical_readings(config_from_amplitudes(a1, phi1, a2, phi2))
    moved = classical_readings(config_from_amplitudes(a1, phi1 + shift, a2, phi2 + shift))
    scale = base.I1 + base.I2
    for name in ("w3", "w4", "w5", "w6"):
        assert abs(getattr(base, name) - getattr(moved, name)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# classical observables and the round trip


def test_observables_trivial_case():
    obs = classical_observables(classical_readings(ClassicalConfig(1.0, 1.0, 0.0)))
    assert (obs.P1, obs.P2, obs.P3) == (1.0, 0.0, 1.0)
    assert (obs.cos_phi, obs.sin_phi) == (1.0, 0.0)


def test_observables_p3_equals_modulus():
    obs = classical_observables(classical_readings(ClassicalConfig(4.0, 1.0, math.pi / 3.0)))
    assert abs(obs.P3 - 2.0) < 1e-12


def test_observables_intensity_cross_check():
    # 2 p^2 = (I1+I2)^2 - I1^2 - I2^2 ties P3 to the shielded channels
    rng = np.random.default_rng(11)
    for _ in range(100):
        i1 = float(rng.uniform(0.1, 10.0))
        i2 = float(rng.uniform(0.1, 10.0))
        phi = float(rng.uniform(-math.pi, math.pi))
        obs = classical_observables(classical_readings(ClassicalConfig(i1, i2, phi)))
        other = (i1 + i2) ** 2 - i1 * i1 - i2 * i2
        assert abs(2.0 * obs.P3 ** 2 - other) < 1e-12 * max(1.0, other)


def test_observables_circle_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        cfg = ClassicalConfig(
            float(rng.uniform(0.05, 20.0)),
            float(rng.uniform(0.05, 20.0)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        obs = classical_observables(classical_readings(cfg))
        assert abs(obs.P1 ** 2 + obs.P2 ** 2 - obs.P3 ** 2) < 4e-16 * obs.P3 ** 2
        assert abs(obs.cos_phi ** 2 + obs.sin_phi ** 2 - 1.0) < 1e-15


@given(
    i1=st.floats(0.001, 1000.0),
    i2=st.floats(0.001, 1000.0),
    phi=st.floats(-math.pi, math.pi),
)
@settings(max_examples=80, deadline=None)
def test_classical_round_trip(i1, i2, phi):
    cfg = ClassicalConfig(i1, i2, phi)
    obs = classical_observables(classical_readings(cfg))
    p = math.sqrt(i1 * i2)
    assert abs(obs.P3 - p) < 1e-12 * p
    assert abs(obs.cos_phi - math.cos(phi)) < 1e-12
    assert abs(obs.sin_phi - math.sin(phi)) < 1e-12


def test_degenerate_reading_rejected():
    flat = InterferenceReading(I1=1.0, I2=1.0, w3=2.0, w4=2.0, w5=2.0, w6=2.0)
    with pytest.raises(DegenerateReadingError):
        classical_observables(flat)


# ---------------------------------------------------------------------------
# bracket relations


def test_bracket_convention_sign():
    # {P3, P1} evaluated directly must equal p sin(phi), not its negative
    phi, p, h = math.pi / 3.0, 2.0, 1e-6

    def d_phi(f):
        return (f(phi + h, p) - f(phi - h, p)) / (2.0 * h)

    def d_p(f):
        return (f(phi, p + h) - f(phi, p - h)) / (2.0 * h)

    def p1(a, b):
        return b * math.cos(a)

    def p3(a, b):
        return b

    bracket = d_phi(p3) * d_p(p1) - d_p(p3) * d_phi(p1)
    assert abs(bracket - math.sqrt(3.0)) < 1e-8
    assert poisson_bracket_check([(phi, p)]) < 1e-9


def test_bracket_residual_bound():
    rng = np.random.default_rng(19)
    samples = [
        (float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.1, 10.0)))
        for _ in range(100)
    ]
    assert poisson_bracket_check(samples, h=1e-5) < 1e-8


def test_bracket_residual_is_quadratic_in_h():
    # at h ~ 1e-3 the stencil truncation dominates roundoff
    samples = [(0.3, 1.7), (2.1, 0.9), (-1.2, 4.0)]
    ratio = poisson_bracket_check(samples, h=1e-3) / poisson_bracket_check(samples, h=5e-4)
    assert abs(ratio - 4.0) < 0.05


def test_bracket_validation():
    with pytest.raises(DomainError):
        poisson_bracket_check([])
    with pytest.raises(DomainError):
        poisson_bracket_check([(0.0, 1.0)], h=0.0)
    with pytest.raises(DomainError):
        poisson_bracket_check([(0.0, -1.0)])


# ---------------------------------------------------------------------------
# quantum reconstruction


def test_reconstruct_without_moments():
    nbar = InterferenceReading(I1=2.0, I2=2.0, w3=8.0, w4=0.0, w5=4.0, w6=4.0)
    rec = quantum_reconstruct(nbar)
    assert (rec.K1_mean, rec.K2_mean) == (2.0, 1.0 - 1.0)
    assert rec.K3sq_mean is None and rec.var_k1 is None
    assert not rec.flat_pattern
    assert (rec.cos_phi, rec.sin_phi) == (1.0, -0.0)


def test_reconstruct_sign_conventions():
    # w5 < w6 means K2 < 0, which is a positive phase angle
    nbar = InterferenceReading(I1=2.0, I2=2.0, w3=6.0, w4=2.0, w5=2.0, w6=6.0)
    rec = quantum_reconstruct(nbar)
    assert rec.K1_mean == 1.0 and rec.K2_mean == -1.0
    assert abs(recovered_phase(rec) - math.pi / 4.0) < 1e-15


def test_reconstruct_routes_and_gap():
    nbar = InterferenceReading(I1=2.0, I2=2.0, w3=6.0, w4=2.0, w5=4.0, w6=4.0)
    second = SecondMoments(n3n4_sumsq=30.0, n5n6_sumsq=26.0, n1sq=4.0, n2sq=4.0)
    rec = quantum_reconstruct(nbar, second)
    assert rec.K3sq_mean == 0.5 * (11.0 + 9.0)
    assert rec.k3sq_route_gap == 2.0
    assert rec.var_k1 is None


def test_reconstruct_flat_pattern():
    nbar = InterferenceReading(I1=3.5, I2=3.5, w3=7.0, w4=7.0, w5=7.0, w6=7.0)
    rec = quantum_reconstruct(nbar)
    assert rec.flat_pattern and rec.p_estimate == 0.0
    assert (rec.cos_phi, rec.sin_phi) == (0.0, 0.0)
    with pytest.raises(DegenerateReadingError):
        recovered_phase(rec)


def test_second_moments_validation():
    with pytest.raises(DomainError):
        SecondMoments(n3n4_sumsq=-1.0, n5n6_sumsq=1.0, n1sq=0.0, n2sq=0.0)
    with pytest.raises(DomainError):
        SecondMoments(n3n4_sumsq=1.0, n5n6_sumsq=1.0, n1sq=0.0, n2sq=0.0,
                      n3n4_diffsq=-2.0)


# ---------------------------------------------------------------------------
# the Casimir relation between component and modulus moments


def test_casimir_gap_on_number_basis():
    dim = 48
    for k in (0.5, 1.3):
        label = RepLabel(k=k)
        kp = build_kplus(label, dim).entries
        km = build_kminus(label, dim).entries
        k1 = 0.5 * (kp + km)
        k2 = (kp - km) / 2.0j
        sq = (k1 @ k1 + k2 @ k2).real
        for n in (0, 5, 20):
            gap = casimir_gap(k, float(sq[n, n]), (k + n) ** 2)
            assert abs(gap) < 1e-10


def test_casimir_gap_on_coherent_truth():
    truth = state_truth(BGStateSpec(k=0.75, z=2.0 + 1.0j))
    total = truth.var_k1 + truth.mean_k1 ** 2 + truth.var_k2 + truth.mean_k2 ** 2
    assert abs(casimir_gap(truth.k, total, truth.k3_sq)) < 1e-10


def test_casimir_gap_validation():
    with pytest.raises(DomainError):
        casimir_gap(0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# level estimation


def test_estimate_examples():
    est = estimate_k_from_number_state(0.5, 0.5, 1.0, 1.0)
    assert (est.n_estimate, est.k_estimate) == (0, 1.0)
    est = estimate_k_from_number_state(1.25, 1.25, 1.5, 2.25)
    assert (est.n_estimate, est.k_estimate) == (1, 0.5)
    est = estimate_k_from_number_state(0.25, 0.25, 0.5, 0.25)
    assert (est.n_estimate, est.k_estimate) == (0, 0.5)


def test_estimate_random_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(0, 31))
        var = 0.5 * (n * n + 2.0 * n * k + k)
        est = estimate_k_from_number_state(var, var, n + k, (n + k) ** 2)
        assert est.n_estimate == n
        assert abs(est.k_estimate - k) < 1e-12
        assert est.residual < 1e-12


def test_estimate_rejects_inconsistent_data():
    with pytest.raises(InconsistentDataError):
        estimate_k_from_number_state(0.5, 0.8, 1.0, 1.0)
    with pytest.raises(InconsistentDataError):
        estimate_k_from_number_state(0.5, 0.5, 1.0, 2.0)
    # real roots exist but neither integer level reproduces the variance
    with pytest.raises(InconsistentDataError):
        estimate_k_from_number_state(13.0, 13.0, 5.25, 5.25 ** 2)
    with pytest.raises(InconsistentDataError):
        estimate_k_from_number_state(0.9, 0.9, 1.0, 1.0)
    with pytest.raises(DomainError):
        estimate_k_from_number_state(-0.5, 0.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# synthetic state data


def test_state_truth_number():
    truth = state_truth(NumberStateSpec(k=0.5, n=3))
    assert (truth.mean_k1, truth.mean_k2, truth.mean_k3) == (0.0, 0.0, 3.5)
    assert truth.k3_sq == 3.5 ** 2
    assert truth.var_k1 == 0.5 * (9.0 + 3.0 + 0.5)


def test_state_truth_coherent():
    z = 3.0 * cmath.exp(1j * math.pi / 4.0)
    truth = state_truth(BGStateSpec(k=1.0, z=z))
    assert abs(truth.mean_k1 - 3.0 * math.cos(math.pi / 4.0)) < 1e-12
    assert abs(truth.mean_k2 + 3.0 * math.sin(math.pi / 4.0)) < 1e-12
    assert abs(truth.var_k1 - 0.5 * truth.mean_k3) < 1e-12
    assert truth.rho == 3.0


def test_state_truth_validation():
    with pytest.raises(DomainError):
        state_truth("not a spec")
    with pytest.raises(DomainError):
        NumberStateSpec(k=-1.0, n=0)
    with pytest.raises(DomainError):
        NumberStateSpec(k=1.0, n=-2)
    with pytest.raises(DomainError):
        BGStateSpec(k=1.0, z=complex("inf"))


def test_ideal_readings_nonnegative():
    # holds for any state: the modulus mean dominates both differences
    for k, z in ((0.05, 50.0), (0.25, 3.0 * cmath.exp(2.0j)), (2.0, 0.3j)):
        r = ideal_readings(state_truth(BGStateSpec(k=k, z=z)))
        assert min(r.w3, r.w4, r.w5, r.w6) >= 0.0
        assert r.sum_residual() < 1e-12 * (r.I1 + r.I2)


def _bits(record) -> list:
    # every field of a record as the hex of its double (a -0.0 included), or as is
    return [float.hex(v) if isinstance(v, float) else v
            for v in (getattr(record, name) for name in record.__dataclass_fields__)]


def test_classical_and_ideal_readings_share_one_map():
    # equal beams I1 = I2 = I carry the pattern (I cos phi, -I sin phi) on the
    # baseline 2I, the same as a state with <K3> = I and those <K1>, <K2>
    rng = np.random.default_rng(29)
    for intensity, phi in zip(10.0 ** rng.uniform(-3.0, 3.0, 200),
                              rng.uniform(-math.pi, math.pi, 200)):
        intensity, phi = float(intensity), float(phi)
        truth = StateTruth(k=1.0, mean_k1=intensity * math.cos(phi),
                           mean_k2=-intensity * math.sin(phi), mean_k3=intensity,
                           k3_sq=intensity * intensity, var_k1=0.0, var_k2=0.0)
        assert (_bits(classical_readings(ClassicalConfig(intensity, intensity, phi)))
                == _bits(ideal_readings(truth)))


def test_pattern_reading_keeps_the_former_bits():
    # classical_observables and quantum_reconstruct against the expressions
    # each wrote before they shared _pattern, on readings with a pattern and
    # on flat ones
    rng = np.random.default_rng(2029)
    for trial in range(400):
        w = 10.0 ** rng.uniform(-6.0, 6.0, 4)
        w3, w4, w5, w6 = (float(v) for v in w)
        if trial % 10 == 0:
            w4, w6 = w3, w5
        elif trial % 10 == 1:
            w4, w6 = w3 * (1.0 + 1e-13), w5 * (1.0 - 1e-13)
        reading = InterferenceReading(I1=1.0, I2=1.0, w3=w3, w4=w4, w5=w5, w6=w6)
        k1, k2 = 0.25 * (w3 - w4), 0.25 * (w5 - w6)
        p3 = 0.25 * math.hypot(w4 - w3, w6 - w5)
        if p3 == 0.0:
            with pytest.raises(DegenerateReadingError):
                classical_observables(reading)
        else:
            assert _bits(classical_observables(reading)) == [
                float.hex(v) for v in (k1, k2, p3, k1 / p3, -k2 / p3)]
        p = math.hypot(k1, k2)
        flat = p <= 1e-10 * max(1.0, 0.5 * (w3 + w4))
        rec = quantum_reconstruct(reading)
        assert rec.flat_pattern == flat
        assert [float.hex(v) for v in (rec.K1_mean, rec.K2_mean, rec.p_estimate,
                                       rec.cos_phi, rec.sin_phi)] == [
            float.hex(v) for v in (k1, k2, p, 0.0 if flat else k1 / p,
                                   0.0 if flat else -k2 / p)]


def test_ideal_second_moments_match_both_routes():
    truth = state_truth(BGStateSpec(k=1.0, z=2.0))
    rec = quantum_reconstruct(ideal_readings(truth), ideal_second_moments(truth))
    assert abs(rec.K3sq_mean - truth.k3_sq) < 1e-12 * truth.k3_sq
    assert rec.k3sq_route_gap == 0.0


# ---------------------------------------------------------------------------
# round trips through the full pipeline


@pytest.mark.parametrize(
    "k,z",
    [
        (1.0, 3.0 * cmath.exp(1j * math.pi / 4.0)),
        (0.5, 0.8 * cmath.exp(-2.1j)),
        (2.5, 10.0 * cmath.exp(3.0j)),
    ],
)
def test_coherent_round_trip_noiseless(k, z):
    out = simulate_and_reconstruct(BGStateSpec(k=k, z=z))
    assert out.errors["err_rho"] < 1e-12
    assert out.errors["err_phi"] < 1e-12
    assert out.errors["err_k1"] < 1e-12
    assert out.errors["err_k2"] < 1e-12


def test_coherent_uncertainty_saturation():
    out = simulate_and_reconstruct(BGStateSpec(k=1.0, z=3.0 * cmath.exp(1j * math.pi / 4.0)))
    rec = out.reconstruction
    product = math.sqrt(rec.var_k1 * rec.var_k2)
    assert abs(product - 0.5 * out.truth.mean_k3) < 1e-12


def test_number_state_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = float(rng.uniform(0.1, 2.5))
        n = int(rng.integers(0, 25))
        out = simulate_and_reconstruct(NumberStateSpec(k=k, n=n))
        rec = out.reconstruction
        assert rec.flat_pattern
        assert rec.K1_mean == 0.0 and rec.K2_mean == 0.0
        assert rec.n_estimate == n
        assert abs(rec.k_estimate - k) < 1e-10


def test_zero_amplitude_coherent_is_flat():
    out = simulate_and_reconstruct(BGStateSpec(k=0.75, z=0.0))
    assert out.reconstruction.flat_pattern
    assert out.errors["err_rho"] == 0.0
    assert "err_phi" not in out.errors


def test_noisy_round_trip_stays_close():
    out = simulate_and_reconstruct(
        BGStateSpec(k=1.0, z=3.0), noise=0.01, rng=np.random.default_rng(5)
    )
    assert out.errors["err_rho"] < 0.5
    with pytest.raises(DomainError):
        simulate_and_reconstruct(BGStateSpec(k=1.0, z=3.0), noise=-0.1)


# ---------------------------------------------------------------------------
# trial batches and serialization


def test_trials_deterministic():
    spec = BGStateSpec(k=1.0, z=3.0)
    a = run_trials(spec, noise=0.01, trials=50, seed=42)
    b = run_trials(spec, noise=0.01, trials=50, seed=42)
    assert a.rows == b.rows
    c = run_trials(spec, noise=0.01, trials=50, seed=43)
    assert a.rows != c.rows


@pytest.mark.parametrize("phi", [0.0, 3.1415, -3.13])
def test_trials_noisy_spread(phi):
    # near +-pi the recovered phases straddle the cut; the plain mean once
    # read about 0 there, with a spread near pi
    s = run_trials(BGStateSpec(k=1.0, z=3.0 * cmath.exp(1j * phi)), noise=0.01, trials=200,
                   seed=42)
    assert abs(s.rho_mean - 3.0) < 0.02
    assert 0.0 < s.rho_std < 0.1
    assert abs((s.phi_mean - phi + math.pi) % (2.0 * math.pi) - math.pi) < 0.01
    assert -math.pi < s.phi_mean <= math.pi
    assert 0.0 < s.phi_std < 0.05
    assert s.flat_count == 0


def test_trials_flat_statistics():
    s = run_trials(NumberStateSpec(k=0.5, n=2), trials=5)
    assert s.flat_count == 5
    assert s.rho_mean == 0.0
    assert s.phi_mean is None and s.phi_std is None


def test_trials_json_summary():
    s = run_trials(BGStateSpec(k=1.0, z=2.0), noise=0.005, trials=10, seed=1)
    summary = trials_json_summary(s)
    assert summary["state"] == {"kind": "bg", "k": 1.0, "rho": 2.0, "phi": 0.0}
    assert summary["trials"] == 10 and summary["seed"] == 1
    json.dumps(summary)


def test_trials_validation():
    with pytest.raises(DomainError):
        run_trials(BGStateSpec(k=1.0, z=2.0), trials=0)


def test_parse_state_spec():
    spec = parse_state_spec({"kind": "number", "k": 0.5, "n": 3})
    assert spec == NumberStateSpec(k=0.5, n=3)
    spec = parse_state_spec({"kind": "bg", "k": 1.0, "rho": 3.0, "phi": math.pi / 4.0})
    assert abs(spec.z - 3.0 * cmath.exp(1j * math.pi / 4.0)) < 1e-15
    with pytest.raises(DomainError):
        parse_state_spec({"kind": "thermal"})
    with pytest.raises(DomainError):
        parse_state_spec({"kind": "bg", "k": 1.0})
    with pytest.raises(DomainError):
        parse_state_spec({"kind": "bg", "k": 1.0, "rho": -2.0})
    with pytest.raises(DomainError):
        parse_state_spec([1, 2])


def test_parse_run_config():
    spec, noise, trials, seed = parse_run_config(
        {"state": {"kind": "number", "k": 1.0, "n": 0}, "noise": 0.01,
         "trials": 100, "seed": 9}
    )
    assert spec == NumberStateSpec(k=1.0, n=0)
    assert (noise, trials, seed) == (0.01, 100, 9)
    spec, noise, trials, seed = parse_run_config({"state": {"kind": "number", "k": 1.0, "n": 0}})
    assert (noise, trials, seed) == (0.0, 1, 0)
    with pytest.raises(DomainError):
        parse_run_config({"noise": 0.01})
