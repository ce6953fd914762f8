"""Six-reading interference observables and the reconstruction pipeline.

Classically, two beams with intensities I1, I2 and relative phase phi give
the detected intensities

    w3 = I1 + I2 + 2 p cos(phi),  p = sqrt(I1 I2),
    w4 = w3 at phi + pi,  w5 = w3 at phi + pi/2,  w6 = w3 at phi - pi/2,

so the pattern is carried by P1 = (w3-w4)/4 = p cos(phi),
P2 = (w5-w6)/4 = -p sin(phi) and P3 = p.  Under the canonical bracket
{f,g} = d_phi f d_p g - d_p f d_phi g these close into

    {P3,P1} = -P2,  {P3,P2} = P1,  {P1,P2} = P3,

the same algebra the truncated generator matrices elsewhere in this package
represent.  Noiseless readings obey w3+w4 = w5+w6 = 2(I1+I2).

On the quantum side the readings are mean photon numbers and the channel
differences estimate generator expectations, <K1> = (n3-n4)/4 and
<K2> = (n5-n6)/4, by the one map of both sides: ``_readings`` goes from the
pattern (P1, P2) to the six readings, ``_pattern`` back.  Summed-channel
second moments yield the modulus through

    2 <K3^2> = <(N3+N4)^2> - <N1^2> - <N2^2>,

evaluated over both phase-shifter settings so their gap stays visible.  The
modulus mean is never treated as directly measured; it comes from second
moments or from coherent-state closed forms.  For a flat pattern (both
differences zero) the component variances equal (n^2 + 2nk + k)/2 on a level
state (``repalg.fluctuation_closed_forms``), which inverts to the pair (n, k).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bgstates import k3_moments, k12_moments, make_bg_state
from .errors import (
    DegenerateReadingError,
    DomainError,
    InconsistentDataError,
    _worst,
    check_domain,
    check_route,
)
from .repalg import fluctuation_closed_forms

__all__ = [
    "ClassicalConfig",
    "InterferenceReading",
    "ClassicalObservables",
    "SecondMoments",
    "ReconstructionResult",
    "LevelEstimate",
    "NumberStateSpec",
    "BGStateSpec",
    "StateTruth",
    "SimulationOutcome",
    "TrialRow",
    "TrialSummary",
    "config_from_amplitudes",
    "classical_readings",
    "classical_observables",
    "poisson_bracket_check",
    "quantum_reconstruct",
    "casimir_gap",
    "estimate_k_from_number_state",
    "state_truth",
    "ideal_readings",
    "ideal_second_moments",
    "simulate_and_reconstruct",
    "recovered_phase",
    "run_trials",
    "parse_state_spec",
    "parse_run_config",
    "trials_json_summary",
]

_NEGATIVE_SLACK = 1e-12
_FLAT_TOL = 1e-10
# relative tolerance of the level-state checks and of the level fit
_LEVEL_TOL = 1e-6
# the largest <K3> (k + n of a level state) whose 4 <K3>^2 is a double
_K3_LIMIT = math.sqrt(sys.float_info.max) / 2.0


@dataclass(frozen=True)
class ClassicalConfig:
    """Two-beam configuration: intensities and the relative phase."""

    I1: float
    I2: float
    phi: float

    def __post_init__(self) -> None:
        for name, domain in (("I1", "positive real"), ("I2", "positive real"),
                             ("phi", "finite real")):
            object.__setattr__(self, name, check_domain(name, getattr(self, name), domain))


def config_from_amplitudes(a1: float, phi1: float, a2: float, phi2: float) -> ClassicalConfig:
    """Config for a1 e^{i phi1} + a2 e^{i phi2}; only phi2 - phi1 survives."""
    check_domain("a1", a1)
    check_domain("a2", a2)
    return ClassicalConfig(I1=a1 * a1, I2=a2 * a2, phi=phi2 - phi1)


@dataclass(frozen=True)
class InterferenceReading:
    """Six detected intensities (classically) or mean photon numbers.

    Construction clamps roundoff-level negatives to zero and rejects anything
    more negative than that; the sum identity is not enforced here because
    noisy data may violate it, use sum_residual to inspect it.
    """

    I1: float
    I2: float
    w3: float
    w4: float
    w5: float
    w6: float

    def __post_init__(self) -> None:
        values = {name: check_domain(name, getattr(self, name), "finite real")
                  for name in ("I1", "I2", "w3", "w4", "w5", "w6")}
        scale = max(1.0, *(abs(value) for value in values.values()))
        for name, value in values.items():
            if value < 0.0:
                if value < -_NEGATIVE_SLACK * scale:
                    raise DomainError(f"{name} must be nonnegative, got {value!r}")
                value = 0.0
            object.__setattr__(self, name, value)

    def sum_residual(self) -> float:
        """Worst deviation from w3+w4 = w5+w6 = 2(I1+I2)."""
        total = 2.0 * (self.I1 + self.I2)
        return max(abs(self.w3 + self.w4 - total), abs(self.w5 + self.w6 - total))


@dataclass(frozen=True)
class ClassicalObservables:
    P1: float
    P2: float
    P3: float
    cos_phi: float
    sin_phi: float


def _p1(phi: float, p: float) -> float:
    return p * math.cos(phi)


def _p2(phi: float, p: float) -> float:
    return -p * math.sin(phi)


def _p3(phi: float, p: float) -> float:
    return p


def _readings(I1: float, I2: float, P1: float, P2: float) -> InterferenceReading:
    # the pattern (P1, P2) on the baseline I1 + I2; _pattern reads it back
    base = I1 + I2
    return InterferenceReading(I1=I1, I2=I2, w3=base + 2.0 * P1, w4=base - 2.0 * P1,
                               w5=base + 2.0 * P2, w6=base - 2.0 * P2)


def _pattern(reading: InterferenceReading) -> tuple[float, float, float]:
    # P1 = (w3-w4)/4, P2 = (w5-w6)/4 and their modulus
    p1 = 0.25 * (reading.w3 - reading.w4)
    p2 = 0.25 * (reading.w5 - reading.w6)
    return p1, p2, math.hypot(p1, p2)


def classical_readings(cfg: ClassicalConfig) -> InterferenceReading:
    """The four phase-shifted intensities plus the two shielded ones."""
    p = math.sqrt(cfg.I1 * cfg.I2)
    return _readings(cfg.I1, cfg.I2, _p1(cfg.phi, p), _p2(cfg.phi, p))


def classical_observables(reading: InterferenceReading) -> ClassicalObservables:
    """P1, P2, P3 and the phase ratios cos = P1/P3, sin = -P2/P3.

    P3 is rebuilt from the reading differences, so P1^2 + P2^2 = P3^2 holds
    identically on noiseless data and the ratios stay on the unit circle.
    """
    p1, p2, p3 = _pattern(reading)
    if p3 == 0.0:
        raise DegenerateReadingError("w3 = w4 and w5 = w6: the relative phase is undefined")
    return ClassicalObservables(P1=p1, P2=p2, P3=p3, cos_phi=p1 / p3, sin_phi=-p2 / p3)


def poisson_bracket_check(samples, h: float = 1e-5) -> float:
    """Max residual of the three bracket relations by central differences.

    Returns max over samples of |{P3,P1}+P2|, |{P3,P2}-P1|, |{P1,P2}-P3|
    with each bracket evaluated as d_phi f d_p g - d_p f d_phi g at step h.
    The exact residual is zero, so what comes back is the O(h^2) truncation
    error of the stencil.
    """
    check_domain("h", h)
    samples = list(samples)
    if not samples:
        raise DomainError("at least one (phi, p) sample is required")

    def bracket(f, g, phi, p):
        f_phi = (f(phi + h, p) - f(phi - h, p)) / (2.0 * h)
        f_p = (f(phi, p + h) - f(phi, p - h)) / (2.0 * h)
        g_phi = (g(phi + h, p) - g(phi - h, p)) / (2.0 * h)
        g_p = (g(phi, p + h) - g(phi, p - h)) / (2.0 * h)
        return f_phi * g_p - f_p * g_phi

    worst = 0.0
    for phi, p in samples:
        phi, p = check_domain("phi", phi, "finite real"), check_domain("p", p)
        worst = _worst(
            worst,
            abs(bracket(_p3, _p1, phi, p) + _p2(phi, p)),
            abs(bracket(_p3, _p2, phi, p) - _p1(phi, p)),
            abs(bracket(_p1, _p2, phi, p) - _p3(phi, p)),
        )
    return worst


# ---------------------------------------------------------------------------
# quantum reconstruction from mean photon numbers


@dataclass(frozen=True)
class SecondMoments:
    """Channel second moments.

    The summed-channel entries feed the modulus estimate; the optional
    difference entries unlock the component variances via
    <K1^2> = <(N3-N4)^2>/16 and its partner.
    """

    n3n4_sumsq: float
    n5n6_sumsq: float
    n1sq: float
    n2sq: float
    n3n4_diffsq: float | None = None
    n5n6_diffsq: float | None = None

    def __post_init__(self) -> None:
        for name in ("n3n4_sumsq", "n5n6_sumsq", "n1sq", "n2sq",
                     "n3n4_diffsq", "n5n6_diffsq"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check_domain(name, value, "nonnegative real"))


@dataclass(frozen=True)
class ReconstructionResult:
    """Generator estimates recovered from one set of readings.

    flat_pattern marks readings without phase information (both differences
    zero within tolerance); cos_phi and sin_phi are zeroed there instead of
    propagating NaN.  Fields beyond K2_mean stay None until the data needed
    for them is supplied.
    """

    K1_mean: float
    K2_mean: float
    K3sq_mean: float | None
    p_estimate: float
    cos_phi: float
    sin_phi: float
    flat_pattern: bool
    k3sq_route_gap: float | None = None
    var_k1: float | None = None
    var_k2: float | None = None
    n_estimate: int | None = None
    k_estimate: float | None = None


def quantum_reconstruct(
    nbar: InterferenceReading,
    second: SecondMoments | None = None,
) -> ReconstructionResult:
    """Map mean photon numbers to K1/K2 means and, with moments, to <K3^2>.

    The two modulus routes, (N3+N4)^2 and (N5+N6)^2, are averaged and their
    gap reported; they are never merged silently.  Without second moments the
    modulus fields stay None.
    """
    k1, k2, p = _pattern(nbar)
    scale = max(1.0, 0.5 * (nbar.w3 + nbar.w4))
    flat = p <= _FLAT_TOL * scale
    cos_phi, sin_phi = (0.0, 0.0) if flat else (k1 / p, -k2 / p)

    k3sq = gap = var1 = var2 = None
    if second is not None:
        route34 = 0.5 * (second.n3n4_sumsq - second.n1sq - second.n2sq)
        route56 = 0.5 * (second.n5n6_sumsq - second.n1sq - second.n2sq)
        k3sq = 0.5 * (route34 + route56)
        gap = abs(route34 - route56)
        if second.n3n4_diffsq is not None and second.n5n6_diffsq is not None:
            var1 = second.n3n4_diffsq / 16.0 - k1 * k1
            var2 = second.n5n6_diffsq / 16.0 - k2 * k2

    return ReconstructionResult(
        K1_mean=k1,
        K2_mean=k2,
        K3sq_mean=k3sq,
        p_estimate=p,
        cos_phi=cos_phi,
        sin_phi=sin_phi,
        flat_pattern=flat,
        k3sq_route_gap=gap,
        var_k1=var1,
        var_k2=var2,
    )


def casimir_gap(k: float, k1sq_plus_k2sq: float, k3sq: float) -> float:
    """Signed residual of <K1^2 + K2^2> = <K3^2> + k(1-k) at level k."""
    check_domain("k", k)
    return k1sq_plus_k2sq - k3sq - k * (1.0 - k)


@dataclass(frozen=True)
class LevelEstimate:
    n_estimate: int
    k_estimate: float
    residual: float


def estimate_k_from_number_state(
    var_k1: float,
    var_k2: float,
    k3_mean: float,
    k3_sq: float,
) -> LevelEstimate:
    """Invert the level-state variances (n^2 + 2nk + k)/2 for (n, k).

    Substituting k = k3_mean - n turns the variance relation into
    n^2 - (2 k3_mean - 1) n + (2 var - k3_mean) = 0; each root is rounded to
    the nearest nonnegative integer and the candidate with the smaller
    back-substitution residual wins.  Inputs that are not level-state-like
    (unequal component variances, a spread modulus, no admissible root) are
    rejected.
    """
    for name, value in (("var_k1", var_k1), ("var_k2", var_k2), ("k3_mean", k3_mean)):
        check_domain(name, value)
    check_domain("k3_sq", k3_sq, "finite real")
    check_route("component variances", abs(var_k1 - var_k2),
                _LEVEL_TOL * max(1.0, abs(var_k1), abs(var_k2)), InconsistentDataError,
                context=f"({var_k1!r} vs {var_k2!r})")
    check_route("<K3^2> and <K3>^2", abs(k3_sq - k3_mean * k3_mean),
                _LEVEL_TOL * max(1.0, k3_sq), InconsistentDataError,
                context="(a level state has no modulus spread)")

    var = 0.5 * (var_k1 + var_k2)
    half_sum = 2.0 * k3_mean - 1.0
    product = 2.0 * var - k3_mean
    disc = half_sum * half_sum - 4.0 * product
    if disc < 0.0:
        raise InconsistentDataError("no real level solves the variance relation")
    # the root of larger modulus, and the other as product / larger, which does
    # not cancel: half_sum - sqrt(disc) loses n once k + n rounds (k ~ 2e16)
    larger = 0.5 * (half_sum + math.copysign(math.sqrt(disc), half_sum))
    smaller = product / larger if larger != 0.0 else 0.0

    best: LevelEstimate | None = None
    for raw in (larger, smaller):
        n = max(0, round(raw))
        k = k3_mean - n
        if k <= 0.0:
            continue
        residual = abs(fluctuation_closed_forms(k, n).var_k1 - var) / max(1.0, var)
        if best is None or residual < best.residual:
            best = LevelEstimate(n_estimate=n, k_estimate=k, residual=residual)
    if best is None:
        raise InconsistentDataError("no nonnegative integer level fits the observed variances")
    check_route("observed variances and the nearest integer level", best.residual, _LEVEL_TOL,
                InconsistentDataError)
    return best


# ---------------------------------------------------------------------------
# synthetic data and round trips


@dataclass(frozen=True)
class NumberStateSpec:
    """Level state |k, n>."""

    k: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_domain("k", self.k))
        object.__setattr__(self, "n", check_domain("n", self.n, "nonnegative integer"))


@dataclass(frozen=True)
class BGStateSpec:
    """Lowering-operator coherent state |k, z>."""

    k: float
    z: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_domain("k", self.k))
        z = complex(self.z)
        check_domain("|z|", abs(z), "nonnegative real")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class StateTruth:
    """Exact expectation values a state spec implies."""

    k: float
    mean_k1: float
    mean_k2: float
    mean_k3: float
    k3_sq: float
    var_k1: float
    var_k2: float
    n: int | None = None
    rho: float | None = None
    phi: float | None = None


def state_truth(spec) -> StateTruth:
    """Closed-form moments for a level or coherent state spec."""
    if isinstance(spec, NumberStateSpec):
        k, n = spec.k, spec.n
        level = k + n
        var = fluctuation_closed_forms(k, n).var_k1
        return StateTruth(
            k=k, mean_k1=0.0, mean_k2=0.0, mean_k3=level,
            k3_sq=level * level, var_k1=var, var_k2=var, n=n,
        )
    if isinstance(spec, BGStateSpec):
        state = make_bg_state(spec.k, spec.z)
        m3 = k3_moments(state)
        m12 = k12_moments(state)
        return StateTruth(
            k=spec.k,
            mean_k1=m12.mean_k1,
            mean_k2=m12.mean_k2,
            mean_k3=m3.mean,
            k3_sq=m3.second,
            var_k1=m12.var_k1,
            var_k2=m12.var_k2,
            rho=state.rho,
            phi=cmath.phase(state.z) if state.rho > 0.0 else 0.0,
        )
    raise DomainError(f"unsupported state spec {type(spec).__name__}")


def ideal_readings(truth: StateTruth) -> InterferenceReading:
    """Noiseless mean photon numbers a state would produce.

    The channel baseline is 2 <K3>, which dominates both differences for any
    state in the positive discrete series, so all six numbers are
    nonnegative.  The shielded channels are set to the modulus mean each.
    """
    return _readings(truth.mean_k3, truth.mean_k3, truth.mean_k1, truth.mean_k2)


def ideal_second_moments(truth: StateTruth) -> SecondMoments:
    """Second moments consistent with the modulus and variance closed forms.

    The reference channels are taken sharp at the modulus mean, and the
    summed channels are chosen so both modulus routes return <K3^2> exactly.
    A <K3> past ``_K3_LIMIT`` (6.7e153), where their second moment
    2 <K3^2> + 2 <K3>^2 overflows, raises DomainError.
    """
    refsq = truth.mean_k3 * truth.mean_k3
    sumsq = 2.0 * truth.k3_sq + 2.0 * refsq
    if sumsq == math.inf:
        raise DomainError(f"ideal_second_moments: 2 <K3^2> + 2 <K3>^2 overflows at k={truth.k!r}: "
                          f"it requires <K3> <= {_K3_LIMIT!r} (k + n for a level state), got "
                          f"<K3>={truth.mean_k3!r}")
    return SecondMoments(
        n3n4_sumsq=sumsq,
        n5n6_sumsq=sumsq,
        n1sq=refsq,
        n2sq=refsq,
        n3n4_diffsq=16.0 * (truth.var_k1 + truth.mean_k1 * truth.mean_k1),
        n5n6_diffsq=16.0 * (truth.var_k2 + truth.mean_k2 * truth.mean_k2),
    )


@dataclass(frozen=True)
class SimulationOutcome:
    readings: InterferenceReading
    second: SecondMoments
    reconstruction: ReconstructionResult
    truth: StateTruth
    errors: dict


def _jitter(rng: np.random.Generator, sigma: float, value: float) -> float:
    # multiplicative Gaussian noise; photon counts cannot go negative
    return max(0.0, value * (1.0 + sigma * float(rng.standard_normal())))


def _jittered(rng: np.random.Generator, sigma: float, record):
    # one draw per field, in declaration order
    return type(record)(*(_jitter(rng, sigma, getattr(record, f.name))
                          for f in dataclasses.fields(record)))


def _wrap_angle(delta: float) -> float:
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def _circular_stats(phases: list) -> tuple[float, float]:
    # mean and std of the phases, each first taken within pi of their
    # circular mean by whole turns (none where it already is, so such a
    # batch keeps its bits); the mean is wrapped back into (-pi, pi]
    centre = math.atan2(sum(map(math.sin, phases)), sum(map(math.cos, phases)))
    near = [phi - 2.0 * math.pi * round((phi - centre) / (2.0 * math.pi)) for phi in phases]
    mean = float(np.mean(near))
    if not -math.pi < mean <= math.pi:
        mean -= math.copysign(2.0 * math.pi, mean)
    return mean, float(np.std(near))


def recovered_phase(rec: ReconstructionResult) -> float:
    """Phase angle from the reconstructed ratios."""
    if rec.flat_pattern:
        raise DegenerateReadingError("flat pattern: no phase to recover")
    return math.atan2(rec.sin_phi, rec.cos_phi)


def simulate_and_reconstruct(
    spec,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SimulationOutcome:
    """Generate readings from a state spec, optionally jitter, reconstruct.

    With noise = 0 the round trip is exact up to roundoff: a coherent spec
    returns its (rho, phi) and a level spec yields a flat pattern whose
    variances invert to (n, k).  The level inversion is attempted only on
    flat patterns and its failure on non-level-like data propagates.
    """
    return _simulate(spec, state_truth(spec), noise, rng)


def _simulate(spec, truth: StateTruth, noise: float, rng) -> SimulationOutcome:
    # simulate_and_reconstruct given the truth, which run_trials computes once
    check_domain("noise", noise, "nonnegative real")
    reading = ideal_readings(truth)
    second = ideal_second_moments(truth)
    if noise > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        reading, second = _jittered(rng, noise, reading), _jittered(rng, noise, second)

    rec = quantum_reconstruct(reading, second)
    if isinstance(spec, NumberStateSpec) and rec.flat_pattern and rec.K3sq_mean > 0.0:
        est = estimate_k_from_number_state(
            rec.var_k1, rec.var_k2, math.sqrt(rec.K3sq_mean), rec.K3sq_mean
        )
        rec = dataclasses.replace(
            rec, n_estimate=est.n_estimate, k_estimate=est.k_estimate
        )

    errors = {
        "err_k1": abs(rec.K1_mean - truth.mean_k1),
        "err_k2": abs(rec.K2_mean - truth.mean_k2),
    }
    if truth.rho is not None:
        errors["err_rho"] = abs(rec.p_estimate - truth.rho)
        if truth.rho > 0.0 and not rec.flat_pattern:
            errors["err_phi"] = abs(_wrap_angle(recovered_phase(rec) - truth.phi))
    return SimulationOutcome(
        readings=reading, second=second, reconstruction=rec, truth=truth, errors=errors
    )


# ---------------------------------------------------------------------------
# Monte Carlo batches


@dataclass(frozen=True)
class TrialRow:
    trial: int
    recovered_rho: float
    recovered_phi: float
    err_k1: float
    err_k2: float


@dataclass(frozen=True)
class TrialSummary:
    """Per-trial rows plus spread statistics; phase stats skip flat rows and are circular."""

    spec: object
    noise: float
    trials: int
    seed: int
    rows: tuple
    flat_count: int
    rho_mean: float
    rho_std: float
    phi_mean: float | None
    phi_std: float | None
    max_err_k1: float
    max_err_k2: float


def run_trials(spec, noise: float = 0.0, trials: int = 1, seed: int = 0) -> TrialSummary:
    """Repeat simulate_and_reconstruct with one derived stream per trial.

    Trial t draws from default_rng([seed, t]), so results are reproducible
    given the base seed and independent of execution order.  noise is a
    nonnegative real, trials a positive integer and seed a nonnegative
    integer, as ``errors.check_domain`` reads them.
    """
    trials = check_domain("trials", trials, "positive integer")
    seed = check_domain("seed", seed, "nonnegative integer")
    truth = state_truth(spec)
    rows, phases = [], []
    for t in range(trials):
        out = _simulate(spec, truth, noise, np.random.default_rng([seed, t]))
        rec = out.reconstruction
        if rec.flat_pattern:
            phi = math.nan
        else:
            phi = recovered_phase(rec)
            phases.append(phi)
        rows.append(TrialRow(trial=t, recovered_rho=rec.p_estimate, recovered_phi=phi,
                             err_k1=out.errors["err_k1"], err_k2=out.errors["err_k2"]))
    rho = np.array([r.recovered_rho for r in rows])
    phi_mean, phi_std = _circular_stats(phases) if phases else (None, None)
    return TrialSummary(
        spec=spec,
        noise=noise,
        trials=trials,
        seed=seed,
        rows=tuple(rows),
        flat_count=trials - len(phases),
        rho_mean=float(np.mean(rho)),
        rho_std=float(np.std(rho)),
        phi_mean=phi_mean,
        phi_std=phi_std,
        max_err_k1=max(r.err_k1 for r in rows),
        max_err_k2=max(r.err_k2 for r in rows),
    )


def parse_state_spec(obj: dict):
    """Build a state spec from {"kind": "number"|"bg", ...}."""
    if not isinstance(obj, dict):
        raise DomainError("state spec must be a mapping")
    kind = obj.get("kind")
    if kind == "number":
        try:
            return NumberStateSpec(k=obj["k"], n=obj["n"])
        except KeyError as missing:
            raise DomainError(f"number spec needs key {missing}") from None
    if kind == "bg":
        try:
            k, rho, phi = obj["k"], obj["rho"], obj.get("phi", 0.0)
        except KeyError as missing:
            raise DomainError(f"bg spec needs key {missing}") from None
        rho = check_domain("rho", rho, "nonnegative real")
        phi = check_domain("phi", phi, "finite real")
        return BGStateSpec(k=k, z=rho * cmath.exp(1j * phi))
    raise DomainError(f"unknown state kind {kind!r}")


def parse_run_config(obj: dict):
    """Split a run config {state, noise, trials, seed} into checked run_trials args."""
    if not isinstance(obj, dict) or "state" not in obj:
        raise DomainError('a run config must carry a "state" entry')
    spec = parse_state_spec(obj["state"])
    noise = check_domain("noise", obj.get("noise", 0.0), "nonnegative real")
    trials = check_domain("trials", obj.get("trials", 1), "positive integer")
    seed = check_domain("seed", obj.get("seed", 0), "nonnegative integer")
    return spec, noise, trials, seed


def _spec_json(spec) -> dict:
    if isinstance(spec, NumberStateSpec):
        return {"kind": "number", "k": spec.k, "n": spec.n}
    return {"kind": "bg", "k": spec.k, "rho": abs(spec.z), "phi": cmath.phase(spec.z)}


def trials_json_summary(summary: TrialSummary) -> dict:
    """Aggregate view of a trial batch: its fields less the rows, spec as "state".

    Phase entries are None if every trial was flat.
    """
    fields = {f.name: getattr(summary, f.name) for f in dataclasses.fields(summary)}
    del fields["spec"], fields["rows"]
    return {"state": _spec_json(summary.spec), **fields}
