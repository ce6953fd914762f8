"""Lowering-operator coherent states |k,z> and the phase-spectrum bound scan.

The state solves K- |k,z> = z |k,z> with z = rho e^{i phi}.  Its number-state
coefficients are

    c_n = rho^{k-1/2} I_{2k-1}(2 rho)^{-1/2} z^n / sqrt(n! Gamma(2k+n)),

so normalization rides on the modified Bessel function of the first kind.
Every expectation value in this module is produced twice, once in closed form
through Bessel-function ratios and once by truncated sums over the stored
coefficients, and construction fails loudly if the routes drift apart.

Phase expectation values factor as <cos> = cos(phi) g(rho)/I_{2k-1}(2 rho)
with

    g(rho) = 1/2 sum_n rho^{2(n+k)} / (n! Gamma(2k+n)) (1/(n+k) + 1/(n+k+1)),

and the scan of that ratio over (k, rho) decides whether the phase-operator
spectrum can fill [-1, 1]: the ratio stays below 1 for k >= 0.4 on the default
grid but crosses it near rho ~ 1 for k = 0.25.

Small-rho behavior of b_k(rho) = I_2k(2 rho)/I_{2k-1}(2 rho): the leading
series terms give rho/(2k); the k-independent shorthand "b ~ rho" is accurate
only at k = 1/2 and is not used here.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    TruncationError,
    check_domain,
    check_route,
)
from .phaseops import build_phase_ops
from .repalg import RepLabel, banded_matvec, build_k1, build_k2
from .specfun import (
    _k_quad,
    _i_scaled,
    _ln_bessel_i,
    _log_terms,
    _series_cut,
    _tanh_sinh,
    bessel_i_scaled,
    ln_gamma,
)

__all__ = [
    "BGState",
    "K3Moments",
    "K12Moments",
    "PhaseExpectations",
    "ScanResult",
    "make_bg_state",
    "eigenvector_residual",
    "overlap",
    "moment_integral",
    "completeness_check",
    "b_ratio",
    "k3_moments",
    "k12_moments",
    "g_k",
    "ratio_gI",
    "ratio_gI_asymptote",
    "phase_expectations",
    "kbound_scan",
    "flip_bracket",
    "scan_json_summary",
]

_ROUTE_TOL = 1e-10
# the smallest k whose Bessel order 2k - 1 does not round to -1: below it
# every state's normalization I_{2k-1} is taken at an order outside nu > -1
_K_MIN = math.nextafter(2.0 ** -55, math.inf)
_SUP_TOL = 1e-9
# logarithms of the smallest normal and of the smallest subnormal double
_LOG_MIN_NORMAL = math.log(sys.float_info.min)
_LOG_MIN_DOUBLE = math.log(math.ulp(0.0))


@dataclass(frozen=True)
class BGState:
    """Truncated coherent state with its coefficient vector.

    ``coeffs[n]`` is the exact infinite-state coefficient, not renormalized
    after truncation, so sum(|coeffs|^2) = 1 - tail with tail < tail_tol.
    """

    k: float
    z: complex
    dim: int
    coeffs: np.ndarray
    tail_tol: float

    def __post_init__(self) -> None:
        check_domain("k", self.k)
        check_domain("dim", self.dim, "positive integer")
        if self.coeffs.shape != (self.dim,):
            raise DimensionMismatchError("coefficient vector length differs from dim")
        c0 = complex(self.coeffs[0])
        if not (c0.imag == 0.0 and c0.real > 0.0):
            raise DomainError("coeffs[0] must be real positive in this phase convention")

    @property
    def rho(self) -> float:
        return abs(self.z)

    @property
    def phi(self) -> float:
        return cmath.phase(self.z)


@dataclass(frozen=True)
class K3Moments:
    mean: float
    second: float
    variance: float
    b_k: float


@dataclass(frozen=True)
class K12Moments:
    mean_k1: float
    mean_k2: float
    second_k1: float
    second_k2: float
    var_k1: float
    var_k2: float


@dataclass(frozen=True)
class PhaseExpectations:
    """cos/sin expectations; tan_ratio is inf-signed at cos = 0, nan at z = 0."""

    cos_mean: float
    sin_mean: float
    tan_ratio: float


@dataclass(frozen=True)
class ScanResult:
    """Ratio g/I over a (k, rho) grid with one verdict row per k."""

    k_values: np.ndarray
    rho_values: np.ndarray
    ratio: np.ndarray
    sup_per_k: np.ndarray
    argmax_rho: np.ndarray
    verdicts: tuple


def _ln_i(k: float, rho: float) -> float:
    # ln I_{2k-1}(2 rho), the normalization; 2k goes in apart from its order
    # 2k - 1, which for 2k < 1 has lost 2k's low bits
    return _ln_bessel_i(2.0 * k - 1.0, 2.0 * rho, 2.0 * k)


def _tail_dim(k: float, rho: float, tail_tol: float) -> int:
    # Smallest n past the point where terms at least halve with
    # rho^{2(n+k)}/(n! Gamma(2k+n)) below tail_tol * I_{2k-1}(2 rho); the
    # halving makes the geometric tail bound legitimate.  |c_n|^2 carries
    # rho^{2(n+k)-1}: the missing 1/rho is restored below rho = 1, the spare
    # rho kept above it.
    log_rho = math.log(rho)
    log_tol = (
        math.log(tail_tol) + _ln_i(k, rho)
        - 2.0 * k * log_rho - max(0.0, -log_rho)
    )
    return _series_cut(2.0 * log_rho, 2.0 * k, log_tol, ratio=0.5, error=TruncationError)


def make_bg_state(k: float, z: complex, dim: int | None = None,
                  tail_tol: float = 1e-14) -> BGState:
    """Construct |k,z> truncated where the coefficient tail is below tail_tol.

    With dim omitted, the smallest adequate dimension is chosen; an explicit
    dim smaller than that raises.  The lowering-operator eigenvalue relation
    is verified row by row on the interior before the state is returned.
    k must be a positive real whose 2k is finite.  k below about 2.78e-17
    raises ``DomainError``: there the Bessel order 2k - 1 of the
    normalization rounds to -1.  So does a state whose first coefficient
    c_0 underflows: ln|c_0| below that of the smallest double, about
    -744.4 (k = 1/2 past rho of about 745).
    """
    check_domain("k", k)
    check_domain("2k", 2.0 * k)
    if not k >= _K_MIN:
        raise DomainError(
            f"make_bg_state requires k >= {_K_MIN!r}, got k={k!r}: below it "
            "the Bessel order 2k - 1 rounds to -1"
        )
    check_domain("tail_tol", tail_tol)
    z = complex(z)
    rho = check_domain("rho", abs(z), "nonnegative real")

    if rho == 0.0:
        needed = 1
    else:
        needed = _tail_dim(k, rho, tail_tol)
    if dim is None:
        dim = needed
    elif check_domain("dim", dim, "positive integer") < needed:
        raise TruncationError(
            f"dim={dim} cannot meet tail_tol={tail_tol}; need at least {needed}"
        )

    coeffs = np.zeros(dim, dtype=np.complex128)
    if rho == 0.0:
        coeffs[0] = 1.0
    else:
        n = np.arange(dim, dtype=np.float64)
        log_amp = (
            (k - 0.5) * math.log(rho)
            - 0.5 * _ln_i(k, rho)
            + 0.5 * _log_terms(2.0 * math.log(rho), 2.0 * k, dim)
        )
        if not log_amp[0] >= _LOG_MIN_DOUBLE:
            raise DomainError(
                f"make_bg_state: c_0 underflows at k={k!r}, rho={rho!r}: ln|c_0| = "
                f"{log_amp[0]:.6g} is below {_LOG_MIN_DOUBLE:.6g}, that of the smallest double"
            )
        theta = math.atan2(z.imag, z.real)  # cmath.phase raises on a subnormal angle
        coeffs = np.exp(log_amp) * np.exp(1j * theta * n)

    state = BGState(k=k, z=z, dim=dim, coeffs=coeffs, tail_tol=tail_tol)

    # interior rows of (K- - z) coeffs vanish identically; rounding only
    sub = np.sqrt((np.arange(1, dim)) * (2.0 * k + np.arange(dim - 1)))
    interior = sub * coeffs[1:] - z * coeffs[:-1]
    check_route("coherent-state coefficients and K- c = z c", np.max(np.abs(interior), initial=0.0),
                1e-12 * (1.0 + rho), context=f"at k={k}, z={z}")
    return state


def eigenvector_residual(state: BGState) -> float:
    """Full 2-norm of (K- - z) coeffs, boundary row included.

    The last row contributes |z| |coeffs[dim-1]| because truncation maps the
    missing component to zero, so the result is tail-sized, not machine-sized.
    """
    dim, z = state.dim, state.z
    sub = np.sqrt(np.arange(1, dim) * (2.0 * state.k + np.arange(dim - 1)))
    res = np.empty(dim, dtype=np.complex128)
    res[: dim - 1] = sub * state.coeffs[1:] - z * state.coeffs[: dim - 1]
    res[dim - 1] = -z * state.coeffs[dim - 1]
    return float(np.linalg.norm(res))


def _entire_series_scaled(k: float, w: complex, scale: float) -> complex:
    # sum_n w^n / (n! Gamma(2k+n)) damped by exp(-scale); the term magnitude
    # peaks near n = sqrt(|w|), matching scale = 2 sqrt(|w|).
    mag, theta = abs(w), math.atan2(w.imag, w.real)
    if mag == 0.0:
        return complex(math.exp(-ln_gamma(2.0 * k) - scale))
    log_w = math.log(mag)
    log_t = _log_terms(log_w, 2.0 * k, _series_cut(log_w, 2.0 * k) + 1)
    n = np.arange(log_t.size)
    return complex(np.sum(np.exp(log_t - scale) * np.exp(1j * theta * n)))


def overlap(s1: BGState, s2: BGState) -> complex:
    """<k,z2|k,z1> by truncated inner product, validated against closed form.

    The closed form reduces to |z2 z1|^{k-1/2} S(conj(z2) z1) over the root of
    both normalizations, with S the entire series behind I_{2k-1}; written
    this way no branch cut is ever taken.  The two routes must agree to 1e-10
    or to the cross-term tail bound when that is larger (states of very
    different rho leave a genuinely bigger tail past the shorter vector).
    """
    if s1.k != s2.k:
        raise DimensionMismatchError(f"overlap needs equal k, got {s1.k} and {s2.k}")
    k = s1.k
    m = min(s1.dim, s2.dim)
    summed = complex(np.sum(np.conj(s2.coeffs[:m]) * s1.coeffs[:m]))

    # first omitted cross term via the coefficient recursion, continued as a
    # geometric series (term ratios only shrink); Cauchy-Schwarz caps it
    shorter = s1 if s1.dim <= s2.dim else s2
    cross_tail = math.sqrt(shorter.tail_tol)
    if m >= 1:
        rr = s1.rho * s2.rho
        first_missing = (
            abs(s1.coeffs[m - 1]) * abs(s2.coeffs[m - 1]) * rr / (m * (2.0 * k + (m - 1.0)))
        )
        decay = rr / ((m + 1.0) * (2.0 * k + m))
        if decay < 1.0:
            cross_tail = min(cross_tail, first_missing / (1.0 - decay))

    r1, r2 = s1.rho, s2.rho
    if r1 == 0.0 or r2 == 0.0:
        closed = complex(s1.coeffs[0].real * s2.coeffs[0].real)
    else:
        w = s2.z.conjugate() * s1.z
        ln_rr = math.log(r1) + math.log(r2)
        scale = 2.0 * math.exp(0.5 * ln_rr)
        series = _entire_series_scaled(k, w, scale)
        # exponent collapses to -(sqrt(r1)-sqrt(r2))^2 plus the power
        # prefactor; assembled in log space so tiny rho cannot underflow
        ln_pref = (
            (k - 0.5) * ln_rr
            + scale
            - 0.5 * (_ln_i(k, r1) + _ln_i(k, r2))
        )
        closed = series * math.exp(ln_pref)

    tol = max(_ROUTE_TOL * max(1.0, abs(closed)), 4.0 * cross_tail)
    check_route("overlap routes", abs(summed - closed), tol, context=f"at k={k}")
    return summed


def moment_integral(k: float, n: int, rho_max: float = 60.0,
                    quadrature_tol: float = 1e-9) -> float:
    """Quadrature of int_0^inf rho^{2(n+k)} K_{2k-1}(2 rho) drho.

    The tanh-sinh rule covers [0, rho_max], with every K from the trapezoid
    rule of ``bessel_k``; the infinite tail beyond rho_max is estimated from
    the exponential decay of the scaled integrand and added on.  The rule's
    error estimate plus that tail must stay below ``quadrature_tol`` of the
    value.  The closed value is n! Gamma(2k+n)/4; callers compare against it.
    """
    check_domain("k", k)
    check_domain("rho_max", rho_max)
    if k < 0.5:
        raise DomainError(f"moment_integral requires k >= 0.5, got {k}")
    if check_domain("n", n, "nonnegative integer") > 20:
        raise DomainError(f"moment_integral requires 0 <= n <= 20, got {n}")
    power = 2.0 * (n + k)
    if rho_max <= power:
        raise DomainError(f"rho_max={rho_max} must exceed 2(n+k)={power}")

    nu = 2.0 * k - 1.0

    def integrand(rho):
        # a rho-node x t-node grid: each level's K_nu(2 rho) in one array
        return np.exp(power * np.log(rho) - 2.0 * rho) * _k_quad(nu, 2.0 * rho, scaled=True)

    value, abserr = (float(v) for v in _tanh_sinh(integrand, rho_max, 1e-13))
    # integrand ~ e^{-2 rho} polynomial: geometric tail from the endpoint value
    tail = float(integrand(np.array([rho_max]))[0]) / (2.0 - power / rho_max)
    total = value + tail
    bound = max(quadrature_tol * abs(total), 1e-15)
    check_route("moment quadrature step halvings", abserr + tail, bound, ConvergenceError,
                context=f"at k={k}, n={n}")
    return total


def completeness_check(k: float, n: int, rho_max: float = 60.0,
                       quadrature_tol: float = 1e-9) -> float:
    """Resolution-of-identity weight on |k,n>, exactly 1 for the true measure.

    The angular integral is analytic (only the diagonal term survives) and the
    Bessel normalization cancels, leaving 4/(n! Gamma(2k+n)) times the radial
    moment, evaluated by quadrature.
    """
    log_norm = ln_gamma(n + 1.0) + ln_gamma(2.0 * k + n)
    return 4.0 * moment_integral(k, n, rho_max, quadrature_tol) * math.exp(-log_norm)


def b_ratio(k: float, rho: float) -> float:
    """I_{2k}(2 rho) / I_{2k-1}(2 rho), the mean-occupation ratio; 0 at rho=0.

    Raises ``DomainError`` where I_{2k-1}(2 rho) underflows (large k at
    moderate rho, e.g. k = 123.456 at rho = 2.5).
    """
    check_domain("k", k)
    check_domain("rho", rho, "nonnegative real")
    if rho < 1e-7:
        # leading series behavior; relative error O(rho^2), and the direct
        # quotient would underflow to 0/0 for extreme orders at tiny rho
        return rho / (2.0 * k)
    # 2k passed apart from the order, as for _ln_i
    below = _i_scaled(2.0 * k - 1.0, 2.0 * rho, 2.0 * k)
    if below == 0.0:
        raise DomainError(
            f"b_ratio: I_{{2k-1}}(2 rho) underflows at k={k!r}, rho={rho!r}, "
            "so the ratio I_2k/I_{2k-1} is out of double range"
        )
    return bessel_i_scaled(2.0 * k, 2.0 * rho) / below


def _padded_coeffs(state: BGState, minimum: int = 2) -> np.ndarray:
    # zero-padding is exact: omitted coefficients are treated as zero anyway,
    # and operator builders need at least a 2-dimensional space
    if state.dim >= minimum:
        return state.coeffs
    c = np.zeros(minimum, dtype=np.complex128)
    c[: state.dim] = state.coeffs
    return c


def _moment_tol(state: BGState) -> float:
    # The routes over the stored coefficients lose what couples the last one,
    # c = c_{dim-1}, to the omitted ones.  By the recursion the first omitted
    # coefficient is c rho / sqrt(edge), edge = dim (2k + dim - 1), and the
    # rest fall at least geometrically, so a mean loses about rho |c|^2 and a
    # second moment rho^2 |c|^2.  From dim = 2 on (shorter vectors are
    # zero-padded to 2) the banded routes also cut row dim, whose square is
    # edge |c|^2 / 4.
    d, k, rho = state.dim, state.k, state.rho
    edge = d * (2.0 * k + d - 1.0) if d >= 2 else 0.0
    last = abs(complex(state.coeffs[-1])) ** 2
    return max(_ROUTE_TOL, 10.0 * last * (rho + rho * rho + edge / 4.0))


def _phase_tol(state: BGState) -> float:
    # The cos/sin routes lose what couples the last stored coefficient c to the
    # first omitted one, c rho / sqrt(edge) with edge = dim (2k + dim - 1),
    # through the entry f_dim / 4: rho |c|^2 (1/(k+dim) + 1/(k+dim-1)) / 2.
    # The omitted ones among themselves add about rho^2 |c|^2 / edge, since
    # ||cos|| < 1.1 and the omitted norms fall at least geometrically.
    d, k, rho = state.dim, state.k, state.rho
    # (d - 1.0) first, so that at dim 1 a tiny k is not rounded away
    edge = d * (2.0 * k + (d - 1.0))
    last = abs(complex(state.coeffs[-1])) ** 2
    coupling = 0.5 * (1.0 / (k + d) + 1.0 / (k + (d - 1.0)))
    return max(_ROUTE_TOL, 10.0 * last * rho * (coupling + rho / edge))


def k3_moments(state: BGState) -> K3Moments:
    """Mean, second moment and variance of K3, closed form cross-summed.

    mean = k + rho b_k, second = k^2 + rho^2 + rho b_k and
    variance = rho^2 (1 - b_k^2) + (1-2k) rho b_k; each is compared against
    the direct sum over |coeffs|^2 before being returned.
    """
    k, rho = state.k, state.rho
    b = b_ratio(k, rho)
    mean = k + rho * b
    second = k * k + rho * rho + rho * b
    variance = rho * rho * (1.0 - b * b) + (1.0 - 2.0 * k) * rho * b

    p = np.abs(state.coeffs) ** 2
    levels = state.k + np.arange(state.dim)
    mean_s = float(np.sum(p * levels))
    second_s = float(np.sum(p * levels * levels))
    tol = _moment_tol(state)
    # the variance summed about the mean: second_s - mean_s^2 would cancel
    # ~rho^2 digits
    for what, closed, summed in (
        ("K3 mean", mean, mean_s), ("K3 second moment", second, second_s),
        ("K3 variance", variance, float(np.sum(p * (levels - mean_s) ** 2))),
    ):
        check_route(f"{what}: closed form and truncated sum", abs(closed - summed),
                    tol * max(1.0, abs(closed)), context=f"({closed!r} vs {summed!r})")
    return K3Moments(mean=mean, second=second, variance=variance, b_k=b)


def k12_moments(state: BGState) -> K12Moments:
    """K1/K2 means and spreads; both variances equal half the K3 mean.

    Closed forms: mean_k1 = rho cos(phi), mean_k2 = -rho sin(phi), second
    moments rho^2 cos^2/sin^2 plus <K3>/2.  The uncertainty product therefore
    sits exactly at its lower bound <K3>^2/4.  Matrix-vector sums over the
    stored coefficients, formed in O(dim) from the operator diagonals, must
    agree before the record is returned.
    """
    k, rho, phi = state.k, state.rho, state.phi
    k3_mean = k + rho * b_ratio(k, rho)
    mean_k1 = rho * math.cos(phi)
    mean_k2 = -rho * math.sin(phi)
    second_k1 = rho * rho * math.cos(phi) ** 2 + 0.5 * k3_mean
    second_k2 = rho * rho * math.sin(phi) ** 2 + 0.5 * k3_mean
    var = 0.5 * k3_mean

    label = RepLabel(k=k)
    c = _padded_coeffs(state)
    tol = _moment_tol(state)
    for name, build, closed_mean, closed_second in (
        ("K1", build_k1, mean_k1, second_k1),
        ("K2", build_k2, mean_k2, second_k2),
    ):
        applied = banded_matvec(build(label, c.size).diagonals, c)
        for what, closed, summed in (
            ("mean", closed_mean, float(np.real(np.vdot(c, applied)))),
            ("second moment", closed_second, float(np.real(np.vdot(applied, applied)))),
        ):
            check_route(f"{name} {what}: closed form and truncated sum", abs(closed - summed),
                        tol * max(1.0, abs(closed)), context=f"({closed!r} vs {summed!r})")
    return K12Moments(
        mean_k1=mean_k1, mean_k2=mean_k2, second_k1=second_k1,
        second_k2=second_k2, var_k1=var, var_k2=var,
    )


def _underflow_shift(log_t: np.ndarray) -> np.ndarray:
    # per row of log-terms, its largest where that is not a normal double,
    # else 0: subtracted before exponentiating, it keeps the row's terms from
    # underflowing and leaves every other row's bits alone
    top = log_t.max(axis=-1)
    return np.where(top < _LOG_MIN_NORMAL, top, 0.0)


def _phase_weight_sums(k: float, rho: float, for_quotient: bool = False) -> tuple[float, float]:
    # Shared-term sums over t_n = rho^{2(n+k)} e^{-2 rho} / (n! Gamma(2k+n)):
    # the weighted sum is e^{-2 rho} g(rho), the plain sum identically equals
    # rho e^{-2 rho} I_{2k-1}(2 rho), so their quotient needs no Bessel call
    # and holds for every k > 0.  Term peak sits near n = rho.  A caller that
    # wants only the quotient may have the terms divided by e^shift first
    # (see _underflow_shift).
    log_rho = math.log(rho)
    size = _series_cut(2.0 * log_rho, 2.0 * k) + 1
    log_t = _log_terms(2.0 * log_rho, 2.0 * k, size) + (2.0 * k * log_rho - 2.0 * rho)
    t = np.exp(log_t - _underflow_shift(log_t) if for_quotient else log_t)
    n = np.arange(t.size)
    weighted = 0.5 * float(np.sum(t * (1.0 / (n + k) + 1.0 / (n + k + 1.0))))
    return weighted, float(np.sum(t))


def _g_quadrature(k: float, rho: float) -> tuple[float, float]:
    # e^{-2 rho} g(rho) = e^{-2 rho} [1/2 int_0^{2 rho} I(u) du
    # + 1/(8 rho^2) int_0^{2 rho} u^2 I(u) du] with I = I_{2k-1}, and its
    # error estimate.  I(u) ~ u^{2k-1} at 0, so the rule runs in w = u^beta,
    # beta = min(2k, 1), which makes the integrand regular there for k < 1/2.
    # At every node of a level at once, the ascending series of
    # e^{-2 rho} I(u) du/dw (du/dw = u/(beta w)) is summed in log space, over
    # as many terms as the series rule keeps at the largest node, u = 2 rho.
    nu = 2.0 * k - 1.0
    beta = min(2.0 * k, 1.0)
    size = _series_cut(2.0 * math.log(rho), 2.0 * k) + 1
    m = np.arange(size, dtype=np.float64)
    ln2 = math.log(2.0)
    power = ((nu + 1.0 + 2.0 * m) / beta - 1.0)[:, None]
    offset = (
        _log_terms(-2.0 * ln2, 2.0 * k, size) - nu * ln2 - 2.0 * rho - math.log(beta)
    )[:, None]

    def integrand(w):
        ln_w = np.log(w)
        damped = np.exp(power * ln_w + offset).sum(axis=0)
        return np.stack([damped, damped * np.exp(2.0 * ln_w / beta)])

    (first, second), (e1, e2) = _tanh_sinh(integrand, (2.0 * rho) ** beta, 1e-12)
    scale = 1.0 / (8.0 * rho * rho)
    return float(0.5 * first + scale * second), float(0.5 * e1 + scale * e2)


def g_k(k: float, rho: float) -> float:
    """Radial phase weight g(rho), series route checked against quadrature.

    The alternative route integrates I_{2k-1} directly, by the tanh-sinh
    rule: g = 1/2 int_0^{2rho} I(u) du + 1/(8 rho^2) int_0^{2rho} u^2 I(u) du.
    Its error estimate must stay below 1e-10 of the value (ConvergenceError
    otherwise).  Both routes are evaluated in e^{-2 rho}-scaled form and must
    agree to 1e-10; the unscaled value overflows past rho ~ 350 and is
    refused there.
    """
    check_domain("k", k)
    check_domain("rho", rho, "nonnegative real")
    if rho == 0.0:
        return 0.0
    if rho < 1e-7:
        # leading series term; the next one is down by rho^2/(2k)
        w0 = 0.5 * (1.0 / k + 1.0 / (k + 1.0))
        return w0 * math.exp(2.0 * k * math.log(rho) - ln_gamma(2.0 * k))
    if rho > 350.0:
        raise DomainError("g_k overflows past rho = 350; use ratio_gI instead")
    scaled = _phase_weight_sums(k, rho)[0]

    quad_scaled, err = _g_quadrature(k, rho)
    where = f"at k={k}, rho={rho}"
    check_route("g_k quadrature step halvings", err,
                _ROUTE_TOL * quad_scaled, ConvergenceError, context=where)
    check_route("g_k series and quadrature routes", abs(scaled - quad_scaled),
                _ROUTE_TOL * max(abs(scaled), abs(quad_scaled), 1e-280),
                context=f"{where} ({scaled!r} vs {quad_scaled!r})")
    return scaled * math.exp(2.0 * rho)


def ratio_gI(k: float, rho: float) -> float:
    """g(rho) / I_{2k-1}(2 rho) with shared exponential scaling; 0 at rho=0.

    This is the modulus of the phase expectation values; whether it stays
    below 1 over all rho is exactly the spectral-containment question.
    """
    check_domain("k", k)
    check_domain("rho", rho, "nonnegative real")
    if rho == 0.0:
        return 0.0
    if rho < 1e-7:
        # rho w_0 limit, accurate to O(rho^2) and immune to term underflow
        return rho * 0.5 * (1.0 / k + 1.0 / (k + 1.0))
    weighted, plain = _phase_weight_sums(k, rho, for_quotient=True)
    return rho * weighted / plain


def ratio_gI_asymptote(rho: float) -> float:
    """Large-rho form of the ratio, 1 - 1/(4 rho), independent of k."""
    return 1.0 - 0.25 / rho


def phase_expectations(state: BGState) -> PhaseExpectations:
    """cos/sin expectations cos(phi) g/I and sin(phi) g/I, sum-checked.

    tan_ratio = sin_mean/cos_mean collapses to tan(phi), independent of k and
    rho; it is reported as signed infinity when cos_mean vanishes with a
    nonzero sin_mean and as nan for the ground state (phi undefined).
    """
    k, rho, phi = state.k, state.rho, state.phi
    ratio = ratio_gI(k, rho)
    cos_mean = math.cos(phi) * ratio
    sin_mean = math.sin(phi) * ratio

    c = _padded_coeffs(state)
    pair = build_phase_ops(RepLabel(k=k), c.size)
    tol = _phase_tol(state)
    for name, closed, op in (("cos", cos_mean, pair.cos_op), ("sin", sin_mean, pair.sin_op)):
        summed = float(np.real(np.vdot(c, banded_matvec(op.diagonals, c))))
        check_route(f"{name} expectation: closed form and truncated sum", abs(closed - summed),
                    tol * max(1.0, abs(closed)), context=f"({closed!r} vs {summed!r})")

    if cos_mean != 0.0:
        tan = sin_mean / cos_mean
    elif sin_mean != 0.0:
        tan = math.copysign(math.inf, sin_mean)
    else:
        tan = math.nan
    return PhaseExpectations(cos_mean=cos_mean, sin_mean=sin_mean, tan_ratio=tan)


def _default_k_grid() -> np.ndarray:
    return np.linspace(0.1, 2.0, 39)


def _default_rho_grid() -> np.ndarray:
    return np.geomspace(0.01, 100.0, 200)


def kbound_scan(k_grid: np.ndarray | None = None,
                rho_grid: np.ndarray | None = None) -> ScanResult:
    """Fill the g/I ratio over the grid and pass a verdict per k.

    BOUNDED means sup over rho stays at or below 1 + 1e-9.  Rows are
    independent; each is evaluated by one vectorized series sweep, cut where
    every rho's terms have fallen below 1e-18 of their largest.  Every grid
    value must be a positive real.
    """
    k_values = _default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)
    rho_values = (
        _default_rho_grid() if rho_grid is None else np.asarray(rho_grid, dtype=float)
    )
    if k_values.size == 0 or rho_values.size == 0:
        raise DomainError("kbound_scan requires nonempty grids")
    for name, grid in (("k", k_values), ("rho", rho_values)):
        for value in grid.tolist():
            check_domain(name, value)

    log_rho = np.log(rho_values)
    ratio = np.empty((k_values.size, rho_values.size))
    for i, k in enumerate(k_values):
        size = _series_cut(2.0 * log_rho, 2.0 * k) + 1
        log_t = (_log_terms(2.0 * log_rho, 2.0 * k, size)
                 + (2.0 * k * log_rho - 2.0 * rho_values)[:, None])
        terms = np.exp(log_t - _underflow_shift(log_t)[:, None])
        n = np.arange(terms.shape[1])
        weights = 0.5 * (1.0 / (n + k) + 1.0 / (n + k + 1.0))
        # plain row sums equal rho e^{-2 rho} I_{2k-1}(2 rho) termwise, over e^shift
        ratio[i] = rho_values * (terms @ weights) / np.sum(terms, axis=1)

    sup = ratio.max(axis=1)
    argmax = rho_values[np.argmax(ratio, axis=1)]
    verdicts = tuple(
        "BOUNDED" if s <= 1.0 + _SUP_TOL else "EXCEEDS" for s in sup
    )
    return ScanResult(
        k_values=k_values, rho_values=rho_values, ratio=ratio,
        sup_per_k=sup, argmax_rho=argmax, verdicts=verdicts,
    )


def flip_bracket(result: ScanResult) -> tuple[float, float] | None:
    """Grid values bracketing the EXCEEDS -> BOUNDED flip, or None.

    Reported as the largest EXCEEDS k and the next grid value above it; no
    interpolation is attempted since the sharp threshold is an open point.
    """
    exceeding = [
        i for i, v in enumerate(result.verdicts) if v == "EXCEEDS"
    ]
    if not exceeding or exceeding[-1] + 1 >= result.k_values.size:
        return None
    i = exceeding[-1]
    return (float(result.k_values[i]), float(result.k_values[i + 1]))


def scan_json_summary(result: ScanResult) -> dict:
    """Per-k summary rows plus the verdict-flip bracket."""
    bracket = flip_bracket(result)
    columns = zip(result.k_values.tolist(), result.sup_per_k.tolist(),
                  result.argmax_rho.tolist(), result.verdicts)
    return {
        "flip_bracket": list(bracket) if bracket is not None else None,
        "rows": [{"k": k, "sup": sup, "argmax_rho": at, "verdict": verdict}
                 for k, sup, at, verdict in columns],
    }
