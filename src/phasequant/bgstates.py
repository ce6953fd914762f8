"""Lowering-operator coherent states |k,z> and the phase-spectrum bound scan.

The state solves K- |k,z> = z |k,z> with z = rho e^{i phi}.  Its number-state
coefficients are

    c_n = S^{-1/2} z^n / sqrt(n! (2k)_n),  S = sum_n rho^{2n} / (n! (2k)_n) = 0F1(; 2k; rho^2)

(DLMF 10.25.2; Barut & Girardello, Commun. Math. Phys. 21 (1971) 41): the
state is normalized by the table of its own terms, and built wherever its
tail cut lies within specfun's 200000 terms (rho <= 141420.3 at every k);
leading coefficients past about rho = 747 underflow to 0.  Every expectation value
in this module is produced twice, once in closed form through series means
over the state's or the phase table and once by truncated sums over the
stored coefficients, and construction fails loudly if the routes drift apart.

Phase expectation values factor as <cos> = cos(phi) g(rho)/I_{2k-1}(2 rho)
with

    g(rho) = 1/2 sum_n rho^{2(n+k)} / (n! Gamma(2k+n)) (1/(n+k) + 1/(n+k+1)),

and the scan of that ratio over (k, rho) decides whether the phase-operator
spectrum can fill [-1, 1]: on the default grid the ratio stays below 1 for
k >= 0.35 and crosses it for k <= 0.30 (near rho ~ 1 at k = 0.25), so the
verdict flips in the measured bracket (0.30, 0.35).  One routine forms the
series means of g and I_{2k-1} for a whole rho grid, each row over the
window of the phase table that carries its weight: ``ratio_gI`` is the
scan's one cell, so the scan and a single state's expectations agree bit
for bit, and ``g_k`` sums the whole table of the same terms.  b_k(rho) =
I_2k(2 rho)/I_{2k-1}(2 rho) of the K3 moments is the same table's mean of
rho/(n + 2k); at small rho it is rho/(2k), not the shorthand "b ~ rho",
which holds only at k = 1/2.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import repalg, specfun
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    TruncationError,
    check_domain,
    check_route,
)
from .phaseops import _check_k, build_phase_ops
from .repalg import RepLabel, banded_matvec, build_k1, build_k2
from .specfun import (
    _LGAMMA_LIMIT,
    _k_quad,
    _peak_table,
    _series_cut,
    _series_means,
    _tanh_sinh,
    _weighted_means,
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
_SUP_TOL = 1e-9
# relative bound on the moment quadrature's error estimate plus its tail
_QUADRATURE_TOL = 1e-9
# the largest rho whose 2 rho, the Bessel argument, is a finite double
_RHO_MAX = sys.float_info.max / 2.0
# the phase series' window of every k is cut within specfun's 200000 terms
# up to this rho.  The smallest k widens its lower cut most: scanned and
# bisected to the double, it fails from 34392557.93108839 at phaseops._K_MIN
# (an isolated larger rho, as 34392762.81, is still cut), from 1.9835e8 at
# k = 1 and from 2.1597e8 at k = 1e4 (g/I; b_k's weights reach a bit further)
_RHO_CUT = 34392557.93


def _check_rho(rho, caller: str, domain: str = "nonnegative real") -> float:
    # rho read as ``domain`` with 2 rho finite, or DomainError
    rho = check_domain("rho", rho, domain)
    if not rho <= _RHO_MAX:
        raise DomainError(f"{caller} requires rho <= {_RHO_MAX!r}, so that 2 rho is "
                          f"finite, got rho={rho!r}")
    return rho


def _leading_term_exact(k: float, rho: float) -> bool:
    # below rho = 1e-7, where the series terms after the first, down by
    # about rho^2/(2k(k+1)) in b_ratio and ratio_gI, are below rounding; at
    # tiny k they are not (0.5 at k = 1e-16, rho = 1e-8)
    return rho < 1e-7 and rho * rho < sys.float_info.epsilon * k * (k + 1.0)


@dataclass(frozen=True)
class BGState:
    """Truncated coherent state with its coefficient vector.

    ``coeffs[n]`` is the exact infinite-state coefficient, not renormalized
    after truncation, so sum(|coeffs|^2) = 1 - tail with tail < tail_tol.
    ``coeffs[0]`` is real and nonnegative: 0 where it underflows.
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
        if not (c0.imag == 0.0 and c0.real >= 0.0):
            raise DomainError("coeffs[0] must be real nonnegative in this phase convention")

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


def make_bg_state(k: float, z: complex, dim: int | None = None,
                  tail_tol: float = 1e-14) -> BGState:
    """Construct |k,z> truncated where the coefficient tail is below tail_tol.

    With dim omitted, the smallest adequate dimension is chosen; an explicit
    dim smaller than that raises.  The coefficients, S and the tail cut read
    one table of the amplitudes rho^n / sqrt(n! (2k)_n) relative to the
    largest, multiplied out from their ratios; those below the smallest
    double are 0 (c_0 from rho = 746.7 on at k = 1/2).  Their phases
    e^{i n arg z} are rounded once from repalg's storage precision.  The
    K- c = z c rows are verified on the interior, and the tail
    1 - sum |c_n|^2 must lie in [0, tail_tol] to 4 dim eps (TruncationError
    otherwise).  k must be at least ``phaseops._K_MIN`` with 2k finite.  The
    tail cut, near n = sqrt(2) rho at small k, must lie within specfun's
    200000 terms (rho <= 141420.3 at the smallest k, 141421.0 at k = 1);
    past that one DomainError names the bound at k.
    """
    _check_k(k, "make_bg_state")
    check_domain("2k", 2.0 * k)
    check_domain("tail_tol", tail_tol)
    z = complex(z)
    rho = _check_rho(abs(z), "make_bg_state")

    # ln rho^2; at rho = 0 the table keeps t_0 alone
    log_w = 2.0 * math.log(rho) if rho else -math.inf
    try:
        size = _series_cut(log_w, 2.0 * k) + 1
        # the amplitudes sqrt(t_n / t_p) of t_n = rho^{2n} / (n! (2k)_n), so
        # that S = t_p sum amp^2; those far below the peak are 0
        amp = _peak_table(rho, 0.5 * log_w, 2.0 * k, size, root=True)[0][0]
        total = float(np.sum(amp * amp))
        # the first n past which terms halve, t_n below tail_tol S = tail_tol
        # t_p total and, above rho = 1, below that over rho
        log_tol = math.log(tail_tol) + math.log(total) - max(0.0, 0.5 * log_w)
        needed = _series_cut(log_w, 2.0 * k, log_tol, ratio=0.5)
    except ConvergenceError:
        # that cut lies at the first n from which the terms halve,
        # rho^2 <= n (2k + n - 1) / 2, wherever it nears the budget: the
        # bound at its last index (within 2e-12 of the one bisected at the
        # smallest k, k = 1/2 and k = 1), or where rho^2 overflows
        last = specfun._MAX_TERMS - 1
        bound = min(math.sqrt(0.5 * last) * math.sqrt(2.0 * k + (last - 1.0)),
                    math.sqrt(sys.float_info.max))
        raise DomainError(f"make_bg_state: the state's series is not cut within {last + 1} "
                          f"terms at k={k!r}, rho={rho!r}: at this k it is cut up to "
                          f"rho = {bound!r}") from None
    if dim is None:
        dim = needed
    elif check_domain("dim", dim, "positive integer") < needed:
        raise TruncationError(
            f"dim={dim} cannot meet tail_tol={tail_tol}; need at least {needed}"
        )
    if dim > size:
        amp = _peak_table(rho, 0.5 * log_w, 2.0 * k, dim, root=True)[0][0]
    coeffs = amp[:dim] / math.sqrt(total) * _turns(z, 0j, dim)

    state = BGState(k=k, z=z, dim=dim, coeffs=coeffs, tail_tol=tail_tol)

    # interior rows of (K- - z) coeffs vanish identically; rounding only; they
    # read no table, so they check the coefficients by a second route
    interior = _kminus_rows(state)[:-1]
    where = f"at k={k}, z={z}"
    check_route("coherent-state coefficients and K- c = z c", np.max(np.abs(interior), initial=0.0),
                1e-12 * (1.0 + rho), context=where)
    # the documented tail, 0 <= 1 - sum |c_n|^2 < tail_tol, to rounding in the sum
    tail = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    check_route("coherent-state tail 1 - sum |c_n|^2 and the middle of [0, tail_tol]",
                abs(tail - 0.5 * tail_tol), 0.5 * tail_tol + 4.0 * dim * sys.float_info.epsilon,
                context=f"{where} (tail {tail:.3e})")
    return state


def _kminus_rows(state: BGState) -> np.ndarray:
    # the rows of (K- - z) coeffs; the last is -z coeffs[dim-1], since
    # truncation maps the missing component to zero
    dim, z, c = state.dim, state.z, state.coeffs
    n = np.arange(1, dim)
    if (dim - 1.0) * (2.0 * state.k + (dim - 2.0)) < math.inf:
        sub = np.sqrt(n * (2.0 * state.k + (n - 1.0)))
    else:  # n (2k + n - 1) passes DBL_MAX
        sub = np.sqrt(n) * np.sqrt(2.0 * state.k + (n - 1.0))
    rows = np.empty(dim, dtype=np.complex128)
    rows[: dim - 1] = sub * c[1:] - z * c[: dim - 1]
    rows[dim - 1] = -z * c[dim - 1]
    return rows


def eigenvector_residual(state: BGState) -> float:
    """Full 2-norm of (K- - z) coeffs, boundary row included.

    The last row contributes |z| |coeffs[dim-1]| because truncation maps the
    missing component to zero, so the result is tail-sized, not machine-sized.
    """
    return float(np.linalg.norm(_kminus_rows(state)))


def _turns(z1: complex, z2: complex, size: int) -> np.ndarray:
    # e^{i n theta}, 0 <= n < size, theta = arg z1 - arg z2, with theta and
    # n theta formed in repalg's storage precision and rounded once: formed
    # in doubles, n theta carries about n ulp(theta) (2.25e-13 rad at n = 707)
    real = repalg._REAL
    theta = np.arctan2(real(z1.imag), real(z1.real)) - np.arctan2(real(z2.imag), real(z2.real))
    return np.exp(1j * (theta * np.arange(size, dtype=real))).astype(np.complex128)


def _overlap_closed(k: float, z1: complex, z2: complex) -> complex:
    # S(conj(z2) z1) / sqrt(S(rho1^2) S(rho2^2)), S(w) = sum_n t_n with
    # t_n = w^n / (n! (2k)_n), as one series mean: the rows rho1 rho2, rho1^2
    # and rho2^2 of the state's terms, each relative to its largest, and the
    # first row's means of cos and sin of n (arg z1 - arg z2)
    rho1, rho2 = abs(z1), abs(z2)
    with np.errstate(divide="ignore"):  # ln 0 = -inf keeps t_0 alone
        ln1, ln2 = np.log([rho1, rho2])
    log_w = np.array([ln1 + ln2, 2.0 * ln1, 2.0 * ln2])
    terms, ln_peak = _peak_table(np.array([rho1 * rho2, rho1 * rho1, rho2 * rho2]), log_w,
                                 2.0 * k, _series_cut(log_w, 2.0 * k) + 1)
    turns = _turns(z1, z2, terms.shape[1])
    means, total = _weighted_means(terms, (turns.real, turns.imag), 1.0)
    ln_s = np.log(total) + ln_peak
    return complex(*means[0]) * math.exp(ln_s[0] - 0.5 * (ln_s[1] + ln_s[2]))


def overlap(s1: BGState, s2: BGState) -> complex:
    """<k,z2|k,z1> by truncated inner product, validated against closed form.

    The closed form is the Barut-Girardello one, S(conj(z2) z1) over
    sqrt(S(rho1^2) S(rho2^2)) with S(w) = sum_n w^n / (n! (2k)_n) =
    0F1(; 2k; w): one series mean over the state's log-term table, so it
    reads no Bessel value and not the stored coefficients, and takes no
    branch cut.  It shares that table with the normalization; the K- c = z c
    rows of ``make_bg_state``, which read none, check the table.  The two
    routes must agree to 1e-10 or to the cross-term tail bound when that is
    larger (states of very different rho leave a genuinely bigger tail past
    the shorter vector).
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
    rr = s1.rho * s2.rho
    first_missing = (
        abs(s1.coeffs[m - 1]) * abs(s2.coeffs[m - 1]) * rr / (m * (2.0 * k + (m - 1.0)))
    )
    decay = rr / ((m + 1.0) * (2.0 * k + m))
    if decay < 1.0:
        cross_tail = min(cross_tail, first_missing / (1.0 - decay))

    closed = _overlap_closed(k, s1.z, s2.z)
    tol = max(_ROUTE_TOL * max(1.0, abs(closed)), 4.0 * cross_tail)
    check_route("overlap routes", abs(summed - closed), tol, context=f"at k={k}")
    return summed


def moment_integral(k: float, n: int, rho_max: float = 60.0) -> float:
    """Quadrature of int_0^inf rho^{2(n+k)} K_{2k-1}(2 rho) drho.

    The tanh-sinh rule covers [0, rho_max], with every K from the trapezoid
    rule of ``bessel_k``; the infinite tail beyond rho_max is estimated from
    the exponential decay of the scaled integrand and added on.  The rule's
    error estimate plus that tail must stay below 1e-9 of the value.  The
    closed value is n! Gamma(2k+n)/4; callers compare against it.
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
        # a rho-node x t-node grid: each level's K_nu(2 rho) in one array,
        # formed first, so that a K out of range is refused before the power
        # factor can overflow
        return _k_quad(nu, 2.0 * rho, scaled=True) * np.exp(power * np.log(rho) - 2.0 * rho)

    value, abserr = (float(v) for v in _tanh_sinh(integrand, rho_max, 1e-13))
    # integrand ~ e^{-2 rho} polynomial: geometric tail from the endpoint value
    tail = float(integrand(np.array([rho_max]))[0]) / (2.0 - power / rho_max)
    total = value + tail
    bound = max(_QUADRATURE_TOL * abs(total), 1e-15)
    check_route("moment quadrature step halvings", abserr + tail, bound, ConvergenceError,
                context=f"at k={k}, n={n}")
    return total


def _completeness_weight(k: float, n: int, moment: float) -> float:
    # 4/(n! Gamma(2k+n)) times the radial moment: the one expression of the
    # weight, so completeness_check and the CLI agree bit for bit
    return 4.0 * moment * math.exp(-(ln_gamma(n + 1.0) + ln_gamma(2.0 * k + n)))


def completeness_check(k: float, n: int, rho_max: float = 60.0) -> float:
    """Resolution-of-identity weight on |k,n>, exactly 1 for the true measure.

    The angular integral is analytic (only the diagonal term survives) and the
    Bessel normalization cancels, leaving 4/(n! Gamma(2k+n)) times the radial
    moment, evaluated by quadrature.
    """
    return _completeness_weight(k, n, moment_integral(k, n, rho_max))


def b_ratio(k: float, rho: float) -> float:
    """I_{2k}(2 rho) / I_{2k-1}(2 rho), the mean-occupation ratio; 0 at rho=0.

    The series mean rho sum t_n / (n + 2k) / sum t_n over the window of the
    phase table that carries it, whose t_n are the terms of I_{2k-1}
    (DLMF 10.25.2): within 1e-13 of mpmath up to ``_RHO_CUT`` and wherever
    the window is cut past it (at k = 1 up to rho = 1.99e8), at a cost of
    O(sqrt rho) terms (0.2 ms at (1e-3, 1.97e5)); below rho = 1e-7 its
    leading term rho/(2k) where the next ones are below rounding
    (rho^2 < eps k(k+1)).  Past ``_RHO_CUT``, where the window is not cut,
    the quotient of e^{-2 rho} I_nu.
    A k below ``phaseops._K_MIN`` or a rho above 8.99e307 raises DomainError.
    """
    _check_k(k, "b_ratio")
    _check_rho(rho, "b_ratio")
    if _leading_term_exact(k, rho):
        # leading series behavior, which holds also at k = 1e300, where the
        # table is not cut
        return rho / (2.0 * k)
    try:
        return float(_phase_means(k, np.array([rho]), lambda n: 1.0 / (n + 2.0 * k))[0])
    except DomainError:
        if not rho > _RHO_CUT:
            raise
        return bessel_i_scaled(2.0 * k, 2.0 * rho) / bessel_i_scaled(2.0 * k - 1.0, 2.0 * rho)


def _padded_coeffs(state: BGState, minimum: int = 2) -> np.ndarray:
    # zero-padding is exact: omitted coefficients are treated as zero anyway,
    # and operator builders need at least a 2-dimensional space
    if state.dim >= minimum:
        return state.coeffs
    c = np.zeros(minimum, dtype=np.complex128)
    c[: state.dim] = state.coeffs
    return c


def _moment_tol(state: BGState, banded: bool = False) -> float:
    # The routes over the stored coefficients lose what couples the last one,
    # c = c_{dim-1}, to the omitted ones.  By the recursion the first omitted
    # coefficient is c rho / sqrt(edge), edge = dim (2k + dim - 1), and the
    # rest fall at least geometrically, so a mean loses about rho |c|^2 and a
    # second moment rho^2 |c|^2.  From dim = 2 on (shorter vectors are
    # zero-padded to 2) the banded routes also cut row dim, whose square is
    # edge |c|^2 / 4; the routes over |c_n|^2 alone read no band.
    d, k, rho = state.dim, state.k, state.rho
    edge = d * (2.0 * k + d - 1.0) if banded and d >= 2 else 0.0
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
    the direct sum over |coeffs|^2 before being returned.  A second moment
    that overflows (k above sqrt(DBL_MAX)) raises ``DomainError`` first.
    """
    k, rho = state.k, state.rho
    b = b_ratio(k, rho)
    mean = k + rho * b
    second = k * k + rho * rho + rho * b
    if second == math.inf:
        raise DomainError(
            f"k3_moments: the K3 second moment k^2 + rho^2 + rho b_k is infinite at k={k!r}, "
            f"rho={rho!r}: k^2 overflows past k = {math.sqrt(sys.float_info.max)!r}")
    variance = rho * rho * (1.0 - b * b) + (1.0 - 2.0 * k) * rho * b

    p = np.abs(state.coeffs) ** 2
    n = np.arange(state.dim)
    levels = k + n
    occupation = float(np.sum(p * n))
    second_s = float(np.sum(p * levels * levels))
    tol = _moment_tol(state)
    # the variance summed about the mean occupation: second_s - mean^2 would
    # cancel ~rho^2 digits, and k + n rounds to ulp 0.5 from k = 2^51 on
    for what, closed, summed in (
        ("K3 mean", mean, k + occupation), ("K3 second moment", second, second_s),
        ("K3 variance", variance, float(np.sum(p * (n - occupation) ** 2))),
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
    tol = _moment_tol(state, banded=True)
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


def _phase_weight(k: float):
    # w_n = (1/(n+k) + 1/(n+k+1))/2 of g at every index of n
    return lambda n: 0.5 * (1.0 / (n + k) + 1.0 / (n + k + 1.0))


def _phase_means(k: float, rho: np.ndarray, weight) -> np.ndarray:
    # rho sum t_n w_n / sum t_n per rho, with w_n = weight(n) and
    # t_n = rho^{2(n+k)} e^{-2 rho} / (n! Gamma(2k+n)), over the windows of
    # the phase table that carry it: sum_n t_n identically equals
    # rho e^{-2 rho} I_{2k-1}(2 rho), so g/I and b_k need no Bessel call and
    # hold for every k > 0.  The window about the peak near n = rho widens
    # as sqrt(rho), so past _RHO_CUT one that is not cut is refused as out of
    # the domain.
    with np.errstate(over="ignore"):  # rho^2 = inf only where no window is cut
        w = rho * rho
    try:
        return _series_means(w, 2.0 * np.log(rho), 2.0 * k, weight, rho)
    except ConvergenceError:
        top = float(rho.max())
        if top <= _RHO_CUT:
            raise
        raise DomainError(f"the phase series' window is not cut within 200000 terms at "
                          f"k={float(k)!r}, rho={top!r}: rho <= {_RHO_CUT!r} is cut at every "
                          "k, a larger rho only at a larger k") from None


def _phase_terms(k: float, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the whole phase table n = 0 .. N of g_k's series route: t_n / t_p, one
    # row per rho, the weights w_n and ln(t_p / t_0), so that sum_n t_n w_n is
    # e^{-2 rho} g(rho) once scaled by t_p
    log_w = 2.0 * np.log(rho)
    size = _series_cut(log_w, 2.0 * k) + 1
    terms, ln_peak = _peak_table(rho * rho, log_w, 2.0 * k, size)
    return terms, _phase_weight(k)(np.arange(size, dtype=np.float64)), ln_peak


def _g_quadrature(k: float, rho: float) -> tuple[float, float]:
    # e^{-2 rho} g(rho) = e^{-2 rho} [1/2 int_0^{2 rho} I(u) du
    # + 1/(8 rho^2) int_0^{2 rho} u^2 I(u) du] with I = I_{2k-1}, and its
    # error estimate.  At every node of a level at once, the ascending series
    # of e^{-2 rho} I(u) is summed in log space, over as many terms as the
    # series rule keeps at the largest node, u = 2 rho.  Its first term, in
    # u^{2k-1}, is singular at 0 for k < 1/2; in the first integral it runs in
    # w = u^beta, beta = min(2k, 1), where it is regular.  Everything else
    # runs in u: at tiny k, w would hold every u above 1e-300 in the last
    # thousand ulps below w = 1.  One rule on t in [0, 1] carries both, with
    # u = 2 rho t and w = (2 rho)^beta t.
    beta = min(2.0 * k, 1.0)
    size = _series_cut(2.0 * math.log(rho), 2.0 * k) + 1
    ln2, ln_top = math.log(2.0), math.log(2.0 * rho)
    # ln of the coefficient of u^{2m + 2k - 1}, and that exponent, formed so
    # that a tiny k is not rounded away against 2m - 1; near the ln_gamma limit
    # they pass -DBL_MAX: -inf, whose exp 0 is the term's value there
    m = np.arange(size, dtype=np.float64)
    with np.errstate(over="ignore"):
        ln_c = (-2.0 * ln2 * m - (ln_gamma(m + 1.0) + ln_gamma(2.0 * k + m))
                - (2.0 * k - 1.0) * ln2 - 2.0 * rho)[:, None]
    power = ((2.0 * np.arange(size) - 1.0) + 2.0 * k)[:, None]
    ln_w_top = beta * ln_top

    def integrand(t):
        ln_t = np.log(t)
        with np.errstate(over="ignore"):
            terms = np.exp(power * (ln_top + ln_t) + ln_c)
            # the first term in w: c_0 w^{2k/beta - 1} / beta
            lead = np.exp((2.0 * k / beta - 1.0) * (ln_w_top + ln_t) + ln_c[0]) / beta
        first = math.exp(ln_w_top) * lead + 2.0 * rho * terms[1:].sum(axis=0)
        second = 2.0 * rho * np.exp(2.0 * (ln_top + ln_t)) * terms.sum(axis=0)
        return np.stack([first, second])

    (first, second), (e1, e2) = _tanh_sinh(integrand, 1.0, 1e-12)
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
    _check_k(k, "g_k")
    check_domain("rho", rho, "nonnegative real")
    if rho == 0.0:
        return 0.0
    if not 2.0 * k < _LGAMMA_LIMIT:
        raise DomainError(f"g_k requires 2k < {_LGAMMA_LIMIT!r}, where ln Gamma(2k) of its "
                          f"series overflows, got k={k!r}")
    if rho < 1e-7 and rho * rho < sys.float_info.epsilon * k:
        # leading series term, where the next one, down by about rho^2/(2k),
        # is below rounding
        w0 = 0.5 * (1.0 / k + 1.0 / (k + 1.0))
        return w0 * math.exp(2.0 * k * math.log(rho) - ln_gamma(2.0 * k))
    if rho > 350.0:
        raise DomainError("g_k overflows past rho = 350; use ratio_gI instead")
    terms, weights, ln_peak = _phase_terms(k, np.array([rho]))
    # t_p = t_0 e^{ln_peak} with t_0 = rho^{2k} e^{-2 rho} / Gamma(2k)
    t_p = math.exp(2.0 * k * math.log(rho) - 2.0 * rho - ln_gamma(2.0 * k) + ln_peak[0])
    scaled = t_p * float(terms[0] @ weights)

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
    It is the one cell of ``kbound_scan([k], [rho])``, bit for bit, a mean
    over O(sqrt rho) terms, except below rho = 1e-7 where the series terms
    after the first are below rounding (rho^2 < eps k(k+1)): there it is the
    limit rho w_0 with w_0 = (1/k + 1/(k+1))/2.  rho above 8.99e307, where
    2 rho overflows, and past ``_RHO_CUT`` where the window is not cut raise
    DomainError.
    """
    _check_k(k, "ratio_gI")
    _check_rho(rho, "ratio_gI")
    if rho == 0.0:
        return 0.0
    if _leading_term_exact(k, rho):
        # rho w_0 limit, immune to term underflow
        return rho * 0.5 * (1.0 / k + 1.0 / (k + 1.0))
    return float(kbound_scan([k], [rho]).ratio[0, 0])


def ratio_gI_asymptote(rho: float) -> float:
    """Large-rho form of the ratio, 1 - 1/(4 rho), independent of k; rho positive real."""
    return 1.0 - 0.25 / check_domain("rho", rho)


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
    for name, closed, op in (("cos", cos_mean, pair.cos), ("sin", sin_mean, pair.sin)):
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
    independent; each cell is one series mean, rho (sum t_n w_n / sum t_n),
    over the window of the phase terms that carries it
    (``specfun._series_means``, the rule of every series mean): the rhos of
    a k, sorted, share one table per block of at most 2^16 entries, cut
    where every rho of the block has fallen below 1e-18 of its largest, so
    a cell costs O(sqrt rho) terms.  ``ratio_gI`` is the one cell of a
    one-point scan.  Every grid value must be a positive real, and every k
    at least ``phaseops._K_MIN``, the smallest normal double; a rho past
    ``_RHO_CUT`` whose window is not cut raises DomainError.
    """
    k_values = _default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)
    rho_values = (
        _default_rho_grid() if rho_grid is None else np.asarray(rho_grid, dtype=float)
    )
    if k_values.size == 0 or rho_values.size == 0:
        raise DomainError("kbound_scan requires nonempty grids")
    for value in k_values.tolist():
        _check_k(value, "kbound_scan")
    for value in rho_values.tolist():
        _check_rho(value, "kbound_scan", "positive real")

    ratio = np.empty((k_values.size, rho_values.size))
    for i, k in enumerate(k_values):
        # sum_n t_n equals rho e^{-2 rho} I_{2k-1}(2 rho) termwise, so rho
        # times the mean of the weights is g/I
        ratio[i] = _phase_means(k, rho_values, _phase_weight(k))

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
