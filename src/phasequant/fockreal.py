"""Bosonic realizations of the algebra on truncated Fock spaces.

A single mode supplies four constructions.  The square-root-dressed ladder
(kp = a+ sqrt(N+2k)) reproduces the abstract irrep for any Bargmann index
and yields explicit cos/sin matrices for the oscillator; the historical
shift-operator candidates it approximates are built alongside for
comparison.  The squared-boson pair carries the two smallest indices on
the parity sectors, and the two-mode product realization sweeps out every
half-integer index at once, one per fixed photon-number difference.

Every operator here, generator or phase operator, is one to three
diagonals and so a ``repalg.TruncatedOperator`` like the abstract ones,
with diagonals in the ``repalg`` storage precision, read from that module
when a builder runs (the ``repalg`` module docstring says why; complex
only for the sines), and ``k`` set only where the space carries a single
index; its dense matrix is the read-only ``entries`` view, built on first
access.  A
single-space generator triple is a ``Generators(kp, km, k3)``; the
two-mode triple is a ``TwoModeOps`` with its sector table.  The
oscillator and historical cos/sin pairs are each held, like the abstract
pair, as the record ``PhaseOperatorPair(lower, k, omega)`` of their
lowering band.  Every realization is verified against the abstract
builders diagonal by diagonal before returning; the three generator
realizations do so through one sector rule on their raising and compact
blocks, as each one's km holds the same array as its kp.

The oscillator's coherent-state means sum the O(r) terms of the Poisson
window about n = r^2 that carries each radius r; the matrix route of
``alpha_expectations`` reads its bands at those n alone, from the one
expression the two builders evaluate at n = 0 .. dim - 1.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import repalg
from .errors import ConvergenceError, DomainError, InconsistentDataError, check_domain, check_route
from .repalg import (
    RepLabel,
    TruncatedOperator,
    band_gap,
    banded_matvec,
    build_k3,
    build_kplus,
    commutator_gap,
)
from .phaseops import PhaseOperatorPair, _check_k, build_phase_ops
from .specfun import _series_blocks, _weighted_means

__all__ = [
    "Generators",
    "AlphaExpectations",
    "TwoModeBasisIndex",
    "TwoModeOps",
    "hp_generators",
    "hp_phase_ops",
    "dirac_sg_ops",
    "alpha_expectations",
    "h2_curve",
    "squared_boson",
    "two_mode",
]

_MATCH_TOL = 1e-13
_COMM_TOL = 1e-12
_ROUTE_TOL = 1e-10
# the Poisson window of every k is cut within specfun's 200000 terms up to
# this r; the smallest k widens it most.  Bisected to the double, it is not
# cut from r = 5332.868669756628 at phaseops._K_MIN, 10415.347449835821 at
# k = 1/2, 10427.577722055998 at k = 1 and 10983.434677500605 at k = 1e100
_R_CUT = 5332.8


# the former realization operator type; bench/tracer.py still imports the
# name, so the alias stays until that harness is next changed
FockOperator = TruncatedOperator


@dataclass(frozen=True)
class Generators:
    """Raising, lowering and compact generators on one truncated space."""

    kp: TruncatedOperator
    km: TruncatedOperator
    k3: TruncatedOperator


@dataclass(frozen=True)
class AlphaExpectations:
    """Oscillator coherent-state expectations of the dressed generators."""

    mean_k1: float
    mean_k2: float
    mean_k3: float
    h1: float
    h2: float
    cos_mean: float
    sin_mean: float


@dataclass(frozen=True)
class TwoModeBasisIndex:
    """Tensor basis element (n1, n2) with the sector it lies in."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise DomainError(f"occupation numbers must be >= 0, got ({self.n1}, {self.n2})")

    @property
    def sector(self) -> int:
        """Photon-number difference n1 - n2, constant under the triple."""
        return self.n1 - self.n2

    @property
    def irrep_k(self) -> float:
        """Bargmann index 1/2 + |n1 - n2|/2 of the sector."""
        return 0.5 + abs(self.sector) / 2.0

    @property
    def irrep_n(self) -> int:
        """Level min(n1, n2) within the sector's irrep."""
        return min(self.n1, self.n2)


@dataclass(frozen=True)
class TwoModeOps:
    """Product-realization triple with the exhaustive sector table."""

    k3: TruncatedOperator
    kp: TruncatedOperator
    km: TruncatedOperator
    sector_table: tuple
    dim_per_mode: int


def _dressed_bands(k: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the oscillator's bands over the consecutive basis indices n (in
    # repalg._REAL), for the builders at n = 0 .. dim - 1 and for the window
    # of alpha_expectations: the entries (n+1, n) = sqrt(n+1) sqrt(n+2k) of
    # a+ sqrt(N+2k), the diagonal n + k of N + k, and the entries
    # (n, n+1) = F_k(n) sqrt(n+1) of the phase pair's lowering band F a
    root2k = np.sqrt(n + 2.0 * repalg._REAL(k))
    root = np.sqrt(n[1:])
    k3 = n + k
    f_diag = 0.5 * root2k * (1.0 / k3 + 1.0 / (k3 + 1.0))
    return root * root2k[:-1], k3, f_diag[:-1] * root


def hp_generators(k: float, dim: int) -> Generators:
    """kp = a+ sqrt(N+2k), km = sqrt(N+2k) a, k3 = N + k.

    The dressing makes the single-mode triple identical to the abstract
    irrep matrices, not an approximation of them; that identity is checked
    diagonal by diagonal against the abstract builders before returning.
    """
    k = check_domain("k", k)
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"hp_generators requires dim >= 2, got {dim}")
    amp, k3, _ = _dressed_bands(k, np.arange(dim, dtype=repalg._REAL))
    kp, km, k3 = {-1: amp}, {1: amp}, {0: k3}
    # the whole space is one sector
    _check_sectors(kp, k3, [("dressed", 0)], 1, dim, k)
    return Generators(*(TruncatedOperator(dim, k, bands) for bands in (kp, km, k3)))


def hp_phase_ops(k: float, dim: int) -> PhaseOperatorPair:
    """Oscillator cos/sin pair from its band profile, checked against the abstract pair.

    The shift identity f(N) a+ = a+ f(N+1) contracts the ladder combinations
    symmetrized against 1/(N+k) into the single band profile
    F_k(N) = sqrt(N+2k) (1/(N+k) + 1/(N+k+1)) / 2, so that
    cos = (a+ F + F a)/2 and sin = i (a+ F - F a)/2 share the lowering band
    F a.  Its cos must agree with the abstract phase-operator pair to
    1e-13 * max(1, max|E|/2), relative to its largest entry once that passes
    1, entry by entry: half the gap of the two bands, as sin is formed from
    the same band.
    """
    k = check_domain("k", k)
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"hp_phase_ops requires dim >= 2, got {dim}")
    pair = PhaseOperatorPair(_dressed_bands(k, np.arange(dim, dtype=repalg._REAL))[2], k)
    # cos is E/2, so its gap is half the gap of the bands; the tolerance is
    # relative to its largest entry max|E|/2, as in build_phase_ops: that
    # grows like sqrt(2/k)/4 as k shrinks
    tol = _MATCH_TOL * max(1.0, float(np.max(np.abs(pair.lower))) / 2.0)
    gap = 0.5 * band_gap({1: pair.lower}, {1: build_phase_ops(RepLabel(k=k), dim).lower})
    check_route("cos: band profile vs abstract pair: builds", gap, tol, InconsistentDataError)
    return pair


def dirac_sg_ops(dim: int) -> tuple[PhaseOperatorPair, PhaseOperatorPair]:
    """Shift-operator phase candidates (dirac, sg) on the truncated number basis.

    The Dirac pair is built from a N^{-1/2}, the Susskind-Glogower pair from
    (N+1)^{-1/2} a.  The inverse square root is undefined on |0>; by
    convention N^{-1/2}|0> is mapped to 0.  On the resulting operators the
    patched slot is unreachable (a kills |0> first, a+ never lands there),
    so the two pairs coincide entrywise and are symmetric despite the patch.
    Neither space carries a single index, so both pairs have k None.
    """
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"dirac_sg_ops requires dim >= 2, got {dim}")
    n = np.arange(dim, dtype=repalg._REAL)
    root = np.sqrt(n[1:])
    # entries (n, n+1) of a N^{-1/2}, whose patched N^{-1/2}|0> never enters,
    # and of (N+1)^{-1/2} a
    return (PhaseOperatorPair(root * (1.0 / np.sqrt(n[1:])), None),
            PhaseOperatorPair((1.0 / np.sqrt(n[:-1] + 1.0)) * root, None))


def _expect(bands, c: np.ndarray) -> complex:
    # <c| A |c> with A given by its diagonals, evaluated in the precision of c
    return np.vdot(c, banded_matvec(bands, c))


def alpha_expectations(k: float, alpha: complex) -> AlphaExpectations:
    """Oscillator coherent-state expectations of generators and phase ops.

    Closed forms factor the angular dependence out front and leave two
    radial series: h1 = <sqrt(N+2k)> scales the K1/K2 means and
    h2 = (r/2) <sqrt(N+2k)(1/(N+k)+1/(N+k+1))> the phase means, while
    <K3> = r^2 + k needs no series at all.  h1 and h2 are ``h2_curve``'s
    means over the window n = lo .. hi of the Poisson weights t_n that
    carries r = |alpha|.  Each closed value must match to 1e-10 the matrix
    expectation over c_n = sqrt(t_n / sum t) e^{i beta (n - lo)} on that
    window, with the dressed ladder, N + k and the phase band read at those
    n (the common phase e^{i beta lo} cancels).  An r whose window is not
    cut within 200000 terms raises DomainError, as in ``h2_curve``.
    """
    _check_k(k, "alpha_expectations")
    alpha = complex(alpha)
    r = check_domain("|alpha|", abs(alpha), "nonnegative real")
    beta = cmath.phase(alpha)
    (_, n, terms, means), = _radial_sums(k, np.array([r]))
    h1, h2 = means[0].tolist()
    mean_k1 = r * math.cos(beta) * h1
    mean_k2 = -r * math.sin(beta) * h1
    mean_k3 = r * r + k
    cos_mean = math.cos(beta) * h2
    sin_mean = math.sin(beta) * h2

    # divided by their own total, as the closed forms' weights are; the
    # phase counts from lo, as beta n in doubles at n ~ r^2 is off by ~1e-8
    c = np.sqrt(terms[0] / np.sum(terms[0])) * np.exp(1j * beta * np.arange(n.size))
    ladder, k3, lower = _dressed_bands(k, n.astype(repalg._REAL))
    phase = PhaseOperatorPair(lower, k)
    kp_c, km_c = _expect({-1: ladder}, c), _expect({1: ladder}, c)
    pairs = (
        ("K1 mean", mean_k1, float(np.real(kp_c + km_c)) / 2.0),
        ("K2 mean", mean_k2, float(np.real((kp_c - km_c) / 2.0j))),
        ("K3 mean", mean_k3, float(np.real(_expect({0: k3}, c)))),
        ("cos mean", cos_mean, float(np.real(_expect(phase.cos.diagonals, c)))),
        ("sin mean", sin_mean, float(np.real(_expect(phase.sin.diagonals, c)))),
    )
    for what, closed, summed in pairs:
        check_route(f"{what}: closed form and matrix value", abs(closed - summed),
                    _ROUTE_TOL * max(1.0, abs(closed)), context=f"({closed!r} vs {summed!r})")
    return AlphaExpectations(
        mean_k1=mean_k1, mean_k2=mean_k2, mean_k3=mean_k3,
        h1=h1, h2=h2, cos_mean=cos_mean, sin_mean=sin_mean,
    )


def _ln_poisson(lo: float, w: np.ndarray) -> np.ndarray:
    # ln(e^{-w} w^lo / lo!), lo a whole number below every w, in O(1) and
    # without the terms of size w ln w that cancel in lo ln w - w - ln lo!:
    # with x = (w - lo) / lo it is lo (ln(1 + x) - x) - c, where
    # c = ln lo! - lo ln lo + lo = ln(2 pi lo)/2 + 1/(12 lo) - 1/(360 lo^3) + ...
    # (Stirling, DLMF 5.11.1; from lo = 16 on the first term left out is
    # below 1.1e-16)
    if lo == 0:
        return -w
    if lo < 16:
        c = math.lgamma(lo + 1.0) - lo * math.log(lo) + lo
    else:
        z = 1.0 / lo
        c = 0.5 * math.log(2.0 * math.pi * lo) + z * np.polyval(
            [1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0], z * z)
    x = (w - lo) / lo
    return lo * (np.log1p(x) - x) - c


def _radial_sums(k: float, r: np.ndarray):
    # (rows, n, t_n / t_p, [h1, h2]) per block of specfun._series_blocks'
    # windowed tables of the Poisson weights e^{-r^2} r^{2n} / n! of the radii
    # r: h1 = <sqrt(N+2k)> and h2 = (r/2) <sqrt(N+2k)(1/(N+k)+1/(N+k+1))>,
    # over the weights divided by their own total, so their common rounding
    # cancels.  A radius whose window is not cut raises DomainError
    with np.errstate(divide="ignore", over="ignore"):  # ln 0; r^2 = inf is not cut
        r2, log_w = r * r, 2.0 * np.log(r)
    factor = np.column_stack([np.ones_like(r), 0.5 * r])

    def weights(n):
        root = np.sqrt(n + 2.0 * k)
        return root, root * (1.0 / (n + k) + 1.0 / (n + k + 1.0))

    try:
        for rows, n, terms, ln_peak in _series_blocks(r2, log_w, None, weights):
            means, total = _weighted_means(terms, weights(n), factor[rows])
            # the one check the division does not share: the raw total is 1 up
            # to the dropped tails and to rounding.  ln(e^{-w} t_p) is ln_peak
            # = ln(t_p / t_lo) plus ln(e^{-w} t_lo) (_ln_poisson).  Past the
            # last kept term t_N the terms fall by q = w/(N+1) and below the
            # first, t_lo, by s = lo/w, so the tails are below t_N q/(1 - q)
            # and t_lo s/(1 - s), none at lo = 0.  The rounding is a few ulp of
            # the sum, about one per term ratio that the table multiplies out
            # or whose log it sums (fewer than N - lo), that of ln(t_p / t_lo)
            # itself and that of _ln_poisson, of size w - lo < N - lo.  Over k
            # from _K_MIN to 1e300 and r up to 5300 the deviation reached 0.37
            # of this tolerance
            lo, hi, w = n[0], n[-1], r2[rows]
            ln_scale = _ln_poisson(lo, w) + ln_peak
            q = w / (hi + 1.0)
            tails = terms[:, -1] * q / (1.0 - q)
            if lo:
                tails += terms[:, 0] * (lo / w) / (1.0 - lo / w)
            tol = np.exp(ln_scale) * tails + math.ulp(1.0) * (4.0 + 2.0 * (hi - lo + ln_peak))
            deviation = np.abs(np.expm1(np.log(total) + ln_scale))
            i = int(np.argmax(~(deviation <= tol)))
            check_route("Poisson weights: raw total and 1", deviation[i], tol[i],
                        context=f"at r={float(r[rows][i])!r}")
            yield rows, n, terms, means
    except ConvergenceError:
        top = float(r.max())
        if top <= _R_CUT:
            raise
        raise DomainError(f"the Poisson series' window is not cut within 200000 terms at "
                          f"k={float(k)!r}, r={top!r}: r <= {_R_CUT!r} is cut at every k, "
                          "a larger r only at a larger k") from None


def h2_curve(k: float, r_values) -> np.ndarray:
    """Vectorized phase-mean profile h2 over a radius grid; 0 at r = 0.

    h2 = (r/2) <sqrt(N+2k)(1/(N+k)+1/(N+k+1))> over the Poisson weights
    e^{-r^2} r^{2n} / n! divided by their own total, each radius over the
    window of n that carries it, O(r) terms (``specfun._series_blocks``);
    their raw total must be 1 to within the dropped tails and rounding
    (TruncationError otherwise).  ``alpha_expectations`` takes its h2 from
    the same means, bit for bit.  A k below ``phaseops._K_MIN`` or whose 2k
    overflows, and an r whose window is not cut within 200000 terms, raise
    DomainError: r up to ``_R_CUT`` = 5332.8 is cut at every k, up to 10415
    at k = 1/2 and 10427 at k = 1.
    """
    _check_k(k, "h2_curve", "h2_curve requires k > 0, got {value}")
    if not 2.0 * k < math.inf:
        raise DomainError(f"h2_curve requires a finite 2k, got k={k!r}")
    r = np.asarray(r_values, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise DomainError("h2_curve needs a nonempty 1-d radius grid")
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
        raise DomainError("radius grid must be finite and nonnegative")
    # the vacuum r = 0 has h2 = 0
    h2 = np.zeros_like(r)
    pos = np.flatnonzero(r > 0.0)
    if pos.size:
        for rows, _, _, means in _radial_sums(k, r[pos]):
            h2[pos[rows]] = means[:, 1]
    return h2


def _sector(bands, start: int, stride: int, size: int) -> dict:
    # the block on basis indices start, start + stride, ... (size of them):
    # full offset q * stride becomes block offset q, whose entries are every
    # stride-th element of that diagonal from element start on
    return {d // stride: v[start:start + (size - abs(d) // stride) * stride:stride]
            for d, v in bands.items() if d % stride == 0 and abs(d) // stride < size}


def _check_sectors(kp, k3, sectors, stride: int, size: int, sector_k: float) -> None:
    # each (name, start) block of kp and k3 (size indices, stride apart)
    # against one abstract build at sector_k.  Every realization's km holds
    # the same array as its kp, and the abstract K- at omega = 1 is the same
    # ladder as K+, so a K- block would repeat the raising check
    label = RepLabel(k=sector_k)
    for what, bands, build in (("raising", kp, build_kplus), ("compact", k3, build_k3)):
        ref = build(label, size).diagonals
        for name, start in sectors:
            gap = band_gap(_sector(bands, start, stride, size), ref)
            check_route(f"{name} {what} vs abstract: builds", gap, _MATCH_TOL,
                        InconsistentDataError)


def squared_boson(dim: int) -> Generators:
    """kp = (a+)^2/2, km = a^2/2, k3 = (N + 1/2)/2 on one bosonic mode.

    The lowering member annihilates |0> and |1>, so the space splits into
    parity sectors: the even one carries Bargmann index 1/4 and the odd
    one 3/4, verified diagonal by diagonal against the abstract builders
    on each sector.
    """
    if check_domain("dim", dim, "positive integer") < 4:
        raise DomainError(f"squared_boson requires dim >= 4, got {dim}")
    n = np.arange(dim, dtype=repalg._REAL)
    root = np.sqrt(n[1:])
    # entry (n+2, n) of (a+)^2/2 and (n, n+2) of a^2/2
    amp = 0.5 * (root[1:] * root[:-1])
    kp, km, k3 = {-2: amp}, {2: amp}, {0: 0.5 * n + 0.25}

    for parity, start, sector_k in (("even", 0, 0.25), ("odd", 1, 0.75)):
        _check_sectors(kp, k3, [(f"{parity} sector", start)], 2,
                       len(range(start, dim, 2)), sector_k)

    return Generators(*(TruncatedOperator(dim, None, bands) for bands in (kp, km, k3)))


def two_mode(dim_per_mode: int) -> TwoModeOps:
    """kp = a1+ a2+, km = a1 a2, k3 = (N1 + N2 + 1)/2 on two modes.

    The flattened basis index is n1 * dim_per_mode + n2, so K+ and K- are the
    diagonals -(d+1) and d+1, zero at the wrap-around slots n2 = d - 1.
    Every basis element lands in exactly one sector n1 - n2 = const, which
    carries Bargmann index 1/2 + |n1-n2|/2 with internal level min(n1, n2).
    A sector is a stride-(d+1) run of the flattened basis, so its block is
    read as strided slices of the diagonals; it is truncated squarely by the
    per-mode cut and therefore matches the abstract builders on the full
    block, while the commutator check must stay on the interior window
    max(n1, n2) <= dim_per_mode-2.
    """
    d = dim_per_mode
    if check_domain("dim_per_mode", d, "positive integer") < 2:
        raise DomainError(f"two_mode requires dim_per_mode >= 2, got {d}")
    root = np.sqrt(np.arange(1, d, dtype=repalg._REAL))
    # entry (n1+1, n2+1; n1, n2) is sqrt(n1+1) sqrt(n2+1); row-major over
    # (n1, n2) that is the outer product, with n2 = d - 1 as the zero column
    amp = np.outer(root, np.append(root, 0.0)).ravel()[:-1]
    kp, km = {-(d + 1): amp}, {d + 1: amp}
    n1 = np.repeat(np.arange(d), d)
    n2 = np.tile(np.arange(d), d)
    k3 = {0: 0.5 * (n1 + n2 + 1).astype(repalg._REAL)}

    # sectors s and -s share k = (1 + |s|)/2 and size d - |s|, so one
    # abstract build serves both; s starts at (s, 0), -s at (0, s), and
    # each steps by (1, 1)
    for m in range(d - 1):
        sectors = [("sector 0", 0)] if m == 0 else [(f"sector {-m}", m), (f"sector {m}", m * d)]
        _check_sectors(kp, k3, sectors, d + 1, d - m, 0.5 + m / 2.0)
    for s, start in ((1 - d, d - 1), (d - 1, (d - 1) * d)):
        check_route(f"corner sector {s}: compact eigenvalue and sector k",
                    abs(float(k3[0][start]) - (0.5 + (d - 1) / 2.0)), 0.0, InconsistentDataError)

    inside = np.maximum(n1, n2) <= d - 2
    check_route("two-mode interior commutators and their algebra values", np.max([
        commutator_gap(kp, km, {0: -2.0 * k3[0]}, d * d, inside),
        commutator_gap(k3, kp, kp, d * d, inside),
        commutator_gap(k3, km, {d + 1: -km[d + 1]}, d * d, inside),
    ]), _COMM_TOL, InconsistentDataError)

    return TwoModeOps(
        k3=TruncatedOperator(d * d, None, k3),
        kp=TruncatedOperator(d * d, None, kp),
        km=TruncatedOperator(d * d, None, km),
        sector_table=tuple(TwoModeBasisIndex(i, j) for i in range(d) for j in range(d)),
        dim_per_mode=d,
    )
