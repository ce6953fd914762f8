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
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import repalg
from .errors import DomainError, InconsistentDataError, TruncationError, check_domain, check_route
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
from .specfun import _peak_table, _series_blocks, _series_cut, _weighted_means

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
_TAIL_LOG = math.log(1e-14)
# the largest radius, rounded down, whose Poisson series from n = 0 (cut at
# 1e-18 of its largest term) ends within the 200000-term budget of
# specfun._series_cut: the cut fails from r = 442.6685044711 on.  h1 and h2
# sum only a window of it, which reaches further, but alpha_expectations
# tabulates the state from n = 0, and h2_curve keeps the same domain
_R_MAX = 442.668


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


def hp_generators(k: float, dim: int) -> Generators:
    """kp = a+ sqrt(N+2k), km = sqrt(N+2k) a, k3 = N + k.

    The dressing makes the single-mode triple identical to the abstract
    irrep matrices, not an approximation of them; that identity is checked
    diagonal by diagonal against the abstract builders before returning.
    """
    k = check_domain("k", k)
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"hp_generators requires dim >= 2, got {dim}")
    n = np.arange(dim, dtype=repalg._REAL)
    # entry (n+1, n) of a+ sqrt(N+2k) and (n, n+1) of sqrt(N+2k) a
    amp = np.sqrt(n[1:]) * np.sqrt(n[:-1] + 2.0 * repalg._REAL(k))
    kp, km, k3 = {-1: amp}, {1: amp}, {0: n + k}
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
    n = np.arange(dim, dtype=repalg._REAL)
    inv = 1.0 / (n + k)
    invp = 1.0 / (n + k + 1.0)
    f_diag = 0.5 * np.sqrt(n + 2.0 * repalg._REAL(k)) * (inv + invp)
    # F a has entries (n, n+1) = F(n) sqrt(n+1)
    pair = PhaseOperatorPair(f_diag[:-1] * np.sqrt(n[1:]), k)

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


def _check_radius(r: float, caller: str) -> None:
    if not r <= _R_MAX:
        raise DomainError(f"{caller} requires r <= {_R_MAX!r}, where the Poisson series "
                          f"of h1 and h2 is cut within 200000 terms, got r={r!r}")


def _coherent_dim(r: float) -> int:
    # The smallest count N past the term peak whose dropped Poisson weight
    # sum_{n >= N} e^{-r^2} r^{2n}/n! is below 1e-14.  Past the peak each
    # term is at most r^2/(N+1) of the one before, so that weight is at most
    # t_N / (1 - r^2/(N+1)): the first cut N0 has t_N0 below 1e-14, and the
    # second lowers the tolerance by that factor at N0, which holds at N >= N0.
    log_w, log_tol = 2.0 * math.log(r), _TAIL_LOG + r * r
    first = _series_cut(log_w, None, log_tol, error=TruncationError)
    return _series_cut(log_w, None, log_tol + math.log1p(-r * r / (first + 1.0)),
                       error=TruncationError)


def _expect(bands, c: np.ndarray) -> complex:
    # <c| A |c> with A given by its diagonals, evaluated in the precision of c
    return np.vdot(c, banded_matvec(bands, c))


def alpha_expectations(k: float, alpha: complex, dim: int | None = None) -> AlphaExpectations:
    """Oscillator coherent-state expectations of generators and phase ops.

    Closed forms factor the angular dependence out front and leave two
    radial series: h1 = <sqrt(N+2k)> scales the K1/K2 means and
    h2 = (r/2) <sqrt(N+2k)(1/(N+k)+1/(N+k+1))> the phase means, while
    <K3> = r^2 + k needs no series at all.  Each closed value is
    reconciled with the matrix expectation over the truncated coherent
    vector, its weights divided by their own total as h1 and h2 are, to
    1e-10 before the record is returned.  An r = |alpha| past
    442.668, where the radial series is no longer cut within 200000 terms,
    raises DomainError before any series is summed.
    """
    _check_k(k, "alpha_expectations")
    alpha = complex(alpha)
    r = check_domain("|alpha|", abs(alpha), "nonnegative real")
    _check_radius(r, "alpha_expectations")
    beta = cmath.phase(alpha)
    needed = _coherent_dim(r) if r > 0.0 else 1
    if dim is None:
        dim = needed
    elif check_domain("dim", dim, "positive integer") < needed:
        raise TruncationError(
            f"dim={dim} leaves a coherent tail above 1e-14; need at least {needed}"
        )

    h1, h2 = (float(h[0]) for h in _radial_sums(k, np.array([r])))
    mean_k1 = r * math.cos(beta) * h1
    mean_k2 = -r * math.sin(beta) * h1
    mean_k3 = r * r + k
    cos_mean = math.cos(beta) * h2
    sin_mean = math.sin(beta) * h2

    mdim = max(dim, 2)
    c = np.zeros(mdim, dtype=np.complex128)
    if r == 0.0:
        c[0] = 1.0
    else:
        m = np.arange(dim, dtype=np.float64)
        weights = _peak_table(r * r, 2.0 * math.log(r), None, dim)[0][0]
        # divided by their own total, as the closed forms' weights are
        c[:dim] = np.sqrt(weights / np.sum(weights)) * np.exp(1j * beta * m)
    gens, phase = hp_generators(k, mdim), hp_phase_ops(k, mdim)
    kp_c, km_c = _expect(gens.kp.diagonals, c), _expect(gens.km.diagonals, c)
    pairs = (
        ("K1 mean", mean_k1, float(np.real(kp_c + km_c)) / 2.0),
        ("K2 mean", mean_k2, float(np.real((kp_c - km_c) / 2.0j))),
        ("K3 mean", mean_k3, float(np.real(_expect(gens.k3.diagonals, c)))),
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


def _radial_sums(k: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # h1 = <sqrt(N+2k)> and h2 = (r/2) <sqrt(N+2k)(1/(N+k)+1/(N+k+1))> at
    # every radius of r: two means over the windowed tables of the Poisson
    # weights e^{-r^2} r^{2n} / n!, cut where every radius of a block has
    # fallen below 1e-18 of its largest, and divided by their own total, so
    # the rounding common to every weight cancels; the vacuum r = 0 has
    # h1 = sqrt(2k), h2 = 0
    h1 = np.full_like(r, math.sqrt(2.0 * k))
    h2 = np.zeros_like(r)
    pos = np.flatnonzero(r > 0.0)
    if pos.size:
        rp = r[pos]
        r2 = rp * rp
        log_w = 2.0 * np.log(rp)
        factor = np.column_stack([np.ones_like(rp), 0.5 * rp])

        def weights(n):
            root = np.sqrt(n + 2.0 * k)
            return root, root * (1.0 / (n + k) + 1.0 / (n + k + 1.0))

        for rows, n, terms, ln_peak in _series_blocks(r2, log_w, None, weights):
            means, total = _weighted_means(terms, weights(n), factor[rows])
            h1[pos[rows]], h2[pos[rows]] = means.T
            # the one check the division does not share: the raw total is 1 up
            # to the dropped tails and to rounding.  ln(t_p / t_0) adds
            # ln(t_lo / t_0) = sum_{m <= lo} ln(w / m), summed once for the
            # block's first row and moved by lo ln(w / w_ref) to each other.
            # Past the last kept term t_N the terms fall by q = r^2/(N+1) and
            # below the first, t_lo, by s = lo/r^2, so the tails are below
            # t_N q/(1 - q) and t_lo s/(1 - s); the rounding is a few ulp of
            # the sum, plus that of ln(t_p / t_0) - r^2, of size about
            # r^2 (1 + ln r^2)
            lo, w, log_wb = n[0], r2[rows], log_w[rows]
            w_ref = w[0]
            ln_lo = np.sum(np.log(w_ref / np.arange(1.0, lo + 1.0))) + lo * np.log(w / w_ref)
            ln_scale = ln_lo + ln_peak - w
            q, s = w / (n[-1] + 1.0), lo / w
            tol = (np.exp(ln_scale) * (terms[:, -1] * q / (1.0 - q) + terms[:, 0] * s / (1.0 - s))
                   + math.ulp(1.0) * (4.0 + w * (1.0 + log_wb)))
            deviation = np.abs(np.expm1(np.log(total) + ln_scale))
            i = int(np.argmax(~(deviation <= tol)))
            check_route("Poisson weights: raw total and 1", deviation[i], tol[i],
                        context=f"at r={float(rp[rows][i])!r}")
    return h1, h2


def h2_curve(k: float, r_values) -> np.ndarray:
    """Vectorized phase-mean profile h2 over a radius grid; 0 at r = 0.

    h2 = (r/2) <sqrt(N+2k)(1/(N+k)+1/(N+k+1))> over the Poisson weights
    e^{-r^2} r^{2n} / n!, each radius over the window of n that carries it:
    the radii, sorted, share one table per block of at most 2^16 entries
    (``specfun._series_blocks``), so a radius costs O(r) terms.
    ``specfun._weighted_means`` forms it, with the rule of every series
    mean: the weights are divided by their own total.  The raw total must be
    1 to within the dropped tails and rounding (TruncationError otherwise).
    ``alpha_expectations`` takes its h2 from the same means, so the two
    agree bit for bit.  A subnormal k (below ``phaseops._K_MIN``), a k
    whose 2k overflows and an r past 442.668, the one radius limit of
    ``alpha_expectations``, whose state table is cut within 200000 terms,
    raise DomainError.
    """
    _check_k(k, "h2_curve", "h2_curve requires k > 0, got {value}")
    if not 2.0 * k < math.inf:
        raise DomainError(f"h2_curve requires a finite 2k, got k={k!r}")
    r = np.asarray(r_values, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise DomainError("h2_curve needs a nonempty 1-d radius grid")
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
        raise DomainError("radius grid must be finite and nonnegative")
    _check_radius(float(np.max(r)), "h2_curve")
    return _radial_sums(k, r)[1]


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
