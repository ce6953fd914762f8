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
with extended-precision diagonals (complex only for the sines) and ``k``
set only where the space carries a single index; its dense matrix is the
read-only ``entries`` view, built on first access.  Extended precision
matches the abstract builders: double-precision ladder products alone would
exceed the commutator residual budget near the truncation cut.
Every constructor verifies its output against the abstract builders (or
against a second build route) diagonal by diagonal before returning; the
three generator realizations do so through one sector rule.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistentDataError, TruncationError, check_domain, check_route
from .repalg import (
    RepLabel,
    TruncatedOperator,
    band_gap,
    banded_matvec,
    build_k3,
    build_kminus,
    build_kplus,
    commutator_gap,
)
from .phaseops import build_phase_ops
from .specfun import _log_terms, _series_cut

__all__ = [
    "HPGenerators",
    "HPPhaseOps",
    "DiracSGOps",
    "AlphaExpectations",
    "SquaredBosonOps",
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


# the former realization operator type; bench/tracer.py still imports the
# name, so the alias stays until that harness is next changed
FockOperator = TruncatedOperator


@dataclass(frozen=True)
class HPGenerators:
    """Dressed-ladder generator triple on the oscillator space."""

    kp: TruncatedOperator
    km: TruncatedOperator
    k3: TruncatedOperator
    k: float


@dataclass(frozen=True)
class HPPhaseOps:
    """Oscillator phase operators and the band profile carrying them.

    ``cos`` (real) and ``sin`` (purely imaginary) are tridiagonal.  f_k_diag
    holds F_k(n) for n = 0..dim-1, so the band entries are
    sqrt(n+1) F_k(n) / 2 up to the factor i.
    """

    cos: TruncatedOperator
    sin: TruncatedOperator
    f_k_diag: np.ndarray
    k: float
    dim: int

    # the dense views under their former names, read by the benchmark checks
    cos_op = property(lambda self: self.cos.entries)
    sin_op = property(lambda self: self.sin.entries)


@dataclass(frozen=True)
class DiracSGOps:
    """Historical phase-operator candidates, kept for comparison."""

    cos_dirac: TruncatedOperator
    sin_dirac: TruncatedOperator
    cos_sg: TruncatedOperator
    sin_sg: TruncatedOperator
    dim: int
    zero_mode_convention: str


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
class SquaredBosonOps:
    """Half-squared ladder triple with its two parity sector indices."""

    kp: TruncatedOperator
    km: TruncatedOperator
    k3: TruncatedOperator
    even_k: float
    odd_k: float


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


def _cos_sin(lower: np.ndarray, k: float | None) -> tuple[TruncatedOperator, TruncatedOperator]:
    # cos = (E + E+)/2 and sin = (E - E+)/(2i) for the lowering band E whose
    # entries (n, n+1) are ``lower``
    half, dim = 0.5 * lower, lower.size + 1
    return (TruncatedOperator(dim, k, {-1: half, 1: half}),
            TruncatedOperator(dim, k, {-1: np.clongdouble(0.5j) * lower,
                                       1: np.clongdouble(-0.5j) * lower}))


def hp_generators(k: float, dim: int) -> HPGenerators:
    """kp = a+ sqrt(N+2k), km = sqrt(N+2k) a, k3 = N + k.

    The dressing makes the single-mode triple identical to the abstract
    irrep matrices, not an approximation of them; that identity is checked
    diagonal by diagonal against the abstract builders before returning.
    """
    check_domain("k", k)
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"hp_generators requires dim >= 2, got {dim}")
    n = np.arange(dim, dtype=np.longdouble)
    # entry (n+1, n) of a+ sqrt(N+2k) and (n, n+1) of sqrt(N+2k) a
    amp = np.sqrt(n[1:]) * np.sqrt(n[:-1] + 2.0 * np.longdouble(k))
    kp, km, k3 = {-1: amp}, {1: amp}, {0: n + np.longdouble(k)}
    # the whole space is one sector
    _check_sectors(kp, km, k3, [("dressed", 0)], 1, dim, k)
    return HPGenerators(
        kp=TruncatedOperator(dim, k, kp),
        km=TruncatedOperator(dim, k, km),
        k3=TruncatedOperator(dim, k, k3),
        k=float(k),
    )


def hp_phase_ops(k: float, dim: int) -> HPPhaseOps:
    """Oscillator cos/sin operators, built twice and reconciled.

    Route one symmetrizes the ladder combinations against 1/(N+k) exactly
    as the quantization prescription dictates.  Route two contracts the
    shift identity f(N) a+ = a+ f(N+1) into the single band profile
    F_k(N) = sqrt(N+2k) (1/(N+k) + 1/(N+k+1)) / 2 and writes
    cos = (a+ F + F a)/2, sin = i (a+ F - F a)/2.  Both must agree with
    each other and with the abstract phase-operator pair to 1e-13, diagonal
    by diagonal.
    """
    return _hp_phase_ops(hp_generators(k, dim))


def _symmetrize(bands: dict, inv: np.ndarray) -> dict:
    # (inv(N) X + X inv(N))/4: entry (i, j) of X is scaled by (inv_i + inv_j)/4
    out = {}
    for d, v in bands.items():
        rows, cols = max(0, -d), max(0, d)
        out[d] = 0.25 * (inv[rows:rows + v.size] * v + v * inv[cols:cols + v.size])
    return out


def _hp_phase_ops(gens: HPGenerators) -> HPPhaseOps:
    k, dim = gens.k, gens.kp.dim
    kp, km = gens.kp.diagonals[-1], gens.km.diagonals[1]
    n = np.arange(dim, dtype=np.longdouble)
    inv = 1.0 / (n + np.longdouble(k))
    invp = 1.0 / (n + np.longdouble(k) + 1.0)

    cos_sym = _symmetrize({-1: kp, 1: km}, inv)
    sin_sym = {d: np.clongdouble(1j) * v
               for d, v in _symmetrize({-1: kp, 1: -km}, inv).items()}

    root = np.sqrt(n + 2.0 * np.longdouble(k))
    f_diag = 0.5 * root * (inv + invp)
    # F a has entries (n, n+1) = F(n) sqrt(n+1)
    cos, sin = _cos_sin(f_diag[:-1] * np.sqrt(n[1:]), k)

    pair = build_phase_ops(RepLabel(k=k), dim)
    for name, sym, band, op in (("cos", cos_sym, cos.diagonals, pair.cos_op),
                                ("sin", sin_sym, sin.diagonals, pair.sin_op)):
        for what, gap in (("symmetrized vs band profile", band_gap(sym, band)),
                          ("band profile vs abstract pair", band_gap(band, op.diagonals))):
            check_route(f"{name}: {what}: builds", gap, _MATCH_TOL, InconsistentDataError)

    f_diag.setflags(write=False)
    return HPPhaseOps(cos=cos, sin=sin, f_k_diag=f_diag, k=float(k), dim=dim)


def dirac_sg_ops(dim: int) -> DiracSGOps:
    """Shift-operator phase candidates on the truncated number basis.

    The inverse square root in the first pair is undefined on |0>; it is
    patched to annihilate that state and the record carries the convention
    note.  On the resulting operators the patched slot is unreachable (a
    kills |0> first, a+ never lands there), so the two pairs coincide
    entrywise and are symmetric despite the patch.
    """
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"dirac_sg_ops requires dim >= 2, got {dim}")
    n = np.arange(dim, dtype=np.longdouble)
    root = np.sqrt(n[1:])
    # entries (n, n+1) of a N^{-1/2}, whose patched N^{-1/2}|0> never enters,
    # and of (N+1)^{-1/2} a
    cos_d, sin_d = _cos_sin(root * (1.0 / np.sqrt(n[1:])), None)
    cos_s, sin_s = _cos_sin((1.0 / np.sqrt(n[:-1] + 1.0)) * root, None)
    return DiracSGOps(cos_dirac=cos_d, sin_dirac=sin_d, cos_sg=cos_s, sin_sg=sin_s, dim=dim,
                      zero_mode_convention="N^{-1/2}|0> mapped to 0")


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
    vector to 1e-10 before the record is returned.
    """
    check_domain("k", k)
    alpha = complex(alpha)
    r = check_domain("|alpha|", abs(alpha), "nonnegative real")
    beta = cmath.phase(alpha)
    needed = 1
    if r > 0.0:
        # the smallest count past the term peak with e^{-r^2} r^{2n}/n! below 1e-14
        needed = _series_cut(2.0 * math.log(r), None, _TAIL_LOG + r * r,
                             error=TruncationError)
    if dim is None:
        dim = needed
    elif check_domain("dim", dim, "positive integer") < needed:
        raise TruncationError(
            f"dim={dim} leaves a coherent tail above 1e-14; need at least {needed}"
        )

    if r == 0.0:
        weights = np.array([1.0])
        n = np.arange(1, dtype=np.float64)
    else:
        log_w = 2.0 * math.log(r)
        weights = np.exp(_log_terms(log_w, None, _series_cut(log_w, None) + 1) - r * r)
        n = np.arange(weights.size, dtype=np.float64)
    root = np.sqrt(n + 2.0 * k)
    h1 = float(np.sum(root * weights))
    h2 = 0.5 * r * float(np.sum(root * (1.0 / (n + k) + 1.0 / (n + k + 1.0)) * weights))
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
        log_c = 0.5 * (_log_terms(2.0 * math.log(r), None, dim) - r * r)
        c[:dim] = np.exp(log_c) * np.exp(1j * beta * m)
    gens = hp_generators(k, mdim)
    phase = _hp_phase_ops(gens)
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


def h2_curve(k: float, r_values) -> np.ndarray:
    """Vectorized phase-mean profile h2 over a radius grid; 0 at r = 0.

    One shared term table serves every radius: the Poisson weights
    exp(2n ln r - ln n! - r^2), cut where every radius' weights have fallen
    below 1e-18 of their largest, are summed against
    sqrt(n+2k) (1/(n+k) + 1/(n+k+1)) and scaled by r/2.  A k whose 2k
    overflows raises DomainError.
    """
    check_domain("k", k, message="h2_curve requires k > 0, got {value}")
    if not 2.0 * k < math.inf:
        raise DomainError(f"h2_curve requires a finite 2k, got k={k!r}")
    r = np.asarray(r_values, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise DomainError("h2_curve needs a nonempty 1-d radius grid")
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
        raise DomainError("radius grid must be finite and nonnegative")

    out = np.zeros_like(r)
    pos = r > 0.0
    if np.any(pos):
        rp = r[pos]
        log_w = 2.0 * np.log(rp)
        terms = np.exp(_log_terms(log_w, None, _series_cut(log_w, None) + 1)
                       - (rp * rp)[:, np.newaxis])
        n = np.arange(terms.shape[1], dtype=np.float64)
        w = np.sqrt(n + 2.0 * k) * (1.0 / (n + k) + 1.0 / (n + k + 1.0))
        out[pos] = 0.5 * rp * (terms @ w)
    return out


def _sector(bands, start: int, stride: int, size: int) -> dict:
    # the block on basis indices start, start + stride, ... (size of them):
    # full offset q * stride becomes block offset q, whose entries are every
    # stride-th element of that diagonal from element start on
    return {d // stride: v[start:start + (size - abs(d) // stride) * stride:stride]
            for d, v in bands.items() if d % stride == 0 and abs(d) // stride < size}


def _check_sectors(kp, km, k3, sectors, stride: int, size: int, sector_k: float) -> None:
    # each (name, start) block of kp, km, k3 (size indices, stride apart)
    # against one abstract build at sector_k
    label = RepLabel(k=sector_k)
    for what, bands, build in (("raising", kp, build_kplus), ("lowering", km, build_kminus),
                               ("compact", k3, build_k3)):
        ref = build(label, size).diagonals
        for name, start in sectors:
            gap = band_gap(_sector(bands, start, stride, size), ref)
            check_route(f"{name} {what} vs abstract: builds", gap, _MATCH_TOL,
                        InconsistentDataError)


def squared_boson(dim: int) -> SquaredBosonOps:
    """kp = (a+)^2/2, km = a^2/2, k3 = (N + 1/2)/2 on one bosonic mode.

    The lowering member annihilates |0> and |1>, so the space splits into
    parity sectors: the even one carries Bargmann index 1/4 and the odd
    one 3/4, verified diagonal by diagonal against the abstract builders
    on each sector.
    """
    if check_domain("dim", dim, "positive integer") < 4:
        raise DomainError(f"squared_boson requires dim >= 4, got {dim}")
    n = np.arange(dim, dtype=np.longdouble)
    root = np.sqrt(n[1:])
    # entry (n+2, n) of (a+)^2/2 and (n, n+2) of a^2/2
    amp = 0.5 * (root[1:] * root[:-1])
    kp, km, k3 = {-2: amp}, {2: amp}, {0: 0.5 * n + 0.25}

    for parity, start, sector_k in (("even", 0, 0.25), ("odd", 1, 0.75)):
        _check_sectors(kp, km, k3, [(f"{parity} sector", start)], 2,
                       len(range(start, dim, 2)), sector_k)

    return SquaredBosonOps(
        kp=TruncatedOperator(dim, None, kp),
        km=TruncatedOperator(dim, None, km),
        k3=TruncatedOperator(dim, None, k3),
        even_k=0.25,
        odd_k=0.75,
    )


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
    root = np.sqrt(np.arange(1, d, dtype=np.longdouble))
    # entry (n1+1, n2+1; n1, n2) is sqrt(n1+1) sqrt(n2+1); row-major over
    # (n1, n2) that is the outer product, with n2 = d - 1 as the zero column
    amp = np.outer(root, np.append(root, 0.0)).ravel()[:-1]
    kp, km = {-(d + 1): amp}, {d + 1: amp}
    n1 = np.repeat(np.arange(d), d)
    n2 = np.tile(np.arange(d), d)
    k3 = {0: 0.5 * (n1 + n2 + 1).astype(np.longdouble)}

    # sectors s and -s share k = (1 + |s|)/2 and size d - |s|, so one
    # abstract build serves both; s starts at (s, 0), -s at (0, s), and
    # each steps by (1, 1)
    for m in range(d - 1):
        sectors = [("sector 0", 0)] if m == 0 else [(f"sector {-m}", m), (f"sector {m}", m * d)]
        _check_sectors(kp, km, k3, sectors, d + 1, d - m, 0.5 + m / 2.0)
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
