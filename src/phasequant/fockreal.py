"""Bosonic realizations of the algebra on truncated Fock spaces.

A single mode supplies four constructions.  The square-root-dressed ladder
(kp = a+ sqrt(N+2k)) reproduces the abstract irrep for any Bargmann index
and yields explicit cos/sin matrices for the oscillator; the historical
shift-operator candidates it approximates are built alongside for
comparison.  The squared-boson pair carries the two smallest indices on
the parity sectors, and the two-mode product realization sweeps out every
half-integer index at once, one per fixed photon-number difference.

Entries are kept in extended precision, matching the abstract builders:
double-precision ladder products alone would exceed the commutator
residual budget near the truncation cut.  Every constructor verifies its
output against the abstract matrices (or against a second build route)
entry by entry before returning.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistentDataError, TruncationError
from .repalg import RepLabel, build_k3, build_kminus, build_kplus, commutator_gap
from .phaseops import build_phase_ops
from .specfun import ln_gamma

__all__ = [
    "REALIZATION_TAGS",
    "FockOperator",
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
    "sector_table_csv_lines",
]

REALIZATION_TAGS = (
    "holstein_primakoff",
    "dirac",
    "susskind_glogower",
    "squared_boson",
    "two_mode",
)

_MATCH_TOL = 1e-13
_COMM_TOL = 1e-12
_ROUTE_TOL = 1e-10
_TAIL_LOG = math.log(1e-14)
_MAX_TERMS = 200_000


@dataclass(frozen=True)
class FockOperator:
    """Real matrix acting on the first ``dim`` oscillator number states."""

    dim: int
    entries: np.ndarray
    realization_tag: str

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        if self.realization_tag not in REALIZATION_TAGS:
            raise DomainError(
                f"realization_tag must be one of {REALIZATION_TAGS}, "
                f"got {self.realization_tag!r}"
            )
        arr = np.array(self.entries, dtype=np.longdouble)
        if arr.shape != (self.dim, self.dim):
            raise DomainError(
                f"entries shape {arr.shape} does not match dim {self.dim}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class HPGenerators:
    """Dressed-ladder generator triple on the oscillator space."""

    kp: FockOperator
    km: FockOperator
    k3: FockOperator
    k: float


@dataclass(frozen=True)
class HPPhaseOps:
    """Oscillator phase matrices and the band profile carrying them.

    cos_op is real and sin_op purely imaginary off the diagonal; both are
    stored in extended precision.  f_k_diag holds F_k(n) for n = 0..dim-1,
    so the band entries are sqrt(n+1) F_k(n) / 2 up to the factor i.
    """

    cos_op: np.ndarray
    sin_op: np.ndarray
    f_k_diag: np.ndarray
    k: float
    dim: int


@dataclass(frozen=True)
class DiracSGOps:
    """Historical phase-operator candidates, kept for comparison."""

    cos_dirac: np.ndarray
    sin_dirac: np.ndarray
    cos_sg: np.ndarray
    sin_sg: np.ndarray
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

    kp: FockOperator
    km: FockOperator
    k3: FockOperator
    even_k: float
    odd_k: float


@dataclass(frozen=True)
class TwoModeBasisIndex:
    """Tensor basis element (n1, n2) with its sector assignment."""

    n1: int
    n2: int
    sector: int
    irrep_k: float
    irrep_n: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise DomainError(f"occupation numbers must be >= 0, got ({self.n1}, {self.n2})")
        if self.sector != self.n1 - self.n2:
            raise DomainError(f"sector {self.sector} is not n1 - n2 = {self.n1 - self.n2}")
        if self.irrep_k != 0.5 + abs(self.sector) / 2.0:
            raise DomainError(f"irrep_k {self.irrep_k} inconsistent with sector {self.sector}")
        if self.irrep_n != min(self.n1, self.n2):
            raise DomainError(f"irrep_n {self.irrep_n} is not min(n1, n2)")


@dataclass(frozen=True)
class TwoModeOps:
    """Product-realization triple with the exhaustive sector table."""

    k3: FockOperator
    kp: FockOperator
    km: FockOperator
    sector_table: tuple
    dim_per_mode: int


def _ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # a and a+ as real matrices, transposes of each other by construction
    adag = np.zeros((dim, dim), dtype=np.longdouble)
    rows = np.arange(1, dim)
    adag[rows, rows - 1] = np.sqrt(np.arange(1, dim, dtype=np.longdouble))
    return adag.T.copy(), adag


def _match(mine: np.ndarray, ref: np.ndarray, what: str, tol: float = _MATCH_TOL) -> None:
    diff = float(np.max(np.abs(mine - ref))) if mine.size else 0.0
    if diff > tol:
        raise InconsistentDataError(f"{what}: builds disagree by {diff:.3e}")


def hp_generators(k: float, dim: int) -> HPGenerators:
    """kp = a+ sqrt(N+2k), km = sqrt(N+2k) a, k3 = N + k.

    The dressing makes the single-mode triple identical to the abstract
    irrep matrices, not an approximation of them; that identity is checked
    entry by entry against the abstract builders before returning.
    """
    if not k > 0.0:
        raise DomainError(f"hp_generators requires k > 0, got {k}")
    if dim < 2:
        raise DomainError(f"hp_generators requires dim >= 2, got {dim}")
    a, adag = _ladder(dim)
    root = np.sqrt(np.arange(dim, dtype=np.longdouble) + 2.0 * np.longdouble(k))
    kp = adag * root[np.newaxis, :]
    km = root[:, np.newaxis] * a
    k3 = np.diag(np.arange(dim, dtype=np.longdouble) + np.longdouble(k))

    label = RepLabel(k=k)
    _match(kp, build_kplus(label, dim).entries, "dressed raising vs abstract")
    _match(km, build_kminus(label, dim).entries, "dressed lowering vs abstract")
    _match(k3, build_k3(label, dim).entries, "dressed compact vs abstract")
    tag = "holstein_primakoff"
    return HPGenerators(
        kp=FockOperator(dim, kp, tag),
        km=FockOperator(dim, km, tag),
        k3=FockOperator(dim, k3, tag),
        k=float(k),
    )


def hp_phase_ops(k: float, dim: int) -> HPPhaseOps:
    """Oscillator cos/sin matrices, built twice and reconciled.

    Route one symmetrizes the ladder combinations against 1/(N+k) exactly
    as the quantization prescription dictates.  Route two contracts the
    shift identity f(N) a+ = a+ f(N+1) into the single band profile
    F_k(N) = sqrt(N+2k) (1/(N+k) + 1/(N+k+1)) / 2 and writes
    cos = (a+ F + F a)/2, sin = i (a+ F - F a)/2.  Both must agree with
    each other and with the abstract phase-operator pair to 1e-13.
    """
    return _hp_phase_ops(hp_generators(k, dim))


def _hp_phase_ops(gens: HPGenerators) -> HPPhaseOps:
    k, dim = gens.k, gens.kp.dim
    kp, km = gens.kp.entries, gens.km.entries
    n = np.arange(dim, dtype=np.longdouble)
    inv = 1.0 / (n + np.longdouble(k))
    invp = 1.0 / (n + np.longdouble(k) + 1.0)

    ksum = kp + km
    kdif = kp - km
    cos_sym = 0.25 * (inv[:, np.newaxis] * ksum + ksum * inv[np.newaxis, :])
    sin_sym = np.clongdouble(0.25j) * (
        inv[:, np.newaxis] * kdif + kdif * inv[np.newaxis, :]
    )

    a, adag = _ladder(dim)
    root = np.sqrt(n + 2.0 * np.longdouble(k))
    f_diag = 0.5 * root * (inv + invp)
    cos_band = 0.5 * (adag * f_diag[np.newaxis, :] + f_diag[:, np.newaxis] * a)
    sin_band = np.clongdouble(0.5j) * (
        adag * f_diag[np.newaxis, :] - f_diag[:, np.newaxis] * a
    )

    _match(cos_sym, cos_band, "cos: symmetrized vs band profile")
    _match(sin_sym, sin_band, "sin: symmetrized vs band profile")
    pair = build_phase_ops(RepLabel(k=k), dim)
    _match(cos_band.astype(np.clongdouble), pair.cos_op.entries, "cos vs abstract pair")
    _match(sin_band, pair.sin_op.entries, "sin vs abstract pair")

    cos_band.setflags(write=False)
    sin_band.setflags(write=False)
    f_diag.setflags(write=False)
    return HPPhaseOps(cos_op=cos_band, sin_op=sin_band, f_k_diag=f_diag,
                      k=float(k), dim=dim)


def dirac_sg_ops(dim: int) -> DiracSGOps:
    """Shift-operator phase candidates on the truncated number basis.

    The inverse square root in the first pair is undefined on |0>; it is
    patched to annihilate that state and the record carries the convention
    note.  On the resulting matrices the patched slot is unreachable (a
    kills |0> first, a+ never lands there), so the two pairs coincide
    entrywise and are symmetric despite the patch.
    """
    if dim < 2:
        raise DomainError(f"dirac_sg_ops requires dim >= 2, got {dim}")
    a, adag = _ladder(dim)
    n = np.arange(dim, dtype=np.longdouble)
    pinv = np.zeros(dim, dtype=np.longdouble)
    pinv[1:] = 1.0 / np.sqrt(n[1:])
    lower_d = a * pinv[np.newaxis, :]
    raise_d = pinv[:, np.newaxis] * adag

    sg = 1.0 / np.sqrt(n + 1.0)
    lower_sg = sg[:, np.newaxis] * a
    raise_sg = adag * sg[np.newaxis, :]

    ops = (
        0.5 * (lower_d + raise_d),
        np.clongdouble(-0.5j) * (lower_d - raise_d),
        0.5 * (lower_sg + raise_sg),
        np.clongdouble(-0.5j) * (lower_sg - raise_sg),
    )
    for op in ops:
        op.setflags(write=False)
    return DiracSGOps(*ops, zero_mode_convention="N^{-1/2}|0> mapped to 0")


def _poisson_cut(r: float, log_tol: float) -> int:
    # smallest count past the term peak with e^{-r^2} r^{2n}/n! below tol
    if r == 0.0:
        return 1
    rr = r * r
    log_r = math.log(r)
    for m in range(1, _MAX_TERMS):
        if m >= rr and 2.0 * m * log_r - ln_gamma(m + 1.0) - rr < log_tol:
            return m
    raise TruncationError(f"no admissible truncation below {_MAX_TERMS} at r={r}")


def alpha_expectations(k: float, alpha: complex, dim: int | None = None) -> AlphaExpectations:
    """Oscillator coherent-state expectations of generators and phase ops.

    Closed forms factor the angular dependence out front and leave two
    radial series: h1 = <sqrt(N+2k)> scales the K1/K2 means and
    h2 = (r/2) <sqrt(N+2k)(1/(N+k)+1/(N+k+1))> the phase means, while
    <K3> = r^2 + k needs no series at all.  Each closed value is
    reconciled with the matrix expectation over the truncated coherent
    vector to 1e-10 before the record is returned.
    """
    if not k > 0.0:
        raise DomainError(f"alpha_expectations requires k > 0, got {k}")
    alpha = complex(alpha)
    r = abs(alpha)
    beta = cmath.phase(alpha)
    needed = _poisson_cut(r, _TAIL_LOG)
    if dim is None:
        dim = needed
    elif dim < needed:
        raise TruncationError(
            f"dim={dim} leaves a coherent tail above 1e-14; need at least {needed}"
        )

    if r == 0.0:
        weights = np.array([1.0])
        n = np.arange(1, dtype=np.float64)
    else:
        deep = _poisson_cut(r, math.log(1e-18))
        n = np.arange(deep, dtype=np.float64)
        lg = np.array([ln_gamma(v + 1.0) for v in n])
        weights = np.exp(2.0 * n * math.log(r) - lg - r * r)
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
        lgm = np.array([ln_gamma(v + 1.0) for v in m])
        c[:dim] = np.exp(m * math.log(r) - 0.5 * lgm - 0.5 * r * r) * np.exp(1j * beta * m)
    gens = hp_generators(k, mdim)
    phase = _hp_phase_ops(gens)
    kp = gens.kp.entries.astype(np.float64)
    km = gens.km.entries.astype(np.float64)
    pairs = (
        ("K1 mean", mean_k1, float(np.real(c.conj() @ ((kp + km) @ c))) / 2.0),
        ("K2 mean", mean_k2, float(np.real(c.conj() @ ((kp - km) @ c) / 2.0j))),
        ("K3 mean", mean_k3, float(np.real(c.conj() @ (gens.k3.entries.astype(np.float64) @ c)))),
        ("cos mean", cos_mean, float(np.real(c.conj() @ (phase.cos_op.astype(np.complex128) @ c)))),
        ("sin mean", sin_mean, float(np.real(c.conj() @ (phase.sin_op.astype(np.complex128) @ c)))),
    )
    for what, closed, summed in pairs:
        if abs(closed - summed) > _ROUTE_TOL * max(1.0, abs(closed)):
            raise TruncationError(
                f"{what}: closed form {closed!r} and matrix value {summed!r} "
                f"disagree beyond {_ROUTE_TOL:.1e}"
            )
    return AlphaExpectations(
        mean_k1=mean_k1, mean_k2=mean_k2, mean_k3=mean_k3,
        h1=h1, h2=h2, cos_mean=cos_mean, sin_mean=sin_mean,
    )


def h2_curve(k: float, r_values) -> np.ndarray:
    """Vectorized phase-mean profile h2 over a radius grid; 0 at r = 0.

    One shared term table serves every radius: the Poisson weights
    exp(2n ln r - ln n! - r^2) are summed against
    sqrt(n+2k) (1/(n+k) + 1/(n+k+1)) and scaled by r/2.
    """
    if not k > 0.0:
        raise DomainError(f"h2_curve requires k > 0, got {k}")
    r = np.asarray(r_values, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise DomainError("h2_curve needs a nonempty 1-d radius grid")
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
        raise DomainError("radius grid must be finite and nonnegative")

    rmax = float(np.max(r))
    nmax = int(rmax * rmax + 12.0 * rmax + 60.0)
    n = np.arange(nmax, dtype=np.float64)
    lg = np.array([ln_gamma(v + 1.0) for v in n])
    w = np.sqrt(n + 2.0 * k) * (1.0 / (n + k) + 1.0 / (n + k + 1.0))

    out = np.zeros_like(r)
    pos = r > 0.0
    if np.any(pos):
        rp = r[pos]
        log_terms = (
            2.0 * n[:, np.newaxis] * np.log(rp)[np.newaxis, :]
            - lg[:, np.newaxis]
            - (rp * rp)[np.newaxis, :]
        )
        out[pos] = 0.5 * rp * (w @ np.exp(log_terms))
    return out


def squared_boson(dim: int) -> SquaredBosonOps:
    """kp = (a+)^2/2, km = a^2/2, k3 = (N + 1/2)/2 on one bosonic mode.

    The lowering member annihilates |0> and |1>, so the space splits into
    parity sectors: the even one carries Bargmann index 1/4 and the odd
    one 3/4, verified against the abstract builders on each sector.
    """
    if dim < 4:
        raise DomainError(f"squared_boson requires dim >= 4, got {dim}")
    a, adag = _ladder(dim)
    kp = 0.5 * (adag @ adag)
    km = 0.5 * (a @ a)
    k3 = np.diag(0.5 * np.arange(dim, dtype=np.longdouble) + 0.25)

    for offset, sector_k in ((0, 0.25), (1, 0.75)):
        idx = np.arange(offset, dim, 2)
        block = np.ix_(idx, idx)
        label = RepLabel(k=sector_k)
        parity = "even" if offset == 0 else "odd"
        _match(kp[block], build_kplus(label, len(idx)).entries, f"{parity} sector raising")
        _match(km[block], build_kminus(label, len(idx)).entries, f"{parity} sector lowering")
        _match(k3[block], build_k3(label, len(idx)).entries, f"{parity} sector compact")

    tag = "squared_boson"
    return SquaredBosonOps(
        kp=FockOperator(dim, kp, tag),
        km=FockOperator(dim, km, tag),
        k3=FockOperator(dim, k3, tag),
        even_k=0.25,
        odd_k=0.75,
    )


def two_mode(dim_per_mode: int) -> TwoModeOps:
    """kp = a1+ a2+, km = a1 a2, k3 = (N1 + N2 + 1)/2 on two modes.

    The flattened basis index is n1 * dim_per_mode + n2.  Every basis
    element lands in exactly one sector n1 - n2 = const, which carries
    Bargmann index 1/2 + |n1-n2|/2 with internal level min(n1, n2); each
    sector block is truncated squarely by the per-mode cut and therefore
    matches the abstract builders on the full block, while the commutator
    check must stay on the interior window max(n1, n2) <= dim_per_mode-2.
    """
    d = dim_per_mode
    if d < 2:
        raise DomainError(f"two_mode requires dim_per_mode >= 2, got {d}")
    a, adag = _ladder(d)
    kp = np.kron(adag, adag)
    km = np.kron(a, a)
    n1 = np.repeat(np.arange(d), d)
    n2 = np.tile(np.arange(d), d)
    k3 = np.diag(0.5 * (n1 + n2 + 1).astype(np.longdouble))

    table = tuple(
        TwoModeBasisIndex(
            n1=int(i), n2=int(j), sector=int(i - j),
            irrep_k=0.5 + abs(int(i - j)) / 2.0, irrep_n=int(min(i, j)),
        )
        for i in range(d)
        for j in range(d)
    )

    for s in range(-(d - 1), d):
        m = np.arange(d - abs(s))
        rows1 = m + s if s > 0 else m
        rows2 = m if s >= 0 else m - s
        flat = rows1 * d + rows2
        sector_k = 0.5 + abs(s) / 2.0
        if len(flat) == 1:
            if float(k3[flat[0], flat[0]]) != sector_k:
                raise InconsistentDataError(f"corner sector {s}: bad compact eigenvalue")
            continue
        block = np.ix_(flat, flat)
        label = RepLabel(k=sector_k)
        _match(kp[block], build_kplus(label, len(flat)).entries, f"sector {s} raising")
        _match(km[block], build_kminus(label, len(flat)).entries, f"sector {s} lowering")
        _match(k3[block], build_k3(label, len(flat)).entries, f"sector {s} compact")

    # flattened, K+ and K- are the diagonals -(d+1) and d+1, zero at wrap-around slots
    kp_band = {-(d + 1): np.diag(kp, -(d + 1))}
    km_band = {d + 1: np.diag(km, d + 1)}
    k3_band = {0: np.diag(k3)}
    inside = np.maximum(n1, n2) <= d - 2
    worst = max(
        commutator_gap(kp_band, km_band, {0: -2.0 * k3_band[0]}, d * d, inside),
        commutator_gap(k3_band, kp_band, kp_band, d * d, inside),
        commutator_gap(k3_band, km_band, {d + 1: -km_band[d + 1]}, d * d, inside),
    )
    if worst > _COMM_TOL:
        raise InconsistentDataError(f"two-mode interior commutators off by {worst:.3e}")

    tag = "two_mode"
    return TwoModeOps(
        k3=FockOperator(d * d, k3, tag),
        kp=FockOperator(d * d, kp, tag),
        km=FockOperator(d * d, km, tag),
        sector_table=table,
        dim_per_mode=d,
    )


def sector_table_csv_lines(ops: TwoModeOps) -> list[str]:
    """CSV serialization of the sector table, one line per basis element."""
    lines = ["n1,n2,sector,irrep_k,irrep_n"]
    for e in ops.sector_table:
        lines.append(f"{e.n1},{e.n2},{e.sector},{e.irrep_k!r},{e.irrep_n}")
    return lines

