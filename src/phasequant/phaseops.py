"""Self-adjoint cos/sin phase operators and their diagonal identities.

The pair is the symmetrized product

    cos = (K3^-1 K1 + K1 K3^-1)/2,   sin = -(K3^-1 K2 + K2 K3^-1)/2,

well defined because K3 is positive definite.  Both come out tridiagonal with
zero diagonal; the single coupling strength is

    f_n = sqrt(n(2k+n-1)) * (1/(k+n) + 1/(k+n-1)),   f_0 = 0,

with cos entries f_{n+1}/4 on the off-diagonals and sin entries +-i f_{n+1}/4.
Construction always runs both the symmetrized-product route and the direct
f-coefficient route and demands entrywise agreement, so a regression in
either formula cannot pass silently.

Diagonal closed forms are expressed through the K3 eigenvalue x = n + k and
the Casimir value q = k(1-k):

    [cos,sin] diagonal  = -i * ((x^2-1) + 2q(2x^2-1)) / (4x (x^2-1)^2)
    (cos^2+sin^2) diag  = (x^2(x^2-1)(4x^2-3) + q(4x^4-3x^2+1)) / (4x^2 (x^2-1)^2)

both singular in form (not in value) at x = 1, i.e. k = 1, n = 0, where the
f-representation is used instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError, check_domain, check_route
from .repalg import (
    RepLabel,
    TruncatedOperator,
    band_gap,
    banded_matmul,
    banded_matvec,
    build_k1,
    build_k2,
)

__all__ = [
    "PhaseOperatorPair",
    "DiagonalIdentities",
    "ImproperEigvec",
    "f_coeff",
    "build_phase_ops",
    "ground_state_variance",
    "k1_bound",
    "diagonal_identities",
    "commutator_diag_asymptote",
    "cos_squared_diag_asymptote",
    "phase_spectrum",
    "phase_extremes",
    "spectrum_verdict",
    "improper_eigvec",
]

_ROUTE_TOL = 1e-13
_VERDICT_TOL = 1e-12
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class PhaseOperatorPair:
    """cos/sin operator pair on a common truncated representation."""

    cos_op: TruncatedOperator
    sin_op: TruncatedOperator
    k: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.cos_op.dim == self.sin_op.dim == self.dim):
            raise DomainError("phase operator pair dims are inconsistent")
        if not (self.cos_op.k == self.sin_op.k == self.k):
            raise DomainError("phase operator pair k labels are inconsistent")


@dataclass(frozen=True)
class DiagonalIdentities:
    """Closed-form diagonals and their deviation from matrix products."""

    commutator_diag: np.ndarray
    sum_squares_diag: np.ndarray
    residual: float


@dataclass(frozen=True)
class ImproperEigvec:
    """Recursion output, rescaled so the stored values stay in range.

    The true coefficients are ``values * exp(log_scale)``; log_scale is 0
    unless the running maximum passed the renormalization threshold.
    """

    values: np.ndarray
    log_scale: float


def f_coeff(k: float, n: int) -> float:
    """Tridiagonal coupling sqrt(n(2k+n-1)) (1/(k+n) + 1/(k+n-1)); 0 at n=0.

    The integer n - 1 is formed first, so at n = 1 a tiny k is not rounded
    away against it (k + 1 - 1 would be 0 for k below 1e-16).
    """
    check_domain("k", k)
    check_domain("n", n, "nonnegative integer")
    if n == 0:
        return 0.0
    return math.sqrt(n * (2.0 * k + (n - 1.0))) * (1.0 / (k + n) + 1.0 / (k + (n - 1.0)))


def _f_array(k: float, dim: int) -> np.ndarray:
    # f_1 .. f_{dim-1} in extended precision for entry construction.
    n = np.arange(1, dim, dtype=np.clongdouble)
    kk = np.clongdouble(k)
    return np.sqrt(n * (2.0 * kk + (n - 1.0))) * (1.0 / (kk + n) + 1.0 / (kk + (n - 1.0)))


def build_phase_ops(label: RepLabel, dim: int) -> PhaseOperatorPair:
    """Build the cos/sin pair two ways and insist the routes agree.

    Route (a) symmetrizes K1 and K2 with the exactly invertible diagonal
    K3; route (b) writes the tridiagonal entries from f_coeff.  Any
    entrywise discrepancy beyond 1e-13 times max(1, max|f|/4) raises, since
    for a diagonal K3 the two are algebraically identical even after
    truncation.
    """
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"build_phase_ops requires dim >= 2, got {dim}")
    inv_diag = 1.0 / (np.clongdouble(label.k) + np.arange(dim, dtype=np.clongdouble))
    # ((1/K3)_ii + (1/K3)_jj)/2 along the two off-diagonals K1 and K2 occupy
    half_sym = 0.5 * (inv_diag[:-1] + inv_diag[1:])
    cos_a = {d: half_sym * v for d, v in build_k1(label, dim).diagonals.items()}
    sin_a = {d: -half_sym * v for d, v in build_k2(label, dim).diagonals.items()}

    f = _f_array(label.k, dim)
    omega = np.clongdouble(label.omega)
    cos_b = {-1: omega * f / 4.0, 1: omega.conjugate() * f / 4.0}
    sin_b = {-1: 1j * omega * f / 4.0, 1: -1j * omega.conjugate() * f / 4.0}

    # relative to the largest entry max|f|/4 once that passes 1 (k below
    # about 0.16), as the Sturm window scales with max|off|
    tol = _ROUTE_TOL * max(1.0, float(np.max(np.abs(f))) / 4.0)
    dev = np.max([band_gap(cos_a, cos_b), band_gap(sin_a, sin_b)])
    check_route("phase-operator build routes", dev, tol, context=f"at k={label.k}, dim={dim}")

    cos_op = TruncatedOperator(
        dim=dim, k=label.k, diagonals=cos_b, name="cos", omega=label.omega,
    )
    sin_op = TruncatedOperator(
        dim=dim, k=label.k, diagonals=sin_b, name="sin", omega=label.omega,
    )
    return PhaseOperatorPair(cos_op=cos_op, sin_op=sin_op, k=label.k, dim=dim)


def ground_state_variance(k: float) -> float:
    """Phase-cosine variance on |k,0>: (2k+1)^2 / (8k (k+1)^2).

    Equals f_1^2/16, the matrix diagonal of cos^2 at n = 0; monotone
    decreasing toward 0 for k >= 1 and exceeding 1 as k drops below the
    k1_bound root.  k above 1e102, where 8k (k+1)^2 leaves double range,
    raises DomainError.
    """
    check_domain("k", k, message="ground_state_variance requires k > 0, got {value}")
    if not k <= 1e102:
        raise DomainError(f"ground_state_variance requires k <= 1e102, got k={k!r}")
    return (2.0 * k + 1.0) ** 2 / (8.0 * k * (k + 1.0) ** 2)


def k1_bound() -> float:
    """Smallest k whose ground-state variance stays at or below 1.

    Closed form from the depressed cubic for y = 2k+1 (y^3 = y + 1):
    k = (cbrt(1/2 + sqrt(23/27)/2) + cbrt(1/2 - sqrt(23/27)/2) - 1)/2.
    The root condition is re-verified before returning.
    """
    s = 0.5 * math.sqrt(23.0 / 27.0)
    # both radicands are positive (s < 1/2), so fractional powers suffice
    k = ((0.5 + s) ** (1.0 / 3.0) + (0.5 - s) ** (1.0 / 3.0) - 1.0) / 2.0
    check_route("k1_bound closed form and its root", abs(ground_state_variance(k) - 1.0), 1e-12)
    return k


def _closed_commutator_diag(x: np.ndarray, q: float) -> np.ndarray:
    return -((x * x - 1.0) + 2.0 * q * (2.0 * x * x - 1.0)) / (
        4.0 * x * (x * x - 1.0) ** 2
    )


def _closed_sum_squares_diag(x: np.ndarray, q: float) -> np.ndarray:
    x2 = x * x
    return (x2 * (x2 - 1.0) * (4.0 * x2 - 3.0) + q * (4.0 * x2 * x2 - 3.0 * x2 + 1.0)) / (
        4.0 * x2 * (x2 - 1.0) ** 2
    )


def diagonal_identities(label: RepLabel, dim: int, margin: int = 4) -> DiagonalIdentities:
    """Closed-form diagonals of [cos, sin] and cos^2 + sin^2 with a residual.

    The commutator diagonal reported is the imaginary part of the matrix
    entry (the entry itself is purely imaginary).  Entries at n = 0 always
    come from the f-representation ((f_1^2 -+ f_0^2)/8), which sidesteps the
    removable x = 1 singularity of the closed forms at k = 1; for n >= 1 the
    rational forms in x = n + k are used.  The residual is the largest
    interior deviation of these sequences from the directly multiplied
    matrix products.
    """
    if check_domain("dim", dim, "positive integer") < 4:
        raise DomainError(f"diagonal_identities requires dim >= 4, got {dim}")
    if not 0 <= margin < dim:
        raise DomainError(f"margin must lie in [0, dim), got {margin}")
    q = label.q
    x = label.k + np.arange(1, dim, dtype=np.float64)  # n = 1 .. dim-1

    comm = np.empty(dim, dtype=np.float64)
    ssq = np.empty(dim, dtype=np.float64)
    f1 = f_coeff(label.k, 1)
    comm[0] = f1 * f1 / 8.0
    ssq[0] = f1 * f1 / 8.0
    comm[1:] = _closed_commutator_diag(x, q)
    ssq[1:] = _closed_sum_squares_diag(x, q)

    pair = build_phase_ops(label, dim)
    c, s = pair.cos_op.diagonals, pair.sin_op.diagonals
    prod_comm = banded_matmul(c, s, dim)[0] - banded_matmul(s, c, dim)[0]
    prod_ssq = banded_matmul(c, c, dim)[0] + banded_matmul(s, s, dim)[0]
    cut = dim - margin
    dev_comm = np.abs(prod_comm[:cut].imag - comm[:cut])
    dev_ssq = np.abs(prod_ssq[:cut].real - ssq[:cut])
    residual = float(np.max(np.concatenate([dev_comm, dev_ssq])))
    return DiagonalIdentities(commutator_diag=comm, sum_squares_diag=ssq, residual=residual)


def commutator_diag_asymptote(k: float, n: int) -> float:
    """Leading large-n behavior of the [cos, sin] diagonal: -(1+4q)/(4x^3).

    Signed to match the matrix convention used here; the magnitude is the
    usual (1+4q)/(4n^3) statement with x = n + k sharpening the plain-n
    version enough to matter at n ~ 50.
    """
    check_domain("k", k)
    x = n + k
    q = k * (1.0 - k)
    return -(1.0 + 4.0 * q) / (4.0 * x**3)


def cos_squared_diag_asymptote(k: float, n: int) -> float:
    """Large-n diagonal of cos^2: (1 + (1+4q)/(4x^2))/2 with x = n + k."""
    check_domain("k", k)
    x = n + k
    q = k * (1.0 - k)
    return 0.5 * (1.0 + 0.25 * (1.0 + 4.0 * q) / (x * x))


def _sturm_count(diag: list, off_sq: list, x: float, pivmin: float) -> int:
    # eigenvalues of the symmetric tridiagonal below x: the negative pivots
    # of the LDL^T factorization of T - x I (Sylvester's law of inertia).
    # A zero pivot is replaced by -pivmin, which counts that eigenvalue.
    count, pivot = 0, 1.0
    for a, b2 in zip(diag, [0.0] + off_sq):
        pivot = (a - x) - b2 / pivot
        if pivot == 0.0:
            pivot = -pivmin
        if pivot < 0.0:
            count += 1
    return count


def _cos_band(pair: PhaseOperatorPair, caller: str) -> np.ndarray:
    # the real off-diagonal of cos_op, once its diagonal is checked to be zero
    if not abs(complex(pair.cos_op.omega).imag) <= 1e-13:
        raise DomainError(f"{caller} requires a real omega convention")
    zeros = np.zeros(pair.dim)
    cos = pair.cos_op.diagonals
    if np.any(cos.get(0, zeros) != 0.0):
        raise DomainError(f"{caller} requires a zero cos diagonal")
    return np.real(cos.get(-1, zeros[1:])).astype(np.float64)


def _sturm_setup(off: np.ndarray) -> tuple[list, float, float]:
    # squared off-diagonal, pivot floor and rounding window of the Sturm count
    # on the zero-diagonal band: both routes that count or solve on it carry
    # backward errors of a few eps * ||T||, and ||T|| <= 2 max|off|
    off_sq = off * off
    pivmin = sys.float_info.min * max(1.0, float(np.max(off_sq, initial=0.0)))
    delta = 128.0 * _EPS * float(np.max(np.abs(off), initial=0.0))
    return off_sq.tolist(), pivmin, delta


def phase_spectrum(pair: PhaseOperatorPair) -> np.ndarray:
    """Sorted eigenvalues of cos_op from one half-size positive-definite solve.

    The cos band T has a zero diagonal, so the perfect shuffle (even rows
    first, then odd) makes it similar to [[0, B], [B^T, 0]] with B the
    bidiagonal of its off-diagonal entries b_j = off[2j], c_j = off[2j+1]:
    the eigenvalues are +-sigma(B), plus an exact 0 when dim is odd (Golub
    & Kahan, SIAM J. Numer. Anal. B 2 (1965) 205).  LAPACK ``dpteqr``
    factors the floor(dim/2) positive-definite tridiagonal B^T B (diagonal
    b_j^2 + c_j^2, off-diagonal c_j b_{j+1}) as LDL^T and takes its
    eigenvalues by dqds (Fernando & Parlett, Numer. Math. 67 (1994) 191).
    The result is sorted and mirror-symmetric bit for bit.  A nonzero cos
    diagonal raises DomainError; a failed factorization TruncationError.

    Two O(n) routes then check the solve.

    Band check: conjugation by D = diag(i^-n) turns sin_op into a real
    tridiagonal with the cos diagonal and the negated cos off-diagonal,
    and diag((-1)^n) maps that back onto cos, so the two spectra are equal.
    The rotated sin band must match within 1e-13 entrywise; by Weyl's
    inequality that bounds the gap between the two spectra by 3e-13.

    Sturm count: the negative pivots of LDL^T(T - x I), on the full dim x
    dim band, count the eigenvalues below x without solving for any of
    them.  The counts above t = 1 + 1e-12 and below -t, the
    ``spectrum_verdict`` thresholds, must equal the counts read off the
    LAPACK eigenvalues.  Both routes carry backward errors of a few
    eps * ||T||, so eigenvalues within the rounding window
    delta = 128 eps max|off| of a threshold may be counted on either side;
    no other disagreement passes.
    """
    from scipy.linalg.lapack import dpteqr  # deferred: scipy is slow to import

    off = _cos_band(pair, "phase_spectrum")
    dim = pair.dim
    zeros = np.zeros(dim)
    sin = pair.sin_op.diagonals

    half = dim // 2
    b, c = off[0::2], np.zeros(half)
    c[: (dim - 1) // 2] = off[1::2]
    e = c[:-1] * b[1:]
    # f2py rejects an empty off-diagonal; the 1 x 1 band of dim 2 and 3 gets
    # a dummy entry, which LAPACK does not read for n = 1
    sq, _, _, info = dpteqr(b * b + c * c, e if e.size else np.zeros(1),
                            np.zeros((1, 1)), compute_z=0)
    if info != 0:
        raise TruncationError(
            f"dpteqr failed (info={info}) on the half-size band at k={pair.k}, dim={dim}"
        )
    s = np.sqrt(np.sort(sq))
    cos_eigs = np.concatenate([-s[::-1], np.zeros(dim % 2), s])

    # D^dag sin D with D = diag(i^-n) has entries -f/4: real symmetric.
    # i^-n cycles with period 4; the lookup keeps the unitary exact.
    d = np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(dim) % 4]
    rot_diag = d.conjugate() * sin.get(0, zeros).astype(np.complex128) * d
    rot_off = d[1:].conjugate() * sin.get(-1, zeros[1:]).astype(np.complex128) * d[:-1]
    check_route("cos and sin spectra",
                np.max(np.abs(np.concatenate([rot_diag, rot_off + off]))), _ROUTE_TOL,
                context=f"(rotated sin band against the cos band) at k={pair.k}, dim={dim}")

    t = 1.0 + _VERDICT_TOL
    off_sq, pivmin, delta = _sturm_setup(off)
    diag = [0.0] * dim
    above = dim - _sturm_count(diag, off_sq, t, pivmin)
    below = _sturm_count(diag, off_sq, -t, pivmin)
    for what, count, sure, possible in (
        ("above", above, cos_eigs > t + delta, cos_eigs > t - delta),
        ("below", below, cos_eigs < -t - delta, cos_eigs < -t + delta),
    ):
        if not int(np.sum(sure)) <= count <= int(np.sum(possible)):
            raise TruncationError(
                f"Sturm count of eigenvalues {what} +-{t!r} is {count}, LAPACK "
                f"gives {int(np.sum(sure))}..{int(np.sum(possible))} at k={pair.k}, dim={dim}"
            )
    return cos_eigs


def _inverse_step(off: list, mu: float, floor: float) -> np.ndarray:
    # one step of inverse iteration on the zero-diagonal band T by the twisted
    # factorization: LDL^T from the top and UDU^T from the bottom of T - mu I
    # meet at the row r where gamma_r = D+_r + D-_r + mu is smallest, and
    # x = (T - mu I)^{-1} gamma_r e_r follows from the two unit factors with
    # x_r = 1 (Parlett & Dhillon, Linear Algebra Appl. 309 (2000) 121).
    # A pivot below floor in size is set to +-floor: x changes, the
    # residual bound it is used for stays valid.
    dim = len(off) + 1

    def pivots(band):
        out, pivot = [], -mu
        for b in band + [0.0]:
            out.append(pivot if abs(pivot) >= floor else math.copysign(floor, pivot))
            pivot = -mu - b * b / out[-1]
        return out

    top, bottom = pivots(off), pivots(off[::-1])[::-1]
    r = min(range(dim), key=lambda i: abs(top[i] + bottom[i] + mu))
    x = [0.0] * dim
    x[r] = 1.0
    for i in range(r - 1, -1, -1):
        x[i] = -off[i] / top[i] * x[i + 1]
    for i in range(r + 1, dim):
        x[i] = -off[i - 1] / bottom[i] * x[i - 1]
    return np.array(x)


def phase_extremes(pair: PhaseOperatorPair, count: int) -> np.ndarray:
    """The ``count`` largest eigenvalues of cos_op, ascending, by bisection.

    The spectrum is symmetric about 0, so their negatives are the ``count``
    smallest.  No full solve is made and nothing loads scipy.

    Bisection: the Sturm count of the full dim x dim band (see
    :func:`phase_spectrum`) halves the Gershgorin interval around the j-th
    largest eigenvalue until its bracket [lo, hi], with at most dim - j
    eigenvalues below lo and more than dim - j below hi, is two adjacent
    doubles; the bracket holds the eigenvalue, and its midpoint mu is
    returned (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386).

    Inverse iteration: one O(n) twisted-factorization solve of
    (T - mu I) x = gamma e_r gives a vector whose residual, formed by a
    separate band product, bounds the distance from mu to the spectrum:
    min |lambda - mu| <= ||T x - mu x|| / ||x|| (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, section 4.5).  That bound must lie within
    the rounding window 128 eps max|off| of the Sturm count; otherwise
    TruncationError is raised.  A nonzero cos diagonal raises DomainError.
    """
    off = _cos_band(pair, "phase_extremes")
    dim = pair.dim
    count = check_domain("count", count, "positive integer")
    if count > dim:
        raise DomainError(f"phase_extremes requires 1 <= count <= dim={dim}, got {count}")
    off_sq, pivmin, delta = _sturm_setup(off)
    diag, off_list = [0.0] * dim, off.tolist()
    scale = float(np.max(np.abs(off)))
    tops = []
    for index in range(dim - count, dim):
        lo, hi = -2.0 * scale - delta, 2.0 * scale + delta
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if _sturm_count(diag, off_sq, mid, pivmin) > index:
                hi = mid
            else:
                lo = mid
        mu = 0.5 * (lo + hi)
        x = _inverse_step(off_list, mu, _EPS * scale)
        x /= np.max(np.abs(x))
        tx = banded_matvec({-1: off, 1: off}, x)
        check_route("inverse iteration and bisection",
                    np.linalg.norm(tx - mu * x) / np.linalg.norm(x), delta,
                    context=f"at the bisected eigenvalue {mu!r}, k={pair.k}, dim={dim}")
        tops.append(mu)
    return np.array(tops)


def spectrum_verdict(eigenvalues: np.ndarray, tol: float = _VERDICT_TOL) -> str:
    """BOUNDED if every |eigenvalue| <= 1 + tol, else EXCEEDS."""
    return "BOUNDED" if float(np.max(np.abs(eigenvalues))) <= 1.0 + tol else "EXCEEDS"


_RENORM_EVERY = 64
_RENORM_THRESHOLD = 1e100


def improper_eigvec(k: float, mu: float, a0: float, nmax: int) -> ImproperEigvec:
    """Three-term recursion a_{n+1} = (4 mu a_n - f_n a_{n-1}) / f_{n+1}.

    Solves the formal eigenvalue equation of the infinite cos operator row
    by row.  Coefficients can grow geometrically for |mu| > 1, so the whole
    prefix is rescaled by the running maximum every 64 steps once it passes
    1e100, with the accumulated log reported in ``log_scale``.
    """
    check_domain("k", k)
    check_domain("mu", mu, "finite real")
    check_domain("a0", a0, "finite real")
    if check_domain("nmax", nmax, "positive integer") < 2:
        raise DomainError(f"improper_eigvec requires nmax >= 2, got {nmax}")
    # f_0 .. f_nmax once, in f_coeff's operation order so the values match it
    m = np.arange(1, nmax + 1, dtype=np.float64)
    f = [0.0] + (np.sqrt(m * (2.0 * k + (m - 1.0)))
                 * (1.0 / (k + m) + 1.0 / (k + (m - 1.0)))).tolist()
    a = np.zeros(nmax + 1, dtype=np.float64)
    a[0] = a0
    a[1] = 4.0 * mu * a0 / f[1]
    log_scale = 0.0
    prev, cur = float(a[0]), float(a[1])
    running_max = max(abs(prev), abs(cur))
    for n in range(1, nmax):
        prev, cur = cur, (4.0 * mu * cur - f[n] * prev) / f[n + 1]
        a[n + 1] = cur
        running_max = max(running_max, abs(cur))
        if (n + 1) % _RENORM_EVERY == 0 and running_max > _RENORM_THRESHOLD:
            a[: n + 2] /= running_max
            prev, cur = prev / running_max, cur / running_max
            log_scale += math.log(running_max)
            running_max = 1.0
    return ImproperEigvec(values=a, log_scale=log_scale)
