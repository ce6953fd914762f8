"""Self-adjoint cos/sin phase operators and their diagonal identities.

The pair is the symmetrized product

    cos = (K3^-1 K1 + K1 K3^-1)/2,   sin = -(K3^-1 K2 + K2 K3^-1)/2,

well defined because K3 is positive definite.  Both come out tridiagonal with
zero diagonal; the single coupling strength is

    f_n = sqrt(n(2k+n-1)) * (1/(k+n) + 1/(k+n-1)),   f_0 = 0,

with cos entries f_{n+1}/4 on the off-diagonals and sin entries +-i f_{n+1}/4.
Construction always runs both the symmetrized-product route and the direct
f-coefficient route and demands entrywise agreement, so a regression in
either formula cannot pass silently.  Every cos/sin pair of the package,
here and in ``fockreal``, is the one record
``PhaseOperatorPair(lower, k, omega)`` of a lowering band E (here
E = conj(omega) f/2), from which cos = (E + E^dag)/2 and
sin = (E - E^dag)/(2i) are read; the product route applies the
symmetrizer X -> (K3^-1 X + X K3^-1)/2 to the ladder K- alone.

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

from . import repalg
from .errors import DomainError, TruncationError, check_domain, check_route
from .repalg import (
    RepLabel,
    TruncatedOperator,
    _ladder,
    band_gap,
    banded_matmul,
    banded_matvec,
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
# the smallest k of every routine that divides by it: 1/k overflows below
# 1/DBL_MAX = 5.56e-309, so a subnormal k is refused and 1/k stays <= 4.5e307
_K_MIN = sys.float_info.min
# the largest cos off-diagonal entry the spectrum routes take: past it the
# half-size band B^T B, whose eigenvalues reach (2 max|off|)^2, leaves double range
_BAND_MAX = 0.5 * math.sqrt(sys.float_info.max)


def _check_k(k, caller: str, message: str = "") -> None:
    # k a positive real (check_domain, with message) and not subnormal
    if check_domain("k", k, message=message) < _K_MIN:
        raise DomainError(f"{caller} requires k >= {_K_MIN!r} (a normal double: 1/k "
                          f"overflows below 5.56e-309), got k={k!r}")


@dataclass(frozen=True)
class PhaseOperatorPair:
    """cos/sin operator pair of one lowering band on a truncated representation.

    The one record of every phase pair: the abstract one, the oscillator
    one and the two historical candidates.  ``lower`` holds the entries
    (n, n+1) of the lowering band E; cos = (E + E^dag)/2 and
    sin = (E - E^dag)/(2i) are formed from it on every read and not kept,
    so neither can disagree with it and no dense view outlives its use.
    ``k`` is None where the space carries no single index.
    """

    lower: np.ndarray
    k: float | None
    omega: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        band = np.array(self.lower)
        if band.ndim != 1 or band.size == 0:
            raise DomainError(f"a phase pair needs a nonempty 1-d lowering band, "
                              f"got shape {band.shape}")
        if self.k is not None:
            check_domain("k", self.k, message="k must be positive, got {value}")
        band.setflags(write=False)
        object.__setattr__(self, "lower", band)

    def _operator(self, name: str, below: np.ndarray, above: np.ndarray) -> TruncatedOperator:
        # the conjugation and the factors i can leave a -0 where an entry has a
        # zero part; adding 0 makes each +0 and keeps every other value
        return TruncatedOperator(self.dim, self.k, {-1: below + 0.0, 1: above + 0.0},
                                 name, self.omega)

    dim = property(lambda self: self.lower.size + 1)
    cos = property(lambda self: self._operator(
        "cos", self.lower.conjugate() / 2.0, self.lower / 2.0))
    sin = property(lambda self: self._operator(
        "sin", 0.5j * self.lower.conjugate(), -0.5j * self.lower))
    # the dense views under their former names, read by the benchmark checks
    cos_op = property(lambda self: self.cos.entries)
    sin_op = property(lambda self: self.sin.entries)


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


def _coupling(k, n):
    # f_n = sqrt(n(2k+n-1)) (1/(k+n) + 1/(k+n-1)) in the dtype of k and n.
    # The n - 1 is formed first, so at n = 1 a tiny k is not rounded away
    # against it (k + 1 - 1 would be 0 for k below 1e-16).
    return np.sqrt(n * (2.0 * k + (n - 1.0))) * (1.0 / (k + n) + 1.0 / (k + (n - 1.0)))


def f_coeff(k: float, n: int) -> float:
    """Tridiagonal coupling sqrt(n(2k+n-1)) (1/(k+n) + 1/(k+n-1)); 0 at n=0.

    The same expression, in double precision, that ``build_phase_ops``
    evaluates in the ``repalg`` storage precision (the ``repalg`` module
    docstring says why) and ``improper_eigvec`` over an array.
    """
    _check_k(k, "f_coeff")
    check_domain("n", n, "nonnegative integer")
    if n == 0:
        return 0.0
    return float(_coupling(k, n))


def _symmetrize(bands, inv: np.ndarray) -> dict:
    # (K3^-1 X + X K3^-1)/2 on the diagonals of X, with K3^-1 = diag(inv):
    # entry (i, j) of X is scaled by (inv_i + inv_j)/2
    return {d: (inv[max(0, -d):][:v.size] + inv[max(0, d):][:v.size]) / 2.0 * v
            for d, v in bands.items()}


def build_phase_ops(label: RepLabel, dim: int) -> PhaseOperatorPair:
    """Build the cos/sin pair two ways and insist the routes agree.

    Route (a) symmetrizes the ladder K- with the exactly invertible
    diagonal K3, which gives the lowering band E of the pair; route (b)
    writes E = conj(omega) f/2 from f_coeff.  cos and sin are the halves
    (E + E^dag)/2 and (E - E^dag)/(2i) of either route, formed exactly, so
    half the entrywise gap of the two bands is the gap of both pairs.  Any
    discrepancy beyond 1e-13 times max(1, max|f|/4) raises, since for a
    diagonal K3 the two are algebraically identical even after truncation.
    """
    _, km = _ladder(label, dim, "build_phase_ops")
    k, n = repalg._COMPLEX(label.k), np.arange(dim, dtype=repalg._COMPLEX)
    inv = 1.0 / (k + n)
    f = _coupling(k, n[1:])
    pair = PhaseOperatorPair(repalg._COMPLEX(label.omega).conjugate() * f / 2.0, label.k,
                             label.omega)

    # relative to the largest entry max|f|/4 once that passes 1 (k below
    # about 0.16), as the Sturm window scales with max|off|
    tol = _ROUTE_TOL * max(1.0, float(np.max(np.abs(f))) / 4.0)
    dev = 0.5 * band_gap(_symmetrize(km, inv), {1: pair.lower})
    check_route("phase-operator build routes", dev, tol, context=f"at k={label.k}, dim={dim}")
    return pair


def ground_state_variance(k: float) -> float:
    """Phase-cosine variance on |k,0>: (2k+1)^2 / (8k (k+1)^2).

    Equals f_1^2/16, the matrix diagonal of cos^2 at n = 0; monotone
    decreasing toward 0 for k >= 1 and exceeding 1 as k drops below the
    k1_bound root.  k above 1e102, where 8k (k+1)^2 leaves double range,
    raises DomainError, and so does a subnormal k (below ``_K_MIN``).
    """
    _check_k(k, "ground_state_variance", "ground_state_variance requires k > 0, got {value}")
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
    if not check_domain("margin", margin, "nonnegative integer") < dim:
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
    c, s = pair.cos.diagonals, pair.sin.diagonals
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
    check_domain("n", n, "nonnegative integer")
    x = n + k
    q = k * (1.0 - k)
    return -(1.0 + 4.0 * q) / (4.0 * x**3)


def cos_squared_diag_asymptote(k: float, n: int) -> float:
    """Large-n diagonal of cos^2: (1 + (1+4q)/(4x^2))/2 with x = n + k."""
    check_domain("k", k)
    check_domain("n", n, "nonnegative integer")
    x = n + k
    q = k * (1.0 - k)
    return 0.5 * (1.0 + 0.25 * (1.0 + 4.0 * q) / (x * x))


def _sturm_count(off_sq: list, x: float, pivmin: float) -> int:
    # eigenvalues of the zero-diagonal symmetric tridiagonal below x: the
    # negative pivots of the LDL^T factorization of T - x I (Sylvester's law
    # of inertia).  A zero pivot is replaced by -pivmin, which counts that
    # eigenvalue.
    count, pivot = 0, 1.0
    for b2 in [0.0] + off_sq:
        pivot = -x - b2 / pivot
        if pivot == 0.0:
            pivot = -pivmin
        if pivot < 0.0:
            count += 1
    return count


def _cos_band(pair: PhaseOperatorPair, caller: str) -> np.ndarray:
    # the real off-diagonal of cos, once the band is checked to be finite
    if not abs(complex(pair.omega).imag) <= 1e-13:
        raise DomainError(f"{caller} requires a real omega convention")
    off = np.real(pair.cos.diagonals[-1])
    top = np.max(np.abs(off))
    if not top <= _BAND_MAX:  # NaN and inf included
        raise DomainError(f"{caller} requires a finite phase band, every cos entry <= "
                          f"{_BAND_MAX!r} so that its squares stay doubles, got {top:.3e} "
                          f"at k={pair.k!r}")
    return off.astype(np.float64)


def _sturm_setup(off: np.ndarray) -> tuple[list, float, float]:
    # squared off-diagonal, pivot floor and rounding window of the Sturm count
    # on the zero-diagonal band: both routes that count or solve on it carry
    # backward errors of a few eps * ||T||, and ||T|| <= 2 max|off|
    off_sq = off * off
    pivmin = sys.float_info.min * max(1.0, float(np.max(off_sq, initial=0.0)))
    delta = 128.0 * _EPS * float(np.max(np.abs(off), initial=0.0))
    return off_sq.tolist(), pivmin, delta


def _half_size_band(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # diagonal b_j^2 + c_j^2 and off-diagonal c_j b_{j+1} of B^T B, with
    # b_j = off[2j], c_j = off[2j+1] and c = 0 past the band's end.  f2py
    # rejects an empty off-diagonal; the 1 x 1 band of dim 2 and 3 gets a
    # dummy entry, which LAPACK does not read for n = 1
    b, c = off[0::2], np.zeros((off.size + 1) // 2)
    c[: off.size // 2] = off[1::2]
    e = c[:-1] * b[1:]
    return b * b + c * c, e if e.size else np.zeros(1)


def _lapack():
    """scipy's compiled LAPACK module, loaded without the ``scipy.linalg`` package.

    ``import scipy`` sets up the bundled OpenBLAS; then the one extension
    ``scipy/linalg/_flapack`` is loaded from ``scipy.__path__`` and
    registered under its own name, so a later ``import scipy.linalg``
    reuses it rather than initializing it again.  The whole package would
    add about 23 MB of peak RSS and 0.3 s to a ``phase-spectrum --dim 2000``
    child (scipy 1.17.1 on a 2-vCPU x86-64 host) for the one routine used
    here.  On any failure the public ``scipy.linalg.lapack`` is returned:
    the same compiled routines, so every result keeps its bits.
    """
    import scipy  # deferred: only this solve uses scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        import importlib.machinery
        import importlib.util
        import os

        paths = [os.path.join(root, "linalg", "_flapack" + suffix) for root in scipy.__path__
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        spec = importlib.util.spec_from_file_location(name, next(filter(os.path.isfile, paths)))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        # _flapack is a private name: whatever breaks the direct load, the
        # public path reaches the same routine
        from scipy.linalg import lapack

        return lapack
    sys.modules[name] = module
    return module


def phase_spectrum(pair: PhaseOperatorPair) -> np.ndarray:
    """Sorted eigenvalues of cos from one half-size positive-definite solve.

    The cos band T has a zero diagonal, so the perfect shuffle (even rows
    first, then odd) makes it similar to [[0, B], [B^T, 0]] with B the
    bidiagonal of its off-diagonal entries b_j = off[2j], c_j = off[2j+1]:
    the eigenvalues are +-sigma(B), plus an exact 0 when dim is odd (Golub
    & Kahan, SIAM J. Numer. Anal. B 2 (1965) 205).  LAPACK ``dpteqr``,
    taken from scipy's compiled LAPACK module alone (see ``_lapack``),
    factors the floor(dim/2) positive-definite tridiagonal B^T B (diagonal
    b_j^2 + c_j^2, off-diagonal c_j b_{j+1}) as LDL^T and takes its
    eigenvalues by dqds (Fernando & Parlett, Numer. Math. 67 (1994) 191).
    The result is sorted and mirror-symmetric bit for bit.  A band that is
    not finite, or has an entry past ``_BAND_MAX``, where the squares
    overflow, raises DomainError; a failed factorization TruncationError.
    sin is formed from the same band, and diag(i^-n) followed by
    diag((-1)^n) maps it onto cos, so the two share this spectrum.

    One O(n) route then checks the solve.  Sturm count: the negative pivots
    of LDL^T(T - x I), on the full dim x dim band, count the eigenvalues
    below x without solving for any of them.  The counts above
    t = 1 + 1e-12 and below -t, the ``spectrum_verdict`` thresholds, must
    equal the counts read off the LAPACK eigenvalues.  Both carry backward
    errors of a few eps * ||T||, so eigenvalues within the rounding window
    delta = 128 eps max|off| of a threshold may be counted on either side;
    no other disagreement passes.
    """
    off = _cos_band(pair, "phase_spectrum")
    dim = pair.dim
    sq, _, _, info = _lapack().dpteqr(*_half_size_band(off), np.zeros((1, 1)), compute_z=0)
    if info != 0:
        raise TruncationError(
            f"dpteqr failed (info={info}) on the half-size band at k={pair.k}, dim={dim}"
        )
    s = np.sqrt(np.sort(sq))
    cos_eigs = np.concatenate([-s[::-1], np.zeros(dim % 2), s])

    t = 1.0 + _VERDICT_TOL
    off_sq, pivmin, delta = _sturm_setup(off)
    above = dim - _sturm_count(off_sq, t, pivmin)
    below = _sturm_count(off_sq, -t, pivmin)
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
    """The ``count`` largest eigenvalues of cos, ascending, by bisection.

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
    TruncationError is raised.  A band that is not finite, or has an entry
    past ``_BAND_MAX``, raises DomainError.
    """
    off = _cos_band(pair, "phase_extremes")
    dim = pair.dim
    count = check_domain("count", count, "positive integer")
    if count > dim:
        raise DomainError(f"phase_extremes requires 1 <= count <= dim={dim}, got {count}")
    off_sq, pivmin, delta = _sturm_setup(off)
    off_list = off.tolist()
    scale = float(np.max(np.abs(off)))
    tops = []
    for index in range(dim - count, dim):
        lo, hi = -2.0 * scale - delta, 2.0 * scale + delta
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if _sturm_count(off_sq, mid, pivmin) > index:
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


def spectrum_verdict(eigenvalues: np.ndarray) -> str:
    """BOUNDED if every |eigenvalue| <= 1 + 1e-12, else EXCEEDS."""
    return "BOUNDED" if float(np.max(np.abs(eigenvalues))) <= 1.0 + _VERDICT_TOL else "EXCEEDS"


_RENORM_EVERY = 64
_RENORM_THRESHOLD = 1e100


def improper_eigvec(k: float, mu: float, a0: float, nmax: int) -> ImproperEigvec:
    """Three-term recursion a_{n+1} = (4 mu a_n - f_n a_{n-1}) / f_{n+1}.

    Solves the formal eigenvalue equation of the infinite cos operator row
    by row.  Coefficients can grow geometrically for |mu| > 1, so the whole
    prefix is rescaled by the running maximum every 64 steps once it passes
    1e100, with the accumulated log reported in ``log_scale``.  A row is
    about 4|mu|/f_n times the one before, so a large |mu| (5e4 at k <= 5,
    2e4 at k = 100, 1e4 at k = 1e4) takes a row past double range before
    a rescaling; that raises DomainError naming mu and the row.
    """
    _check_k(k, "improper_eigvec")
    check_domain("mu", mu, "finite real")
    check_domain("a0", a0, "finite real")
    if check_domain("nmax", nmax, "positive integer") < 2:
        raise DomainError(f"improper_eigvec requires nmax >= 2, got {nmax}")
    # f_0 .. f_nmax once, by f_coeff's expression so the values match it
    f = [0.0] + _coupling(k, np.arange(1, nmax + 1, dtype=np.float64)).tolist()
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
            if running_max == math.inf:
                break  # dividing by it would make NaNs; the check below names the row
            a[: n + 2] /= running_max
            prev, cur = prev / running_max, cur / running_max
            log_scale += math.log(running_max)
            running_max = 1.0
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise DomainError(f"improper_eigvec: row {bad[0]} leaves double range at mu={mu!r} "
                          f"between two rescalings, {_RENORM_EVERY} rows apart")
    return ImproperEigvec(values=a, log_scale=log_scale)
