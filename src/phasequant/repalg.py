"""Truncated number-basis matrices for the positive discrete series.

Generators act on the lowest-weight basis |k,0> .. |k,dim-1>:

    K3 |k,n> = (n + k) |k,n>
    K+ |k,n> = omega * sqrt((2k + n)(n + 1)) |k,n+1>
    K- |k,n> = (1/omega) * sqrt((2k + n - 1) n) |k,n-1>

with K1 = (K+ + K-)/2 and K2 = (K+ - K-)/(2i); each builder forms the
ladder sqrt((2k+n)(n+1)) once and reads K+ and K- from it.  Everything
here is a compression P.Op.P onto the first ``dim`` states.  Compressions of band
operators are exact except near the cut, so algebraic identities are asserted
on an interior window that excludes the last few rows and columns; the
checks that assert them (``commutator_residual``, ``commutator_gap``) take
the window as an argument.

Operators are stored as their diagonals {offset j - i: vector} (LAPACK band
storage), in the precision this module alone names: ``_COMPLEX``
(``np.clongdouble``) when any diagonal is complex, as for the abstract
builders here, and ``_REAL`` (``np.longdouble``) otherwise, as for the real
bosonic realizations in ``fockreal``, which reads the names when it builds,
as ``phaseops`` does.  The ladder amplitudes are square roots whose double
rounding alone contributes ~|entry|^2 * 1e-16 to commutator residuals, which
at dim = 256 is ~1e-11 and would drown the algebra checks; the 80-bit long
double of x86-64 Linux pushes that floor below 1e-13.  Where it is a plain
double (MSVC, macOS arm64), ``verify``'s "five realizations close the
algebra" fails (1.8e-12 against 1e-12).  Products are formed diagonal by
diagonal, which both respects the extended width (BLAS would silently
downcast) and is far cheaper than dense multiplication.

The serializers ``csv_lines`` and ``json_envelope`` write the full dense
matrix but read only the diagonals: each row starts as a copy of one
prebuilt row of zero cells (in the JSON envelope, whose cells are
``(re, im)`` tuples, every one is the same shared ``(0.0, 0.0)``) and the
band is written over it, so no dense matrix is built.  Their text is the
same as formatting the dense matrix entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, DomainError, _worst, check_domain
from .specfun import ln_gamma

__all__ = [
    "RepLabel",
    "TruncatedOperator",
    "FluctuationRecord",
    "build_k3",
    "build_kplus",
    "build_kminus",
    "build_k1",
    "build_k2",
    "casimir",
    "band_gap",
    "banded_matmul",
    "banded_matvec",
    "commutator_gap",
    "commutator_residual",
    "fluctuation_closed_forms",
    "ladder_norm",
    "ladder_log_norm",
    "csv_lines",
    "json_envelope",
]

GROUP_TAGS = ("SO12", "SU11", "UniversalCover")

# the storage precision of every operator; the module docstring says why
_REAL, _COMPLEX = np.longdouble, np.clongdouble

_INT_TOL = 1e-12


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) <= _INT_TOL


@dataclass(frozen=True)
class RepLabel:
    """Representation label: Bargmann index k, phase convention, group.

    The group tag restricts which k give single-valued representations:
    SO12 needs integer k, SU11 needs 2k integer, and the universal cover
    places no restriction beyond k being a positive real.
    """

    k: float
    omega: complex = 1.0 + 0.0j
    group_tag: str = "UniversalCover"

    def __post_init__(self) -> None:
        check_domain("k", self.k, message="Bargmann index must be positive, got k={value}")
        if not abs(abs(self.omega) - 1.0) <= 1e-12:
            raise DomainError(f"omega must have unit modulus, got |omega|={abs(self.omega)}")
        if self.group_tag not in GROUP_TAGS:
            raise DomainError(f"group_tag must be one of {GROUP_TAGS}, got {self.group_tag!r}")
        if self.group_tag == "SO12" and not (_is_integral(self.k) and self.k >= 1.0):
            raise DomainError(f"SO12 requires integer k >= 1, got k={self.k}")
        if self.group_tag == "SU11" and not _is_integral(2.0 * self.k):
            raise DomainError(f"SU11 requires 2k integer, got k={self.k}")

    @property
    def q(self) -> float:
        """Casimir eigenvalue k(1 - k)."""
        return self.k * (1.0 - self.k)


@dataclass(frozen=True)
class TruncatedOperator:
    """Compression of an operator onto the first ``dim`` basis states.

    Parameters
    ----------
    dim : int
        Basis size, a positive integer; entries act on basis states 0 .. dim-1.
    k : float or None
        Bargmann index of the carrying representation, a positive real; None
        for a space that carries several (the squared-boson and two-mode
        realizations).
    diagonals : mapping of int to array-like
        Offset d holds entries (i, i + d) in order of i, dim - |d| of them;
        absent offsets are zero, so nothing can lie outside the band.  All
        are stored as ``_COMPLEX`` if any is complex, else as ``_REAL``.
    name : str
        Label used by the serialization envelope.
    omega : complex
        Phase convention the entries were built with.
    """

    dim: int
    k: float | None
    diagonals: dict
    name: str = ""
    omega: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        check_domain("dim", self.dim, "positive integer")
        if self.k is not None:
            check_domain("k", self.k, message="k must be positive, got {value}")
        complex_kind = any(np.iscomplexobj(v) for v in self.diagonals.values())
        dtype = _COMPLEX if complex_kind else _REAL
        diags = {}
        for offset, values in sorted(self.diagonals.items()):
            vec = np.array(values, dtype=dtype)
            if not abs(offset) < self.dim:
                raise DomainError(f"offset {offset} lies outside a dim {self.dim} matrix")
            if vec.shape != (self.dim - abs(offset),):
                raise DimensionMismatchError(f"diagonal {offset} has shape {vec.shape}")
            vec.setflags(write=False)
            diags[int(offset)] = vec
        object.__setattr__(self, "diagonals", MappingProxyType(diags))

    @property
    def bandwidth(self) -> int:
        """Largest |offset| stored (0 diagonal, 1 tridiagonal)."""
        return max((abs(d) for d in self.diagonals), default=0)

    @cached_property
    def entries(self) -> np.ndarray:
        """Read-only dense dim x dim view in the stored dtype, built on first access."""
        arr = np.zeros((self.dim, self.dim),
                       dtype=np.result_type(_REAL, *self.diagonals.values()))
        for d, vec in self.diagonals.items():
            rows = np.arange(vec.size) + max(0, -d)
            arr[rows, rows + d] = vec
        arr.setflags(write=False)
        return arr

    def is_hermitian(self, tol: float = 0.0) -> bool:
        # diagonal d of the adjoint is the conjugate of diagonal -d
        return all(float(np.max(np.abs(v - np.conj(self.diagonals.get(-d, 0))))) <= tol
                   for d, v in self.diagonals.items())


@dataclass(frozen=True)
class FluctuationRecord:
    """Number-state fluctuation closed forms for K1 and K2."""

    var_k1: float
    var_k2: float
    uncertainty_product: float
    sum_squares: float


def build_k3(label: RepLabel, dim: int) -> TruncatedOperator:
    """Diagonal compact generator, entries n + k."""
    check_domain("dim", dim, "positive integer")
    diag = _COMPLEX(label.k) + np.arange(dim, dtype=_COMPLEX)
    return TruncatedOperator(
        dim=dim, k=label.k, diagonals={0: diag}, name="K3", omega=label.omega,
    )


def _ladder(label: RepLabel, dim: int, caller: str) -> tuple[dict, dict]:
    # the K+ map {-1: omega a} and the K- map {1: conj(omega) a} of the one
    # ladder a_n = sqrt((2k+n)(n+1)), n = 0..dim-2, the |k,n> -> |k,n+1>
    # amplitudes.  For unit-modulus omega, 1/omega is its conjugate;
    # conjugation is exact in floating point while division is not, and it
    # makes K- = (K+)^dag hold entrywise rather than to rounding.
    if check_domain("dim", dim, "positive integer") < 2:
        raise DomainError(f"{caller} requires dim >= 2, got {dim}")
    n = np.arange(dim - 1, dtype=_COMPLEX)
    a = np.sqrt((2.0 * _COMPLEX(label.k) + n) * (n + 1.0))
    omega = _COMPLEX(label.omega)
    return {-1: omega * a}, {1: omega.conjugate() * a}


def build_kplus(label: RepLabel, dim: int) -> TruncatedOperator:
    """Raising generator; subdiagonal entries omega sqrt((2k+n)(n+1))."""
    kp, _ = _ladder(label, dim, "build_kplus")
    return TruncatedOperator(dim=dim, k=label.k, diagonals=kp, name="K+", omega=label.omega)


def build_kminus(label: RepLabel, dim: int) -> TruncatedOperator:
    """Lowering generator; superdiagonal entries (1/omega) sqrt((2k+n-1)n).

    Annihilates |k,0> and is the conjugate transpose of K+ on the full
    truncated block for any unit-modulus omega.
    """
    _, km = _ladder(label, dim, "build_kminus")
    return TruncatedOperator(dim=dim, k=label.k, diagonals=km, name="K-", omega=label.omega)


def build_k1(label: RepLabel, dim: int) -> TruncatedOperator:
    """K1 = (K+ + K-)/2."""
    kp, km = _ladder(label, dim, "build_k1")
    diags = {d: 0.5 * (kp.get(d, 0) + km.get(d, 0)) for d in sorted(set(kp) | set(km))}
    return TruncatedOperator(
        dim=dim, k=label.k, diagonals=diags, name="K1", omega=label.omega,
    )


def build_k2(label: RepLabel, dim: int) -> TruncatedOperator:
    """K2 = (K+ - K-)/(2i)."""
    kp, km = _ladder(label, dim, "build_k2")
    diags = {d: (kp.get(d, 0) - km.get(d, 0)) / _COMPLEX(2.0j)
             for d in sorted(set(kp) | set(km))}
    return TruncatedOperator(
        dim=dim, k=label.k, diagonals=diags, name="K2", omega=label.omega,
    )


def band_gap(x, y) -> float:
    """Entrywise max |x - y| of two diagonal maps (absent ones zero); NaN if any is."""
    return _worst(*(float(abs(x.get(d, 0) - y.get(d, 0)).max()) for d in set(x) | set(y)))


def banded_matmul(a, b, dim: int) -> dict:
    """Product of two dim x dim matrices given as {offset: diagonal} maps.

    Equivalent to ``a @ b`` on the dense matrices, but runs in O(dim) per
    pair of diagonals and never leaves the input dtype, so extended-precision
    diagonals stay extended.
    """
    if not (a and b):
        return {}
    dtype = np.result_type(*a.values(), *b.values())
    out: dict = {}
    for d1, x in sorted(a.items()):
        for d2, y in sorted(b.items()):
            # rows i with all of (i, i+d1), (i+d1, i+d), (i, i+d) in range
            d = d1 + d2
            lo, hi = max(0, -d1, -d), min(dim, dim - d1, dim - d)
            if lo >= hi:
                continue
            # entry (i, i+e) is element i - max(0, -e) of diagonal e
            r, r1, r2 = max(0, -d), max(0, -d1), max(0, -d2)
            if d not in out:
                out[d] = np.zeros(dim - abs(d), dtype=dtype)
            out[d][lo - r:hi - r] += x[lo - r1:hi - r1] * y[lo + d1 - r2:hi + d1 - r2]
    return out


def banded_matvec(a, c: np.ndarray) -> np.ndarray:
    """``A @ c`` for A given as a {offset: diagonal} map, in the dtype of c.

    O(dim) per diagonal; the dense matrix is never formed.
    """
    out = np.zeros_like(c)
    for d, v in a.items():
        rows, cols = max(0, -d), max(0, d)
        out[rows:rows + v.size] += v.astype(c.dtype) * c[cols:cols + v.size]
    return out


def commutator_gap(a, b, expected, dim: int, inside: np.ndarray) -> float:
    """Max |[A, B] - E| over entries (i, j) with inside[i] and inside[j]; NaN if any is."""
    ab, ba = banded_matmul(a, b, dim), banded_matmul(b, a, dim)
    worst = []
    for d in set(ab) | set(ba) | set(expected):
        t = np.arange(dim - abs(d))
        keep = inside[t + max(0, -d)] & inside[t + max(0, d)]
        resid = ab.get(d, 0) - ba.get(d, 0) - expected.get(d, 0)
        worst.append(np.max(np.abs(resid)[keep], initial=0.0))
    return float(np.max(worst, initial=0.0))


def casimir(label: RepLabel, dim: int) -> TruncatedOperator:
    """K+ K- + K3 (1 - K3); k(1 - k) times the identity, to rounding.

    For this compression the product K+ K- never leaves the block (K- lowers
    first), so the matrix comes out exactly diagonal and the truncation cut
    leaves no trace.
    """
    kp, km = _ladder(label, dim, "casimir")
    k3d = _COMPLEX(label.k) + np.arange(dim, dtype=_COMPLEX)
    diags = banded_matmul(kp, km, dim)
    diags[0] = diags.get(0, 0) + k3d * (1.0 - k3d)
    return TruncatedOperator(
        dim=dim, k=label.k, diagonals=diags, name="Casimir", omega=label.omega,
    )


def commutator_residual(
    a: TruncatedOperator,
    b: TruncatedOperator,
    expected: TruncatedOperator,
    sign: complex = 1.0,
    margin: int | None = None,
) -> float:
    """Max-norm of [A, B] - sign*i*expected on the interior window.

    ``sign`` is +-1 for the rotation-algebra relations; a complex value is
    allowed so that sign=2j checks [K+, K-] = -2 K3 (2j*i = -2).  The default
    margin is twice the bandwidth of the product, which is where compression
    artifacts of band operators live.
    """
    if not (a.dim == b.dim == expected.dim):
        raise DimensionMismatchError(f"dims differ: {a.dim}, {b.dim}, {expected.dim}")
    if not (a.k == b.k == expected.k):
        raise DimensionMismatchError(f"k labels differ: {a.k}, {b.k}, {expected.k}")
    if margin is None:
        margin = 2 * (a.bandwidth + b.bandwidth)
    if not check_domain("margin", margin, "nonnegative integer") < a.dim:
        raise DomainError(f"margin must lie in [0, dim), got {margin} for dim {a.dim}")
    scaled = {d: _COMPLEX(sign * 1j) * v for d, v in expected.diagonals.items()}
    inside = np.arange(a.dim) < a.dim - margin
    return commutator_gap(a.diagonals, b.diagonals, scaled, a.dim, inside)


def fluctuation_closed_forms(k: float, n: int) -> FluctuationRecord:
    """Closed-form K1/K2 fluctuations on the number state |k,n>.

    Both variances equal (n^2 + 2nk + k)/2; the product of the two spreads
    is bounded below by (n + k)/2 with equality at n = 0.  The second-moment
    sum <K1^2> + <K2^2> = (n + k)^2 + k(1 - k) is twice that, formed as
    n^2 + 2nk + k: the other form cancels from k ~ 1e9 on and overflows.
    """
    check_domain("k", k)
    check_domain("n", n, "nonnegative integer")
    sum_squares = n * n + 2.0 * n * k + k
    var = 0.5 * sum_squares
    return FluctuationRecord(
        var_k1=var, var_k2=var, uncertainty_product=var, sum_squares=sum_squares,
    )


def ladder_log_norm(k: float, n: int) -> float:
    """Log of the (K+)^n |k,0> normalization sqrt(Gamma(2k)/(n! Gamma(2k+n))).

    The log form is the usable one for n beyond ~150, where the norm itself
    leaves double range.
    """
    check_domain("k", k)
    check_domain("n", n, "nonnegative integer")
    return 0.5 * (ln_gamma(2.0 * k) - ln_gamma(n + 1.0) - ln_gamma(2.0 * k + n))


def ladder_norm(k: float, n: int) -> float:
    """Normalization sqrt(Gamma(2k) / (n! Gamma(2k+n))) of (K+)^n |k,0>.

    Underflows to zero once the log form drops below about -708; callers
    needing large n should combine ``ladder_log_norm`` with their own
    log-scale bookkeeping.
    """
    return math.exp(ladder_log_norm(k, n))


def _band_rows(op: TruncatedOperator, background: list, cell) -> list[list]:
    # the matrix as one list per row, each a copy of background with every
    # stored entry (i, j) replaced by cell(j, re, im) at double precision,
    # signed zeros kept; no dense array is formed
    rows = [background.copy() for _ in range(op.dim)]
    for d, vec in op.diagonals.items():
        z = vec.astype(np.complex128)
        for t, (re, im) in enumerate(zip(z.real.tolist(), z.imag.tolist())):
            i = t + max(0, -d)
            rows[i][i + d] = cell(i + d, re, im)
    return rows


def csv_lines(op: TruncatedOperator) -> list[str]:
    """Row-major CSV serialization with header ``i,j,re,im``.

    Values are emitted at double precision via ``repr``, which round-trips.
    The format is stable: one line per dense entry, (0, 0) .. (dim-1, dim-1),
    entries outside the band written ``0.0,0.0`` and signed zeros kept.
    Only the stored diagonals are formatted; no dense matrix is built.
    """
    rows = _band_rows(op, [f"{j},0.0,0.0" for j in range(op.dim)],
                      lambda j, re, im: f"{j},{re!r},{im!r}")
    lines = ["i,j,re,im"]
    for i, row in enumerate(rows):
        # one join and one split per row, both in C, instead of a
        # concatenation per entry
        lines += (f"{i}," + f"\n{i},".join(row)).split("\n")
    return lines


def json_envelope(op: TruncatedOperator) -> dict:
    """JSON-ready envelope {k, dim, omega, name, entries}.

    ``entries`` is the matrix row-major: one list per row, each cell an
    immutable ``(re, im)`` tuple of Python floats at double precision with
    signed zeros kept.  Off-band cells all share one ``(0.0, 0.0)`` tuple,
    which is exact because an entry off the band is always +0.0.  Only the
    stored diagonals are read; no dense matrix is built.  ``json.dumps``
    writes a tuple as an array, so the text is the same as formatting entry
    by entry.
    """
    return {
        "k": op.k,
        "dim": op.dim,
        "omega": [complex(op.omega).real, complex(op.omega).imag],
        "name": op.name,
        "entries": _band_rows(op, [(0.0, 0.0)] * op.dim, lambda j, re, im: (re, im)),
    }
