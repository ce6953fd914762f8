"""Independent checks of the program's outputs.

References come from the paper's formulas summed with `math.fsum` or from
mpmath at 30 digits, or from properties the method must have; never from a
saved copy of earlier output.  Reference values depend only on the inputs,
so they are cached and computed once per run.  Each check returns a list of
problems; an empty list means the output is right.
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import json
import math
import re

import mpmath as mp
import numpy as np

mp.mp.dps = 30

TAIL_TOL = 1e-14  # make_bg_state's default tail_tol, the BGState invariant


def close(name: str, got: float, want: float, rel: float, floor: float = 1.0) -> list[str]:
    if abs(got - want) <= rel * max(floor, abs(want)):
        return []
    return [f"{name}: got {got!r}, want {want!r} (tol {rel:.0e})"]


def f_coeff(k: float, n: int) -> float:
    """Paper's cos-operator coupling sqrt(n(2k+n-1)) (1/(k+n) + 1/(k+n-1))."""
    return math.sqrt(n * (2.0 * k + n - 1.0)) * (1.0 / (k + n) + 1.0 / (k + n - 1.0))


# ---------------------------------------------------------------------------
# operators


def spectrum(k: float, dim: int, eigs, verdict: str) -> list[str]:
    lam = [float(v) for v in eigs]
    out = []
    if len(lam) != dim:
        return [f"spectrum k={k}: {len(lam)} eigenvalues for dim {dim}"]
    out += close(f"spectrum k={k} trace", math.fsum(lam), 0.0, 1e-10)
    mirror = max(abs(a + b) for a, b in zip(lam, reversed(lam)))
    if mirror > 1e-10:
        out.append(f"spectrum k={k}: not symmetric under lambda -> -lambda ({mirror:.2e})")
    want = 2.0 * math.fsum((f_coeff(k, n) / 4.0) ** 2 for n in range(1, dim))
    out += close(f"spectrum k={k} sum of squares", math.fsum(v * v for v in lam), want, 1e-10)
    expected = {1.0: "BOUNDED", 0.25: "EXCEEDS"}.get(k)
    if expected is not None and verdict != expected:
        out.append(f"spectrum k={k}: verdict {verdict}, want {expected}")
    return out


def diagonal_identities(k: float, dim: int, result) -> list[str]:
    # [cos, sin]_nn = i (f_{n+1}^2 - f_n^2)/8 and (cos^2 + sin^2)_nn = (f_n^2 + f_{n+1}^2)/8
    f2 = [0.0] + [f_coeff(k, n) ** 2 for n in range(1, dim + 1)]
    worst = 0.0
    for n in range(dim):
        worst = max(worst,
                    abs(float(result.commutator_diag[n]) - (f2[n + 1] - f2[n]) / 8.0),
                    abs(float(result.sum_squares_diag[n]) - (f2[n] + f2[n + 1]) / 8.0))
    out = [] if worst <= 1e-12 else [f"diagonal identities k={k}: off by {worst:.2e}"]
    if not result.residual <= 1e-10:
        out.append(f"diagonal identities k={k}: residual {result.residual:.2e}")
    return out


def hp_phase_ops(k: float, dim: int, result) -> list[str]:
    # the oscillator realization must reproduce the abstract band f_{n+1}/4
    cos = result.cos_op.astype(np.complex128)
    sin = result.sin_op.astype(np.complex128)
    band = np.array([f_coeff(k, n + 1) / 4.0 for n in range(dim - 1)])
    idx = np.arange(dim - 1)
    worst = max(
        float(np.max(np.abs(cos[idx + 1, idx] - band))),
        float(np.max(np.abs(cos[idx, idx + 1] - band))),
        float(np.max(np.abs(sin[idx + 1, idx] - 1j * band))),
        float(np.max(np.abs(sin[idx, idx + 1] + 1j * band))),
    )
    out = [] if worst <= 1e-13 else [f"hp_phase_ops k={k}: band off by {worst:.2e}"]
    for name, op in (("cos", cos), ("sin", sin)):
        stray = np.count_nonzero(op) - 2 * (dim - 1)
        if stray:
            out.append(f"hp_phase_ops k={k}: {name} has {stray} entries off the band")
    return out


def two_mode(d: int, ops) -> list[str]:
    out = []
    pairs = {(e.n1, e.n2) for e in ops.sector_table}
    if len(ops.sector_table) != d * d or len(pairs) != d * d:
        out.append(f"two_mode: {len(pairs)} distinct pairs, want {d * d}")
    members: dict[int, int] = {}
    for e in ops.sector_table:
        s = e.n1 - e.n2
        members[s] = members.get(s, 0) + 1
        if e.sector != s or e.irrep_k != 0.5 + abs(s) / 2.0:
            out.append(f"two_mode: bad sector entry {e}")
            break
    if members != {s: d - abs(s) for s in range(-(d - 1), d)}:
        out.append("two_mode: sector sizes differ from d - |s|")
    kp = ops.kp.entries.astype(np.float64)
    worst = 0.0
    for n1 in range(d - 1):
        for n2 in range(d - 1):
            want = math.sqrt((n1 + 1) * (n2 + 1))
            worst = max(worst, abs(kp[(n1 + 1) * d + n2 + 1, n1 * d + n2] - want))
    if worst > 1e-12 or np.count_nonzero(kp) != (d - 1) ** 2:
        out.append(f"two_mode: K+ entries differ from sqrt((n1+1)(n2+1)) by {worst:.2e}")
    return out


def k1_entry(k: float, omega: complex, i: int, j: int) -> complex:
    # K1 = (K+ + K-)/2 with K+ |n> = omega sqrt((2k+n)(n+1)) |n+1>
    if i == j + 1:
        return omega * math.sqrt((2.0 * k + j) * (j + 1.0)) / 2.0
    if j == i + 1:
        return omega.conjugate() * math.sqrt((2.0 * k + i) * (i + 1.0)) / 2.0
    return 0.0


def repr_k1(k: float, omega: complex, dim: int, result) -> list[str]:
    lines, envelope = result
    out = []
    if lines[0] != "i,j,re,im" or len(lines) != dim * dim + 1:
        return [f"repr csv: header {lines[0]!r}, {len(lines)} lines"]
    worst = 0.0
    for row in csv.reader(lines[1:]):
        i, j = int(row[0]), int(row[1])
        worst = max(worst, abs(complex(float(row[2]), float(row[3])) - k1_entry(k, omega, i, j)))
    for i, row in enumerate(envelope["entries"]):
        for j, (re_, im_) in enumerate(row):
            worst = max(worst, abs(complex(re_, im_) - k1_entry(k, omega, i, j)))
    if worst > 1e-12 * dim:
        out.append(f"repr k1: entries off by {worst:.2e}")
    if envelope["dim"] != dim or envelope["k"] != k or envelope["name"] != "K1":
        out.append("repr k1: envelope metadata differs from the request")
    json.dumps(envelope)  # must serialize as plain JSON
    return out


# ---------------------------------------------------------------------------
# states (mpmath at 30 digits)


def _term(k, rho, n):
    # rho^{2(n+k)} / (n! Gamma(2k+n))
    return rho ** (2 * (n + k)) / (mp.factorial(n) * mp.gamma(2 * k + n))


@functools.lru_cache(maxsize=None)
def bessel_i(nu: float, x: float):
    return mp.besseli(mp.mpf(nu), mp.mpf(x))


@functools.lru_cache(maxsize=None)
def k3_mean(k: float, rho: float) -> float:
    return float(k + rho * bessel_i(2 * k, 2 * rho) / bessel_i(2 * k - 1, 2 * rho))


@functools.lru_cache(maxsize=None)
def tail(k: float, rho: float, dim: int) -> float:
    """Exact sum_{n >= dim} |c_n|^2 of the infinite coherent state."""
    kk, r = mp.mpf(k), mp.mpf(rho)
    total = mp.nsum(lambda n: _term(kk, r, n), [dim, mp.inf])
    return float(total / (r * bessel_i(2 * k - 1, 2 * rho)))


@functools.lru_cache(maxsize=None)
def edge_coefficient(k: float, rho: float, n: int) -> float:
    kk, r = mp.mpf(k), mp.mpf(rho)
    return float(mp.sqrt(_term(kk, r, n) / (r * bessel_i(2 * k - 1, 2 * rho))))


def _series(term, peak: float):
    """Sum term(0) + term(1) + ... directly, up to where terms are negligible.

    The terms here rise to a peak near n = `peak` before they decay, which
    defeats nsum's extrapolation, so they are added one by one at 30 digits.
    """
    total, n = mp.mpf(0), 0
    while True:
        t = term(n)
        total += t
        n += 1
        if n > peak and t <= total * mp.mpf(10) ** -32:
            return total


@functools.lru_cache(maxsize=None)
def g_series(k: float, rho: float) -> float:
    """g(rho) = 1/2 sum_n rho^{2(n+k)}/(n! Gamma(2k+n)) (1/(n+k) + 1/(n+k+1))."""
    kk, r = mp.mpf(k), mp.mpf(rho)
    return float(_series(lambda n: _term(kk, r, n) * (1 / (n + kk) + 1 / (n + kk + 1)) / 2,
                         2 * rho + 2))


@functools.lru_cache(maxsize=None)
def overlap_abs(k: float, z1: complex, z2: complex) -> float:
    """|<k,z2|k,z1>| from the Bessel closed form."""
    nu = mp.mpf(2 * k - 1)
    w = mp.mpc(z2).conjugate() * mp.mpc(z1)
    root = mp.sqrt(w)
    series = mp.besseli(nu, 2 * root) / root ** nu
    r1, r2 = abs(z1), abs(z2)
    pref = (mp.mpf(r1) * r2) ** (k - 0.5) / mp.sqrt(bessel_i(2 * k - 1, 2 * r1)
                                                   * bessel_i(2 * k - 1, 2 * r2))
    return float(abs(series) * pref)


def state_tail(k: float, rho: float, dim: int) -> list[str]:
    """The BGState invariant; a breach makes the operation a failure."""
    t = tail(k, rho, dim)
    return [] if t < TAIL_TOL else [f"state k={k} rho={rho}: tail {t:.3e} >= {TAIL_TOL:.0e} at dim {dim}"]


def state(k: float, rho: float, phi: float, rho2: float, phi2: float, r: dict) -> list[str]:
    z1, z2 = cmath.rect(rho, phi), cmath.rect(rho2, phi2)
    mean = k3_mean(k, rho)
    ratio = g_series(k, rho) / float(bessel_i(2 * k - 1, 2 * rho))
    out = close("K3 mean", r["k3_mean"], mean, 1e-10)
    out += close("K1 mean", r["mean_k1"], rho * math.cos(phi), 1e-10)
    out += close("K1 variance", r["var_k1"], mean / 2.0, 1e-10)
    out += close("cos mean", r["cos_mean"], math.cos(phi) * ratio, 1e-10)
    out += close("sin mean", r["sin_mean"], math.sin(phi) * ratio, 1e-10)
    out += close("eigenvector residual", r["residual"],
                  rho * edge_coefficient(k, rho, r["dim"] - 1), 1e-6, 1e-6)
    out += close("|overlap|", abs(r["overlap"]), overlap_abs(k, z1, z2), 1e-9)
    return [f"state k={k} rho={rho}: {p}" for p in out]


def g_k(k: float, rho: float, value: float) -> list[str]:
    return close(f"g_k({k}, {rho})", value, g_series(k, rho), 1e-10, 0.0)


def kbound_scan(result) -> list[str]:
    bad = [float(k) for k, v in zip(result.k_values, result.verdicts)
           if k >= 0.5 - 1e-12 and v != "BOUNDED"]
    return [f"kbound_scan: EXCEEDS at k >= 1/2: {bad}"] if bad else []


def completeness(k: float, n: int, value: float) -> list[str]:
    return close(f"completeness k={k} n={n}", value, 1.0, 1e-9)


@functools.lru_cache(maxsize=None)
def poisson_sums(k: float, r: float) -> tuple[float, float]:
    """<sqrt(N+2k)> and (r/2)<sqrt(N+2k)(1/(N+k)+1/(N+k+1))> for |alpha| = r."""
    kk, rr = mp.mpf(k), mp.mpf(r)

    def weight(n):
        return mp.exp(-rr * rr) * rr ** (2 * n) / mp.factorial(n) * mp.sqrt(n + 2 * kk)

    h1 = _series(weight, 2 * r * r + 2)
    h2 = rr / 2 * _series(lambda n: weight(n) * (1 / (n + kk) + 1 / (n + kk + 1)), 2 * r * r + 2)
    return float(h1), float(h2)


def alpha(k: float, r: float, beta: float, result) -> list[str]:
    h1, h2 = poisson_sums(k, r)
    out = close("mean K1", result.mean_k1, r * math.cos(beta) * h1, 1e-10)
    out += close("mean K3", result.mean_k3, r * r + k, 1e-12)
    out += close("cos mean", result.cos_mean, math.cos(beta) * h2, 1e-10)
    out += close("sin mean", result.sin_mean, math.sin(beta) * h2, 1e-10)
    return [f"alpha_expectations k={k} r={r}: {p}" for p in out]


def h2_curve(k: float, r_values, values) -> list[str]:
    out = [] if float(values[0]) == 0.0 or float(r_values[0]) != 0.0 else ["h2_curve: h2(0) != 0"]
    for i in range(0, len(r_values), 20):
        r = float(r_values[i])
        if r > 0.0:
            out += close(f"h2_curve({r})", float(values[i]), poisson_sums(k, r)[1], 1e-10)
    return out


def _wrap(delta: float) -> float:
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def trials_bg(rho: float, phi: float, noise: float, summary) -> list[str]:
    rows = summary.rows
    if noise == 0.0:
        worst = max(max(abs(r.recovered_rho - rho) / rho, abs(_wrap(r.recovered_phi - phi)))
                    for r in rows)
        return [] if worst <= 1e-9 else [f"run_trials bg: noiseless recovery off by {worst:.2e}"]
    # 1% multiplicative noise on every reading: the mean stays within a few percent
    if not all(math.isfinite(r.recovered_rho) for r in rows):
        return ["run_trials bg: non-finite recovered rho"]
    return close("run_trials bg noisy rho mean", summary.rho_mean, rho, 0.05)


def trials_number(k: float, n: int, noise: float, summary, estimate) -> list[str]:
    out = []
    if noise == 0.0:
        if summary.flat_count != summary.trials:
            out.append(f"run_trials number: {summary.flat_count} flat of {summary.trials}")
        if estimate.n_estimate != n:
            out.append(f"run_trials number: n estimate {estimate.n_estimate}, want {n}")
        out += close("run_trials number k estimate", estimate.k_estimate, k, 1e-9)
    elif not all(math.isfinite(r.err_k1) and math.isfinite(r.err_k2) for r in summary.rows):
        out.append("run_trials number noisy: non-finite errors")
    return out


# ---------------------------------------------------------------------------
# cli outputs

_HEADER = re.compile(r"^phasequant v(\S+), (\S+), (.*)$")


def _flags(argv: list[str]) -> tuple[str, dict]:
    sub, flags = argv[0], {}
    for name, value in zip(argv[1::2], argv[2::2]):
        key = name.lstrip("-").replace("-", "_")
        if key not in ("out", "summary"):
            flags.setdefault(key, []).append(value)
    return sub, flags


def _same(text: str, want: str) -> bool:
    try:
        return float(text) == float(want)
    except ValueError:
        return text == want


def cli_header(meta: str, argv: list[str], version: str) -> list[str]:
    match = _HEADER.match(meta)
    sub, flags = _flags(argv)
    if not match or match.group(1) != version or match.group(2) != sub:
        return [f"{sub}: header {meta!r} lacks version {version} or subcommand"]
    written = dict(part.split("=", 1) for part in match.group(3).split())
    out = []
    for key, values in flags.items():
        got = written.get(key, "").split(",")
        if len(got) != len(values) or not all(_same(g, v) for g, v in zip(got, values)):
            out.append(f"{sub}: header has {key}={written.get(key)!r}, flags gave {values}")
    return out


def cli_output(path: str, text: str, argv: list[str], version: str) -> list[str]:
    """Parse one output file and check its header against the flags."""
    if path.endswith(".json"):
        payload = json.loads(text)
        return cli_header(payload["_meta"], argv, version)
    first, _, body = text.partition("\n")
    if not first.startswith("# "):
        return [f"{path}: no header comment"]
    rows = list(csv.reader(io.StringIO(body)))
    if len(rows) < 2 or len({len(r) for r in rows}) != 1:
        return [f"{path}: ragged or empty CSV"]
    return cli_header(first[2:], argv, version)


def cli_contents(files: dict) -> list[str]:
    """Spot checks of what the README commands must produce."""
    out = []
    report = json.loads(files["report.json"])
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if len(failed) != 1 or not failed[0].startswith("containment claim k=0.5"):
        out.append(f"verify-all: failed checks {failed}, want only the k=0.5 containment check")
    eig = [float(r[1]) for r in csv.reader(io.StringIO(files["spectrum.csv"].split("\n", 2)[2]))]
    if len(eig) != 2000 or max(abs(v) for v in eig) > 1.0 + 1e-12:
        out.append("phase-spectrum: k=1 spectrum leaves [-1, 1] or has the wrong size")
    pairs = {tuple(r[:2]) for r in csv.reader(io.StringIO(files["sectors.csv"].split("\n", 2)[2]))}
    if len(pairs) != 24 * 24:
        out.append(f"two-mode: {len(pairs)} distinct (n1, n2) pairs, want {24 * 24}")
    return out
