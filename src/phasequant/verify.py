"""Runnable battery of the documented per-module invariants.

Each check re-derives one property the test suite pins, at a scale small
enough that the whole battery finishes in well under five minutes.  Checks
never stop the battery: every result carries pass/fail plus a one-line
detail, and disagreeing routes are reported side by side.

One check fails by design of the underlying operator, not by a bug: the
truncated cos matrix has a dim-stable eigenvalue 1.00648 at k = 0.5, so the
documented containment claim for k >= 0.5 holds only from k = 1 on.  The
battery states the claim as documented and reports the honest failure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import MODULE_ORDER, bgstates, fockreal, nfm, phaseops, repalg, specfun

__all__ = ["CheckResult", "run_all", "MODULE_ORDER"]


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str


def _check(results: list, module: str, name: str, fn) -> None:
    # a check that raises is a failure with the exception as its detail
    try:
        passed, detail = fn()
    except Exception as exc:  # noqa: BLE001 - battery must keep going
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    results.append(CheckResult(module=module, name=name, passed=passed, detail=detail))


def _fold(*values: float) -> float:
    # the largest value, or NaN if any is NaN, as repalg.band_gap folds; the
    # built-in max(0.0, nan) is 0.0, so a NaN residual would read as a pass
    return math.nan if math.isnan(sum(values)) else max(values)


def _sum_squares_diagonal(k: float, dim: int) -> np.ndarray:
    # real diagonal of K1^2 + K2^2 at omega = 1, formed from the bands
    label = repalg.RepLabel(k=k)
    k1 = repalg.build_k1(label, dim).diagonals
    k2 = repalg.build_k2(label, dim).diagonals
    return (repalg.banded_matmul(k1, k1, dim)[0] + repalg.banded_matmul(k2, k2, dim)[0]).real


# ---------------------------------------------------------------------------
# specfun


def _specfun_checks(results: list) -> None:
    rng = np.random.default_rng(101)
    points = [(float(rng.uniform(1.0, 10.0)), float(rng.uniform(0.1, 50.0)))
              for _ in range(20)]

    def recurrence():
        worst = 0.0
        for nu, x in points:
            lhs = specfun.bessel_i(nu - 1.0, x) - specfun.bessel_i(nu + 1.0, x)
            rhs = (2.0 * nu / x) * specfun.bessel_i(nu, x)
            worst = _fold(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        return worst < 1e-10, f"max relative residual {worst:.3e}"

    def wronskian():
        worst = 0.0
        for nu, x in points:
            lhs = (specfun.bessel_i(nu, x) * specfun.bessel_k(nu + 1.0, x)
                   + specfun.bessel_i(nu + 1.0, x) * specfun.bessel_k(nu, x))
            worst = _fold(worst, abs(lhs * x - 1.0))
        return worst < 1e-10, f"max |x*W - 1| = {worst:.3e}"

    def half_integer():
        worst = 0.0
        for x in (0.5, 2.0, 10.0, 30.0):
            ref_i = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
            ref_k = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            worst = _fold(worst, abs(specfun.bessel_i(0.5, x) / ref_i - 1.0),
                        abs(specfun.bessel_k(0.5, x) / ref_k - 1.0))
        return worst < 1e-12, f"max relative error {worst:.3e}"

    def asymptotic_remainder():
        rels = []
        for x in (20.0, 40.0, 80.0):
            full = specfun.bessel_i(1.0, x)
            rels.append(abs(full - specfun.bessel_i_asymptotic(1.0, x)) / full)
        ratio = rels[0] / rels[1]
        ok = all(r * x ** 3 < 5.0 for r, x in zip(rels, (20.0, 40.0, 80.0)))
        return ok and 4.0 < ratio < 16.0, (
            f"rel errors {rels[0]:.2e}/{rels[1]:.2e}/{rels[2]:.2e}, x2 ratio {ratio:.1f}"
        )

    _check(results, "specfun", "three-term recurrence", recurrence)
    _check(results, "specfun", "I/K Wronskian", wronskian)
    _check(results, "specfun", "half-integer closed forms", half_integer)
    _check(results, "specfun", "asymptotic remainder order", asymptotic_remainder)


# ---------------------------------------------------------------------------
# repalg


def _repalg_checks(results: list) -> None:
    def hermiticity():
        label = repalg.RepLabel(k=0.7)
        for build in (repalg.build_k1, repalg.build_k2, repalg.build_k3):
            if not build(label, 32).is_hermitian():
                return False, f"{build.__name__} differs from its adjoint"
        return True, "k1/k2/k3 exactly self-adjoint at omega=1"

    def adjointness():
        label = repalg.RepLabel(k=1.3, omega=cmath.exp(0.3j))
        kp = repalg.build_kplus(label, 32).diagonals
        km = repalg.build_kminus(label, 32).diagonals
        # diagonal d of (K+)^dag is the conjugate of diagonal -d of K+
        gap = repalg.band_gap(km, {-d: np.conj(v) for d, v in kp.items()})
        return gap == 0.0, f"max |K- - (K+)^dag| = {gap:.3e}"

    def second_moments():
        worst = 0.0
        for k in (0.5, 1.0, 2.0):
            diag = _sum_squares_diagonal(k, 64)
            for n in (0, 10, 40):
                closed = repalg.fluctuation_closed_forms(k, n).sum_squares
                worst = _fold(worst, abs(float(diag[n]) - closed))
        return worst < 1e-12, f"max |matrix - closed| = {worst:.3e}"

    def omega_covariance():
        a = repalg.build_k1(repalg.RepLabel(k=0.75), 48)
        b = repalg.build_k1(repalg.RepLabel(k=0.75, omega=1j), 48)
        da = np.sort(np.linalg.eigvalsh(a.entries.astype(np.complex128)))
        db = np.sort(np.linalg.eigvalsh(b.entries.astype(np.complex128)))
        gap = float(np.max(np.abs(da - db)))
        squares = [repalg.banded_matmul(op.diagonals, op.diagonals, 48)[0] for op in (a, b)]
        diag_gap = float(np.max(np.abs(squares[0] - squares[1])))
        return gap < 1e-12 and diag_gap < 1e-12, (
            f"spectrum gap {gap:.3e}, diagonal gap {diag_gap:.3e}"
        )

    def correspondence():
        # k = 0.5 keeps the Casimir term nonzero so the approach is visible
        k = 0.5
        vals = [repalg.fluctuation_closed_forms(k, n).sum_squares / (n + k) ** 2
                for n in (20, 200)]
        ok = abs(vals[1] - 1.0) < 0.01 and abs(vals[1] - 1.0) < abs(vals[0] - 1.0)
        return ok, f"ratio at n=20: {vals[0]:.6f}, n=200: {vals[1]:.6f}"

    _check(results, "repalg", "generator hermiticity", hermiticity)
    _check(results, "repalg", "ladder adjointness", adjointness)
    _check(results, "repalg", "second moments vs closed forms", second_moments)
    _check(results, "repalg", "omega covariance", omega_covariance)
    _check(results, "repalg", "correspondence-limit ratio", correspondence)


# ---------------------------------------------------------------------------
# phaseops


def _phaseops_checks(results: list) -> None:
    def number_phase_commutators():
        worst = 0.0
        for k in (0.25, 0.5, 1.0, 2.0):
            label = repalg.RepLabel(k=k)
            pair = phaseops.build_phase_ops(label, 64)
            k3 = repalg.build_k3(label, 64)
            worst = _fold(
                worst,
                repalg.commutator_residual(k3, pair.cos_op, pair.sin_op, sign=-1.0, margin=4),
                repalg.commutator_residual(k3, pair.sin_op, pair.cos_op, sign=1.0, margin=4),
            )
        return worst < 1e-12, f"max interior residual {worst:.3e}"

    def central_commutants():
        worst = 0.0
        mm = repalg.banded_matmul
        inside = np.arange(64) < 64 - 6
        for k in (0.5, 1.0):
            label = repalg.RepLabel(k=k)
            pair = phaseops.build_phase_ops(label, 64)
            cos, sin = pair.cos_op.diagonals, pair.sin_op.diagonals
            k3 = repalg.build_k3(label, 64).diagonals
            for x, y, sign in ((mm(cos, sin, 64), mm(sin, cos, 64), -1.0),
                               (mm(cos, cos, 64), mm(sin, sin, 64), 1.0)):
                prod = {d: x.get(d, 0) + sign * y.get(d, 0) for d in set(x) | set(y)}
                worst = _fold(worst, repalg.commutator_gap(prod, k3, {}, 64, inside))
        return worst < 1e-12, f"max interior commutant residual {worst:.3e}"

    def ground_equality():
        for k in (0.5, 1.0, 2.0):
            f0 = phaseops.f_coeff(k, 0)
            f1 = phaseops.f_coeff(k, 1)
            if f0 != 0.0 or (f1 * f1 + f0 * f0) != (f1 * f1 - f0 * f0):
                return False, f"ground equality broken at k={k}"
        return True, "f_0 = 0 makes the n=0 uncertainty bound an equality"

    def large_n_diagonal():
        worst = 0.0
        for k in (0.5, 1.0, 2.0):
            cos = phaseops.build_phase_ops(repalg.RepLabel(k=k), 256).cos_op.diagonals
            diag = repalg.banded_matmul(cos, cos, 256)[0].real
            for n in (50, 100, 200):
                closed = phaseops.cos_squared_diag_asymptote(k, n)
                worst = _fold(worst, abs(float(diag[n]) / closed - 1.0) * n ** 4)
        return worst < 10.0, f"max rel err * n^4 = {worst:.3f}"

    def containment(k, expect_bounded):
        def run():
            # the spectrum is symmetric about 0: its top is max |eig|
            pair = phaseops.build_phase_ops(repalg.RepLabel(k=k), 400)
            top = float(phaseops.phase_extremes(pair, 1)[0])
            # NaN is neither bounded nor in excess
            ok = top <= 1.0 + 1e-12 if expect_bounded else top > 1.0 + 1e-12
            return ok, f"max |eig| = {top:.12f} at dim 400"
        return run

    _check(results, "phaseops", "number-phase commutators", number_phase_commutators)
    _check(results, "phaseops", "[cos,sin] and cos^2+sin^2 central", central_commutants)
    _check(results, "phaseops", "ground-state uncertainty equality", ground_equality)
    _check(results, "phaseops", "large-n diagonal asymptote", large_n_diagonal)
    _check(results, "phaseops", "containment claim k=0.5 (documented, fails honestly)",
           containment(0.5, True))
    _check(results, "phaseops", "containment k=1", containment(1.0, True))
    _check(results, "phaseops", "excess at k=0.25", containment(0.25, False))


# ---------------------------------------------------------------------------
# bgstates


def _bgstates_checks(results: list) -> None:
    def eigen_residual():
        worst = 0.0
        for k, z in ((0.5, 2.0), (1.0, 5.0 * cmath.exp(1j)), (2.0, 0.5)):
            state = bgstates.make_bg_state(k, z)
            resid = bgstates.eigenvector_residual(state)
            m = state.dim
            bound = math.sqrt(state.tail_tol / max(state.rho, 1e-30)
                              * m * (2.0 * k + m - 1.0)) + 1e-13
            worst = _fold(worst, resid / bound)
        return worst <= 1.0, f"worst residual/bound = {worst:.3f}"

    def dual_routes():
        for k in (0.5, 1.0, 2.0):
            for rho in (0.5, 2.0, 10.0):
                state = bgstates.make_bg_state(k, rho * cmath.exp(0.7j))
                bgstates.k3_moments(state)
                bgstates.k12_moments(state)
                bgstates.phase_expectations(state)
        return True, "closed forms and sums agreed on the 3x3 grid"

    def normalization():
        state = bgstates.make_bg_state(0.75, 2.0)
        gap = abs(float(np.sum(np.abs(state.coeffs) ** 2)) - 1.0)
        return gap < 1e-12, f"| ||c||^2 - 1 | = {gap:.3e}"

    def cauchy_schwarz():
        rng = np.random.default_rng(7)
        worst = 0.0
        strict_ok = True
        for _ in range(30):
            k = float(rng.uniform(0.3, 2.5))
            z1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            z2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            s1 = bgstates.make_bg_state(k, z1)
            s2 = bgstates.make_bg_state(k, z2)
            mag = abs(bgstates.overlap(s1, s2))
            worst = _fold(worst, mag)
            if abs(z1 - z2) > 0.3 and mag >= 1.0 - 1e-8:
                strict_ok = False
            if not abs(bgstates.overlap(s1, s1)) >= 1.0 - 1e-12:
                strict_ok = False
        return worst <= 1.0 + 1e-12 and strict_ok, f"max |overlap| = {worst:.12f}"

    def scan_rows():
        scan = bgstates.kbound_scan()
        summary = bgstates.scan_json_summary(scan)
        bad = [row for row in summary["rows"]
               if row["k"] >= 0.5 and row["verdict"] != "BOUNDED"]
        low = [row for row in summary["rows"]
               if abs(row["k"] - 0.25) < 1e-9 and row["verdict"] != "EXCEEDS"]
        ratio = scan.ratio
        tail_ok = all(
            bool(np.all(np.diff(ratio[i, -25:]) > 0.0))
            for i in range(len(scan.k_values)) if scan.k_values[i] >= 0.5
        )
        ok = not bad and not low and tail_ok
        return ok, (
            f"{len(summary['rows'])} rows, flip bracket {summary['flip_bracket']}"
        )

    _check(results, "bgstates", "lowering eigenvector residual bound", eigen_residual)
    _check(results, "bgstates", "dual-route moment agreement", dual_routes)
    _check(results, "bgstates", "normalization by direct sum", normalization)
    _check(results, "bgstates", "overlap Cauchy-Schwarz", cauchy_schwarz)
    _check(results, "bgstates", "ratio rows bounded/monotone", scan_rows)


# ---------------------------------------------------------------------------
# fockreal


def _fockreal_checks(results: list) -> None:
    def five_realizations():
        # [K+, K-] = -2 K3 (and [K3, K+] = K+ for the dressed ladder) off the
        # last four rows, [N, cos_sg] = -i sin_sg likewise, and the two-mode
        # commutator on max(n1, n2) <= d - 2
        gap = repalg.commutator_gap
        inside = np.arange(64) < 64 - 4
        worst = 0.0
        for k in (0.25, 0.5, 1.0, 2.0):
            g = fockreal.hp_generators(k, 64)
            kp, km, k3 = g.kp.diagonals, g.km.diagonals, g.k3.diagonals
            worst = _fold(worst, gap(kp, km, {0: -2.0 * k3[0]}, 64, inside),
                        gap(k3, kp, kp, 64, inside))
        sb = fockreal.squared_boson(64)
        worst = _fold(worst, gap(sb.kp.diagonals, sb.km.diagonals,
                               {0: -2.0 * sb.k3.diagonals[0]}, 64, inside))
        tm = fockreal.two_mode(8)
        d = tm.dim_per_mode
        n1, n2 = np.divmod(np.arange(d * d), d)
        worst = _fold(worst, gap(tm.kp.diagonals, tm.km.diagonals,
                               {0: -2.0 * tm.k3.diagonals[0]}, d * d,
                               np.maximum(n1, n2) <= d - 2))
        sg = fockreal.dirac_sg_ops(64)
        n = {0: np.arange(64, dtype=np.longdouble)}
        sin = {d: -1j * v for d, v in sg.sin_sg.diagonals.items()}
        worst = _fold(worst, gap(n, sg.cos_sg.diagonals, sin, 64, inside))
        return worst < 1e-12, f"max interior residual {worst:.3e}"

    def hp_equivalence():
        worst = 0.0
        for k in (0.25, 1.0):
            g = fockreal.hp_generators(k, 64)
            ref = repalg.build_kplus(repalg.RepLabel(k=k), 64)
            worst = _fold(worst, repalg.band_gap(g.kp.diagonals, ref.diagonals))
        return worst < 1e-13, f"max entry gap {worst:.3e}"

    def band_decay():
        band = fockreal.hp_phase_ops(0.5, 1024).cos.diagonals[-1]
        gaps = [abs(float(band[n]) - 0.5) * n for n in (10, 100, 1000)]
        ok = gaps[0] < 0.1 and gaps[1] < gaps[0] and gaps[2] < gaps[1]
        return ok, f"n*|band-1/2| at 10/100/1000: {gaps[0]:.2e}/{gaps[1]:.2e}/{gaps[2]:.2e}"

    def h2_bound():
        r = np.linspace(0.0, 20.0, 200)
        tops = [float(np.max(fockreal.h2_curve(k, r))) for k in (0.5, 1.0)]
        ok = all(t <= 1.0 + 1e-12 for t in tops)
        return ok, f"max h2 = {tops[0]:.12f} (k=0.5), {tops[1]:.12f} (k=1)"

    def sectors_exhaustive():
        tm = fockreal.two_mode(12)
        pairs = {(e.n1, e.n2) for e in tm.sector_table}
        ok = len(tm.sector_table) == 144 and len(pairs) == 144
        return ok, f"{len(pairs)} unique pairs over {len(tm.sector_table)} entries"

    _check(results, "fockreal", "five realizations close the algebra", five_realizations)
    _check(results, "fockreal", "dressed ladder equals abstract irrep", hp_equivalence)
    _check(results, "fockreal", "band decay toward the historical pair", band_decay)
    _check(results, "fockreal", "h2 bound for k >= 0.5", h2_bound)
    _check(results, "fockreal", "two-mode sector exhaustiveness", sectors_exhaustive)


# ---------------------------------------------------------------------------
# nfm


def _nfm_checks(results: list) -> None:
    def round_trip():
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(1000):
            cfg = nfm.ClassicalConfig(
                I1=float(rng.uniform(0.001, 1000.0)),
                I2=float(rng.uniform(0.001, 1000.0)),
                phi=float(rng.uniform(-math.pi, math.pi)),
            )
            obs = nfm.classical_observables(nfm.classical_readings(cfg))
            p = math.sqrt(cfg.I1 * cfg.I2)
            worst = _fold(worst, abs(obs.P3 - p) / p,
                        abs(obs.cos_phi - math.cos(cfg.phi)),
                        abs(obs.sin_phi - math.sin(cfg.phi)))
        return worst < 1e-12, f"worst deviation {worst:.3e} over 1000 configs"

    def circle_and_casimir():
        obs = nfm.classical_observables(
            nfm.classical_readings(nfm.ClassicalConfig(4.0, 1.0, 1.1)))
        circle = abs(obs.P1 ** 2 + obs.P2 ** 2 - obs.P3 ** 2)
        sq = float(_sum_squares_diagonal(0.8, 48)[3])
        gap = abs(nfm.casimir_gap(0.8, sq, (0.8 + 3) ** 2))
        return circle < 1e-14 and gap < 1e-10, (
            f"circle residual {circle:.2e}, Casimir gap {gap:.2e}"
        )

    def poisson_scaling():
        samples = [(0.3, 1.7), (2.1, 0.9), (-1.2, 4.0)]
        small = nfm.poisson_bracket_check(samples, h=1e-5)
        ratio = (nfm.poisson_bracket_check(samples, h=1e-3)
                 / nfm.poisson_bracket_check(samples, h=5e-4))
        return small < 1e-8 and abs(ratio - 4.0) < 0.2, (
            f"residual {small:.2e} at h=1e-5, halving ratio {ratio:.3f}"
        )

    def gauge_invariance():
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            a1, a2 = float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10))
            p1, p2 = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            c = float(rng.uniform(-5, 5))
            base = nfm.classical_readings(nfm.config_from_amplitudes(a1, p1, a2, p2))
            moved = nfm.classical_readings(
                nfm.config_from_amplitudes(a1, p1 + c, a2, p2 + c))
            scale = base.I1 + base.I2
            for name in ("w3", "w4", "w5", "w6"):
                worst = _fold(worst, abs(getattr(base, name) - getattr(moved, name)) / scale)
        return worst < 1e-12, f"worst reading shift {worst:.3e}"

    _check(results, "nfm", "classical round trip", round_trip)
    _check(results, "nfm", "circle identity and Casimir gap", circle_and_casimir)
    _check(results, "nfm", "bracket residual is O(h^2)", poisson_scaling)
    _check(results, "nfm", "gauge-shift invariance", gauge_invariance)


def run_all(modules=None) -> list[CheckResult]:
    """Run the battery, optionally restricted to the named modules."""
    runners = {
        "specfun": _specfun_checks,
        "repalg": _repalg_checks,
        "phaseops": _phaseops_checks,
        "bgstates": _bgstates_checks,
        "fockreal": _fockreal_checks,
        "nfm": _nfm_checks,
    }
    selected = MODULE_ORDER if modules is None else tuple(modules)
    unknown = [m for m in selected if m not in runners]
    if unknown:
        raise ValueError(f"unknown module(s): {', '.join(unknown)}")
    results: list[CheckResult] = []
    for name in selected:
        runners[name](results)
    return results
