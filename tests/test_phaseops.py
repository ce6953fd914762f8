"""Tests for the phase-operator pair, its identities, spectra, recursion.

The spectral-containment invariant is asserted as stated for every k >= 0.5;
the k = 0.5 case fails against this build and is left failing deliberately.
The truncated cosine there has a dim-stable eigenvalue 1.00648... > 1 (see
test_spectral_excess_below_k_one), and since compression eigenvalues are
Rayleigh quotients of the full operator, the excess belongs to the operator
itself, not to the truncation.
"""

import math

import mpmath
import numpy as np
import pytest

from phasequant import phaseops
from phasequant.errors import DomainError, TruncationError
from phasequant.phaseops import (
    PhaseOperatorPair,
    build_phase_ops,
    commutator_diag_asymptote,
    cos_squared_diag_asymptote,
    diagonal_identities,
    f_coeff,
    ground_state_variance,
    improper_eigvec,
    k1_bound,
    phase_extremes,
    phase_spectrum,
    spectrum_verdict,
)
from phasequant.repalg import (
    RepLabel,
    TruncatedOperator,
    banded_matmul,
    build_k3,
    commutator_residual,
)


# ---------------------------------------------------------------------------
# f coefficients


def test_f_coeff_values():
    assert abs(f_coeff(0.5, 1) - 8.0 / 3.0) < 1e-15
    assert abs(f_coeff(1.0, 1) - 3.0 / math.sqrt(2.0)) < 1e-15
    for k in (0.25, 0.5, 1.0, 2.0):
        assert f_coeff(k, 0) == 0.0


def test_f_coeff_domain():
    with pytest.raises(DomainError):
        f_coeff(0.0, 1)
    with pytest.raises(DomainError):
        f_coeff(1.0, -1)


def test_f_coeff_approaches_two():
    # entries 4 * (f/4) -> cos amplitude 1/2 per neighbor: f -> 2 from above
    vals = [f_coeff(1.0, n) for n in (10, 100, 1000)]
    assert all(v > 2.0 for v in vals)
    assert abs(vals[-1] - 2.0) < 1e-5


# ---------------------------------------------------------------------------
# construction


def test_build_phase_ops_entries():
    pair = build_phase_ops(RepLabel(k=0.5), 8)
    assert abs(complex(pair.cos_op.entries[1, 0]) - 2.0 / 3.0) < 1e-15
    assert float(np.max(np.abs(np.diag(pair.cos_op.entries)))) == 0.0
    assert float(np.max(np.abs(np.diag(pair.sin_op.entries)))) == 0.0
    assert pair.cos_op.bandwidth == 1 and pair.sin_op.bandwidth == 1


def test_phase_ops_hermitian():
    for omega in (1.0, 1j):
        pair = build_phase_ops(RepLabel(k=0.75, omega=omega), 12)
        assert pair.cos_op.is_hermitian(1e-18)
        assert pair.sin_op.is_hermitian(1e-18)


def test_sin_entry_pattern():
    pair = build_phase_ops(RepLabel(k=1.0), 6)
    s = pair.sin_op.entries.astype(complex)
    for n in range(5):
        f = f_coeff(1.0, n + 1)
        # entries carry extended precision, f_coeff rounds in double: 1 ulp
        assert abs(s[n + 1, n] - 1j * f / 4.0) < 1e-15
        assert abs(s[n, n + 1] + 1j * f / 4.0) < 1e-15


def test_build_stores_extended_complex():
    pair = build_phase_ops(RepLabel(k=0.75), 8)
    for op in (pair.cos_op, pair.sin_op):
        assert all(v.dtype == np.clongdouble for v in op.diagonals.values())
        assert op.entries.dtype == np.clongdouble


def test_build_route_tolerance_is_relative(monkeypatch):
    # at k = 1e-5 the entries reach max|f|/4 ~ 112 and the routes differ by
    # ~1.4e-13, a few ulp of them; a shift of ~2.5e-11 must still be caught
    build_phase_ops(RepLabel(k=1e-5), 16)
    f_array = phaseops._f_array
    monkeypatch.setattr(phaseops, "_f_array", lambda k, dim: f_array(k, dim) + 1e-10)
    with pytest.raises(TruncationError, match="routes disagree"):
        build_phase_ops(RepLabel(k=1e-5), 16)


def test_build_requires_dim_two():
    with pytest.raises(DomainError):
        build_phase_ops(RepLabel(k=1.0), 1)


def test_build_routes_must_agree(monkeypatch):
    # shift route (b) alone, past the 1e-13 route tolerance
    f_array = phaseops._f_array
    monkeypatch.setattr(phaseops, "_f_array", lambda k, dim: f_array(k, dim) + 1e-12)
    with pytest.raises(TruncationError, match="routes disagree"):
        build_phase_ops(RepLabel(k=1.0), 16)


# ---------------------------------------------------------------------------
# ground-state variance and the k1 bound


def test_ground_state_variance_values():
    assert abs(ground_state_variance(0.5) - 4.0 / 9.0) < 1e-15
    assert abs(ground_state_variance(1.0) - 9.0 / 32.0) < 1e-15


def test_ground_state_variance_matrix_route():
    for k in (0.5, 1.0, 2.0):
        pair = build_phase_ops(RepLabel(k=k), 16)
        c = pair.cos_op.diagonals
        matrix_value = float(banded_matmul(c, c, 16)[0][0].real)
        assert abs(matrix_value - ground_state_variance(k)) < 1e-12


def test_ground_state_variance_monotone_beyond_one():
    ks = np.linspace(1.0, 50.0, 200)
    vals = [ground_state_variance(k) for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.01


def test_k1_bound_interval_and_root():
    kb = k1_bound()
    assert 0.1620 <= kb <= 0.1630
    assert abs(ground_state_variance(kb) - 1.0) < 1e-10


def test_k1_bound_against_bisection():
    # independent oracle: bisect (2k+1)^2 - 8k(k+1)^2 on [0.1, 0.2]
    def g(k):
        return (2 * k + 1) ** 2 - 8 * k * (k + 1) ** 2

    lo, hi = 0.1, 0.2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(k1_bound() - 0.5 * (lo + hi)) < 1e-12


# ---------------------------------------------------------------------------
# diagonal identities


def test_diagonal_identities_residual():
    for k in (0.25, 0.5, 1.0, 2.0):
        di = diagonal_identities(RepLabel(k=k), 256, margin=4)
        assert di.residual < 1e-10


def test_k1_n0_sum_squares_value():
    # f_1(k=1) = 3/sqrt(2), so the n=0 diagonal of cos^2+sin^2 is 9/16
    di = diagonal_identities(RepLabel(k=1.0), 16)
    assert abs(di.sum_squares_diag[0] - 9.0 / 16.0) < 1e-14


def test_n0_entries_use_f_representation():
    for k in (0.5, 1.0, 2.0):
        di = diagonal_identities(RepLabel(k=k), 8)
        f1 = f_coeff(k, 1)
        assert di.commutator_diag[0] == f1 * f1 / 8.0
        assert di.sum_squares_diag[0] == f1 * f1 / 8.0


def test_closed_forms_match_f_forms_for_positive_n():
    for k in (0.25, 0.9999, 1.0001, 2.0):
        di = diagonal_identities(RepLabel(k=k), 64)
        for n in range(1, 60):
            fn, fn1 = f_coeff(k, n), f_coeff(k, n + 1)
            assert abs(di.commutator_diag[n] - (fn1**2 - fn**2) / 8.0) < 1e-13
            assert abs(di.sum_squares_diag[n] - (fn1**2 + fn**2) / 8.0) < 1e-12


def test_commutator_asymptote_five_percent_at_n50():
    di = diagonal_identities(RepLabel(k=1.0), 128)
    want = commutator_diag_asymptote(1.0, 50)
    assert abs(want - di.commutator_diag[50]) / abs(di.commutator_diag[50]) < 0.05


def test_cos_squared_asymptote_fourth_order():
    for k in (0.5, 1.0, 2.0):
        di = diagonal_identities(RepLabel(k=k), 256)
        rels = []
        for n in (50, 100, 200):
            cos_sq = di.sum_squares_diag[n] / 2.0  # cos^2 and sin^2 diags agree
            rel = abs(cos_squared_diag_asymptote(k, n) - cos_sq) / cos_sq
            rels.append(rel)
            assert rel * (n + k) ** 4 < 5.0
        assert rels[0] > rels[1] > rels[2]


def test_diagonal_identities_validation():
    with pytest.raises(DomainError):
        diagonal_identities(RepLabel(k=1.0), 3)
    with pytest.raises(DomainError):
        diagonal_identities(RepLabel(k=1.0), 8, margin=8)


# ---------------------------------------------------------------------------
# commutators with K3


def test_phase_commutators_with_k3():
    # [K3, cos] = -i sin and [K3, sin] = +i cos on the interior
    for k in (0.25, 0.5, 1.0, 2.0):
        lab = RepLabel(k=k)
        pair = build_phase_ops(lab, 64)
        k3 = build_k3(lab, 64)
        assert commutator_residual(k3, pair.cos_op, pair.sin_op, -1) < 1e-12
        assert commutator_residual(k3, pair.sin_op, pair.cos_op, +1) < 1e-12


def test_commutator_and_sum_squares_commute_with_k3():
    for k in (0.5, 1.0):
        lab = RepLabel(k=k)
        pair = build_phase_ops(lab, 64)
        c, s = pair.cos_op.diagonals, pair.sin_op.diagonals
        k3 = build_k3(lab, 64).diagonals
        cs, sc = banded_matmul(c, s, 64), banded_matmul(s, c, 64)
        cc, ss = banded_matmul(c, c, 64), banded_matmul(s, s, 64)
        comm_cs = {d: cs[d] - sc[d] for d in cs}
        ssq = {d: cc[d] + ss[d] for d in cc}
        for m in (comm_cs, ssq):
            mk, km = banded_matmul(m, k3, 64), banded_matmul(k3, m, 64)
            for d in mk:
                # entries of diagonal d inside the leading 60 x 60 block
                lhs = (mk[d] - km[d])[: 60 - abs(d)]
                assert float(np.max(np.abs(lhs))) < 1e-12


def test_number_state_uncertainty_equality_at_n0():
    # (f_1^2 + f_0^2)/16 equals (f_1^2 - f_0^2)/16 because f_0 = 0
    for k in (0.25, 1.0, 3.0):
        f0, f1 = f_coeff(k, 0), f_coeff(k, 1)
        assert (f1**2 + f0**2) / 16.0 == (f1**2 - f0**2) / 16.0


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_bounded_and_filling_for_k1():
    maxes = []
    for dim in (250, 500, 1000):
        eigs = phase_spectrum(build_phase_ops(RepLabel(k=1.0), dim))
        assert float(np.max(np.abs(eigs))) <= 1.0 + 1e-12
        maxes.append(float(np.max(eigs)))
    assert maxes[0] < maxes[1] < maxes[2]
    assert maxes[0] >= 0.999


def test_spectrum_cos_sin_must_agree():
    # scale sin alone by 1 + 1e-8: its band moves past the 1e-13 band check
    pair = build_phase_ops(RepLabel(k=1.0), 64)
    skewed = TruncatedOperator(
        dim=64, k=1.0, name="sin",
        diagonals={d: v * (1 + 1e-8) for d, v in pair.sin_op.diagonals.items()},
    )
    with pytest.raises(TruncationError, match="spectra disagree"):
        phase_spectrum(PhaseOperatorPair(pair.cos_op, skewed, k=1.0, dim=64))


@pytest.mark.parametrize("k", [0.25, 0.5, 0.95, 1.0, 2.0])
@pytest.mark.parametrize("dim", [2, 3, 400, 2000, 2001])
def test_sturm_counts_match_lapack(k, dim):
    from scipy.linalg import eigvalsh_tridiagonal

    off = build_phase_ops(RepLabel(k=k), dim).cos_op.diagonals[-1].real.astype(np.float64)
    eigs = eigvalsh_tridiagonal(np.zeros(dim), off)
    off_sq = (off * off).tolist()
    for x in (1.0 + 1e-12, -1.0 - 1e-12, 0.5, -0.3):
        assert phaseops._sturm_count([0.0] * dim, off_sq, x, 1e-300) == int(np.sum(eigs < x))


def test_sturm_count_zero_pivot_counts_the_eigenvalue():
    # [[0, 1], [1, 0]] at x = 0 hits an exact zero pivot; eigenvalues are -1, 1
    assert phaseops._sturm_count([0.0, 0.0], [1.0], 0.0, 1e-300) == 1
    assert phaseops._sturm_count([0.0, 0.0], [1.0], 1.0, 1e-300) == 2


def _counting_solver(monkeypatch, shift=None, info=None):
    # wraps the half-size solve; shift edits its sorted eigenvalues of B^T B,
    # which are the squares of the nonnegative cos eigenvalues
    import scipy.linalg.lapack

    solve = scipy.linalg.lapack.dpteqr
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        sq, e, z, status = solve(*args, **kwargs)
        if shift is not None:
            sq = shift(np.sort(sq))
        return sq, e, z, status if info is None else info

    monkeypatch.setattr(scipy.linalg.lapack, "dpteqr", wrapped)
    return calls


def test_phase_spectrum_solves_once(monkeypatch):
    calls = _counting_solver(monkeypatch)
    for k in (0.25, 1.0):
        phase_spectrum(build_phase_ops(RepLabel(k=k), 300))
    assert len(calls) == 2


def test_phase_spectrum_matches_full_solve_of_both_operators():
    # the removed second solve, as a test: sin's rotated band has the same spectrum
    from scipy.linalg import eigvalsh_tridiagonal

    pair = build_phase_ops(RepLabel(k=0.7), 300)
    sub = pair.sin_op.diagonals[-1].astype(np.complex128)
    rot_off = (1j * sub).real  # i^{n+1} i^{-n} = i on every subdiagonal entry
    sin_eigs = np.sort(eigvalsh_tridiagonal(np.zeros(300), rot_off))
    assert np.max(np.abs(sin_eigs - phase_spectrum(pair))) < 1e-12


def test_perturbed_sturm_count_raises(monkeypatch):
    count = phaseops._sturm_count
    monkeypatch.setattr(phaseops, "_sturm_count", lambda *a: count(*a) + 1)
    with pytest.raises(TruncationError, match="Sturm count"):
        phase_spectrum(build_phase_ops(RepLabel(k=1.0), 64))


@pytest.mark.parametrize("k, moved", [(0.25, 1.0), (1.0, 1.0 + 2e-12)])
def test_lapack_eigenvalue_across_threshold_raises(monkeypatch, k, moved):
    # k = 0.25 has one eigenvalue above 1 + 1e-12, k = 1 none: moving the top
    # eigenvalue across the threshold leaves the Sturm count disagreeing
    def shift(squares):
        squares[-1] = moved * moved
        return squares

    _counting_solver(monkeypatch, shift)
    with pytest.raises(TruncationError, match="Sturm count"):
        phase_spectrum(build_phase_ops(RepLabel(k=k), 400))


def test_failed_half_size_solve_raises(monkeypatch):
    _counting_solver(monkeypatch, info=3)
    with pytest.raises(TruncationError, match="dpteqr failed"):
        phase_spectrum(build_phase_ops(RepLabel(k=1.0), 64))


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("dim", [2, 3, 40, 41])
def test_phase_spectrum_against_mpmath(k, dim):
    pair = build_phase_ops(RepLabel(k=k), dim)
    off = pair.cos_op.diagonals[-1].real.astype(np.float64)
    eigs = phase_spectrum(pair)
    count = min(3, dim)
    tops = phase_extremes(pair, count)
    with mpmath.workdps(40):
        band = mpmath.zeros(dim)
        for i, v in enumerate(off.tolist()):  # float64 -> mpf is exact
            band[i + 1, i] = band[i, i + 1] = mpmath.mpf(v)
        exact = sorted(mpmath.eigsy(band, eigvals_only=True))
        err = max(abs(mpmath.mpf(float(x)) - r) for x, r in zip(eigs, exact))
        err_tops = max(abs(mpmath.mpf(float(x)) - r) for x, r in zip(tops, exact[-count:]))
    assert err < 2e-15
    assert err_tops < 2e-15
    assert np.array_equal(eigs, -eigs[::-1])  # bit for bit, not just close
    if dim % 2:
        assert eigs[dim // 2] == 0.0


@pytest.mark.parametrize("k", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("dim", [2, 3, 400, 401, 2000])
@pytest.mark.parametrize("count", [1, 3])
def test_phase_extremes_match_phase_spectrum(k, dim, count):
    # the Sturm rounding window of both routes; at k = 0.5, dim 2000 the
    # half-size solve is 17 eps max|off| from a 30-digit bisection and the
    # bisection under 1
    count = min(count, dim)
    pair = build_phase_ops(RepLabel(k=k), dim)
    off = pair.cos_op.diagonals[-1].real.astype(np.float64)
    tops = phase_extremes(pair, count)
    eigs = phase_spectrum(pair)
    assert tops.shape == (count,)
    assert np.all(np.diff(tops) >= 0.0)
    window = 128.0 * np.finfo(np.float64).eps * np.max(np.abs(off))
    assert np.max(np.abs(tops - eigs[-count:])) <= window


def test_phase_extremes_inverse_iteration_catches_a_corrupted_band(monkeypatch):
    # the bisection counts on a band scaled by 1.0001 while the residual is
    # taken on the true one: the top eigenvalue moves 1e-4, far outside the
    # window
    count = phaseops._sturm_count
    monkeypatch.setattr(phaseops, "_sturm_count",
                        lambda diag, off_sq, x, pivmin:
                        count(diag, [1.0002 * v for v in off_sq], x, pivmin))
    pair = build_phase_ops(RepLabel(k=1.0), 400)
    with pytest.raises(TruncationError, match="inverse iteration"):
        phase_extremes(pair, 1)


def test_phase_extremes_validation():
    pair = build_phase_ops(RepLabel(k=1.0), 8)
    for count in (0, 9):
        with pytest.raises(DomainError, match="count"):
            phase_extremes(pair, count)
    with pytest.raises(DomainError, match="real omega"):
        phase_extremes(build_phase_ops(RepLabel(k=1.0, omega=1j), 8), 1)


def test_phase_spectrum_rejects_a_nonzero_cos_diagonal():
    pair = build_phase_ops(RepLabel(k=1.0), 8)
    shifted = TruncatedOperator(
        dim=8, k=1.0, name="cos",
        diagonals={**pair.cos_op.diagonals, 0: np.full(8, 1e-3)},
    )
    with pytest.raises(DomainError, match="zero cos diagonal"):
        phase_spectrum(PhaseOperatorPair(shifted, pair.sin_op, k=1.0, dim=8))


def test_sin_offdiagonal_perturbed_raises():
    pair = build_phase_ops(RepLabel(k=1.0), 64)
    # along the entry i f/4, so the rotated band stays real and its spectrum
    # moves by at most 1e-12, inside what comparing two solves would allow
    sub = np.array(pair.sin_op.diagonals[-1])
    sub[17] += 1e-12j
    skewed = TruncatedOperator(
        dim=64, k=1.0, name="sin", diagonals={-1: sub, 1: pair.sin_op.diagonals[1]},
    )
    with pytest.raises(TruncationError, match="spectra disagree"):
        phase_spectrum(PhaseOperatorPair(pair.cos_op, skewed, k=1.0, dim=64))


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_spectral_containment_for_k_at_least_half(k):
    # Stated bound for k >= 0.5.  Expected to fail at k = 0.5: the measured
    # top eigenvalue is 1.006482... independent of dim (see module docstring).
    for dim in (250, 500, 1000):
        eigs = phase_spectrum(build_phase_ops(RepLabel(k=k), dim))
        assert float(np.max(np.abs(eigs))) <= 1.0 + 1e-12, (
            f"k={k}, dim={dim}: max|eig| = {float(np.max(np.abs(eigs))):.12f}"
        )


def test_spectral_excess_below_k_one():
    # measured behavior: a dim-stable eigenvalue above 1 for 0 < k < 1
    for k, excess in [(0.25, 1.0771444729), (0.5, 1.0064822440)]:
        tops = []
        for dim in (500, 1000):
            eigs = phase_spectrum(build_phase_ops(RepLabel(k=k), dim))
            tops.append(float(np.max(eigs)))
        assert abs(tops[0] - excess) < 1e-8
        assert abs(tops[1] - tops[0]) < 1e-8  # dim-stable, not a truncation artifact
        assert spectrum_verdict(np.array(tops)) == "EXCEEDS"


def test_spectrum_requires_real_omega():
    pair = build_phase_ops(RepLabel(k=1.0, omega=1j), 8)
    with pytest.raises(DomainError):
        phase_spectrum(pair)


def test_spectrum_verdict_threshold():
    assert spectrum_verdict(np.array([0.3, -1.0])) == "BOUNDED"
    assert spectrum_verdict(np.array([1.0 + 5e-13])) == "BOUNDED"
    assert spectrum_verdict(np.array([1.01])) == "EXCEEDS"


# ---------------------------------------------------------------------------
# improper eigenvector recursion


def test_improper_eigvec_satisfies_eigen_equation():
    k, mu, nmax = 1.0, 0.5, 60
    res = improper_eigvec(k, mu, 1.0, nmax)
    pair = build_phase_ops(RepLabel(k=k), nmax + 1)
    vec = res.values
    lhs = pair.cos_op.entries.astype(np.complex128) @ vec - mu * vec
    assert float(np.max(np.abs(lhs[:nmax]))) < 1e-12
    assert res.log_scale == 0.0


def test_improper_eigvec_mu_zero_pattern():
    res = improper_eigvec(0.5, 0.0, 1.0, 4)
    a = res.values
    assert a[1] == 0.0
    assert abs(a[2] + f_coeff(0.5, 1) / f_coeff(0.5, 2)) < 1e-15
    assert a[3] == 0.0


def test_improper_eigvec_matches_banded_solve():
    # independent route: solve rows 0..nmax-1 for a_1..a_nmax given a_0
    k, mu, nmax = 1.0, 0.5, 40
    f = np.array([f_coeff(k, n) for n in range(nmax + 2)])
    m = np.zeros((nmax, nmax))
    rhs = np.zeros(nmax)
    for row in range(nmax):
        if row >= 2:
            m[row, row - 2] += f[row] / 4.0
        if row >= 1:
            m[row, row - 1] += -mu
        else:
            rhs[0] = mu * 1.0
        m[row, row] += f[row + 1] / 4.0
        if row == 1:
            rhs[1] = -f[1] / 4.0 * 1.0
    solved = np.linalg.solve(m, rhs)
    rec = improper_eigvec(k, mu, 1.0, nmax).values
    assert np.max(np.abs(solved - rec[1:])) < 1e-10


def test_improper_eigvec_renormalizes():
    res = improper_eigvec(1.0, 5.0, 1.0, 3000)
    a = res.values
    assert res.log_scale > 0.0
    assert np.all(np.isfinite(a))
    # the stored sequence still solves the recursion locally
    for n in (100, 1000, 2500):
        lhs = f_coeff(1.0, n) / 4.0 * a[n - 1] - 5.0 * a[n] + f_coeff(1.0, n + 1) / 4.0 * a[n + 1]
        scale = abs(a[n - 1]) + abs(a[n]) + abs(a[n + 1]) + 1.0
        assert abs(lhs) <= 1e-12 * scale


def test_improper_eigvec_bit_identical_to_per_step_coefficients():
    # the recursion with f_coeff evaluated at every step, as it was written first
    def reference(k, mu, a0, nmax):
        a = np.zeros(nmax + 1)
        a[0] = a0
        a[1] = 4.0 * mu * a0 / f_coeff(k, 1)
        log_scale, running_max = 0.0, max(abs(a[0]), abs(a[1]))
        for n in range(1, nmax):
            a[n + 1] = (4.0 * mu * a[n] - f_coeff(k, n) * a[n - 1]) / f_coeff(k, n + 1)
            running_max = max(running_max, abs(a[n + 1]))
            if (n + 1) % 64 == 0 and running_max > 1e100:
                a[: n + 2] /= running_max
                log_scale += math.log(running_max)
                running_max = 1.0
        return a, log_scale

    for k in (0.25, 0.5, 1.0, 1.7):
        for mu in (0.0, 0.5, 1.0, 5.0):
            res = improper_eigvec(k, mu, 1.0, 2000)
            want, want_log = reference(k, mu, 1.0, 2000)
            assert np.array_equal(res.values, want)
            assert res.log_scale == want_log


def test_improper_eigvec_validation():
    with pytest.raises(DomainError):
        improper_eigvec(0.0, 0.5, 1.0, 10)
    with pytest.raises(DomainError):
        improper_eigvec(1.0, 0.5, 1.0, 1)
