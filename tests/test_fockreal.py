"""Tests for the bosonic Fock-space realizations.

Radial-series reference values were frozen from a 40-digit evaluation.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from phasequant import fockreal, repalg
from phasequant.errors import DomainError, InconsistentDataError, TruncationError
from phasequant.fockreal import (
    TwoModeBasisIndex,
    alpha_expectations,
    dirac_sg_ops,
    h2_curve,
    hp_generators,
    hp_phase_ops,
    squared_boson,
    two_mode,
)
from phasequant.phaseops import build_phase_ops, f_coeff
from phasequant.repalg import RepLabel, banded_matmul, build_k3, build_kminus, build_kplus

H1_AT_1_2 = 2.414864346937582971372
H2_AT_1_2 = 0.9697627526430243075281
H2_QUARTER_QUARTER = 0.4100226978756115976411


def _interior_max(matrix: np.ndarray, margin: int = 4) -> float:
    cut = matrix[:-margin, :-margin]
    return float(np.max(np.abs(cut)))


def _skew(build, only_k=None):
    # the abstract builder with every stored entry moved by 1e-12
    def skewed(label, dim):
        op = build(label, dim)
        if only_k is not None and label.k != only_k:
            return op
        return dataclasses.replace(
            op, diagonals={d: v + 1e-12 for d, v in op.diagonals.items()})
    return skewed


# ---------------------------------------------------------------------------
# dressed ladder realization


def test_hp_generator_entries():
    for k in (0.25, 0.5, 1.0, 2.0):
        g = hp_generators(k, 16)
        assert np.allclose(np.diag(g.k3.entries).astype(float), k + np.arange(16))
        assert math.isclose(float(g.kp.entries[1, 0]), math.sqrt(2.0 * k), rel_tol=1e-15)


def test_hp_equals_abstract_irrep():
    for k in (0.25, 0.5, 1.0, 2.0):
        g = hp_generators(k, 64)
        label = RepLabel(k=k)
        assert _interior_max(np.abs(g.kp.entries - build_kplus(label, 64).entries), 1) < 1e-13
        assert _interior_max(np.abs(g.km.entries - build_kminus(label, 64).entries), 1) < 1e-13
        assert _interior_max(np.abs(g.k3.entries - build_k3(label, 64).entries), 1) < 1e-13


def test_hp_ladder_transpose():
    g = hp_generators(0.75, 32)
    assert np.array_equal(g.km.entries, g.kp.entries.T)


def test_hp_commutators_interior():
    for k in (0.25, 0.5, 1.0, 2.0):
        g = hp_generators(k, 64)
        kp, km, k3 = g.kp.entries, g.km.entries, g.k3.entries
        assert _interior_max(kp @ km - km @ kp + 2.0 * k3) < 1e-12
        d3 = np.diag(k3)
        assert _interior_max(d3[:, None] * kp - kp * d3[None, :] - kp) < 1e-12
        assert _interior_max(d3[:, None] * km - km * d3[None, :] + km) < 1e-12


def test_hp_abstract_check_fires(monkeypatch):
    monkeypatch.setattr(fockreal, "build_kplus", _skew(build_kplus))
    with pytest.raises(InconsistentDataError, match="dressed raising vs abstract"):
        hp_generators(0.5, 16)


def test_hp_validation():
    with pytest.raises(DomainError):
        hp_generators(0.0, 8)
    with pytest.raises(DomainError):
        hp_generators(1.0, 1)


def test_realizations_are_extended_real_truncated_operators():
    records = ((hp_generators(0.75, 8), 0.75), (squared_boson(8), None), (two_mode(4), None))
    for ops, k in records:
        for op in (ops.kp, ops.km, ops.k3):
            assert isinstance(op, repalg.TruncatedOperator)
            assert op.k == k
            assert all(v.dtype == np.longdouble for v in op.diagonals.values())
            assert op.entries.dtype == np.longdouble
    # the former type name is kept as an alias of the merged one
    assert fockreal.FockOperator is repalg.TruncatedOperator


def test_every_record_holds_truncated_operators():
    # the named fields are operators and no other field is one
    triple = ("kp", "km", "k3")
    records = (
        (hp_generators(0.75, 8), triple),
        (hp_phase_ops(0.75, 8), ("cos", "sin")),
        (dirac_sg_ops(8), ("cos_dirac", "sin_dirac", "cos_sg", "sin_sg")),
        (squared_boson(8), triple),
        (two_mode(4), triple),
    )
    for record, names in records:
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            assert isinstance(value, repalg.TruncatedOperator) == (field.name in names), field


def test_hp_phase_views_are_the_operator_entries():
    p = hp_phase_ops(1.3, 24)
    assert p.cos_op is p.cos.entries and p.sin_op is p.sin.entries
    assert p.cos_op.dtype == np.longdouble and p.sin_op.dtype == np.clongdouble
    assert p.cos.k == p.sin.k == 1.3 and p.cos.bandwidth == p.sin.bandwidth == 1


# ---------------------------------------------------------------------------
# oscillator phase matrices


def test_band_profile_values():
    p = hp_phase_ops(0.5, 8)
    assert abs(float(p.f_k_diag[0]) - 4.0 / 3.0) < 1e-15
    assert abs(float(p.cos_op[1, 0].real) - 2.0 / 3.0) < 1e-15
    # band entry sqrt(n+1) F(n) / 2 is f_{n+1}/4 in the abstract labeling
    assert abs(float(p.cos_op[1, 0].real) - f_coeff(0.5, 1) / 4.0) < 1e-15
    p1 = hp_phase_ops(1.0, 8)
    assert abs(float(p1.cos_op[1, 0].real) - 3.0 / (4.0 * math.sqrt(2.0))) < 1e-15


def test_phase_ops_match_abstract_pair():
    for k in (0.25, 1.3):
        p = hp_phase_ops(k, 48)
        pair = build_phase_ops(RepLabel(k=k), 48)
        assert float(np.max(np.abs(p.cos_op - pair.cos_op.entries))) < 1e-13
        assert float(np.max(np.abs(p.sin_op - pair.sin_op.entries))) < 1e-13


def test_phase_routes_must_agree(monkeypatch):
    # generators off by a relative 1e-12 feed the symmetrized route only,
    # which then leaves the band-profile route by ~5e-13
    hp_generators_ = fockreal.hp_generators

    def bump(op):
        return dataclasses.replace(
            op, diagonals={d: v * (1 + 1e-12) for d, v in op.diagonals.items()})

    def skewed(k, dim):
        g = hp_generators_(k, dim)
        return dataclasses.replace(g, kp=bump(g.kp), km=bump(g.km))
    monkeypatch.setattr(fockreal, "hp_generators", skewed)
    with pytest.raises(InconsistentDataError, match="cos: symmetrized vs band profile"):
        hp_phase_ops(1.0, 32)


def test_phase_ops_build_no_dense_matrix():
    # both routes and the abstract check run on diagonals: a dense 2000 x 2000
    # longdouble route alone would take 64 MB
    hp_phase_ops(1.2, 16)
    tracemalloc.start()
    try:
        p = hp_phase_ops(1.2, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert "cos_op" not in vars(p) and "sin_op" not in vars(p)
    assert p.cos_op.shape == (2000, 2000)


def test_commutator_band_diagonal_identity():
    # diag[cos, sin] = (i/2)[(N+1) F^2(N) - N F^2(N-1)], boundary rows cut
    for k in (0.5, 1.0):
        p = hp_phase_ops(k, 64)
        cos = p.cos_op.astype(np.clongdouble)
        comm_diag = np.diag(cos @ p.sin_op - p.sin_op @ cos)
        f2 = p.f_k_diag.astype(np.longdouble) ** 2
        n = np.arange(64, dtype=np.longdouble)
        prev = np.concatenate([[np.longdouble(0.0)], f2[:-1]])
        closed = 0.5j * ((n + 1.0) * f2 - n * prev)
        assert float(np.max(np.abs(comm_diag[:-2] - closed[:-2]))) < 1e-12


def test_shift_identity_exact():
    # f(N) a+ = a+ f(N+1) holds entrywise exactly for f(N) = 1/(N+k)
    k, dim = 0.8, 24
    adag = np.diag(np.sqrt(np.arange(1, dim, dtype=np.longdouble)), -1)
    n = np.arange(dim, dtype=np.longdouble)
    left = (1.0 / (n + k))[:, None] * adag
    right = adag * (1.0 / (n + 1.0 + k))[None, :]
    assert np.array_equal(left, right)


# ---------------------------------------------------------------------------
# historical comparison operators


def test_dirac_equals_susskind_glogower():
    # the inverse-root patch slot is unreachable, so the pairs coincide
    d = dirac_sg_ops(32)
    assert np.array_equal(d.cos_dirac.entries, d.cos_sg.entries)
    assert np.array_equal(d.sin_dirac.entries, d.sin_sg.entries)
    assert "|0>" in d.zero_mode_convention


def test_dirac_hermitian_despite_patch():
    d = dirac_sg_ops(32)
    cos, sin = d.cos_dirac.entries, d.sin_dirac.entries
    assert np.array_equal(cos, cos.conj().T)
    assert np.array_equal(sin, sin.conj().T)


def test_sg_sum_of_squares_diagonal():
    # cos^2 + sin^2 = 1 - |0><0|/2; the last diagonal entry feels the cut
    d = dirac_sg_ops(16)
    cos, sin = d.cos_sg.entries, d.sin_sg.entries
    total = cos @ cos + sin @ sin
    diag = np.diag(total).astype(np.complex128)
    assert diag[0] == 0.5
    assert np.all(diag[1:-1] == 1.0)
    assert diag[-1] == 0.5
    off = total - np.diag(np.diag(total))
    assert float(np.max(np.abs(off))) == 0.0


def test_sg_number_phase_commutators():
    d = dirac_sg_ops(64)
    cos, sin = d.cos_sg.entries, d.sin_sg.entries
    n = np.arange(64, dtype=np.longdouble)
    r1 = n[:, None] * cos - cos * n[None, :] + 1j * sin
    r2 = n[:, None] * sin - sin * n[None, :] - 1j * cos
    assert _interior_max(r1) < 1e-12
    assert _interior_max(r2) < 1e-12


def test_hp_band_approaches_sg_quadratically():
    # band difference from 1/2 decays as (1 - 2(k-1/2)^2)/(8 (n+k+1/2)^2)
    for k in (0.5, 2.0):
        p = hp_phase_ops(k, 1024)
        limit = (1.0 - 2.0 * (k - 0.5) ** 2) / 8.0
        for n in (10, 100, 1000):
            diff = float(p.cos_op[n + 1, n].real) - 0.5
            y = n + k + 0.5
            assert abs(diff * y * y - limit) < 0.01


# ---------------------------------------------------------------------------
# standard coherent-state expectations


def test_alpha_zero():
    ae = alpha_expectations(0.75, 0.0)
    assert ae.mean_k3 == 0.75
    assert ae.h1 == math.sqrt(1.5)
    assert (ae.mean_k1, ae.mean_k2, ae.h2, ae.cos_mean, ae.sin_mean) == (0, 0, 0, 0, 0)


def test_alpha_radial_series_reference():
    ae = alpha_expectations(1.0, 2.0)
    assert abs(ae.h1 - H1_AT_1_2) / H1_AT_1_2 < 1e-12
    assert abs(ae.h2 - H2_AT_1_2) / H2_AT_1_2 < 1e-12
    assert ae.mean_k3 == 5.0
    assert ae.mean_k2 == 0.0
    assert abs(ae.mean_k1 - 2.0 * H1_AT_1_2) < 1e-11


def test_alpha_angular_structure():
    beta = 0.7
    ae = alpha_expectations(0.5, 2.0 * np.exp(1j * beta))
    assert abs(ae.mean_k1 - 2.0 * math.cos(beta) * ae.h1) < 1e-14
    assert abs(ae.mean_k2 + 2.0 * math.sin(beta) * ae.h1) < 1e-14
    assert abs(ae.cos_mean - math.cos(beta) * ae.h2) < 1e-14
    ai = alpha_expectations(1.0, 2.0j)
    assert abs(ai.mean_k1) < 1e-14
    assert ai.mean_k2 < 0.0


def test_alpha_tan_ratio_k_independent():
    beta = math.pi / 5.0
    vals = [
        alpha_expectations(k, 3.0 * np.exp(1j * beta))
        for k in (0.5, 2.0)
    ]
    tans = [v.sin_mean / v.cos_mean for v in vals]
    assert abs(tans[0] - tans[1]) < 1e-14
    assert abs(tans[0] - math.tan(beta)) < 1e-14


def test_alpha_bound_example():
    ae = alpha_expectations(0.5, 10.0)
    assert 0.9 < ae.h2 <= 1.0


def test_alpha_validation():
    with pytest.raises(DomainError):
        alpha_expectations(0.0, 1.0)
    with pytest.raises(TruncationError):
        alpha_expectations(0.5, 10.0, dim=5)


# ---------------------------------------------------------------------------
# the h2 profile


def test_h2_bound_and_limit():
    r = np.linspace(0.0, 20.0, 200)
    for k in (0.5, 1.0):
        h = h2_curve(k, r)
        assert float(np.max(h)) <= 1.0 + 1e-12
        assert float(h[-1]) > 0.98
        assert float(h[0]) == 0.0


def test_h2_reference_values():
    assert abs(float(h2_curve(1.0, np.array([2.0]))[0]) - H2_AT_1_2) < 1e-12
    # below k = 1/2 the value is computed but no bound is claimed
    assert abs(float(h2_curve(0.25, np.array([0.25]))[0]) - H2_QUARTER_QUARTER) < 1e-12


def test_h2_small_r_slope():
    for k in (0.5, 1.0, 2.0):
        slope = 0.5 * math.sqrt(2.0 * k) * (1.0 / k + 1.0 / (k + 1.0))
        got = float(h2_curve(k, np.array([1e-4]))[0]) / 1e-4
        assert abs(got - slope) / slope < 1e-6


def test_h2_matches_scalar_route():
    ae = alpha_expectations(0.5, 7.0)
    assert abs(float(h2_curve(0.5, np.array([7.0]))[0]) - ae.h2) < 1e-13


def test_h2_validation():
    with pytest.raises(DomainError):
        h2_curve(0.0, np.array([1.0]))
    with pytest.raises(DomainError):
        h2_curve(1.0, np.array([-1.0]))
    with pytest.raises(DomainError):
        h2_curve(1.0, np.array([]))


# ---------------------------------------------------------------------------
# squared-boson realization


def test_squared_boson_sectors():
    sb = squared_boson(64)
    assert (sb.even_k, sb.odd_k) == (0.25, 0.75)
    diag = np.diag(sb.k3.entries).astype(float)
    assert np.allclose(diag[:4], [0.25, 0.75, 1.25, 1.75])
    # the lowering member annihilates |0> and |1>
    assert float(np.max(np.abs(sb.km.entries[:, :2]))) == 0.0
    even = np.arange(0, 64, 2)
    ref = build_kplus(RepLabel(k=0.25), len(even))
    assert float(np.max(np.abs(sb.kp.entries[np.ix_(even, even)] - ref.entries))) < 1e-13


def test_squared_boson_commutators():
    sb = squared_boson(64)
    kp, km, k3 = sb.kp.entries, sb.km.entries, sb.k3.entries
    assert _interior_max(kp @ km - km @ kp + 2.0 * k3) < 1e-12
    d3 = np.diag(k3)
    assert _interior_max(d3[:, None] * kp - kp * d3[None, :] - kp) < 1e-12


def test_squared_boson_sector_check_fires(monkeypatch):
    monkeypatch.setattr(fockreal, "build_kplus", _skew(build_kplus, only_k=0.75))
    with pytest.raises(InconsistentDataError, match="odd sector raising"):
        squared_boson(16)


def test_squared_boson_validation():
    with pytest.raises(DomainError):
        squared_boson(3)


# ---------------------------------------------------------------------------
# two-mode realization


@pytest.fixture(scope="module")
def mode16():
    return two_mode(16)


def test_two_mode_sector_examples(mode16):
    d = mode16.dim_per_mode
    by_pair = {(e.n1, e.n2): e for e in mode16.sector_table}
    assert len(by_pair) == d * d
    e20 = by_pair[(2, 0)]
    assert (e20.sector, e20.irrep_k, e20.irrep_n) == (2, 1.5, 0)
    e11 = by_pair[(1, 1)]
    assert (e11.sector, e11.irrep_k, e11.irrep_n) == (0, 0.5, 1)
    assert float(mode16.k3.entries[1 * d + 1, 1 * d + 1]) == 1.5


def test_two_mode_diagonal_sector_matches_abstract(mode16):
    d = mode16.dim_per_mode
    flat = np.arange(d) * d + np.arange(d)
    block = np.ix_(flat, flat)
    ref = build_kplus(RepLabel(k=0.5), d)
    assert float(np.max(np.abs(mode16.kp.entries[block] - ref.entries))) < 1e-13


def test_two_mode_interior_commutators(mode16):
    d = mode16.dim_per_mode
    kp, km, k3 = mode16.kp.entries, mode16.km.entries, mode16.k3.entries
    n1 = np.repeat(np.arange(d), d)
    n2 = np.tile(np.arange(d), d)
    inside = np.flatnonzero(np.maximum(n1, n2) <= d - 2)
    win = np.ix_(inside, inside)
    assert float(np.max(np.abs((kp @ km - km @ kp + 2.0 * k3)[win]))) < 1e-12
    d3 = np.diag(k3)
    assert float(np.max(np.abs((d3[:, None] * kp - kp * d3[None, :] - kp)[win]))) < 1e-12


def test_two_mode_commutator_check_fires(monkeypatch):
    # a band product off by a relative 1e-12 leaves the sector blocks intact
    # but moves [K+, K-] + 2 K3 past the 1e-12 tolerance
    def skewed(a, b, dim):
        return {d: v * (1 + 1e-12) for d, v in banded_matmul(a, b, dim).items()}
    monkeypatch.setattr(repalg, "banded_matmul", skewed)
    with pytest.raises(InconsistentDataError, match="commutators"):
        two_mode(8)


def test_two_mode_builds_each_sector_block_once(monkeypatch):
    # sectors s and -s share k and size: 3 builds per |s| = 0 .. d - 2
    calls = []

    def counted(build):
        def built(label, dim):
            calls.append(label.k)
            return build(label, dim)
        return built
    for name in ("build_kplus", "build_kminus", "build_k3"):
        monkeypatch.setattr(fockreal, name, counted(getattr(fockreal, name)))
    two_mode(24)
    assert len(calls) == 69
    assert sorted(set(calls)) == [0.5 + m / 2.0 for m in range(23)]


def test_two_mode_sector_check_fires(monkeypatch):
    # only the abstract lowering for sectors +-2 moves
    monkeypatch.setattr(fockreal, "build_kminus", _skew(build_kminus, only_k=1.5))
    with pytest.raises(InconsistentDataError, match="sector -2 lowering"):
        two_mode(8)


def test_two_mode_validation():
    with pytest.raises(DomainError):
        two_mode(1)
    with pytest.raises(DomainError):
        TwoModeBasisIndex(n1=-1, n2=0)


def test_two_mode_basis_index_derives_its_sector():
    e = TwoModeBasisIndex(n1=1, n2=4)
    assert (e.sector, e.irrep_k, e.irrep_n) == (-3, 2.0, 1)
    assert [f.name for f in dataclasses.fields(e)] == ["n1", "n2"]
