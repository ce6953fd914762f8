"""Tests for the truncated generator matrices and algebra checks."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant.errors import DimensionMismatchError, DomainError
from phasequant.repalg import (
    FluctuationRecord,
    NumberState,
    RepLabel,
    TruncatedOperator,
    banded_matmul,
    banded_matvec,
    build_k1,
    build_k2,
    build_k3,
    build_kminus,
    build_kplus,
    casimir,
    commutator_residual,
    csv_lines,
    fluctuation_closed_forms,
    json_envelope,
    ladder_log_norm,
    ladder_norm,
)

K_GRID = (0.25, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# labels and basic types


def test_rep_label_validation():
    with pytest.raises(DomainError):
        RepLabel(k=0.0)
    with pytest.raises(DomainError):
        RepLabel(k=-1.0)
    with pytest.raises(DomainError):
        RepLabel(k=1.0, omega=2.0)
    with pytest.raises(DomainError):
        RepLabel(k=1.0, group_tag="bogus")


def test_group_tag_quantization():
    RepLabel(k=1.0, group_tag="SO12")
    RepLabel(k=3.0, group_tag="SO12")
    with pytest.raises(DomainError):
        RepLabel(k=1.5, group_tag="SO12")
    RepLabel(k=0.5, group_tag="SU11")
    RepLabel(k=1.5, group_tag="SU11")
    with pytest.raises(DomainError):
        RepLabel(k=0.3, group_tag="SU11")
    RepLabel(k=0.162, group_tag="UniversalCover")


def test_casimir_eigenvalue_property():
    assert RepLabel(k=1.0).q == 0.0
    assert RepLabel(k=0.5).q == 0.25
    assert RepLabel(k=2.0).q == -2.0


def test_number_state():
    s = NumberState(k=0.5, n=3)
    assert s.k3_eigenvalue == 3.5
    with pytest.raises(DomainError):
        NumberState(k=0.5, n=-1)
    with pytest.raises(DomainError):
        NumberState(k=0.0, n=0)


def test_truncated_operator_validation():
    with pytest.raises(DomainError):
        TruncatedOperator(dim=0, k=1.0, diagonals={})
    with pytest.raises(DimensionMismatchError):
        TruncatedOperator(dim=3, k=1.0, diagonals={0: np.zeros(2)})
    # a diagonal must fit the matrix: length dim - |offset|, |offset| < dim
    with pytest.raises(DimensionMismatchError):
        TruncatedOperator(dim=4, k=1.0, diagonals={1: np.zeros(4)})
    with pytest.raises(DomainError):
        TruncatedOperator(dim=4, k=1.0, diagonals={4: np.zeros(0)})
    with pytest.raises(DomainError):
        TruncatedOperator(dim=4, k=1.0, diagonals={-5: np.zeros(1)})


def test_truncated_operator_index_may_be_absent():
    # a space carrying several Bargmann indices has none to name
    op = TruncatedOperator(dim=3, k=None, diagonals={0: np.ones(3)})
    assert op.k is None
    for k in (0.0, -1.0):
        with pytest.raises(DomainError, match="k must be positive"):
            TruncatedOperator(dim=3, k=k, diagonals={0: np.ones(3)})


def test_stored_kind_follows_the_input():
    real = TruncatedOperator(dim=3, k=1.0, diagonals={0: np.ones(3), 1: np.ones(2)})
    mixed = TruncatedOperator(dim=3, k=1.0, diagonals={0: np.ones(3), 1: np.ones(2) * 1j})
    assert {v.dtype for v in real.diagonals.values()} == {np.dtype(np.longdouble)}
    assert real.entries.dtype == np.longdouble
    assert {v.dtype for v in mixed.diagonals.values()} == {np.dtype(np.clongdouble)}
    assert mixed.entries.dtype == np.clongdouble


def test_abstract_builders_store_extended_complex():
    label = RepLabel(k=0.75)
    for op in (build_k3(label, 8), build_kplus(label, 8), build_kminus(label, 8),
               build_k1(label, 8), build_k2(label, 8), casimir(label, 8)):
        assert all(v.dtype == np.clongdouble for v in op.diagonals.values()), op.name
        assert op.entries.dtype == np.clongdouble


def test_entries_are_read_only():
    op = build_k3(RepLabel(k=1.0), 4)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


# ---------------------------------------------------------------------------
# generator matrices


def test_k3_examples():
    assert np.allclose(np.diag(build_k3(RepLabel(k=1.0), 3).entries).astype(complex), [1, 2, 3])
    assert np.allclose(np.diag(build_k3(RepLabel(k=0.5), 2).entries).astype(complex), [0.5, 1.5])
    assert np.allclose(np.diag(build_k3(RepLabel(k=0.25), 1).entries).astype(complex), [0.25])


def test_kplus_entries():
    kp = build_kplus(RepLabel(k=0.5), 4)
    assert complex(kp.entries[1, 0]) == 1.0
    kp1 = build_kplus(RepLabel(k=1.0), 4)
    assert abs(complex(kp1.entries[2, 1]) - math.sqrt(6.0)) < 1e-15


def test_kminus_annihilates_lowest_state():
    for k in K_GRID:
        km = build_kminus(RepLabel(k=k), 8)
        assert np.all(km.entries[:, 0] == 0)


@pytest.mark.parametrize("omega", [1.0, 1j, complex(math.cos(0.7), math.sin(0.7))])
def test_ladder_adjointness(omega):
    lab = RepLabel(k=0.75, omega=omega)
    kp = build_kplus(lab, 16)
    km = build_kminus(lab, 16)
    assert float(np.max(np.abs(km.entries - kp.entries.conj().T))) < 1e-18


def test_k1_k2_hermitian_for_real_omega():
    for k in K_GRID:
        lab = RepLabel(k=k)
        assert build_k1(lab, 12).is_hermitian()
        assert build_k2(lab, 12).is_hermitian()
        assert build_k3(lab, 12).is_hermitian()


def test_k1_diagonal_vanishes():
    k1 = build_k1(RepLabel(k=1.0), 16)
    assert np.all(np.diag(k1.entries) == 0)


def test_omega_covariance():
    # K_i(omega) = U K_i(1) U^dag with U = diag(omega^n); diagonal
    # expectations and spectra are omega-independent.
    k, dim = 0.75, 20
    omega = 1j
    U = np.diag(omega ** np.arange(dim)).astype(np.clongdouble)
    for builder in (build_k1, build_k2):
        ref = builder(RepLabel(k=k, omega=1.0), dim).entries
        rot = builder(RepLabel(k=k, omega=omega), dim).entries
        assert float(np.max(np.abs(U.conj().T @ rot @ U - ref))) < 1e-17
        sq_ref = np.diag(ref.astype(np.complex128) @ ref.astype(np.complex128))
        sq_rot = np.diag(rot.astype(np.complex128) @ rot.astype(np.complex128))
        assert np.max(np.abs(sq_ref - sq_rot)) < 1e-13


# ---------------------------------------------------------------------------
# algebra


def test_casimir_constant_on_interior():
    for k, want in [(1.0, 0.0), (0.5, 0.25), (2.0, -2.0)]:
        c = casimir(RepLabel(k=k), 64)
        inner = c.entries[:60, :60]
        off = inner - np.diag(np.diag(inner))
        assert float(np.max(np.abs(off))) == 0.0
        assert float(np.max(np.abs(np.diag(inner) - want))) < 1e-13


def test_commutator_relations_dim64():
    for k in K_GRID:
        lab = RepLabel(k=k)
        K3, K1, K2 = build_k3(lab, 64), build_k1(lab, 64), build_k2(lab, 64)
        Kp, Km = build_kplus(lab, 64), build_kminus(lab, 64)
        assert commutator_residual(K3, K1, K2, +1, margin=2) < 1e-12
        assert commutator_residual(K3, K2, K1, -1, margin=2) < 1e-12
        assert commutator_residual(K1, K2, K3, -1, margin=2) < 1e-12
        assert commutator_residual(Kp, Km, K3, 2j) < 1e-12


def test_commutator_residual_default_margin_and_errors():
    lab = RepLabel(k=1.0)
    K3, K1, K2 = build_k3(lab, 16), build_k1(lab, 16), build_k2(lab, 16)
    # default margin = 2*(bw_a + bw_b) = 2 here
    assert commutator_residual(K3, K1, K2) == commutator_residual(K3, K1, K2, margin=2)
    other = build_k2(lab, 8)
    with pytest.raises(DimensionMismatchError):
        commutator_residual(K3, K1, other)
    mismatched = build_k2(RepLabel(k=0.5), 16)
    with pytest.raises(DimensionMismatchError):
        commutator_residual(K3, K1, mismatched)
    with pytest.raises(DomainError):
        commutator_residual(K3, K1, K2, margin=16)


def test_banded_matmul_matches_dense():
    rng = np.random.default_rng(11)
    dim = 30
    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros((dim, dim), dtype=complex)
    for off in range(-2, 3):
        idx = np.arange(max(0, -off), min(dim, dim - off))
        a[idx, idx + off] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    for off in range(-3, 4):
        idx = np.arange(max(0, -off), min(dim, dim - off))
        b[idx, idx + off] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    prod = banded_matmul({off: np.diag(a, off) for off in range(-2, 3)},
                         {off: np.diag(b, off) for off in range(-3, 4)}, dim)
    dense = np.zeros((dim, dim), dtype=complex)
    for off, vec in prod.items():
        dense += np.diag(vec, off)
    assert np.max(np.abs(dense - a @ b)) < 1e-13


# ---------------------------------------------------------------------------
# fluctuations


def test_fluctuation_examples():
    f = fluctuation_closed_forms(1.0, 0)
    assert f.var_k1 == 0.5 and f.var_k2 == 0.5
    assert f.uncertainty_product == 0.5  # equality with the (n+k)/2 bound
    assert fluctuation_closed_forms(0.5, 0).var_k1 == 0.25
    assert fluctuation_closed_forms(1.0, 10).sum_squares == 121.0


@settings(max_examples=80, deadline=None)
@given(k=st.floats(min_value=0.05, max_value=8.0), n=st.integers(min_value=0, max_value=200))
def test_uncertainty_bound(k, n):
    f = fluctuation_closed_forms(k, n)
    assert f.uncertainty_product >= 0.5 * (n + k) - 1e-12


def test_matrix_second_moments_match_closed_forms():
    dim = 48
    for k in K_GRID:
        lab = RepLabel(k=k)
        k1 = build_k1(lab, dim)
        k2 = build_k2(lab, dim)
        sq1 = banded_matmul(k1.diagonals, k1.diagonals, dim)[0].real
        sq2 = banded_matmul(k2.diagonals, k2.diagonals, dim)[0].real
        for n in range(dim - 1):
            f = fluctuation_closed_forms(k, n)
            assert abs(float(sq1[n]) - f.var_k1) < 1e-12
            assert abs(float(sq2[n]) - f.var_k2) < 1e-12
            assert abs(float(sq1[n] + sq2[n]) - f.sum_squares) < 1e-12


def test_correspondence_ratio_approaches_one():
    # (<K1^2> + <K2^2>)/(n+k)^2 -> 1 for growing n
    k = 0.5
    ratios = [fluctuation_closed_forms(k, n).sum_squares / (n + k) ** 2 for n in (10, 100, 1000)]
    assert abs(ratios[-1] - 1.0) < 1e-5
    assert abs(ratios[0] - 1.0) > abs(ratios[1] - 1.0) > abs(ratios[2] - 1.0)


# ---------------------------------------------------------------------------
# ladder normalization


def test_ladder_norm_small_n():
    # (K+)^n |k,0> rescaled by the norm reproduces |k,n>
    k, dim = 0.75, 10
    kp = build_kplus(RepLabel(k=k), dim).entries.astype(np.complex128)
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    for n in range(dim):
        unit = v * ladder_norm(k, n)
        want = np.zeros(dim, dtype=complex)
        want[n] = 1.0
        assert np.max(np.abs(unit - want)) < 1e-13
        if n < dim - 1:
            v = kp @ v


def test_ladder_log_norm_against_mpmath():
    mpmath.mp.dps = 50
    for k in (0.25, 0.75, 2.0):
        for n in (0, 1, 10, 200, 1000):
            want = 0.5 * (mpmath.loggamma(2 * k) - mpmath.loggamma(n + 1)
                          - mpmath.loggamma(2 * k + n))
            assert abs(mpmath.mpf(ladder_log_norm(k, n)) - want) < 2e-15 * max(1.0, abs(want))


def test_ladder_norm_underflow_is_zero_not_error():
    assert ladder_norm(0.75, 500) == 0.0


# ---------------------------------------------------------------------------
# serialization


def test_csv_lines_format():
    op = build_k3(RepLabel(k=0.5), 2)
    lines = csv_lines(op)
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 5
    assert lines[1] == "0,0,0.5,0.0"
    assert lines[4] == "1,1,1.5,0.0"


def test_json_envelope_roundtrip():
    op = build_k2(RepLabel(k=1.0, omega=1j), 3)
    env = json_envelope(op)
    assert set(env) == {"k", "dim", "omega", "name", "entries"}
    assert env["k"] == 1.0 and env["dim"] == 3 and env["name"] == "K2"
    assert env["omega"] == [0.0, 1.0]
    back = np.array([[complex(re, im) for re, im in row] for row in env["entries"]])
    assert np.max(np.abs(back - op.entries.astype(np.complex128))) < 1e-15


def _frozen_csv_lines(op):
    # the entry-by-entry formatter the fast serializer must reproduce byte for byte
    ent = op.entries.astype(np.complex128)
    return ["i,j,re,im"] + [
        f"{i},{j},{float(z.real)!r},{float(z.imag)!r}" for (i, j), z in np.ndenumerate(ent)
    ]


def _frozen_json_entries(op):
    ent = op.entries.astype(np.complex128)
    return [[[z.real, z.imag] for z in row] for row in ent]


_SERIALIZED = [
    (build, omega, dim)
    for build in (build_k3, build_kplus, build_kminus, build_k1, build_k2)
    for omega in (1.0, 1j, cmath.exp(1.3j))
    for dim in (1, 2, 3, 17, 64)
    if build is build_k3 or dim >= 2
] + [(build_k1, cmath.exp(-2.1j), 256)]  # the benchmark's size


@pytest.mark.parametrize("build, omega, dim", _SERIALIZED)
def test_serializers_byte_identical_to_entrywise_format(build, omega, dim):
    op = build(RepLabel(k=0.75, omega=omega), dim)
    assert csv_lines(op) == _frozen_csv_lines(op)
    env = json_envelope(op)
    assert json.dumps(env["entries"]) == json.dumps(_frozen_json_entries(op))
    assert all(type(x) is float for row in env["entries"] for pair in row for x in pair)


def test_json_cells_are_immutable_float_pairs():
    # K- at omega = -1 carries imaginary parts -0.0 on its band
    op = build_kminus(RepLabel(k=1.0, omega=-1.0), 5)
    rows = json_envelope(op)["entries"]
    assert len(rows) == 5 and len({id(row) for row in rows}) == 5
    assert all(type(row) is list and len(row) == 5 for row in rows)
    assert all(type(cell) is tuple and len(cell) == 2
               and all(type(x) is float for x in cell) for row in rows for cell in row)
    # a shared off-band cell cannot be changed through one row
    with pytest.raises(TypeError):
        rows[1][0][0] = 1.0
    assert all(math.copysign(1.0, rows[i][i + 1][1]) == -1.0 for i in range(4))
    assert math.copysign(1.0, rows[0][0][1]) == 1.0


def test_serializers_never_densify(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix built")

    op = build_k1(RepLabel(k=0.75, omega=cmath.exp(0.4j)), 32)
    monkeypatch.setattr(TruncatedOperator, "entries", property(refuse))
    csv_lines(op)
    json_envelope(op)


def test_csv_lines_keep_signed_zeros():
    # K- at omega = -1 carries conj(-1) = -1 - 0j: imaginary parts are -0.0
    op = build_kminus(RepLabel(k=1.0, omega=-1.0), 3)
    lines = csv_lines(op)
    assert lines == _frozen_csv_lines(op)
    assert lines[2] == "0,1,-1.4142135623730951,-0.0"


def test_banded_matvec_matches_dense():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for build in (build_k3, build_kplus, build_kminus, build_k1, build_k2):
        op = build(RepLabel(k=0.6, omega=cmath.exp(0.4j)), 9)
        dense = op.entries.astype(np.complex128) @ c
        assert np.max(np.abs(banded_matvec(op.diagonals, c) - dense)) < 1e-13
