"""Series means over windowed, bounded term tables, at the domain edges.

g/I, b_k and the oscillator's h1/h2 are means over terms whose weight lies
within a few sqrt(w) of the term peak.  ``specfun._series_blocks`` builds
one table per block of rows, over the window of n that carries the block's
means, with at most ``specfun._BLOCK_ENTRIES`` entries.  The references
below are the same series summed in mpmath at 30 digits over every term
down to 1e-32 of the largest, each term from the one before by its ratio.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from phasequant import bgstates, phaseops, specfun
from phasequant.bgstates import b_ratio, kbound_scan, ratio_gI
from phasequant.errors import DomainError
from phasequant.fockreal import h2_curve

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _series_mean(ratio, weight, start):
    # sum t_n weight(n) / sum t_n with t_n / t_{n-1} = ratio(n), out from
    # t_start = 1 both ways while the terms are above 1e-32 of the sum
    tiny = mpmath.mpf(10) ** -32
    num, den = weight(start), mpmath.mpf(1)
    for step in (1, -1):
        term, n = mpmath.mpf(1), start
        while n + step >= 0:
            r = ratio(n + 1) if step == 1 else 1 / ratio(n)
            n += step
            term *= r
            num += term * weight(n)
            den += term
            if term < tiny * den and r < 1:
                break
    return num / den


def _g_over_i(k, rho):
    k, rho = mpmath.mpf(k), mpmath.mpf(rho)
    return rho * _series_mean(lambda n: rho * rho / (n * (2 * k + (n - 1))),
                              lambda n: (1 / (n + k) + 1 / (n + k + 1)) / 2, int(rho))


def _b(k, rho):
    k, rho = mpmath.mpf(k), mpmath.mpf(rho)
    return rho * _series_mean(lambda n: rho * rho / (n * (2 * k + (n - 1))),
                              lambda n: 1 / (n + 2 * k), int(rho))


def _h2(k, r):
    k, r = mpmath.mpf(k), mpmath.mpf(r)
    return r / 2 * _series_mean(lambda n: r * r / n,
                                lambda n: mpmath.sqrt(n + 2 * k) * (1 / (n + k) + 1 / (n + k + 1)),
                                int(r * r))


def test_long_series_means_against_mpmath():
    # once the table of every row spanned n = 0 .. N: 199403 columns at
    # r = 442, and b_ratio(1e3, 2e5) raised ConvergenceError, as neither
    # that table nor the Bessel quotient was cut within 200000 terms
    with mpmath.workdps(30):
        for r in (266.5, 333.2, 442.0):
            want = _h2(0.5, r)
            assert abs(h2_curve(0.5, [r])[0] - want) <= 1e-15 * want, r
        for k in (0.3, 1.0):
            for rho in (2.1e4, 1e5):
                want = _g_over_i(k, rho)
                assert abs(ratio_gI(k, rho) - want) <= 1e-15 * want, (k, rho)
        want = _b(1e3, 2e5)
        assert abs(b_ratio(1e3, 2e5) - want) <= 1e-13 * want


def test_the_lower_cut_keeps_a_huge_weight_at_n_0():
    # t_0 lies 2e-286 below the peak t_1, but its weight 1/(2k) is 1.4e288
    # times the peak's: a lower cut on t_n alone dropped it, and read
    # 0.003986028 for 250.880
    k, rho = 1.78e-291, 0.003986
    with mpmath.workdps(30):
        want = _b(k, rho)
    assert abs(b_ratio(k, rho) - want) <= 1e-15 * want


@pytest.mark.parametrize("run", [
    lambda: h2_curve(0.5, np.linspace(0.0, 442.0, 200)),
    lambda: kbound_scan([0.3, 1.0], np.geomspace(0.01, 1e5, 200)),
    lambda: h2_curve(1.0, [0.0, 1e4]),
], ids=["h2-to-r442", "scan-to-rho1e5", "h2-at-r1e4"])
def test_means_at_the_domain_edges_stay_small(run):
    # once 713 MB (199 radii x 199403 terms) and 541 MB; at r = 1e4 the
    # raw-total check summed ln(r^2 / m) over the 1e8 m below the window
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("a, w", [
    (None, np.linspace(0.0, 442.0, 200)[1:] ** 2),
    (0.6, np.geomspace(0.01, 1e5, 200) ** 2),
    (2e-300, np.geomspace(1e-3, 1e6, 50) ** 2),
])
def test_blocks_partition_the_rows_within_the_entry_bound(a, w):
    weight = (lambda n: 1.0 / (n + 1.0)) if a is None else (lambda n: 1.0 / (n + a))
    seen = []
    for rows, n, terms, ln_peak in specfun._series_blocks(w, np.log(w), a, weight):
        ids = np.arange(w.size)[rows]
        seen.extend(ids.tolist())
        assert terms.shape == (ids.size, n.size) and np.all(np.diff(n) == 1.0)
        assert ids.size == 1 or terms.size <= specfun._BLOCK_ENTRIES
        # the window holds every row's largest term, exactly 1
        assert np.all(terms.max(axis=1) == 1.0)
        assert np.all(np.isfinite(ln_peak))
    assert sorted(seen) == list(range(w.size))


def test_the_window_limit_is_one_error():
    # the last rho of the edge below _RHO_CUT and the first past it, at the k
    # that reaches least.  34392762.818616025, bisected before, is still cut,
    # but lies past the first rho that is not
    k = phaseops._K_MIN
    last = 34392557.93108838
    ratio = kbound_scan([k], [1.0, bgstates._RHO_CUT, last]).ratio[0]
    assert np.all((0.99 < ratio[1:]) & (ratio[1:] < 1.0))
    with pytest.raises(DomainError, match=r"phase series' window is not cut"):
        kbound_scan([k], [1.0, math.nextafter(last, math.inf)])
