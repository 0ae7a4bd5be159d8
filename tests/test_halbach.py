"""Source-model tests: step-sum harmonics against adaptive quadrature."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from halmotor.config import MU0, HarmonicTruncation
from halmotor.halbach import (
    fourier_coefficients,
    magnetization_steps,
    reconstruct_profiles,
)

from conftest import make_case
from references import magnetization_profiles, source_profiles

# fundamental current-sheet amplitude over M, per segment count
K1_OVER_M = {
    2: 0.900316316157106,
    3: 0.9549296585513715,
    4: 0.9744953584044327,
    5: 0.983631643083466,
}

# harmonics killed by the rotation pattern (surviving n = 1 mod 2 N_m family)
ZERO_ORDERS = {
    3: {3, 9, 15},
    4: {3, 5, 11, 13, 19},
    5: {3, 5, 7, 13, 15, 17},
}


def _quad_coefficient(design, n, profile_index):
    """Projection of the exact piecewise profile onto its n-th harmonic."""
    lam = design.lam
    # each block boundary once, wrapped into [0, lam); quad warns on a break
    # at an end of the window
    wrapped = magnetization_steps(design)[0].edges[:-1] % lam
    breaks = np.sort(wrapped[(wrapped > 0) & (wrapped < lam)])
    weight = (lambda x: math.cos(n * design.k * x)) if profile_index == 0 \
        else (lambda x: math.sin(n * design.k * x))

    def integrand(x):
        return source_profiles(design, np.array([x]))[profile_index][0] * weight(x)

    val, _ = quad(integrand, 0.0, lam, points=breaks, limit=200)
    return 2 / lam * val


@pytest.mark.parametrize("n_m", [2, 3, 4, 5])
def test_quadrature_equivalence(n_m):
    design = make_case(n_m, False)
    src = fourier_coefficients(design, HarmonicTruncation(19))
    k_scale = design.M
    s_scale = MU0 * design.M
    for i, n in enumerate(src.n):
        for closed, scale, which in ((src.k_n[i], k_scale, 0),
                                     (src.sigma_n[i], s_scale, 1)):
            ref = _quad_coefficient(design, int(n), which)
            if abs(ref) > 1e-6 * scale:
                assert abs(closed - ref) / abs(ref) < 1e-10
            else:
                assert abs(closed) < 1e-9 * scale


@pytest.mark.parametrize("n_m", [2, 3, 4, 5])
def test_fundamental_amplitude(n_m):
    design = make_case(n_m, False)
    src = fourier_coefficients(design, HarmonicTruncation(1))
    assert src.k_n[0] / design.M == pytest.approx(K1_OVER_M[n_m], rel=1e-12)
    # vertical and horizontal fundamentals have equal magnitude
    assert src.sigma_n[0] / (MU0 * design.M) == pytest.approx(
        -K1_OVER_M[n_m], rel=1e-12)


@pytest.mark.parametrize("n_m", [3, 4, 5])
def test_suppressed_harmonics(n_m):
    design = make_case(n_m, False)
    src = fourier_coefficients(design, HarmonicTruncation(19))
    scale = design.M
    for i, n in enumerate(src.n):
        if int(n) in ZERO_ORDERS[n_m]:
            assert abs(src.k_n[i]) < 1e-12 * scale
            assert abs(src.sigma_n[i]) < 1e-12 * MU0 * scale
        elif int(n) <= max(ZERO_ORDERS[n_m]):
            assert abs(src.k_n[i]) > 1e-4 * scale


def test_magnetization_harmonics_signs(source):
    np.testing.assert_array_equal(source.M_xn, -source.k_n)
    np.testing.assert_allclose(source.M_yn, -source.sigma_n / MU0, rtol=1e-15)


def test_layout_tiles_period():
    for n_m in (2, 3, 4, 5):
        design = make_case(n_m, False)
        rot = np.arange(-n_m, n_m) * design.dtheta
        m_x, m_y = magnetization_steps(design)
        np.testing.assert_array_equal(m_x.edges, m_y.edges)
        edges = m_x.edges
        assert edges.shape == (2 * n_m + 1,)
        assert edges[-1] - edges[0] == pytest.approx(design.lam, rel=1e-15)
        np.testing.assert_allclose(np.diff(edges), design.w_m, rtol=1e-13)
        # block i is centred at theta = pi/2 + i dtheta
        np.testing.assert_allclose(design.k * (edges[:-1] + edges[1:]) / 2,
                                   math.pi / 2 + rot, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(m_x.values, design.M * np.sin(rot))
        np.testing.assert_array_equal(m_y.values, design.M * np.cos(rot))


def test_reconstruction_converges_away_from_edges(table1):
    src = fourier_coefficients(table1, HarmonicTruncation(999))
    lam = table1.lam
    edges = magnetization_steps(table1)[0].edges
    x = np.linspace(0, lam, 400, endpoint=False)
    # keep clear of the block boundaries where Gibbs overshoot lives
    gap = np.abs((x[:, None] - edges[None, :] + lam / 2) % lam - lam / 2)
    far = gap.min(axis=1) > lam / 50
    k_exact, s_exact = source_profiles(table1, x)
    k_rec, s_rec = reconstruct_profiles(src, table1.k, x)
    assert np.abs(k_rec - k_exact)[far].max() < 2e-2 * table1.M
    assert np.abs(s_rec - s_exact)[far].max() < 2e-2 * MU0 * table1.M


def test_piecewise_averages_match_dense_sampling(table1):
    m_x, m_y = magnetization_steps(table1)
    rng = np.random.default_rng(11)
    lo = rng.uniform(-table1.lam, 2 * table1.lam, 40)
    hi = lo + rng.uniform(1e-5, table1.lam / 3, 40)
    xs = np.linspace(0, 1, 20001)
    for a, b in zip(lo, hi):
        dense = (a + (b - a) * xs)
        mx, my = magnetization_profiles(table1, dense % table1.lam)
        assert m_x.average(np.array([a]), np.array([b]))[0] == pytest.approx(
            np.trapezoid(mx, dense) / (b - a), abs=2e-3 * table1.M)
        assert m_y.average(np.array([a]), np.array([b]))[0] == pytest.approx(
            np.trapezoid(my, dense) / (b - a), abs=2e-3 * table1.M)


def test_full_period_average_is_zero(table1):
    m_x, m_y = magnetization_steps(table1)
    zero = m_x.average(np.array([0.1234]), np.array([0.1234 + table1.lam]))
    assert abs(zero[0]) < 1e-9 * table1.M
    zero_y = m_y.average(np.array([-0.02]), np.array([-0.02 + table1.lam]))
    assert abs(zero_y[0]) < 1e-9 * table1.M


def test_even_odd_segment_counts_differ_in_edge_term():
    # even N_m has horizontally magnetized blocks centred on the pole
    # edges, which keep the n=3 current sheet for N_m=2; the N_m=3 rotation
    # pattern suppresses it
    d2, d3 = make_case(2, False), make_case(3, False)
    s2 = fourier_coefficients(d2, HarmonicTruncation(3))
    s3 = fourier_coefficients(d3, HarmonicTruncation(3))
    assert abs(s2.k_n[1]) > 1e-3 * d2.M     # n=3 present for N_m=2
    assert abs(s3.k_n[1]) < 1e-12 * d3.M    # n=3 suppressed for N_m=3


def test_sources_immutable(source):
    with pytest.raises(ValueError):
        source.k_n[0] = 0.0


def test_magnetization_harmonics_formed_once(source):
    assert source.M_xn is source.M_xn and source.M_yn is source.M_yn
    for a in (source.M_xn, source.M_yn):
        assert not a.flags.writeable
    np.testing.assert_array_equal(source.M_xn.view(np.uint64),
                                  (-source.k_n).view(np.uint64))
    np.testing.assert_array_equal(source.M_yn.view(np.uint64),
                                  (-source.sigma_n / MU0).view(np.uint64))
    doubled = dataclasses.replace(source, k_n=2 * source.k_n)
    np.testing.assert_array_equal(doubled.M_xn, -2 * source.k_n)
