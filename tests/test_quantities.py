"""Thrust, EMF, power balance, and normal-force behavior.

Frozen numbers below were produced by this implementation at n_max = 199
once the dual analytic/quadrature routes agreed, and are pinned at full
precision to catch regressions.
"""
import dataclasses

import numpy as np
import pytest

from halmotor.config import MU0, HarmonicTruncation, MotorDesign, slot_offsets
from halmotor.errors import OffsetExceedsGap, ZeroVelocity
from halmotor.halbach import fourier_coefficients
from halmotor.laplace import airgap_B_y, solve_coefficients
from halmotor.poisson import evaluate_fields_vector, solve_vector
from halmotor.quantities import (attraction_force, back_emf, emf_thd,
                                 force_angle_sweep, misalignment_force,
                                 optimal_shift, power_balance, thrust,
                                 thrust_quadrature, thrust_time_series)

from conftest import TABLE1, make_case

# mean thrust [N] and peak-to-peak ripple [%] at the best shift x_0 = 3λ/4
MEAN_FORCE_OPEN = {
    2: 42.49196912350601,
    3: 45.06953926980074,
    4: 45.99297595434815,
    5: 46.42417854339163,
}
RIPPLE_OPEN = {
    2: 2.4120207169080605,
    3: 0.7787978968103914,
    4: 0.027461561815517215,
    5: 0.14439643421746187,
}
MEAN_FORCE_IRON = {
    2: 43.669982469386206,
    3: 46.31901110760096,
    4: 47.26804841176921,
    5: 47.711205316302184,
}
ATTRACTION_NOMINAL = 135.16981880193325
NET_PULL = {0.0: 0.0, 1e-4: 8.505046591291944,
            2e-4: 17.018805990957233, 3e-4: 25.55000758736864}
EMF_PEAK = 20.918904876905117
THD = 0.012560034147582933


def _solved(design):
    src = fourier_coefficients(design, HarmonicTruncation())
    return src, solve_coefficients(design, src)


@pytest.mark.parametrize("n_m", [2, 3, 4, 5])
def test_mean_force_and_ripple_open(n_m):
    design = make_case(n_m, back_iron=False)
    _, coeffs = _solved(design)
    res = thrust_time_series(design, coeffs, x_0=0.03)
    assert res.mean == pytest.approx(MEAN_FORCE_OPEN[n_m], rel=1e-12)
    assert res.ripple_pct == pytest.approx(RIPPLE_OPEN[n_m], rel=1e-12)


@pytest.mark.parametrize("n_m", [2, 3, 4, 5])
def test_mean_force_iron(n_m):
    design = make_case(n_m, back_iron=True)
    _, coeffs = _solved(design)
    res = thrust_time_series(design, coeffs, x_0=0.03)
    assert res.mean == pytest.approx(MEAN_FORCE_IRON[n_m], rel=1e-12)


def test_back_iron_removal_reduction_uniform():
    # dropping the back iron costs the same fraction for every segment
    # count because sigma_1/(mu0 M) = -k_1/M makes the per-harmonic gain
    # independent of N_m
    drops = []
    for n_m in (2, 3, 4, 5):
        fi = MEAN_FORCE_IRON[n_m]
        fo = MEAN_FORCE_OPEN[n_m]
        drops.append(100.0 * (fi - fo) / fi)
    assert drops[0] == pytest.approx(2.697535650961192, rel=1e-10)
    assert max(drops) - min(drops) < 1e-10
    assert 0.5 < drops[0] < 8.0


@pytest.mark.parametrize("n_m", [2, 3, 4, 5])
def test_optimal_shift_is_three_quarter_wavelength(n_m):
    design = make_case(n_m, back_iron=False)
    _, coeffs = _solved(design)
    x_best, f_best = optimal_shift(design, coeffs)
    assert abs(x_best - 0.03) < 1e-12
    assert f_best > 0


def test_force_angle_sweep_matches_thrust(table1, coeffs):
    x0s, totals = force_angle_sweep(table1, coeffs, n_scan=36)
    for i in (0, 9, 27):
        direct = thrust(table1, coeffs, 0.0, x_0=float(x0s[i]))
        assert totals[i] == pytest.approx(float(direct.total[0]), rel=1e-13)


def test_thrust_scalar_and_array_time_agree(table1, coeffs):
    ts = np.array([0.0, 1.3e-3, 7.7e-3])
    batch = thrust(table1, coeffs, ts, x_0=0.004)
    for j, t in enumerate(ts):
        single = thrust(table1, coeffs, float(t), x_0=0.004)
        assert single.total[0] == pytest.approx(float(batch.total[j]), rel=1e-13)
        np.testing.assert_allclose(single.per_phase[:, 0], batch.per_phase[:, j],
                                   rtol=1e-13)


def test_thrust_against_field_quadrature(table1, coeffs):
    """Independent route: midpoint quadrature of J B_y over the coils."""
    t, x_0 = 1.3e-3, 0.004
    analytic = float(thrust(table1, coeffs, t, x_0).total[0])
    quad = thrust_quadrature(table1, coeffs, t, x_0)
    assert abs(quad - analytic) < 1e-3 * abs(analytic)


@pytest.mark.parametrize("design", [MotorDesign(**TABLE1),
                                    MotorDesign(**TABLE1, N_ph=5, back_iron=True)],
                         ids=["table1", "5-phase-iron"])
def test_thrust_quadrature_tracks_closed_form(design):
    """With exact slot-cell averages the quadrature leaves only the smooth
    B_y sampling error, far below the 1e-3 bound above."""
    _, coeffs = _solved(design)
    for t, x_0 in ((0.0, 0.03), (1.3e-3, 0.004), (7.7e-3, 0.031)):
        analytic = float(thrust(design, coeffs, t, x_0).total[0])
        quad = thrust_quadrature(design, coeffs, t, x_0)
        assert abs(quad - analytic) < 1e-5 * abs(analytic), (t, x_0)


def test_power_balance_is_machine_exact(table1, coeffs):
    bal = power_balance(table1, coeffs, x_0=0.004)
    assert bal.max_rel_dev < 1e-12
    assert bal.t.shape == bal.electrical.shape == bal.mechanical.shape == (720,)


def test_power_balance_requires_motion():
    frozen = MotorDesign(**TABLE1, f=0.0)
    _, coeffs = _solved(frozen)
    with pytest.raises(ZeroVelocity):
        power_balance(frozen, coeffs)


def test_emf_is_flux_linkage_derivative(table1, coeffs):
    ts = np.linspace(0.0, 1 / table1.f, 25)
    dt = 1e-9
    e = back_emf(table1, coeffs, ts)
    lo = back_emf(table1, coeffs, ts - dt).flux_linkage
    hi = back_emf(table1, coeffs, ts + dt).flux_linkage
    numeric = (hi - lo) / (2 * dt)
    scale = np.abs(e.emf).max()
    assert np.abs(numeric - e.emf).max() < 1e-4 * scale


@pytest.mark.parametrize("design", [MotorDesign(**TABLE1),
                                    MotorDesign(**TABLE1, N_ph=5, back_iron=True)],
                         ids=["table1", "5-phase-iron"])
def test_flux_linkage_against_vector_potential_quadrature(design):
    """Independent route: lambda_m = 4 N_turns L / (h_c w_s) times the
    integral of A_z(x - s, y) over go side m, with A_z from the separately
    solved vector-potential coefficients; midpoints in x, Gauss-Legendre
    nodes in y."""
    src, coeffs = _solved(design)
    vector = solve_vector(design, src)
    ws, nx = design.slot_width, 4096
    nodes, weights = np.polynomial.legendre.leggauss(12)
    ys, wy = (nodes + 1) * design.h_c / 2, weights * design.h_c / 2
    points = ((0.0, 0.03), (1.3e-3, 0.004), (7.7e-3, 0.031))
    closed = np.stack([back_emf(design, coeffs, t, x_0).flux_linkage[:, 0]
                       for t, x_0 in points])
    quad = np.empty_like(closed)
    for i, (t, x_0) in enumerate(points):
        shift = design.u * t + x_0
        for m, left in enumerate(slot_offsets(design) * ws):
            xs = (left + (np.arange(nx) + 0.5) * ws / nx - shift)[:, None]
            columns = [evaluate_fields_vector(design, src, vector, xs, y, "I").A_z.sum()
                       for y in ys]
            integral = float(np.dot(wy, columns)) * ws / nx
            quad[i, m] = 4 * design.N_turns * design.L / (design.h_c * ws) * integral
    assert np.abs(quad - closed).max() < 1e-7 * np.abs(closed).max()


def test_emf_peak_frozen(table1, coeffs):
    e = back_emf(table1, coeffs, np.arange(720) / (720 * table1.f))
    assert np.abs(e.emf).max() == pytest.approx(EMF_PEAK, rel=1e-12)
    assert e.flux_linkage.shape == e.emf.shape == e.current.shape == (3, 720)


def test_emf_thd_equal_across_phases(table1, coeffs):
    thd = emf_thd(table1, coeffs)
    assert thd.shape == (3,)
    np.testing.assert_allclose(thd, THD, rtol=1e-12)


@pytest.mark.parametrize("back_iron", [False, True])
@pytest.mark.parametrize("n_ph", [3, 5])
def test_emf_thd_matches_sampled_spectrum(back_iron, n_ph):
    # 4096 samples resolve every line up to n_max = 199 without aliasing
    design = dataclasses.replace(make_case(2, back_iron), N_ph=n_ph)
    _, coeffs = _solved(design)
    nt = 4096
    e = back_emf(design, coeffs, np.arange(nt) / (nt * design.f), x_0=0.003)
    spectrum = np.abs(np.fft.rfft(e.emf, axis=1))
    want = np.sqrt((spectrum[:, 2:] ** 2).sum(axis=1)) / spectrum[:, 1]
    np.testing.assert_allclose(emf_thd(design, coeffs), want, rtol=1e-12)


def test_attraction_frozen_and_quadrature(table1, coeffs):
    pull = attraction_force(table1, coeffs)
    assert pull == pytest.approx(ATTRACTION_NOMINAL, rel=1e-12)
    # Maxwell stress integrated on y = 0, where B_x vanishes by symmetry;
    # a periodic trapezoid rule is exact for the truncated series
    nx = 4096
    xs = np.arange(nx) * table1.lam / nx
    by = airgap_B_y(table1, coeffs, xs, 0.0)
    stress = by ** 2 / (2 * MU0)
    integral = stress.sum() * table1.lam / nx
    assert integral * table1.L == pytest.approx(pull, rel=1e-9)


def test_misalignment_net_pull(table1):
    for g_0, expect in NET_PULL.items():
        res = misalignment_force(table1, g_0=g_0)
        assert res.nominal == pytest.approx(ATTRACTION_NOMINAL, rel=1e-12)
        if g_0 == 0.0:
            assert res.net == 0.0
            assert res.small_gap == res.large_gap == res.nominal
        else:
            assert res.net == pytest.approx(expect, rel=1e-12)
            assert res.small_gap > res.nominal > res.large_gap
    nets = [misalignment_force(table1, g_0=g).net for g in sorted(NET_PULL)]
    assert all(a < b for a, b in zip(nets, nets[1:]))


def test_misalignment_uses_design_offset():
    design = MotorDesign(**TABLE1, g_0=2e-4)
    res = misalignment_force(design)
    assert res.g_0 == 2e-4
    assert res.net == pytest.approx(NET_PULL[2e-4], rel=1e-12)


def test_misalignment_rejects_offset_at_gap(table1):
    with pytest.raises(OffsetExceedsGap):
        misalignment_force(table1, g_0=table1.g)
    with pytest.raises(OffsetExceedsGap):
        misalignment_force(table1, g_0=-1e-5)


def test_thrust_zero_current_is_zero():
    dead = MotorDesign(**TABLE1, J_max=0.0)
    _, coeffs = _solved(dead)
    res = thrust_time_series(dead, coeffs, x_0=0.03)
    assert res.mean == 0.0
    assert res.ripple_pct == 0.0
    np.testing.assert_array_equal(res.total, 0.0)
