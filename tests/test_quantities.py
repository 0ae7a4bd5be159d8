"""Thrust, EMF, power balance, and normal-force behavior.

Frozen numbers below were produced by this implementation at n_max = 199
once the dual analytic/quadrature routes agreed, and are pinned at full
precision to catch regressions.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from halmotor import quantities
from halmotor.config import (MU0, HarmonicTruncation, MotorDesign,
                             all_phase_currents, slot_offsets)
from halmotor.errors import OffsetExceedsGap, ZeroVelocity
from halmotor.halbach import fourier_coefficients
from halmotor.laplace import airgap_B_y, solve_coefficients
from halmotor.poisson import evaluate_fields_vector, solve_vector
from halmotor.quantities import (_QUAD_NX, attraction_force, back_emf, emf_thd,
                                 emf_time_series, force_angle_sweep, line_table,
                                 misalignment_force, optimal_shift, period_grid,
                                 power_balance, thrust, thrust_quadrature,
                                 thrust_time_series)

from conftest import TABLE1, make_case
from references import thrust_quadrature_direct

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


def _table(design):
    return line_table(design, _solved(design)[1])


@pytest.fixture(scope="module")
def table(table1, coeffs):
    return line_table(table1, coeffs)


@pytest.mark.parametrize("n_m", [2, 3, 4, 5])
def test_mean_force_and_ripple_open(n_m):
    design = make_case(n_m, back_iron=False)
    res = thrust_time_series(design, _table(design), x_0=0.03)
    assert res.mean == pytest.approx(MEAN_FORCE_OPEN[n_m], rel=1e-12)
    assert res.ripple_pct == pytest.approx(RIPPLE_OPEN[n_m], rel=1e-12)


@pytest.mark.parametrize("back_iron", [False, True])
def test_ripple_is_relative_to_the_mean_magnitude(back_iron):
    # half a wavelength on, the array reverses and so does the thrust: the
    # mean changes sign, the ripple does not
    design = make_case(2, back_iron)
    table = _table(design)
    ahead = thrust_time_series(design, table, x_0=0.03)
    behind = thrust_time_series(design, table, x_0=0.03 + design.lam / 2)
    assert ahead.mean > 0 > behind.mean
    assert behind.mean == pytest.approx(-ahead.mean, rel=1e-12)
    assert behind.ripple_pct == pytest.approx(ahead.ripple_pct, rel=1e-12)
    assert ahead.ripple_pct > 0


@pytest.mark.parametrize("n_m", [2, 3, 4, 5])
def test_mean_force_iron(n_m):
    design = make_case(n_m, back_iron=True)
    res = thrust_time_series(design, _table(design), x_0=0.03)
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
    x_best, f_best = optimal_shift(design, _table(design))
    assert abs(x_best - 0.03) < 1e-12
    assert f_best > 0


def test_force_angle_sweep_matches_thrust(table1, table):
    x0s, totals = force_angle_sweep(table1, table, n_scan=36)
    for i in (0, 9, 27):
        direct = thrust(table1, table, 0.0, x_0=float(x0s[i]))
        assert totals[i] == pytest.approx(float(direct.total[0]), rel=1e-13)


SYNTHESIS_DESIGNS = [MotorDesign(**TABLE1),
                     MotorDesign(**TABLE1, N_ph=5, back_iron=True)]


@pytest.fixture(scope="module", params=[(d, n_max) for d in SYNTHESIS_DESIGNS
                                        for n_max in (199, 799)],
                ids=["table1-199", "table1-799", "5-phase-iron-199",
                     "5-phase-iron-799"])
def synthesis_case(request):
    design, n_max = request.param
    src = fourier_coefficients(design, HarmonicTruncation(n_max))
    return design, line_table(design, solve_coefficients(design, src))


def _direct_phase_thrust(design, table, t, shifts):
    """Per-phase thrust by an explicit sum over harmonics, one complex
    exponential per line and shift."""
    at = np.zeros((design.N_ph, len(shifts)), dtype=complex)
    for n in range(len(table.nk)):
        at += table.lines[:, n, None] * np.exp(1j * table.nk[n] * shifts)
    return -8 * MU0 * design.L * all_phase_currents(design, t) * at.real


def _assert_close_to_scale(got, want, tol=1e-13):
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())


@pytest.mark.parametrize("nt", [24, 720])
def test_thrust_time_series_matches_direct_sum(synthesis_case, nt):
    # nt = 24 is below n_max, so harmonics alias onto shared FFT bins
    design, table = synthesis_case
    x_0 = 0.0113
    res = thrust_time_series(design, table, x_0, nt)
    want = _direct_phase_thrust(design, table, res.t, x_0 + design.u * res.t)
    _assert_close_to_scale(res.per_phase, want)
    _assert_close_to_scale(res.total, want.sum(axis=0))
    # the same times given one by one take the single-origin route
    single = thrust(design, table, res.t, x_0)
    _assert_close_to_scale(single.per_phase, res.per_phase)


@pytest.mark.parametrize("n_scan", [36, 360])
def test_force_angle_sweep_matches_direct_sum(synthesis_case, n_scan):
    design, table = synthesis_case
    x0s, totals = force_angle_sweep(design, table, n_scan)
    np.testing.assert_array_equal(x0s, np.arange(n_scan) * design.lam / n_scan)
    _assert_close_to_scale(totals, _direct_phase_thrust(design, table, 0.0, x0s)
                           .sum(axis=0))


def test_thrust_scalar_and_array_time_agree(table1, table):
    ts = np.array([0.0, 1.3e-3, 7.7e-3])
    batch = thrust(table1, table, ts, x_0=0.004)
    for j, t in enumerate(ts):
        single = thrust(table1, table, float(t), x_0=0.004)
        assert single.total[0] == pytest.approx(float(batch.total[j]), rel=1e-13)
        np.testing.assert_allclose(single.per_phase[:, 0], batch.per_phase[:, j],
                                   rtol=1e-13)


def test_thrust_against_field_quadrature(table1, coeffs, table):
    """Independent route: midpoint quadrature of J B_y over the coils."""
    t, x_0 = 1.3e-3, 0.004
    analytic = float(thrust(table1, table, t, x_0).total[0])
    quad = thrust_quadrature(table1, coeffs, t, x_0)
    assert abs(quad - analytic) < 1e-3 * abs(analytic)


@pytest.mark.parametrize("design", [MotorDesign(**TABLE1),
                                    MotorDesign(**TABLE1, N_ph=5, back_iron=True)],
                         ids=["table1", "5-phase-iron"])
def test_thrust_quadrature_tracks_closed_form(design):
    """With exact slot-cell averages the quadrature leaves only the smooth
    B_y sampling error, far below the 1e-3 bound above."""
    _, coeffs = _solved(design)
    table = line_table(design, coeffs)
    for t, x_0 in ((0.0, 0.03), (1.3e-3, 0.004), (7.7e-3, 0.031)):
        analytic = float(thrust(design, table, t, x_0).total[0])
        quad = thrust_quadrature(design, coeffs, t, x_0)
        assert abs(quad - analytic) < 1e-5 * abs(analytic), (t, x_0)


def test_thrust_quadrature_exact_when_harmonics_alias(table1):
    """Above n_max = _QUAD_NX the harmonics share FFT bins; the quadrature
    must still equal the direct double sum over the midpoint grid."""
    n_max = 9001
    assert n_max > _QUAD_NX
    coeffs = solve_coefficients(table1, fourier_coefficients(table1,
                                                             HarmonicTruncation(n_max)))
    t, x_0 = 1.3e-3, 0.004
    want = thrust_quadrature_direct(table1, coeffs, t, x_0)
    assert thrust_quadrature(table1, coeffs, t, x_0) == pytest.approx(want, rel=1e-13)


def test_thrust_quadrature_is_independent_of_the_line_table(table1, coeffs, monkeypatch):
    """The quadrature is the independent route to the thrust: it must not
    read the slot-window line table or its synthesis."""
    want = thrust_quadrature(table1, coeffs, 1.3e-3, 0.004)

    def forbidden(*args, **kwargs):
        raise AssertionError("thrust_quadrature reached the line table")

    monkeypatch.setattr(quantities, "line_table", forbidden)
    monkeypatch.setattr(quantities, "_synthesize", forbidden)
    assert thrust_quadrature(table1, coeffs, 1.3e-3, 0.004) == want


@pytest.mark.parametrize("n_max, bound_mib", [(199, 1), (3001, 8)])
def test_thrust_quadrature_memory(table1, n_max, bound_mib):
    """The x-sum is one FFT of the cell-averaged current, so no (8192, H)
    sine matrix is formed.  The direct double sum over that matrix peaks at
    12.8 MiB at n_max 199 and 190 MiB at 3001; this form at 0.6 and 4.6."""
    coeffs = solve_coefficients(table1, fourier_coefficients(table1,
                                                             HarmonicTruncation(n_max)))
    tracemalloc.start()
    try:
        thrust_quadrature(table1, coeffs, 1.3e-3, 0.004)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


def test_power_balance_is_machine_exact(table1, table):
    bal = power_balance(table1, table, x_0=0.004)
    assert bal.max_rel_dev < 1e-12
    assert bal.t.shape == bal.electrical.shape == bal.mechanical.shape == (720,)


def test_power_balance_requires_motion():
    frozen = MotorDesign(**TABLE1, f=0.0)
    table = _table(frozen)
    with pytest.raises(ZeroVelocity):
        power_balance(frozen, table)


def test_emf_is_flux_linkage_derivative(table1, table):
    ts = np.linspace(0.0, 1 / table1.f, 25)
    dt = 1e-9
    e = back_emf(table1, table, ts)
    lo = back_emf(table1, table, ts - dt).flux_linkage
    hi = back_emf(table1, table, ts + dt).flux_linkage
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
    table = line_table(design, coeffs)
    closed = np.stack([back_emf(design, table, t, x_0).flux_linkage[:, 0]
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


@pytest.mark.parametrize("n_ph", [3, 5])
@pytest.mark.parametrize("nt", [24, 720])
def test_emf_time_series_matches_per_sample_route(n_ph, nt):
    design = MotorDesign(**TABLE1, N_ph=n_ph, back_iron=True)
    table = _table(design)
    x_0 = 0.0113
    grid = emf_time_series(design, table, x_0, nt)
    ts = period_grid(design, nt)
    each = back_emf(design, table, ts, x_0)
    np.testing.assert_array_equal(grid.t, ts)
    np.testing.assert_array_equal(grid.current, each.current)
    for got, want in ((grid.flux_linkage, each.flux_linkage), (grid.emf, each.emf)):
        for m in range(n_ph):
            _assert_close_to_scale(got[m], want[m])


def test_emf_peak_frozen(table1, table):
    e = back_emf(table1, table, np.arange(720) / (720 * table1.f))
    assert np.abs(e.emf).max() == pytest.approx(EMF_PEAK, rel=1e-12)
    assert e.flux_linkage.shape == e.emf.shape == e.current.shape == (3, 720)


def test_emf_thd_equal_across_phases(table):
    thd = emf_thd(table)
    assert thd.shape == (3,)
    np.testing.assert_allclose(thd, THD, rtol=1e-12)


@pytest.mark.parametrize("back_iron", [False, True])
@pytest.mark.parametrize("n_ph", [3, 5])
def test_emf_thd_matches_sampled_spectrum(back_iron, n_ph):
    # 4096 samples resolve every line up to n_max = 199 without aliasing
    design = dataclasses.replace(make_case(2, back_iron), N_ph=n_ph)
    table = _table(design)
    nt = 4096
    e = back_emf(design, table, np.arange(nt) / (nt * design.f), x_0=0.003)
    spectrum = np.abs(np.fft.rfft(e.emf, axis=1))
    want = np.sqrt((spectrum[:, 2:] ** 2).sum(axis=1)) / spectrum[:, 1]
    np.testing.assert_allclose(emf_thd(table), want, rtol=1e-12)


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
    res = thrust_time_series(dead, _table(dead), x_0=0.03)
    assert res.mean == 0.0
    assert res.ripple_pct == 0.0
    np.testing.assert_array_equal(res.total, 0.0)
