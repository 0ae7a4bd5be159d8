"""Layer-coefficient solver tests: closed forms, spot values, domains."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halmotor import laplace
from halmotor.config import HarmonicTruncation, MotorDesign
from halmotor.errors import OutOfDomain, SingularSystem
from halmotor.halbach import fourier_coefficients
from halmotor.laplace import (
    airgap_B_y,
    assemble_system,
    classify_region,
    closed_form_coefficients,
    dense_coefficients,
    evaluate_fields,
    field_map,
    solve_coefficients,
    _batch_solve,
)

from conftest import ALL_CASES, TABLE1, make_case

# frozen reference values for the N_m=2 open design, n_max=199
A1_FUNDAMENTAL = -1650.3924013363176
B_AT_PROBE = (0.1932702172583409, 0.518220640117677)
PEAK_MIDGAP_BY = 0.6619180256766782


@pytest.mark.parametrize("n_m, back_iron", ALL_CASES)
def test_closed_forms_match_dense_solve(n_m, back_iron, trunc):
    design = make_case(n_m, back_iron)
    src = fourier_coefficients(design, trunc)
    dense = dense_coefficients(design, src)
    closed = closed_form_coefficients(design, src)
    for name in ("x1", "x2", "x3", "x4", "x5"):
        a, b = getattr(dense, name), getattr(closed, name)
        if a is None:
            assert b is None
            continue
        scale = np.maximum(np.abs(b).max(axis=0), 1e-300)
        np.testing.assert_array_less(np.abs(a - b) / scale, 1e-10)


# admissible designs: wavelengths of 5-200 mm over layers of 0.1-30 mm
DESIGNS = st.builds(
    MotorDesign, lam=st.floats(5e-3, 0.2), g=st.floats(1e-4, 5e-3),
    h_c=st.floats(5e-4, 0.02), h_m=st.floats(5e-4, 0.03), L=st.just(0.04),
    N_m=st.integers(2, 5), N_ph=st.sampled_from([3, 5]), back_iron=st.booleans())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(design=DESIGNS, n_max=st.integers(0, 1500).map(lambda h: 2 * h + 1))
def test_production_solve_matches_dense_on_drawn_designs(design, n_max):
    src = fourier_coefficients(design, HarmonicTruncation(n_max))
    got = solve_coefficients(design, src).stack()
    want = dense_coefficients(design, src).stack()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_residual_contract_refuses_a_wrong_closed_form(table1, source, monkeypatch):
    original = laplace.closed_form_coefficients

    def flipped(design, src):
        coeffs = original(design, src)
        return dataclasses.replace(coeffs, x4=-coeffs.x4)

    monkeypatch.setattr(laplace, "closed_form_coefficients", flipped)
    with pytest.raises(SingularSystem, match="residual"):
        solve_coefficients(table1, source)


def test_back_iron_closed_form_keeps_digits_on_thin_layers():
    # nk (g_e + h_m) = 2e-6 at the fundamental: written as 1 - e^-x, the
    # differences lost enough digits to break the residual contract
    design = MotorDesign(lam=10.0, g=1e-6, h_c=1e-6, h_m=1e-6, L=0.04, N_m=2,
                         back_iron=True)
    coeffs = solve_coefficients(design, fourier_coefficients(design,
                                                             HarmonicTruncation(9)))
    assert np.isfinite(coeffs.stack()).all()


def _mp_solve(design, source):
    """(H, 5) open-back or (H, 4) back-iron unknowns from a 60-digit solve
    of the equilibrated rows (`laplace._rows`), with the same float nk, S
    and K as the closed form."""
    nk, S, K = laplace._sources(design, source)
    out = []
    with mpmath.workdps(60):
        for nki, s, k in zip(nk.tolist(), S.tolist(), K.tolist()):
            ea = mpmath.exp(-mpmath.mpf(nki) * mpmath.mpf(design.g_e))
            ed = mpmath.exp(-mpmath.mpf(nki) * mpmath.mpf(design.h_m))
            if design.back_iron:
                A = mpmath.matrix([[ea, 1, 0, 0],
                                   [1, -ea, -ed, 1],
                                   [-1, -ea, ed, 1],
                                   [0, 0, -1, -ed]])
                rhs = [0, s, k, -k]
            else:
                A = mpmath.matrix([[ea, 1, 0, 0, 0],
                                   [1, -ea, -ed, 1, 0],
                                   [-1, -ea, ed, 1, 0],
                                   [0, 0, 1, -ed, 1],
                                   [0, 0, -1, -ed, 1]])
                rhs = [0, s, k, -s, -k]
            out.append(list(mpmath.lu_solve(A, mpmath.matrix(rhs))))
    return out


def _worst_relative_error(design, trunc) -> float:
    """The closed form's worst relative error over every unknown of every
    harmonic, against `_mp_solve`."""
    source = fourier_coefficients(design, trunc)
    got = closed_form_coefficients(design, source).stack()
    worst = 0.0
    for row, ref in zip(got, _mp_solve(design, source)):
        for value, exact in zip(row.tolist(), ref):
            err = abs(mpmath.mpf(value) - exact)
            worst = max(worst, float(err / abs(exact)) if exact else float(err))
    return worst


@pytest.mark.parametrize("n_m", [2, 5])
@pytest.mark.parametrize("h_m", [7e-3, 1e-6, 1e-9])
def test_open_back_closed_form_matches_exact_solve(n_m, h_m, trunc):
    """Each open-back unknown keeps its own relative accuracy: thin magnets
    (1 - e^{-nk h_m} without expm1) and harmonics where S + K nearly
    cancels (n = 29 on table1) lost up to all of x1, x4 or x5."""
    design = MotorDesign(**TABLE1 | {"N_m": n_m, "h_m": h_m})
    assert _worst_relative_error(design, trunc) <= 1e-13


@pytest.mark.parametrize("n_m", [2, 5])
@pytest.mark.parametrize("h_m", [7e-3, 1e-6, 1e-9])
def test_back_iron_closed_form_matches_exact_solve(n_m, h_m, trunc):
    """Each back-iron unknown keeps its own relative accuracy: summed from
    S and K terms instead of S + K and S - K, x1 lost 2.4e-2 at n = 31 on
    table1, x4 2.0e-2 with h_m = 1 um and x3 4.6e-11 with h_m = 1 nm."""
    design = MotorDesign(**TABLE1 | {"N_m": n_m, "h_m": h_m}, back_iron=True)
    assert _worst_relative_error(design, trunc) <= 1e-13


def test_frozen_spot_values(table1, source, coeffs):
    A1 = coeffs.x1[0] * math.exp(-table1.k * table1.g_e)
    assert A1 == pytest.approx(A1_FUNDAMENTAL, rel=1e-12)
    sample = evaluate_fields(table1, source, coeffs, table1.lam / 8,
                             table1.g_e / 2)
    assert sample.B_x == pytest.approx(B_AT_PROBE[0], rel=1e-12)
    assert sample.B_y == pytest.approx(B_AT_PROBE[1], rel=1e-12)
    xs = np.linspace(0, table1.lam, 4096, endpoint=False)
    peak = np.abs(airgap_B_y(table1, coeffs, xs, table1.g_e / 2)).max()
    assert peak == pytest.approx(PEAK_MIDGAP_BY, rel=1e-12)


def test_airgap_profile_matches_pointwise(table1, source, coeffs):
    xs = np.array([0.003, 0.011, 0.024])
    y = 0.7 * table1.g_e
    fast = airgap_B_y(table1, coeffs, xs, y)
    slow = [evaluate_fields(table1, source, coeffs, float(x), y).B_y
            for x in xs]
    np.testing.assert_allclose(fast, slow, rtol=1e-13)
    with pytest.raises(OutOfDomain):
        airgap_B_y(table1, coeffs, xs, table1.g_e * 1.01)


@pytest.mark.parametrize("back_iron", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_airgap_profile_refuses_non_finite_x(back_iron, bad, trunc):
    # the FD mid-gap comparison's route once returned NaN for a NaN x, and
    # raised FloatingPointError for +-inf under errstate
    design = make_case(2, back_iron)
    coeffs = solve_coefficients(design, fourier_coefficients(design, trunc))
    for errstate in ({}, {"invalid": "raise"}):
        with np.errstate(**errstate):
            for x in (np.array([0.01, bad]), bad, np.float64(bad)):
                with pytest.raises(OutOfDomain, match=rf"^x = {bad} .*\(not finite\)$"):
                    airgap_B_y(design, coeffs, x, 0.5 * design.g_e)


def test_region_classification(table1, table1_iron):
    assert classify_region(table1, 0.0) == "I"
    assert classify_region(table1, table1.g_e - 1e-9) == "I"
    assert classify_region(table1, table1.g_e) == "II"
    top = table1.g_e + table1.h_m
    assert classify_region(table1, top) == "II"
    assert classify_region(table1, top + 0.01) == "III"
    with pytest.raises(OutOfDomain):
        classify_region(table1, -1e-9)
    with pytest.raises(OutOfDomain):
        classify_region(table1_iron, top + 1e-9)


@pytest.mark.parametrize("back_iron", [False, True])
def test_nan_height_is_out_of_domain(back_iron, trunc):
    # a NaN compares false with every face, which once read as region III
    # (or "beyond the back iron") and gave NaN samples without an error
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    coeffs = solve_coefficients(design, src)
    with pytest.raises(OutOfDomain, match=r"^--ymax = nan .*\(not a number\)$"):
        classify_region(design, math.nan, "--ymax")
    for call in (lambda: classify_region(design, math.nan),
                 lambda: evaluate_fields(design, src, coeffs, 0.01, math.nan),
                 lambda: field_map(design, src, coeffs, [0.0, 0.01],
                                   [0.5 * design.g_e, math.nan])):
        with pytest.raises(OutOfDomain, match=r"^y = nan .*\(not a number\)$"):
            call()


def test_open_field_decays_above_array(table1, source, coeffs):
    top = table1.g_e + table1.h_m
    mags = [abs(evaluate_fields(table1, source, coeffs, 0.013, top + dy).B_y)
            for dy in (0.001, 0.01, 0.05)]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 1e-3 * mags[0]


@pytest.mark.filterwarnings("error")
def test_short_wavelength_keeps_every_harmonic():
    # a short wavelength puts nk(g_e + h_m) in the thousands at modest n,
    # far past where raw amplitudes overflow float64
    design = MotorDesign(**TABLE1 | {"lam": 0.002})
    trunc = HarmonicTruncation(199)
    src = fourier_coefficients(design, trunc)
    coeffs = solve_coefficients(design, src)
    assert coeffs.n[-1] * design.k * (design.g_e + design.h_m) > 5000
    np.testing.assert_array_equal(coeffs.n, trunc.orders)
    assert np.isfinite(coeffs.stack()).all()
    sample = evaluate_fields(design, src, coeffs, design.lam / 8,
                             design.g_e / 2)
    assert np.isfinite(sample.B_y)


def test_active_prefix_matches_orders(coeffs, trunc):
    np.testing.assert_array_equal(coeffs.n, trunc.orders)
    assert coeffs.stack().shape == (len(trunc.orders), 5)


def test_raw_rows_are_satisfied_by_solution(table1, source, coeffs):
    # replay the raw boundary-condition rows with the un-scaled solution
    for i in (0, 2, 9):
        n = int(source.n[i])
        A, rhs = assemble_system(table1, source, n)
        a = n * table1.k * table1.g_e
        b = n * table1.k * (table1.g_e + table1.h_m)
        scales = np.exp([-a, 0.0, -b, a, b])
        x = coeffs.stack()[i] * scales
        scale = np.abs(A * x).max()
        assert np.abs(A @ x - rhs).max() < 1e-9 * max(scale, 1e-30)


def test_singular_system_raises():
    A = np.array([[[1.0, 1.0], [1.0, 1.0]]])
    rhs = np.array([[1.0, 2.0]])
    with pytest.raises(SingularSystem):
        _batch_solve(A, rhs)


def test_field_map_row_major(table1, source, coeffs):
    xs = np.array([0.0, 0.01])
    ys = np.array([0.001, 0.003, 0.009])
    fmap = field_map(table1, source, coeffs, xs, ys)
    assert fmap.x.tolist() == [0.0, 0.01]
    assert fmap.y.tolist() == [0.001, 0.003, 0.009]
    assert fmap.region == ("I", "I", "II")
    for name in laplace.MAP_FIELDS:
        a = getattr(fmap, name)
        assert a.shape == (3, 2) and a.flags.c_contiguous and not a.flags.writeable
    assert np.isnan(fmap.A_z).all()  # the hybrid model has no vector potential
    # entry [j, i] is the point (xs[i], ys[j]), so ravel() lists rows in turn
    points = [(x, y) for y in ys for x in xs]
    for k, (x, y) in enumerate(points):
        s = evaluate_fields(table1, source, coeffs, x, y)
        assert fmap.region[k // 2] == classify_region(table1, y)
        for name in ("B_x", "B_y", "H_x", "H_y", "psi"):
            assert getattr(fmap, name).ravel()[k] == getattr(s, name), (name, k)


@pytest.mark.parametrize("back_iron", [False, True])
def test_field_map_gives_the_evaluator_each_rows_region(back_iron, trunc):
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    coeffs = solve_coefficients(design, src)
    calls = []

    def recording(design, source, coeffs, x, y, region):
        calls.append((x, y, region))
        return evaluate_fields(design, source, coeffs, x, y, region)

    top = design.g_e + design.h_m
    ys = [0.0, 0.5 * design.g_e, design.g_e, design.g_e + 0.5 * design.h_m, top]
    if not back_iron:
        ys.append(1.5 * top)
    xs = [0.0, 0.013, 0.027]
    fmap = field_map(design, src, coeffs, np.array(xs), np.array(ys), recording)
    assert calls == [(x, y, classify_region(design, y)) for y in ys for x in xs]
    assert fmap.region == tuple(classify_region(design, y) for y in ys)


def test_field_map_checks_every_row_before_evaluating(table1_iron, trunc):
    src = fourier_coefficients(table1_iron, trunc)
    coeffs = solve_coefficients(table1_iron, src)
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate_fields(*args)

    top = table1_iron.g_e + table1_iron.h_m
    with pytest.raises(OutOfDomain, match="beyond the back iron"):
        field_map(table1_iron, src, coeffs, np.array([0.0, 0.01]),
                  np.array([0.0, top, 1.5 * top]), counting)
    assert calls == []


def test_field_map_memory_per_point(table1, source, coeffs):
    """A map holds its six fields in one float block, not one object per
    point: the traced peak stays near the 48 bytes per point of that block
    (a list of one FieldSample per point peaked at about 280)."""
    nx = ny = 64
    xs = np.arange(nx) * table1.lam / nx
    ys = np.linspace(0.0, table1.g_e + table1.h_m, ny)
    tracemalloc.start()
    try:
        fmap = field_map(table1, source, coeffs, xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (nx * ny) <= 150
    assert fmap.B_y.shape == (ny, nx)


def test_iron_drops_outer_coefficient(table1_iron, trunc):
    src = fourier_coefficients(table1_iron, trunc)
    coeffs = solve_coefficients(table1_iron, src)
    assert coeffs.x5 is None
    assert coeffs.back_iron
    stacked = coeffs.stack()
    assert stacked.shape == (len(src.n), 4)
