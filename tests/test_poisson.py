"""Alternative-formulation tests: the three models must agree everywhere."""

import dataclasses
import math

import numpy as np
import pytest

from halmotor import laplace, poisson, verify
from halmotor.config import MU0, HarmonicTruncation
from halmotor.halbach import fourier_coefficients
from halmotor.laplace import evaluate_fields, solve_coefficients
from halmotor.poisson import (
    MODEL_SCALAR,
    MODEL_VECTOR,
    evaluate_fields_scalar,
    evaluate_fields_vector,
    solve_scalar,
    solve_vector,
    vector_from_hybrid,
)

from conftest import ALL_CASES, make_case


# Map comparisons normalize by the largest stack entry: entries near the
# solve's noise floor contribute nothing to any field and two equivalent
# formulations may round them differently.


@pytest.mark.parametrize("n_m, back_iron", ALL_CASES)
def test_scalar_solve_matches_hybrid(n_m, back_iron, trunc):
    design = make_case(n_m, back_iron)
    src = fourier_coefficients(design, trunc)
    hybrid = solve_coefficients(design, src)
    scalar = solve_scalar(design, src)
    scale = np.abs(hybrid.stack()).max()
    assert np.abs(scalar.stack() - hybrid.stack()).max() < 1e-12 * scale


@pytest.mark.parametrize("n_m, back_iron", ALL_CASES)
def test_vector_solve_matches_mapped_hybrid(n_m, back_iron, trunc):
    design = make_case(n_m, back_iron)
    src = fourier_coefficients(design, trunc)
    vec = solve_vector(design, src)
    mapped = vector_from_hybrid(solve_coefficients(design, src))
    scale = np.abs(mapped.stack()).max()
    assert np.abs(vec.stack() - mapped.stack()).max() < 1e-12 * scale


@pytest.mark.parametrize("n_m, back_iron", ALL_CASES)
def test_tri_model_fields_agree(n_m, back_iron, trunc):
    design = make_case(n_m, back_iron)
    src = fourier_coefficients(design, trunc)
    routes = [
        (solve_coefficients(design, src), evaluate_fields),
        (solve_scalar(design, src), evaluate_fields_scalar),
        (solve_vector(design, src), evaluate_fields_vector),
    ]
    rng = np.random.default_rng(41 + n_m)
    top = design.g_e + design.h_m
    xs = rng.uniform(0, design.lam, 50)
    ys = rng.uniform(1e-6, top * (1.0 if back_iron else 1.4), 50)
    for x, y in zip(xs, ys):
        samples = [ev(design, src, c, float(x), float(y)) for c, ev in routes]
        b_scale = max(max(abs(s.B_x), abs(s.B_y)) for s in samples)
        h_scale = max(max(abs(s.H_x), abs(s.H_y)) for s in samples)
        for comp in ("B_x", "B_y", "H_x", "H_y"):
            vals = np.array([getattr(s, comp) for s in samples])
            scale = max(b_scale if comp.startswith("B") else h_scale, 1e-30)
            assert np.abs(vals - vals[0]).max() < 1e-10 * scale, comp


@pytest.mark.parametrize("back_iron", [False, True])
def test_array_evaluation_matches_points(back_iron, trunc):
    design = make_case(3, back_iron)
    src = fourier_coefficients(design, trunc)
    routes = [
        (solve_coefficients(design, src), evaluate_fields),
        (solve_scalar(design, src), evaluate_fields_scalar),
        (solve_vector(design, src), evaluate_fields_vector),
    ]
    top = design.g_e + design.h_m
    heights = {"I": [0.0, 0.4 * design.g_e, design.g_e],
               "II": [design.g_e, design.g_e + 0.3 * design.h_m, top]}
    if not back_iron:
        heights["III"] = [top, 1.2 * top, 2.0 * top]
    rng = np.random.default_rng(3)
    for region, ys in heights.items():
        xs = rng.uniform(0, design.lam, (len(ys), 1))
        # a column of heights, and one face height along a column of x
        for y in (np.array(ys)[:, None], ys[-1]):
            ys_col = np.broadcast_to(y, xs.shape)
            points = list(zip(xs[:, 0].tolist(), ys_col[:, 0].tolist()))
            for coeffs, ev in routes:
                col = ev(design, src, coeffs, xs, y, region)
                for i, (x, yi) in enumerate(points):
                    pt = ev(design, src, coeffs, x, yi, region)
                    for comp in ("B_x", "B_y", "H_x", "H_y", "psi", "A_z"):
                        want = getattr(pt, comp)
                        if want is None:
                            assert getattr(col, comp) is None
                        else:
                            assert getattr(col, comp)[i] == want, comp


def _routes(design, src):
    return [(solve_coefficients(design, src), evaluate_fields),
            (solve_scalar(design, src), evaluate_fields_scalar),
            (solve_vector(design, src), evaluate_fields_vector)]


def _assert_same(sample, column, i):
    """Every field of a point sample equals entry i of a column sample,
    bit for bit, and both leave the same potential undefined."""
    for comp in laplace.MAP_FIELDS:
        want = getattr(sample, comp)
        if want is None:
            assert getattr(column, comp) is None, comp
        else:
            assert getattr(column, comp)[i] == want, comp


@pytest.mark.parametrize("back_iron", [False, True])
def test_interleaved_point_calls_match_columns(back_iron, trunc):
    """Point calls that alternate heights and force both one-sided regions
    at y = g_e get each call's own weights, outside a map and inside one,
    where the map's rows sit at g_e in region II."""
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    g, mid = design.g_e, design.g_e + 0.5 * design.h_m
    calls = [(g, "I"), (g, "II"), (0.4 * g, None), (g, "II"), (g, "I"),
             (mid, None), (g, "I")]
    xs = np.random.default_rng(11).uniform(0, design.lam, (len(calls), 1))
    for coeffs, ev in _routes(design, src):
        for i, (y, region) in enumerate(calls):
            _assert_same(ev(design, src, coeffs, xs[i, 0].item(), y, region),
                         ev(design, src, coeffs, xs, y, region), i)
        below = []

        def both_sides(design, source, coeffs, x, y, region):
            below.append(ev(design, source, coeffs, x, y, "I"))
            return ev(design, source, coeffs, x, y, region)

        fmap = laplace.field_map(design, src, coeffs, xs[:, 0], [g, g], both_sides)
        assert fmap.region == ("II", "II")
        col_i, col_ii = (ev(design, src, coeffs, xs, g, r) for r in ("I", "II"))
        for i in range(len(xs)):
            for k in (i, len(xs) + i):
                _assert_same(below[k], col_i, i)
            for j in (0, 1):
                sample = [getattr(fmap, c)[j, i] for c in laplace.MAP_FIELDS]
                for got, want in zip(sample, col_ii):
                    if want is None:
                        assert np.isnan(got)
                    else:
                        assert got == want[i]
        assert not np.isclose(col_i.B_x, col_ii.B_x).any()   # B_x jumps at g_e


@pytest.mark.parametrize("changed", ["coeffs", "source", "design"])
@pytest.mark.parametrize("back_iron", [False, True])
def test_map_reuse_keeps_evaluation_sets_apart(back_iron, trunc, changed):
    """An evaluator that evaluates two sets of (design, source, coeffs) at
    every map point, the sets differing in one object, gets each set's own
    fields: the height reuse is keyed on all three objects."""
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    top = design.g_e + design.h_m
    ys = [0.5 * design.g_e, design.g_e + 0.5 * design.h_m, top]
    if not back_iron:
        ys.append(1.5 * top)
    xs = [0.0, 0.013, 0.027]
    for coeffs, ev in _routes(design, src):
        other = {"design": design, "source": src, "coeffs": coeffs}
        other[changed] = {
            "coeffs": lambda: dataclasses.replace(coeffs, x3=-coeffs.x3),
            "source": lambda: dataclasses.replace(src, k_n=2 * src.k_n,
                                                  sigma_n=2 * src.sigma_n),
            "design": lambda: dataclasses.replace(design, h_m=1.1 * design.h_m),
        }[changed]()
        seen = []

        def two_sets(design, source, coeffs, x, y, region):
            seen.append(ev(*other.values(), x, y, region))
            return ev(design, source, coeffs, x, y, region)

        fmap = laplace.field_map(design, src, coeffs, xs, ys, two_sets)
        points = [(x, y, r) for y, r in zip(ys, fmap.region) for x in xs]
        for k, (x, y, region) in enumerate(points):
            want = ev(design, src, coeffs, x, y, region)
            assert seen[k] == ev(*other.values(), x, y, region)
            assert fmap.B_x.ravel()[k] == want.B_x
            assert fmap.H_x.ravel()[k] == want.H_x
        # the sets differ in region II, so a leak either way would show
        k = len(xs) + 1
        assert seen[k].H_x != fmap.H_x.ravel()[k]


def _field_terms(design, src, coeffs, model, x, y, region):
    """Each field's per-harmonic terms, stated apart from the evaluators:
    a field is the sum of its term arrays, taken over the harmonic (last)
    axis; a potential the model does not define is None."""
    _, nk, P, Q = laplace._region_terms(design, coeffs, y, region)
    P = np.broadcast_to(P, np.shape(Q))   # region III has no growing term
    s, c = np.sin(nk * x), np.cos(nk * x)
    total = P + Q
    inside = region == "II"
    mx, my = ([-src.M_xn * c], [-src.M_yn * s]) if inside else ([], [])
    if model == MODEL_VECTOR:
        bx, by, az = [nk * (P - Q) * c], [nk * total * s], [total * c]
        if inside:
            by.append(MU0 * src.M_yn * s)
            az.append(MU0 * src.M_yn / nk * c)
        return {"B_x": bx, "B_y": by, "psi": None, "A_z": az,
                "H_x": [t / MU0 for t in bx] + mx, "H_y": [t / MU0 for t in by] + my}
    hx, hy, psi = [-nk * total * c], [nk * (Q - P) * s], [total * s]
    by = [MU0 * t for t in hy]
    if inside:
        by.append(MU0 * src.M_yn * s)
        if model == MODEL_SCALAR:
            psi.append(src.M_xn / nk * s)
    return {"B_x": [MU0 * t for t in hx], "B_y": by, "psi": psi, "A_z": None,
            "H_x": hx + mx, "H_y": hy}


@pytest.mark.parametrize("back_iron", [False, True])
def test_field_sums_round_within_a_few_ulps(back_iron, trunc):
    """Each field of each evaluator, at points and along columns, equals the
    exactly rounded sum (math.fsum) of its per-harmonic terms to within
    1e-15 of their absolute sum: only the order of summation may differ.
    Dropping the fundamental or the top harmonic from a sum moves it far
    outside that bound; the face heights keep the top harmonic undamped."""
    design = make_case(3, back_iron)
    src = fourier_coefficients(design, trunc)
    routes = [
        (solve_coefficients(design, src), evaluate_fields, "laplace"),
        (solve_scalar(design, src), evaluate_fields_scalar, MODEL_SCALAR),
        (solve_vector(design, src), evaluate_fields_vector, MODEL_VECTOR),
    ]
    top = design.g_e + design.h_m
    heights = {"I": [0.0, 0.3 * design.g_e, design.g_e],
               "II": [design.g_e, design.g_e + 0.6 * design.h_m, top]}
    if not back_iron:
        heights["III"] = [top, 1.3 * top]
    rng = np.random.default_rng(5)
    for region, ys in heights.items():
        xs = rng.uniform(0, design.lam, (len(ys), 1))
        for coeffs, ev, model in routes:
            col = ev(design, src, coeffs, xs, np.array(ys)[:, None], region)
            for i, (x, y) in enumerate(zip(xs[:, 0].tolist(), ys)):
                pt = ev(design, src, coeffs, x, y, region)
                terms = _field_terms(design, src, coeffs, model, x, y, region)
                for comp, parts in terms.items():
                    if parts is None:
                        continue
                    flat = np.concatenate([np.broadcast_to(p, src.n.shape)
                                           for p in parts]).tolist()
                    want = math.fsum(flat)
                    bound = 1e-15 * math.fsum(map(abs, flat))
                    for got in (getattr(pt, comp), getattr(col, comp)[i]):
                        assert abs(got - want) <= bound, (model, region, comp, y)


def test_scalar_region_two_psi_is_one_sum(table1, source):
    """Region-II psi of the scalar route adds the particular term M_xn / nk
    to each harmonic's coefficient before the one sum.  Summed apart, the
    hybrid and particular series each reach several times the band's
    largest |psi| and cancel, which on this 256x128 map leaves 2.3e-15 of
    it in rounding; as one sum it stays under 8e-16."""
    coeffs = solve_scalar(table1, source)
    nx, ny = 256, 128
    xs = (np.arange(nx) * table1.lam / nx)[:, None]
    got, want = [], []
    for y in np.linspace(0.0, table1.g_e + table1.h_m, ny).tolist():
        if laplace.classify_region(table1, y) != "II":
            continue
        got.append(evaluate_fields_scalar(table1, source, coeffs, xs, y, "II").psi)
        parts = _field_terms(table1, source, coeffs, MODEL_SCALAR, xs, y, "II")["psi"]
        want.append([math.fsum(r) for r in np.concatenate(parts, axis=1).tolist()])
    got, want = np.array(got), np.array(want)
    assert np.abs(got - want).max() <= 1.5e-15 * np.abs(want).max()


def test_vector_region_two_az_is_one_sum(table1, source):
    """Region-II A_z of the vector route adds the particular term
    mu0 M_yn / nk to each harmonic's coefficient before the one sum; on
    this 256x128 map it then stays within 1e-15 of the band's largest
    |A_z| of the exactly rounded sum (5.2e-16; summed apart, 7.7e-16)."""
    coeffs = solve_vector(table1, source)
    nx, ny = 256, 128
    xs = (np.arange(nx) * table1.lam / nx)[:, None]
    got, want = [], []
    for y in np.linspace(0.0, table1.g_e + table1.h_m, ny).tolist():
        if laplace.classify_region(table1, y) != "II":
            continue
        got.append(evaluate_fields_vector(table1, source, coeffs, xs, y, "II").A_z)
        parts = _field_terms(table1, source, coeffs, MODEL_VECTOR, xs, y, "II")["A_z"]
        want.append([math.fsum(r) for r in np.concatenate(parts, axis=1).tolist()])
    got, want = np.array(got), np.array(want)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_potentials_populated_per_model(table1, source):
    hybrid = solve_coefficients(table1, source)
    scalar = solve_scalar(table1, source)
    vec = solve_vector(table1, source)
    x, y = 0.007, 0.002
    s_h = evaluate_fields(table1, source, hybrid, x, y)
    s_s = evaluate_fields_scalar(table1, source, scalar, x, y)
    s_v = evaluate_fields_vector(table1, source, vec, x, y)
    assert s_h.psi is not None and s_h.A_z is None
    assert s_s.psi is not None and s_s.A_z is None
    assert s_v.A_z is not None and s_v.psi is None


@pytest.mark.parametrize("point", [(0.019, 0.0023), (0.013, 0.0235)])
def test_vector_potential_derivatives(table1, source, point):
    """B must be the curl of A_z: B_x = dA/dy, B_y = -dA/dx.

    A plain central difference with step lam/4096 carries a truncation
    error of roughly (n*k*h)**2/6 per harmonic, a few 1e-7 of the local
    field, so the curl identity is checked against the field magnitude.
    """
    vec = solve_vector(table1, source)
    x, y = point
    h = table1.lam / 4096

    def az(px, py):
        return evaluate_fields_vector(table1, source, vec, px, py).A_z

    sample = evaluate_fields_vector(table1, source, vec, x, y)
    mag = np.hypot(sample.B_x, sample.B_y)
    bx_num = (az(x, y + h) - az(x, y - h)) / (2 * h)
    by_num = -(az(x + h, y) - az(x - h, y)) / (2 * h)
    assert abs(bx_num - sample.B_x) < 1e-6 * mag
    assert abs(by_num - sample.B_y) < 1e-6 * mag


def test_curl_identity_richardson(table1, source):
    """Richardson-extrapolated differences pin the curl down to ~1e-9.

    Points stay in the gap and above the array: inside the magnets the
    harmonic series converges too slowly for finite differences to reach
    this tolerance (the exact cross-model maps cover that region).
    """
    vec = solve_vector(table1, source)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, table1.lam, 10)
    ys = np.concatenate([
        rng.uniform(2e-4, table1.g_e - 5e-4, 7),
        rng.uniform(table1.g_e + table1.h_m + 2e-3, 0.03, 3),
    ])
    h = table1.lam / 4096

    def az(px, py):
        return evaluate_fields_vector(table1, source, vec, px, py).A_z

    def deriv(f, t, step):
        coarse = (f(t + step) - f(t - step)) / (2 * step)
        fine = (f(t + step / 2) - f(t - step / 2)) / step
        return (4 * fine - coarse) / 3

    for x, y in zip(xs, ys):
        sample = evaluate_fields_vector(table1, source, vec, x, y)
        mag = np.hypot(sample.B_x, sample.B_y)
        bx_num = deriv(lambda t: az(x, t), y, h)
        by_num = -deriv(lambda t: az(t, y), x, h)
        assert abs(bx_num - sample.B_x) < 1e-9 * mag
        assert abs(by_num - sample.B_y) < 1e-9 * mag


def test_vector_map_scaling(coeffs):
    mapped = vector_from_hybrid(coeffs)
    # the x1 (A1) column flips sign and gains a mu0; x5 (B3) keeps its sign
    np.testing.assert_allclose(mapped.x1, -MU0 * coeffs.x1, rtol=1e-15)
    np.testing.assert_allclose(mapped.x2, MU0 * coeffs.x2, rtol=1e-15)
    np.testing.assert_allclose(mapped.x5, MU0 * coeffs.x5, rtol=1e-15)


@pytest.mark.parametrize("back_iron", [False, True])
def test_flipped_vector_row_fails_the_maps_check(back_iron, trunc, monkeypatch):
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    coeffs = solve_coefficients(design, src)
    maps, _ = verify.check_tri_model(design, src, coeffs, n_points=20)
    assert maps.passed
    original = poisson._rows_vector

    def flipped(design, nk, x):
        rows = original(design, nk, x)
        return [rows[0], -rows[1], *rows[2:]]   # the B_y row, whose rhs is nonzero

    monkeypatch.setattr(poisson, "_rows_vector", flipped)
    maps, _ = verify.check_tri_model(design, src, coeffs, n_points=20)
    assert not maps.passed


@pytest.mark.parametrize("back_iron", [False, True])
def test_hybrid_row_fault_does_not_reach_the_vector_solve(back_iron, trunc,
                                                          monkeypatch):
    # the vector route states its own rows, so it stays an independent check
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    clean = solve_vector(design, src).stack()
    original = laplace._rows

    def flipped(design, nk, x):
        rows = original(design, nk, x)
        return [rows[0], -rows[1], *rows[2:]]

    def no_system(*args):
        raise AssertionError("the vector solve used the hybrid system")

    monkeypatch.setattr(laplace, "_rows", flipped)
    monkeypatch.setattr(laplace, "_scaled_system", no_system)
    assert np.array_equal(solve_vector(design, src).stack(), clean)
