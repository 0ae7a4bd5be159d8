"""Acceptance gate: ten go/no-go checks, one printed verdict line each.

Every test prints "PASS criterion-NN: ..." or "FAIL criterion-NN: ..."
directly to the terminal (bypassing capture) so the scoreboard shows up
in a plain pytest run, then asserts both the check and its runtime
budget.
"""
import dataclasses
import json
import time

import numpy as np
import pytest

from halmotor import cli, verify
from halmotor.config import MU0, HarmonicTruncation, MotorDesign
from halmotor.halbach import fourier_coefficients
from halmotor.laplace import (airgap_B_y, closed_form_coefficients,
                              dense_coefficients, solve_coefficients)
from halmotor.quantities import (attraction_force, back_emf, line_table,
                                 misalignment_force, power_balance,
                                 thrust_time_series)
from halmotor.studio import ObjectiveConfig, StageSpec, sweep

from conftest import ALL_CASES, make_case
from references import midgap_convergence
from test_cli import _flip_dense_row
from test_halbach import _quad_coefficient


def _report(capsys, num: int, ok: bool, elapsed: float, budget: float,
            detail: str) -> None:
    ok = ok and elapsed < budget
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n{status} criterion-{num:02d}: {detail} "
              f"[{elapsed:.2f} s / budget {budget:.0f} s]")
    assert ok, f"criterion-{num:02d}: {detail}"


def _solved(design):
    src = fourier_coefficients(design, HarmonicTruncation())
    return src, solve_coefficients(design, src)


def test_criterion_01_source_quadrature(capsys):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for n_m in (2, 3, 4, 5):
        design = make_case(n_m, False)
        src = fourier_coefficients(design, HarmonicTruncation(19))
        for i, n in enumerate(src.n):
            for closed, scale, which in (
                    (src.k_n[i], design.M, 0),
                    (src.sigma_n[i], MU0 * design.M, 1)):
                ref = _quad_coefficient(design, int(n), which)
                if abs(ref) > 1e-6 * scale:
                    rel = abs(closed - ref) / abs(ref)
                    worst = max(worst, rel)
                    ok = ok and rel <= 1e-10
                else:
                    ok = ok and abs(closed) < 1e-9 * scale
    _report(capsys, 1, ok, time.perf_counter() - start, 1.0,
            f"step sums vs adaptive quadrature, N_m 2..5, odd n <= 19: "
            f"worst rel {worst:.2e} (tol 1e-10)")


def _closed_vs_dense_worst(closed_form=closed_form_coefficients) -> float:
    """Worst per-column deviation of the closed form from the dense solve."""
    worst = 0.0
    for n_m, back_iron in ALL_CASES:
        design = make_case(n_m, back_iron)
        src = fourier_coefficients(design, HarmonicTruncation())
        dense = dense_coefficients(design, src)
        closed = closed_form(design, src)
        for name in ("x1", "x2", "x3", "x4", "x5"):
            a, b = getattr(dense, name), getattr(closed, name)
            if a is None:
                continue
            scale = max(float(np.abs(b).max()), 1e-300)
            worst = max(worst, float(np.abs(a - b).max()) / scale)
    return worst


def test_criterion_02_closed_vs_dense(capsys):
    start = time.perf_counter()
    worst = _closed_vs_dense_worst()
    _report(capsys, 2, worst <= 1e-10, time.perf_counter() - start, 1.0,
            f"closed-form vs dense coefficients, 8 cases: "
            f"worst rel {worst:.2e} (tol 1e-10)")


@pytest.mark.parametrize("route", ["dense", "closed"])
def test_criterion_02_fails_under_a_planted_fault(route, monkeypatch):
    # a sign error in either route alone fails the criterion
    closed_form = closed_form_coefficients
    if route == "dense":
        _flip_dense_row(monkeypatch)   # the fault ledger's closed-vs-dense row
    else:
        def closed_form(design, src):
            coeffs = closed_form_coefficients(design, src)
            return dataclasses.replace(coeffs, x3=-coeffs.x3)

    assert _closed_vs_dense_worst(closed_form) > 1e-10


def test_criterion_03_tri_model_equality(capsys):
    start = time.perf_counter()
    worst_map = 0.0
    worst_field = 0.0
    ok = True
    for n_m, back_iron in ALL_CASES:
        design = make_case(n_m, back_iron)
        src, coeffs = _solved(design)
        maps, fields = verify.check_tri_model(design, src, coeffs)
        worst_map = max(worst_map, maps.margin * verify.TOL_MAP)
        worst_field = max(worst_field, fields.margin * verify.TOL_FIELDS)
        ok = ok and maps.passed and fields.passed
    _report(capsys, 3, ok, time.perf_counter() - start, 5.0,
            f"three formulations, 200 random points x 8 cases: "
            f"worst field dev {worst_field:.2e} (tol 1e-10), "
            f"worst map dev {worst_map:.2e} (tol 1e-12)")


def test_criterion_04_interface_conditions(capsys):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for n_m, back_iron in ALL_CASES:
        design = make_case(n_m, back_iron)
        src, coeffs = _solved(design)
        res = verify.check_interface_jumps(design, src, coeffs)
        worst = max(worst, res.margin * verify.TOL_JUMPS)
        ok = ok and res.passed
    _report(capsys, 4, ok, time.perf_counter() - start, 5.0,
            f"continuity and jump conditions, 256-point faces, 8 cases: "
            f"worst dev {worst:.2e} of local max (tol 1e-6)")


def test_criterion_05_fd_oracle(capsys):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for n_m, back_iron in ALL_CASES:
        design = make_case(n_m, back_iron)
        _, coeffs = _solved(design)
        res = verify.check_fd_midgap(design, coeffs, 1024, 512)
        worst = max(worst, res.margin * verify.TOL_FD)
        ok = ok and res.passed
    ratios = []
    for design in (make_case(2, False), make_case(3, True)):
        errs = [e for _, _, e in midgap_convergence(design)]
        ratios += [c / f for c, f in zip(errs, errs[1:])]
    ok = ok and all(2.5 < r < 6.0 for r in ratios)
    _report(capsys, 5, ok, time.perf_counter() - start, 120.0,
            f"FD mid-airgap B_y at 1024x512, 8 cases: worst rel "
            f"{worst:.2e} (tol 3e-2); refinement ratios "
            f"{', '.join(f'{r:.2f}' for r in ratios)} (want ~4)")


def test_criterion_06_power_balance(capsys):
    start = time.perf_counter()
    worst = 0.0
    for back_iron in (False, True):
        design = make_case(2, back_iron)
        _, coeffs = _solved(design)
        pb = power_balance(design, line_table(design, coeffs), x_0=design.lam / 8,
                           nt=720)
        worst = max(worst, pb.max_rel_dev)
    _report(capsys, 6, worst <= 1e-9, time.perf_counter() - start, 1.0,
            f"sum(E_m I_m) vs u F_t over 720 samples: "
            f"worst rel dev {worst:.2e} (tol 1e-9)")


def test_criterion_07_emf_derivative(capsys):
    start = time.perf_counter()
    design = make_case(2, False)
    table = line_table(design, _solved(design)[1])
    ts = np.arange(720) / (720 * design.f)
    dt = 1e-9
    e = back_emf(design, table, ts)
    hi = back_emf(design, table, ts + dt).flux_linkage
    lo = back_emf(design, table, ts - dt).flux_linkage
    dev = float(np.abs((hi - lo) / (2 * dt) - e.emf).max())
    rel = dev / float(np.abs(e.emf).max())
    _report(capsys, 7, rel <= 1e-4, time.perf_counter() - start, 1.0,
            f"closed-form EMF vs numerical d(lambda)/dt at 720 samples: "
            f"worst {100 * rel:.2e} % of peak (tol 0.01 %)")


def test_criterion_08_attraction_and_misalignment(capsys):
    start = time.perf_counter()
    design = make_case(2, False)
    _, coeffs = _solved(design)
    closed = attraction_force(design, coeffs)
    nx = 4096
    xs = np.arange(nx) * design.lam / nx
    by = airgap_B_y(design, coeffs, xs, 0.0)
    quad = float((by ** 2).sum() / (2 * MU0)) * design.lam / nx * design.L
    rel = abs(quad - closed) / abs(closed)
    ok = rel <= 1e-6
    zero = misalignment_force(design, g_0=0.0)
    ok = ok and zero.net == 0.0
    nets = []
    for g0 in (1e-4, 2e-4, 3e-4):
        net = misalignment_force(design, g_0=g0).net
        nets.append(net)
        ok = ok and net > 0.0
    _report(capsys, 8, ok, time.perf_counter() - start, 5.0,
            f"stress-tensor pull vs trapezoid quadrature: rel {rel:.2e} "
            f"(tol 1e-6); net pull 0 at g_0 = 0 and "
            f"{', '.join(f'{n:.2f}' for n in nets)} N toward the smaller "
            f"gap at 0.1/0.2/0.3 mm")


def test_criterion_09_segmentation_trends(capsys):
    start = time.perf_counter()
    means = {}
    ripples = {}
    for back_iron in (False, True):
        for n_m in (2, 3, 4, 5):
            design = make_case(n_m, back_iron)
            res = thrust_time_series(design, line_table(design, _solved(design)[1]),
                                     x_0=0.03)
            means[n_m, back_iron] = res.mean
            ripples[n_m, back_iron] = res.ripple_pct
    open_means = [means[n, False] for n in (2, 3, 4, 5)]
    ok = all(a <= b for a, b in zip(open_means, open_means[1:]))
    ok = ok and ripples[2, False] >= ripples[5, False]
    reductions = [100 * (means[n, True] - means[n, False]) / means[n, True]
                  for n in (2, 3, 4, 5)]
    ok = ok and all(0.5 <= r <= 8.0 for r in reductions)
    _report(capsys, 9, ok, time.perf_counter() - start, 30.0,
            f"peak mean force rises with N_m "
            f"({', '.join(f'{m:.2f}' for m in open_means)} N); ripple "
            f"{ripples[2, False]:.2f} % (N_m=2) >= {ripples[5, False]:.2f} % "
            f"(N_m=5); back-iron removal costs "
            f"{reductions[0]:.6f} % (window 0.5..8 %)")


def test_criterion_10_optimizer_sanity(capsys, tmp_path, config_path):
    start = time.perf_counter()
    design = make_case(2, False)
    stage = StageSpec()
    lo, hi = 1e-3, 12e-3
    lattice = lo + (hi - lo) / 32 * np.arange(33)
    best = {}
    ok = True
    for beta in (0.2, 0.3):
        out = tmp_path / f"beta{beta}"
        rc = cli.main(["optimize", "--config", str(config_path),
                       "--out", str(out), "--bounds", f"h_c={lo}:{hi}",
                       "--beta", str(beta)])
        ok = ok and rc == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        best[beta] = summary["best_point"]["h_c"]
        dense = sweep(design, stage, ObjectiveConfig(beta=beta),
                      {"h_c": lattice})
        ok = ok and abs(best[beta] - dense.best_point["h_c"]) < 1e-15
        ok = ok and summary["best_score"] == pytest.approx(dense.best_score,
                                                           rel=1e-12)
    ok = ok and best[0.3] <= best[0.2]
    _report(capsys, 10, ok, time.perf_counter() - start, 120.0,
            f"optimal h_c {1e3 * best[0.3]:.4f} mm at beta = 0.3 <= "
            f"{1e3 * best[0.2]:.4f} mm at beta = 0.2; both match the dense "
            f"33-point lattice argmax")
