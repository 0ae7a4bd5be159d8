"""Runtime self-checks: every redundant route the package carries, compared.

Each check returns a CheckResult whose margin is value / tolerance, so
anything at or below 1 passes.  The closed-form coefficients that every
command uses are compared with a dense solve of the equilibrated rows,
and the boundary-row check deliberately replays them through the raw
single-harmonic assembly instead: a sign error planted in any of the
three statements of the systems is caught by a disagreement.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import laplace
from .config import MU0, HarmonicTruncation, MotorDesign
from .errors import UnresolvedGrid
from .halbach import fourier_coefficients, reconstruct_profiles
from .poisson import evaluate_fields_vector, solve_vector, vector_from_hybrid
from .quantities import line_table, power_balance

TOL_CLOSED = 1e-10
TOL_MAP = 1e-12
TOL_FIELDS = 1e-10
TOL_ROWS = 1e-9
TOL_JUMPS = 1e-6
TOL_POWER = 1e-9
TOL_FD = 0.03

# The boundary-row replay forms the raw amplitudes, e.g. A2 = x3 e^-b with
# b = nk (g_e + h_m).  Only harmonics with b up to this bound are replayed:
# beyond it a raw amplitude can leave the normal float64 range and its lost
# digits read as a false row residual.
REPLAY_MAX_EXPONENT = 600.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


def _result(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    margin = value / tol
    tail = f" [{detail}]" if detail else ""
    return CheckResult(name, margin <= 1.0, margin,
                       f"value {value:.3e} vs tol {tol:.1e}{tail}")


def _case_tag(design: MotorDesign) -> str:
    return f"N_m={design.N_m} {'iron' if design.back_iron else 'open'}"


def check_closed_vs_dense(design: MotorDesign, src, coeffs) -> CheckResult:
    """Compare the stored closed-form columns with the dense solve of the
    same systems, in stack scale."""
    dense = laplace.dense_coefficients(design, src).stack()
    scale = float(np.abs(dense).max())
    dev = float(np.abs(coeffs.stack() - dense).max()) / scale
    return _result(f"closed-vs-dense {_case_tag(design)}", dev, TOL_CLOSED)


def check_tri_model(design: MotorDesign, src, coeffs,
                    n_points: int = 200, seed: int = 2024) -> list[CheckResult]:
    """The vector-potential solve against the hybrid one: its coefficients
    against the exact map of the hybrid set, and its fields at random points.

    The scalar-Poisson route is derived from the hybrid solve (same
    coefficients, same B and H), so only the vector route can disagree.
    """
    vector = solve_vector(design, src)
    scale = float(np.abs(coeffs.stack()).max())
    dev_map = float(np.abs(vector.stack() - vector_from_hybrid(coeffs).stack()).max()
                    / (MU0 * scale))
    tag = _case_tag(design)
    out = [_result(f"tri-model maps {tag}", dev_map, TOL_MAP)]

    rng = np.random.default_rng(seed)
    y_top = design.g_e + design.h_m
    y_max = y_top if design.back_iron else 1.8 * y_top
    # row-major (x, y) pairs: the same draws as one x, then one y, per point;
    # the y margins shrink with the stack, so a sub-micron one has room too
    pts = rng.uniform((0.0, min(1e-6, 0.01 * y_max)),
                      (design.lam, y_max - min(1e-9, 1e-5 * y_max)), (n_points, 2))
    regions = np.array([laplace.classify_region(design, y) for y in pts[:, 1]])
    worst = 0.0
    for region in set(regions.tolist()):
        sel = pts[regions == region]
        x, y = sel[:, :1], sel[:, 1:]
        ref = laplace.evaluate_fields(design, src, coeffs, x, y, region)
        got = evaluate_fields_vector(design, src, vector, x, y, region)
        b_scale = np.maximum(np.maximum(np.abs(ref.B_x), np.abs(ref.B_y)), 1e-3)
        h_scale = b_scale / MU0
        for comp, norm in (("B_x", b_scale), ("B_y", b_scale),
                           ("H_x", h_scale), ("H_y", h_scale)):
            dev = np.abs(getattr(got, comp) - getattr(ref, comp)) / norm
            worst = max(worst, float(dev.max()))
    out.append(_result(f"tri-model fields {tag}", worst, TOL_FIELDS,
                       f"{n_points} points"))
    return out


def check_boundary_rows(design: MotorDesign, src, coeffs) -> CheckResult:
    """Replay solved coefficients, un-scaled, through the raw assembly."""
    stacked = coeffs.stack()
    worst = 0.0
    replayed = 0
    for i, n in enumerate(coeffs.n):
        nk = int(n) * design.k
        a = nk * design.g_e
        b = nk * (design.g_e + design.h_m)
        if b > REPLAY_MAX_EXPONENT:
            continue
        replayed += 1
        scales = [math.exp(-a), 1.0, math.exp(-b), math.exp(a), math.exp(b)]
        raw = stacked[i] * scales[:stacked.shape[1]]
        A, rhs = laplace.assemble_system(design, src, int(n))
        nb = float(np.linalg.norm(rhs))
        if nb == 0:
            continue
        res = float(np.linalg.norm(A @ raw - rhs)) / nb
        worst = max(worst, res)
    return _result(f"boundary-rows {_case_tag(design)}", worst, TOL_ROWS,
                   f"{replayed} of {len(coeffs.n)} harmonics replayed")


def check_interface_jumps(design: MotorDesign, src, coeffs,
                          nx: int = 256) -> CheckResult:
    """Physical continuity and jump conditions at the two array faces.

    At each face the outside region (I below, III above) and region II
    limits must give continuous B_y and H_x, a B_x step of mu0 K_m, and an
    H_y step of sigma_m / mu0, each against the truncated reconstructions.
    With back iron the top face instead requires the true H_x to vanish.
    Deviations are normalized by the largest magnitude of that component
    seen along the face.
    """
    xs = np.arange(nx) * design.lam / nx
    km, sm = reconstruct_profiles(src, design.k, xs)
    xc = xs[:, None]
    faces = [(design.g_e, "I")]
    if not design.back_iron:
        faces.append((design.g_e + design.h_m, "III"))
    worst = 0.0
    for y, outside in faces:
        lo = laplace.evaluate_fields(design, src, coeffs, xc, y, region="II")
        hi = laplace.evaluate_fields(design, src, coeffs, xc, y, region=outside)
        s_by = max(np.abs(lo.B_y).max(), np.abs(hi.B_y).max())
        s_hx = max(np.abs(lo.H_x).max(), np.abs(hi.H_x).max(), design.M * 1e-3)
        s_bx = max(np.abs(lo.B_x).max(), np.abs(hi.B_x).max(), MU0 * design.M * 1e-3)
        s_hy = max(np.abs(lo.H_y).max(), np.abs(hi.H_y).max())
        worst = max(
            worst,
            float(np.abs(hi.B_y - lo.B_y).max()) / s_by,
            float(np.abs(hi.H_x - lo.H_x).max()) / s_hx,
            float(np.abs(hi.B_x - lo.B_x - MU0 * km).max()) / s_bx,
            float(np.abs(lo.H_y - hi.H_y - sm / MU0).max()) / s_hy,
        )
    if design.back_iron:
        y = design.g_e + design.h_m
        hx = laplace.evaluate_fields(design, src, coeffs, xc, y, region="II").H_x
        worst = max(worst, float(np.abs(hx).max()) / design.M)
    return _result(f"interface-jumps {_case_tag(design)}", worst, TOL_JUMPS,
                   f"{nx}-point line")


def check_power_balance(design: MotorDesign, coeffs) -> CheckResult:
    pb = power_balance(design, line_table(design, coeffs), x_0=design.lam / 8)
    return _result(f"power-balance {_case_tag(design)}", pb.max_rel_dev, TOL_POWER)


def check_fd_midgap(design: MotorDesign, coeffs, nx: int = 1024,
                    ny: int = 512) -> CheckResult:
    """FD mid-gap B_y against the series.  A design whose array the fixed
    grid cannot resolve fails on the cell height over the array height."""
    from .fdcheck import midgap_comparison, solve_scalar_poisson

    name = f"fd-midgap {_case_tag(design)}"
    try:
        grid = solve_scalar_poisson(design, nx, ny)
    except UnresolvedGrid as exc:
        return _result(name, 1 / exc.cells, 1 / exc.needed,
                       f"{nx}x{ny} grid has {exc.cells:.1f} cells across the "
                       f"array height, needs {exc.needed}; --skip-fd skips this check")
    rep = midgap_comparison(design, grid, coeffs)
    return _result(name, rep.max_rel_err, TOL_FD,
                   f"{nx}x{ny}, residual {grid.residual:.1e}")


def verify_design(design: MotorDesign, trunc: HarmonicTruncation | None = None,
                  skip_fd: bool = False) -> list[CheckResult]:
    """All self-checks for one design point."""
    trunc = trunc or HarmonicTruncation()
    src = fourier_coefficients(design, trunc)
    coeffs = laplace.solve_coefficients(design, src)
    results = [check_closed_vs_dense(design, src, coeffs)]
    results += check_tri_model(design, src, coeffs)
    results.append(check_boundary_rows(design, src, coeffs))
    results.append(check_interface_jumps(design, src, coeffs))
    results.append(check_power_balance(design, coeffs))
    if not skip_fd:
        results.append(check_fd_midgap(design, coeffs))
    return results


def verify_suite(design: MotorDesign, trunc: HarmonicTruncation | None = None,
                 skip_fd: bool = False) -> list[CheckResult]:
    """The full suite: the config's geometry swept over N_m 2..5 and both
    topologies."""
    results = []
    for back_iron in (False, True):
        for n_m in (2, 3, 4, 5):
            d = dataclasses.replace(design, N_m=n_m, back_iron=back_iron)
            results += verify_design(d, trunc, skip_fd)
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: margin {r.margin:.2e} ({r.detail})")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
