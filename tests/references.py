"""Test-side references: quantities that only the tests compute.

The runtime FD oracle is `fdcheck.solve_scalar_poisson` plus
`fdcheck.midgap_comparison`.  What the tests add on top of its solved
grid lives here:

- the full face arrays of the deposited magnetization, from the grid's
  1-D factors;
- the conservative face fluxes and the net B flux through a box of cells;
- node fields from central differences;
- the Lorentz-force quadrature against the closed-form thrust, with the
  slot currents deposited as exact cell averages of
  `config.slot_current_profile`;
- the mid-gap error over three grid levels, for convergence checks;
- `quantities.thrust_quadrature` as the direct double sum over its
  midpoint grid, the reference for its one-FFT form.

It also holds a second statement of the magnet-block rule, as a point
lookup of the block index, against which `halbach.magnetization_steps`
is checked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from halmotor.config import MU0, HarmonicTruncation, MotorDesign, slot_current_profile
from halmotor.fdcheck import (FdGrid, _band_fraction, midgap_comparison,
                              solve_scalar_poisson)
from halmotor.halbach import fourier_coefficients, magnetization_steps
from halmotor.laplace import FieldCoefficients, _region_terms, solve_coefficients
from halmotor.quantities import _QUAD_NX, _QUAD_NY, thrust


@dataclass(frozen=True)
class FdFieldMap:
    """Node-sampled fields: H from central differences, B = mu0 (H + M)."""

    H_x: np.ndarray
    H_y: np.ndarray
    B_x: np.ndarray
    B_y: np.ndarray


@dataclass(frozen=True)
class ForceCheck:
    """FD Lorentz-force quadrature against the closed-form thrust."""

    f_fd: float
    f_analytic: float
    rel_gap: float


def mx_face(grid: FdGrid) -> np.ndarray:
    """M_x on the x-faces, (nx, ny+1)."""
    return grid.mx_x[:, None] * grid.mx_y[None, :]


def my_face(grid: FdGrid) -> np.ndarray:
    """M_y on the y-faces, (nx, ny)."""
    return grid.my_x[:, None] * grid.my_y[None, :]


def fd_fields(design: MotorDesign, grid: FdGrid) -> FdFieldMap:
    """Node fields; H_y is one-sided (second order) on the two walls."""
    psi, dx, dy = grid.psi, grid.dx, grid.dy
    H_x = -(np.roll(psi, -1, 0) - np.roll(psi, 1, 0)) / (2 * dx)
    H_y = np.empty_like(psi)
    H_y[:, 1:-1] = -(psi[:, 2:] - psi[:, :-2]) / (2 * dy)
    H_y[:, 0] = -(-3 * psi[:, 0] + 4 * psi[:, 1] - psi[:, 2]) / (2 * dy)
    H_y[:, -1] = (-3 * psi[:, -1] + 4 * psi[:, -2] - psi[:, -3]) / (2 * dy)

    ge = design.g_e
    top = ge + design.h_m
    m_x, m_y = magnetization_steps(design)
    xi = np.arange(grid.nx) * dx
    ax = m_x.average(xi - dx / 2, xi + dx / 2)
    ay = m_y.average(xi - dx / 2, xi + dx / 2)
    yj = np.arange(grid.ny + 1) * dy
    fy_mx = _band_fraction(yj, dy, ge, top)
    fy_my = _band_fraction(yj, dy, ge, np.inf if design.back_iron else top)
    M_x = ax[:, None] * fy_mx[None, :]
    M_y = ay[:, None] * fy_my[None, :]
    return FdFieldMap(H_x, H_y, MU0 * (H_x + M_x), MU0 * (H_y + M_y))


def face_fluxes(grid: FdGrid) -> tuple[np.ndarray, np.ndarray]:
    """Conservative face-normal B: x-faces (nx, ny+1), y-faces (nx, ny)."""
    psi = grid.psi
    bx = MU0 * (-(np.roll(psi, -1, 0) - psi) / grid.dx + mx_face(grid))
    by = MU0 * (-(psi[:, 1:] - psi[:, :-1]) / grid.dy + my_face(grid))
    return bx, by


def box_flux(grid: FdGrid, i0: int, i1: int, j0: int, j1: int) -> tuple[float, float]:
    """Net outward B flux through the rectangle of cells [i0..i1] x [j0..j1]
    (interior rows only), with the boundary flux magnitude for scale."""
    if not (1 <= j0 <= j1 <= grid.ny - 1):
        raise ValueError("rectangle must sit on interior rows")
    bxf, byf = face_fluxes(grid)
    right = bxf[i1, j0:j1 + 1]
    left = bxf[(i0 - 1) % grid.nx, j0:j1 + 1]
    topf = byf[i0:i1 + 1, j1]
    botf = byf[i0:i1 + 1, j0 - 1]
    net = (right.sum() - left.sum()) * grid.dy + (topf.sum() - botf.sum()) * grid.dx
    scale = (np.abs(right).sum() + np.abs(left).sum()) * grid.dy \
        + (np.abs(topf).sum() + np.abs(botf).sum()) * grid.dx
    return float(net), float(scale)


def fd_force_check(design: MotorDesign, grid: FdGrid, coeffs: FieldCoefficients,
                   t: float = 0.0, x_0: float = 0.0) -> ForceCheck:
    """Lorentz quadrature of J B_y over the coil band on the FD grid.

    The y integral telescopes exactly: with psi = 0 on the stator face and
    M_y = 0 below the array, int_0^h_c B_y dy = -mu0 psi(x, h_c).  Only
    the x quadrature (exact slot cell averages against the row integral)
    and a cubic interpolation of psi at y = h_c remain, so the gap against
    thrust() is dominated by the solution's own O(h^2) error.  Doubled for
    the two airgaps; compares against the closed-form thrust.
    """
    shift = design.u * float(t) + x_0
    xi = np.arange(grid.nx) * grid.dx
    jbar = slot_current_profile(design, t, shift).average(xi - grid.dx / 2,
                                                          xi + grid.dx / 2)
    psi_hc = _interp_rows(grid.psi, design.h_c / grid.dy, grid.ny)
    f_fd = 2 * design.L * float((jbar * (-MU0 * psi_hc)).sum()) * grid.dx
    f_an = float(thrust(design, coeffs, t, x_0).total[0])
    return ForceCheck(f_fd, f_an, abs(f_fd - f_an) / max(abs(f_an), 1e-30))


def _interp_rows(psi: np.ndarray, jq: float, ny: int) -> np.ndarray:
    """Cubic Lagrange interpolation of node rows at fractional row jq."""
    s = int(np.clip(np.floor(jq) - 1, 0, ny - 3))
    js = np.arange(s, s + 4)
    w = np.ones(4)
    for a in range(4):
        for b in range(4):
            if a != b:
                w[a] *= (jq - js[b]) / (js[a] - js[b])
    return psi[:, s:s + 4] @ w


def convergence_levels(design: MotorDesign) -> tuple[tuple[int, int], ...]:
    """Three grid levels that keep >= 16 cells across the array height."""
    if design.back_iron:
        return ((256, 128), (512, 256), (1024, 512))
    return ((256, 304), (512, 608), (1024, 1216))


def midgap_convergence(design: MotorDesign) -> list[tuple[int, int, float]]:
    """Mid-airgap error at the convergence levels, for convergence checks."""
    coeffs = solve_coefficients(design, fourier_coefficients(
        design, HarmonicTruncation()))
    out = []
    for nx, ny in convergence_levels(design):
        grid = solve_scalar_poisson(design, nx, ny)
        rep = midgap_comparison(design, grid, coeffs)
        out.append((nx, ny, rep.max_rel_err))
    return out


def _block_index(theta: np.ndarray, N_m: int) -> np.ndarray:
    dth = np.pi / N_m
    return np.floor((theta - np.pi / 2) / dth + 0.5).astype(int)


def source_profiles(design: MotorDesign, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise source profiles K_m(x) and sigma_m(x)."""
    theta = design.k * np.asarray(x, dtype=float)
    i = _block_index(theta, design.N_m)
    return (-design.M * np.sin(i * design.dtheta),
            -MU0 * design.M * np.cos(i * design.dtheta))


def magnetization_profiles(design: MotorDesign, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise M_x(x), M_y(x) inside the magnet band."""
    K, sig = source_profiles(design, x)
    return -K, -sig / MU0


def thrust_quadrature_direct(design: MotorDesign, coeffs: FieldCoefficients,
                             t: float, x_0: float = 0.0, chunk: int = 128) -> float:
    """`quantities.thrust_quadrature` as the direct double sum: B_y at every
    midpoint of the _QUAD_NX by _QUAD_NY grid from the sine of each
    harmonic's phase, weighted by the exact cell averages of the slot
    current.  Chunked over x, so n_max 9001 peaks near 13 MiB."""
    nx, ny = _QUAD_NX, _QUAD_NY
    dx = design.lam / nx
    xs = (np.arange(nx) + 0.5) * dx
    ys = (np.arange(ny) + 0.5) * design.h_c / ny
    Jx = slot_current_profile(design, t).average(xs - dx / 2, xs + dx / 2)
    shift = design.u * float(t) + x_0
    _, nk, P, Q = _region_terms(design, coeffs, ys[:, None], "I")
    weights = (-MU0 * nk * (P - Q)).T                       # (H, ny)
    del P, Q
    total = 0.0
    for i0 in range(0, nx, chunk):
        rows = slice(i0, i0 + chunk)
        By = np.sin(np.outer(xs[rows] - shift, nk)) @ weights
        total += float((Jx[rows, None] * By).sum())
    return 2 * design.L * total * dx * (design.h_c / ny)
