"""Independent finite-difference check on the analytic field solution.

Solves the scalar-potential Poisson problem div grad psi = div M on a
regular grid: periodic in x over one wavelength, psi = 0 on the stator
face and on the top boundary (the iron wall, or a far-field line three
wavelengths above the array when there is no back iron).

The source is deposited in flux form: M is averaged exactly over the dual
cells around each face (the piecewise-constant profile makes the averages
exact), and the right-hand side is the compact divergence of those face
values.  That keeps the discrete problem conservative, so the net B flux
through any interior rectangle vanishes to solver tolerance, and the
sheet sources at the array faces land on the grid with their dipole
moments intact, which preserves second-order convergence.

The linear system is solved directly (FFT across x, tridiagonal sweeps in
y); the residual contract is checked after the fact.  With back iron the
M_y band is extended through the wall: the iron face is an equipotential,
and stopping the band there would plant a spurious half-sheet on the
boundary row.

The Lorentz-force check deposits the slot currents the same way, as exact
cell averages of `config.slot_current_profile`, which also owns the slot
layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MU0, HarmonicTruncation, MotorDesign, slot_current_profile
from .errors import NoConvergence
from .halbach import fourier_coefficients, magnetization_steps
from .laplace import FieldCoefficients, airgap_B_y, solve_coefficients

_RESIDUAL_CONTRACT = 1e-10
_MIN_CELLS_PER_ARRAY = 16
_PAD_WAVELENGTHS = 3.0     # open-back top boundary above the array


@dataclass(frozen=True)
class FdGrid:
    """Solved grid: psi on nodes (nx, ny+1), face magnetization, residual."""

    nx: int
    ny: int
    dx: float
    dy: float
    y_max: float
    back_iron: bool
    psi: np.ndarray
    mx_face: np.ndarray
    my_face: np.ndarray
    residual: float


@dataclass(frozen=True)
class FdFieldMap:
    """Node-sampled fields: H from central differences, B = mu0 (H + M)."""

    H_x: np.ndarray
    H_y: np.ndarray
    B_x: np.ndarray
    B_y: np.ndarray


@dataclass(frozen=True)
class MidgapReport:
    """FD versus analytic B_y along the mid-airgap row."""

    y: float
    b_fd: np.ndarray
    b_analytic: np.ndarray
    max_rel_err: float


@dataclass(frozen=True)
class ForceCheck:
    """FD Lorentz-force quadrature against the closed-form thrust."""

    f_fd: float
    f_analytic: float
    rel_gap: float


def _band_fraction(y_centers: np.ndarray, dy: float, lo: float,
                   hi: float) -> np.ndarray:
    """Overlap fraction of cells [y - dy/2, y + dy/2] with [lo, hi]."""
    a = np.maximum(y_centers - dy / 2, lo)
    b = np.minimum(y_centers + dy / 2, hi)
    return np.clip(b - a, 0.0, None) / dy


def solve_scalar_poisson(design: MotorDesign, nx: int = 1024,
                         ny: int = 512) -> FdGrid:
    """Direct solve of the 5-point system; raises NoConvergence if the
    relative residual exceeds 1e-10 of the source norm."""
    ge = design.g_e
    top = ge + design.h_m
    y_max = top if design.back_iron else top + _PAD_WAVELENGTHS * design.lam
    dx = design.lam / nx
    dy = y_max / ny
    if design.h_m / dy < _MIN_CELLS_PER_ARRAY:
        raise ValueError(
            f"grid must resolve the array height with >= {_MIN_CELLS_PER_ARRAY} "
            f"cells; got {design.h_m / dy:.1f}")

    m_x, m_y = magnetization_steps(design)
    xi = np.arange(nx) * dx
    ay = m_y.average(xi - dx / 2, xi + dx / 2)
    fx = m_x.average(xi, xi + dx)

    yj = np.arange(ny + 1) * dy
    fy_node = _band_fraction(yj, dy, ge, top)
    hi_my = np.inf if design.back_iron else top
    phi = _band_fraction(yj[:-1] + dy / 2, dy, ge, hi_my)

    mx_face = fx[:, None] * fy_node[None, :]
    my_face = ay[:, None] * phi[None, :]
    rhs = ((mx_face - np.roll(mx_face, 1, axis=0))[:, 1:ny] / dx
           + (my_face[:, 1:] - my_face[:, :-1]) / dy)

    # Thomas sweep over the ny - 1 interior rows, one x mode per column
    r_hat = np.fft.rfft(rhs.T, axis=1)
    m = np.arange(nx // 2 + 1)
    diag = -2 / dy ** 2 - (2 - 2 * np.cos(2 * np.pi * m / nx)) / dx ** 2
    off = 1 / dy ** 2
    nj = ny - 1
    cp = np.zeros((nj, len(m)))
    dp = np.zeros((nj, len(m)), dtype=complex)
    cp[0] = off / diag
    dp[0] = r_hat[0] / diag
    for j in range(1, nj):
        denom = diag - off * cp[j - 1]
        cp[j] = off / denom
        dp[j] = (r_hat[j] - off * dp[j - 1]) / denom
    psi_hat = np.zeros((nj, len(m)), dtype=complex)
    psi_hat[-1] = dp[-1]
    for j in range(nj - 2, -1, -1):
        psi_hat[j] = dp[j] - cp[j] * psi_hat[j + 1]
    psi = np.zeros((nx, ny + 1))
    psi[:, 1:ny] = np.fft.irfft(psi_hat, n=nx, axis=1).T

    lap = ((np.roll(psi, -1, 0) - 2 * psi + np.roll(psi, 1, 0))[:, 1:ny] / dx ** 2
           + (psi[:, 2:] - 2 * psi[:, 1:ny] + psi[:, :-2]) / dy ** 2)
    res = float(np.linalg.norm(lap - rhs) / np.linalg.norm(rhs))
    if res > _RESIDUAL_CONTRACT:
        raise NoConvergence(f"final residual {res:.3e} exceeds {_RESIDUAL_CONTRACT:g}")
    return FdGrid(nx, ny, dx, dy, y_max, design.back_iron, psi,
                  mx_face, my_face, res)


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
    bx = MU0 * (-(np.roll(psi, -1, 0) - psi) / grid.dx + grid.mx_face)
    by = MU0 * (-(psi[:, 1:] - psi[:, :-1]) / grid.dy + grid.my_face)
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


def midgap_comparison(design: MotorDesign, grid: FdGrid,
                      coeffs: FieldCoefficients) -> MidgapReport:
    """FD B_y along the row nearest g_e/2 against the analytic series."""
    jstar = round((design.g_e / 2) / grid.dy)
    ystar = jstar * grid.dy
    psi = grid.psi
    b_fd = -MU0 * (psi[:, jstar + 1] - psi[:, jstar - 1]) / (2 * grid.dy)
    xs = np.arange(grid.nx) * grid.dx
    b_an = airgap_B_y(design, coeffs, xs, ystar)
    err = float(np.abs(b_fd - b_an).max() / np.abs(b_an).max())
    return MidgapReport(ystar, b_fd, b_an, err)


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
    from .quantities import thrust

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
