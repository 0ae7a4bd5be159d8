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

The face values factor into an x profile times a y band fraction, so the
right-hand side has rank two and `FdGrid` keeps only the 1-D factors (the
face arrays are built on demand).  The linear system is solved directly:
the x transform of the source is a rank-two product of two 1-D FFTs, a
real-valued Thomas sweep solves each x mode in y, and one inverse FFT per
y row gives psi row-major, (ny+1, nx), handed out as its (nx, ny+1)
transpose view.  The residual contract is checked after the fact, in
blocks of rows, against the same factors.  With back iron the M_y band
is extended through the wall: the iron face is an equipotential, and
stopping the band there would plant a spurious half-sheet on the
boundary row.

The Lorentz-force check deposits the slot currents the same way, as exact
cell averages of `config.slot_current_profile`, which also owns the slot
layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MU0, HarmonicTruncation, MotorDesign, slot_current_profile
from .errors import NoConvergence, UnresolvedGrid
from .halbach import fourier_coefficients, magnetization_steps
from .laplace import FieldCoefficients, airgap_B_y, solve_coefficients

_RESIDUAL_CONTRACT = 1e-10
_MIN_CELLS_PER_ARRAY = 16
_PAD_WAVELENGTHS = 3.0     # open-back top boundary above the array
_RESIDUAL_BLOCK = 32       # rows: a block of 32 x 1024 floats stays in cache


@dataclass(frozen=True)
class FdGrid:
    """Solved grid: psi on nodes (nx, ny+1), the face magnetization as its
    1-D factors, residual."""

    nx: int
    ny: int
    dx: float
    dy: float
    y_max: float
    back_iron: bool
    psi: np.ndarray
    mx_x: np.ndarray    # M_x on the x-faces is mx_x (nx,) times mx_y (ny+1,)
    mx_y: np.ndarray
    my_x: np.ndarray    # M_y on the y-faces is my_x (nx,) times my_y (ny,)
    my_y: np.ndarray
    residual: float

    @property
    def mx_face(self) -> np.ndarray:
        return self.mx_x[:, None] * self.mx_y[None, :]

    @property
    def my_face(self) -> np.ndarray:
        return self.my_x[:, None] * self.my_y[None, :]


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
        raise UnresolvedGrid(design.h_m / dy, _MIN_CELLS_PER_ARRAY)

    m_x, m_y = magnetization_steps(design)
    xi = np.arange(nx) * dx
    ay = m_y.average(xi - dx / 2, xi + dx / 2)
    fx = m_x.average(xi, xi + dx)

    yj = np.arange(ny + 1) * dy
    fy_node = _band_fraction(yj, dy, ge, top)
    hi_my = np.inf if design.back_iron else top
    phi = _band_fraction(yj[:-1] + dy / 2, dy, ge, hi_my)

    # rhs row j is y_src[j] @ x_src: the x difference of the M_x face
    # profile times its band fraction, plus the M_y face profile times the
    # y difference of its band fraction.  Rank two, so the x transform of
    # the rhs is y_src @ rfft(x_src).  The wall rows have zero factors and
    # come back from the same back transform as psi = 0.
    x_src = np.stack([(fx - np.roll(fx, 1)) / dx, ay])
    y_src = np.zeros((ny + 1, 2))
    y_src[1:ny, 0] = fy_node[1:ny]
    y_src[1:ny, 1] = np.diff(phi) / dy
    psi_hat = y_src @ np.fft.rfft(x_src, axis=1)
    _thomas(psi_hat[1:ny], nx, dx, dy)
    psi_rows = np.fft.irfft(psi_hat, n=nx, axis=1)     # row-major (ny+1, nx)
    res = _relative_residual(psi_rows, x_src, y_src, dx, dy)
    if res > _RESIDUAL_CONTRACT:
        raise NoConvergence(f"final residual {res:.3e} exceeds {_RESIDUAL_CONTRACT:g}")
    return FdGrid(nx, ny, dx, dy, y_max, design.back_iron, psi_rows.T,
                  fx, fy_node, ay, phi, res)


def _thomas(r_hat: np.ndarray, nx: int, dx: float, dy: float) -> None:
    """Thomas sweep over the interior rows r_hat (rows, nx//2 + 1), one x
    mode per column, in place.  The tridiagonal coefficients are real, so
    the sweep runs on the real view with each coefficient repeated for the
    real and the imaginary part; it scales by 1 / denom as numpy's complex
    division by a real denominator does, so it matches the complex sweep to
    the last bit."""
    w = r_hat.view(float)
    m = np.arange(nx // 2 + 1).repeat(2)
    diag = -2 / dy ** 2 - (2 - 2 * np.cos(2 * np.pi * m / nx)) / dx ** 2
    off = 1 / dy ** 2
    cp = np.empty_like(w)
    cp[0] = off / diag
    w[0] *= 1 / diag
    for j in range(1, len(w)):
        denom = diag - off * cp[j - 1]
        cp[j] = off / denom
        w[j] -= off * w[j - 1]
        w[j] *= 1 / denom
    for j in range(len(w) - 2, -1, -1):
        w[j] -= cp[j] * w[j + 1]


def _relative_residual(psi_rows: np.ndarray, x_src: np.ndarray,
                       y_src: np.ndarray, dx: float, dy: float) -> float:
    """||lap psi - rhs|| / ||rhs|| over the interior rows of the row-major
    potential, _RESIDUAL_BLOCK rows at a time so every temporary stays in
    cache; each block forms its rhs as y_src[rows] @ x_src."""
    ny = psi_rows.shape[0] - 1
    cx, cy = 1 / dx ** 2, 1 / dy ** 2
    err = norm = 0.0
    for j0 in range(1, ny, _RESIDUAL_BLOCK):
        j1 = min(j0 + _RESIDUAL_BLOCK, ny)
        mid = psi_rows[j0:j1]
        lap = ((psi_rows[j0 + 1:j1 + 1] + psi_rows[j0 - 1:j1 - 1]) * cy
               - (2 * cx + 2 * cy) * mid)
        lap[:, 1:-1] += (mid[:, 2:] + mid[:, :-2]) * cx
        lap[:, [0, -1]] += (mid[:, [1, 0]] + mid[:, [-1, -2]]) * cx  # periodic in x
        rhs = y_src[j0:j1] @ x_src
        lap -= rhs
        err += float(np.vdot(lap, lap))
        norm += float(np.vdot(rhs, rhs))
    return float(np.sqrt(err / norm))


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
