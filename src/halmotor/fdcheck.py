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
right-hand side has rank two and `FdGrid` keeps only the 1-D factors.  The
linear system is solved directly: the x transform of the source is a
rank-two product of two 1-D FFTs, a real-valued Thomas sweep solves each x
mode in y in place, and the inverse FFT, in blocks of y rows, writes psi
row-major, (ny+1, nx), into the float storage of the transform itself,
handed out as its (nx, ny+1) transpose view.  So a solve holds one complex
grid plus the sweep's one real coefficient per mode and row: 6.5 MiB
traced at 1024 x 512.  The residual contract is checked after the fact, in
blocks of rows, against the same factors.  With
back iron the M_y band is extended through the wall: the iron face is an
equipotential, and stopping the band there would plant a spurious
half-sheet on the boundary row.

The runtime oracle is this solve plus `midgap_comparison`, which holds
the grid's mid-airgap B_y against the analytic series.  The node fields,
face fluxes and Lorentz-force check on the same grid are test references
(`tests/references.py`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MU0, MotorDesign
from .errors import NoConvergence, UnresolvedGrid
from .halbach import magnetization_steps
from .laplace import FieldCoefficients, airgap_B_y

_RESIDUAL_CONTRACT = 1e-10
_MIN_CELLS_PER_ARRAY = 16
_PAD_WAVELENGTHS = 3.0     # open-back top boundary above the array
_ROW_BLOCK = 32            # rows per block in the sweep, the back transform and
                           # the residual: 32 x 1024 floats stay in cache


@dataclass(frozen=True)
class FdGrid:
    """Solved grid: psi on nodes (nx, ny+1), the face magnetization as its
    1-D factors, residual."""

    nx: int
    ny: int
    dx: float
    dy: float
    psi: np.ndarray
    mx_x: np.ndarray    # M_x on the x-faces is mx_x (nx,) times mx_y (ny+1,)
    mx_y: np.ndarray
    my_x: np.ndarray    # M_y on the y-faces is my_x (nx,) times my_y (ny,)
    my_y: np.ndarray
    residual: float


@dataclass(frozen=True)
class MidgapReport:
    """FD versus analytic B_y along the mid-airgap row."""

    y: float
    b_fd: np.ndarray
    b_analytic: np.ndarray
    max_rel_err: float


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
    psi_rows = _back_transform(psi_hat, nx)            # row-major (ny+1, nx)
    res = _relative_residual(psi_rows, x_src, y_src, dx, dy)
    if res > _RESIDUAL_CONTRACT:
        raise NoConvergence(f"final residual {res:.3e} exceeds {_RESIDUAL_CONTRACT:g}")
    return FdGrid(nx, ny, dx, dy, psi_rows.T, fx, fy_node, ay, phi, res)


def _thomas(r_hat: np.ndarray, nx: int, dx: float, dy: float) -> None:
    """Thomas sweep over the interior rows r_hat (rows, nx//2 + 1), one x
    mode per column, in place.  The tridiagonal coefficients are real, so
    the sweep runs on the real view with each coefficient doubled, once for
    the real and once for the imaginary part; it scales by 1 / denom as
    numpy's complex division by a real denominator does, so it matches the
    complex sweep to the last bit.

    The coefficients stay per mode: cp is (rows, nx//2 + 1), half the real
    view.  The rows go in blocks of _ROW_BLOCK.  The forward pass forms
    a block's cp and 1 / denom per mode, then doubles 1 / denom into one
    small buffer for the block's data sweep; the back pass doubles a block's
    cp into the same buffer.  Every temporary is preallocated, so a row
    costs a handful of ufunc calls and no allocation."""
    w = r_hat.view(float)
    rows, modes = r_hat.shape
    m = np.arange(modes)
    diag = -2 / dy ** 2 - (2 - 2 * np.cos(2 * np.pi * m / nx)) / dx ** 2
    off = 1 / dy ** 2
    cp = np.empty((rows, modes))
    nb = min(_ROW_BLOCK, rows)
    inv = np.empty((nb, modes))
    doubled = np.empty((nb, 2 * modes))
    denom = np.empty(modes)
    tmp = np.empty(2 * modes)
    prev = np.zeros(modes)          # row 0 has no row above: denom = diag
    w_rows = list(w)
    for j0 in range(0, rows, nb):
        j1 = min(j0 + nb, rows)
        for j in range(j0, j1):
            np.multiply(off, prev, out=denom)
            np.subtract(diag, denom, out=denom)
            prev = cp[j]
            np.divide(off, denom, out=prev)
            np.divide(1, denom, out=inv[j - j0])
        block = _doubled(inv[:j1 - j0], doubled)
        for j, scale in enumerate(block, j0):
            if j:
                np.multiply(off, w_rows[j - 1], out=tmp)
                w_rows[j] -= tmp
            w_rows[j] *= scale
    for j1 in range(rows - 1, 0, -nb):
        j0 = max(j1 - nb, 0)
        block = _doubled(cp[j0:j1], doubled)
        for j in range(j1 - 1, j0 - 1, -1):
            np.multiply(block[j - j0], w_rows[j + 1], out=tmp)
            w_rows[j] -= tmp


def _doubled(coef: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The rows of coef with every entry stood twice, written into the head
    of buf: the layout of a complex row's real view."""
    out = buf[:len(coef)]
    out[:, ::2] = coef
    out[:, 1::2] = coef
    return out


def _back_transform(psi_hat: np.ndarray, nx: int) -> np.ndarray:
    """irfft of every row of psi_hat (rows, nx//2 + 1), written row-major
    (rows, nx) into psi_hat's own float view, _ROW_BLOCK rows at a
    time.  A complex row holds 2 (nx//2 + 1) >= nx floats, so row j's
    output ends at or before the start of row j + 1's input: a block never
    overwrites input that is still to be read, and no second grid-sized
    array is made."""
    rows = psi_hat.shape[0]
    out = psi_hat.view(float).reshape(-1)[:rows * nx].reshape(rows, nx)
    for j0 in range(0, rows, _ROW_BLOCK):
        j1 = min(j0 + _ROW_BLOCK, rows)
        out[j0:j1] = np.fft.irfft(psi_hat[j0:j1], n=nx, axis=1)
    return out


def _relative_residual(psi_rows: np.ndarray, x_src: np.ndarray,
                       y_src: np.ndarray, dx: float, dy: float) -> float:
    """||lap psi - rhs|| / ||rhs|| over the interior rows of the row-major
    potential, _ROW_BLOCK rows at a time so every temporary stays in
    cache; each block forms its rhs as y_src[rows] @ x_src."""
    ny = psi_rows.shape[0] - 1
    cx, cy = 1 / dx ** 2, 1 / dy ** 2
    err = norm = 0.0
    for j0 in range(1, ny, _ROW_BLOCK):
        j1 = min(j0 + _ROW_BLOCK, ny)
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
