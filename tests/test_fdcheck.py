"""Finite-difference cross-check: solver contract, conservation, accuracy."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from halmotor import fdcheck
from halmotor.config import MU0, HarmonicTruncation, MotorDesign
from halmotor.errors import NoConvergence
from halmotor.halbach import fourier_coefficients, magnetization_steps
from halmotor.laplace import solve_coefficients
from halmotor.fdcheck import midgap_comparison, solve_scalar_poisson

from conftest import TABLE1, make_case
from references import (box_flux, convergence_levels, face_fluxes, fd_fields,
                        fd_force_check, midgap_convergence, mx_face, my_face)

# mid-airgap error frozen at first validation (grids well inside the 3%
# contract; the exact digits guard against silent stencil regressions)
MIDGAP_OPEN_512 = 5.693659593710659e-4
MIDGAP_IRON_512 = 1.938931148593162e-5


def _solved(design):
    return solve_coefficients(design, fourier_coefficients(design, HarmonicTruncation()))


@pytest.fixture(scope="module")
def grid_open(table1):
    return solve_scalar_poisson(table1, 512, 608)


def test_residual_contract_and_log(grid_open):
    assert grid_open.residual < 1e-10
    assert grid_open.psi.shape == (512, 609)


def test_midgap_agreement_open(table1, grid_open, coeffs):
    rep = midgap_comparison(table1, grid_open, coeffs)
    assert rep.max_rel_err == pytest.approx(MIDGAP_OPEN_512, rel=1e-9)
    assert rep.max_rel_err < 0.03
    assert rep.b_fd.shape == rep.b_analytic.shape == (512,)
    assert 0 < rep.y <= table1.g_e


def test_midgap_agreement_iron():
    design = make_case(3, back_iron=True)
    grid = solve_scalar_poisson(design, 512, 256)
    rep = midgap_comparison(design, grid, _solved(design))
    assert rep.max_rel_err == pytest.approx(MIDGAP_IRON_512, rel=1e-9)


def test_midgap_second_order_convergence():
    design = make_case(2, back_iron=True)
    runs = midgap_convergence(design)
    errs = [e for _, _, e in runs]
    assert [(nx, ny) for nx, ny, _ in runs] == list(convergence_levels(design))
    for coarse, fine in zip(errs, errs[1:]):
        assert 2.5 < coarse / fine < 6.0


def test_field_map_shapes_and_wall_bx(table1, grid_open):
    f = fd_fields(table1, grid_open)
    for arr in (f.H_x, f.H_y, f.B_x, f.B_y):
        assert arr.shape == grid_open.psi.shape
    # psi = 0 all along the stator face, so the tangential H vanishes there
    assert np.abs(f.B_x[:, 0]).max() <= 1e-15


def test_odd_symmetry_of_potential(grid_open):
    # at t = 0 with no shift, M_y is odd and M_x even about x = 0, so psi
    # inherits odd symmetry on the periodic grid
    psi = grid_open.psi
    mirrored = psi[(-np.arange(grid_open.nx)) % grid_open.nx, :]
    scale = np.abs(psi).max()
    assert np.abs(psi + mirrored).max() < 1e-12 * scale


def test_interior_box_flux_conserved(grid_open):
    net, scale = box_flux(grid_open, 100, 400, 50, 300)
    assert abs(net) < 1e-8 * scale
    net2, scale2 = box_flux(grid_open, 0, 511, 1, 607)
    assert abs(net2) < 1e-8 * scale2


def test_box_flux_rejects_boundary_rows(grid_open):
    with pytest.raises(ValueError):
        box_flux(grid_open, 10, 20, 0, 30)


def test_face_flux_shapes(grid_open):
    bxf, byf = face_fluxes(grid_open)
    assert bxf.shape == (512, 609)
    assert byf.shape == (512, 608)


def test_psi_row_line_integral(table1, grid_open):
    """psi recovered by integrating -H_x along a mid-gap row."""
    f = fd_fields(table1, grid_open)
    j = round(table1.g_e / 2 / grid_open.dy)
    hx = f.H_x[:, j]
    rec = np.concatenate([[0.0],
                          -np.cumsum((hx[1:] + hx[:-1]) / 2) * grid_open.dx])
    ref = grid_open.psi[:, j] - grid_open.psi[0, j]
    assert np.abs(rec - ref).max() < 1e-3 * np.abs(ref).max()


def test_force_check_converges_monotonically():
    design = MotorDesign(**TABLE1 | {"N_m": 5}, N_ph=5)
    coeffs = _solved(design)
    gaps = []
    for nx, ny in convergence_levels(design):
        grid = solve_scalar_poisson(design, nx, ny)
        chk = fd_force_check(design, grid, coeffs, t=1.3e-3, x_0=0.004)
        assert chk.rel_gap < 3e-2
        gaps.append(chk.rel_gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_force_check_zero_current(table1, grid_open):
    dead = MotorDesign(**TABLE1, J_max=0.0)
    grid = solve_scalar_poisson(dead, 256, 304)
    chk = fd_force_check(dead, grid, _solved(dead))
    assert chk.f_analytic == 0.0
    assert chk.f_fd == 0.0
    assert chk.rel_gap == 0.0


def test_grid_must_resolve_array(table1):
    with pytest.raises(ValueError, match="16"):
        solve_scalar_poisson(table1, 64, 64)


def test_residual_contract_enforced(table1, monkeypatch):
    monkeypatch.setattr(fdcheck, "_RESIDUAL_CONTRACT", 1e-16)
    with pytest.raises(NoConvergence):
        solve_scalar_poisson(table1, 256, 304)


def test_solve_memory(table1):
    """The solve keeps one complex grid, psi_hat, and hands psi out as a view
    of its storage; the Thomas coefficients are one float per mode, not per
    real and imaginary part.  At 1024 x 512 that peaked at 9.3 MiB when the
    back transform made a second grid and the coefficients were doubled."""
    solve_scalar_poisson(table1, 1024, 512)
    tracemalloc.start()
    try:
        grid = solve_scalar_poisson(table1, 1024, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2 ** 20
    assert grid.psi.shape == (1024, 513)


def test_residual_catches_a_faulty_back_transform(table1, monkeypatch):
    # a back transform off by 1e-8 must break the 1e-10 residual contract
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) * (1 + 1e-8))
    with pytest.raises(NoConvergence):
        solve_scalar_poisson(table1, 256, 304)


def _sparse_reference(grid):
    """psi from a sparse direct solve of the assembled 5-point system, its
    rhs the compact divergence of the full face arrays."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    mx, my = mx_face(grid), my_face(grid)
    rhs = ((mx - np.roll(mx, 1, axis=0))[:, 1:ny] / dx
           + (my[:, 1:] - my[:, :-1]) / dy)

    def second_difference(n, periodic):
        d = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="lil")
        if periodic:
            d[0, n - 1] = d[n - 1, 0] = 1.0
        return d.tocsr()

    lap = (sparse.kron(second_difference(nx, True), sparse.identity(ny - 1)) / dx ** 2
           + sparse.kron(sparse.identity(nx), second_difference(ny - 1, False)) / dy ** 2)
    inner = spsolve(lap.tocsc(), rhs.ravel()).reshape(nx, ny - 1)
    return np.pad(inner, ((0, 0), (1, 1)))


@pytest.mark.parametrize("back_iron, nx, ny", [(False, 64, 304), (True, 64, 64)])
def test_solution_matches_sparse_direct_solve(table1, back_iron, nx, ny):
    grid = solve_scalar_poisson(dataclasses.replace(table1, back_iron=back_iron), nx, ny)
    ref = _sparse_reference(grid)
    assert grid.psi.shape == ref.shape == (nx, ny + 1)
    assert np.abs(grid.psi - ref).max() <= 1e-10 * np.abs(ref).max()


def test_source_deposit_total_moment(table1, grid_open):
    # column sums of the face M_y band reproduce h_m times the cell average
    # of M_y(x): the deposit conserves the sheet dipole moment exactly
    col = my_face(grid_open).sum(axis=1) * grid_open.dy
    _, m_y = magnetization_steps(table1)
    xi = np.arange(grid_open.nx) * grid_open.dx
    want = m_y.average(xi - grid_open.dx / 2, xi + grid_open.dx / 2) * table1.h_m
    np.testing.assert_allclose(col, want, rtol=0, atol=1e-9 * np.abs(want).max())
