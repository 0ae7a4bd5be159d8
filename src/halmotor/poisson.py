"""Alternative field formulations used as cross-checks on the hybrid model.

Two more routes to the same physical field:

* scalar Poisson: psi keeps the magnetization inside region II as a
  particular term (M_xn / nk) sin nkx, and the interface rows enforce
  continuity of H_x and of B_y (no sheet sources);
* vector potential: A_z = (A' e^{nky} + B' e^{-nky}) cos nkx with
  particular term (mu0 M_yn / nk) cos nkx in region II, B_x = dA/dy,
  B_y = -dA/dx.

Both reduce to small per-harmonic systems like the hybrid model, and both
store the same equilibrated unknowns (see `halmotor.laplace`).  The
scalar-Poisson system shares its matrix and right-hand side with the
hybrid one, so its coefficients are derived rather than solved again,
and its B and H are the hybrid ones; only its potential differs.  The
vector route has its own system, whose solution maps onto the hybrid
coefficients as (x1', x2', x3', x4', x5') = mu0 (-x1, x2, -x3, x4, x5).
It stays an independent solve: agreement of the evaluated fields is one
of the package's standing self-checks.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .config import MU0, MotorDesign
from .halbach import HarmonicSource
from .laplace import (
    FieldCoefficients,
    FieldSample,
    _batch_solve,
    _hybrid_fields,
    _pack,
    _region_terms,
    _unit_columns,
    solve_coefficients,
)

MODEL_SCALAR = "poisson-scalar"
MODEL_VECTOR = "poisson-vector"


def _rows_vector(design: MotorDesign, nk: np.ndarray, x) -> list:
    """The equilibrated vector-potential rows, applied to the unknowns x.

    Raw rows (unknowns A1', B1', A2', B2', B3'):

        A1' - B1' = 0                                       B_x = 0 at y = 0
        (A1'-A2') e^a + (B1'-B2') e^-a =  mu0 M_yn / nk     B_y continuous
        A1' e^a - B1' e^-a - A2' e^a + B2' e^-a = -mu0 M_xn / nk
        A2' e^b + B2' e^-b - B3' e^-b = -mu0 M_yn / nk
        A2' e^b - B2' e^-b + B3' e^-b =  mu0 M_xn / nk

    Back iron replaces the last two with A2' e^b - B2' e^-b = mu0 M_xn /nk
    (B_x of the homogeneous part matches the magnetization term at the
    iron face).  The unknowns are scaled as in the hybrid route; x holds
    four entries with back iron.  Its own statement, not `laplace._rows`,
    so that the vector route stays an independent solve.
    """
    ea = np.exp(-nk * design.g_e)
    ed = np.exp(-nk * design.h_m)
    x1, x2, x3, x4 = x[:4]
    rows = [ea * x1 - x2,
            x1 + ea * x2 - ed * x3 - x4,
            x1 - ea * x2 - ed * x3 + x4]
    if design.back_iron:
        return rows + [x3 - ed * x4]
    return rows + [x3 + ed * x4 - x[4], x3 - ed * x4 + x[4]]


def solve_scalar(design: MotorDesign, source: HarmonicSource) -> FieldCoefficients:
    """Scalar-Poisson coefficients, derived from the hybrid system.

    Raw rows (unknowns A1, B1, A2, B2, B3; a = nk g_e, b = nk (g_e+h_m)):

        A1 + B1 = 0
        A1 e^a - B1 e^-a - A2 e^a + B2 e^-a = -M_yn / nk
        -A1 e^a - B1 e^-a + A2 e^a + B2 e^-a = -M_xn / nk
        A2 e^b - B2 e^-b + B3 e^-b = M_yn / nk
        -A2 e^b - B2 e^-b + B3 e^-b = M_xn / nk

    With back iron the last two collapse to A2 e^b + B2 e^-b = -M_xn / nk.
    Since M_xn = -k_n and M_yn = -sigma_n / mu0 these are the hybrid rows
    (the back-iron row only changes sign), so the solutions coincide.
    """
    return dataclasses.replace(solve_coefficients(design, source), model=MODEL_SCALAR)


def solve_vector(design: MotorDesign, source: HarmonicSource) -> FieldCoefficients:
    nk = source.n * design.k
    My, Mx = MU0 * source.M_yn / nk, MU0 * source.M_xn / nk
    z = np.zeros_like(nk)
    rhs = np.stack([z, My, -Mx, Mx] if design.back_iron else [z, My, -Mx, -My, Mx],
                   axis=1)
    A = _unit_columns(lambda x: _rows_vector(design, nk, x), rhs.shape[1])
    return _pack(design, source, MODEL_VECTOR, _batch_solve(A, rhs))


def vector_from_hybrid(coeffs: FieldCoefficients) -> FieldCoefficients:
    """The closed-form map from hybrid to vector-potential coefficients."""
    return FieldCoefficients(
        model=MODEL_VECTOR, back_iron=coeffs.back_iron, n=coeffs.n.copy(),
        x1=-MU0 * coeffs.x1, x2=MU0 * coeffs.x2,
        x3=-MU0 * coeffs.x3, x4=MU0 * coeffs.x4,
        x5=None if coeffs.x5 is None else MU0 * coeffs.x5)


def evaluate_fields_scalar(design: MotorDesign, source: HarmonicSource,
                           coeffs: FieldCoefficients, x, y,
                           region: str | None = None) -> FieldSample:
    """Physical fields from the scalar-Poisson potential.

    The coefficients are the hybrid solution, so B and H are the hybrid
    ones; psi adds the particular term sum (M_xn / nk) sin nkx in region
    II.  x and y may be column arrays, as for `laplace.evaluate_fields`.
    """
    region, nk, s, psi, bx, by, hx, hy = _hybrid_fields(design, source, coeffs,
                                                        x, y, region)
    if region == "II":
        psi += np.vecdot(source.M_xn / nk, s)
    return FieldSample(x, y, region, bx, by, hx, hy, psi, None)


def evaluate_fields_vector(design: MotorDesign, source: HarmonicSource,
                           coeffs: FieldCoefficients, x, y,
                           region: str | None = None) -> FieldSample:
    """Physical fields from the vector potential (B first, then H = B/mu0 - M).

    x and y may be column arrays, as for `laplace.evaluate_fields`.
    """
    region, nk, P, Q = _region_terms(design, coeffs, y, region)
    phase = nk * x
    s, c = np.sin(phase), np.cos(phase)
    total = P + Q
    Az = np.vecdot(total, c)
    Bx = np.vecdot(nk * (P - Q), c)
    By = np.vecdot(nk * total, s)
    if region == "II":
        Mx_t = np.vecdot(source.M_xn, c)
        My_t = np.vecdot(source.M_yn, s)
        Az += np.vecdot(MU0 * source.M_yn / nk, c)
        By += MU0 * My_t
        return FieldSample(x, y, region, Bx, By,
                           Bx / MU0 - Mx_t, By / MU0 - My_t, None, Az)
    return FieldSample(x, y, region, Bx, By, Bx / MU0, By / MU0, None, Az)
