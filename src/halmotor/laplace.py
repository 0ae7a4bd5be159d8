"""Per-harmonic boundary-value solution of the hybrid scalar-potential model.

For each odd harmonic n the field in the three regions is

    region I   (0 <= y < g_e)          psi = (A1 e^{nky} + B1 e^{-nky}) sin nkx
    region II  (g_e <= y <= g_e + h_m) psi = (A2 e^{nky} + B2 e^{-nky}) sin nkx
    region III (above the array)       psi = B3 e^{-nky} sin nkx

with H = -grad psi.  The array enters through sheet sources on its two
faces, so region II carries no volume term; its potential reproduces B_x
and H_y directly, while H_x and B_y need the truncated magnetization added
back (see `evaluate_fields`).

The per-harmonic conditions (stator face, then the two array faces):

    A1 + B1 = 0
    (A1 - A2) e^a - (B1 - B2) e^-a =  sigma_n / (mu0 n k)     H_y jump at g_e
    (A2 - A1) e^a + (B2 - B1) e^-a =  k_n / (n k)             H_x jump at g_e
    A2 e^b - B2 e^-b + B3 e^-b     = -sigma_n / (mu0 n k)     H_y jump at top
    -A2 e^b - B2 e^-b + B3 e^-b    = -k_n / (n k)             H_x jump at top

with a = n k g_e, b = n k (g_e + h_m).  With back iron the top face is an
iron equipotential and the last two rows collapse to

    -A2 e^b - B2 e^-b = -k_n / (n k).

These raw amplitudes span hundreds of orders of magnitude across the
harmonics, so they are never formed.  What is solved and stored are the
equilibrated unknowns

    (x1, x2, x3, x4, x5) = (A1 e^a, B1, A2 e^b, B2 e^-a, B3 e^-b),

which stay of the order of the source terms for every n.  Each region's
terms then read x e^{nk (y - y_face)} with a non-positive exponent, e.g.
A1 e^{nky} = x1 e^{nk(y - g_e)} and B3 e^{-nky} = x5 e^{-nk(y - top)}, so
no truncation order overflows.

`solve_coefficients` takes the unknowns from their closed form and holds
them to the equilibrated rows (`_rows`); `dense_coefficients` solves the
same rows as matrices and is kept only as the independent reference.

Every field is separable, sum_n w_n(y) {sin, cos}(nkx), so each point
evaluator runs in two stages.  The height stage (`_hybrid_weights` here,
`poisson._vector_weights` for the vector route) turns the region terms
at y into one stack of per-harmonic weights per trig family; the point
stage (`_point_sums`) forms sin and cos nkx and reduces each stack with
one vecdot.  Inside `field_map` a row's height stage is formed once and
reused for the row's other points; outside a map nothing is kept.
"""
from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import MU0, MotorDesign
from .errors import OutOfDomain, SingularSystem
from .halbach import HarmonicSource

_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class FieldCoefficients:
    """Solved per-harmonic coefficients for one topology.

    x1..x5 are the equilibrated unknowns of the module docstring, one entry
    per harmonic in `n`, whose wavenumbers n k are `nk`.  `x5` is None for
    the back-iron topology (region III does not exist).
    """

    back_iron: bool
    n: np.ndarray
    nk: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x4: np.ndarray
    x5: np.ndarray | None

    def stack(self) -> np.ndarray:
        cols = [self.x1, self.x2, self.x3, self.x4]
        if self.x5 is not None:
            cols.append(self.x5)
        return np.stack(cols, axis=1)


class FieldSample(NamedTuple):
    """The six map fields at one point, or along a column of points in one
    region (each field then a 1-D array, one entry per row).

    psi is the scalar potential (A), A_z the vector potential (Wb/m); each
    is None for models that do not define it.
    """

    B_x: float | np.ndarray
    B_y: float | np.ndarray
    H_x: float | np.ndarray
    H_y: float | np.ndarray
    psi: float | np.ndarray | None
    A_z: float | np.ndarray | None


MAP_FIELDS = FieldSample._fields


@dataclass(frozen=True, eq=False)
class FieldMap:
    """Fields over the tensor grid y x x, one read-only (ny, nx) array each.

    Entry [j, i] of a field is its value at (x[i], y[j]), so `.ravel()`
    lists the points row by row.  psi and A_z are NaN wherever the model
    does not define that potential.  region[j] names the region of row j,
    which depends on y alone.  The six fields share one (6, ny, nx) block:
    48 bytes per point.
    """

    x: np.ndarray
    y: np.ndarray
    region: tuple[str, ...]
    B_x: np.ndarray
    B_y: np.ndarray
    H_x: np.ndarray
    H_y: np.ndarray
    psi: np.ndarray
    A_z: np.ndarray


def assemble_system(design: MotorDesign, source: HarmonicSource,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw boundary matrix and right-hand side for one harmonic.

    Returned without scaling, exactly as written in the module docstring,
    for the raw amplitudes (A1, B1, A2, B2, B3).  Prefer
    `solve_coefficients` for actual solving; it works in the equilibrated
    unknowns, which matters for high harmonics.
    """
    i = np.nonzero(source.n == n)[0]
    if len(i) != 1:
        raise ValueError(f"harmonic {n} not present in source")
    kn = float(source.k_n[i[0]])
    sn = float(source.sigma_n[i[0]])
    nk = n * design.k
    a = nk * design.g_e
    b = nk * (design.g_e + design.h_m)
    ea, ema, eb, emb = math.exp(a), math.exp(-a), math.exp(b), math.exp(-b)
    S = sn / (MU0 * nk)
    K = kn / nk
    if design.back_iron:
        A = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [ea, -ema, -ea, ema],
            [-ea, -ema, ea, ema],
            [0.0, 0.0, -eb, -emb],
        ])
        rhs = np.array([0.0, S, K, -K])
    else:
        A = np.array([
            [1.0, 1.0, 0.0, 0.0, 0.0],
            [ea, -ema, -ea, ema, 0.0],
            [-ea, -ema, ea, ema, 0.0],
            [0.0, 0.0, eb, -emb, emb],
            [0.0, 0.0, -eb, -emb, emb],
        ])
        rhs = np.array([0.0, S, K, -S, -K])
    return A, rhs


def _rows(design: MotorDesign, nk: np.ndarray, x) -> list:
    """The equilibrated boundary rows, applied to the unknowns x = (x1..x5).

    The rows of the module docstring divided through so that every
    coefficient lands in [-1, 1] whatever the harmonic order; x holds four
    entries (x1..x4) with back iron.  The one statement of these rows:
    applied to unit vectors they give the dense matrix, and applied to
    solved columns they give the left-hand side of the residual contract.
    """
    ea = np.exp(-nk * design.g_e)
    ed = np.exp(-nk * design.h_m)
    x1, x2, x3, x4 = x[:4]
    rows = [ea * x1 + x2,
            x1 - ea * x2 - ed * x3 + x4,
            -x1 - ea * x2 + ed * x3 + x4]
    if design.back_iron:
        return rows + [-x3 - ed * x4]
    return rows + [x3 - ed * x4 + x[4], -x3 - ed * x4 + x[4]]


def _rhs(design: MotorDesign, S: np.ndarray, K: np.ndarray) -> np.ndarray:
    """(H, 4 or 5) right-hand sides of `_rows`, with S = sigma_n / (mu0 nk)
    and K = k_n / nk."""
    z = np.zeros_like(S)
    cols = [z, S, K, -K] if design.back_iron else [z, S, K, -S, -K]
    return np.stack(cols, axis=1)


def _unit_columns(rows, n: int) -> np.ndarray:
    """The (H, rows, n) matrix stack of a row function of n unknowns: the
    rows applied to each unit vector give one (H, rows) column."""
    return np.stack([np.stack(rows(e), axis=1) for e in np.eye(n)], axis=2)


def _scaled_system(design: MotorDesign, nk: np.ndarray, S: np.ndarray,
                   K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch of the dense boundary systems, built from `_rows`."""
    rhs = _rhs(design, S, K)
    return _unit_columns(lambda x: _rows(design, nk, x), rhs.shape[1]), rhs


def _check_residual(lhs: np.ndarray, rhs: np.ndarray) -> None:
    """Raise SingularSystem where a harmonic's (H, rows) row residual
    lhs - rhs exceeds the contract, _RESIDUAL_TOL times the norm of its
    nonzero right-hand side."""
    res2 = ((lhs - rhs) ** 2).sum(axis=1)
    nb2 = (rhs ** 2).sum(axis=1)
    bad = (res2 > _RESIDUAL_TOL ** 2 * nb2) & (nb2 > 0)
    if bad.any():
        worst = float(np.sqrt((res2[bad] / nb2[bad]).max()))
        raise SingularSystem(f"boundary solve residual {worst:.2e} exceeds contract")


def _batch_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        x = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    _check_residual((A @ x[..., None])[..., 0], rhs)
    return x


def _pack(design: MotorDesign, source: HarmonicSource,
          x: np.ndarray) -> FieldCoefficients:
    return FieldCoefficients(
        back_iron=design.back_iron, n=source.n.copy(), nk=source.n * design.k,
        x1=x[:, 0], x2=x[:, 1], x3=x[:, 2], x4=x[:, 3],
        x5=None if design.back_iron else x[:, 4])


def _sources(design: MotorDesign, source: HarmonicSource):
    """nk and the scaled sources S = sigma_n / (mu0 nk), K = k_n / nk."""
    nk = source.n * design.k
    return nk, source.sigma_n / (MU0 * nk), source.k_n / nk


def solve_coefficients(design: MotorDesign, source: HarmonicSource) -> FieldCoefficients:
    """The production solve: the closed form, held to the residual contract.

    The closed-form unknowns are put back into the equilibrated boundary
    rows, and a harmonic whose residual exceeds _RESIDUAL_TOL times its
    right-hand side raises SingularSystem, as a dense solve would.
    """
    coeffs = closed_form_coefficients(design, source)
    nk, S, K = _sources(design, source)
    _check_residual(np.stack(_rows(design, nk, coeffs.stack().T), axis=1),
                    _rhs(design, S, K))
    return coeffs


def dense_coefficients(design: MotorDesign, source: HarmonicSource) -> FieldCoefficients:
    """Batched dense solve of the same systems: the independent reference
    that the closed form is checked against (verify and the tests)."""
    A, rhs = _scaled_system(design, *_sources(design, source))
    return _pack(design, source, _batch_solve(A, rhs))


def closed_form_coefficients(design: MotorDesign,
                             source: HarmonicSource) -> FieldCoefficients:
    """Closed-form solution of the boundary systems, the production route
    behind `solve_coefficients`.

    Written in the equilibrated unknowns with e_a = e^-a and e_d =
    e^{-nk h_m}, so every exponential is at most 1.  It broadcasts over the
    harmonics with no matrix formed.  Every difference 1 - e^-x is taken as
    -expm1(-x): with a long wavelength over thin layers, 1 - e^-x would
    lose the digits that the back-iron form's division by 1 - e_b^2 then
    magnifies.  The open-back form is grouped so that S + K and S - K,
    which cancel on their own for some harmonics, are each formed once and
    then only scaled: every unknown keeps its own relative accuracy.
    """
    nk, S, K = _sources(design, source)
    ea = np.exp(-nk * design.g_e)
    ed = np.exp(-nk * design.h_m)
    if design.back_iron:
        a, d = nk * design.g_e, nk * design.h_m
        D = -2 * np.expm1(-2 * (a + d))
        one_ed = -np.expm1(-d)
        one_ed2 = -np.expm1(-2 * d)
        one_ea2 = -np.expm1(-2 * a)
        one_eaeb = -np.expm1(-(2 * a + d))
        x1 = (S * one_ed2 - K * one_ed ** 2) / D
        x2 = -ea * x1
        x3 = (K * (one_ed + one_eaeb) - S * ed * one_ea2) / D
        x4 = (S * one_ea2 + K * (one_eaeb + ea ** 2 * one_ed)) / D
        cols = [x1, x2, x3, x4]
    else:
        one_ed = -np.expm1(-nk * design.h_m)
        x1 = 0.5 * (S - K) * one_ed
        x2 = -ea * x1
        x3 = -0.5 * (S - K)
        x4 = 0.5 * (S + K) + 0.5 * (K - S) * ea ** 2 * one_ed
        x5 = -0.5 * one_ed * ((S + K) + (S - K) * ea ** 2 * ed)
        cols = [x1, x2, x3, x4, x5]
    return _pack(design, source, np.stack(cols, axis=1))


def classify_region(design: MotorDesign, y: float, coord: str = "y") -> str:
    """The region of height y; `coord` names y in the out-of-domain error."""
    top = design.g_e + design.h_m
    if y != y:
        raise OutOfDomain(coord, y, "not a number")
    if y < 0:
        raise OutOfDomain(coord, y, "below the stator face y = 0")
    if y < design.g_e:
        return "I"
    if y <= top:
        return "II"
    if design.back_iron:
        raise OutOfDomain(coord, y, f"beyond the back iron at y = {top:g}")
    return "III"


def _region_terms(design: MotorDesign, coeffs: FieldCoefficients, y,
                  region: str | None):
    """The only code that turns the stored unknowns into region terms.

    Returns (region, nk, P, Q): P = A e^{nky} and Q = B e^{-nky} per harmonic
    (last axis), formed through non-positive exponents.  y is a scalar or
    a column array of points in one region, which an array must name.
    """
    if region is None:
        region = classify_region(design, y)
    nk = coeffs.nk
    top = design.g_e + design.h_m
    if region == "I":
        P = coeffs.x1 * np.exp(nk * (y - design.g_e))
        Q = coeffs.x2 * np.exp(-nk * y)
    elif region == "II":
        P = coeffs.x3 * np.exp(nk * (y - top))
        Q = coeffs.x4 * np.exp(nk * (design.g_e - y))
    else:
        P = 0.0
        Q = coeffs.x5 * np.exp(nk * (top - y))
    return region, nk, P, Q


# one dict per running field_map: height stage -> its last call and result;
# a context variable, so a map in another thread keeps its own
_MAP_SCOPE: ContextVar[dict | None] = ContextVar("field_map_scope", default=None)


def _reused_in_map(stage):
    """Wrap a height stage so that inside one `field_map` it is formed once
    per row.

    A call whose design, source and coeffs are the objects of the stage's
    previous call in the same map, by identity, and whose height (a float)
    and region are equal to that call's, returns that call's result.  The
    entry holds the three objects, so none of their ids can be reused while
    it lives, and it goes with the map.  Outside a map every call computes.
    """
    @functools.wraps(stage)
    def stage_once(design, source, coeffs, y, region):
        memo = _MAP_SCOPE.get()
        if memo is None or type(y) is not float:
            return stage(design, source, coeffs, y, region)
        last = memo.get(stage)
        if (last is not None and last[0] is design and last[1] is source
                and last[2] is coeffs and last[3] == y and last[4] == region):
            return last[5]
        result = stage(design, source, coeffs, y, region)
        memo[stage] = (design, source, coeffs, y, region, result)
        return result

    return stage_once


@_reused_in_map
def _hybrid_weights(design: MotorDesign, source: HarmonicSource,
                    coeffs: FieldCoefficients, y, region: str | None):
    """Height stage of the hybrid and scalar-Poisson evaluators.

    Returns (region, Ws, Wc): the per-harmonic weights (last axis) of every
    field sum at height y, stacked on axis -2, Ws for the sums against
    sin nkx and Wc for those against cos nkx:

        Ws: nk (Q - P) for H_y, P + Q for the sheet psi, and in region II
            P + Q + M_xn / nk for the scalar-Poisson psi and M_yn;
        Wc: -nk (P + Q) for H_x, and in region II M_xn.

    The scalar-Poisson particular term is added to each harmonic's weight
    before the one sum: summed apart, the two series cancel and keep about
    three times the rounding.  y and region are as for `_region_terms`.
    """
    region, nk, P, Q = _region_terms(design, coeffs, y, region)
    total = P + Q
    sin_rows = [nk * (Q - P), total]
    cos_rows = [-nk * total]
    if region == "II":
        sin_rows += [total + source.M_xn / nk, source.M_yn]
        cos_rows.append(source.M_xn)
    return region, _stacked(sin_rows), _stacked(cos_rows)


def _stacked(rows) -> np.ndarray:
    """Weight rows stacked on axis -2, each broadcast to the widest one (the
    magnetization rows depend on the harmonic alone)."""
    return np.stack(np.broadcast_arrays(*rows), axis=-2)


def _require_finite_x(x) -> None:
    """Refuse a non-finite x, scalar or array, with an `OutOfDomain` that
    names the first offending value."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise OutOfDomain("x", x, "not finite")
    elif not np.isfinite(x).all():
        raise OutOfDomain("x", np.asarray(x)[~np.isfinite(x)][0], "not finite")


def _point_sums(coeffs: FieldCoefficients, x, Ws: np.ndarray, Wc: np.ndarray):
    """Point stage: every weight row summed against sin nkx (Ws) or cos nkx
    (Wc), as two stacks with the rows first (indexing a row is far cheaper
    than unpacking the stack).  x is a scalar or an (m, 1) column; point
    and column calls run this same code, so they agree bit for bit.  A
    non-finite x is refused: sin and cos would return NaN, or raise under
    np.errstate(invalid="raise")."""
    _require_finite_x(x)
    phase = coeffs.nk * x
    return (np.vecdot(Ws, np.sin(phase)[..., None, :]).T,
            np.vecdot(Wc, np.cos(phase)[..., None, :]).T)


def _hybrid_fields(design: MotorDesign, source: HarmonicSource,
                   coeffs: FieldCoefficients, x, y, region: str | None,
                   scalar: bool) -> FieldSample:
    """The fields of the sheet-source potential, whose B and H the scalar-
    Poisson model shares; `scalar` picks that model's region-II psi."""
    region, Ws, Wc = _hybrid_weights(design, source, coeffs, y, region)
    sin_sums, cos_sums = _point_sums(coeffs, x, Ws, Wc)
    hy, hx = sin_sums[0], cos_sums[0]
    if region == "II":
        return FieldSample(MU0 * hx, MU0 * (hy + sin_sums[3]), hx - cos_sums[1],
                           hy, sin_sums[2 if scalar else 1], None)
    return FieldSample(MU0 * hx, MU0 * hy, hx, hy, sin_sums[1], None)


def evaluate_fields(design: MotorDesign, source: HarmonicSource,
                    coeffs: FieldCoefficients, x, y,
                    region: str | None = None) -> FieldSample:
    """Physical B, H, and psi at one point, or along columns in one region.

    In region II the potential belongs to the sheet-source model: B_x and
    H_y follow from it directly, while H_x and B_y are completed with the
    truncated magnetization so the returned fields are the physical ones
    (H_x and B_y both continuous across the array faces).

    `region` forces a specific region's expansion, which is how the two
    one-sided limits at an interface are obtained.  x may also be an (m, 1)
    column and y a scalar or such a column, all in one named region; the
    sample's fields are then 1-D arrays.
    """
    return _hybrid_fields(design, source, coeffs, x, y, region, False)


def airgap_B_y(design: MotorDesign, coeffs: FieldCoefficients,
               x: np.ndarray, y: float) -> np.ndarray:
    """Vectorized B_y in region I at height y; a non-finite x is refused,
    as in `_point_sums`."""
    if not 0 <= y <= design.g_e:
        raise OutOfDomain("y", y, "region I spans 0 <= y <= g_e")
    x = np.asarray(x, dtype=float)
    _require_finite_x(x)
    _, nk, P, Q = _region_terms(design, coeffs, y, "I")
    return np.sin(np.outer(x, nk)) @ (-MU0 * nk * (P - Q))


def field_map(design: MotorDesign, source: HarmonicSource, coeffs: FieldCoefficients,
              xs: np.ndarray, ys: np.ndarray,
              evaluator=evaluate_fields) -> FieldMap:
    """The fields over the tensor grid ys x xs as a `FieldMap` of (ny, nx)
    arrays, NaN where the model leaves a potential undefined.

    Every row's region is checked first, so a height outside the domain
    raises before any point is evaluated.  `evaluator` is then called once
    per point in row-major order, given its row's region so that no point
    is classified again, and its six values go straight into the map's
    (6, ny, nx) block; no sample is kept, so the map costs 48 bytes per
    point.

    For the length of the loop the map opens a reuse scope: the three
    evaluators' height stages (`_hybrid_weights`, `poisson._vector_weights`)
    then form each row's weights once and hand them to the row's other
    points, as long as the call's design, source and coeffs are the map's
    objects and its height and region are the row's.  The scope holds one
    entry per stage and closes with the map.
    """
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    heights, columns = ys.tolist(), xs.tolist()
    region = tuple(classify_region(design, y) for y in heights)
    values = np.empty((len(MAP_FIELDS), len(heights), len(columns)))
    scope = _MAP_SCOPE.set({})
    try:
        for j, (y, name) in enumerate(zip(heights, region)):
            row = values[:, j]
            for i, x in enumerate(columns):
                # numpy stores an undefined (None) potential as NaN
                row[:, i] = evaluator(design, source, coeffs, x, y, name)
    finally:
        _MAP_SCOPE.reset(scope)
    for a in (xs, ys, values):
        a.setflags(write=False)
    return FieldMap(xs, ys, region, *values)
