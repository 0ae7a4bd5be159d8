"""Stage-level design metrics, objective functions, sweeps, and a grid optimizer.

A stage strings N_u = L_stage / lambda unit cells along the travel axis at
the stage in-depth length, which is configured separately from the unit
cell's depth: unit-cell thrust is rescaled by depth ratio before any stage
arithmetic.  A sweep and each optimizer pass score one full-factorial
lattice through `_search`; refinement passes halve the step around the
incumbent, so every point stays on the coarse lattice subdivided by
2**passes and the result can be checked against a dense grid there.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import HarmonicTruncation, MotorDesign
from .errors import EmptyBounds, ZeroLoss
from .halbach import fourier_coefficients
from .laplace import solve_coefficients
from .quantities import emf_thd, line_table, optimal_shift, thrust_time_series

MOVING_PM = "moving-PM"
MOVING_STATOR = "moving-stator"

_AXES = ("lam", "h_m", "h_c")
MAX_SWEEP_POINTS = 100_000
_RESOLUTION_ULPS = 4  # smallest refinement step, in ulps of the larger bound


@dataclass(frozen=True)
class StageSpec:
    """Stage geometry and payload; N_su defaults to one stator unit of
    overtravel beyond the mover's N_u."""

    L_stage: float = 0.6
    m_stage: float = 100.0
    L_depth: float = 0.3
    moving_member: str = MOVING_PM
    N_su: float | None = None

    def __post_init__(self):
        if self.L_stage <= 0 or self.m_stage <= 0 or self.L_depth <= 0:
            raise ValueError("stage lengths and mass must be positive")
        if self.moving_member not in (MOVING_PM, MOVING_STATOR):
            raise ValueError(f"unknown moving member {self.moving_member!r}")
        if self.N_su is not None and self.N_su < 1:
            raise ValueError("N_su must be at least 1")

    def n_units(self, design: MotorDesign) -> float:
        n_u = self.L_stage / design.lam
        if n_u < 1:
            raise ValueError("stage shorter than one unit cell")
        return n_u

    def n_stator_units(self, design: MotorDesign) -> float:
        return self.N_su if self.N_su is not None else self.n_units(design) + 1


@dataclass(frozen=True)
class ObjectiveConfig:
    """Score exponents; the extended weights divide by EMF THD, force
    ripple, and a user-supplied drive cost when nonzero."""

    alpha: float = 1.0
    beta: float = 0.2
    w_thd: float = 0.0
    w_ripple: float = 0.0
    w_cost: float = 0.0
    cost_drive: float | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if min(self.beta, self.w_thd, self.w_ripple, self.w_cost) < 0:
            raise ValueError("exponents must be non-negative")
        if self.w_cost > 0 and self.cost_drive is None:
            raise ValueError("cost_drive is required when w_cost > 0")

    @property
    def needs_thd(self) -> bool:
        return self.w_thd > 0


@dataclass(frozen=True)
class StageMetrics:
    """Stage quantities for one design point.

    f_unit is the mean thrust of one unit cell at stage depth; tau the
    shear stress over its active area.  ripple_pct/thd are filled only
    when the evaluation needed them.
    """

    n_u: float
    f_unit: float
    m_moving: float
    a: float
    p_cu: float
    tau: float
    ripple_pct: float | None = None
    thd: float | None = None


@dataclass(frozen=True)
class SizingResult:
    tau_av: float
    f_av: float
    p_per_volume: float


@dataclass(frozen=True)
class SweepResult:
    """Full-factorial evaluation table in canonical (lam, h_m, h_c) C-order."""

    columns: tuple[str, ...]
    table: np.ndarray
    best_index: int
    best_point: dict[str, float]
    best_score: float


@dataclass(frozen=True)
class OptimizeResult:
    best_point: dict[str, float]
    best_design: MotorDesign
    best_metrics: StageMetrics
    best_score: float
    trace: np.ndarray
    trace_columns: tuple[str, ...]
    incumbent_scores: tuple[float, ...]


def stage_metrics(design: MotorDesign, stage: StageSpec,
                  thrust_mean: float) -> StageMetrics:
    """Mass, acceleration, and copper loss from a unit-cell mean thrust.

    thrust_mean is the machine-quantities value at the unit-cell depth
    design.L; it is rescaled to the stage depth here.
    """
    n_u = stage.n_units(design)
    f_unit = thrust_mean * stage.L_depth / design.L
    if stage.moving_member == MOVING_PM:
        m_moving = 4 * n_u * design.rho_pm * design.lam * stage.L_depth * design.h_m
    else:
        m_moving = 4 * n_u * design.rho_cu * design.lam * stage.L_depth * design.h_c
    a = 2 * n_u * f_unit / (stage.m_stage + m_moving)
    p_cu = (4 * stage.n_stator_units(design) * design.lam * stage.L_depth
            * design.h_c * design.J_max ** 2 / design.sigma_cu)
    tau = f_unit / (design.lam * stage.L_depth)
    return StageMetrics(n_u, f_unit, m_moving, a, p_cu, tau)


def objective(design: MotorDesign, stage: StageSpec, obj: ObjectiveConfig,
              metrics: StageMetrics) -> float:
    """a^alpha / P_cu^beta, extended by the optional denominator factors;
    formed in np.float64, so an overflow or a zero denominator follows the
    caller's np.errstate rather than raising a Python arithmetic error."""
    if metrics.p_cu <= 0:
        raise ZeroLoss("copper loss is zero; objective undefined")
    score = np.float64(metrics.a) ** obj.alpha / np.float64(metrics.p_cu) ** obj.beta
    for w, value, name in ((obj.w_thd, metrics.thd, "THD"),
                           (obj.w_ripple, metrics.ripple_pct, "ripple"),
                           (obj.w_cost, obj.cost_drive, "drive cost")):
        if w > 0:
            if value is None:
                raise ValueError(f"objective needs {name} but it was not evaluated")
            if value <= 0:
                raise ZeroLoss(f"{name} is zero; extended objective undefined")
            score /= np.float64(value) ** w
    return float(score)


def evaluate_design(design: MotorDesign, stage: StageSpec, obj: ObjectiveConfig,
                    trunc: HarmonicTruncation | None = None) -> tuple[StageMetrics, float]:
    """Solve one design point end to end: fields, optimal shift (360-point
    scan), mean thrust over a 720-sample period, stage metrics, objective
    score.  The scan, the period and the THD share one slot-window table."""
    trunc = trunc or HarmonicTruncation()
    coeffs = solve_coefficients(design, fourier_coefficients(design, trunc))
    table = line_table(design, coeffs)
    x_best, _ = optimal_shift(design, table, 360)
    series = thrust_time_series(design, table, x_best, 720)
    metrics = stage_metrics(design, stage, series.mean)
    thd = float(emf_thd(table).max()) if obj.needs_thd else None
    metrics = dataclasses.replace(metrics, ripple_pct=series.ripple_pct, thd=thd)
    return metrics, objective(design, stage, obj, metrics)


_SWEEP_COLUMNS = ("lam", "h_m", "h_c", "f_unit", "a", "p_cu", "tau", "score")


def _check_cap(what: str, n_points: int) -> None:
    if n_points > MAX_SWEEP_POINTS:
        raise ValueError(f"{what} of {n_points} points exceeds {MAX_SWEEP_POINTS}")


def _search(design: MotorDesign, stage: StageSpec, obj: ObjectiveConfig,
            axes: dict[str, np.ndarray], trunc: HarmonicTruncation | None
            ) -> tuple[list[dict[str, float]], np.ndarray, int]:
    """Points (canonical C-order), `_SWEEP_COLUMNS` rows and first argmax of
    the lattice `axes`, counted against the cap before any point is built."""
    keys = [k for k in _AXES if k in axes]
    n_points = math.prod(len(axes[k]) for k in keys)
    _check_cap("lattice", n_points)
    grids = np.meshgrid(*(axes[k] for k in keys), indexing="ij")
    points = [dict(zip(keys, map(float, values)))
              for values in zip(*(g.ravel() for g in grids))]
    rows = np.empty((n_points, len(_SWEEP_COLUMNS)))
    for i, point in enumerate(points):
        d = dataclasses.replace(design, **point)
        metrics, score = evaluate_design(d, stage, obj, trunc)
        rows[i] = (d.lam, d.h_m, d.h_c, metrics.f_unit, metrics.a,
                   metrics.p_cu, metrics.tau, score)
    return points, rows, int(np.argmax(rows[:, -1]))


def sweep(design: MotorDesign, stage: StageSpec, obj: ObjectiveConfig,
          axes: dict[str, np.ndarray],
          trunc: HarmonicTruncation | None = None) -> SweepResult:
    """Full-factorial sensitivity sweep over subsets of (lam, h_m, h_c).

    Points are evaluated in canonical C-order (lam outermost), so identical
    inputs give bit-identical tables; ties at the top score resolve to the
    first point in that order.
    """
    if not axes:
        raise EmptyBounds("sweep needs at least one axis")
    for key, vals in axes.items():
        if key not in _AXES:
            raise ValueError(f"unknown sweep axis {key!r}")
        if len(np.atleast_1d(vals)) == 0:
            raise EmptyBounds(f"axis {key!r} has no points")
        if np.min(vals) <= 0:
            raise ValueError(f"axis {key!r} must be positive")
    points, table, best = _search(design, stage, obj, {
        k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in axes.items()}, trunc)
    return SweepResult(_SWEEP_COLUMNS, table, best, points[best],
                       float(table[best, -1]))


def optimize(design: MotorDesign, stage: StageSpec, obj: ObjectiveConfig,
             bounds: dict[str, tuple[float, float]],
             trunc: HarmonicTruncation | None = None,
             coarse: int = 9, passes: int = 2) -> OptimizeResult:
    """Coarse full-factorial argmax plus halving refinement passes.

    Pass p > 0 scores +-2 steps of (coarse step) / 2**p around the
    incumbent, within bounds; a fixed axis (lo == hi) is one point in every
    pass.  The trace carries one row per evaluation with its pass index.
    Incumbent scores never decrease.  Passes that would refine an axis
    below a few ulps of its upper bound are refused up front, and with
    every axis fixed only the coarse pass runs.
    """
    if coarse < 2 or passes < 0:
        raise ValueError("optimize needs coarse >= 2 and passes >= 0, "
                         f"got {coarse} and {passes}")
    if not bounds:
        raise EmptyBounds("optimize needs at least one bounded axis")
    keys = [k for k in _AXES if k in bounds]
    if len(keys) != len(bounds):
        unknown = set(bounds) - set(_AXES)
        raise ValueError(f"unknown bound axes {sorted(unknown)}")
    lo = {}
    hi = {}
    for k in keys:
        a, b = bounds[k]
        if not (0 < a <= b):
            raise EmptyBounds(f"bounds for {k!r} are empty or non-positive")
        lo[k], hi[k] = float(a), float(b)

    step0 = {k: (hi[k] - lo[k]) / (coarse - 1) for k in keys}
    for k in keys:
        # a finer pass would only re-score designs that round to the same
        # floats; ldexp, unlike 2 ** passes, cannot overflow
        finest = math.ldexp(step0[k], -passes)
        if step0[k] > 0 and finest < _RESOLUTION_ULPS * np.spacing(hi[k]):
            raise ValueError(f"passes = {passes} refines {k!r} below float "
                             f"resolution (step {finest:.3g})")
    if not any(step0.values()):
        passes = 0
    else:  # a free coarse axis alone can pass the cap: refuse it unbuilt
        _check_cap("coarse axis", coarse)

    trace = []
    incumbent_scores = []
    for p in range(passes + 1):
        axes = {}
        for k in keys:
            if step0[k] == 0:
                axes[k] = np.array([lo[k]])
            elif p == 0:
                axes[k] = lo[k] + step0[k] * np.arange(coarse)
            else:
                cand = incumbent[k] + step0[k] / 2 ** p * np.arange(-2, 3)
                tol = 1e-12 * (hi[k] - lo[k])
                axes[k] = cand[(cand >= lo[k] - tol) & (cand <= hi[k] + tol)]
        points, rows, i = _search(design, stage, obj, axes, trunc)
        trace.append(np.hstack([np.full((len(rows), 1), float(p)), rows]))
        if p == 0 or rows[i, -1] > best_score:
            best_score = float(rows[i, -1])
            incumbent = points[i]
        incumbent_scores.append(best_score)

    best_design = dataclasses.replace(design, **incumbent)
    metrics, score = evaluate_design(best_design, stage, obj, trunc)
    return OptimizeResult(incumbent, best_design, metrics, best_score,
                          np.vstack(trace), ("pass",) + _SWEEP_COLUMNS,
                          tuple(incumbent_scores))


def initial_sizing(B_av: float, J_av: float, design: MotorDesign) -> SizingResult:
    """Rule-of-thumb shear stress, unit-cell force, and loss density;
    formed in np.float64, so an overflow follows the caller's np.errstate
    rather than giving inf or raising a Python arithmetic error."""
    if B_av <= 0 or J_av <= 0:
        raise ValueError("sizing inputs must be positive")
    J_av = np.float64(J_av)
    tau_av = design.h_c * J_av * B_av
    return SizingResult(tau_av, design.lam * design.L * tau_av,
                        J_av ** 2 / design.sigma_cu)
