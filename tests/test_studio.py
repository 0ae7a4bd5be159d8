"""Stage metrics, objective scoring, sweeps, and the grid optimizer."""
import dataclasses

import numpy as np
import pytest

from halmotor import studio
from halmotor.config import MotorDesign
from halmotor.errors import EmptyBounds, ZeroLoss
from halmotor.studio import (MOVING_STATOR, ObjectiveConfig, StageSpec,
                             evaluate_design, initial_sizing, objective,
                             optimize, stage_metrics, sweep)

from conftest import TABLE1

BOUNDS = {"h_c": (1e-3, 12e-3)}
# 9-point coarse grid halved twice: final lattice spacing (hi-lo)/32
LATTICE = 1e-3 + (12e-3 - 1e-3) / 32 * np.arange(33)


@pytest.fixture(scope="module")
def stage():
    return StageSpec()


@pytest.fixture(scope="module")
def obj():
    return ObjectiveConfig()


def test_reference_point_metrics(table1, stage, obj):
    metrics, score = evaluate_design(table1, stage, obj)
    assert metrics.n_u == 15.0
    assert metrics.f_unit == pytest.approx(318.6897684262951, rel=1e-12)
    assert metrics.m_moving == pytest.approx(35.28, rel=1e-12)
    assert metrics.a == pytest.approx(70.67336674149063, rel=1e-12)
    assert metrics.p_cu == pytest.approx(5296.551724137931, rel=1e-12)
    assert metrics.tau == pytest.approx(26557.480702191257, rel=1e-12)
    assert metrics.ripple_pct == pytest.approx(2.4120207169080605, rel=1e-12)
    assert metrics.thd is None
    assert score == pytest.approx(12.719122121783467, rel=1e-12)


def test_stage_mass_branches(table1):
    pm = stage_metrics(table1, StageSpec(), 100.0)
    assert pm.m_moving == pytest.approx(
        4 * 15 * table1.rho_pm * table1.lam * 0.3 * table1.h_m)
    st = stage_metrics(table1, StageSpec(moving_member=MOVING_STATOR), 100.0)
    assert st.m_moving == pytest.approx(
        4 * 15 * table1.rho_cu * table1.lam * 0.3 * table1.h_c)
    assert st.p_cu == pm.p_cu


def test_depth_rescaling_and_stator_count(table1):
    m = stage_metrics(table1, StageSpec(L_depth=0.08), 100.0)
    assert m.f_unit == pytest.approx(200.0)
    # default overtravel: one stator unit beyond the mover
    assert StageSpec().n_stator_units(table1) == 16.0
    assert StageSpec(N_su=20).n_stator_units(table1) == 20.0


def test_acceleration_scales_with_thrust(table1, stage):
    base = stage_metrics(table1, stage, 50.0)
    double = stage_metrics(table1, stage, 100.0)
    assert double.a == pytest.approx(2 * base.a, rel=1e-14)
    assert double.p_cu == base.p_cu


def test_objective_exponent_behavior(table1, stage):
    metrics, _ = evaluate_design(table1, stage, ObjectiveConfig())
    flat = ObjectiveConfig(alpha=1.0, beta=0.0)
    assert objective(table1, stage, flat, metrics) == pytest.approx(metrics.a)
    scaled = dataclasses.replace(metrics, p_cu=10 * metrics.p_cu)
    ratio = (objective(table1, stage, ObjectiveConfig(), scaled)
             / objective(table1, stage, ObjectiveConfig(), metrics))
    assert ratio == pytest.approx(10 ** -0.2, rel=1e-12)


def test_extended_objective_matches_manual(table1, stage):
    full = ObjectiveConfig(alpha=1.0, beta=0.2, w_thd=1.0, w_ripple=1.0,
                           w_cost=1.0, cost_drive=2.0)
    metrics, score = evaluate_design(table1, stage, full)
    assert metrics.thd is not None and metrics.ripple_pct is not None
    manual = (metrics.a ** 1.0 / metrics.p_cu ** 0.2
              / metrics.thd / metrics.ripple_pct / 2.0)
    assert score == pytest.approx(manual, rel=1e-12)


def test_objective_requires_missing_factor(table1, stage):
    metrics = stage_metrics(table1, stage, 100.0)  # no thd evaluated
    with pytest.raises(ValueError, match="THD"):
        objective(table1, stage, ObjectiveConfig(w_thd=1.0), metrics)


def test_zero_loss_raises():
    dead = MotorDesign(**TABLE1, J_max=0.0)
    with pytest.raises(ZeroLoss):
        evaluate_design(dead, StageSpec(), ObjectiveConfig())


def test_sweep_is_deterministic(table1, stage, obj):
    axes = {"lam": np.array([0.03, 0.04]), "h_c": np.array([3e-3, 4e-3])}
    first = sweep(table1, stage, obj, axes)
    second = sweep(table1, stage, obj, axes)
    assert np.array_equal(first.table, second.table)
    assert first.best_index == second.best_index
    assert first.columns == ("lam", "h_m", "h_c", "f_unit", "a", "p_cu",
                             "tau", "score")
    assert first.table.shape == (4, 8)
    # canonical C-order: lam varies slowest
    np.testing.assert_array_equal(first.table[:, 0],
                                  [0.03, 0.03, 0.04, 0.04])


def test_single_point_sweep_matches_direct(table1, stage, obj):
    res = sweep(table1, stage, obj, {"h_m": np.array([7e-3])})
    metrics, score = evaluate_design(table1, stage, obj)
    assert res.best_score == pytest.approx(score, rel=1e-14)
    assert res.table[0, 3] == pytest.approx(metrics.f_unit, rel=1e-14)
    assert res.best_point == {"h_m": 7e-3}


def test_shear_stress_grows_with_magnet_height(table1, stage, obj):
    res = sweep(table1, stage, obj,
                {"h_m": np.array([2e-3, 6e-3, 10e-3, 14e-3])})
    taus = res.table[:, 6]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_acceleration_peaks_inside_magnet_height_range(table1, stage, obj):
    res = sweep(table1, stage, obj, {"h_m": np.arange(2e-3, 2.05e-2, 2e-3)})
    accs = res.table[:, 4]
    i = int(np.argmax(accs))
    assert 0 < i < len(accs) - 1


@pytest.mark.parametrize("beta, h_c_best, score_best", [
    (0.2, 0.0085625, 14.232359589941892),
    (0.3, 0.0065, 5.674081086753593),
])
def test_optimize_finds_dense_lattice_argmax(table1, stage, beta, h_c_best,
                                             score_best):
    o = ObjectiveConfig(beta=beta)
    res = optimize(table1, stage, o, BOUNDS)
    assert res.best_point["h_c"] == pytest.approx(h_c_best, abs=1e-15)
    assert res.best_score == pytest.approx(score_best, rel=1e-12)
    dense = sweep(table1, stage, o, {"h_c": LATTICE})
    assert res.best_point["h_c"] == pytest.approx(dense.best_point["h_c"],
                                                  abs=1e-15)
    assert res.best_score == pytest.approx(dense.best_score, rel=1e-12)


def test_optimize_trace_and_incumbents(table1, stage, obj):
    res = optimize(table1, stage, obj, BOUNDS)
    # 9 coarse + two 5-point refinement passes
    assert res.trace.shape == (19, 9)
    assert res.trace_columns[0] == "pass"
    assert set(res.trace[:, 0]) == {0.0, 1.0, 2.0}
    scores = res.incumbent_scores
    assert len(scores) == 3
    assert all(a <= b for a, b in zip(scores, scores[1:]))
    h_cs = res.trace[:, 3]
    assert h_cs.min() >= BOUNDS["h_c"][0] - 1e-15
    assert h_cs.max() <= BOUNDS["h_c"][1] + 1e-15
    assert res.best_design.h_c == res.best_point["h_c"]
    assert res.best_metrics.ripple_pct is not None


def test_optimize_degenerate_bounds(table1, stage, obj):
    res = optimize(table1, stage, obj, {"h_c": (4e-3, 4e-3)})
    assert res.best_point == {"h_c": 4e-3}
    _, score = evaluate_design(table1, stage, obj)
    assert res.best_score == pytest.approx(score, rel=1e-14)


def test_sweep_input_validation(table1, stage, obj):
    with pytest.raises(EmptyBounds):
        sweep(table1, stage, obj, {})
    with pytest.raises(EmptyBounds):
        sweep(table1, stage, obj, {"h_c": np.array([])})
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(table1, stage, obj, {"g": np.array([1e-3])})
    with pytest.raises(ValueError, match="positive"):
        sweep(table1, stage, obj, {"h_c": np.array([-1e-3, 4e-3])})
    with pytest.raises(ValueError, match="exceeds"):
        sweep(table1, stage, obj, {"lam": np.linspace(0.01, 0.1, 400),
                                   "h_m": np.linspace(1e-3, 1e-2, 300)})


def test_optimize_input_validation(table1, stage, obj):
    with pytest.raises(EmptyBounds):
        optimize(table1, stage, obj, {})
    with pytest.raises(EmptyBounds):
        optimize(table1, stage, obj, {"h_c": (5e-3, 4e-3)})
    with pytest.raises(EmptyBounds):
        optimize(table1, stage, obj, {"h_c": (0.0, 4e-3)})
    with pytest.raises(ValueError, match="unknown bound axes"):
        optimize(table1, stage, obj, {"g": (1e-4, 1e-3)})
    with pytest.raises(ValueError, match="coarse >= 2"):
        optimize(table1, stage, obj, {"h_c": (1e-3, 4e-3)}, coarse=1)
    with pytest.raises(ValueError, match="passes >= 0"):
        optimize(table1, stage, obj, {"h_c": (1e-3, 4e-3)}, passes=-1)
    # 0.0055 / 2**50 is under 3 ulps of 0.012; a fixed axis has no step to refine
    with pytest.raises(ValueError, match="passes = 50 refines 'h_c'"):
        optimize(table1, stage, obj, {"lam": (0.04, 0.04), "h_c": (1e-3, 12e-3)},
                 coarse=3, passes=50)
    with pytest.raises(ValueError, match="passes = 100000 refines 'h_c'"):
        optimize(table1, stage, obj, {"h_c": (1e-3, 12e-3)}, passes=100_000)


def test_optimize_counts_a_fixed_axis_as_one_point(table1, stage, obj, monkeypatch):
    def by_coil_height(design, stage, obj, trunc):
        return studio.StageMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), design.h_c

    monkeypatch.setattr(studio, "evaluate_design", by_coil_height)
    # 400 points; counting the two fixed axes as 400 each would exceed the cap
    res = optimize(table1, stage, obj, {"lam": (0.04, 0.04), "h_m": (7e-3, 7e-3),
                                        "h_c": (1e-3, 12e-3)}, coarse=400, passes=0)
    assert res.trace.shape[0] == 400
    assert res.best_point == {"lam": 0.04, "h_m": 7e-3, "h_c": 12e-3}


@pytest.mark.parametrize("target, refined", [
    # interior incumbents: both refinement passes score 5 points
    (8e-3, [[1e-3, 3.75e-3, 6.5e-3, 9.25e-3, 12e-3],
            [6.5e-3, 7.875e-3, 9.25e-3, 10.625e-3, 12e-3]]),
    # incumbent on the upper bound: candidates past it are dropped
    (11.3e-3, [[6.5e-3, 9.25e-3, 12e-3], [9.25e-3, 10.625e-3, 12e-3]]),
])
def test_optimize_refines_a_free_axis_beside_a_fixed_one(table1, stage, obj,
                                                         monkeypatch, target,
                                                         refined):
    calls = []

    def peaked(design, stage, obj, trunc):
        calls.append(design)
        return (studio.StageMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                -abs(design.h_c - target))

    monkeypatch.setattr(studio, "evaluate_design", peaked)
    res = optimize(table1, stage, obj, {"h_c": (1e-3, 12e-3), "lam": (0.04, 0.04)},
                   coarse=3, passes=2)
    lattice = [(0, h) for h in (1e-3, 6.5e-3, 12e-3)]
    lattice += [(p, h) for p, hs in enumerate(refined, 1) for h in hs]
    assert res.trace.shape[0] == len(lattice)
    np.testing.assert_array_equal(res.trace[:, 0], [p for p, _ in lattice])
    # the fixed axis is one point in every pass: lam, h_m never move
    assert set(res.trace[:, 1]) == {0.04} and set(res.trace[:, 2]) == {table1.h_m}
    np.testing.assert_allclose(res.trace[:, 3], [h for _, h in lattice],
                               rtol=0, atol=1e-17)
    best = min((h for _, h in lattice), key=lambda h: abs(h - target))
    assert res.best_point["lam"] == 0.04
    assert res.best_point["h_c"] == pytest.approx(best, abs=1e-17)
    assert len(calls) == len(lattice) + 1       # the best point is re-scored


def test_stage_spec_validation(table1):
    with pytest.raises(ValueError):
        StageSpec(L_stage=-1.0)
    with pytest.raises(ValueError):
        StageSpec(moving_member="flying")
    with pytest.raises(ValueError):
        StageSpec(N_su=0.5)
    with pytest.raises(ValueError, match="shorter"):
        StageSpec(L_stage=0.01).n_units(table1)


def test_objective_config_validation():
    with pytest.raises(ValueError):
        ObjectiveConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(beta=-0.1)
    with pytest.raises(ValueError, match="cost_drive"):
        ObjectiveConfig(w_cost=1.0)


def test_initial_sizing(table1):
    res = initial_sizing(0.5, 1e7, table1)
    assert res.tau_av == pytest.approx(20000.0, rel=1e-12)
    assert res.f_av == pytest.approx(32.0, rel=1e-12)
    assert res.p_per_volume == pytest.approx(1724137.9310344828, rel=1e-12)
    with pytest.raises(ValueError):
        initial_sizing(0.0, 1e7, table1)
    with pytest.raises(ValueError):
        initial_sizing(0.5, -1.0, table1)
