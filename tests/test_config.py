import dataclasses
import math

import numpy as np
import pytest

from halmotor.config import (
    MU0,
    HarmonicTruncation,
    MotorDesign,
    PeriodicSteps,
    all_phase_currents,
    load_design,
    phase_phasors,
    slot_current_profile,
    slot_offsets,
)
from halmotor.errors import (
    ConfigError,
    InvalidMagnetCount,
    MissingKey,
    NonPositiveLength,
    OffsetExceedsGap,
    UnknownKey,
    UnsupportedPhaseCount,
)

from conftest import CONFIG_TEXT, TABLE1


def test_derived_properties(table1):
    assert table1.k == pytest.approx(2 * math.pi / 0.04, rel=1e-15)
    assert table1.tau_p == 0.02
    assert table1.g_e == pytest.approx(0.0045)
    assert table1.u == pytest.approx(2.0)
    assert table1.M == pytest.approx(1.1 / MU0, rel=1e-15)
    assert table1.w_m == pytest.approx(0.01)
    assert table1.dtheta == pytest.approx(math.pi / 2)
    assert table1.slot_width == pytest.approx(0.02 / 3)


def test_with_gap_resets_offset(table1):
    shifted = dataclasses.replace(table1, g_0=2e-4)
    wider = shifted.with_gap(1e-3)
    assert wider.g == 1e-3
    assert wider.g_0 == 0.0
    assert wider.lam == table1.lam


@pytest.mark.parametrize("field", ["lam", "g", "h_c", "h_m", "L"])
def test_nonpositive_lengths_rejected(field):
    with pytest.raises(NonPositiveLength):
        MotorDesign(**TABLE1 | {field: 0.0})
    with pytest.raises(NonPositiveLength):
        MotorDesign(**TABLE1 | {field: -1.0})


def test_invalid_counts_rejected():
    with pytest.raises(InvalidMagnetCount):
        MotorDesign(**TABLE1 | {"N_m": 1})
    with pytest.raises(UnsupportedPhaseCount):
        MotorDesign(**TABLE1, N_ph=4)
    with pytest.raises(OffsetExceedsGap):
        MotorDesign(**TABLE1, g_0=5e-4)
    with pytest.raises(ValueError):
        MotorDesign(**TABLE1 | {"B_r": 0.0})


def test_truncation_validation():
    assert HarmonicTruncation(5).orders.tolist() == [1, 3, 5]
    with pytest.raises(ValueError):
        HarmonicTruncation(4)
    with pytest.raises(ValueError):
        HarmonicTruncation(-3)


def test_load_design_roundtrip(config_path, table1):
    design, trunc = load_design(config_path)
    assert design == table1
    assert trunc.n_max == 199


def test_load_design_optional_keys(tmp_path):
    path = tmp_path / "d.cfg"
    path.write_text(CONFIG_TEXT + "gap_offset_m = 0.0002\nn_max_harmonic = 99\n")
    design, trunc = load_design(path)
    assert design.g_0 == 2e-4
    assert trunc.n_max == 99


@pytest.mark.parametrize("extra, exc", [
    ("bogus_key = 1\n", UnknownKey),
    ("lambda_m = 0.05\n", ValueError),          # duplicate
    ("no equals sign here\n", ValueError),
    ("sigma_cu_S_m = 0\n", ValueError),
    ("rho_pm_kg_m3 = -5\n", ValueError),
    ("rho_cu_kg_m3 = nan\n", ValueError),
    ("turns_per_coil = 0\n", ValueError),
    ("n_max_harmonic = abc\n", "config key 'n_max_harmonic'"),
    ("n_max_harmonic = 1e3\n", "config key 'n_max_harmonic'"),
])
def test_load_design_rejects_bad_lines(tmp_path, extra, exc):
    path = tmp_path / "d.cfg"
    path.write_text(CONFIG_TEXT + extra)
    if isinstance(exc, str):
        with pytest.raises(ValueError, match=exc):
            load_design(path)
    else:
        with pytest.raises(exc):
            load_design(path)


@pytest.mark.parametrize("key, value", [
    ("n_max_harmonic", "4"),
    ("sigma_cu_S_m", "0"),
    ("gap_m", "-1"),
    ("n_phases", "4"),
    ("n_magnets_per_pole", "1"),
    ("gap_offset_m", "0.001"),
])
def test_load_design_names_the_rejected_key(tmp_path, key, value):
    path = tmp_path / "d.cfg"
    lines = [line for line in CONFIG_TEXT.splitlines()
             if not line.startswith(key)]
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    with pytest.raises(ValueError, match=f"^config key '{key}': ") as info:
        load_design(path)
    assert isinstance(info.value, ConfigError)


def test_load_design_missing_key(tmp_path):
    path = tmp_path / "d.cfg"
    path.write_text(CONFIG_TEXT.replace("remanence_T        = 1.1\n", ""))
    with pytest.raises(MissingKey):
        load_design(path)


def test_phase_currents_pattern(table1):
    # go side 1 carries phase 1: J cos(wt), side 3 phase 2, side 2 minus phase 3
    ts = np.linspace(0, 0.02, 7)
    stacked = all_phase_currents(table1, ts)
    assert stacked.shape == (3, 7)
    assert stacked[0, 0] == pytest.approx(1e7)
    assert stacked[1, 0] == pytest.approx(-1e7 * math.cos(-4 * math.pi / 3))
    wt = table1.omega * ts
    np.testing.assert_allclose(stacked[0], 1e7 * np.cos(wt))
    np.testing.assert_allclose(stacked[1], -1e7 * np.cos(wt - 4 * math.pi / 3))
    np.testing.assert_allclose(stacked[2], 1e7 * np.cos(wt - 2 * math.pi / 3))
    assert all_phase_currents(table1, 0.0).shape == (3, 1)


@pytest.mark.parametrize("n_ph", [3, 5])
def test_phase_phasors_give_the_phase_currents(table1, n_ph):
    design = dataclasses.replace(table1, N_ph=n_ph, phi_0=0.7)
    ts = np.linspace(0, 0.02, 11)
    phasors = phase_phasors(design)
    assert phasors.shape == (n_ph,)
    np.testing.assert_allclose(
        (phasors[:, None] * np.exp(1j * design.omega * ts)).real,
        all_phase_currents(design, ts), rtol=0, atol=1e-13 * design.J_max)


def test_balanced_slot_sum(table1):
    ts = np.linspace(0, 0.02, 50)
    total = all_phase_currents(table1, ts).sum(axis=0)
    # a balanced set does not sum to zero slot-wise (signs differ), but each
    # phase is a pure cosine with the same amplitude
    amps = np.abs(all_phase_currents(table1, ts)).max(axis=1)
    np.testing.assert_allclose(amps, 1e7, rtol=1e-3)
    assert np.all(np.isfinite(total))


def test_five_phase_pattern():
    d5 = MotorDesign(**TABLE1, N_ph=5)
    j = all_phase_currents(d5, 0.0)[:, 0]
    phases = np.array([0, 3, 1, 4, 2]) * 2 * math.pi / 5
    np.testing.assert_allclose(j, 1e7 * np.array([1, -1, 1, -1, 1]) * np.cos(phases))


@pytest.mark.parametrize("n_ph", [3, 5])
def test_slot_offsets_tile_pole_pitch(n_ph):
    design = MotorDesign(**TABLE1, N_ph=n_ph)
    offsets = slot_offsets(design)
    assert offsets.tolist() == [m - 1.5 for m in range(1, n_ph + 1)]
    left = offsets * design.slot_width
    right = (offsets + 1) * design.slot_width
    np.testing.assert_allclose(right[:-1], left[1:], rtol=0, atol=1e-18)
    assert right[-1] - left[0] == pytest.approx(design.tau_p, rel=1e-14)
    assert left[0] == -right[0]          # side 1 straddles x = 0


def _brute_average(steps, lo, hi, n=200001):
    """Mean of the profile over [lo, hi) from a fine midpoint sampling."""
    edges, period = steps.edges, steps.edges[-1] - steps.edges[0]
    x = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    r = (x - steps.origin - edges[0]) % period + edges[0]
    return steps.values[np.searchsorted(edges, r, side="right") - 1].mean()


def test_periodic_steps_match_brute_force_average():
    steps = PeriodicSteps([-0.3, 0.1, 0.4, 1.2, 1.7], [2.0, -1.0, 0.5, 3.0],
                          origin=0.25)
    period = 2.0
    rng = np.random.default_rng(5)
    lo = rng.uniform(-3 * period, 3 * period, 12)
    hi = lo + rng.uniform(1e-3, 0.8 * period, 12)
    # intervals through a period boundary (origin + edges[0] + k period),
    # and ones longer than a period
    lo = np.concatenate([lo, [-0.2, 1.8, 3.5, -2.4, 0.3]])
    hi = np.concatenate([hi, [0.1, 2.2, 4.2, 1.1, 0.3 + 2.5 * period]])
    got = steps.average(lo, hi)
    want = np.array([_brute_average(steps, a, b) for a, b in zip(lo, hi)])
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-4)
    full = steps.average(np.array([0.77]), np.array([0.77 + period]))
    mean = (steps.values * np.diff(steps.edges)).sum() / period
    assert full[0] == pytest.approx(mean, rel=1e-13)


def test_periodic_steps_fourier_matches_midpoint_sampling():
    rng = np.random.default_rng(7)
    edges = np.sort(rng.uniform(-0.7, 1.6, 6))          # 5 steps, not from 0
    steps = PeriodicSteps(edges, rng.normal(size=5), origin=0.37)
    period = edges[-1] - edges[0]
    n = np.array([-3, 1, 2, 5, 6, 9, 13])                 # orders above 5 steps
    m = 100000
    x = steps.origin + edges[0] + (np.arange(m) + 0.5) * period / m
    f = steps.values[np.searchsorted(edges, x - steps.origin, side="right") - 1]
    want = 2 / m * np.exp(np.multiply.outer(-2j * np.pi * n / period, x)) @ f
    np.testing.assert_allclose(steps.fourier(n), want, rtol=0, atol=1e-4)
    assert steps.fourier(5) == steps.fourier(n)[3]


@pytest.mark.parametrize("n_ph", [3, 5])
def test_slot_current_profile_sides(n_ph):
    design = MotorDesign(**TABLE1, N_ph=n_ph)
    t, shift = 1.3e-3, 0.004
    J = all_phase_currents(design, t)[:, 0]
    prof = slot_current_profile(design, t, shift)
    w = design.slot_width
    centres = np.arange(n_ph) * w - shift          # go side m at (m - 1) w
    np.testing.assert_allclose(prof.average(centres - w / 4, centres + w / 4), J)
    np.testing.assert_allclose(
        prof.average(centres + design.tau_p - w / 4, centres + design.tau_p + w / 4), -J)
    assert prof.edges[-1] - prof.edges[0] == pytest.approx(design.lam, rel=1e-14)
