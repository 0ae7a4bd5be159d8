import dataclasses
import math

import numpy as np
import pytest

from halmotor.config import (
    MU0,
    HarmonicTruncation,
    MotorDesign,
    all_phase_currents,
    load_design,
    phase_current_density,
    slot_bounds,
)
from halmotor.errors import (
    IndexOutOfRange,
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
])
def test_load_design_rejects_bad_lines(tmp_path, extra, exc):
    path = tmp_path / "d.cfg"
    path.write_text(CONFIG_TEXT + extra)
    with pytest.raises(exc):
        load_design(path)


def test_load_design_missing_key(tmp_path):
    path = tmp_path / "d.cfg"
    path.write_text(CONFIG_TEXT.replace("remanence_T        = 1.1\n", ""))
    with pytest.raises(MissingKey):
        load_design(path)


def test_phase_currents_pattern(table1):
    # slot 1 carries phase 1: J cos(wt), slot 3 phase 2, slot 2 minus phase 3
    assert phase_current_density(table1, 1, 0.0) == pytest.approx(1e7)
    j2 = phase_current_density(table1, 2, 0.0)
    assert j2 == pytest.approx(-1e7 * math.cos(-4 * math.pi / 3))
    ts = np.linspace(0, 0.02, 7)
    stacked = all_phase_currents(table1, ts)
    assert stacked.shape == (3, 7)
    for m in (1, 2, 3):
        np.testing.assert_allclose(stacked[m - 1],
                                   phase_current_density(table1, m, ts))


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
    assert all_phase_currents(d5, 0.0).shape[0] == 5
    assert slot_bounds(d5, 1)[1] - slot_bounds(d5, 1)[0] == pytest.approx(
        d5.slot_width)


def test_slot_index_bounds(table1):
    with pytest.raises(IndexOutOfRange):
        phase_current_density(table1, 0, 0.0)
    with pytest.raises(IndexOutOfRange):
        slot_bounds(table1, 4)


def test_slot_bounds_tile_pole_pitch(table1):
    edges = [slot_bounds(table1, m) for m in (1, 2, 3)]
    for (left, right), (nleft, _) in zip(edges, edges[1:]):
        assert right == pytest.approx(nleft)
    assert edges[-1][1] - edges[0][0] == pytest.approx(table1.tau_p)
