"""End-to-end CLI runs: file outputs, manifest contents, exit codes."""
import argparse
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import halmotor
from halmotor import cli, laplace, poisson, quantities, studio, verify
from halmotor.config import load_design
from halmotor.halbach import fourier_coefficients

from conftest import CONFIG_TEXT, make_case

from test_quantities import MEAN_FORCE_OPEN, NET_PULL


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def _column(rows, key):
    return np.array([float(r[key]) for r in rows])


def _bits(values):
    """Float bit patterns, so that a comparison is exact down to -0.0."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_fields_default_grid(config_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(config_path),
                     "--out", str(out)]) == 0
    rows = _read_csv(out / "fields.csv")
    assert len(rows) == 256 * 128
    assert list(rows[0]) == ["x", "y", "region", "B_x", "B_y",
                             "H_x", "H_y", "psi", "A_z"]
    assert rows[0]["region"] == "I"
    assert rows[-1]["region"] == "II"
    # scalar-potential models report psi and no A_z
    assert rows[0]["A_z"] == "nan"
    assert rows[0]["psi"] != "nan"
    man = _manifest(out)
    assert man["command"] == "fields"
    assert man["outputs"] == ["fields.csv"]
    assert man["version"] == "0.1.0"
    assert man["params"]["design"]["lam"] == 0.04
    assert man["params"]["n_max_harmonic"] == 199
    assert man["params"]["grid"] == [256, 128]


@pytest.mark.parametrize("model", ["poisson-scalar", "poisson-vector"])
def test_fields_models_agree(config_path, tmp_path, model):
    ref_out = tmp_path / "ref"
    alt_out = tmp_path / "alt"
    base = ["--config", str(config_path), "--grid", "32x16"]
    assert cli.main(["fields", *base, "--out", str(ref_out)]) == 0
    assert cli.main(["fields", *base, "--out", str(alt_out),
                     "--model", model]) == 0
    ref = _read_csv(ref_out / "fields.csv")
    alt = _read_csv(alt_out / "fields.csv")
    for key in ("B_x", "B_y"):
        np.testing.assert_allclose(_column(alt, key), _column(ref, key),
                                   rtol=0, atol=1e-10)
    if model == "poisson-vector":
        assert alt[5]["psi"] == "nan"
        assert alt[5]["A_z"] != "nan"


def test_fields_csv_is_the_field_map(config_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(config_path), "--out", str(out),
                     "--model", "poisson-vector", "--grid", "16x8"]) == 0
    design, trunc = load_design(str(config_path))
    src = fourier_coefficients(design, trunc)
    fmap = laplace.field_map(design, src, poisson.solve_vector(design, src),
                             np.arange(16) * design.lam / 16,
                             np.linspace(0.0, design.g_e + design.h_m, 8),
                             poisson.evaluate_fields_vector)
    rows = _read_csv(out / "fields.csv")
    assert len(rows) == 16 * 8
    x, y = np.meshgrid(fmap.x, fmap.y)  # (ny, nx), as the fields
    assert [r["region"] for r in rows] == np.repeat(fmap.region, 16).tolist()
    want = {"x": x, "y": y} | {key: getattr(fmap, key)
                               for key in ("B_x", "B_y", "H_x", "H_y", "A_z")}
    for key, grid in want.items():
        assert grid.shape == (8, 16)
        np.testing.assert_array_equal(_bits(_column(rows, key)), _bits(grid.ravel()))
    assert np.isnan(fmap.psi).all()
    assert np.isnan(_column(rows, "psi")).all()


def test_fields_ymax_outside_domain(tmp_path, capsys, monkeypatch):
    """A --ymax outside the domain is refused by name before any solve."""
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "_MODELS", {name: tuple(map(counting, fns))
                                         for name, fns in cli._MODELS.items()})
    iron = tmp_path / "iron.cfg"
    iron.write_text(CONFIG_TEXT.replace("back_iron          = false",
                                        "back_iron          = true"))
    open_back = tmp_path / "open.cfg"
    open_back.write_text(CONFIG_TEXT)
    for cfg, ymax, limit in [(iron, "0.02", "beyond the back iron at y = 0.0115"),
                             (open_back, "-1", "below the stator face y = 0")]:
        out = tmp_path / cfg.stem
        rc = cli.main(["fields", "--config", str(cfg), "--out", str(out),
                       "--ymax", ymax])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: --ymax = {float(ymax)} lies outside" in err
        assert limit in err
        assert not out.exists()  # a failed command writes nothing
    assert calls == []  # neither a solver nor an evaluator ran


def test_force_outputs(config_path, tmp_path):
    out = tmp_path / "force"
    assert cli.main(["force", "--config", str(config_path), "--out", str(out),
                     "--x0", "0.004", "--nt", "36", "--nscan", "36"]) == 0
    design, trunc = load_design(str(config_path))
    table = quantities.line_table(design, laplace.solve_coefficients(
        design, fourier_coefficients(design, trunc)))
    want = quantities.thrust_time_series(design, table, 0.004, 36)
    rows = _read_csv(out / "force_profile.csv")
    assert len(rows) == 36
    assert set(_column(rows, "ripple_pct")) == {want.ripple_pct}
    assert set(_column(rows, "f_mean")) == {want.mean}
    np.testing.assert_array_equal(_bits(_column(rows, "t")), _bits(want.t))
    for m in (1, 2, 3):
        np.testing.assert_array_equal(_bits(_column(rows, f"f_phase_{m}")),
                                      _bits(want.per_phase[m - 1]))
    np.testing.assert_array_equal(_bits(_column(rows, "f_total")), _bits(want.total))
    angle = _read_csv(out / "force_angle.csv")
    assert len(angle) == 36
    assert list(angle[0]) == ["x_0", "f_total"]
    x0s, totals = quantities.force_angle_sweep(design, table, 36)
    np.testing.assert_array_equal(_bits(_column(angle, "x_0")), _bits(x0s))
    np.testing.assert_array_equal(_bits(_column(angle, "f_total")), _bits(totals))
    assert _manifest(out)["outputs"] == ["force_angle.csv",
                                         "force_profile.csv"]


def test_force_default_shift_hits_optimum(config_path, tmp_path, capsys):
    out = tmp_path / "force"
    assert cli.main(["force", "--config", str(config_path),
                     "--out", str(out)]) == 0
    rows = _read_csv(out / "force_profile.csv")
    assert _column(rows, "f_mean")[0] == pytest.approx(MEAN_FORCE_OPEN[2],
                                                       rel=1e-12)
    assert "x_0 = 0.03" in capsys.readouterr().out


def test_emf_outputs(config_path, tmp_path):
    out = tmp_path / "emf"
    assert cli.main(["emf", "--config", str(config_path), "--out", str(out),
                     "--nt", "24"]) == 0
    rows = _read_csv(out / "emf.csv")
    assert len(rows) == 24
    assert list(rows[0]) == (["t"] + [f"lambda_{m}" for m in (1, 2, 3)]
                             + [f"emf_{m}" for m in (1, 2, 3)]
                             + [f"i_{m}" for m in (1, 2, 3)]
                             + [f"thd_{m}" for m in (1, 2, 3)])
    design, trunc = load_design(str(config_path))
    table = quantities.line_table(design, laplace.solve_coefficients(
        design, fourier_coefficients(design, trunc)))
    ts = quantities.period_grid(design, 24)
    want = quantities.emf_time_series(design, table, 0.0, 24)
    thd = quantities.emf_thd(table)
    np.testing.assert_array_equal(_bits(_column(rows, "t")), _bits(ts))
    for m in (1, 2, 3):
        for key, values in (("lambda", want.flux_linkage[m - 1]),
                            ("emf", want.emf[m - 1]), ("i", want.current[m - 1]),
                            ("thd", np.full(24, thd[m - 1]))):
            np.testing.assert_array_equal(_bits(_column(rows, f"{key}_{m}")),
                                          _bits(values))


def test_normal_zero_offset_single_row(config_path, tmp_path):
    out = tmp_path / "normal"
    assert cli.main(["normal", "--config", str(config_path),
                     "--out", str(out)]) == 0
    rows = _read_csv(out / "normal.csv")
    assert len(rows) == 1
    assert float(rows[0]["f_net"]) == 0.0


def test_normal_offset_sweep(config_path, tmp_path):
    out = tmp_path / "normal"
    assert cli.main(["normal", "--config", str(config_path), "--out", str(out),
                     "--g0", "3e-4"]) == 0
    rows = _read_csv(out / "normal.csv")
    assert len(rows) == 13
    # full-precision floats round-trip through the CSV
    assert float(rows[-1]["f_net"]) == pytest.approx(NET_PULL[3e-4], rel=1e-12)
    nets = _column(rows, "f_net")
    assert all(a < b for a, b in zip(nets, nets[1:]))


@pytest.mark.parametrize("g0", ["-1e-4", "0.001", "0.0005"])
def test_normal_offset_outside_gap_is_usage_error(config_path, tmp_path, capsys,
                                                  monkeypatch, g0):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved an offset before checking --g0")

    monkeypatch.setattr(quantities, "misalignment_force", no_solve)
    out = tmp_path / "normal"
    assert cli.main(["normal", "--config", str(config_path), "--out", str(out),
                     f"--g0={g0}"]) == 2
    err = capsys.readouterr().err
    assert f"--g0 {float(g0)!r} must satisfy" in err
    assert not out.exists()


def test_verify_skip_fd(config_path, tmp_path, capsys):
    out = tmp_path / "verify"
    rc = cli.main(["verify", "--config", str(config_path), "--out", str(out),
                   "--skip-fd"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "48/48 checks passed" in captured
    rows = _read_csv(out / "verify_report.csv")
    assert len(rows) == 48
    assert all(r["status"] == "PASS" for r in rows)
    assert not any("fd-midgap" in r["name"] for r in rows)


def test_verify_reports_on_a_sub_micron_stack(config_path, tmp_path, capsys):
    # the tri-model draws keep a y range inside a 0.1 um stack
    text = config_path.read_text()
    for key, value in (("lambda_m", "100"), ("gap_m", "1e-7"),
                       ("coil_height_m", "1e-7"), ("pm_height_m", "1e-7")):
        text = re.sub(rf"^{key} .*$", f"{key} = {value}", text, flags=re.M)
    config_path.write_text(text)
    out = tmp_path / "verify"
    rc = cli.main(["verify", "--config", str(config_path), "--out", str(out),
                   "--skip-fd"])
    assert "error" not in capsys.readouterr().err
    rows = _read_csv(out / "verify_report.csv")
    assert len(rows) == 48
    assert rc == (0 if all(r["status"] == "PASS" for r in rows) else 1)
    # back-iron rows are left out: their dense references lose digits on
    # so thin a stack
    assert all(r["status"] == "PASS" for r in rows if "open" in r["name"])


def test_verify_reports_an_fd_grid_too_coarse_for_the_array(config_path, tmp_path,
                                                            capsys):
    # at lambda_m = 0.08 the open-back oracle grid puts 14.3 cells across
    # the array: its rows fail, and the rest of the report is still written
    text = re.sub(r"^lambda_m .*$", "lambda_m = 0.08", config_path.read_text(),
                  flags=re.M)
    config_path.write_text(text)
    out = tmp_path / "verify"
    rc = cli.main(["verify", "--config", str(config_path), "--out", str(out)])
    assert "error" not in capsys.readouterr().err
    assert rc == 1
    rows = _read_csv(out / "verify_report.csv")
    failed = [r for r in rows if r["status"] == "FAIL"]
    assert [r["name"] for r in failed] == [f"fd-midgap N_m={n} open" for n in (2, 3, 4, 5)]
    for r in failed:
        assert "14.3 cells" in r["detail"] and "--skip-fd" in r["detail"]
        assert float(r["margin"]) > 1
    assert sum(r["name"].startswith("fd-midgap") for r in rows) == 8


def test_verify_catches_planted_sign_error(config_path, tmp_path, capsys,
                                           monkeypatch):
    original = laplace.assemble_system

    def flipped(design, src, n):
        A, rhs = original(design, src, n)
        A = A.copy()
        A[1] = -A[1]
        return A, rhs

    monkeypatch.setattr(laplace, "assemble_system", flipped)
    rc = cli.main(["verify", "--config", str(config_path),
                   "--out", str(tmp_path), "--skip-fd"])
    captured = capsys.readouterr().out
    assert rc == 1
    assert "FAIL boundary-rows" in captured


@pytest.mark.parametrize("back_iron", [False, True])
def test_verify_catches_doubled_fundamental(back_iron, trunc):
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    good = laplace.solve_coefficients(design, src)
    x1 = good.x1.copy()
    x1[0] *= 2
    bad = dataclasses.replace(good, x1=x1)
    assert verify.check_closed_vs_dense(design, src, good).passed
    assert not verify.check_closed_vs_dense(design, src, bad).passed
    maps, _ = verify.check_tri_model(design, src, bad, n_points=20)
    assert not maps.passed


@pytest.mark.parametrize("back_iron", [False, True])
def test_closed_vs_dense_check_solves_the_dense_system(back_iron, trunc, monkeypatch):
    # a sign error in the dense rows alone must show: the check may not
    # compare the closed form with itself
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    coeffs = laplace.solve_coefficients(design, src)
    original = laplace._scaled_system

    def flipped(*args):
        A, rhs = original(*args)
        A[:, 0, 1] = -A[:, 0, 1]
        return A, rhs

    monkeypatch.setattr(laplace, "_scaled_system", flipped)
    assert not verify.check_closed_vs_dense(design, src, coeffs).passed


def test_flipped_closed_form_column_is_physics_failure(config_path, tmp_path, capsys,
                                                       monkeypatch):
    original = laplace.closed_form_coefficients

    def flipped(design, source):
        coeffs = original(design, source)
        return dataclasses.replace(coeffs, x3=-coeffs.x3)

    monkeypatch.setattr(laplace, "closed_form_coefficients", flipped)
    out = tmp_path / "force"
    assert cli.main(["force", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("physics failure: boundary solve residual")
    assert not out.exists()


def _plant_in_kernel(monkeypatch, fault):
    """Route every field evaluation through a faulty region kernel."""
    original = laplace._region_terms

    def faulty(design, coeffs, y, region):
        return fault(design, coeffs, y, *original(design, coeffs, y, region))

    monkeypatch.setattr(laplace, "_region_terms", faulty)
    monkeypatch.setattr(poisson, "_region_terms", faulty)


@pytest.mark.parametrize("back_iron", [False, True])
def test_interface_jumps_catch_flipped_region_two_term(monkeypatch, trunc,
                                                       back_iron):
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    coeffs = laplace.solve_coefficients(design, src)
    assert verify.check_interface_jumps(design, src, coeffs).passed

    def flip_x4(design, coeffs, y, region, nk, P, Q):
        return region, nk, P, -Q if region == "II" else Q

    _plant_in_kernel(monkeypatch, flip_x4)
    assert not verify.check_interface_jumps(design, src, coeffs).passed


@pytest.mark.parametrize("back_iron", [False, True])
def test_interface_jumps_catch_a_small_region_two_error(trunc, back_iron):
    # a clean solve sits near 1e-15 of the local max; a 1e-5 relative
    # error in x4 moves it to about 8e-6
    design = make_case(2, back_iron)
    src = fourier_coefficients(design, trunc)
    coeffs = laplace.solve_coefficients(design, src)
    assert verify.check_interface_jumps(design, src, coeffs).passed
    bad = dataclasses.replace(coeffs, x4=coeffs.x4 * (1 + 1e-5))
    assert not verify.check_interface_jumps(design, src, bad).passed


def _scale_vector_bx_weights(monkeypatch):
    original = poisson._vector_weights

    def faulty(design, source, coeffs, y, region):
        region, Ws, Wc = original(design, source, coeffs, y, region)
        Wc = Wc.copy()
        Wc[..., 1, :] *= 1 + 1e-8     # the B_x row
        return region, Ws, Wc

    monkeypatch.setattr(poisson, "_vector_weights", faulty)


def _scale_back_emf(monkeypatch):
    original = quantities.back_emf

    def faulty(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, emf=res.emf * (1 + 1e-8))

    monkeypatch.setattr(quantities, "back_emf", faulty)


def _failing_families(design, trunc):
    return [r.name.rsplit(" N_m=", 1)[0]
            for r in verify.verify_design(design, trunc, skip_fd=True) if not r.passed]


@pytest.mark.parametrize("back_iron", [False, True])
@pytest.mark.parametrize("plant, family", [
    (_scale_vector_bx_weights, "tri-model fields"),
    (_scale_back_emf, "power-balance"),
])
def test_planted_fault_fails_its_family_alone(monkeypatch, trunc, back_iron,
                                              plant, family):
    design = make_case(2, back_iron)
    assert _failing_families(design, trunc) == []
    plant(monkeypatch)
    assert _failing_families(design, trunc) == [family]


@pytest.mark.parametrize("model", ["laplace", poisson.MODEL_SCALAR,
                                   poisson.MODEL_VECTOR])
def test_fault_planted_between_two_maps_shows_in_the_second(monkeypatch, trunc,
                                                            model):
    """The height reuse closes with each map: a second map of the very same
    objects runs the planted kernel, not the first map's weights, even on a
    first row that repeats the first map's last."""
    design = make_case(2, False)
    src = fourier_coefficients(design, trunc)
    solve, evaluator = cli._MODELS[model]
    coeffs = solve(design, src)
    xs = np.array([0.0, 0.011, 0.027])
    inside = design.g_e + 0.5 * design.h_m
    ys = np.array([inside, 0.3 * design.g_e, inside])

    def field_map():
        return laplace.field_map(design, src, coeffs, xs, ys, evaluator)

    clean = field_map()

    def flip_x4(design, coeffs, y, region, nk, P, Q):
        return region, nk, P, -Q if region == "II" else Q

    _plant_in_kernel(monkeypatch, flip_x4)
    faulty = field_map()
    assert _bits(faulty.B_x[1]).tolist() == _bits(clean.B_x[1]).tolist()
    for j in (0, 2):
        assert not np.isclose(faulty.B_x[j], clean.B_x[j]).any()
        for i, x in enumerate(xs.tolist()):
            assert faulty.B_x[j, i] == evaluator(design, src, coeffs, x, inside).B_x


def test_fd_midgap_catches_wrong_region_one_exponent(monkeypatch, trunc):
    design = make_case(2, False)
    coeffs = laplace.solve_coefficients(design, fourier_coefficients(design, trunc))
    assert verify.check_fd_midgap(design, coeffs).passed

    def mirrored_exponent(design, coeffs, y, region, nk, P, Q):
        if region == "I":
            P = coeffs.x1 * np.exp(nk * (design.g_e - y))
        return region, nk, P, Q

    _plant_in_kernel(monkeypatch, mirrored_exponent)
    assert not verify.check_fd_midgap(design, coeffs).passed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_max", [399, 3001])
def test_verify_passes_at_high_nmax(config_path, tmp_path, capsys, n_max):
    rc = cli.main(["verify", "--config", str(config_path), "--out",
                   str(tmp_path), "--skip-fd", "--nmax", str(n_max)])
    assert rc == 0
    assert "48/48 checks passed" in capsys.readouterr().out


def test_sweep_outputs(config_path, tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--axis", "h_c=0.003:0.005:3"]) == 0
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 3
    scores = _column(rows, "score")
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["points"] == 3
    assert summary["best_index"] == int(np.argmax(scores))
    assert summary["best_score"] == scores.max()
    assert summary["best_point"]["h_c"] == float(
        rows[summary["best_index"]]["h_c"])
    assert _manifest(out)["params"]["axis"] == [
        ["h_c", np.linspace(0.003, 0.005, 3).tolist()]]


def test_optimize_outputs(config_path, tmp_path):
    out = tmp_path / "opt"
    assert cli.main(["optimize", "--config", str(config_path),
                     "--out", str(out), "--bounds", "h_c=0.001:0.012",
                     "--coarse", "5", "--passes", "1"]) == 0
    rows = _read_csv(out / "optimize_trace.csv")
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["evaluations"] == len(rows)
    scores = summary["incumbent_scores"]
    assert all(a <= b for a, b in zip(scores, scores[1:]))
    assert 0.001 <= summary["best_point"]["h_c"] <= 0.012
    assert summary["best_metrics"]["ripple_pct"] is not None


def test_optimize_with_every_axis_fixed_scores_once(config_path, tmp_path,
                                                    monkeypatch):
    calls = []
    original = studio.evaluate_design

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(studio, "evaluate_design", counted)
    out = tmp_path / "opt"
    assert cli.main(["optimize", "--config", str(config_path), "--out", str(out),
                     "--bounds", "h_c=0.004:0.004", "--passes", "30"]) == 0
    rows = _read_csv(out / "optimize_trace.csv")
    assert len(rows) == 1 and rows[0]["pass"] == "0"
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["evaluations"] == 1
    assert len(summary["incumbent_scores"]) == 1
    assert len(calls) == 2      # the coarse point and the final re-score


def _csv_module_bytes(table: dict) -> bytes:
    """What csv.writer writes for a name -> column table, floats as %.17g."""
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(list(table))
    writer.writerows(zip(*([c if isinstance(c, list) else
                            [format(v, ".17g") for v in np.asarray(c, dtype=float)]
                            for c in table.values()])))
    return ref.getvalue().encode("utf-8")


def test_csv_writer_matches_csv_module(tmp_path):
    table = {"x": np.array([0.1, -0.0, 1e-300, np.nan, np.inf, 3]),
             "tag, \"quoted\"": ["a", "b,c", 'say "hi"', "two\nlines", "", "cr\r"],
             "n": np.array([1.5, -2.25, 7, 0.0, -np.inf, 2 ** 0.5])}
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), table)
    assert path.read_bytes() == _csv_module_bytes(table)
    # an empty sole cell is quoted, and rows past one chunk stream on
    long = {"s": ["", "x"] * (cli._CSV_CHUNK_ROWS + 3)}
    cli._write_csv(str(path), long)
    assert path.read_bytes() == _csv_module_bytes(long)


def test_csv_writer_does_not_copy_a_column_that_needs_no_quotes(tmp_path):
    region = ["I", "II", "III", "II"] * (cli._CSV_CHUNK_ROWS // 2 + 1)
    assert cli._quoted(region, False) is region
    assert cli._quoted(region, True) is region
    assert cli._quoted(["I", "a,b", "I"], False) == ["I", '"a,b"', "I"]
    path = tmp_path / "t.csv"
    for table in ({"x": np.arange(len(region)) / 3, "region": region},
                  {"region": region}):
        cli._write_csv(str(path), table)
        assert path.read_bytes() == _csv_module_bytes(table)


def test_sizing_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "sizing"
    assert cli.main(["sizing", "--config", str(config_path), "--out", str(out),
                     "--b-av", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("shear stress:")
    rows = _read_csv(out / "sizing.csv")
    assert len(rows) == 1
    assert float(rows[0]["tau_av_N_per_m2"]) == 20000.0
    assert float(rows[0]["f_av_N"]) == 32.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j_av", ["1e5", "1e308"])
def test_sizing_overflow_is_physics_failure(config_path, tmp_path, capsys, j_av):
    # the shear stress overflows at either current density, and the loss
    # density too at 1e308: no inf reaches sizing.csv, no OverflowError escapes
    out = tmp_path / "sizing"
    assert cli.main(["sizing", "--config", str(config_path), "--out", str(out),
                     "--b-av", "1e308", "--j-av", j_av]) == 1
    assert capsys.readouterr().err.startswith("physics failure: overflow")
    assert not out.exists()


def test_nmax_override_recorded(config_path, tmp_path):
    out = tmp_path / "o"
    assert cli.main(["fields", "--config", str(config_path), "--out", str(out),
                     "--grid", "8x4", "--nmax", "99"]) == 0
    man = _manifest(out)
    assert man["params"]["n_max_harmonic"] == 99
    assert man["params"]["nmax"] == 99


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["fields", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG_TEXT + "voltage_V = 12\n")
    rc = cli.main(["emf", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, key, value", [
    ("force", "frequency_Hz", "0.0"),
    ("emf", "frequency_Hz", "0.0"),
    ("sweep", "sigma_cu_S_m", "0"),
    ("sweep", "rho_pm_kg_m3", "-5"),
    ("emf", "turns_per_coil", "0"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "bad.cfg"
    lines = [ln for ln in CONFIG_TEXT.splitlines() if not ln.startswith(key)]
    cfg.write_text("\n".join(lines + [f"{key} = {value}", ""]))
    extra = ["--axis", "h_c=0.003:0.005:2"] if command == "sweep" else []
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out), *extra])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()  # no CSV and no manifest.json


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["force", "sweep"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_phase_offset_exits_2(tmp_path, capsys, command, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG_TEXT + f"phi0_rad = {value}\n")
    extra = ["--axis", "h_c=0.003:0.005:2"] if command == "sweep" else []
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out), *extra])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: config key 'phi0_rad': phi_0 must be finite, got {value}\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [
    ("--alpha", "400"),      # a^alpha overflows
    ("--beta", "1e308"),     # P_cu^beta overflows
    ("--w-thd", "1000"),     # THD^w underflows to a zero denominator
])
def test_objective_overflow_is_physics_failure(config_path, tmp_path, capsys,
                                               flag, value):
    out = tmp_path / "out"
    rc = cli.main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--axis", "h_c=0.003:0.005:2", flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("physics failure: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_version_has_one_source():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parents[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is beta in old setuptools
        conf = pyprojecttoml.read_configuration(root / "pyproject.toml")
    assert conf["project"]["version"] == halmotor.__version__


def test_bad_sweep_axis_exits_2(config_path, tmp_path, capsys):
    rc = cli.main(["sweep", "--config", str(config_path),
                   "--out", str(tmp_path), "--axis", "g=0.001:0.002:2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["256", "2048x1024", "100000x100000"])
def test_malformed_grid_is_usage_error(config_path, tmp_path, grid):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fields", "--config", str(config_path),
                  "--out", str(tmp_path), "--grid", grid])
    assert exc.value.code == 2


def test_malformed_axis_spec_is_usage_error(config_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(config_path),
                  "--out", str(tmp_path), "--axis", "h_c=1:2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["emf", "--nt", "1"],
    ["force", "--nt", "0"],
    ["force", "--nt", "1"],
    ["force", "--nscan", "0"],
    ["optimize", "--bounds", "h_c=0.001:0.012", "--coarse", "0"],
    ["optimize", "--bounds", "h_c=0.001:0.012", "--coarse", "1"],
    ["optimize", "--bounds", "h_c=0.001:0.012", "--passes", "-3"],
], ids=["emf-nt-1", "force-nt-0", "force-nt-1", "force-nscan-0",
        "optimize-coarse-0", "optimize-coarse-1", "optimize-passes-neg"])
def test_bad_count_is_usage_error(config_path, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(config_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "h_c=0.002:0.01:3", "--axis", "h_c=0.003:0.004:2"],
    ["optimize", "--bounds", "h_c=0.001:0.017", "--bounds", "h_c=0.002:0.003"],
], ids=["sweep-axis", "optimize-bounds"])
def test_repeated_key_is_usage_error(config_path, tmp_path, capsys, monkeypatch,
                                     argv):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated a design before checking the keys")

    monkeypatch.setattr(studio, "evaluate_design", no_evaluation)
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", str(config_path), "--out", str(out)]) == 2
    assert f"{argv[1]} h_c is given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_lattice_over_cap_is_usage_error(config_path, tmp_path, capsys,
                                                  monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("built the coarse lattice before counting it")

    monkeypatch.setattr(studio, "evaluate_design", no_lattice)
    monkeypatch.setattr(studio.np, "meshgrid", no_lattice)
    out = tmp_path / "out"
    assert cli.main(["optimize", "--config", str(config_path), "--out", str(out),
                     "--bounds", "h_c=0.001:0.017", "--bounds", "h_m=0.004:0.024",
                     "--coarse", "400"]) == 2
    assert "160000 points exceeds 100000" in capsys.readouterr().err
    assert not out.exists()
    # one free axis past the cap is refused before its coarse axis is built
    monkeypatch.setattr(studio.np, "arange", no_lattice)
    assert cli.main(["optimize", "--config", str(config_path), "--out", str(out),
                     "--bounds", "h_c=0.001:0.017", "--coarse", "1000000000"]) == 2
    assert "1000000000 points exceeds 100000" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_axis_over_cap_is_refused_before_allocation(config_path, tmp_path,
                                                         capsys, monkeypatch):
    def no_axis(*args, **kwargs):
        raise AssertionError("built the axis before counting it")

    monkeypatch.setattr(cli.np, "linspace", no_axis)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(config_path), "--out", str(out),
                  "--axis", "h_c=0.001:0.002:100001"])
    assert exc.value.code == 2
    assert "axis of 100001 points exceeds 100000" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_passes_below_float_resolution_is_usage_error(
        config_path, tmp_path, capsys, monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("scored a design before checking the passes")

    monkeypatch.setattr(studio, "evaluate_design", no_evaluation)
    out = tmp_path / "out"
    assert cli.main(["optimize", "--config", str(config_path), "--out", str(out),
                     "--bounds", "h_c=0.001:0.012", "--coarse", "3",
                     "--passes", "60"]) == 2
    err = capsys.readouterr().err
    assert "error: passes = 60 refines 'h_c' below float resolution" in err
    assert not out.exists()


def test_resolution_guard_leaves_admissible_optimize_unchanged(config_path, tmp_path,
                                                               monkeypatch):
    argv = ["optimize", "--config", str(config_path), "--bounds", "h_c=0.001:0.012",
            "--coarse", "3", "--passes", "2"]
    assert cli.main([*argv, "--out", str(tmp_path / "guarded")]) == 0
    monkeypatch.setattr(studio, "_RESOLUTION_ULPS", 0)
    assert cli.main([*argv, "--out", str(tmp_path / "unguarded")]) == 0
    for name in ("optimize_trace.csv", "summary.json"):
        assert ((tmp_path / "guarded" / name).read_bytes()
                == (tmp_path / "unguarded" / name).read_bytes())


def test_floating_point_fault_is_physics_failure(config_path, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(quantities, "emf_thd", lambda table:
                        np.zeros(len(table.lines)) / np.zeros(len(table.lines)))
    out = tmp_path / "emf"
    assert cli.main(["emf", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("physics failure: invalid value")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n_max", ["4", "-3", "0"])
def test_bad_nmax_is_usage_error(config_path, tmp_path, capsys, n_max):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["force", "--config", str(config_path), "--out", str(out),
                  "--nmax", n_max])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --nmax: n_max must be an odd integer >= 1" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["force", "--x0", "nan"],
    ["fields", "--ymax", "nan"],
    ["normal", "--g0", "nan"],
    ["sizing", "--b-av", "nan"],
    ["sweep", "--axis", "h_c=0.003:0.005:2", "--alpha", "nan"],
    ["emf", "--x0", "inf"],
    ["optimize", "--bounds", "h_c=0.001:inf"],
], ids=["force-x0-nan", "fields-ymax-nan", "normal-g0-nan", "sizing-b-av-nan",
        "sweep-alpha-nan", "emf-x0-inf", "optimize-bounds-inf"])
def test_non_finite_float_is_usage_error(config_path, tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(config_path), "--out", str(out)])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_no_float_flag_skips_the_finite_check():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.type is not float, (name, action.dest)


def test_no_command_imports_numpy_ma(config_path, tmp_path):
    # numpy.ma (pulled in by np.unique, among others) adds about 1 MB of
    # resident memory to every run; a fresh interpreter shows what loads it.
    # numpy is the only runtime dependency, so no package that only the
    # tests use may load either
    commands = [["fields", "--grid", "8x4"], ["force", "--nt", "8", "--nscan", "8"],
                ["emf", "--nt", "8"], ["normal"], ["sizing", "--b-av", "0.5"],
                ["sweep", "--axis", "h_c=0.003:0.005:3"],
                ["optimize", "--bounds", "h_c=0.001:0.012", "--coarse", "3",
                 "--passes", "1"],
                ["verify", "--skip-fd"]]
    script = (
        "import sys\n"
        "from halmotor import cli\n"
        f"for argv in {commands!r}:\n"
        f"    rc = cli.main([*argv, '--config', {str(config_path)!r},\n"
        f"                   '--out', {str(tmp_path)!r} + '/' + argv[0]])\n"
        "    assert rc == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "test_only = {m.partition('.')[0] for m in sys.modules} & {\n"
        "    'scipy', 'mpmath', 'hypothesis', 'pytest'}\n"
        "assert not test_only, test_only\n")
    src = str(Path(halmotor.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
