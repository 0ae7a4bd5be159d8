"""Benchmark workloads: the seed's design, each workload's command list, and
the output checks with the fault each one must catch.

A workload is a list of halmotor CLI commands run back to back.  Each
command has one or more output checks; a command fails when it exits
nonzero or any of its checks fails.  Every check has a planted fault: a
single corrupted output value that the check must reject.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import halmotor
from halmotor import quantities, studio

# Reference design (the package's table1 config), fixed here so that the
# workloads do not change when the repository's example configs do.
TABLE1 = {
    "lambda_m": 0.04,
    "gap_m": 0.0005,
    "coil_height_m": 0.004,
    "pm_height_m": 0.007,
    "depth_m": 0.04,
    "n_magnets_per_pole": 2,
    "n_phases": 3,
    "back_iron": "false",
    "remanence_T": 1.1,
    "j_max_A_per_m2": 1.0e7,
    "frequency_Hz": 50.0,
}
DRAWN = ("lambda_m", "gap_m", "coil_height_m", "pm_height_m", "remanence_T")
DRAW_RANGE = (0.8, 1.25)

FD_CELLS = 1024 * 512          # verify's FD oracle grid
VERIFY_VARIANTS = 8            # N_m 2..5 times open/iron


def draw_design(seed: int) -> dict:
    """table1 with the drawn keys scaled by factors log-uniform in DRAW_RANGE."""
    rng = np.random.default_rng(seed)
    lo, hi = (math.log(v) for v in DRAW_RANGE)
    values = dict(TABLE1)
    for key, u in zip(DRAWN, rng.uniform(lo, hi, len(DRAWN))):
        values[key] = TABLE1[key] * math.exp(float(u))
    return values


def write_config(path: Path, values: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float)
                            else f"{k} = {v}\n" for k, v in values.items()))
    return path


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[], str | None]      # None when the output is right
    plant: Callable[[], None]          # corrupts one output value


@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path
    checks: list[Check] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    design: dict
    commands: list[Command]
    work_unit: str
    work: Callable[[], float]                    # work units in one pass
    span_counts: Callable[[], dict[str, int]]    # independent call counts


# ---------------------------------------------------------------- CSV helpers

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)


def _columns(path: Path, names) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    idx = [header.index(n) for n in names]
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=idx, ndmin=2)


def _scale_cell(path: Path, column: str, pick: Callable[[np.ndarray], int],
                factor: float) -> None:
    """Multiply one cell of a CSV column, the row chosen by `pick`."""
    header, rows = _read_csv(path)
    j = header.index(column)
    values = np.array([float(r[j]) for r in rows])
    i = pick(values)
    rows[i][j] = format(values[i] * factor, ".17g")
    _write_csv(path, header, rows)


def _edit_json(path: Path, edit: Callable[[dict], None]) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _argmax_abs(v: np.ndarray) -> int:
    return int(np.argmax(np.abs(v)))


def _solve(cfg: Path):
    design, trunc = halmotor.load_design(cfg)
    src = halmotor.fourier_coefficients(design, trunc)
    return design, halmotor.solve_coefficients(design, src)


# ------------------------------------------------------------------ fieldmap

MODELS = ("laplace", "poisson-scalar", "poisson-vector")
TOL_TRI_MODEL = 1e-10
TOL_AIRGAP_ROW = 1e-12


def fieldmap(seed: int, out: Path, smoke: bool) -> Workload:
    """`fields` once per model on the seed's open-back design."""
    values = draw_design(seed)
    cfg = write_config(out / "design.cfg", values)
    nx, ny = (32, 16) if smoke else (256, 128)
    cmds = [Command(f"fields-{m}",
                    ["fields", "--config", str(cfg), "--out", str(out / m),
                     "--model", m, "--grid", f"{nx}x{ny}"], out / m)
            for m in MODELS]
    design, coeffs = _solve(cfg)
    mu0 = halmotor.MU0

    def fields(model: str) -> np.ndarray:
        """(x, y, B_x, B_y, mu0 H_x, mu0 H_y) per grid point."""
        m = _columns(out / model / "fields.csv",
                     ("x", "y", "B_x", "B_y", "H_x", "H_y"))
        m[:, 4:] *= mu0
        return m

    def tri_model(model: str) -> str | None:
        ref, got = fields("laplace"), fields(model)
        if got.shape != ref.shape or not np.array_equal(got[:, :2], ref[:, :2]):
            return f"{model} grid differs from the laplace grid"
        dev = float(np.abs(got[:, 2:] - ref[:, 2:]).max() / np.abs(ref[:, 2:]).max())
        if not dev <= TOL_TRI_MODEL:
            return f"{model} fields deviate from laplace by {dev:.2e} of the scale"
        return None

    def airgap_row() -> str | None:
        m = fields("laplace")
        ys = m[::nx, 1]
        j = int(np.argmin(np.abs(ys - design.g_e / 2)))
        row = m[j * nx:(j + 1) * nx]
        ref = halmotor.airgap_B_y(design, coeffs, row[:, 0], float(ys[j]))
        dev = float(np.abs(row[:, 3] - ref).max() / np.abs(m[:, 2:]).max())
        if not dev <= TOL_AIRGAP_ROW:
            return f"B_y row at y = {ys[j]:.6g} deviates from airgap_B_y by {dev:.2e}"
        return None

    def plant_tri_model(model: str) -> None:
        _scale_cell(out / model / "fields.csv", "B_x", _argmax_abs, 1.001)

    def plant_airgap_row() -> None:
        path = out / "laplace" / "fields.csv"
        ys = _columns(path, ("y",))[::nx, 0]
        j = int(np.argmin(np.abs(ys - design.g_e / 2)))
        _scale_cell(path, "B_y", lambda v: j * nx + _argmax_abs(v[j * nx:(j + 1) * nx]),
                    1.001)

    cmds[0].checks.append(Check("fields.airgap-row", airgap_row, plant_airgap_row))
    for cmd, model in zip(cmds[1:], MODELS[1:]):
        cmd.checks.append(Check(f"fields.tri-model.{model}",
                                functools.partial(tri_model, model),
                                functools.partial(plant_tri_model, model)))
    points = nx * ny
    return Workload(
        "fieldmap", values, cmds, "field points",
        work=lambda: 3.0 * points,
        span_counts=lambda: {"laplace.evaluate_fields": points,
                             "poisson.evaluate_fields_scalar": points,
                             "poisson.evaluate_fields_vector": points,
                             "laplace.field_map": 3})


# -------------------------------------------------------------------- studio

TOL_RESCORE = 1e-12


def studio_workload(seed: int, out: Path, smoke: bool) -> Workload:
    """A sweep and an optimize run with the THD and ripple terms on.

    h_c and h_m are the studied axes, so of the drawn keys only gap_m and
    remanence_T reach a design point.  lambda_m stays at table1: a point
    keeps only the harmonics with n k (g_e + h_m) <= EXPONENT_CAP, so a
    drawn wavelength would change how many harmonics, and so how much work,
    each point has.  The optimize bounds keep the coarse optimum away from
    the bounds for every draw, so both refinement passes always evaluate
    5 x 5 points.
    """
    values = dict(draw_design(seed), lambda_m=TABLE1["lambda_m"])
    cfg = write_config(out / "design.cfg", values)
    axes = (["--axis", "h_c=0.002:0.010:3", "--axis", "h_m=0.004:0.012:2"] if smoke
            else ["--axis", "h_c=0.002:0.010:9", "--axis", "h_m=0.004:0.012:5"])
    grid = ["--coarse", "3", "--passes", "1"] if smoke else []
    weights = ["--w-thd", "0.1", "--w-ripple", "0.1"]
    cmds = [
        Command("sweep", ["sweep", "--config", str(cfg), "--out", str(out / "sweep")]
                + axes, out / "sweep"),
        Command("optimize", ["optimize", "--config", str(cfg), "--out",
                             str(out / "optimize"), "--bounds", "h_c=0.001:0.017",
                             "--bounds", "h_m=0.004:0.024"] + weights + grid,
                out / "optimize"),
    ]
    sweep_dir, opt_dir = out / "sweep", out / "optimize"

    def best_is_max(d: Path, table: str) -> str | None:
        score = _columns(d / table, ("score",))[:, 0]
        best = json.loads((d / "summary.json").read_text())["best_score"]
        if best != score.max():
            return f"best score {best!r} is not the table maximum {float(score.max())!r}"
        return None

    def incumbents() -> str | None:
        s = json.loads((opt_dir / "summary.json").read_text())
        inc = np.asarray(s["incumbent_scores"])
        if np.any(np.diff(inc) < 0) or inc[-1] != s["best_score"]:
            return f"incumbent scores {inc.tolist()} decrease or miss the best"
        return None

    def rescore() -> str | None:
        s = json.loads((opt_dir / "summary.json").read_text())
        design, trunc = halmotor.load_design(cfg)
        point = dataclasses.replace(design, **s["best_point"])
        obj = studio.ObjectiveConfig(w_thd=0.1, w_ripple=0.1)
        _, score = studio.evaluate_design(point, studio.StageSpec(), obj, trunc)
        dev = abs(score - s["best_score"]) / abs(score)
        if not dev <= TOL_RESCORE:
            return f"re-scored best point differs by {dev:.2e}"
        return None

    def lower_best(d: Path) -> Callable[[], None]:
        return lambda: _edit_json(d / "summary.json", lambda p: p.update(
            best_score=p["best_score"] * 0.999))

    def plant_incumbents() -> None:
        def edit(p):
            p["incumbent_scores"][1] = p["incumbent_scores"][0] * 0.5
        _edit_json(opt_dir / "summary.json", edit)

    def plant_rescore() -> None:
        def edit(p):
            p["best_point"]["h_c"] *= 1 + 1e-6
        _edit_json(opt_dir / "summary.json", edit)

    cmds[0].checks.append(Check("sweep.best-is-max",
                                lambda: best_is_max(sweep_dir, "sweep.csv"),
                                lower_best(sweep_dir)))
    cmds[1].checks += [
        Check("optimize.best-is-max",
              lambda: best_is_max(opt_dir, "optimize_trace.csv"), lower_best(opt_dir)),
        Check("optimize.incumbents", incumbents, plant_incumbents),
        Check("optimize.rescore", rescore, plant_rescore),
    ]

    def design_points() -> int:
        rows = sum(len(_read_csv(p)[1]) for p in (sweep_dir / "sweep.csv",
                                                  opt_dir / "optimize_trace.csv"))
        return rows + 1     # optimize re-scores its best point once

    return Workload("studio", values, cmds, "design points",
                    work=lambda: float(design_points()),
                    span_counts=lambda: {"studio.evaluate_design": design_points(),
                                         "studio.sweep": 1, "studio.optimize": 1})


# -------------------------------------------------------------------- oracle

TOL_QUADRATURE = 1e-3
TOL_EMF = 1e-9
TOL_NET = 1e-12


def oracle(seed: int, out: Path, smoke: bool) -> Workload:
    """Full `verify` on the seed design, then `force`, `emf` and `normal` on
    its 5-phase back-iron variant.  The FD grid is fixed by `verify`, so the
    smoke size equals the full size."""
    values = draw_design(seed)
    cfg = write_config(out / "design.cfg", values)
    cfg5 = write_config(out / "design5.cfg",
                        dict(values, n_phases=5, back_iron="true"))
    cmds = [
        Command("verify", ["verify", "--config", str(cfg), "--out",
                           str(out / "verify")], out / "verify"),
        Command("force", ["force", "--config", str(cfg5), "--out",
                          str(out / "force")], out / "force"),
        Command("emf", ["emf", "--config", str(cfg5), "--out", str(out / "emf")],
                out / "emf"),
        Command("normal", ["normal", "--config", str(cfg5), "--out",
                           str(out / "normal"), "--g0", "3e-4"], out / "normal"),
    ]
    design5, coeffs5 = _solve(cfg5)
    report = out / "verify" / "verify_report.csv"

    def all_pass() -> str | None:
        _, rows = _read_csv(report)
        bad = [r[0] for r in rows if r[1] != "PASS"]
        if not rows or bad:
            return f"verify rows not PASS: {bad or 'no rows'}"
        return None

    def plant_all_pass() -> None:
        header, rows = _read_csv(report)
        rows[0][1] = "FAIL"
        _write_csv(report, header, rows)

    def quadrature() -> str | None:
        scan = _columns(out / "force" / "force_angle.csv", ("x_0", "f_total"))
        x0 = float(scan[int(np.argmax(scan[:, 1])), 0])
        f0 = float(_columns(out / "force" / "force_profile.csv", ("f_total",))[0, 0])
        ref = quantities.thrust_quadrature(design5, coeffs5, 0.0, x0)
        dev = abs(f0 - ref) / abs(ref)
        if not dev <= TOL_QUADRATURE:
            return f"f_total(t=0) = {f0:.9g} vs quadrature {ref:.9g} ({dev:.2e})"
        return None

    def spectral_emf() -> str | None:
        phases = range(1, design5.N_ph + 1)
        path = out / "emf" / "emf.csv"
        lam = _columns(path, [f"lambda_{m}" for m in phases])
        emf = _columns(path, [f"emf_{m}" for m in phases])
        nt = lam.shape[0]
        spec = np.fft.rfft(lam, axis=0)
        omega = 2 * np.pi * design5.f * np.arange(spec.shape[0])
        if nt % 2 == 0:
            omega[-1] = 0.0          # the Nyquist bin has no derivative
        dldt = np.fft.irfft(1j * omega[:, None] * spec, n=nt, axis=0)
        dev = float(np.abs(emf - dldt).max() / np.abs(emf).max())
        if not dev <= TOL_EMF:
            return f"EMF deviates from spectral dlambda/dt by {dev:.2e}"
        return None

    def net() -> str | None:
        f = _columns(out / "normal" / "normal.csv",
                     ("f_small_gap", "f_large_gap", "f_net"))
        dev = float(np.abs(f[:, 0] - f[:, 1] - f[:, 2]).max() / np.abs(f[:, 0]).max())
        if not dev <= TOL_NET:
            return f"f_net differs from f_small_gap - f_large_gap by {dev:.2e}"
        return None

    cmds[0].checks.append(Check("verify.all-pass", all_pass, plant_all_pass))
    cmds[1].checks.append(Check(
        "force.quadrature", quadrature,
        lambda: _scale_cell(out / "force" / "force_profile.csv", "f_total",
                            lambda v: 0, 1.01)))
    cmds[2].checks.append(Check(
        "emf.spectral-derivative", spectral_emf,
        lambda: _scale_cell(out / "emf" / "emf.csv", "emf_1", _argmax_abs, 1.001)))
    cmds[3].checks.append(Check(
        "normal.net", net,
        lambda: _scale_cell(out / "normal" / "normal.csv", "f_net",
                            lambda v: len(v) - 1, 1.001)))
    return Workload("oracle", values, cmds, "FD cells",
                    work=lambda: float(VERIFY_VARIANTS * FD_CELLS),
                    span_counts=lambda: {"fdcheck.solve_scalar_poisson": VERIFY_VARIANTS,
                                         "verify.verify_design": VERIFY_VARIANTS})


WORKLOADS = {"fieldmap": fieldmap, "studio": studio_workload, "oracle": oracle}
COMMAND_LABELS = tuple(f"fields-{m}" for m in MODELS) + (
    "sweep", "optimize", "verify", "force", "emf", "normal")
