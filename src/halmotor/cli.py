"""Command-line front end.

Every subcommand loads a ``key = value`` config file and computes its
outputs; only then are its CSV files plus a ``manifest.json`` written into the
output directory and a short summary printed, so a command stopped by an error
writes nothing (a ``verify`` run with failing checks still writes its report).
CSV is the only output format: one header line, fixed column order, floats at
full precision ("%.17g"); plotting is left to external tools.

Subcommands: fields, force, emf, normal, sweep, optimize, sizing, verify.

Defaults (used when a flag is not given):

    --out           .              all subcommands
    --nmax          config value   all (config default 199)
    --model         laplace        fields
    --grid          256x128        fields: one wavelength by the full stack
                                   (at most 2**20 points)
    --ymax          g_e + h_m      fields: top of the mapped band (>= 0; at
                                   most g_e + h_m with back iron)
    --x0            force-angle optimum (force); 0.0 (emf)
    --nt            720            force, emf: samples per electrical period
                                   (the EMF THD is exact and does not use it)
    --nscan         360            force: force-angle sweep points
    --g0            config value   normal (gap_offset_m, default 0)
    normal offsets  13 rows from 0 to g0 (a single row when g0 = 0)
    --coarse        9              optimize: coarse points per axis
    --passes        2              optimize: halving refinement passes
    --j-av          config J_max   sizing
    FD oracle grid  1024x512       verify (--skip-fd bypasses it)
    stage           --stage-length 0.6  --stage-mass 100  --depth 0.3
                    --moving moving-PM  --nsu <units + 1>
    objective       --alpha 1.0  --beta 0.2  --w-thd/--w-ripple/--w-cost 0.0

Exit codes: 0 success, 1 physics-check failure (including a floating-point
division by zero, overflow or invalid operation), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__, fdcheck, laplace, poisson, quantities, studio, verify
from .config import HarmonicTruncation, MotorDesign, load_design
from .errors import HalmotorError, InvalidValue, NoConvergence, SingularSystem
from .halbach import fourier_coefficients

_MODELS = {
    "laplace": (laplace.solve_coefficients, laplace.evaluate_fields),
    poisson.MODEL_SCALAR: (poisson.solve_scalar, poisson.evaluate_fields_scalar),
    poisson.MODEL_VECTOR: (poisson.solve_vector, poisson.evaluate_fields_vector),
}
_MAX_GRID_POINTS = 1 << 20


class Outcome(NamedTuple):
    """What a command produced.  `files` maps each output name, in write
    order, to the payload of a ``.json`` name or to the table of a ``.csv``
    name: a dict from column name to column, a float array or a list of
    str, with the keys in header order.  `summary` is printed to stdout."""

    files: dict
    summary: str
    code: int = 0


_CSV_CHUNK_ROWS = 4096


def _quoted(column: list, sole: bool) -> list:
    """A str column's cells as csv.writer's default dialect writes them:
    quoted when they hold a comma, a quote or a line break, or when empty
    and the sole cell of their row.  A column with no such cell is
    returned itself, not copied."""
    def needs_quotes(cell: str) -> bool:
        return any(c in cell for c in ',"\r\n') or (sole and not cell)
    done = {cell: '"' + cell.replace('"', '""') + '"'
            for cell in set(column) if needs_quotes(cell)}
    if not done:
        return column
    return [done.get(cell, cell) for cell in column]


def _write_csv(path: str, table: dict) -> None:
    """Write a name -> column table as csv.writer would: a header line, then
    rows of floats as "%.17g" and str cells quoted where needed.

    Each row is one %-template over the columns, filled with Python floats
    that are taken a chunk of rows at a time, so a long table is never
    formatted whole in memory.
    """
    columns = [_quoted(col, len(table) == 1) if isinstance(col, list)
               else np.asarray(col, dtype=float) for col in table.values()]
    row = ",".join("%s" if isinstance(col, list) else "%.17g" for col in columns) + "\r\n"
    n_rows = min(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(table))
        for lo in range(0, n_rows, _CSV_CHUNK_ROWS):
            chunk = [col[lo:lo + _CSV_CHUNK_ROWS] if isinstance(col, list)
                     else col[lo:lo + _CSV_CHUNK_ROWS].tolist() for col in columns]
            fh.writelines(map(row.__mod__, zip(*chunk)))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=lambda v: v.tolist())
        fh.write("\n")


def _count_at_least(low: int):
    """argparse type for an integer count of at least `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _n_max(text: str) -> int:
    """argparse type for a harmonic cutoff, checked by HarmonicTruncation."""
    try:
        return HarmonicTruncation(int(text)).n_max
    except ValueError as exc:  # InvalidValue is a ValueError too
        raise argparse.ArgumentTypeError(str(exc))


def _grid_spec(text: str) -> tuple[int, int]:
    nx, _, ny = text.lower().partition("x")
    try:
        pair = int(nx), int(ny)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NXxNY, got {text!r}")
    if pair[0] < 2 or pair[1] < 2:
        raise argparse.ArgumentTypeError("grid must be at least 2x2")
    if pair[0] * pair[1] > _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid of {pair[0] * pair[1]} points exceeds {_MAX_GRID_POINTS}")
    return pair


def _finite_float(text: str) -> float:
    """argparse type for a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _key_numbers(text: str, form: str) -> tuple[str, list[str]]:
    """Split a KEY=A:B... flag value into the key and as many fields as
    `form` names."""
    key, eq, span = text.partition("=")
    parts = span.split(":")
    if not eq or len(parts) != form.count(":") + 1:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return key.strip(), parts


def _axis_spec(text: str) -> tuple[str, np.ndarray]:
    key, (lo, hi, n) = _key_numbers(text, "KEY=LO:HI:N")
    count = _count_at_least(1)(n)
    if count > studio.MAX_SWEEP_POINTS:  # refuse before allocating the axis
        raise argparse.ArgumentTypeError(
            f"axis of {count} points exceeds {studio.MAX_SWEEP_POINTS}")
    return key, np.linspace(_finite_float(lo), _finite_float(hi), count)


def _bounds_spec(text: str) -> tuple[str, tuple[float, float]]:
    key, (lo, hi) = _key_numbers(text, "KEY=LO:HI")
    return key, (_finite_float(lo), _finite_float(hi))


def _stage(args: argparse.Namespace) -> studio.StageSpec:
    return studio.StageSpec(L_stage=args.stage_length, m_stage=args.stage_mass,
                            L_depth=args.depth, moving_member=args.moving,
                            N_su=args.nsu)


def _objective(args: argparse.Namespace) -> studio.ObjectiveConfig:
    return studio.ObjectiveConfig(alpha=args.alpha, beta=args.beta,
                                  w_thd=args.w_thd, w_ripple=args.w_ripple,
                                  w_cost=args.w_cost,
                                  cost_drive=args.cost_drive)


def _phases(prefix: str, rows) -> dict:
    """Name the rows of a per-phase array prefix1, prefix2, ..."""
    return {f"{prefix}{m}": row for m, row in enumerate(rows, 1)}


def _by_key(flag: str, pairs: list[tuple]) -> dict:
    """KEY -> value of a repeatable KEY=... flag, refusing a repeated KEY."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise InvalidValue(key, f"{flag} {key} is given more than once")
    return dict(pairs)


def cmd_fields(args: argparse.Namespace, design: MotorDesign,
               trunc: HarmonicTruncation) -> Outcome:
    y_max = design.g_e + design.h_m if args.ymax is None else args.ymax
    laplace.classify_region(design, y_max, "--ymax")  # refused before any solve
    solver, evaluator = _MODELS[args.model]
    src = fourier_coefficients(design, trunc)
    coeffs = solver(design, src)
    nx, ny = args.grid
    xs = np.arange(nx) * design.lam / nx
    ys = np.linspace(0.0, y_max, ny)
    fmap = laplace.field_map(design, src, coeffs, xs, ys, evaluator)
    table = ({"x": np.tile(fmap.x, ny), "y": np.repeat(fmap.y, nx),
              "region": [r for r in fmap.region for _ in range(nx)]}
             | {name: getattr(fmap, name).ravel() for name in laplace.MAP_FIELDS})
    return Outcome({"fields.csv": table},
                   f"fields: {nx}x{ny} {args.model} map -> {args.out}/fields.csv")


def cmd_force(args: argparse.Namespace, design: MotorDesign,
              trunc: HarmonicTruncation) -> Outcome:
    coeffs = laplace.solve_coefficients(design, fourier_coefficients(design, trunc))
    table = quantities.line_table(design, coeffs)
    x0s, totals = quantities.force_angle_sweep(design, table, args.nscan)
    x_0 = float(x0s[np.argmax(totals)]) if args.x0 is None else args.x0
    force = quantities.thrust_time_series(design, table, x_0, args.nt)
    profile = ({"t": force.t} | _phases("f_phase_", force.per_phase)
               | {"f_total": force.total, "f_mean": np.full_like(force.t, force.mean),
                  "ripple_pct": np.full_like(force.t, force.ripple_pct)})
    return Outcome({"force_angle.csv": {"x_0": x0s, "f_total": totals},
                    "force_profile.csv": profile},
                   f"force: x_0 = {x_0:.6g} m, mean = {force.mean:.6f} N, "
                   f"ripple = {force.ripple_pct:.4f} %")


def cmd_emf(args: argparse.Namespace, design: MotorDesign,
            trunc: HarmonicTruncation) -> Outcome:
    coeffs = laplace.solve_coefficients(design, fourier_coefficients(design, trunc))
    table = quantities.line_table(design, coeffs)
    emf = quantities.emf_time_series(design, table, args.x0, args.nt)
    thd = quantities.emf_thd(table)
    columns = ({"t": emf.t} | _phases("lambda_", emf.flux_linkage)
               | _phases("emf_", emf.emf) | _phases("i_", emf.current)
               | _phases("thd_", np.multiply.outer(thd, np.ones(len(emf.t)))))
    peak = float(np.abs(emf.emf).max())
    return Outcome({"emf.csv": columns},
                   f"emf: peak = {peak:.4f} V, THD = {float(thd[0]):.6f}")


def cmd_normal(args: argparse.Namespace, design: MotorDesign,
               trunc: HarmonicTruncation) -> Outcome:
    g0_max = design.g_0 if args.g0 is None else args.g0
    if not 0 <= g0_max < design.g:
        raise InvalidValue("g_0", f"--g0 {g0_max!r} must satisfy 0 <= g_0 < g = {design.g}")
    offsets = np.linspace(0.0, g0_max, 13) if g0_max > 0 else np.array([0.0])
    forces = [quantities.misalignment_force(design, trunc, g_0=float(g0))
              for g0 in offsets]
    table = {name: np.array([getattr(f, name.removeprefix("f_")) for f in forces])
             for name in ("g_0", "f_nominal", "f_small_gap", "f_large_gap", "f_net")}
    return Outcome({"normal.csv": table},
                   f"normal: per-side pull {forces[0].nominal:.4f} N, "
                   f"net at g_0 = {g0_max:.4g} m: {forces[-1].net:.4f} N")


def cmd_verify(args: argparse.Namespace, design: MotorDesign,
               trunc: HarmonicTruncation) -> Outcome:
    results = verify.verify_suite(design, trunc, skip_fd=args.skip_fd)
    report = {"name": [r.name for r in results],
              "status": ["PASS" if r.passed else "FAIL" for r in results],
              "margin": np.array([r.margin for r in results], dtype=float),
              "detail": [r.detail for r in results]}
    return Outcome({"verify_report.csv": report}, verify.format_report(results),
                   0 if all(r.passed for r in results) else 1)


def _best(point: dict[str, float]) -> str:
    return ", ".join(f"{k} = {v:.6g}" for k, v in point.items())


def cmd_sweep(args: argparse.Namespace, design: MotorDesign,
              trunc: HarmonicTruncation) -> Outcome:
    result = studio.sweep(design, _stage(args), _objective(args),
                          _by_key("--axis", args.axis), trunc)
    summary = {
        "best_index": result.best_index,
        "best_point": result.best_point,
        "best_score": result.best_score,
        "points": int(result.table.shape[0]),
    }
    return Outcome({"sweep.csv": dict(zip(result.columns, result.table.T)),
                    "summary.json": summary},
                   f"sweep: {result.table.shape[0]} points, best score "
                   f"{result.best_score:.6f} at {_best(result.best_point)}")


def cmd_optimize(args: argparse.Namespace, design: MotorDesign,
                 trunc: HarmonicTruncation) -> Outcome:
    result = studio.optimize(design, _stage(args), _objective(args),
                             _by_key("--bounds", args.bounds), trunc,
                             coarse=args.coarse, passes=args.passes)
    summary = {
        "best_point": result.best_point,
        "best_score": result.best_score,
        "best_metrics": dataclasses.asdict(result.best_metrics),
        "evaluations": int(result.trace.shape[0]),
        "incumbent_scores": result.incumbent_scores,
    }
    return Outcome({"optimize_trace.csv": dict(zip(result.trace_columns, result.trace.T)),
                    "summary.json": summary},
                   f"optimize: {result.trace.shape[0]} evaluations, best score "
                   f"{result.best_score:.6f} at {_best(result.best_point)}")


def cmd_sizing(args: argparse.Namespace, design: MotorDesign,
               trunc: HarmonicTruncation) -> Outcome:
    j_av = design.J_max if args.j_av is None else args.j_av
    sizing = studio.initial_sizing(args.b_av, j_av, design)
    names = ["tau_av_N_per_m2", "f_av_N", "p_per_volume_W_per_m3"]
    columns = np.array([[sizing.tau_av], [sizing.f_av], [sizing.p_per_volume]])
    return Outcome({"sizing.csv": dict(zip(names, columns))},
                   f"shear stress: {sizing.tau_av:.6g} N/m^2\n"
                   f"unit-cell force: {sizing.f_av:.6g} N\n"
                   f"loss density: {sizing.p_per_volume:.6g} W/m^3")


def _run(args: argparse.Namespace) -> int:
    """Load the config, run the command, and only then create --out, write
    the command's files and the manifest, and print the summary."""
    design, trunc = load_design(args.config)
    if args.nmax is not None:
        trunc = HarmonicTruncation(args.nmax)
    started = time.perf_counter()
    # underflow is left alone: e^{-nky} underflows legitimately at high n
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        outcome = args.func(args, design, trunc)
    os.makedirs(args.out, exist_ok=True)
    for name, content in outcome.files.items():
        path = os.path.join(args.out, name)
        if name.endswith(".json"):
            _write_json(path, content)
        else:
            _write_csv(path, content)
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "config", "out")}
    params["design"] = dataclasses.asdict(design)
    params["n_max_harmonic"] = trunc.n_max
    _write_json(os.path.join(args.out, "manifest.json"), {
        "command": args.command,
        "config": os.path.abspath(args.config),
        "params": params,
        "outputs": list(outcome.files),
        "version": __version__,
        "duration_s": time.perf_counter() - started,
    })
    print(outcome.summary)
    return outcome.code


def _add_stage_objective(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--stage-length", type=_finite_float, default=0.6,
                     help="stage length in m (default 0.6)")
    sub.add_argument("--stage-mass", type=_finite_float, default=100.0,
                     help="payload-side stage mass in kg (default 100)")
    sub.add_argument("--depth", type=_finite_float, default=0.3,
                     help="stage in-depth length in m (default 0.3)")
    sub.add_argument("--moving", choices=(studio.MOVING_PM, studio.MOVING_STATOR),
                     default=studio.MOVING_PM,
                     help="which member moves (default moving-PM)")
    sub.add_argument("--nsu", type=int, default=None,
                     help="stator unit count (default: PM units + 1)")
    sub.add_argument("--alpha", type=_finite_float, default=1.0,
                     help="acceleration exponent (default 1.0)")
    sub.add_argument("--beta", type=_finite_float, default=0.2,
                     help="copper-loss exponent (default 0.2)")
    sub.add_argument("--w-thd", type=_finite_float, default=0.0,
                     help="EMF THD weight in the extended objective")
    sub.add_argument("--w-ripple", type=_finite_float, default=0.0,
                     help="force-ripple weight in the extended objective")
    sub.add_argument("--w-cost", type=_finite_float, default=0.0,
                     help="drive-cost weight in the extended objective")
    sub.add_argument("--cost-drive", type=_finite_float, default=None,
                     help="drive cost scalar, required when --w-cost > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halmotor",
        description="Field solutions and design studies for slotless "
                    "double-sided Halbach linear motors.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="design config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--nmax", type=_n_max, default=None,
                       help="override the config's harmonic truncation")
        p.set_defaults(func=func)
        return p

    p = sub("fields", cmd_fields, "field map over one wavelength")
    p.add_argument("--model", choices=tuple(_MODELS), default="laplace",
                   help="solution formulation (default laplace)")
    p.add_argument("--grid", type=_grid_spec, default=(256, 128),
                   metavar="NXxNY", help="map resolution (default 256x128)")
    p.add_argument("--ymax", type=_finite_float, default=None,
                   help="top of the mapped band in m, >= 0 and at most g_e + h_m "
                        "with back iron (default: g_e + h_m)")

    p = sub("force", cmd_force, "thrust profile and force-angle sweep")
    p.add_argument("--x0", type=_finite_float, default=None,
                   help="array shift in m (default: force-angle optimum)")
    p.add_argument("--nt", type=_count_at_least(2), default=720,
                   help="time samples per period (default 720)")
    p.add_argument("--nscan", type=_count_at_least(1), default=360,
                   help="force-angle sweep points (default 360)")

    p = sub("emf", cmd_emf, "flux linkage, back-EMF, and phase currents")
    p.add_argument("--x0", type=_finite_float, default=0.0,
                   help="array shift in m (default 0)")
    p.add_argument("--nt", type=_count_at_least(2), default=720,
                   help="time samples per period (default 720)")

    p = sub("normal", cmd_normal, "attraction force and misalignment sweep")
    p.add_argument("--g0", type=_finite_float, default=None,
                   help="max gap offset in m (default: config gap_offset_m)")

    p = sub("sweep", cmd_sweep, "full-factorial design sweep")
    p.add_argument("--axis", type=_axis_spec, action="append", required=True,
                   metavar="KEY=LO:HI:N",
                   help="sweep axis, one of lam/h_m/h_c (repeatable)")
    _add_stage_objective(p)

    p = sub("optimize", cmd_optimize, "coarse-to-fine design optimization")
    p.add_argument("--bounds", type=_bounds_spec, action="append",
                   required=True, metavar="KEY=LO:HI",
                   help="axis bounds, one of lam/h_m/h_c (repeatable)")
    p.add_argument("--coarse", type=_count_at_least(2), default=9,
                   help="coarse grid points per axis (default 9)")
    p.add_argument("--passes", type=_count_at_least(0), default=2,
                   help="refinement passes (default 2)")
    _add_stage_objective(p)

    p = sub("sizing", cmd_sizing, "rule-of-thumb initial sizing")
    p.add_argument("--b-av", type=_finite_float, required=True,
                   help="average airgap flux density in T")
    p.add_argument("--j-av", type=_finite_float, default=None,
                   help="average current density in A/m^2 (default: config)")

    p = sub("verify", cmd_verify, "run the physics verification suite")
    p.add_argument("--skip-fd", action="store_true",
                   help="skip the finite-difference cross-check")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (SingularSystem, NoConvergence, FloatingPointError) as exc:
        print(f"physics failure: {exc}", file=sys.stderr)
        return 1
    except (HalmotorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
