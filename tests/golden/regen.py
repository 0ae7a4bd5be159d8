"""Golden outputs: one fixed command list on three designs, run in-process.

    python tests/golden/regen.py        # rewrite the files, report changes

Each command writes into ``<design>/<command>/`` beside this script: its
CSV and JSON files as the CLI writes them, except that ``manifest.json``
loses ``config`` (an absolute path) and ``duration_s``, plus ``stdout.txt``,
the exit code and the printed summary with the output directory as
``<out>``.  ``tests/test_golden.py`` reruns the
list and compares bytes; `diff_report` says what moved.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from halmotor import cli  # noqa: E402

TABLE1 = (REPO / "configs" / "table1.cfg").read_text(encoding="utf-8")

# design name -> keys of table1.cfg replaced or added
DESIGNS = {
    "table1": {},
    "iron5": {"n_phases": "5", "back_iron": "true", "n_magnets_per_pole": "5"},
    "phi03": {"phi0_rad": "0.3"},
}

# command name -> argv after --config and --out
COMMANDS = {
    "fields-laplace": ["fields", "--grid", "16x8", "--model", "laplace"],
    "fields-poisson-scalar": ["fields", "--grid", "16x8", "--model", "poisson-scalar"],
    "fields-poisson-vector": ["fields", "--grid", "16x8", "--model", "poisson-vector"],
    "force": ["force", "--nt", "48", "--nscan", "72"],
    "emf": ["emf", "--nt", "48"],
    "normal": ["normal", "--g0", "3e-4"],
    "verify": ["verify", "--skip-fd"],
    "sweep": ["sweep", "--axis", "h_c=0.002:0.006:3", "--axis", "h_m=0.004:0.010:3"],
    "optimize": ["optimize", "--bounds", "h_c=0.002:0.008", "--bounds",
                 "h_m=0.004:0.012", "--coarse", "3", "--passes", "2",
                 "--w-thd", "0.1", "--w-ripple", "0.1"],
    "sizing": ["sizing", "--b-av", "0.6"],
}


def config_text(overrides: dict[str, str]) -> str:
    """table1.cfg with the overridden keys' lines dropped and re-added."""
    kept = [line for line in TABLE1.splitlines()
            if line.split("=")[0].strip() not in overrides]
    return "\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def run_all(dest: Path) -> None:
    """Run every command on every design into dest/<design>/<command>/."""
    with tempfile.TemporaryDirectory() as tmp:
        for design, overrides in DESIGNS.items():
            cfg = Path(tmp) / f"{design}.cfg"
            cfg.write_text(config_text(overrides), encoding="utf-8")
            for name, argv in COMMANDS.items():
                out = dest / design / name
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([argv[0], "--config", str(cfg), "--out", str(out),
                                     *argv[1:]])
                manifest = out / "manifest.json"
                record = json.loads(manifest.read_text(encoding="utf-8"))
                del record["config"], record["duration_s"]
                manifest.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
                printed = buf.getvalue().replace(str(out), "<out>")
                (out / "stdout.txt").write_text(f"exit {code}\n{printed}",
                                                encoding="utf-8")


def golden_files(root: Path) -> list[Path]:
    """Every output file under root's design folders, relative to root, in
    sorted order."""
    return sorted(p.relative_to(root) for design in DESIGNS
                  for p in (root / design).rglob("*") if p.is_file())


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_report(want: str, got: str) -> str:
    """Changed rows, and per numeric column the largest change relative to
    the column's largest magnitude, with the count of cells changed by at
    most 1e-12 of that scale (last digits only)."""
    a = list(csv.reader(io.StringIO(want)))
    b = list(csv.reader(io.StringIO(got)))
    if a[:1] != b[:1] or len(a) != len(b):
        return f"header or row count changed ({len(a)} -> {len(b)} lines)"
    rows = [i for i in range(1, len(a)) if a[i] != b[i]]
    parts = [f"{len(rows)} of {len(a) - 1} rows changed"]
    for j, name in enumerate(a[0]):
        old = [_float(r[j]) for r in a[1:]]
        new = [_float(r[j]) for r in b[1:]]
        if any(v is None for v in old + new):
            if [r[j] for r in a[1:]] != [r[j] for r in b[1:]]:
                parts.append(f"{name}: text changed")
            continue
        scale = max((abs(x) for x in old if x == x), default=0.0) or 1.0
        rel = [abs(x - y) / scale for x, y in zip(old, new)
               if x != y and not (x != x and y != y)]  # NaN equals NaN
        if rel:
            tiny = sum(r <= 1e-12 for r in rel)
            parts.append(f"{name}: {len(rel)} cells, max {max(rel):.2e} of scale, "
                         f"{tiny} at <= 1e-12")
    return "; ".join(parts)


def diff_report(want_root: Path, got_root: Path) -> list[str]:
    """One line per file that differs between two output trees."""
    want, got = set(golden_files(want_root)), set(golden_files(got_root))
    lines = [f"{p}: missing" for p in sorted(want - got)]
    lines += [f"{p}: unexpected" for p in sorted(got - want)]
    for p in sorted(want & got):
        a, b = (want_root / p).read_bytes(), (got_root / p).read_bytes()
        if a == b:
            continue
        a, b = a.decode("utf-8"), b.decode("utf-8")
        if p.suffix == ".csv":
            lines.append(f"{p}: {_csv_report(a, b)}")
        else:
            la, lb = a.splitlines(), b.splitlines()
            n = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
            lines.append(f"{p}: {n} of {len(la)} lines changed")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        run_all(fresh)
        report = diff_report(HERE, fresh) if golden_files(HERE) else ["(new)"]
        for design in DESIGNS:
            shutil.rmtree(HERE / design, ignore_errors=True)
            shutil.copytree(fresh / design, HERE / design)
    print("\n".join(report) or "no change")
    return 0


if __name__ == "__main__":
    sys.exit(main())
