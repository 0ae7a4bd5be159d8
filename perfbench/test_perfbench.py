"""Smoke tests of the benchmark itself: python -m pytest perfbench

Each workload runs once at a tiny size and must pass its output checks and
emit every metric that BENCHMARK.json names; each output check must fail
when its planted fault corrupts one output value.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAULTS = {
    "fieldmap": ("fields.airgap-row", "fields.tri-model.poisson-scalar",
                 "fields.tri-model.poisson-vector"),
    "studio": ("sweep.best-is-max", "optimize.best-is-max", "optimize.incumbents",
               "optimize.rescore"),
    "oracle": ("verify.all-pass", "force.quadrature", "emf.spectral-derivative",
               "normal.net"),
}


def _smoke(workload: str, *extra: str, root: Path = ROOT):
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def _result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(FAULTS))
def test_smoke_passes_checks_and_emits_every_metric(workload):
    detail, result = _result(_smoke(workload))
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] == 2 * len(detail["commands_s"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(result["metrics"]) == names
    for name in (m["name"] for m in spec["end_to_end"]):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload,check",
                         [(w, c) for w, checks in FAULTS.items() for c in checks])
def test_planted_fault_fails_its_check(workload, check):
    detail, result = _result(_smoke(workload, "--fault", check))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert any(f": {check}: " in f for f in detail["failures"]), detail["failures"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _smoke("studio", root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
