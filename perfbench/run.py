"""halmotor benchmark: the real CLI, run in-process, on configs drawn from a seed.

    python3 perfbench/run.py --workload {fieldmap,studio,oracle} --seed N
                             --seconds S --trace {0,1} [--smoke] [--fault CHECK]

A workload is a closed loop: its command list (see workloads.py) runs back
to back, one pass after another, while the next pass is expected to end
within --seconds of measured time.  Each command is
`halmotor.cli.main(argv)` timed from outside; its outputs are checked
after the pass, outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with spans around every public function of halmotor's
modules (tracing.py), and reports the per-layer metrics.  --smoke runs one
untraced and one traced pass at a tiny size and reports both sets.
--fault corrupts the named check's output on the first pass, to show that
the check fails.

Times are reported in reference seconds (see `Runner.bracketed`).  The
last line of stdout is one JSON object: correct, attempted, failed
(commands), metrics.  The line before it holds the drawn design, the raw
and reference timings with their sample counts, and any failures.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: the benchmark measures the
# single-threaded program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7
MIN_PASSES = 3
KERNEL_REPS = 3
# The reference kernel's median time on the machine this benchmark was
# tuned on (a 2-core x86-64 VM, Python 3.11, numpy 2.4) when it was not
# slowed by other load.  Changing it rescales every reported time.
REF_NOMINAL_S = 0.013

END_TO_END = {"setup_s": "s", "pass_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB", "ok_frac": "frac"}

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import halmotor; "
               "halmotor.load_design(sys.argv[2])")


def reference_kernel() -> float:
    """Wall time of fixed numpy work of the program's two kinds, in about
    equal parts: small-array calls from a Python loop (as in the per-point
    field evaluators) and whole-array passes over a (3, 100, 720) tensor
    (as in the periodic quantities)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 100)
    big = np.linspace(0.0, 1.0, 3 * 100 * 720).reshape(3, 100, 720)
    t0 = time.perf_counter()
    for i in range(600):
        (np.sin(x * i) * np.exp(-x * i)).sum()
    for i in range(2):
        np.cos(big * i).sum()
    return time.perf_counter() - t0


def summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    if n > 10:
        out["p"] = math.floor(100 * (n - 10) / n)
        out["p_value"] = s[n - 11]
    return out


@dataclass
class Pass:
    """One pass of a workload.  `raw` and `ref` hold each command's time in
    seconds and in reference seconds."""

    raw: dict[str, float]
    ref: dict[str, float]
    work: float
    bytes: int
    snap: dict | None

    @property
    def factor(self) -> float:
        return sum(self.ref.values()) / sum(self.raw.values())


def pass_time(passes: list[Pass]) -> float:
    """Sum over the commands of each command's median reference time.

    Each command's samples are reduced separately, so a slow moment shifts
    one sample of one command, not a whole pass."""
    return sum(statistics.median(p.ref[c] for p in passes) for c in passes[0].ref)


class Runner:
    """Runs passes of one workload, checks their outputs, counts failures."""

    def __init__(self, workload, cli, fault: str | None):
        self.wl = workload
        self.cli = cli
        self.fault = fault
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.kernel_s: list[float] = []
        self.n_passes = 0

    def bracketed(self, calls) -> list[tuple[object, float, float]]:
        """Run and time each call, with KERNEL_REPS reference kernels before
        the first call and after every call.

        Returns (result, seconds, reference seconds) per call.  The CPU
        speed of a shared machine drifts by tens of percent over seconds
        to minutes, so each call's time is scaled by REF_NOMINAL_S over the
        median kernel time just before and just after it.  The kernel is
        benchmark code: no change to halmotor moves it."""
        before = [reference_kernel() for _ in range(KERNEL_REPS)]
        self.kernel_s += before
        out = []
        for call in calls:
            t0 = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t0
            after = [reference_kernel() for _ in range(KERNEL_REPS)]
            self.kernel_s += after
            scale = REF_NOMINAL_S / statistics.median(before + after)
            out.append((result, dt, dt * scale))
            before = after
        return out

    def measure_setup(self, cfg: Path, reps: int) -> list[tuple]:
        """A fresh interpreter importing halmotor and loading cfg, timed."""
        cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(cfg)]
        subprocess.run(cmd, check=True)      # byte-compiles a fresh checkout
        return self.bracketed([lambda: subprocess.run(cmd, check=True)] * reps)

    def _call(self, argv: list[str]) -> int | str:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.cli.main(argv)
        except Exception as exc:     # a crashing command is a failed command
            return f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:    # argparse rejects its argv this way
            return f"exit {exc.code}: {sink.getvalue().strip()[-200:]}"

    def run_pass(self, tracer=None) -> Pass:
        cmds = self.wl.commands
        for cmd in cmds:    # so that no check can read a previous pass's output
            shutil.rmtree(cmd.out, ignore_errors=True)
        with tracer if tracer is not None else contextlib.nullcontext():
            if tracer is not None:
                tracer.reset()
            timed = self.bracketed([lambda c=c: self._call(c.argv) for c in cmds])
        snap = tracer.snapshot() if tracer is not None else None
        self.n_passes += 1
        written = self._check({c.label: code for c, (code, _, _) in zip(cmds, timed)})
        try:
            work = self.wl.work()
        except OSError:     # a failed command left no output to count
            work = 0.0
        return Pass({c.label: t for c, (_, t, _) in zip(cmds, timed)},
                    {c.label: r for c, (_, _, r) in zip(cmds, timed)},
                    work, written, snap)

    def _check(self, codes: dict) -> int:
        """Run every output check; returns the bytes the commands wrote."""
        if self.fault is not None:
            for cmd in self.wl.commands:
                for chk in cmd.checks:
                    if chk.name == self.fault:
                        chk.plant()
            self.fault = None
        written = 0
        for cmd in self.wl.commands:
            self.attempted += 1
            problems = [] if codes[cmd.label] == 0 else [f"exit {codes[cmd.label]}"]
            for chk in cmd.checks:
                if problems:
                    break
                try:
                    msg = chk.run()
                except Exception as exc:   # an unreadable output fails its check
                    msg = f"{type(exc).__name__}: {exc}"
                if msg is not None:
                    problems.append(f"{chk.name}: {msg}")
            if problems:
                self.failed += 1
                self.failures.append(f"pass {self.n_passes} {cmd.label}: "
                                     + "; ".join(problems))
            written += _bytes_written(cmd.out)
        return written

    def passes(self, seconds: float, minimum: int, tracer=None) -> list[Pass]:
        """At least `minimum` passes, then more while the next one is
        expected to end within `seconds` of measured time."""
        out: list[Pass] = []
        spent = 0.0
        while len(out) < minimum or spent + spent / len(out) <= seconds:
            out.append(self.run_pass(tracer))
            spent += sum(out[-1].raw.values())
        return out


def _bytes_written(out: Path) -> int:
    """Bytes of the outputs a command's manifest lists (not the manifest,
    whose wall time varies in length)."""
    try:
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError):
        return 0
    return sum((out / name).stat().st_size for name in outputs)


def layer_metrics(wl, untraced: list[Pass], traced: list[Pass], all_labels,
                  span_names) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and span-count mismatches.

    Self times are scaled to reference seconds by their pass's factor."""
    med = statistics.median
    metrics = {}
    for name in span_names:
        metrics[f"{name}.calls"] = (med(p.snap["calls"][name] for p in traced), "count")
        metrics[f"{name}.self_ms"] = (
            med(1e3 * p.factor * p.snap["self_s"][name] for p in traced), "ms")
        metrics[f"{name}.errors"] = (med(p.snap["errors"][name] for p in traced),
                                     "count")
    n_eval = med(p.snap["calls"]["studio.evaluate_design"] for p in traced)
    metrics["cli.bytes_written"] = (med(p.bytes for p in untraced + traced), "bytes")
    metrics["fdcheck.cells"] = (med(p.snap["fd_cells"] for p in traced), "count")
    metrics["studio.unique_point_ratio"] = (
        med(p.snap["distinct_designs"] for p in traced) / n_eval if n_eval else 0.0,
        "ratio")
    metrics["trace.overhead_ms"] = (1e3 * (pass_time(traced) - pass_time(untraced)),
                                    "ms")
    metrics["trace.unaccounted_ms"] = (
        med(1e3 * p.factor * (sum(p.raw.values()) - sum(p.snap["self_s"].values()))
            for p in traced), "ms")
    for label in all_labels:
        times = [p.ref[label] for p in untraced if label in p.ref]
        metrics[f"cmd.{label}_s"] = (med(times) if times else 0.0, "s")

    mismatches = []
    expected = wl.span_counts()
    for i, p in enumerate(traced):
        for name, want in expected.items():
            got = p.snap["calls"][name]
            if got != want:
                mismatches.append(f"traced pass {i}: {name} made {got} calls, "
                                  f"expected {want}")
    return metrics, mismatches


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("fieldmap", "studio", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="one untraced and one traced pass at a tiny size")
    p.add_argument("--fault", default=None, metavar="CHECK",
                   help="corrupt CHECK's output on the first pass")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "halmotor" / "__init__.py").is_file():
        print(f"error: halmotor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from halmotor import cli

    import tracing
    import workloads

    run_root = ROOT / ".perfbench_run"
    out = run_root / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out, args.smoke)
        checks = [c.name for cmd in wl.commands for c in cmd.checks]
        if args.fault is not None and args.fault not in checks:
            print(f"error: --fault must be one of {checks}", file=sys.stderr)
            return 2
        runner = Runner(wl, cli, args.fault)
        setup = runner.measure_setup(out / "design.cfg",
                                     1 if args.smoke else SETUP_REPS)
        tracer = tracing.Tracer()
        if args.smoke:
            untraced = runner.passes(0, 1)
            traced = runner.passes(0, 1, tracer)
        elif args.trace:
            untraced = runner.passes(args.seconds / 2, MIN_PASSES - 1)
            traced = runner.passes(args.seconds / 2, MIN_PASSES - 1, tracer)
        else:
            untraced = runner.passes(args.seconds, MIN_PASSES)
            traced = []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        metrics = {}
        mismatches = []
        if args.smoke or not args.trace:
            p_s = pass_time(untraced)
            e2e = {
                "setup_s": statistics.median(r for _, _, r in setup),
                "pass_s": p_s,
                "work_per_s": statistics.median(p.work for p in untraced) / p_s,
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": 1.0 - runner.failed / runner.attempted,
            }
            metrics.update({k: (v, END_TO_END[k]) for k, v in e2e.items()})
        if traced:
            layers, mismatches = layer_metrics(wl, untraced, traced,
                                               workloads.COMMAND_LABELS,
                                               tracing.SPAN_NAMES)
            metrics.update(layers)

        def timings(passes: list[Pass], field: str) -> dict:
            return {c: summary([getattr(p, field)[c] for p in passes])
                    for c in passes[0].raw} if passes else {}

        detail = {
            "workload": wl.name, "seed": args.seed, "design": wl.design,
            "work_unit": wl.work_unit,
            "kernel_s": summary(runner.kernel_s),
            "setup_s": summary([t for _, t, _ in setup]),
            "setup_ref_s": summary([r for _, _, r in setup]),
            "commands_s": timings(untraced, "raw"),
            "commands_ref_s": timings(untraced, "ref"),
            "traced_commands_ref_s": timings(traced, "ref"),
            "failures": runner.failures + mismatches,
        }
        print(json.dumps(detail))
        print(json.dumps({
            "correct": runner.failed == 0 and not mismatches,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
