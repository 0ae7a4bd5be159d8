"""Spans around the public functions of halmotor's modules.

Each traced function is one layer.  A span covers one call; its self time
is its duration minus the time covered by the spans it caused, so the self
times of one pass add up to the time spent inside the root span
(`cli.main`).  Only aggregates are kept: calls, self seconds and raised
exceptions per function, plus two layer counters (FD cells solved and the
distinct design points the studio scored).

Patching a module attribute alone would miss three kinds of binding, so
entering a `Tracer` swaps the original function object wherever halmotor
holds it: names bound by ``from .x import f`` in other modules, tuples in
module-level dicts (``cli._MODELS``) and default argument values
(``laplace.field_map``'s ``evaluator``).
"""
from __future__ import annotations

import functools
import sys
import time
import types

# (module, function) pairs; the module name is the layer name.
TARGETS = (
    ("config", "load_design"),
    ("halbach", "fourier_coefficients"),
    ("laplace", "solve_coefficients"),
    ("laplace", "closed_form_coefficients"),
    ("laplace", "evaluate_fields"),
    ("laplace", "field_map"),
    ("laplace", "airgap_B_y"),
    ("poisson", "solve_scalar"),
    ("poisson", "solve_vector"),
    ("poisson", "evaluate_fields_scalar"),
    ("poisson", "evaluate_fields_vector"),
    ("quantities", "force_angle_sweep"),
    ("quantities", "optimal_shift"),
    ("quantities", "thrust"),
    ("quantities", "back_emf"),
    ("quantities", "emf_thd"),
    ("quantities", "power_balance"),
    ("quantities", "misalignment_force"),
    ("quantities", "attraction_force"),
    ("fdcheck", "solve_scalar_poisson"),
    ("fdcheck", "midgap_comparison"),
    ("studio", "evaluate_design"),
    ("studio", "sweep"),
    ("studio", "optimize"),
    ("verify", "verify_design"),
    ("verify", "check_closed_vs_dense"),
    ("verify", "check_tri_model"),
    ("verify", "check_boundary_rows"),
    ("verify", "check_interface_jumps"),
    ("verify", "check_power_balance"),
    ("verify", "check_fd_midgap"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


class Tracer:
    """Install with `with tracer:`; read `snapshot()` before the next `reset()`."""

    def __init__(self):
        self._stack: list[float] = []
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.errors = dict.fromkeys(SPAN_NAMES, 0)
        self.fd_cells = 0
        self.designs: set = set()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "errors": dict(self.errors), "fd_cells": self.fd_cells,
                "distinct_designs": len(self.designs)}

    def _span(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                dt = clock() - t0
                self.calls[name] += 1
                self.self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if name == "fdcheck.solve_scalar_poisson":
                self.fd_cells += result.nx * result.ny
            elif name == "studio.evaluate_design":
                self.designs.add(args[0])
            return result

        return span

    def __enter__(self) -> "Tracer":
        mods = {n.rsplit(".", 1)[-1]: m for n, m in list(sys.modules.items())
                if n == "halmotor" or n.startswith("halmotor.")}
        swap = {}
        for mod, fn in TARGETS:
            original = getattr(mods[mod], fn)
            swap[id(original)] = (original, self._span(f"{mod}.{fn}", original))

        def replaced(value):
            hit = swap.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for module in mods.values():
            for key, value in list(vars(module).items()):
                new = replaced(value)
                if new is not None:
                    self._undo.append((setattr, module, key, value))
                    setattr(module, key, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(replaced(x) for x in v):
                            self._undo.append((dict.__setitem__, value, k, v))
                            value[k] = tuple(replaced(x) or x for x in v)
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    d = value.__defaults__
                    if any(replaced(x) for x in d):
                        self._undo.append((setattr, value, "__defaults__", d))
                        value.__defaults__ = tuple(replaced(x) or x for x in d)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            setter, obj, key, value = self._undo.pop()
            setter(obj, key, value)
        self._stack.clear()
