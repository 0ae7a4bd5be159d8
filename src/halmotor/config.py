"""Machine description and config file parsing.

Geometry convention: x runs along the direction of travel, y across the
airgap.  y = 0 is one stator face, the coil band occupies [0, h_c], the
airgap clearance [h_c, g_e] with g_e = h_c + g, and the magnet array
[g_e, g_e + h_m].  The machine is symmetric about the array mid-plane, so
one side is solved and per-side results are doubled where appropriate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    InvalidMagnetCount,
    InvalidValue,
    MissingKey,
    NonPositiveLength,
    OffsetExceedsGap,
    UnknownKey,
    UnsupportedPhaseCount,
)

MU0 = 4e-7 * math.pi

# The winding.  Go side m = 1..N_ph spans [m - 3/2, m - 1/2) slot widths on
# the stator, so side 1 straddles x = 0; the return sides follow one pole
# pitch on with opposite sign.  _SLOT_PATTERN gives (sign, phase index j) per
# go side: its current density is sign * J cos(w t - (j - 1) 2 pi / N_ph + phi_0).
_SLOT_PATTERN = {
    3: ((1, 1), (-1, 3), (1, 2)),
    5: ((1, 1), (-1, 4), (1, 2), (-1, 5), (1, 3)),
}
# _SLOT_PATTERN as (N_ph, 1) columns: the sign and the lag (j - 1) 2 pi / N_ph
_SLOT_PHASES = {n_ph: (np.array(p)[:, :1], (np.array(p)[:, 1:] - 1) * 2 * math.pi / n_ph)
                for n_ph, p in _SLOT_PATTERN.items()}


@dataclass(frozen=True)
class MotorDesign:
    """Geometry, material, and excitation parameters for one machine.

    Lengths in m, remanence in T, current density in A/m^2, frequency in Hz.
    `L` is the active depth of the modelled unit (into the page).
    """

    lam: float                 # spatial period (pole-pair pitch)
    g: float                   # mechanical clearance between coil band and magnets
    h_c: float                 # coil band height
    h_m: float                 # magnet height
    L: float                   # active depth
    N_m: int                   # magnets per pole
    N_ph: int = 3              # phases (3 or 5)
    back_iron: bool = False
    B_r: float = 1.1           # remanence
    J_max: float = 1e7         # peak current density
    f: float = 50.0            # electrical frequency
    phi_0: float = 0.0         # current phase offset
    N_turns: int = 100         # turns per coil
    rho_pm: float = 7000.0     # magnet density, kg/m^3
    rho_cu: float = 9000.0     # conductor density (incl. fill), kg/m^3
    sigma_cu: float = 5.8e7    # conductor conductivity, S/m
    g_0: float = 0.0           # static gap offset of the mover

    def __post_init__(self):
        for name in ("lam", "g", "h_c", "h_m", "L"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise NonPositiveLength(name, v)
        if not isinstance(self.N_m, int) or self.N_m < 2:
            raise InvalidMagnetCount(self.N_m)
        if self.N_ph not in (3, 5):
            raise UnsupportedPhaseCount(self.N_ph)
        if not (0 <= self.g_0 < self.g):
            raise OffsetExceedsGap(self.g_0, self.g)
        for name in ("J_max", "f"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidValue(
                    name, f"{name} must be finite and non-negative, got {v!r}")
        for name in ("B_r", "sigma_cu", "rho_pm", "rho_cu"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidValue(name, f"{name} must be finite and positive, got {v!r}")
        if not math.isfinite(self.phi_0):
            raise InvalidValue("phi_0", f"phi_0 must be finite, got {self.phi_0!r}")
        if not isinstance(self.N_turns, int) or self.N_turns < 1:
            raise InvalidValue("N_turns",
                               f"N_turns must be an integer >= 1, got {self.N_turns!r}")

    # derived, read-only
    @property
    def k(self) -> float:
        """Fundamental wavenumber 2 pi / lam."""
        return 2 * math.pi / self.lam

    @property
    def tau_p(self) -> float:
        """Pole pitch lam / 2."""
        return self.lam / 2

    @property
    def omega(self) -> float:
        return 2 * math.pi * self.f

    @property
    def M(self) -> float:
        """Magnetization magnitude B_r / mu_0."""
        return self.B_r / MU0

    @property
    def g_e(self) -> float:
        """Electromagnetic airgap h_c + g (coil band plus clearance)."""
        return self.h_c + self.g

    @property
    def u(self) -> float:
        """Synchronous speed f * lam."""
        return self.f * self.lam

    @property
    def w_m(self) -> float:
        """Magnet width (lam / 2) / N_m."""
        return self.tau_p / self.N_m

    @property
    def dtheta(self) -> float:
        """Magnetization rotation step between adjacent magnets, pi / N_m."""
        return math.pi / self.N_m

    @property
    def slot_width(self) -> float:
        """Coil-side width (lam / 2) / N_ph."""
        return self.tau_p / self.N_ph

    def with_gap(self, g: float) -> "MotorDesign":
        return replace(self, g=g, g_0=0.0)


@dataclass(frozen=True)
class HarmonicTruncation:
    """Odd-harmonic cutoff: harmonics 1, 3, ..., n_max are retained."""

    n_max: int = 199

    def __post_init__(self):
        if not isinstance(self.n_max, int) or self.n_max < 1 or self.n_max % 2 == 0:
            raise InvalidValue(
                "n_max", f"n_max must be an odd integer >= 1, got {self.n_max!r}")

    @property
    def orders(self) -> np.ndarray:
        return np.arange(1, self.n_max + 1, 2)


# config-file vocabulary: key -> (attribute, parser, required)
def _as_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


_CONFIG_KEYS: dict[str, tuple[str, object, bool]] = {
    "lambda_m": ("lam", float, True),
    "gap_m": ("g", float, True),
    "coil_height_m": ("h_c", float, True),
    "pm_height_m": ("h_m", float, True),
    "depth_m": ("L", float, True),
    "n_magnets_per_pole": ("N_m", int, True),
    "n_phases": ("N_ph", int, True),
    "back_iron": ("back_iron", _as_bool, True),
    "remanence_T": ("B_r", float, True),
    "j_max_A_per_m2": ("J_max", float, True),
    "frequency_Hz": ("f", float, True),
    "phi0_rad": ("phi_0", float, False),
    "turns_per_coil": ("N_turns", int, False),
    "rho_pm_kg_m3": ("rho_pm", float, False),
    "rho_cu_kg_m3": ("rho_cu", float, False),
    "sigma_cu_S_m": ("sigma_cu", float, False),
    "gap_offset_m": ("g_0", float, False),
    "n_max_harmonic": ("n_max", int, False),    # feeds HarmonicTruncation
}


def load_design(path) -> tuple[MotorDesign, HarmonicTruncation]:
    """Parse a `key = value` config file.

    Blank lines and `#` comments are ignored.  Unknown keys are rejected so
    that typos do not silently fall back to defaults.
    """
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
            key, _, val = body.partition("=")
            key = key.strip()
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = val.strip()

    for key in raw:
        if key not in _CONFIG_KEYS:
            raise UnknownKey(key)

    kwargs = {}
    for key, (attr, parse, required) in _CONFIG_KEYS.items():
        if key in raw:
            try:
                kwargs[attr] = parse(raw[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        elif required:
            raise MissingKey(key)

    trunc = {"n_max": kwargs.pop("n_max")} if "n_max" in kwargs else {}
    try:
        return MotorDesign(**kwargs), HarmonicTruncation(**trunc)
    except InvalidValue as exc:
        key = next(k for k, (attr, _, _) in _CONFIG_KEYS.items() if attr == exc.name)
        raise InvalidValue(exc.name, f"config key {key!r}: {exc}") from exc


def slot_offsets(design: MotorDesign) -> np.ndarray:
    """Left edge of each go side in slot widths, m - 3/2 for m = 1..N_ph."""
    return np.arange(1, design.N_ph + 1) - 1.5


def all_phase_currents(design: MotorDesign, t) -> np.ndarray:
    """Current density of every go side, shape (N_ph, len(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sign, lag = _SLOT_PHASES[design.N_ph]
    return sign * design.J_max * np.cos(design.omega * t - lag + design.phi_0)


class PeriodicSteps:
    """A periodic step profile, its exact interval averages and its exact
    Fourier coefficients.

    The profile takes values[i] on [edges[i], edges[i + 1]), moved by
    `origin` and repeated with period edges[-1] - edges[0].  Its running
    integral is piecewise linear, so the integral up to any x is a count of
    whole periods plus one interpolated lookup within a period, and interval
    averages stay exact however many periods or steps an interval spans.
    Each step integrates against e^{-i w x} in closed form, so the Fourier
    coefficients are finite sums over the steps.
    """

    def __init__(self, edges, values, origin: float = 0.0):
        self.edges = np.asarray(edges, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.origin = float(origin)

    @cached_property
    def _running(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.values * np.diff(self.edges))])

    def integral(self, x) -> np.ndarray:
        """Integral of the profile from origin + edges[0] up to x."""
        r = np.asarray(x, dtype=float) - self.origin
        period = self.edges[-1] - self.edges[0]
        wrap = np.floor((r - self.edges[0]) / period)
        return (wrap * self._running[-1]
                + np.interp(r - wrap * period, self.edges, self._running))

    def average(self, lo, hi) -> np.ndarray:
        """Exact mean of the profile over each interval [lo, hi)."""
        return (self.integral(hi) - self.integral(lo)) / (hi - lo)

    def fourier(self, n) -> np.ndarray:
        """Exact (2/P) * integral of f(x) e^{-2 pi i n x / P} over one period
        P, for each nonzero integer order n.

        Summed by parts: f jumps by values[i] - values[i - 1] at edges[i],
        and an integer order makes the two ends of the period cancel, so the
        coefficient is sum(jump e^{-i phase}) / (i pi n).
        """
        n = np.asarray(n)
        jumps = self.values - self.values[np.arange(-1, self.values.size - 1)]
        phase = np.multiply.outer(n, (self.edges[:-1] + self.origin)
                                  * (2 * np.pi / (self.edges[-1] - self.edges[0])))
        # real sines and cosines are cheaper than a complex exponential
        return -(np.sin(phase) @ jumps + 1j * (np.cos(phase) @ jumps)) / (np.pi * n)


def slot_current_profile(design: MotorDesign, t: float,
                         shift: float = 0.0) -> PeriodicSteps:
    """Slot current density J(x) of all 2 N_ph coil sides at time t.

    The profile is given in stator coordinates moved back by `shift`, so
    shift = u t + x_0 gives it in the frame of the array.
    """
    go = slot_offsets(design)
    sides = np.concatenate([go, go + design.N_ph, go[:1] + 2 * design.N_ph])
    J = all_phase_currents(design, float(t))[:, 0]
    return PeriodicSteps(sides * design.slot_width, np.concatenate([J, -J]),
                         origin=-shift)
