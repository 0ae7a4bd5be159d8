"""Integral machine quantities: thrust, flux linkage, EMF, normal forces.

Everything here consumes the region-I amplitudes A1 of a solved harmonic
set.  The slot layout and the phase currents come from `config`
(`slot_offsets`, `all_phase_currents`, `slot_current_profile`); the
array is displaced by u t + x_0.  Forces are per stator unit cell (one
wavelength, both airgaps) at depth L.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (MU0, HarmonicTruncation, MotorDesign, all_phase_currents,
                     slot_current_profile, slot_offsets)
from .errors import OffsetExceedsGap, ZeroVelocity
from .halbach import fourier_coefficients
from .laplace import FieldCoefficients, _region_terms, solve_coefficients


@dataclass(frozen=True)
class ForceResult:
    """Thrust over a time grid: per-phase rows plus their sum."""

    t: np.ndarray
    per_phase: np.ndarray
    total: np.ndarray
    mean: float
    ripple_pct: float


@dataclass(frozen=True)
class EmfResult:
    """Per-phase flux linkage, EMF, and terminal current over a time grid."""

    t: np.ndarray
    flux_linkage: np.ndarray
    emf: np.ndarray
    current: np.ndarray


@dataclass(frozen=True)
class NormalForceResult:
    """Per-side attraction and the net pull under a gap offset g_0."""

    g_0: float
    nominal: float
    small_gap: float
    large_gap: float
    net: float


@dataclass(frozen=True)
class PowerBalance:
    """Electrical sum(E_m I_m) against mechanical u F_t over a time grid."""

    t: np.ndarray
    electrical: np.ndarray
    mechanical: np.ndarray
    max_rel_dev: float


def _amplitudes(design: MotorDesign, coeffs: FieldCoefficients):
    """Orders, wavenumbers and A1 sinh(nk h_c) from the stored x1.

    With A1 = x1 e^{-nk g_e} the product is formed as
    x1 (e^{nk(h_c - g_e)} - e^{-nk(h_c + g_e)}) / 2 so it cannot overflow.
    """
    ns = coeffs.n.astype(float)
    nk = ns * design.k
    A1_sinh = 0.5 * coeffs.x1 * (np.exp(nk * (design.h_c - design.g_e))
                                 - np.exp(-nk * (design.h_c + design.g_e)))
    return ns, nk, A1_sinh


def _edge_phases(design: MotorDesign, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot-edge angles n k x for the left and right edge of every go side.

    Shapes (N_ph, H).  A slot width is pi / N_ph of the fundamental's
    phase, so the harmonics just multiply by n.
    """
    off = slot_offsets(design)[:, None]
    return (ns[None, :] * off * np.pi / design.N_ph,
            ns[None, :] * (off + 1) * np.pi / design.N_ph)


def _window_sums(design: MotorDesign, ns: np.ndarray, nk: np.ndarray,
                 amp: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot-window sums per phase m and array shift s.

    Returns sum_h amp_h [f(l_mh - nk_h s) - f(r_mh - nk_h s)] for f = cos
    and f = sin, with l, r the slot-edge angles.  The angle-difference
    identities leave cos and sin to take of (H, S) arrays only, not of
    (N_ph, H, S) ones.  amp is (H,) or (K, H); the sums are (..., N_ph, S).
    """
    left, right = _edge_phases(design, ns)
    dc = amp[..., None, :] * (np.cos(left) - np.cos(right))
    ds = amp[..., None, :] * (np.sin(left) - np.sin(right))
    motion = np.outer(nk, shifts)
    cm, sm = np.cos(motion), np.sin(motion)
    return dc @ cm + ds @ sm, ds @ cm - dc @ sm


def period_grid(design: MotorDesign, nt: int) -> np.ndarray:
    """nt uniform sample times over one electrical period."""
    if design.f == 0:
        raise ZeroVelocity("a period time series needs a moving array (f > 0)")
    return np.arange(nt) / (nt * design.f)


def thrust(design: MotorDesign, coeffs: FieldCoefficients, t,
           x_0: float = 0.0) -> ForceResult:
    """Per-phase thrust on the array from the closed-form slot integrals.

    t may be a scalar or an array; ripple_pct is the peak-to-peak total
    force over the grid relative to its mean.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    ns, nk, A1_sinh = _amplitudes(design, coeffs)
    amp = -8 * MU0 * design.L / nk * A1_sinh
    window, _ = _window_sums(design, ns, nk, amp, design.u * ts + x_0)
    per_phase = all_phase_currents(design, ts) * window
    total = per_phase.sum(axis=0)
    mean = float(total.mean())
    ripple = 0.0 if mean == 0 else 100.0 * float(total.max() - total.min()) / mean
    return ForceResult(ts, per_phase, total, mean, ripple)


def thrust_time_series(design: MotorDesign, coeffs: FieldCoefficients,
                       x_0: float = 0.0, nt: int = 720) -> ForceResult:
    """Thrust over one electrical period on a uniform nt-point grid."""
    return thrust(design, coeffs, period_grid(design, nt), x_0)


def thrust_quadrature(design: MotorDesign, coeffs: FieldCoefficients, t: float,
                      x_0: float = 0.0, nx: int = 8192, ny: int = 96) -> float:
    """Total thrust by quadrature of J B_y over the coil region.

    The independent route: B_y is sampled at the midpoints of an nx-by-ny
    grid over one wavelength of the coil band and weighted by the exact
    cell averages of the slot current profile.  The factor 2 counts both
    airgaps.
    """
    dx = design.lam / nx
    xs = (np.arange(nx) + 0.5) * dx
    ys = (np.arange(ny) + 0.5) * design.h_c / ny
    Jx = slot_current_profile(design, t).average(xs - dx / 2, xs + dx / 2)
    shift = design.u * float(t) + x_0
    _, nk, P, Q = _region_terms(design, coeffs, ys[:, None], "I")
    By = np.sin(np.outer(xs - shift, nk)) @ (-MU0 * nk * (P - Q)).T
    integral = float((Jx[:, None] * By).sum()) * dx * (design.h_c / ny)
    return 2 * design.L * integral


def force_angle_sweep(design: MotorDesign, coeffs: FieldCoefficients,
                      n_scan: int = 360) -> tuple[np.ndarray, np.ndarray]:
    """Total thrust at t = 0 versus array shift x_0 over one wavelength."""
    x0s = np.arange(n_scan) * design.lam / n_scan
    ns, nk, A1_sinh = _amplitudes(design, coeffs)
    amp = -8 * MU0 * design.L / nk * A1_sinh
    window, _ = _window_sums(design, ns, nk, amp, x0s)
    totals = (all_phase_currents(design, 0.0) * window).sum(axis=0)
    return x0s, totals


def optimal_shift(design: MotorDesign, coeffs: FieldCoefficients,
                  n_scan: int = 360) -> tuple[float, float]:
    """Array shift maximizing total thrust at t = 0, by dense scan."""
    x0s, totals = force_angle_sweep(design, coeffs, n_scan)
    i = int(np.argmax(totals))
    return float(x0s[i]), float(totals[i])


def back_emf(design: MotorDesign, coeffs: FieldCoefficients, t,
             x_0: float = 0.0) -> EmfResult:
    """Flux linkage and EMF per phase for N_turns-turn uniform coils.

    The linkage averages the vector potential over the slot area; with the
    slot integrals done analytically that leaves one sinh term per
    harmonic.  EMF is its exact time derivative.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    ns, nk, A1_sinh = _amplitudes(design, coeffs)
    ws = design.slot_width
    amp_lam = (-8 * MU0 * design.L * design.N_turns * A1_sinh
               / (nk ** 2 * design.h_c * ws))
    amp_emf = (-8 * MU0 * design.L * design.u * design.N_turns * A1_sinh
               / (nk * design.h_c * ws))
    cos_w, sin_w = _window_sums(design, ns, nk, np.stack([amp_emf, amp_lam]),
                                design.u * ts + x_0)
    emf, linkage = cos_w[0], -sin_w[1]
    current = design.h_c * ws / design.N_turns * all_phase_currents(design, ts)
    return EmfResult(ts, linkage, emf, current)


def power_balance(design: MotorDesign, coeffs: FieldCoefficients,
                  x_0: float = 0.0, nt: int = 720) -> PowerBalance:
    """Check sum(E_m I_m) = u F_t over one electrical period."""
    ts = period_grid(design, nt)
    e = back_emf(design, coeffs, ts, x_0)
    electrical = (e.emf * e.current).sum(axis=0)
    mechanical = design.u * thrust(design, coeffs, ts, x_0).total
    scale = max(float(np.abs(mechanical).max()), 1e-30)
    dev = float(np.abs(electrical - mechanical).max()) / scale
    return PowerBalance(ts, electrical, mechanical, dev)


def emf_thd(design: MotorDesign, coeffs: FieldCoefficients) -> np.ndarray:
    """Per-phase EMF total harmonic distortion, from the line amplitudes.

    Array harmonic n drives EMF line n of every phase, with amplitude
    proportional to |A1 sinh(nk h_c) / nk * sin(n pi / 2 N_ph)|: the slot
    window of a phase spans n pi / N_ph of harmonic n's phase, and the
    array shift and phase offsets move only the line's phase.  So the THD
    is the same for every phase and exact, with no sampled period to alias.
    """
    ns, nk, A1_sinh = _amplitudes(design, coeffs)
    lines = np.abs(A1_sinh / nk * np.sin(ns * np.pi / (2 * design.N_ph)))
    fund, rest = lines[0], np.sqrt((lines[1:] ** 2).sum())  # ns[0] == 1
    return np.full(design.N_ph, rest / fund if fund > 0 else 0.0)


def attraction_force(design: MotorDesign, coeffs: FieldCoefficients) -> float:
    """Per-side normal pull on the array, from the stress tensor at y = 0.

    B_y(x, 0) = -2 mu0 sum nk A1 sin nkx and the x-average of sin^2 gives
    F_y = 2 mu0 L (lambda/2) sum (nk A1)^2 per wavelength per side.
    """
    _, nk, A1, _ = _region_terms(design, coeffs, 0.0, "I")  # P = A1 at y = 0
    return float(2 * MU0 * design.L * (design.lam / 2) * ((nk * A1) ** 2).sum())


def misalignment_force(design: MotorDesign,
                       trunc: HarmonicTruncation | None = None,
                       g_0: float | None = None) -> NormalForceResult:
    """Net pull on the stator when it sits g_0 off the sandwich midplane.

    Solves the two sides at gaps g -/+ g_0 separately; the net force points
    toward the smaller gap and vanishes at g_0 = 0.
    """
    g0 = design.g_0 if g_0 is None else float(g_0)
    if not 0 <= g0 < design.g:
        raise OffsetExceedsGap(g0, design.g)
    # the source does not depend on the gap
    src = fourier_coefficients(design, trunc or HarmonicTruncation())

    def per_side(d: MotorDesign) -> float:
        return attraction_force(d, solve_coefficients(d, src))

    nominal = per_side(design.with_gap(design.g))
    small = per_side(design.with_gap(design.g - g0))
    large = per_side(design.with_gap(design.g + g0))
    return NormalForceResult(g0, nominal, small, large, small - large)
