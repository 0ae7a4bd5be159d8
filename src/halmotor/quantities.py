"""Integral machine quantities: thrust, flux linkage, EMF, normal forces.

Everything here consumes the region-I amplitudes A1 of a solved harmonic
set.  The slot layout and the phase currents come from `config`
(`slot_offsets`, `all_phase_currents`, `slot_current_profile`); the
array is displaced by u t + x_0.  Forces are per stator unit cell (one
wavelength, both airgaps) at depth L.  Thrust, the force-angle scan, flux
linkage, EMF and EMF THD all come from one slot-window `LineTable`, built
from solved coefficients by `line_table`, and every one of them takes
that table: a caller that needs several quantities of one design builds
it once.

One routine, `_synthesize`, sums the table over the harmonics at array
shifts.  The force-angle scan and one electrical period are uniform shift
grids o + j lam / N: line n is folded into FFT bin n mod N and one
inverse FFT of length N yields the grid, exactly also when n_max >= N,
since the harmonics sharing a bin take equal values on the grid.
Arbitrary sample times are grids of N = 1 with one origin u t + x_0
each, where the fold is the plain sum.  The cores `_force` and `_emf`
take the sample times with their shift grid: `thrust` and `back_emf`
pass one origin per time, the time series one period from x_0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (MU0, HarmonicTruncation, MotorDesign, all_phase_currents,
                     slot_current_profile, slot_offsets)
from .errors import OffsetExceedsGap, ZeroVelocity
from .halbach import fourier_coefficients
from .laplace import FieldCoefficients, _region_terms, solve_coefficients

_QUAD_NX, _QUAD_NY = 8192, 96   # `thrust_quadrature` midpoint grid over the coil band


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


@dataclass(frozen=True)
class LineTable:
    """Harmonic orders n, wavenumbers nk and the (N_ph, H) slot-window lines
    of one solved design; `_synthesize` also takes lines with leading axes.

    Line (m, n) is A1 sinh(nk h_c) / nk (e^{-i l} - e^{-i r}), l and r the
    angles n k x of go side m's edges (a slot spans pi / N_ph of the
    fundamental).  Summed with e^{i nk s} at array shift s, the real part
    is the integral of B_y over the go side and, with each line over nk,
    the imaginary part that of A_z, both times -1 / (2 mu0).  A1 sinh is
    x1 (e^{nk(h_c - g_e)} - e^{-nk(h_c + g_e)}) / 2, so it cannot overflow.
    """

    n: np.ndarray
    nk: np.ndarray
    lines: np.ndarray


def line_table(design: MotorDesign, coeffs: FieldCoefficients) -> LineTable:
    """The `LineTable` of a design from its solved coefficients."""
    nk = coeffs.nk
    A1_sinh = 0.5 * coeffs.x1 * (np.exp(nk * (design.h_c - design.g_e))
                                 - np.exp(-nk * (design.h_c + design.g_e)))
    slot = coeffs.n * (np.pi / design.N_ph)
    left = np.multiply.outer(slot_offsets(design), slot)
    return LineTable(coeffs.n, nk,
                     A1_sinh / nk * (np.exp(-1j * left) - np.exp(-1j * (left + slot))))


def _synthesize(n: np.ndarray, k: float, lines: np.ndarray, origins,
                N: int) -> np.ndarray:
    """sum_n lines[..., n] e^{i n k s} at s = o + j lam / N, j = 0..N-1, for
    each origin o; shape (..., S N) for S origins, origin-major.

    On the grid e^{i n k j lam / N} = e^{2 pi i n j / N} depends on n only
    through n mod N, so line n, phased by e^{i n k o}, adds into bin
    b = n mod N and one inverse FFT of length N gives all N samples.  The
    fold is exact also for n_max >= N: the harmonics sharing a bin coincide
    on the grid.  Laid out as n = r N + b, the lines form an (R, N) table,
    and one batched product over r folds them per bin for all origins at
    once.  With N = 1 there is one bin, the fold is the plain sum over n
    and the FFT the identity: arbitrary sample times take that route, one
    origin each.
    """
    origins = np.atleast_1d(origins)
    lead = lines.shape[:-1]
    R = -(-(int(n.max()) + 1) // N)
    table = np.zeros(lead + (R * N,), dtype=complex)
    table[..., n] = lines
    phases = np.zeros((R * N, len(origins)), dtype=complex)
    phases[n] = np.exp(1j * np.multiply.outer(n * k, origins))
    # per bin b: (..., b, 1, R) @ (b, R, S) -> (..., b, 1, S)
    bins = (table.reshape(lead + (R, N)).swapaxes(-1, -2)[..., None, :]
            @ phases.reshape(R, N, -1).swapaxes(0, 1))[..., 0, :]
    # np.fft is looked up here, not imported: numpy loads it lazily
    samples = np.fft.ifft(bins, axis=-2, norm="forward")
    return samples.swapaxes(-1, -2).reshape(lead + (-1,))


def _force(design: MotorDesign, table: LineTable, ts, origins,
           N: int) -> ForceResult:
    """Per-phase thrust, (N_ph, S N), with the currents at times ts and the
    array on the shift grids of `_synthesize`; ripple_pct is the
    peak-to-peak total over the grid relative to the magnitude of its
    mean, so it is never negative."""
    per_phase = (-8 * MU0 * design.L * all_phase_currents(design, ts)
                 * _synthesize(table.n, design.k, table.lines, origins, N).real)
    total = per_phase.sum(axis=0)
    mean = float(total.mean())
    ripple = 0.0 if mean == 0 else 100.0 * float(total.max() - total.min()) / abs(mean)
    return ForceResult(ts, per_phase, total, mean, ripple)


def period_grid(design: MotorDesign, nt: int) -> np.ndarray:
    """nt uniform sample times over one electrical period."""
    if design.f == 0:
        raise ZeroVelocity("a period time series needs a moving array (f > 0)")
    return np.arange(nt) / (nt * design.f)


def thrust(design: MotorDesign, table: LineTable, t,
           x_0: float = 0.0) -> ForceResult:
    """Per-phase thrust at time(s) t: the current times the real part of the
    phase's slot-window lines at the array shift u t + x_0."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    return _force(design, table, ts, design.u * ts + x_0, 1)


def thrust_time_series(design: MotorDesign, table: LineTable,
                       x_0: float = 0.0, nt: int = 720) -> ForceResult:
    """Thrust over one electrical period on a uniform nt-point grid: since
    u t_j = j lam / nt, the shifts are the grid of the one origin x_0."""
    return _force(design, table, period_grid(design, nt), x_0, nt)


def thrust_quadrature(design: MotorDesign, coeffs: FieldCoefficients, t: float,
                      x_0: float = 0.0) -> float:
    """Total thrust by quadrature of J B_y over the coil region.

    The independent route: B_y is sampled at the midpoints of a _QUAD_NX by
    _QUAD_NY grid over one wavelength of the coil band and weighted by the
    exact cell averages of the slot current profile.  The factor 2 counts
    both airgaps.

    The double sum separates per harmonic.  The y-sum is the plain sum of
    the region-I weights over the rows.  The x-sum of Jx_j sin nk(x_j - s)
    over the midpoints x_j = (j + 1/2) lam / N is the imaginary part of
    e^{i pi n / N} e^{-i nk s} sum_j Jx_j e^{2 pi i n j / N}, and that last
    sum is bin n mod N of the conjugated length-N FFT of the real Jx, so one
    FFT serves every n_max exactly, also when harmonics alias.
    """
    N = _QUAD_NX
    dx = design.lam / N
    xs = (np.arange(N) + 0.5) * dx
    ys = (np.arange(_QUAD_NY) + 0.5) * design.h_c / _QUAD_NY
    Jx = slot_current_profile(design, t).average(xs - dx / 2, xs + dx / 2)
    shift = design.u * float(t) + x_0
    _, nk, P, Q = _region_terms(design, coeffs, ys[:, None], "I")
    n = coeffs.n
    # np.fft is looked up here, not imported: numpy loads it lazily
    x_sums = (np.fft.fft(Jx).conj()[n % N]
              * np.exp(1j * (np.pi * n / N - nk * shift))).imag
    integral = float(x_sums @ (-MU0 * nk * (P - Q)).sum(axis=0))
    return 2 * design.L * integral * dx * (design.h_c / _QUAD_NY)


def force_angle_sweep(design: MotorDesign, table: LineTable,
                      n_scan: int = 360) -> tuple[np.ndarray, np.ndarray]:
    """Total thrust at t = 0 versus array shift x_0 over one wavelength."""
    x0s = np.arange(n_scan) * design.lam / n_scan
    return x0s, _force(design, table, 0.0, 0.0, n_scan).total


def optimal_shift(design: MotorDesign, table: LineTable,
                  n_scan: int = 360) -> tuple[float, float]:
    """Array shift maximizing total thrust at t = 0, by dense scan, and that
    thrust."""
    x0s, totals = force_angle_sweep(design, table, n_scan)
    i = int(np.argmax(totals))
    return float(x0s[i]), float(totals[i])


def _emf(design: MotorDesign, table: LineTable, ts, origins, N: int) -> EmfResult:
    """Flux linkage, EMF and current per phase at times ts, with the array
    on the shift grids of `_synthesize`."""
    ws = design.slot_width
    scale = -8 * MU0 * design.L * design.N_turns / (design.h_c * ws)
    at = _synthesize(table.n, design.k,
                     np.stack([table.lines / table.nk, design.u * table.lines]),
                     origins, N)
    linkage, emf = scale * at[0].imag, scale * at[1].real
    current = design.h_c * ws / design.N_turns * all_phase_currents(design, ts)
    return EmfResult(ts, linkage, emf, current)


def back_emf(design: MotorDesign, table: LineTable, t,
             x_0: float = 0.0) -> EmfResult:
    """Flux linkage and EMF per phase for N_turns-turn uniform coils.

    The linkage averages the vector potential over the slot area, which
    is the imaginary part of the slot-window lines divided by nk at the
    array shift u t + x_0.  EMF is its exact time derivative, the real part
    of u times the lines; both share one scale.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    return _emf(design, table, ts, design.u * ts + x_0, 1)


def emf_time_series(design: MotorDesign, table: LineTable,
                    x_0: float = 0.0, nt: int = 720) -> EmfResult:
    """Flux linkage and EMF over one electrical period on a uniform nt-point
    grid, the shift grid of the one origin x_0."""
    return _emf(design, table, period_grid(design, nt), x_0, nt)


def power_balance(design: MotorDesign, table: LineTable,
                  x_0: float = 0.0, nt: int = 720) -> PowerBalance:
    """Check sum(E_m I_m) = u F_t over one electrical period.

    The thrust comes from the period's shift grid and the EMF sample by
    sample, so the check also holds the two synthesis modes against each
    other.
    """
    force = thrust_time_series(design, table, x_0, nt)
    e = back_emf(design, table, force.t, x_0)
    electrical = (e.emf * e.current).sum(axis=0)
    mechanical = design.u * force.total
    scale = max(float(np.abs(mechanical).max()), 1e-30)
    dev = float(np.abs(electrical - mechanical).max()) / scale
    return PowerBalance(force.t, electrical, mechanical, dev)


def emf_thd(table: LineTable) -> np.ndarray:
    """Per-phase EMF total harmonic distortion, from the line magnitudes.

    Array harmonic n drives EMF line n of phase m with an amplitude
    proportional to |line (m, n)| of the slot-window table; the array
    shift moves only the line's phase.  So the THD is exact, with no
    sampled period to alias.
    """
    mag = np.abs(table.lines)
    fund, rest = mag[:, 0], np.sqrt((mag[:, 1:] ** 2).sum(axis=1))  # n[0] == 1
    return np.divide(rest, fund, out=np.zeros_like(rest), where=fund > 0)


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
