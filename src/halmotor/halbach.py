"""Halbach array geometry and its Fourier-series source description.

The magnet array is a segmented Halbach: each pole pitch is split into N_m
equal blocks whose magnetization direction rotates by pi / N_m from block to
block.  Working in the electrical angle theta = k x, block i is centred at
theta = pi/2 + i dtheta and magnetized along

    M_x = M sin(i dtheta),   M_y = M cos(i dtheta).

The array is represented by two surface source profiles on its top and
bottom faces: a current sheet K_m(x) = -M_x(x) for the horizontal component
and a charge sheet sigma_m(x) = -mu_0 M_y(x) for the vertical one.  Both are
odd-periodic with period lam and expand in odd harmonics only:

    K_m = sum k_n cos(n k x),   sigma_m = sum sigma_n sin(n k x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MU0, HarmonicTruncation, MotorDesign, PeriodicSteps


@dataclass(frozen=True)
class HalbachLayout:
    """Block decomposition of one full period (2 N_m blocks).

    `indices[p]` is the rotation index i of block p and `spans[p]` its
    (theta_left, theta_right) extent.  Block spans tile [0, 2 pi) exactly;
    for even N_m the block centred at theta = 0 appears wrapped as the final
    span reaching 2 pi.
    """

    N_m: int
    indices: tuple[int, ...]
    spans: tuple[tuple[float, float], ...]


def build_layout(design: MotorDesign) -> HalbachLayout:
    N_m = design.N_m
    dth = math.pi / N_m
    # block i spans theta in [pi/2 + (i - 1/2) dth, pi/2 + (i + 1/2) dth)
    i_lo = math.floor((0.0 - math.pi / 2) / dth + 0.5)
    i_hi = math.floor((2 * math.pi - math.pi / 2) / dth + 0.5)
    idx, spans = [], []
    for i in range(i_lo, i_hi + 1):
        tl = math.pi / 2 + (i - 0.5) * dth
        tr = math.pi / 2 + (i + 0.5) * dth
        a, b = max(tl, 0.0), min(tr, 2 * math.pi)
        if b <= a:
            continue
        idx.append(i)
        spans.append((a, b))
    return HalbachLayout(N_m, tuple(idx), tuple(spans))


@dataclass(frozen=True)
class HarmonicSource:
    """Odd-harmonic Fourier coefficients of the array source profiles.

    k_n in A/m (current sheet), sigma_n in T (charge sheet, mu_0 included).
    The equivalent magnetization harmonics are M_xn = -k_n and
    M_yn = -sigma_n / mu_0.
    """

    n: np.ndarray
    k_n: np.ndarray
    sigma_n: np.ndarray

    def __post_init__(self):
        for a in (self.n, self.k_n, self.sigma_n):
            a.setflags(write=False)

    @property
    def M_xn(self) -> np.ndarray:
        return -self.k_n

    @property
    def M_yn(self) -> np.ndarray:
        return -self.sigma_n / MU0


def fourier_coefficients(design: MotorDesign,
                         trunc: HarmonicTruncation) -> HarmonicSource:
    """Closed-form k_n and sigma_n for all retained odd harmonics.

    Interior blocks contribute the generic rotated-segment term; for even
    N_m the two horizontally magnetized half blocks at the pole edges add a
    separate term to k_n only (their vertical component vanishes).
    """
    M = design.M
    N_m = design.N_m
    dth = design.dtheta
    ns = trunc.orders.astype(float)
    if N_m % 2 == 1:
        iis = np.arange(-(N_m - 1) // 2, (N_m - 1) // 2 + 1)
        edge = np.zeros_like(ns)
    else:
        iis = np.arange(-N_m // 2 + 1, N_m // 2)
        edge = (4 / (ns * np.pi)) * M * np.sin(ns * np.pi / (2 * N_m))
    N, I = np.meshgrid(ns, iis, indexing="ij")
    common = (-4 / (N * np.pi)) * M * np.sin(N * dth / 2)
    k_n = edge + (common * np.cos(np.pi / 2 - I * dth)
                  * np.cos(N * (np.pi / 2 + I * dth))).sum(axis=1)
    sigma_n = MU0 * (common * np.sin(np.pi / 2 - I * dth)
                     * np.sin(N * (np.pi / 2 + I * dth))).sum(axis=1)
    return HarmonicSource(trunc.orders.copy(), k_n, sigma_n)


def _block_index(theta: np.ndarray, N_m: int) -> np.ndarray:
    dth = np.pi / N_m
    return np.floor((theta - np.pi / 2) / dth + 0.5).astype(int)


def source_profiles(design: MotorDesign, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise source profiles K_m(x) and sigma_m(x)."""
    theta = design.k * np.asarray(x, dtype=float)
    i = _block_index(theta, design.N_m)
    return (-design.M * np.sin(i * design.dtheta),
            -MU0 * design.M * np.cos(i * design.dtheta))


def magnetization_profiles(design: MotorDesign, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise M_x(x), M_y(x) inside the magnet band."""
    K, sig = source_profiles(design, x)
    return -K, -sig / MU0


def reconstruct_profiles(source: HarmonicSource, k: float,
                         x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Fourier reconstructions of K_m(x) and sigma_m(x)."""
    x = np.asarray(x, dtype=float)
    args = np.outer(x, source.n * k)
    return (np.cos(args) @ source.k_n, np.sin(args) @ source.sigma_n)


def magnetization_steps(design: MotorDesign) -> tuple[PeriodicSteps, PeriodicSteps]:
    """M_x and M_y as exact step profiles over one period, block by block.

    Used by the finite-difference check, where exactly averaged sources
    keep the sheet dipole moments on the grid.
    """
    lay = build_layout(design)
    edges = np.array([0.0] + [b for _, b in lay.spans]) / design.k
    rot = np.array(lay.indices) * design.dtheta
    return (PeriodicSteps(edges, design.M * np.sin(rot)),
            PeriodicSteps(edges, design.M * np.cos(rot)))
