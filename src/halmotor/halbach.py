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

The block rule is written once, in `magnetization_steps`, as two exact step
profiles over one period.  The harmonics are the exact step Fourier sums of
those profiles, and the finite-difference check deposits the same steps;
`reconstruct_profiles` gives the truncated series back at points.  The
tests check the steps against a second statement of the rule, a point
lookup of the block index kept in `tests/references.py`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MU0, HarmonicTruncation, MotorDesign, PeriodicSteps


@dataclass(frozen=True)
class HarmonicSource:
    """Odd-harmonic Fourier coefficients of the array source profiles.

    k_n in A/m (current sheet), sigma_n in T (charge sheet, mu_0 included).
    The equivalent magnetization harmonics M_xn = -k_n and
    M_yn = -sigma_n / mu_0 are formed once, when the source is built.
    """

    n: np.ndarray
    k_n: np.ndarray
    sigma_n: np.ndarray
    M_xn: np.ndarray = field(init=False, repr=False, compare=False)
    M_yn: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "M_xn", -self.k_n)
        object.__setattr__(self, "M_yn", -self.sigma_n / MU0)
        for a in (self.n, self.k_n, self.sigma_n, self.M_xn, self.M_yn):
            a.setflags(write=False)


def fourier_coefficients(design: MotorDesign,
                         trunc: HarmonicTruncation) -> HarmonicSource:
    """k_n and sigma_n for all retained odd harmonics.

    They are exact step sums over `magnetization_steps`.  M_x is even in x
    and M_y odd, so the coefficients of M_x are real and those of M_y
    imaginary, and one sum over the profile M_x + M_y yields both.
    """
    ns = trunc.orders
    m_x, m_y = magnetization_steps(design)
    c = PeriodicSteps(m_x.edges, m_x.values + m_y.values).fourier(ns)
    return HarmonicSource(ns, -c.real, MU0 * c.imag)


def reconstruct_profiles(source: HarmonicSource, k: float,
                         x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Fourier reconstructions of K_m(x) and sigma_m(x)."""
    x = np.asarray(x, dtype=float)
    args = np.outer(x, source.n * k)
    return (np.cos(args) @ source.k_n, np.sin(args) @ source.sigma_n)


def magnetization_steps(design: MotorDesign) -> tuple[PeriodicSteps, PeriodicSteps]:
    """M_x and M_y over one period as exact step profiles, block by block.

    Block i spans theta in [pi/2 + (i - 1/2) dtheta, pi/2 + (i + 1/2) dtheta)
    and is magnetized along (sin, cos)(i dtheta).  The period is taken as
    blocks i = -N_m..N_m - 1, so |theta| < 3 pi / 2: the rounding of the
    phases n theta in the Fourier sums grows with |theta|.
    """
    rot = np.arange(-design.N_m, design.N_m + 1) * design.dtheta
    edges = (np.pi / 2 - design.dtheta / 2 + rot) / design.k
    return (PeriodicSteps(edges, design.M * np.sin(rot[:-1])),
            PeriodicSteps(edges, design.M * np.cos(rot[:-1])))
