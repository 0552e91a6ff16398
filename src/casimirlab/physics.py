"""Closed-form forward models for the differential critical-field measurement.

Covers the parallel critical field of a thin superconducting film, its
inverse (the reduced temperature shift at a given field, including a tilt
term), the gap dependence of the cavity free-energy variation, the
phenomenological cavity shift curve, the thermal-photon enhancement factor
and the logistic resistive-transition shape.

Units used throughout the package: temperatures in K unless a name says
otherwise (mK, uK), magnetic fields as mu0*H in mT, lengths in nm,
resistances in Ohm, times in s. Conversions happen at call boundaries,
never inside formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT24 = math.sqrt(24.0)

# Logistic half-width factor: a sigmoid R = RN / (1 + exp(-(T - Tc)/w_e))
# rises from 10% to 90% of RN over exactly 2*ln(9)*w_e.
_TEN_NINETY = 2.0 * math.log(9.0)


@dataclass(frozen=True)
class FilmParams:
    """Physical description of a bare superconducting film.

    thickness_nm : film thickness D
    lambda0_nm   : penetration depth at T = 0
    h0_mT        : bulk zero-temperature critical field (as mu0*H)
    tc0_K        : zero-field transition temperature
    rn_ohm       : normal-state resistance
    width_mK     : 10%-90% width of the resistive transition
    theta_rad    : field-sample misalignment angle
    """

    thickness_nm: float
    lambda0_nm: float
    h0_mT: float
    tc0_K: float
    rn_ohm: float
    width_mK: float
    theta_rad: float = 0.0

    def __post_init__(self):
        if not 0 < self.thickness_nm < math.inf:
            raise ValueError("film thickness must be positive and finite")
        if not 0 < self.lambda0_nm < math.inf:
            raise ValueError("penetration depth must be positive and finite")
        if not 0 < self.h0_mT < math.inf:
            raise ValueError("bulk critical field must be positive and finite")
        if not 0 < self.tc0_K < math.inf:
            raise ValueError("transition temperature must be positive and finite")
        if not 0 < self.rn_ohm < math.inf:
            raise ValueError("normal-state resistance must be positive and finite")
        if not 0 < self.width_mK < math.inf:
            raise ValueError("transition width must be positive and finite")
        if not abs(self.theta_rad) < 0.1:
            raise ValueError("misalignment angle must satisfy |theta| < 0.1 rad")


@dataclass(frozen=True)
class CavityParams:
    """A film embedded in a rigid cavity, plus the phenomenological shift curve.

    shift_max_uK is the plateau value of the induced critical-temperature
    displacement; h_rise_mT and h_merge_mT are the field scales at which the
    shift turns on and at which the film and cavity curves merge again.
    """

    film: FilmParams
    shift_max_uK: float = 7.0
    h_rise_mT: float = 1.0
    h_merge_mT: float = 20.0

    def __post_init__(self):
        if not 0 <= self.shift_max_uK < math.inf:
            raise ValueError("maximum shift must be finite and non-negative")
        if not 0 < self.h_rise_mT < self.h_merge_mT:
            raise ValueError("field scales must satisfy 0 < h_rise < h_merge")


@dataclass(frozen=True)
class ThermalEnvironment:
    """Room-temperature photon environment reaching the sample.

    The effective frequency is h*nu_eff = x_eff * k_B * Tc.
    """

    t_env_K: float = 300.0
    x_eff: float = 10.0

    def __post_init__(self):
        if not 0 < self.t_env_K < math.inf:
            raise ValueError("environment temperature must be positive and finite")
        if not 0 < self.x_eff < math.inf:
            raise ValueError("frequency multiplier must be positive and finite")


def critical_field(film: FilmParams, t: float) -> float:
    """Parallel critical field mu0*H (mT) of a thin film at reduced temperature t.

    H = H0 * sqrt(24) * (lambda(0)/D) * sqrt(1 - t); valid for t in [0, 1].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"reduced temperature {t} outside [0, 1]")
    return film.h0_mT * SQRT24 * (film.lambda0_nm / film.thickness_nm) * math.sqrt(1.0 - t)


def delta_t_of_field(film: FilmParams, h_mT: float) -> float:
    """Reduced temperature shift delta_t = 1 - t at applied field mu0*H (mT).

    delta_t = D^2/(24 lambda(0)^2 H0^2) * H^2 + sin(theta)/H0 * H.

    The quadratic term is even in H; the tilt term keeps the sign of H, so
    signed fields (opposite coil polarity) are supported directly. For
    theta = 0 this is the exact inverse of :func:`critical_field`.
    """
    quad = (film.thickness_nm / (SQRT24 * film.lambda0_nm * film.h0_mT)) ** 2 * h_mT * h_mT
    return quad + math.sin(film.theta_rad) / film.h0_mT * h_mT


def cavity_energy_ratio(gap_nm: float, crossover_nm: float, exponent: float) -> float:
    """Gap dependence of the cavity free-energy variation, 1/(1 + (L/L0)^alpha).

    Dimensionless, in (0, 1]; equals 1/2 at L = L0 and saturates for L -> 0.
    """
    if gap_nm < 0:
        raise ValueError("cavity gap must be non-negative")
    if crossover_nm <= 0 or exponent <= 0:
        raise ValueError("crossover gap and exponent must be positive")
    return 1.0 / (1.0 + (gap_nm / crossover_nm) ** exponent)


def cavity_shift(cavity: CavityParams, h_mT: float, enhancement: float = 1.0) -> float:
    """Casimir-induced critical-temperature displacement (uK) at field H (mT).

    shift_max * (1 - exp(-(H/h_rise)^2)) * exp(-(H/h_merge)^2), scaled by
    `enhancement` (the thermal-photon factor M when applicable). Zero at
    H = 0 by continuity, plateaus near shift_max for h_rise << H << h_merge
    and decays again once the film and cavity curves merge.
    """
    h = abs(h_mT)
    rise = 1.0 - math.exp(-((h / cavity.h_rise_mT) ** 2))
    merge = math.exp(-((h / cavity.h_merge_mT) ** 2))
    return enhancement * cavity.shift_max_uK * rise * merge


def delta_t_cavity(cavity: CavityParams, h_mT: float, enhancement: float = 1.0) -> float:
    """Reduced shift of the in-cavity film: bare-film delta_t minus the cavity term.

    The cavity curve lies below the bare-film curve by
    cavity_shift/(1e6 * Tc0); no clamping at zero is applied, so in strongly
    enhanced (thermal-photon) scenarios the in-cavity transition may sit
    above the zero-field Tc0, which is what the differential measurement
    actually reports.
    """
    bare = delta_t_of_field(cavity.film, h_mT)
    return bare - cavity_shift(cavity, h_mT, enhancement) * 1e-6 / cavity.film.tc0_K


def thermal_enhancement(tc_K: float, env: ThermalEnvironment) -> float:
    """Black-body energy-density ratio M = 2/(exp(x_eff*Tc/T_env) - 1)."""
    if tc_K <= 0:
        raise ValueError("transition temperature must be positive")
    return 2.0 / math.expm1(env.x_eff * tc_K / env.t_env_K)


def thermal_enhancement_approx(tc_K: float, env: ThermalEnvironment) -> float:
    """Small-argument form of the enhancement, 2*T_env/(x_eff*Tc).

    For x_eff = 10 this is the familiar T_env/(5*Tc); agrees with the exact
    form to better than 3% whenever x_eff*Tc/T_env < 0.1.
    """
    if tc_K <= 0:
        raise ValueError("transition temperature must be positive")
    return 2.0 * env.t_env_K / (env.x_eff * tc_K)


def transition_width_e(film: FilmParams) -> float:
    """Logistic scale w_e (K) giving a 10%-90% rise of exactly width_mK."""
    return film.width_mK * 1e-3 / _TEN_NINETY


def transition_midpoint(
    film: FilmParams,
    h_mT: float,
    cavity: CavityParams | None = None,
    enhancement: float = 1.0,
) -> float:
    """Transition temperature Tc(H) = Tc0*(1 - delta_t) in K.

    Uses the cavity shift when `cavity` is given, the bare-film law otherwise.
    """
    if cavity is not None:
        dt = delta_t_cavity(cavity, h_mT, enhancement)
    else:
        dt = delta_t_of_field(film, h_mT)
    return film.tc0_K * (1.0 - dt)


def resistance_curve(
    film: FilmParams,
    t_K,
    h_mT: float,
    cavity: CavityParams | None = None,
    enhancement: float = 1.0,
):
    """Model resistance R(T, H) in Ohm; accepts scalar or array temperatures.

    Logistic sigmoid RN/(1 + exp(-(T - Tc(H))/w_e)), strictly increasing in
    T with limits 0 and RN.
    """
    tc_h = transition_midpoint(film, h_mT, cavity, enhancement)
    w_e = transition_width_e(film)
    x = (np.asarray(t_K, dtype=float) - tc_h) / w_e
    # tanh form of the logistic, stable against exp overflow far from Tc
    r = film.rn_ohm * 0.5 * (1.0 + np.tanh(0.5 * x))
    if np.ndim(t_K) == 0:
        return float(r)
    return r
