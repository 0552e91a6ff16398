"""Measurement-campaign simulator.

Generates timed resistive-transition sweeps with instrument noise and
thermometry drift, schedules them into (zero-field, field, zero-field)
triplets and runs multi-field, multi-replication campaigns for the bare
film and the in-cavity film.

All randomness descends from a single master seed. Each sweep draws from
its own generator whose sub-seed is a deterministic hash of
(master seed, sample id, applied field, sweep start time), so a campaign
can be generated in any order with bit-identical results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError
from .physics import (
    CavityParams,
    FilmParams,
    ThermalEnvironment,
    resistance_curve,
    thermal_enhancement,
    transition_midpoint,
)

# Ramp window half-width in units of the transition width; +-5 widths
# comfortably covers the 10%-90% region on both sides.
RAMP_HALF_WIDTHS = 5.0

MIN_SWEEP_POINTS = 50


@dataclass(frozen=True)
class NoiseModel:
    """Noise of the temperature read-out; the resistance is read noiselessly.

    sigma_fast_uK   : std of the per-reading temperature noise
    drift_uK_per_hr : linear drift of the temperature read-out, any sign
    seed            : 64-bit master seed; identical seeds give identical data
    """

    sigma_fast_uK: float = 0.0
    drift_uK_per_hr: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_fast_uK < 0:
            raise ValueError("fast noise sigma must be non-negative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SweepTrace:
    """One timed transition sweep at fixed applied field.

    tau_s, t_meas_K, r_meas_ohm are parallel arrays ordered by time.
    field_mT is the applied (signed) field; t_start_s the campaign-clock
    offset of the first point.
    """

    sample_id: str
    kind: str  # "film" | "cavity"
    field_mT: float
    t_start_s: float
    tau_s: np.ndarray
    t_meas_K: np.ndarray
    r_meas_ohm: np.ndarray

    def __post_init__(self):
        if self.kind not in ("film", "cavity"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if len(self.tau_s) < MIN_SWEEP_POINTS:
            raise ValueError(f"sweep needs >= {MIN_SWEEP_POINTS} points")
        if not np.all(np.diff(self.tau_s) > 0):
            raise ValueError("sweep times must be strictly increasing")

    @property
    def n_points(self) -> int:
        return len(self.tau_s)


@dataclass(frozen=True)
class TripletRecord:
    """Zero-field / in-field / zero-field sweep trio at equal time intervals."""

    pre: SweepTrace
    mid: SweepTrace
    post: SweepTrace
    field_mT: float
    replication: int = 0

    def __post_init__(self):
        if not self.pre.t_start_s < self.mid.t_start_s < self.post.t_start_s:
            raise ValueError("triplet sweeps must be in chronological order")
        fwd = self.mid.t_start_s - self.pre.t_start_s
        back = self.post.t_start_s - self.mid.t_start_s
        if abs(fwd - back) > 1.0:
            raise ValueError("triplet spacing must be symmetric to within 1 s")
        if self.pre.field_mT != 0 or self.post.field_mT != 0:
            raise ValueError("pre and post sweeps must be at zero field")
        if len({(s.sample_id, s.kind) for s in (self.pre, self.mid, self.post)}) > 1:
            raise ValueError("triplet sweeps must share one sample_id and kind")

    @property
    def kind(self) -> str:
        return self.mid.kind

    @property
    def sample_id(self) -> str:
        return self.mid.sample_id

    def sweeps(self):
        return (("pre", self.pre), ("mid", self.mid), ("post", self.post))


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one simulated campaign; sweeps run back to back."""

    film_sample_id: ClassVar[str] = "film01"  # fixed sample ids, not config keys
    cavity_sample_id: ClassVar[str] = "cav01"

    film: FilmParams
    cavity: CavityParams
    noise: NoiseModel
    fields_mT: tuple
    sweep_duration_s: float = 1200.0
    points_per_sweep: int = 1200
    replications: int = 1
    thermal: ThermalEnvironment | None = None
    homogeneity: float = 1e-4

    def __post_init__(self):
        if len(self.fields_mT) == 0:
            raise ValueError("campaign needs at least one field value")
        if self.sweep_duration_s <= 0:
            raise ValueError("sweep duration must be positive")
        if self.points_per_sweep < MIN_SWEEP_POINTS:
            raise ValueError(f"need >= {MIN_SWEEP_POINTS} points per sweep")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.homogeneity < 0:
            raise ValueError("field inhomogeneity must be non-negative")
        if self.cavity.film != self.film:
            raise ValueError("the cavity's film must be the campaign film")

    @property
    def enhancement(self) -> float:
        """Thermal-photon factor M applied to the cavity shift (1 when off)."""
        if self.thermal is None:
            return 1.0
        return thermal_enhancement(self.film.tc0_K, self.thermal)


def sweep_rng(seed: int, sample_id: str, field_mT: float, t_start_s: float):
    """Per-sweep generator, a pure function of its identifying tuple."""
    key = f"{sample_id}|{field_mT:.9g}|{t_start_s:.3f}".encode()
    sub = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), sub]))


def generate_sweep(
    kind: str,
    params,
    h_mT: float,
    noise: NoiseModel,
    t_start_s: float,
    duration_s: float,
    n: int,
    sample_id: str | None = None,
    enhancement: float = 1.0,
) -> SweepTrace:
    """Simulate one transition sweep.

    The true temperature ramps linearly across Tc(H) +- 5 transition widths;
    the measured temperature adds the drift offset and fast gaussian noise,
    the resistance is read noiselessly off the model sigmoid. `params` is a
    FilmParams for kind="film" or a CavityParams for kind="cavity".
    """
    if n < MIN_SWEEP_POINTS:
        raise ConfigError(f"sweep needs >= {MIN_SWEEP_POINTS} points, got {n}")
    if duration_s <= 0:
        raise ConfigError("sweep duration must be positive")
    if kind == "cavity":
        if not isinstance(params, CavityParams):
            raise ConfigError("cavity sweep requires CavityParams")
        film, cavity = params.film, params
    elif kind == "film":
        film = params.film if isinstance(params, CavityParams) else params
        cavity = None
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    if sample_id is None:
        sample_id = kind

    tc_h = transition_midpoint(film, h_mT, cavity, enhancement)
    half = RAMP_HALF_WIDTHS * film.width_mK * 1e-3
    t_true = np.linspace(tc_h - half, tc_h + half, n)
    tau = np.arange(n) * (duration_s / n)

    rng = sweep_rng(noise.seed, sample_id, h_mT, t_start_s)
    drift_K = noise.drift_uK_per_hr * 1e-6 * (t_start_s + tau) / 3600.0
    t_meas = t_true + drift_K + rng.normal(0.0, noise.sigma_fast_uK * 1e-6, n)
    r_meas = resistance_curve(film, t_true, h_mT, cavity, enhancement)

    return SweepTrace(sample_id, kind, h_mT, t_start_s, tau, t_meas, r_meas)


def run_triplet(
    config: CampaignConfig,
    kind: str,
    h_mT: float,
    t_start_s: float,
    replication: int = 0,
) -> TripletRecord:
    """One zero-field / field / zero-field trio at equal time intervals.

    Cool-down always happens in zero field, so no flux-trapping state is
    carried between sweeps. The cavity sample sees the nominal field scaled
    by (1 + homogeneity) to model the residual coil inhomogeneity.
    """
    if kind == "cavity":
        params, sample_id = config.cavity, config.cavity_sample_id
        h_applied = h_mT * (1.0 + config.homogeneity)
    else:
        params, sample_id = config.film, config.film_sample_id
        h_applied = h_mT
    spacing = config.sweep_duration_s

    def one(h, offset):
        return generate_sweep(
            kind,
            params,
            h,
            config.noise,
            t_start_s + offset,
            config.sweep_duration_s,
            config.points_per_sweep,
            sample_id=sample_id,
            enhancement=config.enhancement,
        )

    pre = one(0.0, 0.0)
    mid = one(h_applied, spacing)
    post = one(0.0, 2.0 * spacing)
    return TripletRecord(pre, mid, post, h_mT, replication)


def campaign_schedule(config: CampaignConfig):
    """Deterministic (kind, field, replication, t_start) task list.

    The film and the cavity sit on the same chip and are measured
    simultaneously, so both triplets of a slot share the same start time;
    slots advance monotonically along the campaign clock.
    """
    tasks = []
    slot_len = 3.0 * config.sweep_duration_s
    slot = 0
    for h in config.fields_mT:
        for rep in range(config.replications):
            t0 = slot * slot_len
            for kind in ("film", "cavity"):
                tasks.append((kind, float(h), rep, t0))
            slot += 1
    return tasks


def run_campaign(config: CampaignConfig):
    """Generate the full dataset: one film and one cavity triplet per
    (field, replication), in schedule order.
    """
    return [
        run_triplet(config, kind, h, t0, rep)
        for kind, h, rep, t0 in campaign_schedule(config)
    ]
