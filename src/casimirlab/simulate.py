"""Measurement-campaign simulator.

Generates timed resistive-transition sweeps with instrument noise and
thermometry drift, schedules them into (zero-field, field, zero-field)
triplets and runs multi-field, multi-replication campaigns for the bare
film and the in-cavity film.

All randomness descends from a single master seed. Each sweep draws from
its own generator whose sub-seed is a deterministic hash of
(master seed, sample id, applied field, sweep start time), so a campaign
can be generated in any order with bit-identical results. `run_campaign`
builds every sweep's generator state once, in one batch, equal to `sweep_rng`'s.

A sweep is a noiseless ramp (the time grid, the true-temperature grid and
the model resistance on it) plus its own drift and noise. The zero-field
sweeps that bracket every field sweep repeat one ramp, so `run_campaign`
computes each distinct ramp once and its sweeps share the read-only time
and resistance arrays.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
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
        if not 0 <= self.sigma_fast_uK < math.inf:
            raise ValueError("fast noise sigma must be finite and non-negative")
        if not math.isfinite(self.drift_uK_per_hr):
            raise ValueError("drift must be finite")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SweepTrace:
    """One timed transition sweep at fixed applied field.

    tau_s, t_meas_K, r_meas_ohm are parallel arrays ordered by time, of one
    length (else ValueError). The analysis needs finite readings: invert_trace
    raises DataError on a sweep with a non-finite T or R.
    field_mT is the applied (signed) field; t_start_s the campaign-clock
    offset of the first point. The arrays must not be modified after
    construction: the analysis keeps the sweep's level temperatures on the
    sweep, filled for every sweep of a campaign in one batched inversion
    (see analysis._level_temperatures). A simulated sweep's tau_s and
    r_meas_ohm are read-only, and run_campaign shares them among the
    sweeps of one sample at one field; copy them before editing.
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
        if not len(self.tau_s) == len(self.t_meas_K) == len(self.r_meas_ohm):
            raise ValueError("sweep arrays must have one length")
        if len(self.tau_s) < MIN_SWEEP_POINTS:
            raise ValueError(f"sweep needs >= {MIN_SWEEP_POINTS} points")
        if np.count_nonzero(self.tau_s[1:] > self.tau_s[:-1]) < len(self.tau_s) - 1:
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
        if not all(map(math.isfinite, self.fields_mT)):
            raise ValueError("field values must be finite")
        if not 0 < self.sweep_duration_s < math.inf:
            raise ValueError("sweep duration must be positive and finite")
        if not self.points_per_sweep >= MIN_SWEEP_POINTS:
            raise ValueError(f"need >= {MIN_SWEEP_POINTS} points per sweep")
        if not self.replications >= 1:
            raise ValueError("need at least one replication")
        if not 0 <= self.homogeneity < math.inf:
            raise ValueError("field inhomogeneity must be finite and non-negative")
        if self.cavity.film != self.film:
            raise ValueError("the cavity's film must be the campaign film")

    @property
    def enhancement(self) -> float:
        """Thermal-photon factor M applied to the cavity shift (1 when off)."""
        if self.thermal is None:
            return 1.0
        return thermal_enhancement(self.film.tc0_K, self.thermal)


def _sweep_key(sample_id: str, field_mT: float, t_start_s: float) -> bytes:
    return f"{sample_id}|{field_mT:.9g}|{t_start_s:.3f}".encode()


def _sub_seed(key: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def sweep_rng(seed: int, sample_id: str, field_mT: float, t_start_s: float):
    """Per-sweep generator, a pure function of its identifying tuple.

    The reference that `run_campaign`'s batch seeding (`_batch_rng`) reproduces.
    """
    sub = _sub_seed(_sweep_key(sample_id, field_mT, t_start_s))
    return np.random.default_rng(np.random.SeedSequence([int(seed), sub]))


def _batch_rng(seed: int, sweeps):
    """sweep_rng for each (sample_id, field_mT, t_start_s) of `sweeps`, seeded in one batch.

    The returned function takes sweep_rng's arguments (the seed is the
    batch's) and loads the sweep's state, built once from its bytes key and
    looked up by its tuple, into one reused Generator. Tuples merge only
    fields of 0.0 and -0.0 at one sample and start time, and no schedule
    starts two sweeps of one sample together. The batch repeats numpy's
    seeding, fixed by its stream-compatibility policy: SeedSequence hashes
    the words of [seed, sub] (at most four, a missing one as a zero) into a
    pool of four and draws from it PCG64's 128-bit seed and stream, from
    which PCG64 sets its state in two LCG steps. Constants stay Python ints,
    as numpy scalars warn on overflow.
    """
    subs = np.array([_sub_seed(_sweep_key(*sweep)) for sweep in sweeps], dtype=np.uint64)
    seed, mask32 = int(seed), 0xFFFFFFFF
    words = [seed & mask32] + ([seed >> 32] if seed >> 32 else []) + [subs & mask32, subs >> 32]

    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value = value ^ const
            const = const * mult & mask32
            value = value * const
            return value ^ value >> 16
        return hashmix

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(np.broadcast_to(w, subs.shape).astype(np.uint32))
            for w in words + [0] * (4 - len(words))]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])
        pool[dst] = mixed ^ mixed >> 16
    draw = hasher(0x8B51F9DD, 0x58F38DED)
    drawn = np.array([draw(pool[i % 4]) for i in range(8)], dtype=np.uint64)
    mult, mask128, states = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1, {}
    for sweep, s_hi, s_lo, i_hi, i_lo in zip(sweeps, *(drawn[::2] | drawn[1::2] << 32).tolist()):
        inc = (i_hi << 65 | i_lo << 1 | 1) & mask128
        states[sweep] = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_hi << 64 | s_lo)) * mult + inc) & mask128, "inc": inc}}
    generator = np.random.default_rng(0)

    def rng(_seed, *sweep):
        generator.bit_generator.state = states[sweep]
        return generator

    return rng


def _ramp(sample: FilmParams | CavityParams, h_mT: float, duration_s: float, n: int,
          enhancement: float):
    """The noiseless part of a sweep as read-only (tau, t_true, r_meas) arrays."""
    cavity = sample if isinstance(sample, CavityParams) else None
    film = sample if cavity is None else cavity.film
    tc_h = transition_midpoint(film, h_mT, cavity, enhancement)
    half = RAMP_HALF_WIDTHS * film.width_mK * 1e-3
    t_true = np.linspace(tc_h - half, tc_h + half, n)
    tau = np.arange(n) * (duration_s / n)
    r_meas = resistance_curve(film, t_true, h_mT, cavity, enhancement)
    for array in (tau, t_true, r_meas):
        array.flags.writeable = False
    return tau, t_true, r_meas


def generate_sweep(
    sample: FilmParams | CavityParams,
    h_mT: float,
    noise: NoiseModel,
    t_start_s: float,
    duration_s: float,
    n: int,
    sample_id: str | None = None,
    enhancement: float = 1.0,
    *,
    ramp=_ramp,
    rng=sweep_rng,
) -> SweepTrace:
    """Simulate one transition sweep.

    The true temperature ramps linearly across Tc(H) +- 5 transition widths;
    the measured temperature adds the drift offset and fast gaussian noise,
    the resistance is read noiselessly off the model sigmoid. A FilmParams
    `sample` gives a "film" sweep and a CavityParams a "cavity" sweep. The
    sweep's tau_s and r_meas_ohm are read-only.

    `ramp` and `rng` are how `run_campaign` hands down its per-campaign memo
    of the noiseless ramp and its batch-seeded stand-in for `sweep_rng`;
    they are not tuning options, and other callers leave them.
    """
    if n < MIN_SWEEP_POINTS:
        raise ConfigError(f"sweep needs >= {MIN_SWEEP_POINTS} points, got {n}")
    if not 0 < duration_s < math.inf:
        raise ConfigError("sweep duration must be positive and finite")
    kind = "cavity" if isinstance(sample, CavityParams) else "film"
    if sample_id is None:
        sample_id = kind

    tau, t_true, r_meas = ramp(sample, h_mT, duration_s, n, enhancement)
    generator = rng(noise.seed, sample_id, h_mT, t_start_s)
    t_meas = t_start_s + tau  # t_true + drift + noise, in place; + and * commute
    t_meas *= noise.drift_uK_per_hr * 1e-6
    t_meas /= 3600.0
    t_meas += t_true
    t_meas += generator.normal(0.0, noise.sigma_fast_uK * 1e-6, n)

    return SweepTrace(sample_id, kind, h_mT, t_start_s, tau, t_meas, r_meas)


def _triplet_sweeps(config: CampaignConfig, kind: str, h_mT: float, t_start_s: float):
    """(params, [(sample_id, field, t_start) of the pre, mid and post sweeps])."""
    if kind == "cavity":
        params, sample_id = config.cavity, config.cavity_sample_id
        h_applied = h_mT * (1.0 + config.homogeneity)
    else:
        params, sample_id = config.film, config.film_sample_id
        h_applied = h_mT
    spacing = config.sweep_duration_s
    return params, [(sample_id, h, t_start_s + i * spacing)
                    for i, h in enumerate((0.0, h_applied, 0.0))]


def run_triplet(
    config: CampaignConfig,
    kind: str,
    h_mT: float,
    t_start_s: float,
    replication: int = 0,
    *,
    ramp=_ramp,
    rng=sweep_rng,
) -> TripletRecord:
    """One zero-field / field / zero-field trio at equal time intervals.

    Cool-down always happens in zero field, so no flux-trapping state is
    carried between sweeps. The cavity sample sees the nominal field scaled
    by (1 + homogeneity) to model the residual coil inhomogeneity. `ramp`
    and `rng` are `run_campaign`'s per-campaign ramp memo and batch-seeded
    generators, passed on to `generate_sweep`; they are not tuning options.
    """
    params, sweeps = _triplet_sweeps(config, kind, h_mT, t_start_s)
    pre, mid, post = (
        generate_sweep(params, h, config.noise, t, config.sweep_duration_s,
                       config.points_per_sweep, sample_id=sample_id,
                       enhancement=config.enhancement, ramp=ramp, rng=rng)
        for sample_id, h, t in sweeps
    )
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

    Each distinct noiseless ramp is computed once per call and shared by
    the sweeps that repeat it (every zero-field sweep of a sample, every
    replication of a field); the memo lives only as long as this call. The
    sweeps' generator states are derived in one batch (`_batch_rng`).
    """
    tasks = campaign_schedule(config)
    ramp = functools.cache(_ramp)
    rng = _batch_rng(config.noise.seed, [
        sweep for kind, h, _, t0 in tasks for sweep in _triplet_sweeps(config, kind, h, t0)[1]])
    return [run_triplet(config, kind, h, t0, rep, ramp=ramp, rng=rng)
            for kind, h, rep, t0 in tasks]
