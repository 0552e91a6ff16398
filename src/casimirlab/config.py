"""Campaign configuration: INI-style file format, defaults and round-tripping.

The config file has one section per parameter record ([film], [cavity],
[noise], [campaign] and an optional [thermal]). The records' dataclass
fields are the only schema: parsing, the manifest snapshot and the example
config all derive from them, so a new defaulted parameter needs no edit
here. Each default lives in one place: the record's dataclass default,
`default_film` or a DEFAULT_* constant below.

The default film parameters are calibrated, not measured: the thickness is
the AFM value (14 nm); Tc0 = 1.5 K, H0 = 10 mT and lambda0 = 280 nm are
chosen so that the forward model gives an 80 uK shift at mu0*H = 7.2 mT.
The default fast-noise sigma is calibrated by Monte Carlo so that repeated
drift-corrected triplet estimates scatter by about 6 uK. The 6 nm AFM
cavity gap is not a key: the simulated shift does not depend on it.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import operator
import typing
from pathlib import Path

from .errors import ConfigError
from .physics import CavityParams, FilmParams, ThermalEnvironment
from .simulate import CampaignConfig, NoiseModel

DEFAULT_SIGMA_FAST_UK = 40.0
DEFAULT_DRIFT_UK_PER_HR = -50.0
DEFAULT_SEED = 20260828

DEFAULT_FIELDS_MT = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.2, 8.0, 9.0, 10.0)

# section -> parameter record, in snapshot order. A record field named after
# a section holds that section's record; it is not a key of its own.
SECTIONS = {"film": FilmParams, "cavity": CavityParams, "noise": NoiseModel,
            "campaign": CampaignConfig, "thermal": ThermalEnvironment}
OPTIONAL_SECTIONS = {"thermal"}

# A key is required when its field has no default, and also for these
# fields: every config file states the cavity's shift curve and the noise
# budget, rather than inheriting them.
STATED_KEYS = {"shift_max_uK", "h_rise_mT", "h_merge_mT", "sigma_fast_uK", "drift_uK_per_hr", "seed"}

# provenance of the example values, printed beside them
EXAMPLE_NOTES = {
    "thickness_nm": "AFM value",
    **dict.fromkeys(("lambda0_nm", "h0_mT", "tc0_K"), "calibrated, not measured"),
    "sigma_fast_uK": "calibrated for ~6 uK per-triplet scatter",
}


def default_film() -> FilmParams:
    return FilmParams(thickness_nm=14.0, lambda0_nm=280.0, h0_mT=10.0, tc0_K=1.5,
                      rn_ohm=300.0, width_mK=1.0)


def default_config(**overrides) -> CampaignConfig:
    film = overrides.pop("film", default_film())
    cavity = overrides.pop("cavity", CavityParams(film=film))
    noise = overrides.pop(
        "noise", NoiseModel(DEFAULT_SIGMA_FAST_UK, DEFAULT_DRIFT_UK_PER_HR, DEFAULT_SEED)
    )
    fields = overrides.pop("fields_mT", DEFAULT_FIELDS_MT)
    return CampaignConfig(
        film=film, cavity=cavity, noise=noise, fields_mT=tuple(fields), **overrides
    )


def _not_bool(value):
    if isinstance(value, bool):  # JSON true/false, which float() and int() accept
        raise TypeError("a boolean is not a number")
    return value


def _finite(value) -> float:
    """A float from INI text or a JSON number; NaN and infinities are errors."""
    number = float(_not_bool(value))
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _parse_fields(value) -> tuple:
    """A field list from INI text ("0.5, 1 2") or from a JSON list."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    values = tuple(_finite(v) for v in value)
    if not values:
        raise ValueError("field list is empty")
    return values


# annotation -> converter of INI text or a JSON value (JSON 1.5 is no int)
_CONVERT = {float: _finite, tuple: _parse_fields,
            int: lambda v: int(v) if isinstance(v, str) else operator.index(_not_bool(v))}


def _keys(record) -> list:
    return [f for f in dataclasses.fields(record) if f.name not in SECTIONS]


def _record_kwargs(section: str, values, source) -> dict:
    """Checked, converted keyword arguments of one section's record.

    Keys match case-insensitively, since configparser lower-cases them.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"section [{section}] of {source} is not a table")
    record = SECTIONS[section]
    types = typing.get_type_hints(record)
    given = {key.lower(): value for key, value in values.items()}
    keys = {f.name.lower(): f for f in _keys(record)}
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in section [{section}] of {source}")
    kwargs = {}
    for key, f in keys.items():
        if key not in given:
            if f.name in STATED_KEYS or f.default is dataclasses.MISSING:
                raise ConfigError(f"missing option {f.name!r} in section [{section}] of {source}")
            continue
        try:
            kwargs[f.name] = _CONVERT[types[f.name]](given[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value {given[key]!r} for [{section}] {f.name}: {exc}") from exc
    return kwargs


def _build(sections, source) -> CampaignConfig:
    """A campaign config from {section: {key: value}}, INI text or JSON values."""
    if not isinstance(sections, dict):
        raise ConfigError(f"{source} is not a table of sections")
    unknown = sorted(set(sections) - set(SECTIONS))
    if unknown:
        listed = ", ".join(f"[{s}]" for s in unknown)
        raise ConfigError(f"unknown section(s) {listed} in {source}")
    kwargs = {}
    for section in SECTIONS:
        if section in sections:
            kwargs[section] = _record_kwargs(section, sections[section], source)
        elif section not in OPTIONAL_SECTIONS:
            raise ConfigError(f"missing section [{section}] in {source}")
    try:
        film = FilmParams(**kwargs["film"])
        thermal = ThermalEnvironment(**kwargs["thermal"]) if "thermal" in kwargs else None
        return CampaignConfig(
            film=film, cavity=CavityParams(film=film, **kwargs["cavity"]),
            noise=NoiseModel(**kwargs["noise"]), thermal=thermal, **kwargs["campaign"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration in {source}: {exc}") from exc


def load_config(path) -> CampaignConfig:
    """Parse a campaign config file; unknown sections and keys are errors."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
        sections = {section: dict(cp[section]) for section in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return _build(sections, path)


def _values(params) -> dict:
    """{key: value} of one record, tuples as lists."""
    values = {f.name: getattr(params, f.name) for f in _keys(type(params))}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def config_to_dict(config: CampaignConfig) -> dict:
    """Serializable snapshot of a campaign config (manifest payload)."""
    snapshot = {}
    for section in SECTIONS:
        params = config if section == "campaign" else getattr(config, section)
        if params is not None:
            snapshot[section] = _values(params)
    return snapshot


def config_from_dict(d: dict) -> CampaignConfig:
    """Rebuild a campaign config from a manifest snapshot."""
    return _build(d, "config snapshot")


def _render_example(config: CampaignConfig) -> str:
    lines = ["# casimirlab campaign configuration", "# Units: nm, mT, K, mK, uK, Ohm, s, rad."]
    for section, values in config_to_dict(config).items():
        lines += ["", f"[{section}]"]
        for key, value in values.items():
            text = " ".join(map(str, value)) if isinstance(value, list) else value
            line = f"{key} = {text}"
            lines.append(f"{line:<26} # {EXAMPLE_NOTES[key]}" if key in EXAMPLE_NOTES else line)
    lines += ["", "# Uncomment to enable the room-temperature thermal-photon scenario:",
              "# [thermal]"]
    lines += [f"# {key} = {value}" for key, value in _values(ThermalEnvironment()).items()]
    return "\n".join(lines) + "\n"


EXAMPLE_CONFIG = _render_example(default_config(replications=3))


def write_example_config(path) -> Path:
    path = Path(path)
    path.write_text(EXAMPLE_CONFIG)
    return path
