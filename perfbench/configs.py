"""Campaign configurations of the benchmark workloads.

Kept apart from run.py so that a fresh interpreter measuring set-up time
imports only this module and casimirlab.
"""

from __future__ import annotations

import configparser

CAMPAIGN_WORKLOADS = {
    # the example config at 1 replication: 12 fields x 1 rep x 2 samples.
    # Short stages (0.2-0.4 s): on a shared host the fastest repeat of a
    # stage reads the same from run to run only when the stage fits in the
    # quiet spells between other tenants' bursts; at 3 replications it did
    # not.
    "campaign-default": {"campaign": {"replications": "1"}},
}

# null campaign: example film and noise, no cavity shift, short sweeps
NULL_REPLICATIONS = 3
NULL_SWEEP_S = 300.0
NULL_POINTS = 300


def write_campaign_config(workload: str, path) -> None:
    """The example config with the workload's overrides, as an INI file."""
    from casimirlab.config import EXAMPLE_CONFIG

    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    cp.read_string(EXAMPLE_CONFIG)
    for section, values in CAMPAIGN_WORKLOADS[workload].items():
        for key, value in values.items():
            cp[section][key] = value
    with open(path, "w") as f:
        cp.write(f)


def null_config(seed: int):
    """One null campaign (shift_max_uK = 0) of the null-scan workload."""
    from casimirlab.config import (
        DEFAULT_DRIFT_UK_PER_HR,
        DEFAULT_SIGMA_FAST_UK,
        default_config,
        default_film,
    )
    from casimirlab.physics import CavityParams
    from casimirlab.simulate import NoiseModel

    film = default_film()
    return default_config(
        film=film,
        cavity=CavityParams(film=film, shift_max_uK=0.0),
        noise=NoiseModel(DEFAULT_SIGMA_FAST_UK, DEFAULT_DRIFT_UK_PER_HR, seed),
        replications=NULL_REPLICATIONS,
        sweep_duration_s=NULL_SWEEP_S,
        points_per_sweep=NULL_POINTS,
    )


def setup(workload: str, config_path: str):
    """What a fresh interpreter does before its first campaign."""
    if workload == "null-scan":
        import casimirlab  # noqa: F401

        return null_config(0)
    import casimirlab.cli  # noqa: F401
    from casimirlab.config import load_config

    return load_config(config_path)
