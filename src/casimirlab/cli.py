"""Command-line entry points: simulate, analyze, report, example-config.

Exit codes: 0 success, 2 configuration error or unwritable output path,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import click

from . import __version__
from .config import load_config, write_example_config
from .errors import ConfigError, DataError, NumericalError
from .io import load_dataset, write_dataset
from .pipeline import analyze_campaign
from .report import write_analysis, write_report
from .simulate import run_campaign

# error class -> (exit code, stderr prefix); an OSError is a path that cannot be written
ERROR_EXITS = {ConfigError: (2, "config error"), DataError: (3, "data error"),
              NumericalError: (4, "numerical failure"), OSError: (2, "file error")}


class _ExitCodeGroup(click.Group):
    """Maps the errors of every command to its exit code and a one-line message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(ERROR_EXITS) as exc:
            if isinstance(exc, BrokenPipeError):  # a closed stdout; click exits 1
                raise
            code, prefix = next(v for cls, v in ERROR_EXITS.items() if isinstance(exc, cls))
            click.echo(f"{prefix}: {exc}", err=True)
            sys.exit(code)


@click.group(cls=_ExitCodeGroup)
@click.version_option(__version__)
def main():
    """Simulate and analyze differential critical-field campaigns."""


@main.command("example-config")
@click.option("--out", type=click.Path(dir_okay=False), default="campaign.ini",
              show_default=True, help="Where to write the example config.")
def cmd_example_config(out):
    """Write a fully commented example campaign configuration."""
    path = write_example_config(out)
    click.echo(f"wrote {path}")


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(exists=False), required=True,
              help="Campaign configuration file.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True,
              help="Run directory to create; one that holds sweeps.npy is refused.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Override the master seed.")
@click.option("--quiet", is_flag=True, help="Suppress the campaign summary.")
def cmd_simulate(config_path, out_dir, seed, quiet):
    """Generate a campaign dataset: one .npy array of every sweep plus a manifest."""
    config = load_config(config_path)
    if seed is not None:
        config = dataclasses.replace(
            config, noise=dataclasses.replace(config.noise, seed=seed)
        )
    triplets = run_campaign(config)
    manifest_path = write_dataset(out_dir, config, triplets)
    if not quiet:
        scenario = "thermal" if config.thermal is not None else "shielded"
        click.echo(
            f"simulated {len(triplets)} triplets "
            f"({len(config.fields_mT)} fields x {config.replications} replications "
            f"x 2 samples, {scenario} scenario, seed {config.noise.seed})"
        )
        click.echo(f"manifest: {manifest_path}")


def _finite(ctx, param, value):
    """Click callback: a NaN or infinite number is a usage error (exit 2)."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@main.command("analyze")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--fit-threshold-mT", "fit_threshold", type=float, default=None, callback=_finite,
              help="High-field threshold for the parabola fit "
                   "[default: auto from sensitivity].")
@click.option("--include-linear", is_flag=True,
              help="Add a linear (tilt) term to the parabola fit.")
@click.option("--quiet", is_flag=True, help="Suppress the summary echo.")
def cmd_analyze(run_dir, fit_threshold, include_linear, quiet):
    """Run the estimation pipeline on a simulated dataset; writes RUN_DIR/analysis."""
    config, triplets = load_dataset(run_dir)
    result = analyze_campaign(
        triplets,
        rn_ohm=config.film.rn_ohm,
        fit_threshold_mT=fit_threshold,
        include_linear=include_linear,
        config=config,
    )
    out = write_analysis(run_dir, result)
    if not quiet:
        click.echo((out / "summary.txt").read_text().rstrip())
        click.echo(f"analysis written to {out}")


@main.command("report")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--quiet", is_flag=True, help="Suppress the file listing.")
def cmd_report(run_dir, quiet):
    """Emit plot-ready CSVs from a run's analysis outputs into RUN_DIR/report."""
    out = write_report(run_dir)
    if not quiet:
        for path in sorted(out.glob("*.csv")):
            click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
