"""Command-line entry points: simulate, analyze, report, example-config.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import dataclasses
import sys

import click

from . import __version__
from .config import load_config, write_example_config
from .errors import ConfigError, DataError, NumericalError
from .io import load_dataset, write_dataset
from .pipeline import analyze_campaign
from .report import write_analysis, write_report
from .simulate import run_campaign

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _run(body):
    try:
        body()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


@click.group()
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
              help="Output directory for the dataset.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Override the master seed.")
@click.option("--quiet", is_flag=True, help="Suppress the campaign summary.")
def cmd_simulate(config_path, out_dir, seed, quiet):
    """Generate a campaign dataset: one CSV per sweep plus a manifest."""

    def body():
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

    _run(body)


@main.command("analyze")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory [default: RUN_DIR/analysis].")
@click.option("--fit-threshold-mT", "fit_threshold", type=float, default=None,
              help="High-field threshold for the parabola fit "
                   "[default: auto from sensitivity].")
@click.option("--include-linear", is_flag=True,
              help="Add a linear (tilt) term to the parabola fit.")
@click.option("--quiet", is_flag=True, help="Suppress the summary echo.")
def cmd_analyze(run_dir, out_dir, fit_threshold, include_linear, quiet):
    """Run the estimation pipeline on a simulated dataset."""

    def body():
        config, triplets = load_dataset(run_dir)
        result = analyze_campaign(
            triplets,
            rn_ohm=config.film.rn_ohm,
            fit_threshold_mT=fit_threshold,
            include_linear=include_linear,
        )
        out = write_analysis(run_dir, result, out_dir)
        if not quiet:
            click.echo((out / "summary.txt").read_text().rstrip())
            click.echo(f"analysis written to {out}")

    _run(body)


@main.command("report")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory [default: RUN_DIR/report].")
@click.option("--quiet", is_flag=True, help="Suppress the file listing.")
def cmd_report(run_dir, out_dir, quiet):
    """Emit plot-ready CSVs from a run's analysis outputs."""

    def body():
        out = write_report(run_dir, out_dir)
        if not quiet:
            for path in sorted(out.glob("*.csv")):
                click.echo(f"wrote {path}")

    _run(body)


if __name__ == "__main__":
    main()
