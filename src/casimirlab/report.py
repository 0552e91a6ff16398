"""Writers for the analysis outputs and the plot-ready report CSVs.

`write_analysis` emits shifts.csv, fits.csv, differential.csv and a
plain-text summary into <run>/analysis/. `write_report` emits
fig_parabola.csv, fig_triplet.csv and (for thermal campaigns)
fig_thermal.csv into <run>/report/. Column schemas are documented in the
README format reference.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError
from .analysis import DEFAULT_N_LEVELS, field_means
from .io import open_run, read_csv, read_triplets, write_csv
from .pipeline import AnalysisResult

ANALYSIS_DIR = "analysis"
REPORT_DIR = "report"
FIT_CURVE_POINTS = 101  # samples of the fitted parabola in fig_parabola.csv

SHIFTS_COLUMNS = (
    "sample_id",
    "kind",
    "field_mT",
    "replication",
    "delta_t",
    "sigma_delta_t",
    "shift_uK",
    "sigma_uK",
    "n_levels",
)
FITS_COLUMNS = (
    "sample_id",
    "a_per_mT2",
    "b_per_mT",
    "var_a",
    "cov_ab",
    "var_b",
    "rms_residual",
    "n_points",
    "field_threshold_mT",
    "include_linear",
)
DIFFERENTIAL_COLUMNS = ("field_mT", "gap_uK", "sigma_uK", "z")


def write_analysis(run_dir, result: AnalysisResult) -> Path:
    """Write the analysis products into <run>/analysis; returns that directory."""
    out = Path(run_dir) / ANALYSIS_DIR
    out.mkdir(exist_ok=True)

    rows = [
        (
            e.sample_id,
            e.kind,
            e.field_mT,
            e.replication,
            e.delta_t,
            e.sigma_delta_t,
            e.shift_uK(result.tc0_K[e.sample_id]),
            e.sigma_uK(result.tc0_K[e.sample_id]),
            DEFAULT_N_LEVELS,
        )
        for e in result.estimates
    ]
    write_csv(out / "shifts.csv", SHIFTS_COLUMNS, rows)

    fit = result.film_fit
    film_sample = result.film_estimates()[0].sample_id
    write_csv(
        out / "fits.csv",
        FITS_COLUMNS,
        [
            (
                film_sample,
                fit.a,
                fit.b,
                fit.covariance[0, 0],
                fit.covariance[0, 1],
                fit.covariance[1, 1],
                fit.rms_residual,
                fit.n_points,
                fit.field_threshold_mT,
                fit.include_linear,
            )
        ],
    )

    diff = result.differential
    write_csv(
        out / "differential.csv",
        DIFFERENTIAL_COLUMNS,
        zip(diff.field_mT.tolist(), diff.gap_uK.tolist(), diff.sigma_uK.tolist(),
            diff.z.tolist()),
    )

    summary = [
        f"triplets analyzed: {len(result.estimates)}",
        *(f"Tc0[{sid}] = {tc:.17g} K" for sid, tc in sorted(result.tc0_K.items())),
        f"film fit: a = {fit.a:.17g} /mT^2, b = {fit.b:.17g} /mT "
        f"(|H| >= {fit.field_threshold_mT:.3f} mT, n = {fit.n_points})",
        f"sensitivity: {result.sensitivity_uK:.3f} uK",
        f"max gap: {diff.max_gap_uK:.3f} +- {diff.sigma_at_max_uK:.3f} uK "
        f"at {diff.field_at_max_mT:.3f} mT",
        f"max z: {diff.significance:.3f} at {diff.field_mT[np.argmax(diff.z)]:.3f} mT, "
        f"p_global = {diff.p_global:.4g}",
    ]
    if result.amplitude_uK is not None:
        amplitude, sigma, stated = result.amplitude_uK
        with np.errstate(all="ignore"):  # a zero σ_A gives an infinite or NaN pull
            pull = np.divide(amplitude - stated, sigma)
        summary.append(f"amplitude: {amplitude:.3f} +- {sigma:.3f} uK, "
                       f"pull {pull:+.3f} against shift_max_uK = {stated:.17g}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return out


def write_report(run_dir) -> Path:
    """Build the plot-ready CSVs in <run>/report from the run's analysis outputs."""
    run_dir = Path(run_dir)
    analysis = run_dir / ANALYSIS_DIR
    for name in ("shifts.csv", "fits.csv"):
        if not (analysis / name).exists():
            raise DataError(f"missing analysis output {analysis / name}; run analyze first")

    shifts = read_csv(analysis / "shifts.csv", SHIFTS_COLUMNS, ("sample_id", "kind"))
    fits = read_csv(analysis / "fits.csv", FITS_COLUMNS, ("sample_id",))
    a, b = fits["a_per_mT2"][0], fits["b_per_mT"][0]

    # Fig 6 style: film delta_t vs H data points plus fitted parabola samples
    film = shifts["kind"] == "film"
    if not film.any():
        raise DataError(f"{analysis / 'shifts.csv'}: no film rows")
    columns = ("field_mT", "delta_t", "sigma_delta_t", "shift_uK", "sigma_uK")
    data = [shifts[c][film] for c in columns]
    rows = list(zip(["data"] * len(data[0]), *(values.tolist() for values in data)))
    h_data, dt_data, shift_data = data[0], data[1], data[3]
    # film Tc0 from any row with a nonzero shift; when every shift is zero,
    # so is the fitted parabola and Tc0 does not enter
    nonzero = np.flatnonzero(dt_data != 0)
    tc0_K = shift_data[nonzero[0]] / dt_data[nonzero[0]] / 1e6 if nonzero.size else 0.0
    h = np.linspace(h_data.min(), h_data.max(), FIT_CURVE_POINTS)
    dt = a * h * h + b * h
    zeros = [0.0] * FIT_CURVE_POINTS
    rows += zip(["fit"] * FIT_CURVE_POINTS, h.tolist(), dt.tolist(), zeros,
                (dt * tc0_K * 1e6).tolist(), zeros)
    tables = {"fig_parabola.csv": (("series", *columns), rows)}

    # Fig 5 style: R vs T for one film triplet, at the field closest to 7.2 mT;
    # only that triplet's rows are read
    config, groups = open_run(run_dir)
    film_groups = [
        ((sample, field, rep), entries)
        for (sample, field, rep), entries in groups
        if entries["mid"][1]["kind"] == "film" and field != 0
    ]
    if not film_groups:
        raise DataError("no in-field film triplets available for fig_triplet")
    # first minimum in (sample, field, replication) order: at +-H, -H wins
    pick = read_triplets(
        run_dir, groups, [min(film_groups, key=lambda g: (abs(abs(g[0][1]) - 7.2), g[0][2]))]
    )[0]
    rows = []
    for position, trace in pick.sweeps():
        n = trace.n_points  # the field is formatted once per sweep; write_csv keeps a str cell
        rows += zip([position] * n, ["%.17g" % trace.field_mT] * n, trace.tau_s.tolist(),
                    trace.t_meas_K.tolist(), trace.r_meas_ohm.tolist())
    tables["fig_triplet.csv"] = (("position", "field_mT", "tau_s", "T_meas_K", "R_meas_ohm"), rows)

    # Fig 4 style: per-kind recovered shift curves, thermal campaigns only
    if config.thermal is not None:
        rows = []
        for kind in ("film", "cavity"):
            sel = shifts["kind"] == kind
            fields, means, variances = field_means(
                shifts["field_mT"][sel], shifts["shift_uK"][sel], shifts["sigma_uK"][sel]
            )
            rows += [(kind, *row) for row in zip(fields, means, np.sqrt(variances))]
        tables["fig_thermal.csv"] = (("kind", "field_mT", "shift_uK", "sigma_uK"), rows)

    # written only once every table is built, so a run that fails a check writes nothing
    out = run_dir / REPORT_DIR
    out.mkdir(exist_ok=True)
    for name, (columns, rows) in tables.items():
        write_csv(out / name, columns, rows)
    return out
