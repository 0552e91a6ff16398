"""casimirlab benchmark: one seeded workload per run, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; casimirlab is imported from ./src, which
need not be installed. The workloads and metrics are declared in
BENCHMARK.json; perfbench/plan.json maps each per-layer metric to the
end-to-end metric and workload it should move.

Workloads:
  campaign-default  the CLI chain simulate -> analyze -> report, run in
                    process, on the example config at 1 replication.
  null-scan         run_campaign + analyze_campaign in process on small
                    null campaigns, no disk I/O.

A run repeats its campaign until --seconds have passed (at least once) and
reports the fastest repeat of each stage (see `timings`). Every campaign
of a campaign-* run uses the run's seed, so repeats do identical work;
null-scan cycles through NULL_POOL campaign seeds derived from it. With
--trace 1 the run alternates untraced and traced campaigns and reports
per-layer metrics instead; the traced campaigns run with every public
casimirlab function wrapped in a span (perfbench/spans.py).

The last stdout line is the result JSON; the line before it holds the
environment record and the measurements that are not metrics of every
workload. I/O timings are page-cache-warm: the page cache is never dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 15
NULL_POOL = 16
COMMAND_TIMEOUT_S = 150
# CLI and in-process analyses of one dataset differ only in summation
# order (load_dataset regroups the triplets), i.e. in the last few bits.
MATCH_RTOL = 1e-12

sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import configs  # noqa: E402
import spans  # noqa: E402


class Tally:
    """Attempted and failed commands, campaigns and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def derive_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def tail_percentile(samples, min_beyond: int = 10):
    """Highest of the 90th, 99th, 99.9th... percentiles (nearest rank) with
    at least `min_beyond` samples above it, as (percentile, value); None
    when there are too few samples for the 90th."""
    n = len(samples)
    ordered = sorted(samples)
    best = None
    for tenths_of_permille in (9000, 9900, 9990, 9999):
        rank = -(-n * tenths_of_permille // 10000)  # ceil
        if n - rank < min_beyond:
            break
        best = (tenths_of_permille / 100, ordered[rank - 1])
    return best


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    llc_level, llc_bytes = 0, 0
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in cache.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        if level >= llc_level:
            llc_level, llc_bytes = level, int(size.rstrip("KM")) * scale
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_bytes": llc_bytes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "io_timings": "page-cache-warm",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CASIMIR_LAB_THREADS", None)  # the default of one thread applies
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class SetupProbe:
    """Set-up time: a fresh interpreter importing casimirlab and building the
    workload config. The samples are spread over the run, so that one slow
    spell of the machine moves few of them."""

    def __init__(self, workload: str, config_path, env, tally, seconds: float):
        self.cmd = [sys.executable, "-c", "import sys, configs; configs.setup(*sys.argv[1:])",
                    workload, str(config_path)]
        self.env, self.tally, self.seconds = env, tally, seconds
        self.start = time.perf_counter()
        self.times = []

    def _sample(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        self.times.append(time.perf_counter() - t0)
        self.tally.check(proc.returncode == 0,
                         f"setup exited {proc.returncode}: {proc.stderr[-300:]}")

    def due(self):
        """Take the samples that are due by now."""
        elapsed = (time.perf_counter() - self.start) / self.seconds
        while len(self.times) < min(SETUP_REPEATS, 1 + int(elapsed * SETUP_REPEATS)):
            self._sample()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._sample()
        return statistics.median(self.times)


def film_shift_errors(rows, film) -> list:
    """Per field: mean recovered film shift minus the forward model, in uK.

    rows are (field_mT, shift_uK) of the film estimates."""
    from casimirlab.physics import delta_t_of_field

    by_field = {}
    for field, shift in rows:
        by_field.setdefault(field, []).append(shift)
    return [statistics.fmean(v) - delta_t_of_field(film, h) * film.tc0_K * 1e6
            for h, v in sorted(by_field.items())]


def rms(values) -> float:
    return math.sqrt(statistics.fmean(v * v for v in values))


def parse_csv(text: str) -> list:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_csv(path) -> list:
    return parse_csv(Path(path).read_text())


def close(a: float, b: float) -> bool:
    return abs(a - b) <= MATCH_RTOL * max(abs(a), abs(b))


def run_cli(args) -> tuple:
    """`casimirlab <args>` in this process, as (exit code, stderr text).

    In process rather than as `python -m casimirlab.cli`, so that a stage
    time holds the command's own work and not 0.2-0.3 s of interpreter
    start-up, which other tenants of a shared host slow as much as the rest;
    a fresh interpreter's cost is `setup_s`."""
    import click

    import casimirlab.cli

    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            casimirlab.cli.main(args=args, prog_name="casimirlab", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    except click.ClickException as exc:
        code = exc.exit_code
        err.write(exc.format_message())
    except Exception as exc:  # a crash is counted as a failed command
        code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


class CampaignRun:
    """The CLI chain simulate -> analyze -> report on one INI config, run in
    this process (see `run_cli`)."""

    def __init__(self, workload, seed, work, tally):
        from casimirlab.config import load_config

        self.workload, self.seed, self.tally = workload, seed, tally
        self.config_path = work / "campaign.ini"
        configs.write_campaign_config(workload, self.config_path)
        self.config = load_config(self.config_path)
        self.run_dir = work / "run"
        c = self.config
        self.n_sweeps = len(c.fields_mT) * c.replications * 2 * 3
        self.first_shifts = None
        self.dataset_bytes = 0

    def chain(self):
        """One campaign; returns {stage: wall s} or None if a command failed."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        run = str(self.run_dir)
        stages = {
            "simulate": ["simulate", "--config", str(self.config_path), "--out", run,
                         "--seed", str(self.seed), "--quiet"],
            "analyze": ["analyze", run, "--quiet"],
            "report": ["report", run, "--quiet"],
        }
        times = {}
        for stage, args in stages.items():
            t0 = time.perf_counter()
            code, err = run_cli(args)
            times[stage] = time.perf_counter() - t0
            if not self.tally.check(code == 0, f"{stage} exited {code}: {err.strip()[-300:]}"):
                return None
        self.check_outputs()
        return times

    def check_outputs(self):
        analysis, report = self.run_dir / "analysis", self.run_dir / "report"
        try:
            shifts = (analysis / "shifts.csv").read_text()
            fits = read_csv(analysis / "fits.csv")[0]
            triplet_rows = len(read_csv(report / "fig_triplet.csv"))
            parabola_rows = len(read_csv(report / "fig_parabola.csv"))
        except (OSError, IndexError) as exc:
            self.tally.check(False, f"missing output: {exc}")
            return
        if self.first_shifts is None:
            self.first_shifts, self.first_fits = shifts, fits
            self.dataset_bytes = sum(
                p.stat().st_size for p in self.run_dir.rglob("*")
                if p.is_file() and analysis not in p.parents and report not in p.parents)
        else:
            self.tally.check(shifts == self.first_shifts,
                             "shifts.csv differs between repeats of one seed")
        self.tally.check(
            triplet_rows == 3 * self.config.points_per_sweep and parabola_rows > 0,
            f"report files incomplete: fig_triplet.csv has {triplet_rows} rows")

    def check_against_library(self) -> dict:
        """Compare the CLI outputs with in-process run_campaign +
        analyze_campaign on the same seed; returns derived figures."""
        import dataclasses

        from casimirlab import analyze_campaign, run_campaign

        c = self.config
        c = dataclasses.replace(c, noise=dataclasses.replace(c.noise, seed=self.seed))
        result = analyze_campaign(run_campaign(c), rn_ohm=c.film.rn_ohm)
        # rows are matched by key: load_dataset sorts triplets by sample,
        # run_campaign interleaves film and cavity
        cli = {(r["sample_id"], float(r["field_mT"]), int(r["replication"])): r
               for r in parse_csv(self.first_shifts)}
        mismatched = 0
        for e in result.estimates:
            row = cli.pop((e.sample_id, e.field_mT, e.replication), None)
            if row is None or not (close(float(row["delta_t"]), e.delta_t)
                                   and close(float(row["sigma_delta_t"]), e.sigma_delta_t)):
                mismatched += 1
        self.tally.check(mismatched == 0 and not cli,
                         f"shifts.csv: {mismatched} rows differ from the library, "
                         f"{len(cli)} extra")
        fit = self.first_fits
        self.tally.check(close(float(fit["a_per_mT2"]), result.film_fit.a)
                         and close(float(fit["b_per_mT"]), result.film_fit.b),
                         "fits.csv differs from the library fit")
        film_rows = [(e.field_mT, e.shift_uK(result.tc0_K[e.sample_id]))
                     for e in result.film_estimates()]
        return {"shift_err_uK": rms(film_shift_errors(film_rows, c.film))}


def run_campaign_workload(workload, seed, seconds, trace, tally, info) -> dict:
    os.environ.pop("CASIMIR_LAB_THREADS", None)  # the default of one thread applies
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = CampaignRun(workload, seed, work, tally)
        setup = None if trace else SetupProbe(workload, run.config_path, child_env(), tally,
                                               seconds)
        plain, traced, layers, fired = [], [], [], set()
        deadline = time.perf_counter() + seconds
        last = 0.0
        i = 0
        # a chain is not started when it would end well past the deadline
        while (time.perf_counter() + last / 2 < deadline or not plain
               or (trace and not traced)):
            if setup:
                setup.due()
            tracer = spans.Tracer(f"c{i}") if trace and i % 2 else None
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                times = run.chain()
            finally:
                if tracer:
                    tally.check(tracer.restore() == 0, "a traced function was not restored")
            last = time.perf_counter() - t0
            i += 1
            if times is None:
                continue
            if tracer:
                tracer.flush()
                traced.append(times)
                layers.append(spans.layer_metrics(tracer.spans,
                                                  tracer.counters[tracer.campaign]))
                fired.update(s[0] for s in tracer.spans)
            else:
                plain.append(times)
        # taken before the reference analysis, which holds a whole campaign
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = setup.median() if setup else None
        figures = run.check_against_library() if run.first_shifts else {}
        info.update(figures, campaigns=len(plain) + len(traced), sweeps=run.n_sweeps,
                    dataset_bytes=run.dataset_bytes, stage_s=plain)
        info["dataset_over_llc"] = run.dataset_bytes / max(1, info["environment"]["llc_bytes"])
        total = [sum(t.values()) for t in plain]
        if trace:
            return per_layer_result(workload, layers, fired, total,
                                    [sum(t.values()) for t in traced], figures, tally)
        values = timings(plain, run.n_sweeps, info)
        info["report_s"] = values.pop("report_s")
        return dict(values, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timings(plain, n_sweeps, info) -> dict:
    """End-to-end timings of a run's untraced campaigns, {stage: wall s} each.

    `<stage>_s` is the fastest repeat of that stage in the run and
    `pipeline_s` their sum: the wall time of a campaign in which no stage
    was slowed by the rest of the machine. Other tenants of a shared host
    only ever add time; on the 2-vCPU machine the benchmark was written on
    they slowed every stage by 30-100% for stretches of 10-60 s, which moved
    run medians by more than any bound a benchmark can keep. The medians go
    to the info line."""
    best = {f"{stage}_s": min(t[stage] for t in plain) for stage in plain[0]}
    medians = {f"{stage}_s": statistics.median(t[stage] for t in plain)
               for stage in plain[0]}
    medians["pipeline_s"] = statistics.median(sum(t.values()) for t in plain)
    info["median"] = medians
    pipeline_s = sum(best.values())
    return dict(best, pipeline_s=pipeline_s, sweeps_per_s=n_sweeps / pipeline_s)


def finite_outputs(result) -> bool:
    import numpy as np

    values = [e.delta_t for e in result.estimates] + [e.sigma_delta_t for e in result.estimates]
    values += [result.film_fit.a, result.film_fit.b, *result.tc0_K.values(),
               result.differential.max_gap_uK, result.differential.sigma_at_max_uK]
    d = result.differential
    return bool(np.all(np.isfinite(values)) and np.all(np.isfinite(d.gap_uK))
                and np.all(np.isfinite(d.sigma_uK)))


def run_null_scan(seed, seconds, trace, tally, info) -> dict:
    import casimirlab  # looked up per call, so the traced wrappers are used

    env = child_env()
    setup = None if trace else SetupProbe("null-scan", "", env, tally, seconds)
    seeds = [derive_seed(seed, k) for k in range(NULL_POOL)]
    plain, traced, layers, fired, errors = [], [], [], set(), {}
    deadline = time.perf_counter() + seconds
    i = 0
    while (time.perf_counter() < deadline or i < NULL_POOL
           or (trace and not traced)):
        k = i % NULL_POOL
        if setup:
            setup.due()
        tracer = spans.Tracer(f"c{i}") if trace and i % 2 else None
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            config = configs.null_config(seeds[k])
            triplets = casimirlab.run_campaign(config)
            t1 = time.perf_counter()
            result = casimirlab.analyze_campaign(triplets, rn_ohm=config.film.rn_ohm)
            t2 = time.perf_counter()
        except Exception as exc:  # a failed campaign is counted, the scan goes on
            tally.check(False, f"campaign {k} of the pool: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer:
                tally.check(tracer.restore() == 0, "a traced function was not restored")
            i += 1
        if not tally.check(finite_outputs(result), f"campaign {k}: non-finite output"):
            continue
        times = {"simulate": t1 - t0, "analyze": t2 - t1}
        if tracer:
            tracer.flush()
            traced.append(times)
            layers.append(spans.layer_metrics(tracer.spans, tracer.counters[tracer.campaign]))
            fired.update(s[0] for s in tracer.spans)
        else:
            plain.append(times)
        if k not in errors:
            film = result.film_estimates()
            tc0 = result.tc0_K[film[0].sample_id]
            errors[k] = film_shift_errors([(e.field_mT, e.shift_uK(tc0)) for e in film],
                                          config.film)
    total = [sum(t.values()) for t in plain]
    figures = {"shift_err_uK": rms([x for v in errors.values() for x in v])}
    tail = tail_percentile(total)
    info.update(figures, campaigns=len(plain) + len(traced),
                sweeps=len(config.fields_mT) * config.replications * 6)
    if tail:
        info["pipeline_s_p90"] = {"percentile": tail[0], "value": tail[1],
                                  "samples": len(total)}
    if trace:
        return per_layer_result("null-scan", layers, fired, total,
                                [sum(t.values()) for t in traced], figures, tally)
    return dict(timings(plain, info["sweeps"], info), setup_s=setup.median(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def per_layer_result(workload, layers, fired, plain_total, traced_total, figures,
                     tally) -> dict:
    """Per-layer metrics: the median over the traced campaigns of each."""
    plan = json.loads((BENCH_DIR / "plan.json").read_text())
    missing = set(plan["expected_spans"][workload]) - fired
    tally.check(not missing, f"expected spans never fired: {sorted(missing)}")
    out = {k: statistics.median(m.get(k, 0.0) for m in layers)
           for k in set().union(*layers)}
    out["trace.pipeline_s"] = statistics.median(traced_total) if traced_total else 0.0
    out["trace.overhead_s"] = (out["trace.pipeline_s"] - statistics.median(plain_total)
                               if traced_total and plain_total else 0.0)
    out["analysis.shift_err_uK"] = figures.get("shift_err_uK", 0.0)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "casimirlab" / "__init__.py").is_file():
        print(f"casimirlab sources not found under {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    info = {"workload": args.workload, "seed": args.seed, "environment": environment()}
    if args.workload == "null-scan":
        values = run_null_scan(args.seed, args.seconds, args.trace, tally, info)
    else:
        values = run_campaign_workload(args.workload, args.seed, args.seconds, args.trace,
                                       tally, info)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()

    info["failed_frac"] = tally.failed / max(1, tally.attempted)
    info["failures"] = tally.failures
    kind = "per_layer" if args.trace else "end_to_end"
    # a layer that did no work in this workload reports 0
    metrics = {m["name"]: {"value": values[m["name"]] if kind == "end_to_end"
                           else values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
