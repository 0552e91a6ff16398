"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root: python3 -m pytest perfbench -q
"""

import pytest

import run  # isort: skip  (puts ./src on sys.path for the imports below)
import casimirlab
import configs
import spans


def span(name, start, end, parent=-1, error=False):
    return [name, start, end, parent, "c0", error]


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 4)]) == 3.0
    assert spans.union_length([(0, 3), (1, 2), (2, 5)]) == 5.0
    assert spans.union_length([(0, 3), (1, 2), (2, 5)], lo=1, hi=4) == 3.0
    assert spans.union_length([(5, 6)], lo=0, hi=4) == 0.0


def test_self_time_of_nested_spans_subtracts_direct_children_only():
    s = [span("pipeline.a", 0, 10), span("analysis.b", 1, 4, 0), span("analysis.c", 2, 3, 1)]
    assert spans.self_times(s) == [7.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    s = [span("pipeline.a", 0, 10), span("analysis.b", 1, 5, 0),
         span("analysis.c", 3, 7, 0), span("analysis.d", 9, 12, 0)]
    assert spans.self_times(s)[0] == pytest.approx(10 - 6 - 1)


def test_layer_metrics_wall_is_union_and_self_is_sum():
    s = [span("analysis.drift_corrected_shift", 0, 10),
         span("analysis.invert_trace", 1, 3, 0),
         span("analysis.invert_trace", 4, 5, 0),
         span("analysis.pav_increasing", 1, 2, 1, error=True)]
    m = spans.layer_metrics(s, {"analysis.pav_points": 7.0})
    assert m["analysis.calls"] == 4
    assert m["analysis.wall_s"] == 10.0
    assert m["analysis.self_s"] == pytest.approx(10.0)
    assert m["analysis.invert_trace.wall_s"] == 3.0
    assert m["analysis.invert_trace.self_s"] == 2.0
    assert m["analysis.errors"] == 1
    assert m["analysis.pav_points"] == 7.0
    assert m["analysis.inversions_per_sweep"] == pytest.approx(2 / 3)


def test_sweeps_read_counts_reads_under_write_report_only():
    s = [span("report.write_report", 0, 10),
         span("io.load_dataset", 1, 9, 0),
         span("io.read_sweep_csv", 2, 3, 1),
         span("io.read_sweep_csv", 3, 4, 1),
         span("io.load_dataset", 11, 12),
         span("io.read_sweep_csv", 11, 12, 4)]
    m = spans.layer_metrics(s, {})
    assert m["report.sweeps_read"] == 2
    assert m["report.sweeps_read_per_plotted"] == pytest.approx(2 / 3)


@pytest.mark.parametrize("n, expected", [
    (10, None), (99, None), (100, (90.0, 89)), (109, (90.0, 98)),
    (999, (90.0, 899)), (1000, (99.0, 989)), (10000, (99.9, 9989)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(list(range(n))[::-1]) == expected


def test_timings_sum_the_fastest_repeat_of_each_stage_and_log_medians():
    plain = [{"simulate": 1.0, "analyze": 4.0}, {"simulate": 3.0, "analyze": 2.5},
             {"simulate": 2.0, "analyze": 3.5}]
    info = {}
    t = run.timings(plain, 10, info)
    assert t == {"pipeline_s": 3.5, "simulate_s": 1.0, "analyze_s": 2.5, "sweeps_per_s": 10 / 3.5}
    assert info["median"] == {"pipeline_s": 5.5, "simulate_s": 2.0, "analyze_s": 3.5}


def test_run_cli_returns_the_documented_exit_code_and_stderr(tmp_path, capsys):
    assert run.run_cli(["analyze", str(tmp_path), "--quiet"]) == (
        3, f"data error: no manifest.json found in {tmp_path}\n")
    code, err = run.run_cli(["no-such-command"])
    assert code == 2 and "no-such-command" in err
    assert capsys.readouterr().out == ""


def test_tracer_covers_names_imported_elsewhere_and_restores_them():
    original = casimirlab.analysis.extract_tc0
    config = configs.null_config(7)
    triplets = casimirlab.run_campaign(config)[:4]
    tracer = spans.Tracer("c0")
    names = tracer.install()
    try:
        assert "analysis.extract_tc0" in names and "io.fmt" not in names
        assert casimirlab.pipeline.extract_tc0 is not original
        casimirlab.pipeline.sample_tc0(triplets, config.film_sample_id, config.film.rn_ohm)
    finally:
        assert tracer.restore() == 0
    assert casimirlab.pipeline.extract_tc0 is original
    assert casimirlab.extract_tc0 is original
    tracer.flush()
    by_name = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s[0], []).append(i)
    assert len(by_name["analysis.extract_tc0"]) == 4
    root = by_name["pipeline.sample_tc0"][0]
    assert all(tracer.spans[i][3] == root for i in by_name["analysis.extract_tc0"])
    window = max(5, int(round(0.05 * configs.NULL_POINTS)) | 1)
    points = tracer.counters["c0"]["analysis.tc0_window_points"]
    assert points > 0 and points % window == 0


def test_traced_error_is_flagged_and_reraised():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(casimirlab.errors.InsufficientData):
            casimirlab.fit_parabola([], 0.0)
    finally:
        tracer.restore()
    assert tracer.spans[-1][0] == "analysis.fit_parabola" and tracer.spans[-1][5]
