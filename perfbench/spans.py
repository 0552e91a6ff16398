"""Span tracing for the casimirlab benchmark, installed from outside the package.

`Tracer.install` wraps every public function of each casimirlab layer and
puts the wrapper at every module attribute that refers to the original, so
a name imported with `from .analysis import extract_tc0` is traced too.
`Tracer.restore` puts the originals back. Spans are kept in memory and
turned into layer metrics once the traced campaign has ended.

Counts that need the call's arguments (bytes on disk, points) are computed
by hooks that run at `flush`, outside every span, so they do not add to
any layer's time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "physics", "simulate", "io", "analysis", "pipeline", "report", "cli")

# io.fmt formats one float and runs about 2.6 million times per default
# campaign; a span per call would cost more than the call. Its time shows
# as self time of io.write_sweep_csv and io.write_csv.
UNTRACED = {"io.fmt"}

# A triplet has three sweeps; fig_triplet.csv plots one triplet.
SWEEPS_PER_TRIPLET = 3
SWEEPS_PLOTTED = 3


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _tc0_window_points(trace, rn_ohm=None, window_frac=0.05):
    """candidates x window of one extract_tc0 call, by the library's own rule."""
    r = np.asarray(trace.r_meas_ohm, dtype=float)
    t = np.asarray(trace.t_meas_K, dtype=float)
    rn = float(np.max(r)) if rn_ohm is None else float(rn_ohm)
    n = len(t)
    w = max(5, int(round(window_frac * n)) | 1)
    half = w // 2
    r = r[np.argsort(t, kind="stable")][half:n - half]
    m = int(np.count_nonzero((r > 0.05 * rn) & (r < 0.95 * rn))) or len(r)
    return m * w


# name -> hook(bound arguments, result) -> {counter: increment}
HOOKS = {
    "analysis.extract_tc0": lambda a, res: {
        "analysis.tc0_window_points": _tc0_window_points(**a)},
    "analysis.pav_increasing": lambda a, res: {"analysis.pav_points": len(a["y"])},
    "simulate.generate_sweep": lambda a, res: {"simulate.points": res.n_points},
    "io.write_sweep_csv": lambda a, res: {"io.bytes_written": _size(a["path"])},
    "io.write_csv": lambda a, res: {"io.bytes_written": _size(a["path"])},
    "io.write_dataset": lambda a, res: {"io.bytes_written": _size(res)},
    "io.read_sweep_csv": lambda a, res: {"io.bytes_read": _size(a["path"])},
    "io.read_manifest": lambda a, res: {
        "io.bytes_read": _size(os.path.join(a["run_dir"], "manifest.json"))},
}


class Tracer:
    """Records one span per call of each wrapped casimirlab function.

    A span is [name, start, end, parent index, campaign id, error flag],
    with times from time.perf_counter.
    """

    def __init__(self, campaign: str = ""):
        self.campaign = campaign
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._pending = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.campaign, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                span[5] = exc.code not in (0, None)
                raise
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                pending.append((self.campaign, hook, signature, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> list:
        """Wrap every public function of the imported layers; returns the span names."""
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == "casimirlab" or n.startswith("casimirlab."))}
        wrappers = {}  # id(original) -> (original, wrapper)
        names = []
        for layer in LAYERS:
            module = modules.get(f"casimirlab.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        wrappers[id(obj)] = (obj, self._wrap(name, obj))
                        names.append(name)
                callback = getattr(obj, "callback", None)
                if inspect.isfunction(callback) and callback.__module__ == module.__name__:
                    # a click command: trace the function behind it
                    wrapped = self._wrap(f"{layer}.{attr}", callback)
                    obj.callback = wrapped
                    self._patched.append((obj, "callback", callback))
                    names.append(f"{layer}.{attr}")
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._patched.append((module, attr, obj))
        return names

    def restore(self) -> int:
        """Put every original back; returns how many attributes still differ."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = sum(getattr(owner, attr) is not original for owner, attr, original in self._patched)
        self._patched = []
        return left

    def flush(self) -> None:
        """Run the count hooks of the calls made so far."""
        for campaign, hook, signature, args, kwargs, result in self._pending:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in hook(bound.arguments, result).items():
                self.counters[campaign][key] += value
        self._pending.clear()


def union_length(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - union_length(children[i], s[1], s[2])
            for i, s in enumerate(spans)]


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, counters) -> dict:
    """Per-function and per-layer calls, wall_s, self_s and errors, plus counts.

    `spans` and `counters` belong to one campaign. A wall time is the union
    of the spans' intervals, so nested or overlapping calls count once;
    self times are summed.
    """
    selfs = self_times(spans)
    out = defaultdict(float)
    intervals = defaultdict(list)
    for span, own in zip(spans, selfs):
        name, start, end, _, _, error = span
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += own
            intervals[key].append((start, end))
        out[f"{layer}.errors"] += bool(error)
    for key, ivals in intervals.items():
        out[f"{key}.wall_s"] = union_length(ivals)
    out.update(counters)

    sweeps = SWEEPS_PER_TRIPLET * out["analysis.drift_corrected_shift.calls"]
    out["analysis.inversions_per_sweep"] = (
        out["analysis.invert_trace.calls"] / sweeps if sweeps else 0.0)
    out["report.sweeps_read"] = float(sum(
        1 for i, s in enumerate(spans)
        if s[0] == "io.read_sweep_csv" and _has_ancestor(spans, i, "report.write_report")))
    out["report.sweeps_read_per_plotted"] = out["report.sweeps_read"] / SWEEPS_PLOTTED
    return dict(out)
