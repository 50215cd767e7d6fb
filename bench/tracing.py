"""Spans around calls into ratejump's layers, recorded from the benchmark.

The tracer replaces a function with a wrapper at the place it is looked up
(for example ``ratejump.harness.simulate``, the name the heatmap harness
calls), so nothing inside ``src/`` changes.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the time covered by its child spans; calls made through bound methods
(``EventTimes.count_at`` inside ``derivative_profile``) are not wrapped and
count toward the caller.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field

from ratejump import detector, harness, ingest, multicascade, poisson, si
from ratejump.seeding import SimSeed

LAYERS = ("poisson", "si", "process", "derivative", "detector", "harness",
          "multicascade", "ingest", "seeding")


@dataclass
class Span:
    layer: str
    name: str
    op: "int | None"
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _simulate_note(args, kwargs, result):
    return {"events": len(result), "spec": args[0], "horizon": args[1]}


# (namespace, attribute, layer, note): every place a workload's calls look a
# layer's public function up.  ``note`` pulls counts from the returned object.
TARGETS = (
    (poisson, "simulate", "poisson", _simulate_note),
    (harness, "simulate", "poisson", _simulate_note),
    (si, "build_tree_with_hub", "si", None),
    (si, "simulate_si", "si", lambda a, k, r: {"vertices": r.n}),
    (si, "infection_count_process", "si", None),
    (multicascade, "infection_count_process", "si", None),
    (poisson, "EventTimes", "process", None),
    (si, "EventTimes", "process", None),
    (ingest, "from_binned", "process", None),
    (ingest, "BinnedSeries", "process", None),
    (detector, "derivative_profile", "derivative", lambda a, k, r: {"points": len(r)}),
    (ingest, "derivative_profile", "derivative", lambda a, k, r: {"points": len(r)}),
    (detector, "argmax_single", "detector", None),
    (harness, "argmax_single", "detector", None),
    (detector, "detect", "detector", lambda a, k, r: {"candidates": r.candidate_count}),
    (multicascade, "detect", "detector", lambda a, k, r: {"candidates": r.candidate_count}),
    (harness, "run_heatmap", "harness",
     lambda a, k, r: {"failed_cells": int(r.errors.size - r.counts.sum())}),
    (multicascade, "estimate_high_degree", "multicascade",
     lambda a, k, r: {"candidates": sum(r.candidate_sizes)}),
    (ingest, "load_daily_csv", "ingest", lambda a, k, r: {"path": str(a[0])}),
    (ingest, "analyze_binned", "ingest", None),
    (poisson, "generator", "seeding", None),
    (si, "generator", "seeding", None),
    (SimSeed, "split", "seeding", None),
)


class Tracer:
    """Collects spans of one single-threaded run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, layer, note):
        name = fn.__name__

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, name, self.op, parent)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, layer, note in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, note))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path):
        """One JSON line per span, in completion order."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "layer": s.layer, "name": s.name, "op": s.op,
                    "parent": index.get(id(s.parent)), "start": s.start, "end": s.end,
                    "self_s": s.self_s,
                    "note": {k: v for k, v in s.note.items() if isinstance(v, (int, float))},
                }) + "\n")


def envelope_candidates(spec, horizon) -> float:
    """Expected thinning candidates: sum of rate_upper_bound(w) * |w| over unit windows."""
    total, a = 0.0, 0.0
    while a < horizon:
        b = min(a + 1.0, horizon)
        total += poisson.rate_upper_bound(spec, (a, b)) * (b - a)
        a = b
    return total


def layer_self_times(spans, n_ops) -> dict:
    """Self seconds per timed op, by layer."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if isinstance(s.op, int):
            out[s.layer] += s.self_s / n_ops
    return out


def per_layer_metrics(spans, n_ops, n_bundles, rows_by_path) -> dict:
    """The per-layer metrics of BENCHMARK.json; a layer the workload never
    calls reports 0."""
    timed = [s for s in spans if isinstance(s.op, int)]

    def of(name):
        return [s for s in timed if s.name == name]

    def total(spans_, attr="duration"):
        return sum(getattr(s, attr) for s in spans_)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    sims = of("simulate")
    sim_s = total(sims)
    events = sum(s.note["events"] for s in sims)
    candidates = sum(envelope_candidates(s.note["spec"], s.note["horizon"]) for s in sims)
    cascades = of("simulate_si")
    profiles = of("derivative_profile")
    detects = of("detect")
    loads = of("load_daily_csv")
    estimates = of("estimate_high_degree")
    builds = [s.duration for s in spans if s.name == "build_tree_with_hub"]
    self_by_layer = layer_self_times(spans, n_ops)
    return {
        "poisson.simulate_s": sim_s / n_ops,
        "poisson.events_per_s": rate(events, sim_s),
        "poisson.envelope_efficiency": events / candidates if candidates else 0.0,
        "si.build_tree_s": statistics.median(builds) if builds else 0.0,
        "si.simulate_si_s": total(cascades) / n_ops,
        "si.vertices_per_s": rate(sum(s.note["vertices"] for s in cascades), total(cascades)),
        "si.count_process_s": total(of("infection_count_process")) / n_ops,
        "derivative.profile_s": total(profiles) / n_ops,
        "derivative.profiles": len(profiles) / n_ops,
        "derivative.grid_points_per_s": rate(sum(s.note["points"] for s in profiles),
                                             total(profiles)),
        "detector.argmax_self_s": total(of("argmax_single"), "self_s") / n_ops,
        "detector.detect_self_s": total(detects, "self_s") / n_ops,
        "detector.candidates": sum(s.note["candidates"] for s in detects) / n_ops,
        "harness.self_s": self_by_layer["harness"],
        "harness.failed_cells": sum(s.note["failed_cells"] for s in of("run_heatmap")) / n_ops,
        "multicascade.estimate_self_s": total(estimates, "self_s") / n_bundles if n_bundles else 0.0,
        "multicascade.candidates": (sum(s.note["candidates"] for s in estimates) / n_bundles
                                    if n_bundles else 0.0),
        "ingest.load_s": total(loads) / n_ops,
        "ingest.rows_per_s": rate(sum(rows_by_path[s.note["path"]] for s in loads),
                                  total(loads)),
        "ingest.analyze_self_s": total(of("analyze_binned"), "self_s") / n_ops,
        "process.self_s": self_by_layer["process"],
        "seeding.self_s": self_by_layer["seeding"],
    }

