"""The benchmark's workloads: inputs made from a seed, one op, its checks.

A workload runs a fixed list of ops: op ``i`` draws its inputs from the
stream ``(seed, i)``, so the same seed and op count give the same inputs on
any commit.  ``setup`` holds the calls into the program that every op
needs; ``call(state, i)`` returns the timed callable of op ``i`` (argument
building happens outside the timing).  ``check`` compares one op's output
with ``oracles`` and returns ``(failures, note)``; it runs in a child
process, so it must not change the workload, and ``finish`` gets every
op's note for the checks over the whole run.  Every call into ratejump
goes through a module attribute (``poisson.simulate``), where the tracer
can wrap it.
"""

from __future__ import annotations

import csv
import datetime
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from ratejump import detector, harness, ingest, multicascade, poisson, si
from ratejump.seeding import SimSeed


class Workload:
    name = ""
    op_s = 1.0  # nominal seconds per op here; sets the op count for --seconds
    round_ops = 1  # ops come in whole rounds of this many
    min_ops = 1
    setup_repeats = 3

    def __init__(self, seed: int):
        self.seed = seed

    def n_ops(self, seconds: float) -> int:
        rounds = math.ceil(max(self.min_ops, seconds / self.op_s) / self.round_ops)
        return rounds * self.round_ops

    def prepare(self, out_dir: Path) -> None:
        """Write input files; not part of set-up time."""

    def setup(self):
        return None

    def check(self, state, i, out) -> tuple:
        return [], None

    def finish(self, notes) -> list:
        return []

    def tally(self, notes) -> dict:
        """Counts from the ops' notes that ``spread.py`` pools over runs."""
        return {}

    def n_bundles(self, n_ops: int) -> int:
        return 0

    def rows_by_path(self) -> dict:
        return {}

    def cleanup(self) -> None:
        pass


class HeatmapSmooth(Workload):
    """One fig2-scaled trial through run_heatmap per op."""

    name = "heatmap-smooth"
    op_s = 0.1
    min_ops = 100  # the argmin check needs 100 trials
    setup_repeats = 5

    def __init__(self, seed):
        super().__init__(seed)
        self.preset = harness.get_preset("fig2-scaled")
        self.scenario = harness.heatmap_spec_from_preset(self.preset, trials=1).scenario

    def call(self, state, i):
        # trial 0 of base seed (seed, i): each op gets its own realization
        spec = harness.heatmap_spec_from_preset(
            self.preset, trials=1, base_seed=self.seed * 1_000_000 + i)
        return lambda: harness.run_heatmap(spec, workers=1)

    def check(self, state, i, result):
        sc = self.scenario
        return oracles.check_heatmap_trial(
            result.errors, result.checksums[0][0], sc.base, sc.jump, sc.horizon,
            (sc.onset_low, sc.onset_high)), result.errors[0]

    def finish(self, notes):
        p = self.preset.params
        return oracles.check_heatmap_argmin(np.stack(notes[:100]), p["k_grid"], p["delta_grid"])


@dataclass
class CascadeState:
    graph: object
    recent: deque


class CascadeTree(Workload):
    """One SI cascade on the planted-hub tree per op, plus a three-cascade
    hub intersection every third op."""

    name = "cascade-tree"
    op_s = 2.2
    round_ops = 3
    min_ops = 3
    setup_repeats = 2  # each builds the tree and runs a cascade: about 4 s

    def __init__(self, seed):
        super().__init__(seed)
        p = harness.get_preset("multicascade-tree").params
        self.height, self.extra = p["height"], p["extra_leaves"]
        self.k, self.delta, self.window = p["k"], p["delta"], p["window"]
        self.parent, self.hub = oracles.tree_parents(self.height, self.extra)

    def setup(self):
        graph = si.build_tree_with_hub(self.height, self.extra)
        return CascadeState(graph, deque(maxlen=3))

    def call(self, state, i):
        seed = SimSeed(self.seed, i)

        def op():
            trace = si.simulate_si(state.graph, 0, seed)
            state.recent.append(trace)
            t_hat = detector.argmax_single(si.infection_count_process(trace), self.k, self.delta)
            report = None
            if i % 3 == 2:
                report = multicascade.estimate_high_degree(
                    multicascade.CascadeBundle(tuple(state.recent)),
                    detector.DetectorConfig(k=self.k, delta=self.delta), window=self.window)
            return trace, t_hat, report

        return op

    def check(self, state, i, out):
        trace, t_hat, report = out
        failures = []
        if state.graph.hub != self.hub:
            failures.append(f"graph hub {state.graph.hub} != {self.hub}")
        failures += oracles.check_tree_gaps(trace.times, self.parent)
        bundle = None  # (hub found, output has <= 3 vertices)
        if report is not None:
            bundle_failures, found, small = oracles.check_bundle(
                [t.times for t in state.recent], report.change_times, self.window,
                report.vertices, self.hub)
            failures += bundle_failures
            bundle = (found, small)
        return failures, (abs(t_hat - trace.times[self.hub]), bundle)

    def finish(self, notes):
        failures = []
        mean_error = float(np.mean([error for error, _ in notes]))
        if mean_error > 0.5:
            failures.append(f"mean hub-time error {mean_error:.3f} > 0.5")
        tally = self.tally(notes)
        return failures + oracles.check_bundle_rates(
            tally["hub_in_output"], tally["at_most_3"], tally["bundles"])

    def tally(self, notes):
        bundles = [b for _, b in notes if b is not None]
        return {"bundles": len(bundles), "hub_in_output": sum(f for f, _ in bundles),
                "at_most_3": sum(s for _, s in bundles)}

    def n_bundles(self, n_ops):
        return n_ops // 3


class StreamJumps(Workload):
    """Simulate a smooth rate with three jumps, then threshold detection."""

    name = "stream-jumps"
    op_s = 1.4
    base, jump, onsets, horizon = 2.5e5, 1.5e5, (4.0, 9.0, 14.0), 20.0
    k, delta = 3, 0.1

    def __init__(self, seed):
        super().__init__(seed)
        self.spec = poisson.RateSpec(
            (poisson.JumpComponent(self.base, 0.0, poisson.Sinusoid(offset=1.0, omega=1.0)),)
            + tuple(poisson.JumpComponent(self.jump, t, poisson.ExpDecay(rate=1.0))
                    for t in self.onsets))
        self.config = detector.DetectorConfig(k=self.k, delta=self.delta, threshold=self.jump)

    def call(self, state, i):
        seed = SimSeed(self.seed, i)

        def op():
            events = poisson.simulate(self.spec, self.horizon, seed)
            return events, detector.detect(events, self.config)

        return op

    def check(self, state, i, out):
        events, report = out
        return (oracles.check_stream(events.times, self.horizon, self.base, self.jump, self.onsets)
                + oracles.check_estimates(report.times, self.onsets, self.delta)), None


@dataclass(frozen=True)
class PlantedRegion:
    """What the loader must return for one region of one file."""

    counts: np.ndarray
    gaps: tuple
    corrections: tuple
    spike_day: int


class DailyRegions(Workload):
    """Load one region of a multi-region daily CSV and analyze it at k = 1..4."""

    name = "daily-regions"
    op_s = 0.045
    round_ops = 2  # alternate between the daily and the cumulative file
    setup_repeats = 5
    n_regions, n_days = 50, 365
    start = datetime.date(2021, 1, 1)
    modes = ("daily", "cumulative")

    def __init__(self, seed):
        super().__init__(seed)
        self.paths = []
        self.planted = []  # [file][region] -> PlantedRegion
        self.rows = {}
        self.order = np.random.default_rng([seed, 2]).permutation(self.n_regions)

    def region(self, r):
        return f"region-{r:02d}"

    def _plant(self, f, r):
        """Counts with a yearly cycle and one spike; the cumulative file also
        drops rows (gaps) and dips below the previous day (corrections).

        Returns what the loader must give back, the values to write and
        which days have a row.
        """
        rng = np.random.default_rng([self.seed, f, r])
        days = np.arange(self.n_days)
        base = rng.uniform(50.0, 400.0)
        counts = rng.poisson(base * (1.0 + 0.5 * np.sin(2 * np.pi * days / 365.0
                                                          + rng.uniform(0, 2 * np.pi))))
        spike = int(rng.integers(60, 305))
        counts[spike] += int(8 * base)
        present = np.ones(self.n_days, dtype=bool)
        if self.modes[f] == "daily":
            return PlantedRegion(counts, (), (), spike), counts, present
        special = []
        while len(special) < 5:  # 3 gaps, 2 corrections, apart from each other and the spike
            d = int(rng.integers(20, 345))
            if abs(d - spike) >= 10 and all(abs(d - s) >= 3 for s in special):
                special.append(d)
        gaps, corrections = sorted(special[:3]), sorted(special[3:])
        cum = np.cumsum(counts)
        reported = cum.copy()
        expected = counts.copy()
        for g in gaps:  # loader carries day g-1 across the gap
            expected[g + 1] += expected[g]
            expected[g] = 0
        for m in corrections:  # cumulative dips by j: day m clamps to 0
            j = int(rng.integers(1, 6))
            reported[m] = cum[m - 1] - j
            expected[m + 1] += expected[m] + j
            expected[m] = 0
        present[gaps] = False
        return PlantedRegion(expected, tuple(gaps), tuple(corrections), spike), reported, present

    def prepare(self, out_dir):
        for f, mode in enumerate(self.modes):
            path = out_dir / f"daily-{mode}-seed{self.seed}.csv"
            planted, columns = [], []
            for r in range(self.n_regions):
                region, values, present = self._plant(f, r)
                planted.append(region)
                columns.append((values, present))
            n_rows = 0
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["date", "region", "cases"])
                for d in range(self.n_days):
                    date = (self.start + datetime.timedelta(days=d)).isoformat()
                    for r, (values, present) in enumerate(columns):
                        if present[d]:
                            writer.writerow([date, self.region(r), int(values[d])])
                            n_rows += 1
            self.paths.append(path)
            self.planted.append(planted)
            self.rows[str(path)] = n_rows

    def call(self, state, i):
        f, r = i % 2, int(self.order[(i // 2) % self.n_regions])
        path, mode, region = self.paths[f], self.modes[f], self.region(r)

        def op():
            series = ingest.load_daily_csv(path, region=region, mode=mode)
            return f, r, series, [ingest.analyze_binned(series, k, delta_days=1)
                                  for k in (1, 2, 3, 4)]

        return op

    def check(self, state, i, out):
        f, r, series, analyses = out
        planted = self.planted[f][r]
        failures = oracles.check_daily(series.counts, series.filled_days,
                                       series.clamped_days, planted)
        for a in analyses:
            failures += oracles.check_daily_profile(a.k, a.profile.values, a.argmax_day, planted)
        return failures, None

    def rows_by_path(self):
        return self.rows

    def cleanup(self):
        for path in self.paths:
            path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (HeatmapSmooth, CascadeTree, StreamJumps, DailyRegions)}
