"""Monte Carlo harness: error heatmaps over (order, delta) grids.

A scenario produces (realization, true change time) pairs from a seed;
``run_heatmap`` replays `trials` independent realizations and scores the
argmax estimator for every (k, delta) cell on the *same* realizations
(common random numbers), so cells are directly comparable.  Trial i of an
experiment with base seed s draws from the stream (s, i); analysis is
deterministic given the realization, hence results are identical for any
worker count.  A worker process gets the spec once, when it starts, and keeps
it (and an SI tree's fold plan) for all its trials, which arrive as indices.

The profiles read N only on their lattices.  Once per grid, the lattice
plan of each delta (see ``ratejump.derivative``) gives the times its
profiles read, and a trial passes their union to ``realize``.  The Poisson
scenarios draw N exactly there (``draw_counts``) instead of thinning the
whole event stream, and the trial reads each plan's samples from the drawn
counts by index.  The SI scenario ignores the times; its N is read through
``count_at``.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .derivative import (STEPS_PER_DELTA, _check_delta, _check_order, _empty_window,
                         _lattice_plan, derivative_profiles)
# argmax_single is not called here; bench/tracing.py wraps harness.argmax_single by name
from .detector import DetectorConfig, argmax_single, detect
# simulate is called by this name: bench/tracing.py wraps harness.simulate
from .poisson import Constant, JumpComponent, RateSpec, draw_counts, preset_rate_spec, simulate
from .process import EventTimes, SampledCounts
from .seeding import SimSeed, _check_seed, as_seed
from .si import Graph, build_tree_with_hub, infection_count_process, simulate_si

__all__ = [
    "Realization",
    "SmoothJumpScenario",
    "ConstNullScenario",
    "SITreeScenario",
    "HEATMAP_SCENARIOS",
    "ExperimentSpec",
    "HeatmapResult",
    "run_heatmap",
    "FalseAlarmReport",
    "false_alarm_study",
    "Preset",
    "PRESETS",
    "get_preset",
    "heatmap_spec_from_preset",
]


@dataclass(frozen=True)
class Realization:
    """One simulated dataset: N and the true change time.

    ``events`` is N as event times (``EventTimes``) or as counts drawn at
    the times a trial reads (``SampledCounts``).
    """

    events: "EventTimes | SampledCounts"
    truth: float

    @property
    def checksum(self) -> tuple:
        """Identifies the realization, so reruns and worker pools can prove
        they analyzed the same data: (event count N(horizon), sum of the
        event times) for event times, and (N(horizon), sum of the drawn
        counts) for drawn counts."""
        drawn = self.events.counts if isinstance(self.events, SampledCounts) else self.events.times
        return (len(self.events), float(drawn.sum()))


@dataclass(frozen=True)
class SmoothJumpScenario:
    """Poisson process: smooth sinusoidal base plus an exponentially decaying
    jump of size ``jump`` at a uniform-random onset (the ``sin-plus-exp``
    rate preset).  The onset is uniform on [onset_low, onset_high]."""

    base: float = 1e4
    jump: float = 8e3
    horizon: float = 20.0

    onset_low = 5.0
    onset_high = 15.0
    analysis_window = None

    def realize(self, seed, times=None) -> Realization:
        seed = as_seed(seed)
        truth = float(seed.split(1).uniform(self.onset_low, self.onset_high))
        spec = preset_rate_spec("sin-plus-exp", base=self.base, jump=self.jump, onset=truth)
        return Realization(_poisson_counts(spec, self.horizon, seed, times), truth)


@dataclass(frozen=True)
class ConstNullScenario:
    """Constant-rate Poisson process with no jump.

    The "truth" is still drawn uniform on [onset_low, onset_high] so the
    error of an estimator that cannot possibly find anything is well
    defined; analysis is restricted to that interval, hence the mean error
    of a noise-driven argmax approaches span/3.
    """

    base: float = 1e4
    horizon: float = 20.0

    onset_low = 5.0
    onset_high = 15.0
    analysis_window = (onset_low, onset_high)

    def realize(self, seed, times=None) -> Realization:
        seed = as_seed(seed)
        truth = float(seed.split(1).uniform(self.onset_low, self.onset_high))
        spec = RateSpec(components=(JumpComponent(self.base, 0.0, Constant()),))
        return Realization(_poisson_counts(spec, self.horizon, seed, times), truth)


def _poisson_counts(spec: RateSpec, horizon: float, seed: SimSeed, times):
    """N of a Poisson scenario's realization from the stream ``seed.split(0)``:
    drawn at ``times`` only, or, with ``times=None``, as the whole event
    stream by thinning."""
    if times is None:
        return simulate(spec, horizon, seed.split(0))
    return draw_counts(spec, times, horizon, seed.split(0))


@dataclass(frozen=True)
class SITreeScenario:
    """SI cascade from the root (vertex 0) of the planted-hub tree; truth =
    the hub's infection time.

    The tree is built once, when the scenario is made, and every
    realization runs on it.
    """

    height: int = 18
    extra_leaves: int = 8000
    graph: Graph = field(init=False, compare=False, repr=False)

    analysis_window = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "graph", build_tree_with_hub(self.height, self.extra_leaves))

    def realize(self, seed, times=None) -> Realization:  # times unused: N is the cascade's
        seed = as_seed(seed)
        trace = simulate_si(self.graph, 0, seed.split(0))
        truth = float(trace.times[self.graph.hub])
        return Realization(infection_count_process(trace), truth)


# The heatmap scenarios by name: the class and the parameter that sizes its
# planted change (the one a preset leaves open; none for const-null).
HEATMAP_SCENARIOS = {
    "smooth-jump": (SmoothJumpScenario, "jump"),
    "si-tree": (SITreeScenario, "extra_leaves"),
    "const-null": (ConstNullScenario, None),
}


def _scenario_params(cls) -> tuple:
    """Every parameter a heatmap scenario class takes: its init fields."""
    return tuple(f.name for f in fields(cls) if f.init)


@dataclass(frozen=True)
class ExperimentSpec:
    """A full heatmap experiment: scenario x (k, delta) grid x trials."""

    scenario: object
    k_grid: tuple
    delta_grid: tuple
    trials: int
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_grid", tuple(
            _check_order(k, f"k_grid[{i}], one of the orders,")
            for i, k in enumerate(self.k_grid)))
        object.__setattr__(self, "delta_grid", tuple(
            _check_delta(d, f"delta_grid[{j}], one of the deltas,")
            for j, d in enumerate(self.delta_grid)))
        if not self.k_grid or not self.delta_grid:
            raise ValueError("k_grid and delta_grid must be non-empty")
        object.__setattr__(self, "trials", _check_order(self.trials, "trials", limit=math.inf))
        _check_seed(self.base_seed, "base_seed")


@dataclass(frozen=True)
class HeatmapResult:
    """Every trial's cell errors, with the spec that drew them; the grids,
    counts, mean errors, argmin and CSV metadata derive from the two."""

    spec: ExperimentSpec
    errors: np.ndarray  # (trials, n_k, n_delta), NaN where a cell failed
    checksums: tuple  # one realization checksum per trial
    diagnostics: tuple

    @property
    def k_grid(self) -> tuple:
        return self.spec.k_grid

    @property
    def delta_grid(self) -> tuple:
        return self.spec.delta_grid

    @property
    def counts(self) -> np.ndarray:
        """(n_k, n_delta): the trials that contributed to each cell."""
        return np.sum(~np.isnan(self.errors), axis=0)

    @property
    def mean_errors(self) -> np.ndarray:
        """(n_k, n_delta): each cell's mean error over its trials, NaN where
        every trial failed."""
        with warnings.catch_warnings():
            # a cell whose every trial failed is all-NaN; its mean must be NaN
            warnings.simplefilter("ignore", category=RuntimeWarning)
            return np.nanmean(self.errors, axis=0)

    @property
    def argmin(self) -> tuple:
        """(k, delta, mean error) of the cell with the smallest mean error,
        the smallest k, then delta, on ties."""
        mean_errors = self.mean_errors
        flat = np.where(np.isnan(mean_errors), np.inf, mean_errors)
        i, j = np.unravel_index(int(np.argmin(flat)), flat.shape)
        return self.k_grid[i], self.delta_grid[j], float(mean_errors[i, j])

    @property
    def metadata(self) -> dict:
        """The run's provenance, written as the heatmap CSV's '#' lines."""
        return {"scenario": repr(self.spec.scenario), "trials": self.spec.trials,
                "base_seed": self.spec.base_seed, "steps_per_delta": STEPS_PER_DELTA}

    @property
    def failed_cells(self) -> int:
        """Trial cells that aborted: the NaN entries of ``errors``."""
        return int(self.errors.size - self.counts.sum())

    @property
    def best_per_order(self) -> dict:
        """k -> (delta, mean error) at that order's smallest mean error, the
        smallest delta on ties: the paper's comparison of k = 1, 2 against
        higher orders.  An order whose every cell failed maps to None."""
        return {k: None if np.isnan(row).all()
                else (self.delta_grid[int(np.nanargmin(row))], float(np.nanmin(row)))
                for k, row in zip(self.k_grid, self.mean_errors)}


def _sample_times(spec: ExperimentSpec):
    """The sorted distinct times in [0, horizon], 0 and the horizon among
    them, at which a trial's profiles read N over all the deltas; None for
    a scenario with no horizon before it is realized (an SI cascade ends
    when it ends)."""
    return _read_plans(spec)[0]


def _read_plans(spec: ExperimentSpec) -> tuple:
    """``_read_grid`` of the spec's grid; (None, None) where ``_sample_times`` is None."""
    horizon = getattr(spec.scenario, "horizon", None)
    if horizon is None:
        return None, None
    window = spec.scenario.analysis_window
    return _read_grid(spec.k_grid, spec.delta_grid, float(horizon),
                      None if window is None else tuple(window))


@functools.lru_cache(maxsize=16)
def _read_grid(k_grid: tuple, delta_grid: tuple, horizon: float, window) -> tuple:
    """(grid, plans) for one grid, computed once: ``grid`` is
    ``_sample_times``, the union of 0, the horizon and every time the
    lattice plans read, and ``plans[j]`` is delta_grid[j]'s plan with the
    index in ``grid`` of each of its lattices' times.  The grid and the
    indices are read-only, since every trial of the grid shares them."""
    plans = [_lattice_plan(k_grid, d, STEPS_PER_DELTA, horizon, window) for d in delta_grid]
    times = [t for plan in plans for t, _ in plan.lattices]
    reads = np.concatenate(times)
    grid = np.unique(np.concatenate(([0.0, horizon], reads)))
    index = np.searchsorted(grid, reads)
    if not np.array_equal(grid[index], reads):  # N is read only where it is drawn
        raise RuntimeError("internal consistency failure: a plan time is not on the read grid")
    grid.setflags(write=False)
    index.setflags(write=False)
    pieces = iter(np.split(index, np.cumsum([t.size for t in times])[:-1]))
    return grid, tuple((plan, tuple(next(pieces) for _ in plan.lattices)) for plan in plans)


def _trial_errors(spec: ExperimentSpec, trial: int):
    """Errors of every cell on trial ``trial``'s shared realization, from
    one lattice plan per delta: counts drawn on the read grid are read there
    by index, and any other N through ``derivative_profiles``.  A cell whose
    window holds no grid point fails alone, and its ValueError is recorded;
    the run goes on."""
    grid, plans = _read_plans(spec)
    realization = spec.scenario.realize(SimSeed(spec.base_seed, trial), grid)
    events, window = realization.events, spec.scenario.analysis_window
    drawn = isinstance(events, SampledCounts) and grid is not None
    if drawn and not np.array_equal(events.times, grid):
        raise ValueError(f"the realization's counts are drawn at {events.times.size} times "
                         f"that are not the {grid.size} times of the trial's read grid")
    errors = np.full((len(spec.k_grid), len(spec.delta_grid)), np.nan)
    failures = {}  # (i, j) -> the ValueError that aborted cell (k_grid[i], delta_grid[j])
    for j, delta in enumerate(spec.delta_grid):
        if drawn:
            plan, index = plans[j]
            cells = [(lo, hi, n, values) for (_, lo, hi, n, _), values in
                     zip(plan.grids, plan.evaluate([events.counts.take(i) for i in index]))]
        else:
            cells = [(*p.window, len(p), p.values)
                     for p in derivative_profiles(events, spec.k_grid, delta, window=window)]
        for i, (k, (lo, hi, n, values)) in enumerate(zip(spec.k_grid, cells)):
            if n:  # the earliest largest |value|, as DerivativeProfile.argmax takes it
                t_hat = lo + int(np.argmax(np.abs(values))) * (delta / STEPS_PER_DELTA)
                errors[i, j] = abs(t_hat - realization.truth)
            else:
                failures[i, j] = _empty_window(k, delta, (lo, hi))
    diagnostics = [
        f"trial {trial} cell (k={spec.k_grid[i]}, delta={spec.delta_grid[j]}): {exc}"
        for (i, j), exc in sorted(failures.items())
    ]
    return errors, realization.checksum, diagnostics


def _start_worker(spec: ExperimentSpec) -> None:
    global _worker_spec
    _worker_spec = spec


def _worker_trial_errors(trial: int):
    return _trial_errors(_worker_spec, trial)


def run_heatmap(spec: ExperimentSpec, workers: int = 1) -> HeatmapResult:
    """Run the full grid here, or on ``min(workers, trials)`` worker processes that
    each get the spec once, when they start; the result is the same for any workers."""
    workers = _check_order(workers, "workers", limit=math.inf)
    trials = range(spec.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(min(workers, spec.trials), initializer=_start_worker,
                                 initargs=(spec,)) as pool:
            per_trial = list(pool.map(_worker_trial_errors, trials))
    else:
        per_trial = [_trial_errors(spec, t) for t in trials]

    errors = np.stack([e for e, _, _ in per_trial])
    diagnostics = tuple(d for _, _, ds in per_trial for d in ds)
    if np.isnan(errors).all():
        raise RuntimeError("every cell failed; diagnostics: " + "; ".join(diagnostics[:5]))
    return HeatmapResult(spec=spec, errors=errors, checksums=tuple(c for _, c, _ in per_trial),
                         diagnostics=diagnostics)


def save_heatmap_csv(result: HeatmapResult, path) -> None:
    """Matrix CSV: '#' metadata lines, then a delta header row and one row per k."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in sorted(result.metadata.items()):
            fh.write(f"# {key}={value}\n")
        k, delta, error = result.argmin
        fh.write(f"# argmin_k={k} argmin_delta={delta!r} argmin_error={error!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["k\\delta"] + [repr(d) for d in result.delta_grid])
        for k, row in zip(result.k_grid, result.mean_errors):
            writer.writerow([k] + [repr(float(v)) for v in row])


def save_heatmap_long_csv(result: HeatmapResult, path) -> None:
    """Long-form CSV ``k,delta,trial,error`` with every per-trial error."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "delta", "trial", "error"])
        n_trials = result.errors.shape[0]
        for i, k in enumerate(result.k_grid):
            for j, d in enumerate(result.delta_grid):
                for t in range(n_trials):
                    writer.writerow([k, repr(d), t, repr(float(result.errors[t, i, j]))])


@dataclass(frozen=True)
class FalseAlarmReport:
    runs: int
    runs_with_alarms: int
    alarm_counts: tuple  # estimates per run


def false_alarm_study(
    rate_spec: RateSpec,
    horizon: float,
    config: DetectorConfig,
    runs: int,
    base_seed: int = 0,
) -> FalseAlarmReport:
    """Threshold-mode detection on a process with no jump: count alarms.  A
    window that holds no grid point is ``detect``'s ValueError."""
    counts = []
    for run in range(runs):
        events = simulate(rate_spec, horizon, SimSeed(base_seed, run))
        report = detect(events, config)
        counts.append(len(report))
    counts = tuple(counts)
    return FalseAlarmReport(
        runs=runs,
        runs_with_alarms=sum(1 for c in counts if c > 0),
        alarm_counts=counts,
    )


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Preset:
    """A named, reproducible parameter bundle for the CLI and the demos."""

    name: str
    kind: str  # heatmap | false-alarm | poisson-demo | cascade-demo | multicascade | series-demo
    summary: str
    params: dict

    def describe(self) -> str:
        shown = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name} [{self.kind}] {self.summary} ({shown})"


def _linspace(lo: float, hi: float, n: int) -> tuple:
    return tuple(float(x) for x in np.linspace(lo, hi, n))


PRESETS = {
    "fig1": Preset(
        name="fig1",
        kind="poisson-demo",
        summary="single sinusoid+jump realization for eyeballing the derivative profile",
        params={"base": 1e6, "jump": 4e4, "onset": 9.0, "horizon": 20.0, "k": 3, "delta": 0.1},
    ),
    "fig2-scaled": Preset(
        name="fig2-scaled",
        kind="heatmap",
        summary="smooth+jump error heatmap at 1e4 base rate (jump preserves A/sqrt(B))",
        params={
            "scenario": "smooth-jump",
            "base": 1e4,
            "jump": 8e3,
            "horizon": 20.0,
            "k_grid": tuple(range(1, 7)),
            "delta_grid": _linspace(0.05, 0.5, 24),
            "trials": 100,
        },
    ),
    "fig2-full": Preset(
        name="fig2-full",
        kind="heatmap",
        summary="smooth+jump heatmap at the full 1e6 base rate (~2e7 events a trial, "
                "drawn as counts on the lattice)",
        params={
            "scenario": "smooth-jump",
            "base": 1e6,
            "jump": 4e4,
            "horizon": 20.0,
            "k_grid": tuple(range(1, 7)),
            "delta_grid": _linspace(0.05, 0.5, 24),
            "trials": 100,
        },
    ),
    "fig4": Preset(
        name="fig4",
        kind="cascade-demo",
        summary="one planted-hub tree cascade and its count derivative near the hub time",
        params={"height": 18, "extra_leaves": 3000, "k": 2, "delta": 0.3},
    ),
    "fig5": Preset(
        name="fig5",
        kind="heatmap",
        summary="planted-hub tree error heatmap over (k, delta)",
        params={
            "scenario": "si-tree",
            "height": 18,
            "extra_leaves": 8000,
            "k_grid": tuple(range(1, 6)),
            "delta_grid": _linspace(0.1, 2.0, 20),
            "trials": 20,
        },
    ),
    "const-null": Preset(
        name="const-null",
        kind="false-alarm",
        summary="constant-rate process, threshold detector: expect no alarms",
        params={"base": 1e4, "horizon": 20.0, "threshold": 8e3, "k": 4, "delta": 0.24, "runs": 100},
    ),
    "multicascade-tree": Preset(
        name="multicascade-tree",
        kind="multicascade",
        summary="intersect per-cascade candidates to pin the planted hub",
        # calibrated on the benchmark tree: over 20 repetitions on each of
        # two disjoint seed batches (SimSeed bases 777 and 4242) the hub was
        # recovered in 40/40 and |output| stayed <= 3 in 39/40 (k=3
        # recovered the hub in 1/40 at this scale; window 0.06 lets hub
        # leaves through and kept |output| <= 3 in only 27/40)
        params={
            "height": 18,
            "extra_leaves": 8000,
            "cascades": 3,
            "k": 2,
            "delta": 0.1,
            "window": 0.04,
        },
    ),
    "sd-covid-style": Preset(
        name="sd-covid-style",
        kind="series-demo",
        summary="synthetic daily-count series with a reporting spike, analyzed at delta = 1 day",
        params={"days": 90, "base_per_day": 100.0, "spike": 400, "spike_day": 40, "k": 2, "delta_days": 1},
    ),
}


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]


def heatmap_spec_from_preset(preset: Preset, **overrides) -> ExperimentSpec:
    """Build the ExperimentSpec for a heatmap-kind preset.

    Recognized overrides: trials, base_seed, k_grid, delta_grid, and the
    parameter that sizes the preset scenario's planted change (jump or
    extra_leaves; see ``HEATMAP_SCENARIOS``).  Others raise; None means
    not given.
    """
    if preset.kind != "heatmap":
        raise ValueError(f"preset {preset.name!r} is {preset.kind}, not a heatmap")
    params = dict(preset.params)
    cls, change = HEATMAP_SCENARIOS[params["scenario"]]
    overrides = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(overrides) - {change, "trials", "base_seed", "k_grid", "delta_grid"}
    if unknown:
        raise ValueError(f"unsupported overrides for preset {preset.name!r}: {sorted(unknown)}")
    params.update(overrides)
    return ExperimentSpec(
        scenario=cls(**{name: params[name] for name in _scenario_params(cls)}),
        k_grid=tuple(params["k_grid"]),
        delta_grid=tuple(params["delta_grid"]),
        trials=params["trials"],
        base_seed=params.get("base_seed", 0),
    )
