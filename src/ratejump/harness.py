"""Monte Carlo harness: error heatmaps over (order, delta) grids.

A scenario produces (realization, true change time) pairs from a seed;
``run_heatmap`` replays `trials` independent realizations and scores the
argmax estimator for every (k, delta) cell on the *same* realizations
(common random numbers), so cells are directly comparable.  Trial i of an
experiment with base seed s draws from the stream (s, i); analysis is
deterministic given the realization, hence results are identical for any
worker count.
"""

from __future__ import annotations

import csv
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .derivative import _check_delta, _check_order, derivative_profiles
# argmax_single is not called here; bench/tracing.py wraps harness.argmax_single by name
from .detector import DetectorConfig, argmax_single, detect
from .poisson import (
    Constant,
    ExpDecay,
    JumpComponent,
    RateSpec,
    Sinusoid,
    simulate,
)
from .process import EventTimes
from .seeding import SimSeed, _check_seed, as_seed
from .si import Graph, build_tree_with_hub, infection_count_process, simulate_si

__all__ = [
    "Realization",
    "SmoothJumpScenario",
    "ConstNullScenario",
    "RampScenario",
    "SITreeScenario",
    "HEATMAP_SCENARIOS",
    "ExperimentSpec",
    "HeatmapResult",
    "run_heatmap",
    "BaselineReport",
    "run_baselines",
    "FalseAlarmReport",
    "false_alarm_study",
    "Preset",
    "PRESETS",
    "get_preset",
    "heatmap_spec_from_preset",
]


@dataclass(frozen=True)
class Realization:
    """One simulated dataset: events, the true change time, and a checksum.

    The checksum (event count, sum of event times) identifies the
    realization, so reruns and worker pools can prove they analyzed the
    same data.
    """

    events: EventTimes
    truth: float
    checksum: tuple

    @staticmethod
    def wrap(events: EventTimes, truth: float) -> "Realization":
        checksum = (len(events), float(events.times.sum()))
        return Realization(events=events, truth=float(truth), checksum=checksum)


@dataclass(frozen=True)
class SmoothJumpScenario:
    """Poisson process: smooth sinusoidal base plus an exponentially decaying
    jump of size ``jump`` at a uniform-random onset."""

    base: float = 1e4
    jump: float = 8e3
    onset_low: float = 5.0
    onset_high: float = 15.0
    horizon: float = 20.0

    analysis_window = None

    def realize(self, seed) -> Realization:
        seed = as_seed(seed)
        truth = float(seed.split(1).uniform(self.onset_low, self.onset_high))
        spec = RateSpec(
            components=(
                JumpComponent(self.base, 0.0, Sinusoid(offset=1.0, omega=1.0)),
                JumpComponent(self.jump, truth, ExpDecay(rate=1.0)),
            )
        )
        events = simulate(spec, self.horizon, seed.split(0))
        return Realization.wrap(events, truth)


@dataclass(frozen=True)
class ConstNullScenario:
    """Constant-rate Poisson process with no jump.

    The "truth" is still drawn uniform on [onset_low, onset_high] so the
    error of an estimator that cannot possibly find anything is well
    defined; analysis is restricted to that interval, hence the mean error
    of a noise-driven argmax approaches span/3.
    """

    base: float = 1e4
    onset_low: float = 5.0
    onset_high: float = 15.0
    horizon: float = 20.0

    @property
    def analysis_window(self):
        return (self.onset_low, self.onset_high)

    def realize(self, seed) -> Realization:
        seed = as_seed(seed)
        truth = float(seed.split(1).uniform(self.onset_low, self.onset_high))
        spec = RateSpec(components=(JumpComponent(self.base, 0.0, Constant()),))
        events = simulate(spec, self.horizon, seed.split(0))
        return Realization.wrap(events, truth)


@dataclass(frozen=True)
class RampScenario:
    """Deterministic test scenario: no events, then perfectly regular events.

    The rate steps from 0 to ``rate_after`` at ``change_at``; every order
    k >= 1 should locate the change to within one grid step.
    """

    rate_after: float = 100.0
    change_at: float = 5.0
    horizon: float = 10.0

    analysis_window = None

    def realize(self, seed) -> Realization:  # seed unused: deterministic
        step = 1.0 / self.rate_after
        n = int(math.floor((self.horizon - self.change_at) / step))
        times = self.change_at + step * np.arange(1, n + 1)
        events = EventTimes(times=times, horizon=self.horizon)
        return Realization.wrap(events, self.change_at)


@dataclass(frozen=True)
class SITreeScenario:
    """SI cascade on the planted-hub tree; truth = the hub's infection time.

    The tree is built once, when the scenario is made, and every
    realization runs on it.
    """

    height: int = 18
    extra_leaves: int = 8000
    source: int = 0
    graph: Graph = field(init=False, compare=False, repr=False)

    analysis_window = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "graph", build_tree_with_hub(self.height, self.extra_leaves))

    def realize(self, seed) -> Realization:
        seed = as_seed(seed)
        trace = simulate_si(self.graph, self.source, seed.split(0))
        truth = float(trace.times[self.graph.hub])
        return Realization.wrap(infection_count_process(trace), truth)


# The heatmap scenarios by name: the class, the parameter that sizes its
# planted change (the one a preset leaves open; none for const-null), and
# every parameter it takes.
HEATMAP_SCENARIOS = {
    "smooth-jump": (SmoothJumpScenario, "jump", ("base", "jump", "horizon")),
    "si-tree": (SITreeScenario, "extra_leaves", ("height", "extra_leaves")),
    "const-null": (ConstNullScenario, None, ("base", "horizon")),
}


# Every trial evaluates its profiles on a grid of step delta * GRID_STEP_FRACTION.
# The product is kept as written: delta / 10 differs from it in the last bit
# for some deltas (0.05 among them), which would move the grid points.
GRID_STEP_FRACTION = 0.1


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
    """Per-cell mean errors plus everything needed to audit the run."""

    k_grid: tuple
    delta_grid: tuple
    errors: np.ndarray  # (trials, n_k, n_delta), NaN where a cell failed
    mean_errors: np.ndarray  # (n_k, n_delta)
    counts: np.ndarray  # (n_k, n_delta) trials that contributed
    argmin: tuple  # (k, delta, mean error)
    checksums: tuple  # one realization checksum per trial
    diagnostics: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def failed_cells(self) -> int:
        """Trial cells that aborted: the NaN entries of ``errors``."""
        return int(self.errors.size - self.counts.sum())


def _trial_errors(spec: ExperimentSpec, trial: int):
    """Errors of every cell on trial ``trial``'s shared realization, from one
    ``derivative_profiles`` call per delta.  A cell whose window holds no
    grid point fails alone, and its ValueError is recorded; the run goes on."""
    realization = spec.scenario.realize(SimSeed(spec.base_seed, trial))
    errors = np.full((len(spec.k_grid), len(spec.delta_grid)), np.nan)
    failures = {}  # (i, j) -> the ValueError that aborted cell (k_grid[i], delta_grid[j])
    for j, delta in enumerate(spec.delta_grid):
        profiles = derivative_profiles(
            realization.events, spec.k_grid, delta,
            grid_step=delta * GRID_STEP_FRACTION, window=spec.scenario.analysis_window)
        for i, profile in enumerate(profiles):
            try:
                errors[i, j] = abs(profile.times[profile.argmax()] - realization.truth)
            except ValueError as exc:
                failures[i, j] = exc
    diagnostics = [
        f"trial {trial} cell (k={spec.k_grid[i]}, delta={spec.delta_grid[j]}): {exc}"
        for (i, j), exc in sorted(failures.items())
    ]
    return errors, realization.checksum, diagnostics


def run_heatmap(spec: ExperimentSpec, workers: "int | None" = None) -> HeatmapResult:
    """Run the full grid.  ``workers`` > 1 parallelizes over trials;
    the result is identical for any worker count."""
    trials = range(spec.trials)
    if workers is None:
        workers = 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, spec.trials // (workers * 4))
            per_trial = list(
                pool.map(_trial_errors, [spec] * spec.trials, trials, chunksize=chunk)
            )
    else:
        per_trial = [_trial_errors(spec, t) for t in trials]

    errors = np.stack([e for e, _, _ in per_trial])
    checksums = tuple(c for _, c, _ in per_trial)
    diagnostics = tuple(d for _, _, ds in per_trial for d in ds)
    counts = np.sum(~np.isnan(errors), axis=0)
    with warnings.catch_warnings():
        # a cell whose every trial failed is all-NaN; its mean must be NaN
        warnings.simplefilter("ignore", category=RuntimeWarning)
        mean_errors = np.nanmean(errors, axis=0)
    if np.all(np.isnan(mean_errors)):
        raise RuntimeError("every cell failed; diagnostics: " + "; ".join(diagnostics[:5]))
    flat = np.where(np.isnan(mean_errors), np.inf, mean_errors)
    best = np.unravel_index(int(np.argmin(flat)), flat.shape)  # first=smallest k, delta
    argmin = (
        spec.k_grid[best[0]],
        spec.delta_grid[best[1]],
        float(mean_errors[best]),
    )
    metadata = {
        "scenario": repr(spec.scenario),
        "trials": spec.trials,
        "base_seed": spec.base_seed,
        "grid_step_fraction": GRID_STEP_FRACTION,
    }
    return HeatmapResult(
        k_grid=spec.k_grid,
        delta_grid=spec.delta_grid,
        errors=errors,
        mean_errors=mean_errors,
        counts=counts,
        argmin=argmin,
        checksums=checksums,
        diagnostics=diagnostics,
        metadata=metadata,
    )


def save_heatmap_csv(result: HeatmapResult, path) -> None:
    """Matrix CSV: '#' metadata lines, then a delta header row and one row per k."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(result.metadata):
            fh.write(f"# {key}={result.metadata[key]}\n")
        fh.write(f"# argmin_k={result.argmin[0]} argmin_delta={result.argmin[1]!r} "
                 f"argmin_error={result.argmin[2]!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["k\\delta"] + [repr(d) for d in result.delta_grid])
        for i, k in enumerate(result.k_grid):
            writer.writerow([k] + [repr(float(v)) for v in result.mean_errors[i]])


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
class BaselineReport:
    """Best-over-delta error for each order: the baselines k = 1, 2 and the higher orders."""

    heatmap: HeatmapResult
    per_order_min: dict  # k -> (delta, mean error)
    high_orders: tuple

    @property
    def best_high(self) -> tuple:
        k = min(self.high_orders, key=lambda k: self.per_order_min[k][1])
        return (k,) + self.per_order_min[k]


def run_baselines(
    scenario,
    delta_grid,
    trials: int,
    base_seed: int = 0,
    high_orders: tuple = (3, 4, 5),
    workers: "int | None" = None,
) -> BaselineReport:
    """Compare first/second-derivative baselines against higher orders.

    All orders are scored on the same realizations (common random
    numbers), each order taking its best delta from ``delta_grid``.
    """
    k_grid = tuple(sorted({1, 2} | set(high_orders)))
    spec = ExperimentSpec(
        scenario=scenario,
        k_grid=k_grid,
        delta_grid=tuple(delta_grid),
        trials=trials,
        base_seed=base_seed,
    )
    heatmap = run_heatmap(spec, workers=workers)
    per_order = {}
    for i, k in enumerate(k_grid):
        row = heatmap.mean_errors[i]
        j = int(np.nanargmin(row))
        per_order[k] = (heatmap.delta_grid[j], float(row[j]))
    return BaselineReport(
        heatmap=heatmap,
        per_order_min=per_order,
        high_orders=tuple(high_orders),
    )


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
    """Threshold-mode detection on a process with no jump: count alarms."""
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
        summary="smooth+jump heatmap at the full 1e6 base rate (slow: ~2e7 events/trial)",
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
            "mode": "argmax-single",
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
    cls, change, names = HEATMAP_SCENARIOS[params["scenario"]]
    overrides = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(overrides) - {change, "trials", "base_seed", "k_grid", "delta_grid"}
    if unknown:
        raise ValueError(f"unsupported overrides for preset {preset.name!r}: {sorted(unknown)}")
    params.update(overrides)
    return ExperimentSpec(
        scenario=cls(**{name: params[name] for name in names}),
        k_grid=tuple(params["k_grid"]),
        delta_grid=tuple(params["delta_grid"]),
        trials=params["trials"],
        base_seed=params.get("base_seed", 0),
    )
