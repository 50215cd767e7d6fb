"""Monte Carlo harness: error heatmaps over (order, delta) grids.

A scenario produces (realization, true change time) pairs from a seed;
``run_heatmap`` replays `trials` independent realizations and scores the
argmax estimator for every (k, delta) cell on the *same* realizations
(common random numbers), so cells are directly comparable.  Trial i of an
experiment with base seed s draws from the stream (s, i); analysis is
deterministic given the realization, hence results are identical for any
worker count.  A worker process gets the spec once, when it starts, and keeps
it (and an SI tree's fold plan) for all its trials, which arrive as indices.

One lattice plan covers the whole (k, delta) grid (see
``ratejump.derivative``): it lays every delta's lattices end to end in one
read vector.  A trial reads N once, by one of two paths, and scores every
cell: one lag difference per order over the whole vector, then the one peak
rule, ``np.argmax`` of |value| over each cell's own segment of it.
- A scenario with a horizon gets its read grid, the sorted union of 0, the
  horizon and the plan's times, computed once per grid with the plan,
  before it is realized.  The Poisson ones draw N only there
  (``draw_counts``), not the whole event stream by thinning, and the trial
  takes the plan's samples from those counts by one index.  Counts drawn
  anywhere else are refused.
- Event times, those of an SI cascade, which sets its own horizon, or of a
  scenario that returns them, are read by one ``count_at`` at the times of
  a plan of their own horizon.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .derivative import STEPS_PER_DELTA, _as_counting, _lattice_plan
# argmax_single is not called here; bench/tracing.py wraps harness.argmax_single by name
from .detector import DetectorConfig, argmax_single, detect
# simulate is called by this name: bench/tracing.py wraps harness.simulate
from .poisson import Constant, JumpComponent, RateSpec, draw_counts, preset_rate_spec, simulate
from .process import EventTimes, SampledCounts, _check_delta, _check_integer, _write_csv
from .seeding import SimSeed, as_seed
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


class _PoissonScenario:
    """A Poisson heatmap scenario: a rate with one onset, drawn on a horizon.

    The contract every heatmap scenario keeps: ``realize(seed, times)``
    returns a ``Realization`` that depends on the seed alone, and
    ``analysis_window`` is None or the (lo, hi) that every cell's profile is
    cut to.  Here the truth is the onset, uniform on [onset_low, onset_high]
    from the stream ``seed.split(1)``, and N comes from ``seed.split(0)``:
    drawn at ``times`` only, or, with ``times=None``, as the whole event
    stream by thinning.  A subclass gives its fields, ``horizon`` among
    them, its ``analysis_window`` and ``_rate(onset)``, the rate spec of one
    realization.  Every field is a rate or a time, so each is checked by
    the rule on a step under its own name when the scenario is made, and
    stored as that float.
    """

    onset_low = 5.0
    onset_high = 15.0

    def __post_init__(self) -> None:
        for name in _scenario_params(type(self)):
            object.__setattr__(self, name, _check_delta(getattr(self, name), name))

    def realize(self, seed, times=None) -> Realization:
        seed = as_seed(seed)
        truth = float(seed.split(1).uniform(self.onset_low, self.onset_high))
        spec = self._rate(truth)
        if times is None:
            return Realization(simulate(spec, self.horizon, seed.split(0)), truth)
        return Realization(draw_counts(spec, times, self.horizon, seed.split(0)), truth)


@dataclass(frozen=True)
class SmoothJumpScenario(_PoissonScenario):
    """Smooth sinusoidal base plus an exponentially decaying jump of size
    ``jump`` at the onset (the ``sin-plus-exp`` rate preset)."""

    base: float = 1e4
    jump: float = 8e3
    horizon: float = 20.0

    analysis_window = None

    def _rate(self, onset: float) -> RateSpec:
        return preset_rate_spec("sin-plus-exp", base=self.base, jump=self.jump, onset=onset)


@dataclass(frozen=True)
class ConstNullScenario(_PoissonScenario):
    """Constant rate with no jump.

    The "truth" is still drawn as the onset, so the error of an estimator
    that cannot possibly find anything is well defined; analysis is
    restricted to [onset_low, onset_high], hence the mean error of a
    noise-driven argmax approaches span/3.
    """

    base: float = 1e4
    horizon: float = 20.0

    analysis_window = (_PoissonScenario.onset_low, _PoissonScenario.onset_high)

    def _rate(self, onset: float) -> RateSpec:
        return RateSpec(components=(JumpComponent(self.base, 0.0, Constant()),))


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


def _scenario_params(cls) -> dict:
    """Every parameter a heatmap scenario class takes, its init fields, with
    its default: the one statement of the defaults, the CLI's too."""
    return {f.name: f.default for f in fields(cls) if f.init}


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
            _check_integer(k, f"k_grid[{i}], one of the orders,")
            for i, k in enumerate(self.k_grid)))
        object.__setattr__(self, "delta_grid", tuple(
            _check_delta(d, f"delta_grid[{j}], one of the deltas,")
            for j, d in enumerate(self.delta_grid)))
        if not self.k_grid or not self.delta_grid:
            raise ValueError("k_grid and delta_grid must be non-empty")
        object.__setattr__(self, "trials", _check_integer(self.trials, "trials", high=math.inf))
        _check_integer(self.base_seed, "base_seed", low=0, high=math.inf)


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


@functools.lru_cache(maxsize=16)
def _read_grid(k_grid: tuple, delta_grid: tuple, horizon: float, window) -> tuple:
    """(grid, plan, index) for one grid, computed once: ``plan`` is the
    lattice plan of every (k, delta) cell, ``grid`` the union of 0, the
    horizon and the times it reads, and ``plan.times`` is ``grid[index]``.
    The grid and the index are read-only, since every trial of the grid
    shares them."""
    plan = _lattice_plan(k_grid, delta_grid, STEPS_PER_DELTA, horizon, window)
    grid = np.unique(np.concatenate(([0.0, horizon], plan.times)))
    index = np.searchsorted(grid, plan.times)
    if not np.array_equal(grid[index], plan.times):  # N is read only where it is drawn
        raise RuntimeError("internal consistency failure: a plan time is not on the read grid")
    grid.setflags(write=False)
    index.setflags(write=False)
    return grid, plan, index


def _trial_errors(spec: ExperimentSpec, trial: int):
    """Errors of every cell on trial ``trial``'s shared realization, whose N
    is read one of two ways.  A scenario with a horizon is realized on the
    cached read grid of that horizon: counts drawn there, as they must be,
    are taken by index into the plan's samples.  Event times, those of a
    cascade or of a scenario that returns them, are read by ``plan.read``
    on a plan of their own horizon.  A cell whose window holds no grid
    point fails alone, and its ValueError is recorded; the run goes on."""
    window = spec.scenario.analysis_window
    window = None if window is None else tuple(window)
    horizon = getattr(spec.scenario, "horizon", None)
    grid = None  # a cascade sets its own horizon, and has no read grid to be drawn on
    if horizon is not None:
        grid, plan, index = _read_grid(spec.k_grid, spec.delta_grid, float(horizon), window)
    realization = spec.scenario.realize(SimSeed(spec.base_seed, trial), grid)
    events = realization.events
    count_at, T = _as_counting(events)
    if isinstance(events, SampledCounts):
        if not np.array_equal(events.times, grid):  # None, no grid, equals no times
            raise ValueError(f"the realization's counts are drawn at {events.times.size} times "
                             f"that are not the {0 if grid is None else grid.size} times "
                             "of the trial's read grid")
        # float64 here, so that no int64 copy outlives the take
        samples = events.counts.take(index).astype(np.float64)
    else:
        plan = _lattice_plan(spec.k_grid, spec.delta_grid, STEPS_PER_DELTA, T, window)
        samples = plan.read(count_at)
    errors = np.abs(plan.peak_times(samples) - realization.truth)
    diagnostics = [f"trial {trial} cell (k={spec.k_grid[i]}, delta={spec.delta_grid[j]}): {exc}"
                   for (i, j), exc in plan.empty_cells()]
    return errors, realization.checksum, diagnostics


def _start_worker(spec: ExperimentSpec) -> None:
    global _worker_spec
    _worker_spec = spec


def _worker_trial_errors(trial: int):
    return _trial_errors(_worker_spec, trial)


def run_heatmap(spec: ExperimentSpec, workers: int = 1) -> HeatmapResult:
    """Run the full grid here, or on ``min(workers, trials)`` worker processes that
    each get the spec once, when they start; the result is the same for any workers."""
    workers = min(_check_integer(workers, "workers", high=math.inf), spec.trials)
    trials = range(spec.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_start_worker,
                                 initargs=(spec,)) as pool:
            # a task costs the parent a fixed overhead: a few per worker, not one per trial
            per_trial = list(pool.map(_worker_trial_errors, trials,
                                      chunksize=max(1, spec.trials // (4 * workers))))
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
    k, delta, error = result.argmin
    notes = [*(f"{key}={value}" for key, value in sorted(result.metadata.items())),
             f"argmin_k={k} argmin_delta={delta!r} argmin_error={error!r}"]
    _write_csv(path, ["k\\delta"] + [repr(d) for d in result.delta_grid],
               ([k] + [repr(float(v)) for v in row]
                for k, row in zip(result.k_grid, result.mean_errors)), notes)


def save_heatmap_long_csv(result: HeatmapResult, path) -> None:
    """Long-form CSV ``k,delta,trial,error`` with every per-trial error."""
    _write_csv(path, ["k", "delta", "trial", "error"],
               ([k, repr(d), t, repr(float(result.errors[t, i, j]))]
                for i, k in enumerate(result.k_grid) for j, d in enumerate(result.delta_grid)
                for t in range(result.errors.shape[0])))


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
    """A named, reproducible parameter bundle.  One whose params name a
    ``scenario`` is a heatmap preset, which ``heatmap --preset`` runs; any
    other is read by its name where it is used."""

    name: str
    summary: str
    params: dict

    def describe(self) -> str:
        shown = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name} {self.summary} ({shown})"


def _linspace(lo: float, hi: float, n: int) -> tuple:
    return tuple(float(x) for x in np.linspace(lo, hi, n))


PRESETS = {
    "fig1": Preset(
        name="fig1",
        summary="single sinusoid+jump realization for eyeballing the derivative profile",
        params={"base": 1e6, "jump": 4e4, "onset": 9.0, "horizon": 20.0, "k": 3, "delta": 0.1},
    ),
    "fig2-scaled": Preset(
        name="fig2-scaled",
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
    "fig5": Preset(
        name="fig5",
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
    "multicascade-tree": Preset(
        name="multicascade-tree",
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
}


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]


def heatmap_spec_from_preset(preset: Preset, **overrides) -> ExperimentSpec:
    """Build the ExperimentSpec for a heatmap preset, one whose params name a
    scenario.

    Recognized overrides: trials, base_seed, k_grid, delta_grid, and the
    parameter that sizes the preset scenario's planted change (jump or
    extra_leaves; see ``HEATMAP_SCENARIOS``).  Others raise; None means
    not given.
    """
    if "scenario" not in preset.params:
        raise ValueError(f"preset {preset.name!r} names no scenario: it is not a heatmap")
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
