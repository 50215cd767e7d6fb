"""ratejump: abrupt rate-change detection for point processes.

The counting process N(t) of a point process is differenced with an
alternating binomial stencil of order k; smooth rate trends cancel to
high order while a rate jump of size A survives at scale A*delta, so
thresholding (or argmax-ing) the normalized derivative locates jump
times.  The package bundles the detector with exact simulators for
inhomogeneous Poisson processes and SI cascades on graphs, a Monte Carlo
harness for error heatmaps over (k, delta), a multi-cascade high-degree
vertex estimator, and ingestion of real daily-binned count data.
"""

__version__ = "0.1.0"

from .derivative import (
    MAX_ORDER,
    DerivativeStencil,
    annihilation_check,
    derivative_profile,
    derivative_profiles,
    discrete_derivative,
)
from .detector import (
    ChangePointReport,
    DetectorConfig,
    argmax_single,
    d_max,
    detect,
    greedy_packing,
    min_order_for,
    suggest_delta,
)
from .harness import (
    ExperimentSpec,
    HeatmapResult,
    false_alarm_study,
    run_baselines,
    run_heatmap,
)
from .ingest import RegionSeries, analyze_binned, load_daily_csv, load_daily_regions
from .multicascade import CascadeBundle, candidate_vertices, estimate_high_degree
from .poisson import RateSpec, eval_rate, rate_upper_bound, simulate
from .process import BinnedSeries, EventTimes, bin_events, cumulative, from_binned
from .seeding import SimSeed
from .si import (
    CascadeTrace,
    Graph,
    build_tree_with_hub,
    infection_count_process,
    jump_at_infection,
    rate_at,
    simulate_si,
)

__all__ = [
    "__version__",
    "MAX_ORDER",
    "DerivativeStencil",
    "annihilation_check",
    "derivative_profile",
    "derivative_profiles",
    "discrete_derivative",
    "ChangePointReport",
    "DetectorConfig",
    "argmax_single",
    "d_max",
    "detect",
    "greedy_packing",
    "min_order_for",
    "suggest_delta",
    "ExperimentSpec",
    "HeatmapResult",
    "false_alarm_study",
    "run_baselines",
    "run_heatmap",
    "RegionSeries",
    "analyze_binned",
    "load_daily_csv",
    "load_daily_regions",
    "CascadeBundle",
    "candidate_vertices",
    "estimate_high_degree",
    "RateSpec",
    "eval_rate",
    "rate_upper_bound",
    "simulate",
    "BinnedSeries",
    "EventTimes",
    "bin_events",
    "cumulative",
    "from_binned",
    "SimSeed",
    "CascadeTrace",
    "Graph",
    "build_tree_with_hub",
    "infection_count_process",
    "jump_at_infection",
    "rate_at",
    "simulate_si",
]
