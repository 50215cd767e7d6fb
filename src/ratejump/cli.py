"""Command-line interface.

Every subcommand is reproducible.  The ones that draw random numbers
take ``--seed`` (the two simulators also ``--stream``); the others are
deterministic.  Each writes a ``*.manifest`` file next to its primary
output recording the subcommand, all resolved parameters, input and
output paths, the tool version, and wall time.

The CLI keeps no rule on a value of its own: each numeric flag is read
through a library check (``derivative._check_order``, ``_check_delta``
or ``SimSeed``), and what the flags define (``DetectorConfig``, the
scenario, the tree) is built before any input is read.  A flag the
run does not use is a usage error, not ignored: ``--horizon`` with
``--binned`` (binned counts end at their last bin; ``--horizon`` is for
``--events`` only), ``--base``/``--jump``/``--onset`` with ``--rate-spec``,
``--height``/``--extra-leaves`` with ``--graph``, and a scenario flag the
scenario or preset does not take.  ``multicascade`` takes every default
from the ``multicascade-tree`` preset.  Exit codes: 0 success, 2 usage
error (a bad or unused flag, conflicting modes, a missing input file; the
message on stderr names the field), 1 runtime failure that depends on the
data (the message names the module whose call from the subcommand failed).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .derivative import MAX_ORDER, _check_delta, _check_order
from .detector import DetectorConfig, argmax_single, detect, save_report_csv
from .harness import (
    HEATMAP_SCENARIOS,
    PRESETS,
    ExperimentSpec,
    heatmap_spec_from_preset,
    run_baselines,
    run_heatmap,
    save_heatmap_csv,
    save_heatmap_long_csv,
)
from .ingest import analyze_binned, load_daily_csv, save_analysis_csv
from .multicascade import CascadeBundle, estimate_high_degree, save_multicascade_report
from .poisson import RATE_PRESETS, load_rate_spec, preset_rate_spec, save_rate_spec, simulate
from .process import (bin_events, from_binned, load_binned_csv, load_event_times,
                      save_binned_csv, save_event_times)
from .seeding import SimSeed
from .si import build_tree_with_hub, load_edge_list, load_trace_csv, save_trace_csv, simulate_si

__all__ = ["main", "entry", "build_parser"]


class UsageError(Exception):
    """Bad invocation detected after argparse (e.g. missing input file)."""


@contextlib.contextmanager
def _building():
    """Build what the flags define: a ValueError from the library is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _number(text):
    """``text`` as an int, else a float, else unchanged for a check to reject by name."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _type(parse):
    """An argparse type: the message of a ValueError from ``parse`` is the usage error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _flag(check, name, **limit):
    """A numeric flag, checked by the library's ``check`` as the field ``name``."""
    return _type(lambda text: check(_number(text), name, **limit))


def _flag_list(check, name):
    """A comma list of numbers, entry i checked by ``check`` as ``name[i]``."""
    return _type(lambda text: tuple(
        check(_number(x), f"{name}[{i}]") for i, x in enumerate(text.split(","))))


def _whole(name):
    """An integer flag >= 1 with no upper limit."""
    return _flag(_check_order, name, limit=math.inf)


@_type
def _delta_grid(text):
    """Deltas as a comma list, or lo:hi:n for n evenly spaced values."""
    values = [_number(x) for x in text.split(",")]
    if text.count(":") == 2:
        lo, hi, n = (_number(x) for x in text.split(":"))
        values = np.linspace(_check_delta(lo, "delta_grid lo"), _check_delta(hi, "delta_grid hi"),
                             _check_order(n, "delta_grid n", limit=math.inf)).tolist()
    return tuple(_check_delta(d, f"delta_grid[{j}]") for j, d in enumerate(values))


def _default(value) -> str:
    return "" if value is None else f" (default {value})"


def _out_dir(args) -> str:
    out = getattr(args, "out_dir", None) or os.environ.get("RATEJUMP_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _require_file(path) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"missing input file: {path}")
    return path


def _write_manifest(primary_output, subcommand, args, inputs, outputs, wall_time, extra=None):
    path = str(primary_output) + ".manifest"
    skip = {"func", "out_dir"}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"subcommand={subcommand}\n")
        fh.write(f"version={__version__}\n")
        fh.write(f"wall_time_s={wall_time:.3f}\n")
        fh.write(f"inputs={','.join(str(p) for p in inputs)}\n")
        fh.write(f"outputs={','.join(str(p) for p in outputs)}\n")
        for key in sorted(vars(args)):
            if key in skip:
                continue
            fh.write(f"param.{key}={getattr(args, key)}\n")
        for key in sorted(extra or {}):
            fh.write(f"result.{key}={extra[key]}\n")
    return path


def _load_counting(args):
    """Resolve the --events / --binned input pair into a counting process."""
    if args.events and args.binned:
        raise UsageError("give either --events or --binned, not both")
    if args.binned and args.horizon is not None:
        raise UsageError("--horizon is for --events only: binned counts end at their last bin")
    if args.events:
        events = load_event_times(_require_file(args.events), horizon=args.horizon)
        return events, [args.events]
    if args.binned:
        series = load_binned_csv(_require_file(args.binned))
        return from_binned(series), [args.binned]
    raise UsageError("an input is required: --events FILE or --binned FILE")


def _detector_config(args) -> DetectorConfig:
    """The detector flags' DetectorConfig, built before any input is read."""
    with _building():
        return DetectorConfig(k=args.k, delta=args.delta, grid_step=args.grid_step,
                              threshold=getattr(args, "threshold", None))


def _check_source(source, graph) -> None:
    if not 0 <= source < graph.n:
        raise UsageError(f"source {source} out of range: graph has {graph.n} vertices")


def _tree(args):
    """The tree flags' planted-hub tree, with --source checked on it.  A tree
    flag not given takes its ``_TREE_DEFAULTS`` value, set on ``args`` so the
    manifest records what ran."""
    for name, value in _TREE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    with _building():
        graph = build_tree_with_hub(args.height, args.extra_leaves)
    _check_source(args.source, graph)
    return graph


# The tree flags' values when not given (multicascade's come from its preset).
_TREE_DEFAULTS = {"height": 18, "extra_leaves": 8000}
# The experiment flags' values when not given, per subcommand; a jump not
# given is 0.8 * base.  A heatmap preset brings its own.
_HEATMAP_DEFAULTS = {"scenario": "smooth-jump", "base": 1e4, "horizon": 20.0,
                     **_TREE_DEFAULTS, "trials": 20}
_BASELINES_DEFAULTS = {**_HEATMAP_DEFAULTS, "scenario": "si-tree", "jump": 8e3,
                       "extra_leaves": 2000}
# the flags that define a scenario
_SCENARIO_FLAGS = ("scenario", "base", "horizon", "height", "extra_leaves", "jump")


def _reject_unused(args, used, who, flags=_SCENARIO_FLAGS):
    """A usage error naming each of ``flags`` given that ``who`` does not use."""
    unused = [name for name in flags if name not in used and getattr(args, name) is not None]
    if unused:
        flags = ", ".join("--" + name.replace("_", "-") for name in unused)
        raise UsageError(f"{who} does not use {flags}")


def _scenario(args, defaults):
    """The scenario the experiment flags define.  Each flag it uses, and
    --trials, takes its value from ``defaults`` when not given, and is set
    on ``args`` so the manifest records what ran; a scenario flag it does
    not use is a usage error."""
    args.scenario = args.scenario or defaults["scenario"]
    cls, _, used = HEATMAP_SCENARIOS[args.scenario]
    _reject_unused(args, ("scenario", *used), f"scenario {args.scenario!r}")
    for name in (*used, "trials"):
        if getattr(args, name) is None:
            setattr(args, name, defaults[name] if name in defaults else 0.8 * args.base)
    with _building():
        return cls(**{name: getattr(args, name) for name in used})


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate_poisson(args):
    if args.rate_spec:
        _reject_unused(args, (), "--rate-spec", flags=("base", "jump", "onset"))
        spec = load_rate_spec(_require_file(args.rate_spec))
        inputs = [args.rate_spec]
    else:
        overrides = {name: getattr(args, name) for name in ("base", "jump", "onset")
                     if getattr(args, name) is not None}
        with _building():
            spec = preset_rate_spec(args.rate_preset, **overrides)
        inputs = []
    events = simulate(spec, args.horizon, SimSeed(args.seed, args.stream))
    out_dir = _out_dir(args)
    out_events = os.path.join(out_dir, args.out)
    save_event_times(events, out_events)
    outputs = [out_events]
    spec_out = out_events + ".ratespec"
    save_rate_spec(spec, spec_out)
    outputs.append(spec_out)
    if args.bin_width is not None:
        binned = bin_events(events, bin_width=args.bin_width)
        out_binned = out_events + ".binned.csv"
        save_binned_csv(binned, out_binned)
        outputs.append(out_binned)
    print(f"simulated {len(events)} events on [0, {args.horizon}] -> {out_events}")
    return out_events, inputs, outputs, {"n_events": len(events)}


def cmd_simulate_si(args):
    if args.graph:
        _reject_unused(args, (), "--graph", flags=tuple(_TREE_DEFAULTS))
        graph = load_edge_list(_require_file(args.graph))
        _check_source(args.source, graph)
        inputs = [args.graph]
    else:
        graph = _tree(args)
        inputs = []
    trace = simulate_si(graph, args.source, SimSeed(args.seed, args.stream))
    out_dir = _out_dir(args)
    out_trace = os.path.join(out_dir, args.out)
    save_trace_csv(trace, out_trace)
    extra = {"n_vertices": graph.n}
    if graph.hub is not None:
        extra["hub"] = graph.hub
        extra["hub_time"] = repr(float(trace.times[graph.hub]))
        print(f"hub vertex {graph.hub} infected at t = {float(trace.times[graph.hub])}")
    print(f"cascade over {graph.n} vertices -> {out_trace}")
    return out_trace, inputs, [out_trace], extra


def cmd_detect(args):
    if args.threshold is not None and args.argmax_single:
        raise UsageError("--threshold conflicts with --argmax-single: pick one mode")
    if args.threshold is None and not args.argmax_single:
        raise UsageError("pick a mode: --threshold A or --argmax-single")
    config = _detector_config(args)
    counting, inputs = _load_counting(args)
    report = detect(counting, config)
    out_dir = _out_dir(args)
    out_report = os.path.join(out_dir, args.out)
    save_report_csv(report, out_report)
    for e in report.estimates:
        print(f"t_hat={e.time} score={e.score}")
    if not report.estimates:
        print("no change points detected")
    return out_report, inputs, [out_report, out_report + ".meta"], {
        "n_estimates": len(report),
        "empty_window": report.empty_window,
    }


def cmd_argmax(args):
    config = _detector_config(args)
    counting, inputs = _load_counting(args)
    t_hat = argmax_single(counting, config.k, config.delta, grid_step=config.grid_step)
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, args.out)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"{t_hat!r}\n")
    print(f"t_hat={t_hat}")
    return out_path, inputs, [out_path], {"t_hat": repr(t_hat)}


def cmd_heatmap(args):
    if args.preset:
        preset = PRESETS[args.preset]
        # the one scenario flag a preset takes: the size of its planted change
        _, own, _ = HEATMAP_SCENARIOS[preset.params["scenario"]]
        _reject_unused(args, (own,), f"preset {args.preset!r}")
        with _building():
            spec = heatmap_spec_from_preset(preset, **{own: getattr(args, own)}, trials=args.trials,
                                            base_seed=args.seed, k_grid=args.k_grid,
                                            delta_grid=args.delta_grid)
    else:
        if args.k_grid is None or args.delta_grid is None:
            raise UsageError("without --preset, both --k-grid and --delta-grid are required")
        scenario = _scenario(args, _HEATMAP_DEFAULTS)
        with _building():
            spec = ExperimentSpec(scenario, args.k_grid, args.delta_grid, args.trials, args.seed)
    result = run_heatmap(spec, workers=args.workers)
    out_dir = _out_dir(args)
    out_matrix = os.path.join(out_dir, "heatmap.csv")
    save_heatmap_csv(result, out_matrix)
    outputs = [out_matrix]
    if args.long_csv:
        out_long = os.path.join(out_dir, "heatmap_long.csv")
        save_heatmap_long_csv(result, out_long)
        outputs.append(out_long)
    k_best, d_best, err_best = result.argmin
    print(f"argmin cell: k={k_best} delta={d_best} mean_error={err_best}")
    print(f"failed cells: {result.failed_cells}")
    if result.diagnostics:
        print(f"{len(result.diagnostics)} cell failures; first: {result.diagnostics[0]}")
    return out_matrix, [], outputs, {
        "argmin_k": k_best,
        "argmin_delta": repr(d_best),
        "argmin_error": repr(err_best),
        "failed_cells": result.failed_cells,
    }


def cmd_baselines(args):
    scenario = _scenario(args, _BASELINES_DEFAULTS)
    report = run_baselines(scenario, delta_grid=args.delta_grid, trials=args.trials,
                           base_seed=args.seed, high_orders=args.high_orders, workers=args.workers)
    out_dir = _out_dir(args)
    out_matrix = os.path.join(out_dir, "baselines.csv")
    save_heatmap_csv(report.heatmap, out_matrix)
    lines = []
    for k in sorted(report.per_order_min):
        delta, err = report.per_order_min[k]
        lines.append(f"k={k} best_delta={delta} mean_error={err}")
    k, delta, err = report.best_high
    lines.append(f"best higher-order: k={k} delta={delta} mean_error={err}")
    summary_path = os.path.join(out_dir, "baselines_summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return out_matrix, [], [out_matrix, summary_path], {
        "best_high_k": k,
        "best_high_delta": repr(delta),
        "best_high_error": repr(err),
    }


def cmd_multicascade(args):
    if args.threshold is not None and args.mode == "argmax-single":
        raise UsageError("--threshold conflicts with --mode argmax-single")
    if args.mode == "threshold" and args.threshold is None:
        raise UsageError("--mode threshold requires --threshold A")
    config = _detector_config(args)
    if args.trace:
        traces = [load_trace_csv(_require_file(p)) for p in args.trace]
        inputs, hub = list(args.trace), None
    else:
        graph = _tree(args)
        traces = [simulate_si(graph, args.source, SimSeed(args.seed, i))
                  for i in range(args.cascades)]
        inputs, hub = [], graph.hub
    report = estimate_high_degree(CascadeBundle(traces=tuple(traces)), config, window=args.window)
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, args.out)
    save_multicascade_report(report, out_path)
    shown = sorted(report.vertices)
    print(f"estimated high-degree vertices ({len(shown)}): {shown[:10]}"
          + (" ..." if len(shown) > 10 else ""))
    extra = {"n_vertices": len(report.vertices)}
    if hub is not None:
        extra["hub"] = hub
        extra["hub_found"] = hub in report.vertices
        print(f"planted hub {hub} {'found' if hub in report.vertices else 'NOT found'}")
    return out_path, inputs, [out_path], extra


def cmd_analyze_binned(args):
    series = load_daily_csv(
        _require_file(args.csv),
        region=args.region,
        mode=args.mode,
    )
    analysis = analyze_binned(series, k=args.k, delta_days=args.delta_days)
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, args.out)
    save_analysis_csv(analysis, out_path)
    print(analysis.summary())
    if series.filled_days:
        print(f"zero-filled {len(series.filled_days)} missing day(s)")
    if series.clamped_days:
        print(f"clamped {len(series.clamped_days)} negative daily count(s)")
    return out_path, [args.csv], [out_path], {
        "argmax_day": analysis.argmax_day,
        "argmax_value": repr(analysis.argmax_value),
    }


def cmd_presets(args):
    lines = ["experiment presets:"]
    for name in sorted(PRESETS):
        lines.append("  " + PRESETS[name].describe())
    lines.append("rate presets (for simulate-poisson --rate-preset):")
    for name in sorted(RATE_PRESETS):
        lines.append(f"  {name}")
    text = "\n".join(lines)
    print(text)
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, "presets.txt")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return out_path, [], [out_path], {}


# ---------------------------------------------------------------------------
# parser: each flag shared by several subcommands is declared in one group


def _add_common(sub, *, seed=False, stream=False):
    if seed:
        sub.add_argument("--seed", type=_type(lambda text: SimSeed(_number(text)).seed),
                         default=0, help="base random seed (dimensionless integer, default 0)")
    if stream:
        sub.add_argument("--stream", type=_type(lambda text: SimSeed(0, _number(text)).stream),
                         default=0, help="random stream index for this run (default 0)")
    sub.add_argument("--out-dir", default=None,
                     help="output directory (default: $RATEJUMP_OUT or current directory)")


_RATE_FLAGS = {"base": "base rate B in events per unit time",
               "jump": "jump amplitude A in events per unit time",
               "onset": "jump onset time t0 in time units",
               "horizon": "horizon T in time units"}


def _add_rate_flags(sub, names, defaults):
    """The rate and time flags ``names``, each with the default ``defaults`` names."""
    for name in names:
        sub.add_argument("--" + name, type=_flag(_check_delta, name), default=None,
                         help=_RATE_FLAGS[name] + _default(defaults.get(name)))


def _add_counting_inputs(sub):
    sub.add_argument("--events", default=None,
                     help="input event-times file (one timestamp per line, time units)")
    sub.add_argument("--binned", default=None,
                     help="input binned CSV with header bin_start,count (time units)")
    _add_rate_flags(sub, ("horizon",), {"horizon": "the last event; --events only"})


def _add_detector_flags(sub, k=None, delta=None, threshold=True):
    """--k, --delta, --grid-step and, with ``threshold``, --threshold; --k and
    --delta are required where they have no default."""
    sub.add_argument("--k", type=_flag(_check_order, "k"), default=k, required=k is None,
                     help=f"derivative order, an integer in [1, {MAX_ORDER}]{_default(k)}")
    sub.add_argument("--delta", type=_flag(_check_delta, "delta"), default=delta,
                     required=delta is None,
                     help=f"derivative step delta in time units{_default(delta)}")
    sub.add_argument("--grid-step", type=_flag(_check_delta, "grid_step"), default=None,
                     help="evaluation grid spacing in time units, <= delta (default delta/10)")
    if threshold:
        sub.add_argument("--threshold", type=_flag(_check_delta, "threshold"), default=None,
                         help="expected jump size A in events per unit time (threshold mode)")


def _add_tree_flags(sub, defaults, source=True):
    """The planted-hub tree's flags and, with ``source``, --source.  They
    default to None, so a run can tell which were given; ``_tree`` or
    ``_scenario`` fills in the ``defaults`` shown in the help."""
    sub.add_argument("--height", type=_whole("height"), default=None,
                     help=f"tree height, levels below the root{_default(defaults['height'])}")
    sub.add_argument("--extra-leaves", type=int, default=None,
                     help=f"leaves attached to the planted hub{_default(defaults['extra_leaves'])}")
    if source:
        sub.add_argument("--source", type=int, default=0,
                         help="source vertex id (default 0 = tree root)")


def _add_experiment_flags(sub, defaults, delta_grid=None):
    """The scenario flags, --delta-grid, --trials and --workers."""
    sub.add_argument("--scenario", default=None, choices=sorted(HEATMAP_SCENARIOS),
                     help=f"scenario family{_default(defaults['scenario'])}")
    _add_rate_flags(sub, ("base", "jump", "horizon"), {"jump": "0.8 B", **defaults})
    _add_tree_flags(sub, defaults, source=False)
    sub.add_argument("--delta-grid", type=_delta_grid, default=delta_grid,
                     help="deltas in time units: comma list or lo:hi:n" + _default(delta_grid))
    sub.add_argument("--trials", type=_whole("trials"), default=None,
                     help="Monte Carlo trials per cell" + _default(defaults["trials"]))
    sub.add_argument("--workers", type=_whole("workers"), default=os.cpu_count(),
                     help="worker processes; results are identical for any value "
                          f"(default {os.cpu_count()})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratejump",
        description="Detect abrupt rate changes in point processes via "
                    "higher-order discrete derivatives of the counting process.",
    )
    parser.add_argument("--version", action="version", version=f"ratejump {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("simulate-poisson",
                        help="simulate an inhomogeneous Poisson process by thinning")
    p.add_argument("--rate-preset", default="sin-plus-exp", choices=sorted(RATE_PRESETS),
                   help="built-in rate function family (default sin-plus-exp)")
    p.add_argument("--rate-spec", default=None,
                   help="rate specification file (overrides --rate-preset)")
    _add_rate_flags(p, ("base", "jump", "onset"), {})
    p.add_argument("--horizon", type=_flag(_check_delta, "horizon"), default=20.0,
                   help="simulation horizon T in time units (default 20)")
    p.add_argument("--bin-width", type=_flag(_check_delta, "bin_width"), default=None,
                   help="also write counts binned at this width (time units)")
    p.add_argument("--out", default="events.txt", help="output event-times file name")
    _add_common(p, seed=True, stream=True)
    p.set_defaults(func=cmd_simulate_poisson)

    p = subs.add_parser("simulate-si", help="simulate an SI cascade on a graph")
    p.add_argument("--graph", default=None,
                   help="edge-list file 'u v' per line, 0-indexed (overrides the tree)")
    _add_tree_flags(p, _TREE_DEFAULTS)
    p.add_argument("--out", default="trace.csv", help="output trace CSV name")
    _add_common(p, seed=True, stream=True)
    p.set_defaults(func=cmd_simulate_si)

    p = subs.add_parser("detect", help="detect change points in a counting process")
    _add_counting_inputs(p)
    _add_detector_flags(p)
    p.add_argument("--argmax-single", action="store_true",
                   help="exploratory mode: report only the best-scoring time")
    p.add_argument("--out", default="report.csv", help="output report CSV name")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser("argmax", help="time of the largest |order-k derivative|")
    _add_counting_inputs(p)
    _add_detector_flags(p, threshold=False)
    p.add_argument("--out", default="argmax.txt", help="output file name")
    _add_common(p)
    p.set_defaults(func=cmd_argmax)

    p = subs.add_parser("heatmap", help="Monte Carlo error heatmap over (k, delta)")
    p.add_argument("--preset", default=None,
                   choices=sorted(name for name, preset in PRESETS.items()
                                  if preset.kind == "heatmap"),
                   help="heatmap preset: its scenario, grids and trials (see presets)")
    _add_experiment_flags(p, _HEATMAP_DEFAULTS)
    p.add_argument("--k-grid", type=_flag_list(_check_order, "k_grid"), default=None,
                   help="comma-separated derivative orders, e.g. 1,2,3")
    p.add_argument("--long-csv", action="store_true",
                   help="also write per-trial errors as heatmap_long.csv")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_heatmap)

    p = subs.add_parser("baselines",
                        help="compare k=1,2 baselines against higher orders")
    _add_experiment_flags(p, _BASELINES_DEFAULTS, delta_grid="0.2:2.0:10")
    p.add_argument("--high-orders", type=_flag_list(_check_order, "high_orders"),
                   default=(3, 4, 5), help="higher orders to compare (default 3,4,5)")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_baselines)

    mc = PRESETS["multicascade-tree"].params  # every default of the subcommand
    p = subs.add_parser("multicascade",
                        help="estimate the high-degree vertex from several cascades")
    p.add_argument("--trace", action="append", default=None,
                   help="cascade trace CSV (repeat per cascade; overrides simulation)")
    _add_tree_flags(p, mc)
    p.add_argument("--cascades", type=_whole("cascades"),
                   help="number of cascades K to simulate" + _default(mc["cascades"]))
    _add_detector_flags(p, k=mc["k"], delta=mc["delta"])
    p.add_argument("--window", type=_flag(_check_delta, "window"),
                   help="candidate window w in time units" + _default(mc["window"]))
    p.add_argument("--mode", choices=["threshold", "argmax-single"],
                   help="per-cascade detection mode" + _default(mc["mode"]))
    p.add_argument("--out", default="multicascade.txt", help="output file name")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_multicascade, **mc)

    p = subs.add_parser("analyze-binned",
                        help="derivative analysis of a daily-count CSV")
    p.add_argument("--csv", required=True,
                   help="input CSV with date and cases columns")
    p.add_argument("--region", default=None,
                   help="region filter value (requires a region column)")
    p.add_argument("--mode", choices=["daily", "cumulative"], default="daily",
                   help="whether counts are daily increments or cumulative totals")
    p.add_argument("--k", type=_flag(_check_order, "k"), default=2,
                   help="derivative order (default 2)")
    p.add_argument("--delta-days", type=_whole("delta_days"), default=1,
                   help="derivative step in whole days (default 1)")
    p.add_argument("--out", default="profile.csv", help="output profile CSV name")
    _add_common(p)
    p.set_defaults(func=cmd_analyze_binned)

    p = subs.add_parser("presets", help="list built-in experiment and rate presets")
    _add_common(p)
    p.set_defaults(func=cmd_presets)

    return parser


def _failing_module(exc) -> str:
    """The ratejump module whose call from the subcommand raised ``exc``."""
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("ratejump.") and mod != __name__:
            return mod.split(".", 1)[1]
        tb = tb.tb_next
    return "cli"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        primary, inputs, outputs, extra = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error in {_failing_module(exc)}: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - start
    manifest = _write_manifest(primary, args.subcommand, args, inputs, outputs, wall, extra)
    print(f"manifest: {manifest}")
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
