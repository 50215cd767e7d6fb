"""Command-line interface.

One subcommand per job: ``detect`` and ``multicascade`` run the detector
in threshold mode when given ``--threshold A`` and in argmax mode (the
single best-scoring time) without it, as ``DetectorConfig`` does, and
report times on the input's clock (a ``--binned`` file's, from its first
bin start; a ``--daily-csv`` file's, in days from its first date);
``heatmap`` runs the (k, delta) error grid and prints each
order's best delta.  Every subcommand is reproducible.  The ones that
draw random numbers take ``--seed`` (the two simulators also
``--stream``); the others are deterministic.  Each writes a ``*.manifest``
file next to its primary output recording the subcommand, all resolved
parameters, input and output paths, the tool version, and wall time.

The CLI keeps no rule on a value of its own: each numeric flag is read
from its text by ``process._parse_number``, as a file's field is, and
checked by a rule of ``ratejump.process``, every integer flag (``--source``,
``--extra-leaves`` and ``--seed`` among them) through its one whole-number
rule, and what the flags define (``DetectorConfig``, the scenario, the
tree) is built before any input is read.  A flag the run does not use is a usage error, not ignored:
``--horizon`` with ``--binned`` or ``--daily-csv`` (binned counts end at
their last bin; ``--horizon`` is for ``--events`` only),
``--region``/``--mode`` without ``--daily-csv``,
``--rate-preset``/``--base``/``--jump``/``--onset`` with ``--rate-spec``,
``--height``/``--extra-leaves`` with ``--graph``, the simulation flags of
``multicascade`` with ``--trace``, and a scenario flag the scenario or
preset does not take.  The rule behind this: a flag that some run of its
subcommand does not read defaults to None in the parser, so given means
not None, and one function (``_settle``) rejects each such flag a run does
not read and fills in the default of each it reads but was not given,
which the manifest then records.  ``multicascade`` takes every default
from the ``multicascade-tree`` preset.  An output's name (``--out``,
``--profile-out``) is a file name in ``--out-dir``, with no directory
part, and ``detect``'s two names differ (neither is the report's
manifest).  No output, manifest included, may be an input file of its own
run: ``_spare_inputs`` refuses that before any work.  Exit codes: 0
success, 2 usage error (a bad or unused flag, a missing input file, an
output over an input; the message on stderr names the field or the
paths), 1 runtime failure that depends on the data (the message names the
module whose call from the subcommand failed), such as a ``detect`` or
``multicascade`` whose window holds no grid point.
A reader that closes stdout early (``| head``) does not fail a run: the
lines on stdout come after its outputs are written, and the manifest
still is.
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
from .detector import DetectorConfig, detect, save_profile_csv, save_report_csv
from .harness import (
    HEATMAP_SCENARIOS,
    PRESETS,
    ExperimentSpec,
    SITreeScenario,
    SmoothJumpScenario,
    _scenario_params,
    heatmap_spec_from_preset,
    run_heatmap,
    save_heatmap_csv,
    save_heatmap_long_csv,
)
from .ingest import load_daily_csv
from .multicascade import CascadeBundle, estimate_high_degree, save_multicascade_report
from .poisson import (RATE_PRESETS, _cpu_count, load_rate_spec, preset_rate_spec, save_rate_spec,
                      simulate)
from .process import (MAX_ORDER, _bin_count, _check_delta, _check_finite, _check_integer,
                      _check_window, _parse_number, _write_lines, bin_events, from_binned,
                      load_binned_csv, load_event_times, save_binned_csv, save_event_times)
from .seeding import SimSeed
from .si import build_tree_with_hub, load_edge_list, load_trace_csv, save_trace_csv, simulate_si

__all__ = ["main", "entry", "build_parser"]


class UsageError(Exception):
    """Bad invocation detected after argparse (e.g. missing input file)."""


def _echo(text) -> None:
    """Print a line of the run's report; a reader that has closed stdout
    does not fail the run."""
    with contextlib.suppress(BrokenPipeError):
        print(text)


@contextlib.contextmanager
def _building():
    """Build what the flags define: a ValueError from the library is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _type(parse):
    """An argparse type: the message of a ValueError from ``parse`` is the usage error."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _flag(check, name, **bounds):
    """A numeric flag, checked by the library's ``check`` as the field ``name``."""
    return _type(lambda text: check(_parse_number(text), name, **bounds))


def _flag_list(check, name):
    """A comma list of numbers, entry i checked by ``check`` as ``name[i]``."""
    return _type(lambda text: tuple(
        check(_parse_number(x), f"{name}[{i}]") for i, x in enumerate(text.split(","))))


def _whole(name, low=1):
    """An integer flag >= ``low`` with no upper limit."""
    return _flag(_check_integer, name, low=low, high=math.inf)


@_type
def _delta_grid(text):
    """Deltas as a comma list, or lo:hi:n for n evenly spaced values."""
    if text.count(":") == 2:  # lo and hi positive and finite, so every delta between is
        lo, hi, n = (_parse_number(x) for x in text.split(":"))
        lo, hi = _check_delta(lo, "delta_grid lo"), _check_delta(hi, "delta_grid hi")
        return tuple(np.linspace(lo, hi, _check_integer(n, "delta_grid n", high=math.inf)).tolist())
    return tuple(_check_delta(_parse_number(x), f"delta_grid[{j}]")
                 for j, x in enumerate(text.split(",")))


@_type
def _file_name(text):
    """An output's name: a file name in --out-dir, with no directory part."""
    if text in ("", ".", "..") or os.path.basename(text) != text:
        raise ValueError(f"{text!r} is not a file name in --out-dir")
    return text


def _default(value) -> str:
    return "" if value is None else f" (default {value})"


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get("RATEJUMP_OUT") or "."


def _output(args, name) -> str:
    """The path of the output ``name`` in the run's output directory, made if missing."""
    os.makedirs(_out_dir(args), exist_ok=True)
    return os.path.join(_out_dir(args), name)


def _spare_inputs(args, inputs, primary, *others):
    """Refuse, before any work, a run that would write over one of its
    ``inputs`` (paths) with its ``primary`` output, that output's manifest,
    or one of its ``others``, each a name in the output directory; None
    stands for an input or output the run does not have."""
    for name in filter(None, (primary, primary + ".manifest", *others)):
        path = os.path.join(_out_dir(args), name)
        for source in filter(None, inputs):
            with contextlib.suppress(OSError):  # a path that does not exist is neither
                if os.path.samefile(path, source):
                    raise UsageError(f"the output {path} would overwrite the input {source}")


def _require_file(path) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"missing input file: {path}")
    return path


def _write_manifest(primary_output, subcommand, args, inputs, outputs, wall_time, extra=None):
    path = str(primary_output) + ".manifest"
    skip = {"func", "out_dir"}
    _write_lines(path, [
        f"subcommand={subcommand}", f"version={__version__}", f"wall_time_s={wall_time:.3f}",
        f"inputs={','.join(map(str, inputs))}", f"outputs={','.join(map(str, outputs))}",
        *(f"param.{key}={getattr(args, key)}" for key in sorted(vars(args)) if key not in skip),
        *(f"result.{key}={extra[key]}" for key in sorted(extra or {})),
    ])
    return path


def _load_counting(args):
    """Resolve the one input flag into a counting process, the time of its 0
    on the input's clock, the input paths, and what the input reports of
    itself (a daily series' first date and the days it filled or clamped)."""
    given = ["--" + name.replace("_", "-") for name in ("events", "binned", "daily_csv")
             if getattr(args, name)]
    if not given:
        raise UsageError("an input is required: --events FILE, --binned FILE or --daily-csv FILE")
    if len(given) > 1:
        raise UsageError(f"give one input, not {' and '.join(given)}")
    _settle(args, given[0], ("region", "mode") if args.daily_csv else (),
            {"region": None, "mode": "daily"})
    if not args.events and args.horizon is not None:
        raise UsageError("--horizon is for --events only: binned counts end at their last bin")
    if args.events:
        events = load_event_times(_require_file(args.events), horizon=args.horizon)
        return events, 0.0, [args.events], {}
    if args.binned:
        series = load_binned_csv(_require_file(args.binned))
        return from_binned(series), series.start_time, [args.binned], {}
    series = load_daily_csv(_require_file(args.daily_csv), region=args.region, mode=args.mode)
    # day d is the edge d days after the first date: N counts from day 0
    return series.counting, 0.0, [args.daily_csv], {
        "day0_date": series.start_date,
        "filled_days": len(series.filled_days),
        "clamped_days": len(series.clamped_days),
    }


def _detector_config(args) -> DetectorConfig:
    """The detector flags' DetectorConfig, built before any input is read."""
    with _building():
        return DetectorConfig(k=args.k, delta=args.delta,
                              threshold=getattr(args, "threshold", None))


def _tree(args):
    """The tree flags' planted-hub tree, with --source checked on it."""
    with _building():
        graph = build_tree_with_hub(args.height, args.extra_leaves)
        _check_integer(args.source, "source", low=0, high=graph.n - 1)
    return graph


# Each dict maps the flags some run of a subcommand does not read to the
# value a run that reads one takes when it is not given.
_RATE_DEFAULTS = {"rate_preset": "sin-plus-exp", "base": None, "jump": None, "onset": None}
_TREE_DEFAULTS = _scenario_params(SITreeScenario)
# multicascade's: its preset's values, and 0 for --source and --seed
_SIMULATION_DEFAULTS = {name: PRESETS["multicascade-tree"].params.get(name, 0)
                        for name in ("cascades", "height", "extra_leaves", "source", "seed")}
# the scenarios' own defaults, but a jump not given is 0.8 * base; a heatmap
# preset brings its own values
_HEATMAP_DEFAULTS = {"scenario": "smooth-jump", **_scenario_params(SmoothJumpScenario),
                     **_TREE_DEFAULTS, "trials": 20}
# the flags that define a scenario: --scenario, each scenario's fields
# other than its change size, then the change sizes, which a preset takes
_SCENARIO_FLAGS = tuple(dict.fromkeys(
    ["scenario"]
    + [name for cls, own in HEATMAP_SCENARIOS.values() for name in _scenario_params(cls)
       if name != own]
    + [own for _, own in HEATMAP_SCENARIOS.values() if own]))


def _settle(args, who, used, flags):
    """Settle the run's ``flags`` (name -> default): one given that ``who``
    does not use is a usage error, and one in ``used`` not given takes its
    default, set on ``args`` so the manifest records what ran.  Each of
    ``flags`` defaults to None in the parser, so given means not None."""
    unused = [name for name in flags if name not in used and getattr(args, name) is not None]
    if unused:
        raise UsageError(f"{who} does not use "
                         + ", ".join("--" + name.replace("_", "-") for name in unused))
    for name in used:
        if getattr(args, name) is None:
            setattr(args, name, flags[name])


def _scenario(args):
    """The scenario the experiment flags define, with each flag it uses and
    --trials settled from ``_HEATMAP_DEFAULTS``."""
    name = args.scenario or _HEATMAP_DEFAULTS["scenario"]
    cls, _ = HEATMAP_SCENARIOS[name]
    params = _scenario_params(cls)
    jump = 0.8 * (args.base or _HEATMAP_DEFAULTS["base"])
    _settle(args, f"scenario {name!r}", ("scenario", *params, "trials"),
            {**_HEATMAP_DEFAULTS, "jump": jump})
    with _building():
        return cls(**{param: getattr(args, param) for param in params})


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate_poisson(args):
    _settle(args, "--rate-spec", () if args.rate_spec else _RATE_DEFAULTS, _RATE_DEFAULTS)
    _spare_inputs(args, [args.rate_spec], args.out, args.out + ".ratespec",
                  None if args.bin_width is None else args.out + ".binned.csv")
    if args.rate_spec:
        spec = load_rate_spec(_require_file(args.rate_spec))
        inputs = [args.rate_spec]
    else:
        overrides = {name: getattr(args, name) for name in ("base", "jump", "onset")
                     if getattr(args, name) is not None}
        with _building():
            spec = preset_rate_spec(args.rate_preset, **overrides)
        inputs = []
    if args.bin_width is not None:
        with _building():
            _bin_count(args.horizon, args.bin_width)
    events = simulate(spec, args.horizon, SimSeed(args.seed, args.stream))
    # binned before any file is written, so a failure leaves no output behind
    binned = None if args.bin_width is None else bin_events(events, bin_width=args.bin_width)
    out_events = _output(args, args.out)
    save_event_times(events, out_events)
    outputs = [out_events]
    spec_out = out_events + ".ratespec"
    save_rate_spec(spec, spec_out)
    outputs.append(spec_out)
    if binned is not None:
        out_binned = out_events + ".binned.csv"
        save_binned_csv(binned, out_binned)
        outputs.append(out_binned)
    _echo(f"simulated {len(events)} events on [0, {args.horizon}] -> {out_events}")
    return out_events, inputs, outputs, {"n_events": len(events)}


def cmd_simulate_si(args):
    _settle(args, "--graph", () if args.graph else _TREE_DEFAULTS, _TREE_DEFAULTS)
    _spare_inputs(args, [args.graph], args.out)
    if args.graph:
        graph = load_edge_list(_require_file(args.graph))
        with _building():
            _check_integer(args.source, "source", low=0, high=graph.n - 1)
        inputs = [args.graph]
    else:
        graph = _tree(args)
        inputs = []
    trace = simulate_si(graph, args.source, SimSeed(args.seed, args.stream))
    out_trace = _output(args, args.out)
    save_trace_csv(trace, out_trace)
    extra = {"n_vertices": graph.n}
    if graph.hub is not None:
        extra["hub"] = graph.hub
        extra["hub_time"] = repr(float(trace.times[graph.hub]))
        _echo(f"hub vertex {graph.hub} infected at t = {float(trace.times[graph.hub])}")
    _echo(f"cascade over {graph.n} vertices -> {out_trace}")
    return out_trace, inputs, [out_trace], extra


def cmd_detect(args):
    if args.profile_out in (args.out, args.out + ".manifest"):
        raise UsageError(f"--profile-out {args.profile_out} would overwrite the report "
                         f"--out {args.out} or its manifest")
    _spare_inputs(args, [args.events, args.binned, args.daily_csv], args.out, args.profile_out)
    config = _detector_config(args)
    counting, start, inputs, notes = _load_counting(args)
    report = detect(counting, config)
    # the report is on N's clock, whose 0 is ``start`` on the input's: each output adds it
    outputs = [_output(args, args.out)]
    save_report_csv(report, outputs[0], start)
    if args.profile_out:
        outputs.append(_output(args, args.profile_out))
        save_profile_csv(report.profile, outputs[1], start)
    for name, value in notes.items():
        _echo(f"{name}={value}")
    for e in report.estimates:
        _echo(f"t_hat={e.time + start} score={e.score}")
    if not report.estimates:
        _echo("no change points detected")
    # k, delta and threshold are the run's param.* lines; the input sets the grid step
    return outputs[0], inputs, outputs, {
        **notes,
        "n_estimates": len(report),
        "steps_per_delta": report.profile.steps_per_delta,
        "n_grid": report.n_grid,
        "candidate_count": report.candidate_count,
        "window_lo": repr(report.window[0] + start),
        "window_hi": repr(report.window[1] + start),
    }


def cmd_heatmap(args):
    if args.preset:
        preset = PRESETS[args.preset]
        # the one scenario flag a preset takes: the size of its planted change
        _, own = HEATMAP_SCENARIOS[preset.params["scenario"]]
        _settle(args, f"preset {args.preset!r}", (own,), dict.fromkeys(_SCENARIO_FLAGS))
        with _building():
            spec = heatmap_spec_from_preset(preset, **{own: getattr(args, own)}, trials=args.trials,
                                            base_seed=args.seed, k_grid=args.k_grid,
                                            delta_grid=args.delta_grid)
        # the manifest records the values the preset ran with
        args.scenario = preset.params["scenario"]
        for name in _scenario_params(type(spec.scenario)):
            setattr(args, name, getattr(spec.scenario, name))
        args.k_grid, args.delta_grid, args.trials = spec.k_grid, spec.delta_grid, spec.trials
    else:
        if args.k_grid is None or args.delta_grid is None:
            raise UsageError("without --preset, both --k-grid and --delta-grid are required")
        scenario = _scenario(args)
        with _building():
            spec = ExperimentSpec(scenario, args.k_grid, args.delta_grid, args.trials, args.seed)
    result = run_heatmap(spec, workers=args.workers)
    out_matrix = _output(args, "heatmap.csv")
    save_heatmap_csv(result, out_matrix)
    outputs = [out_matrix]
    if args.long_csv:
        out_long = _output(args, "heatmap_long.csv")
        save_heatmap_long_csv(result, out_long)
        outputs.append(out_long)
    for k, best in result.best_per_order.items():
        _echo(f"k={k} every cell failed" if best is None
              else f"k={k} best_delta={best[0]} mean_error={best[1]}")
    k_best, d_best, err_best = result.argmin
    _echo(f"argmin cell: k={k_best} delta={d_best} mean_error={err_best}")
    _echo(f"failed cells: {result.failed_cells}")
    if result.diagnostics:
        _echo(f"{len(result.diagnostics)} cell failures; first: {result.diagnostics[0]}")
    return out_matrix, [], outputs, {
        "argmin_k": k_best,
        "argmin_delta": repr(d_best),
        "argmin_error": repr(err_best),
        "failed_cells": result.failed_cells,
    }


def cmd_multicascade(args):
    config = _detector_config(args)
    _settle(args, "--trace", () if args.trace else _SIMULATION_DEFAULTS, _SIMULATION_DEFAULTS)
    _spare_inputs(args, args.trace or [], args.out)
    if args.trace:
        traces = [load_trace_csv(_require_file(p)) for p in args.trace]
        inputs, hub = list(args.trace), None
    else:
        graph = _tree(args)
        traces = [simulate_si(graph, args.source, SimSeed(args.seed, i))
                  for i in range(args.cascades)]
        inputs, hub = [], graph.hub
    report = estimate_high_degree(CascadeBundle(traces=tuple(traces)), config, window=args.window)
    out_path = _output(args, args.out)
    save_multicascade_report(report, out_path)
    shown = sorted(report.vertices)
    _echo(f"estimated high-degree vertices ({len(shown)}): {shown[:10]}"
          + (" ..." if len(shown) > 10 else ""))
    extra = {"n_vertices": len(report.vertices)}
    if hub is not None:
        extra["hub"] = hub
        extra["hub_found"] = hub in report.vertices
        _echo(f"planted hub {hub} {'found' if hub in report.vertices else 'NOT found'}")
    return out_path, inputs, [out_path], extra


def cmd_presets(args):
    lines = ["experiment presets:"]
    for name in sorted(PRESETS):
        lines.append("  " + PRESETS[name].describe())
    lines.append("rate presets (for simulate-poisson --rate-preset):")
    for name in sorted(RATE_PRESETS):
        lines.append(f"  {name}")
    out_path = _output(args, "presets.txt")
    _write_lines(out_path, lines)
    _echo("\n".join(lines))
    return out_path, [], [out_path], {}


# ---------------------------------------------------------------------------
# parser: each flag shared by several subcommands is declared in one group


def _add_common(sub, *, seed=False, stream=False):
    if seed:
        sub.add_argument("--seed", type=_whole("seed", low=0), default=0,
                         help="base random seed (dimensionless integer, default 0)")
    if stream:
        sub.add_argument("--stream", type=_whole("stream", low=0), default=0,
                         help="random stream index for this run (default 0)")
    sub.add_argument("--out-dir", default=None,
                     help="output directory (default: $RATEJUMP_OUT or current directory)")


# each rate and time flag: its help, and the library's rule on its value
_RATE_FLAGS = {"base": ("base rate B in events per unit time", _flag(_check_delta, "base")),
               "jump": ("jump amplitude A in events per unit time", _flag(_check_delta, "jump")),
               "onset": ("jump onset time t0 in time units",
                         _flag(_check_finite, "onset", low=0.0)),
               "horizon": ("horizon T in time units", _flag(_check_delta, "horizon"))}


def _add_rate_flags(sub, names, defaults):
    """The rate and time flags ``names``, each with the default ``defaults`` names."""
    for name in names:
        text, parse = _RATE_FLAGS[name]
        sub.add_argument("--" + name, type=parse, default=None,
                         help=text + _default(defaults.get(name)))


def _add_counting_inputs(sub):
    sub.add_argument("--events", default=None,
                     help="input event-times file (one timestamp per line, time units)")
    sub.add_argument("--binned", default=None,
                     help="input binned CSV with header bin_start,count (time units)")
    sub.add_argument("--daily-csv", default=None,
                     help="input daily CSV with date and cases columns; time units are days "
                          "from its first date, day 0")
    sub.add_argument("--region", default=None,
                     help="read only this region's rows of --daily-csv (needs a region column)")
    sub.add_argument("--mode", choices=["daily", "cumulative"], default=None,
                     help="whether --daily-csv counts are daily increments or cumulative "
                          "totals (default daily)")
    _add_rate_flags(sub, ("horizon",), {"horizon": "the last event; --events only"})


def _add_detector_flags(sub, k=None, delta=None):
    """--k, --delta and --threshold; --k and --delta are required where they
    have no default."""
    sub.add_argument("--k", type=_flag(_check_integer, "k"), default=k, required=k is None,
                     help=f"derivative order, an integer in [1, {MAX_ORDER}]{_default(k)}")
    sub.add_argument("--delta", type=_flag(_check_delta, "delta"), default=delta,
                     required=delta is None,
                     help=f"derivative step delta in time units{_default(delta)}")
    sub.add_argument("--threshold", type=_flag(_check_delta, "threshold"), default=None,
                     help="expected jump size A in events per unit time; without it, "
                          "report only the best-scoring time (argmax mode)")


def _add_tree_flags(sub, defaults, source=True):
    """The planted-hub tree's flags and, with ``source``, --source.  The tree
    flags default to None; the run settles the ``defaults`` shown in the help."""
    sub.add_argument("--height", type=_whole("height"), default=None,
                     help=f"tree height, levels below the root{_default(defaults['height'])}")
    sub.add_argument("--extra-leaves", type=_whole("extra_leaves", low=0), default=None,
                     help=f"leaves attached to the planted hub{_default(defaults['extra_leaves'])}")
    if source:
        sub.add_argument("--source", type=_whole("source", low=0), default=0,
                         help="source vertex id (default 0 = tree root)")


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
    p.add_argument("--rate-preset", default=None, choices=sorted(RATE_PRESETS),
                   help="built-in rate function family (default sin-plus-exp)")
    p.add_argument("--rate-spec", default=None,
                   help="rate specification file, run in place of a preset: not with "
                        "--rate-preset, --base, --jump or --onset")
    _add_rate_flags(p, ("base", "jump", "onset"), {})
    p.add_argument("--horizon", type=_flag(_check_delta, "horizon"), default=20.0,
                   help="simulation horizon T in time units (default 20)")
    p.add_argument("--bin-width", type=_flag(_check_delta, "bin_width"), default=None,
                   help="also write counts binned at this width (time units)")
    p.add_argument("--out", type=_file_name, default="events.txt",
                   help="output event-times file, a file name in --out-dir")
    _add_common(p, seed=True, stream=True)
    p.set_defaults(func=cmd_simulate_poisson)

    p = subs.add_parser("simulate-si", help="simulate an SI cascade on a graph")
    p.add_argument("--graph", default=None,
                   help="edge-list file 'u v' per line, 0-indexed (overrides the tree)")
    _add_tree_flags(p, _TREE_DEFAULTS)
    p.add_argument("--out", type=_file_name, default="trace.csv",
                   help="output trace CSV, a file name in --out-dir")
    _add_common(p, seed=True, stream=True)
    p.set_defaults(func=cmd_simulate_si)

    p = subs.add_parser("detect", help="detect change points in a counting process")
    _add_counting_inputs(p)
    _add_detector_flags(p)
    p.add_argument("--out", type=_file_name, default="report.csv",
                   help="output report CSV, a file name in --out-dir")
    p.add_argument("--profile-out", type=_file_name, default=None,
                   help="also write the derivative profile, on the report's clock, as a "
                        "t,value CSV of this name, a file name in --out-dir other than "
                        "--out and its manifest")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    hd = _HEATMAP_DEFAULTS  # the defaults shown in its help
    p = subs.add_parser("heatmap", help="Monte Carlo error heatmap over (k, delta), "
                                        "with each order's best delta")
    p.add_argument("--preset", default=None,
                   choices=sorted(name for name, preset in PRESETS.items()
                                  if "scenario" in preset.params),
                   help="heatmap preset: its scenario, grids and trials (see presets)")
    p.add_argument("--scenario", default=None, choices=sorted(HEATMAP_SCENARIOS),
                   help=f"scenario family{_default(hd['scenario'])}")
    _add_rate_flags(p, ("base", "jump", "horizon"), {**hd, "jump": "0.8 B"})
    _add_tree_flags(p, hd, source=False)
    p.add_argument("--k-grid", type=_flag_list(_check_integer, "k_grid"), default=None,
                   help="comma-separated derivative orders, e.g. 1,2,3")
    p.add_argument("--delta-grid", type=_delta_grid, default=None,
                   help="deltas in time units: comma list or lo:hi:n")
    p.add_argument("--trials", type=_whole("trials"), default=None,
                   help="Monte Carlo trials per cell" + _default(hd["trials"]))
    p.add_argument("--workers", type=_whole("workers"), default=_cpu_count(),
                   help="worker processes; results are identical for any value "
                        "(default: the CPUs this process may run on)")
    p.add_argument("--long-csv", action="store_true",
                   help="also write per-trial errors as heatmap_long.csv")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_heatmap)

    mc = PRESETS["multicascade-tree"].params  # the defaults shown in its help
    p = subs.add_parser("multicascade",
                        help="estimate the high-degree vertex from several cascades")
    p.add_argument("--trace", action="append", default=None,
                   help="cascade trace CSV (repeat per cascade; overrides simulation)")
    _add_tree_flags(p, mc)
    p.add_argument("--cascades", type=_whole("cascades"),
                   help="number of cascades K to simulate" + _default(mc["cascades"]))
    _add_detector_flags(p, k=mc["k"], delta=mc["delta"])
    p.add_argument("--window", type=_flag(_check_window, "window"), default=mc["window"],
                   help="candidate window w in time units" + _default(mc["window"]))
    p.add_argument("--out", type=_file_name, default="multicascade.txt",
                   help="output file, a file name in --out-dir")
    _add_common(p, seed=True)
    # a --trace run reads no simulation flag: each defaults to None
    p.set_defaults(func=cmd_multicascade, **dict.fromkeys(_SIMULATION_DEFAULTS))

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
    _echo(f"manifest: {manifest}")
    return 0


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull, or the flush at exit
        # fails again and the process exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
