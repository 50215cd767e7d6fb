"""End-to-end tests of the command-line interface.

Every invocation goes through ``ratejump.cli.main(argv)`` in-process so we
can assert on exit codes, stdout/stderr, and the files left behind.
"""

import io
import os
import pathlib
import sys

import pytest

from ratejump.cli import build_parser, main
from ratejump.detector import argmax_single
from ratejump.harness import PRESETS
from ratejump.process import load_event_times
from ratejump.si import load_trace_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_daily_csv(path, counts, start="2021-03-01"):
    import datetime

    d0 = datetime.date.fromisoformat(start)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,region,cases\n")
        for i, c in enumerate(counts):
            fh.write(f"{d0 + datetime.timedelta(days=i)},testville,{c}\n")


# ---------------------------------------------------------------------------
# happy paths


def test_simulate_poisson_writes_events_spec_bins_and_manifest(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "simulate-poisson",
        "--rate-preset", "const-plus-exp",
        "--base", "300", "--jump", "200", "--onset", "1.0",
        "--horizon", "4",
        "--bin-width", "0.5",
        "--out", "ev.txt",
        "--seed", "7",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    events_path = tmp_path / "ev.txt"
    assert events_path.exists()
    assert (tmp_path / "ev.txt.ratespec").exists()
    assert (tmp_path / "ev.txt.binned.csv").exists()
    manifest = (tmp_path / "ev.txt.manifest").read_text()
    assert "subcommand=simulate-poisson" in manifest
    assert "param.seed=7" in manifest
    assert "wall_time_s=" in manifest
    assert "version=" in manifest
    events = load_event_times(str(events_path))
    assert len(events) > 300  # ~300*4 + tail of the jump
    assert "manifest:" in out


def test_simulate_poisson_is_deterministic_per_seed(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        code, _, err = run(
            capsys,
            "simulate-poisson", "--rate-preset", "const-plus-exp",
            "--base", "200", "--horizon", "3", "--seed", "11",
            "--out-dir", str(d),
        )
        assert code == 0, err
    assert (dirs[0] / "events.txt").read_bytes() == (dirs[1] / "events.txt").read_bytes()

    other = tmp_path / "c"
    other.mkdir()
    code, _, _ = run(
        capsys,
        "simulate-poisson", "--rate-preset", "const-plus-exp",
        "--base", "200", "--horizon", "3", "--seed", "12",
        "--out-dir", str(other),
    )
    assert code == 0
    assert (other / "events.txt").read_bytes() != (dirs[0] / "events.txt").read_bytes()


def test_simulate_si_writes_trace(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "simulate-si", "--height", "3", "--extra-leaves", "4",
        "--out", "trace.csv", "--seed", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    trace = load_trace_csv(str(tmp_path / "trace.csv"))
    assert len(trace.times) == (2 ** 4 - 1) + 4
    assert (tmp_path / "trace.csv.manifest").exists()
    assert "hub" in out


def simulate_events(tmp_path, capsys, **kw):
    """Simulate a constant-plus-jump process and return the events file path."""
    args = {
        "--rate-preset": "const-plus-exp",
        "--base": "400", "--jump": "600", "--onset": "2.0",
        "--horizon": "6", "--seed": "5",
    }
    args.update(kw)
    argv = ["simulate-poisson"]
    for k, v in args.items():
        argv += [k, v]
    argv += ["--out-dir", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    return str(tmp_path / "events.txt")


def test_detect_threshold_mode_finds_the_jump(tmp_path, capsys):
    events = simulate_events(tmp_path, capsys)
    code, out, err = run(
        capsys,
        "detect", "--events", events, "--k", "2", "--delta", "0.3",
        "--threshold", "600", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "t_hat=" in out
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "t_hat,score"
    t_hat = float(report[1].split(",")[0])
    assert abs(t_hat - 2.0) < 0.5
    meta = (tmp_path / "report.csv.meta").read_text()
    assert "k=2" in meta
    assert (tmp_path / "report.csv.manifest").exists()


def test_detect_argmax_mode(tmp_path, capsys):
    events = simulate_events(tmp_path, capsys)
    code, out, err = run(
        capsys,
        "detect", "--events", events, "--k", "2", "--delta", "0.3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    lines = [l for l in out.splitlines() if l.startswith("t_hat=")]
    assert len(lines) == 1
    assert "mode=argmax-single" in (tmp_path / "report.csv.meta").read_text()


def test_detect_without_threshold_prints_the_argmax(tmp_path, capsys):
    events = simulate_events(tmp_path, capsys)
    code, out, err = run(
        capsys,
        "detect", "--events", events, "--k", "2", "--delta", "0.3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    # 1.98 is what the former argmax subcommand printed for this file
    assert "t_hat=1.98 " in out
    t_hat = float(out.split("t_hat=")[1].split()[0])
    assert t_hat == argmax_single(load_event_times(events), 2, 0.3)


def test_detect_from_binned_counts(tmp_path, capsys):
    csv = tmp_path / "bins.csv"
    counts = [100] * 40 + [150] * 40
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("bin_start,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{i * 0.25},{c}\n")
    code, out, err = run(
        capsys,
        "detect", "--binned", str(csv), "--k", "2", "--delta", "0.5",
        "--threshold", "200", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    t_hat = float((tmp_path / "report.csv").read_text().splitlines()[1].split(",")[0])
    assert abs(t_hat - 10.0) <= 1.0


def test_heatmap_custom_grids(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "heatmap", "--scenario", "smooth-jump", "--base", "200",
        "--k-grid", "1,2", "--delta-grid", "0.2,0.4",
        "--trials", "2", "--workers", "1", "--long-csv",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "argmin cell:" in out
    matrix = (tmp_path / "heatmap.csv").read_text().splitlines()
    header = [l for l in matrix if not l.startswith("#")][0]
    assert header.startswith("k\\delta,")
    long_lines = (tmp_path / "heatmap_long.csv").read_text().splitlines()
    assert long_lines[0] == "k,delta,trial,error"
    assert len(long_lines) == 1 + 2 * 2 * 2
    manifest = (tmp_path / "heatmap.csv.manifest").read_text().splitlines()
    assert "result.failed_cells=0" in manifest
    assert "failed cells: 0" in out


def test_heatmap_preset_with_small_overrides(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "heatmap", "--preset", "fig2-scaled",
        "--k-grid", "1,2", "--delta-grid", "0.1,0.3", "--trials", "1",
        "--workers", "1", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert (tmp_path / "heatmap.csv").exists()


def test_heatmap_prints_each_orders_best_delta(tmp_path, capsys):
    # on [0, 20] the order-3 stencil at delta 8 fits no grid time
    code, out, err = run(
        capsys,
        "heatmap", "--base", "100", "--k-grid", "1,3", "--delta-grid", "8",
        "--trials", "1", "--workers", "1", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "k=1 best_delta=8.0 mean_error=" in out
    assert "k=3 every cell failed\n" in out
    assert "failed cells: 1" in out


def test_multicascade_simulated_tree(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "multicascade", "--height", "4", "--extra-leaves", "30",
        "--cascades", "2", "--k", "1", "--delta", "0.3", "--window", "0.5",
        "--seed", "1", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "planted hub" in out
    assert (tmp_path / "multicascade.txt").exists()
    manifest = (tmp_path / "multicascade.txt.manifest").read_text()
    assert "result.hub=" in manifest


def test_multicascade_threshold_alone_runs_threshold_mode(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "multicascade", "--height", "4", "--extra-leaves", "30", "--threshold", "5",
        "--k", "1", "--delta", "0.3", "--window", "0.5", "--seed", "1",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "mode=threshold" in (tmp_path / "multicascade.txt").read_text()
    assert "param.threshold=5" in (tmp_path / "multicascade.txt.manifest").read_text()


def test_multicascade_from_trace_files(tmp_path, capsys):
    traces = []
    for i in range(2):
        d = tmp_path / f"c{i}"
        d.mkdir()
        code, _, err = run(
            capsys,
            "simulate-si", "--height", "3", "--extra-leaves", "6",
            "--seed", str(i), "--out-dir", str(d),
        )
        assert code == 0, err
        traces.append(str(d / "trace.csv"))
    code, out, err = run(
        capsys,
        "multicascade", "--trace", traces[0], "--trace", traces[1],
        "--k", "1", "--delta", "0.3", "--window", "2.0",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "estimated high-degree vertices" in out
    manifest = (tmp_path / "multicascade.txt.manifest").read_text().splitlines()
    for name in ("cascades", "height", "extra_leaves", "source", "seed"):
        assert f"param.{name}=None" in manifest


def test_analyze_binned_daily(tmp_path, capsys):
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, [10] * 20 + [60] + [10] * 9)
    code, out, err = run(
        capsys,
        "analyze-binned", "--csv", str(csv), "--k", "2", "--delta-days", "1",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "day 20" in out
    profile = (tmp_path / "profile.csv").read_text().splitlines()
    assert profile[0] == "day,value"
    manifest = (tmp_path / "profile.csv.manifest").read_text()
    assert "result.argmax_day=20" in manifest


def test_presets_lists_every_figure(tmp_path, capsys):
    code, out, err = run(capsys, "presets", "--out-dir", str(tmp_path))
    assert code == 0, err
    for name in ["fig1", "fig2-scaled", "fig2-full", "fig4", "fig5",
                  "sd-covid-style", "const-null", "multicascade-tree"]:
        assert name in out
    assert "sin-plus-exp" in out
    assert (tmp_path / "presets.txt").exists()


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RATEJUMP_OUT", str(tmp_path))
    code, _, err = run(capsys, "presets")
    assert code == 0, err
    assert (tmp_path / "presets.txt").exists()


# ---------------------------------------------------------------------------
# usage errors (exit 2)


def test_negative_delta_is_a_usage_error(capsys):
    code, out, err = run(capsys, "detect", "--events", "x.txt",
                         "--k", "2", "--delta", "-1")
    assert code == 2
    assert "delta must be positive" in err


def test_unknown_flag_is_a_usage_error(capsys):
    code, out, err = run(capsys, "detect", "--events", "x.txt",
                         "--k", "2", "--delta", "0.5", "--no-such-flag")
    assert code == 2


def test_missing_subcommand_is_a_usage_error(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_missing_input_file(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "detect", "--events", str(tmp_path / "absent.txt"),
        "--k", "2", "--delta", "0.3",
    )
    assert code == 2
    assert "missing input file" in err


def test_events_and_binned_conflict(tmp_path, capsys):
    events = simulate_events(tmp_path, capsys, **{"--horizon": "2"})
    code, out, err = run(
        capsys,
        "detect", "--events", events, "--binned", events,
        "--k", "2", "--delta", "0.3",
    )
    assert code == 2


@pytest.mark.parametrize("preset,flag,value", [
    ("fig2-scaled", "--base", "50"),
    ("fig2-scaled", "--horizon", "5"),
    ("fig2-scaled", "--height", "4"),
    ("fig2-scaled", "--scenario", "smooth-jump"),
    ("fig2-scaled", "--extra-leaves", "8000"),
    ("fig5", "--jump", "300"),
    ("fig5", "--base", "1e4"),
    ("fig5", "--scenario", "si-tree"),
])
def test_heatmap_preset_rejects_flags_it_does_not_use(tmp_path, capsys, preset, flag, value):
    code, out, err = run(
        capsys, "heatmap", "--preset", preset, flag, value,
        "--trials", "1", "--workers", "1", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert f"does not use {flag}" in err
    assert not (tmp_path / "heatmap.csv").exists()


@pytest.mark.parametrize("scenario,flag,value", [
    ("si-tree", "--base", "50"),
    ("si-tree", "--jump", "7"),
    ("si-tree", "--horizon", "3"),
    ("smooth-jump", "--extra-leaves", "5"),
    ("smooth-jump", "--height", "3"),
    ("const-null", "--jump", "7"),
])
def test_heatmap_scenario_rejects_flags_it_does_not_use(tmp_path, capsys, scenario, flag, value):
    code, out, err = run(
        capsys, "heatmap", "--scenario", scenario, flag, value, "--k-grid", "1",
        "--delta-grid", "0.3", "--trials", "1", "--workers", "1", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert f"scenario {scenario!r} does not use {flag}" in err
    assert not (tmp_path / "heatmap.csv").exists()


@pytest.mark.parametrize("argv", [
    ["detect", "--k", "1", "--delta", "0.3", "--seed", "1"],
    ["detect", "--k", "1", "--delta", "0.3", "--stream", "1"],
    ["analyze-binned", "--csv", "x.csv", "--seed", "1"],
    ["analyze-binned", "--csv", "x.csv", "--stream", "1"],
    ["heatmap", "--stream", "1"],
    ["presets", "--seed", "1"],
    ["multicascade", "--stream", "1"],
])
def test_options_nothing_reads_are_gone(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"unrecognized arguments: {argv[-2]} 1\n" in err


def test_heatmap_preset_names_every_unused_flag(capsys):
    code, out, err = run(capsys, "heatmap", "--preset", "fig5", "--jump", "3", "--height", "4")
    assert code == 2
    assert "does not use --height, --jump" in err


def test_heatmap_preset_takes_its_own_change_size(tmp_path, capsys):
    code, out, err = run(
        capsys, "heatmap", "--preset", "fig2-scaled", "--jump", "300",
        "--k-grid", "1", "--delta-grid", "0.3", "--trials", "1",
        "--workers", "1", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "jump=300.0" in (tmp_path / "heatmap.csv").read_text()
    manifest = (tmp_path / "heatmap.csv.manifest").read_text().splitlines()
    assert "param.jump=300.0" in manifest
    assert "param.base=None" in manifest


def test_heatmap_manifest_records_resolved_defaults(tmp_path, capsys):
    code, out, err = run(
        capsys, "heatmap", "--horizon", "4", "--k-grid", "1", "--delta-grid", "0.3",
        "--trials", "1", "--workers", "1", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    manifest = (tmp_path / "heatmap.csv.manifest").read_text().splitlines()
    for line in ("param.scenario=smooth-jump", "param.base=10000.0", "param.horizon=4.0"):
        assert line in manifest
    assert "base=10000.0" in (tmp_path / "heatmap.csv").read_text()


DETECT = ["--events", "{events}"]
GRIDS = ["--k-grid", "1", "--delta-grid", "0.3"]


@pytest.mark.parametrize("argv,code,message", [
    (["detect", "--k", "0", "--delta", "0.5", *DETECT], 2, "k must be >= 1, got 0"),
    (["detect", "--k", "21", "--delta", "0.5", *DETECT], 2, "k must be <= 20, got 21"),
    (["detect", "--k", "2", "--delta", "inf", *DETECT], 2, "delta must be positive and finite"),
    (["detect", "--k", "2", "--delta", "0.5", "--steps-per-delta", "2.5", *DETECT], 2,
     "steps_per_delta must be an integer, got 2.5"),
    (["detect", "--events", "{events}", "--k", "2", "--delta", "0.5", "--steps-per-delta", "0",
      "--threshold", "9"], 2,
     "steps_per_delta must be >= 1, got 0"),
    (["heatmap", "--k-grid", "1,21", "--delta-grid", "0.3"], 2, "k_grid[1] must be <= 20, got 21"),
    (["heatmap", "--base", "inf", "--k-grid", "1", "--delta-grid", "0.3"], 2,
     "base must be positive and finite, got inf"),
    (["heatmap", "--preset", "fig2-scaled", "--base", "inf"], 2,
     "base must be positive and finite, got inf"),
    (["simulate-poisson", "--base", "inf"], 2, "base must be positive and finite, got inf"),
    (["simulate-si", "--height", "3", "--extra-leaves", "2", "--source", "99"], 2,
     "source 99 out of range"),
    (["simulate-si", "--height", "3", "--source", "-1"], 2, "source -1 out of range"),
    (["simulate-si", "--height", "3", "--extra-leaves", "-2"], 2, "extra_leaves must be >= 0"),
    (["multicascade", "--height", "3", "--extra-leaves", "2", "--source", "99"], 2,
     "source 99 out of range"),
    (["multicascade", "--height", "3", "--extra-leaves", "-2"], 2, "extra_leaves must be >= 0"),
    (["heatmap", "--scenario", "si-tree", "--base", "50", "--jump", "7", *GRIDS], 2,
     "scenario 'si-tree' does not use --base, --jump"),
    (["heatmap", "--scenario", "si-tree", "--horizon", "3", *GRIDS], 2,
     "scenario 'si-tree' does not use --horizon"),
    (["heatmap", "--scenario", "smooth-jump", "--height", "3", *GRIDS], 2,
     "scenario 'smooth-jump' does not use --height"),
    # the stencil fits no grid time on [0, 2]: a failure of the data, not of a flag
    (["detect", "--events", "{events}", "--k", "5", "--delta", "2.0"], 1,
     "runtime error in detector"),
    (["simulate-poisson", "--rate-spec", "{events}", "--base", "5", "--onset", "2"], 2,
     "--rate-spec does not use --base, --onset"),
    (["simulate-si", "--graph", "{events}", "--height", "3", "--extra-leaves", "2"], 2,
     "--graph does not use --height, --extra-leaves"),
    (["detect", "--binned", "{events}", "--k", "2", "--delta", "0.5", "--threshold", "9",
      "--horizon", "100"], 2, "--horizon is for --events only"),
    (["detect", "--binned", "{events}", "--k", "2", "--delta", "0.5", "--horizon", "100"], 2,
     "--horizon is for --events only"),
])
def test_bad_flag_exit_codes(tmp_path, capsys, argv, code, message):
    events = tmp_path / "events.txt"
    events.write_text("0.5\n1.0\n1.5\n2.0\n")
    argv = [a.format(events=events) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert message in err
    assert not list(tmp_path.glob("out/*.manifest"))


def test_events_horizon_extends_the_event_file(tmp_path, capsys):
    events = tmp_path / "events.txt"
    events.write_text("0.5\n1.0\n1.5\n2.0\n")
    argv = ["detect", "--events", str(events), "--k", "5", "--delta", "2.0",
            "--out-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 1  # on [0, 2] the stencil fits no grid time
    code, out, err = run(capsys, *argv, "--horizon", "12")
    assert code == 0, err
    assert "param.horizon=12.0" in (tmp_path / "report.csv.manifest").read_text()


@pytest.mark.parametrize("flag, value", [
    ("--cascades", "9"), ("--height", "5"), ("--extra-leaves", "20"), ("--source", "3"),
    ("--seed", "4"),
])
def test_multicascade_trace_rejects_simulation_flags(tmp_path, capsys, flag, value):
    trace = tmp_path / "trace.csv"
    trace.write_text("vertex,time\n0,0.0\n1,0.5\n")
    code, out, err = run(capsys, "multicascade", "--trace", str(trace), flag, value,
                         "--out-dir", str(tmp_path))
    assert code == 2
    assert f"--trace does not use {flag}\n" in err
    assert not list(tmp_path.glob("*.manifest"))


def test_multicascade_trace_names_every_unused_flag(tmp_path, capsys):
    code, out, err = run(capsys, "multicascade", "--trace", str(tmp_path / "trace.csv"),
                         "--seed", "4", "--cascades", "9")
    assert code == 2
    assert "--trace does not use --cascades, --seed" in err


def test_multicascade_defaults_are_the_preset():
    args = build_parser().parse_args(["multicascade"])
    params = PRESETS["multicascade-tree"].params
    assert {name: getattr(args, name) for name in params} == params


class ClosedStdout(io.StringIO):
    """stdout whose reader has gone, as under ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, output", [
    (["presets"], "presets.txt"),
    (["multicascade", "--height", "4", "--extra-leaves", "30", "--k", "1", "--delta", "0.3",
      "--window", "0.5", "--seed", "1"], "multicascade.txt"),
])
def test_closed_stdout_does_not_fail_the_run(tmp_path, capsys, monkeypatch, argv, output):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    code = main([*argv, "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / output).exists()
    manifest = (tmp_path / (output + ".manifest")).read_text().splitlines()
    if argv[0] == "multicascade":  # a simulated run records the preset's cascade count
        assert "param.cascades=3" in manifest


def test_heatmap_without_preset_needs_grids(capsys):
    code, out, err = run(capsys, "heatmap", "--scenario", "smooth-jump")
    assert code == 2
    assert "--k-grid" in err


# ---------------------------------------------------------------------------
# runtime errors (exit 1) name the failing module


def test_runtime_error_names_detector(tmp_path, capsys):
    events = simulate_events(tmp_path, capsys, **{"--horizon": "2"})
    # window [(k-1)*delta, T - delta] is empty for delta=2, k=5 on T=2
    for mode in ([], ["--threshold", "600"]):
        code, out, err = run(
            capsys,
            "detect", "--events", events, "--k", "5", "--delta", "2.0", *mode,
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "runtime error in detector: no valid grid points: window (8.0, " in err
        assert "is empty for k=5, delta=2.0" in err
    assert not list(tmp_path.glob("report.csv*"))


def test_runtime_error_names_ingest(tmp_path, capsys):
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, [10, 20, 30])
    code, out, err = run(
        capsys,
        "analyze-binned", "--csv", str(csv), "--region", "atlantis",
    )
    assert code == 1
    assert "runtime error in ingest" in err


def test_short_row_under_region_filter_names_ingest_and_row(tmp_path, capsys):
    csv = tmp_path / "daily.csv"
    csv.write_text("date,region,cases\n2021-01-01,A,3\n2021-01-02\n")
    code, out, err = run(
        capsys,
        "analyze-binned", "--csv", str(csv), "--region", "A",
    )
    assert code == 1
    assert "runtime error in ingest" in err
    assert "row 3: no 'region' field" in err


def test_runtime_error_names_si_and_trace_row(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("vertex,time\n0,0.0\n1,nan\n")
    code, out, err = run(
        capsys,
        "multicascade", "--trace", str(trace), "--k", "1", "--delta", "0.3",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "runtime error in si" in err
    assert "row 3: time must be finite" in err


# ---------------------------------------------------------------------------
# help text


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ["simulate-poisson", "simulate-si", "detect", "heatmap",
                  "multicascade", "analyze-binned", "presets"]:
        assert name in out


def _subparsers() -> dict:
    """build_parser()'s subcommands: name -> its parser."""
    return next(a.choices for a in build_parser()._actions
                if hasattr(a, "choices") and isinstance(a.choices, dict))


def test_readme_command_table_lists_exactly_the_subcommands():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    table = readme.split("## Command line", 1)[1].split("```")[1]
    listed = [line.split()[1] for line in table.splitlines() if line.startswith("ratejump ")]
    assert sorted(listed) == sorted(_subparsers())


def test_every_flag_is_documented():
    for name, sub in _subparsers().items():
        for action in sub._actions:
            if action.option_strings and action.option_strings != ["-h", "--help"]:
                assert action.help, f"{name} {action.option_strings} lacks help text"


@pytest.mark.parametrize("flag,unit_word", [
    ("--delta", "time"),
    ("--horizon", "time"),
])
def test_time_flags_state_units(flag, unit_word):
    sub = _subparsers()["detect"]
    action = next(a for a in sub._actions if flag in a.option_strings)
    assert unit_word in action.help


def test_subcommand_help_exits_zero(capsys):
    assert main(["detect", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--delta" in out and "--threshold" in out
