"""End-to-end tests of the command-line interface.

Every invocation goes through ``ratejump.cli.main(argv)`` in-process so we
can assert on exit codes, stdout/stderr, and the files left behind.
"""

import csv as csv_module
import io
import os
import pathlib
import sys

import numpy as np
import pytest

from ratejump.cli import build_parser, main
from ratejump.detector import argmax_single
from ratejump.harness import PRESETS
from ratejump.ingest import analyze_binned, load_daily_csv
from ratejump.process import load_event_times
from ratejump.seeding import SimSeed
from ratejump.si import load_edge_list, load_trace_csv, save_trace_csv, simulate_si


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


def test_simulate_poisson_rate_spec_reruns_the_preset_it_saved(tmp_path, capsys):
    code, _, err = run(capsys, "simulate-poisson", "--horizon", "3", "--base", "200",
                       "--seed", "4", "--out-dir", str(tmp_path))
    assert code == 0, err
    assert "param.rate_preset=sin-plus-exp" in (tmp_path / "events.txt.manifest").read_text()
    code, _, err = run(capsys, "simulate-poisson", "--rate-spec",
                       str(tmp_path / "events.txt.ratespec"), "--horizon", "3", "--seed", "4",
                       "--out", "again.txt", "--out-dir", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "again.txt").read_bytes() == (tmp_path / "events.txt").read_bytes()
    # the manifest names no preset: none ran
    manifest = (tmp_path / "again.txt.manifest").read_text().splitlines()
    assert "param.rate_preset=None" in manifest


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


def test_simulate_si_on_an_edge_list_file(tmp_path, capsys):
    # a 5-cycle with one chord, its edges in mixed orientations: not a tree,
    # so the cascade runs Dijkstra
    graph = tmp_path / "graph.txt"
    graph.write_text("# 5-cycle 0-1-2-3-4 with chord 1-3\n0 1\n2 1\n2 3\n4 3\n0 4\n3 1\n")
    code, out, err = run(
        capsys,
        "simulate-si", "--graph", str(graph), "--seed", "3", "--stream", "1",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    trace = load_trace_csv(str(tmp_path / "trace.csv"))
    want = simulate_si(load_edge_list(graph), 0, SimSeed(3, 1))
    assert trace.times.tobytes() == want.times.tobytes()
    result = {line.split("=", 1)[0] for line in
              (tmp_path / "trace.csv.manifest").read_text().splitlines()}
    assert "result.n_vertices" in result
    assert not {"result.hub", "result.hub_time"} & result


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
    manifest = (tmp_path / "report.csv.manifest").read_text().splitlines()
    assert {"param.k=2", "param.delta=0.3", "result.steps_per_delta=10",
            "param.threshold=600.0", "result.n_estimates=1"} <= set(manifest)
    # the grid's size, candidates and window are recorded in the manifest
    result = dict(line.split("=", 1) for line in manifest if line.startswith("result."))
    assert int(result["result.candidate_count"]) >= 1
    assert int(result["result.n_grid"]) > int(result["result.candidate_count"])
    assert float(result["result.window_lo"]) == 0.3  # (k-1)*delta: the first grid time
    assert 5.0 < float(result["result.window_hi"]) <= 6.0 - 0.3
    assert not (tmp_path / "report.csv.meta").exists()


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
    # no threshold is argmax mode: one candidate, the best-scoring grid point
    manifest = (tmp_path / "report.csv.manifest").read_text().splitlines()
    assert {"param.threshold=None", "result.candidate_count=1"} <= set(manifest)


def test_detect_without_threshold_prints_the_argmax(tmp_path, capsys):
    events = simulate_events(tmp_path, capsys)
    code, out, err = run(
        capsys,
        "detect", "--events", events, "--k", "2", "--delta", "0.3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    # 2.01 pins this file's thinned realization (seed 5)
    assert "t_hat=2.01 " in out
    t_hat = float(out.split("t_hat=")[1].split()[0])
    assert t_hat == argmax_single(load_event_times(events), 2, 0.3)


@pytest.mark.parametrize("width", ["50", "20"])
def test_simulate_poisson_refuses_a_bin_width_of_one_bin(tmp_path, capsys, width):
    # one bin would make a file that detect --binned cannot read
    code, out, err = run(
        capsys,
        "simulate-poisson", "--horizon", "20", "--bin-width", width,
        "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert f"bin width {float(width)!r} leaves fewer than two bins on horizon 20.0" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_poisson_refuses_a_bin_width_that_does_not_tile_the_horizon(tmp_path, capsys):
    # bins of 3 on [0, 20] would end in a bin [18, 21) holding two thirds of a bin's events
    code, out, err = run(
        capsys,
        "simulate-poisson", "--horizon", "20", "--bin-width", "3", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert "bin width 3.0 leaves a part bin at its end on horizon 20.0" in err
    assert list(tmp_path.iterdir()) == []


def write_binned_csv(path, counts, start):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_start,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{start + i},{c}\n")


def test_detect_binned_reports_on_the_files_clock(tmp_path, capsys):
    # N is known from the file's first edge on, so the start of the data is no jump
    csv = tmp_path / "bins.csv"
    write_binned_csv(csv, [100] * 40 + [150] * 40, start=100)
    code, out, err = run(
        capsys,
        "detect", "--binned", str(csv), "--k", "2", "--delta", "2",
        "--threshold", "50", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert [line.split(",")[0] for line in
            (tmp_path / "report.csv").read_text().splitlines()[1:]] == ["140.0"]
    assert "t_hat=140.0 " in out
    manifest = (tmp_path / "report.csv.manifest").read_text().splitlines()
    assert {"result.window_lo=102.0", "result.window_hi=178.0",
            "result.steps_per_delta=2"} <= set(manifest)


def test_detect_binned_off_zero_keeps_estimates_the_library_separates(tmp_path, capsys):
    # the library's estimates 0.4 and 0.6000000000000001 are 0.2000000000000001
    # apart, past min_sep = 0.2; moved to 100.4 and 100.6 they are not, so the
    # report stays on N's clock and only what is written moves to the file's
    csv = tmp_path / "bins.csv"
    counts = [10] * 20
    counts[4] = counts[6] = 500
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("bin_start,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{100.0 + i * 0.1!r},{c}\n")
    code, out, err = run(
        capsys,
        "detect", "--binned", str(csv), "--k", "1", "--delta", "0.1", "--threshold", "4000",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert [line.split(",")[0] for line in
            (tmp_path / "report.csv").read_text().splitlines()[1:]] == ["100.4", "100.6"]


def test_detect_binned_on_a_grid_step_of_part_bins_names_the_step(tmp_path, capsys):
    # delta 2.5 on 1-wide bins would read N between bin edges
    csv = tmp_path / "bins.csv"
    write_binned_csv(csv, [100] * 40 + [150] * 40, start=100)
    code, out, err = run(
        capsys,
        "detect", "--binned", str(csv), "--k", "2", "--delta", "2.5", "--threshold", "50",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert ("runtime error in detector: delta = 2.5 is not a whole number of knot gaps: "
            "N is known only at knots 1.0 apart") in err
    assert list(tmp_path.iterdir()) == [csv]


def test_simulate_poisson_bins_read_back_by_detect(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "simulate-poisson", "--base", "100", "--jump", "50", "--onset", "5",
        "--horizon", "20", "--bin-width", "10", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    binned = tmp_path / "events.txt.binned.csv"
    assert len(binned.read_text().splitlines()) == 1 + 2
    code, _, err = run(
        capsys,
        "detect", "--binned", str(binned), "--k", "1", "--delta", "10",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err


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
    # 0.25-wide bins set the grid: every edge, two per delta
    assert "result.steps_per_delta=2" in (tmp_path / "report.csv.manifest").read_text()


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


def test_every_csv_output_ends_each_line_in_crlf(tmp_path, capsys):
    # the six CSV writers, '#' note lines too, end every line as csv.writer does
    for argv in (["simulate-poisson", "--rate-preset", "const-plus-exp", "--base", "300",
                  "--horizon", "4", "--bin-width", "0.5"],
                 ["detect", "--events", str(tmp_path / "events.txt"), "--k", "2",
                  "--delta", "0.5", "--profile-out", "profile.csv"],
                 ["simulate-si", "--height", "3", "--extra-leaves", "4"],
                 ["heatmap", "--scenario", "smooth-jump", "--base", "200", "--k-grid", "1,2",
                  "--delta-grid", "0.2,0.4", "--trials", "2", "--workers", "1", "--long-csv"]):
        code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 0, err
    for name in ("events.txt.binned.csv", "report.csv", "profile.csv", "trace.csv",
                 "heatmap.csv", "heatmap_long.csv"):
        lines = (tmp_path / name).read_bytes().split(b"\n")
        assert lines.pop() == b"" and len(lines) > 1, name
        assert [line for line in lines if not line.endswith(b"\r")] == [], name


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


def test_simulate_poisson_takes_an_onset_of_zero(tmp_path, capsys):
    # JumpComponent takes a jump at the start of the record, and so does --onset
    code, _, err = run(capsys, "simulate-poisson", "--rate-preset", "const-plus-exp",
                       "--onset", "0", "--horizon", "2", "--out-dir", str(tmp_path))
    assert code == 0, err
    jump, = [line for line in (tmp_path / "events.txt.ratespec").read_text().splitlines()
             if "shape=expdecay" in line]
    assert " t0=0.0 " in jump


def test_multicascade_window_inf_admits_every_vertex(tmp_path, capsys):
    code, out, err = run(capsys, "multicascade", "--height", "4", "--extra-leaves", "30",
                         "--cascades", "2", "--window", "inf", "--seed", "1",
                         "--out-dir", str(tmp_path))
    assert code == 0, err
    assert "estimated high-degree vertices (61)" in out
    vertices = [line for line in (tmp_path / "multicascade.txt").read_text().splitlines()
                if not line.startswith("#")]
    assert sorted(map(int, vertices)) == list(range(61))
    assert "param.window=inf" in (tmp_path / "multicascade.txt.manifest").read_text()


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


DAILY = ["--delta", "1"]  # delta, and the grid step daily counts set: one day


def test_detect_daily_csv(tmp_path, capsys):
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, [10] * 20 + [60] + [10] * 9)
    code, out, err = run(
        capsys,
        "detect", "--daily-csv", str(csv), "--k", "2", *DAILY, "--profile-out", "profile.csv",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert "t_hat=20.0 " in out
    assert "day0_date=2021-03-01\n" in out
    profile = (tmp_path / "profile.csv").read_text().splitlines()
    assert profile[0] == "t,value"
    manifest = (tmp_path / "report.csv.manifest").read_text().splitlines()
    assert {"result.day0_date=2021-03-01", "result.filled_days=0", "result.clamped_days=0",
            "param.mode=daily", "param.region=None", "result.steps_per_delta=1"} <= set(manifest)
    assert f"outputs={tmp_path / 'report.csv'},{tmp_path / 'profile.csv'}" in manifest


def test_detect_daily_csv_profile_out(tmp_path, capsys):
    # the profile on the report's clock: day edges 1..19 of a 20-day series at k=2
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, [5] * 9 + [35] + [5] * 10)
    code, out, err = run(
        capsys,
        "detect", "--daily-csv", str(csv), "--k", "2", *DAILY, "--profile-out", "p.csv",
        "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert [float(line.split(",")[0]) for line in lines[1:]] == list(range(1, 20))
    assert "t_hat=9.0 " in out


@pytest.mark.parametrize("k,delta", [(1, 1), (2, 1), (3, 2), (4, 7)])
def test_detect_daily_csv_reproduces_analyze_binned(tmp_path, capsys, k, delta):
    rng = np.random.default_rng(11)
    counts = rng.poisson(200, size=60)
    counts[33] += 400
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, counts)
    code, out, err = run(
        capsys,
        "detect", "--daily-csv", str(csv), "--k", str(k), "--delta", str(delta),
        "--profile-out", "p.csv", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    analysis = analyze_binned(load_daily_csv(csv), k, delta_days=delta)
    with open(tmp_path / "p.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv_module.reader(fh))
    assert rows[0] == ["t", "value"]
    assert [(float(t), float(v)) for t, v in rows[1:]] == list(analysis.profile.pairs())
    (t_hat,) = [line for line in out.splitlines() if line.startswith("t_hat=")]
    assert float(t_hat.split()[0].split("=")[1]) == analysis.argmax_day


def test_detect_daily_csv_threshold_mode(tmp_path, capsys):
    # a level step of 50 a day at day 30: order 2 at delta 7 days peaks there
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, [100] * 30 + [150] * 30)
    code, out, err = run(
        capsys,
        "detect", "--daily-csv", str(csv), "--k", "2", "--delta", "7",
        "--threshold", "50", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in report[1:]] == ["30.0"]


def test_detect_daily_csv_cumulative_mode_matches_daily(tmp_path, capsys):
    counts = [3, 5, 4, 40, 6, 5, 4, 6, 5, 3]
    daily, cumulative = tmp_path / "daily.csv", tmp_path / "cumulative.csv"
    write_daily_csv(daily, counts)
    write_daily_csv(cumulative, np.cumsum(counts))
    for path, mode, name in ((daily, "daily", "d.csv"), (cumulative, "cumulative", "c.csv")):
        code, _, err = run(
            capsys,
            "detect", "--daily-csv", str(path), "--mode", mode, "--k", "2", *DAILY,
            "--profile-out", name, "--out-dir", str(tmp_path),
        )
        assert code == 0, err
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def test_detect_daily_csv_on_a_grid_step_of_part_days_names_the_step(tmp_path, capsys):
    # delta 1.5 days would read N between day edges
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, [10] * 30)
    code, out, err = run(
        capsys, "detect", "--daily-csv", str(csv), "--k", "2", "--delta", "1.5",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert ("runtime error in detector: delta = 1.5 is not a whole number of knot gaps: "
            "N is known only at knots 1.0 apart") in err
    assert list(tmp_path.iterdir()) == [csv]


def test_presets_lists_every_figure(tmp_path, capsys):
    code, out, err = run(capsys, "presets", "--out-dir", str(tmp_path))
    assert code == 0, err
    for name in ["fig1", "fig2-scaled", "fig2-full", "fig5", "multicascade-tree"]:
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


@pytest.mark.parametrize("argv, message", [
    (["simulate-poisson", "--onset", "-1"], "argument --onset: onset must be finite and >= 0"),
    (["multicascade", "--window", "0"], "argument --window: window must be positive, got 0"),
    (["multicascade", "--window", "nan"], "argument --window: window must be positive, got nan"),
])
def test_onset_and_window_outside_the_librarys_rules_are_usage_errors(tmp_path, capsys, argv,
                                                                       message):
    code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert message in err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("inputs,message", [
    ([], "an input is required: --events FILE, --binned FILE or --daily-csv FILE"),
    (["--events", "x", "--daily-csv", "y"], "give one input, not --events and --daily-csv"),
    (["--binned", "x", "--daily-csv", "y"], "give one input, not --binned and --daily-csv"),
    (["--events", "x", "--binned", "y", "--daily-csv", "z"],
     "give one input, not --events and --binned and --daily-csv"),
    (["--events", "x", "--region", "A"], "--events does not use --region\n"),
    (["--binned", "x", "--mode", "daily"], "--binned does not use --mode\n"),
    (["--events", "x", "--mode", "cumulative", "--region", "A"],
     "--events does not use --region, --mode\n"),
    (["--daily-csv", "x", "--horizon", "9"], "--horizon is for --events only"),
])
def test_detect_input_rules(tmp_path, capsys, inputs, message):
    code, out, err = run(capsys, "detect", *inputs, "--k", "1", "--delta", "1",
                         "--out-dir", str(tmp_path))
    assert code == 2
    assert message in err
    assert list(tmp_path.iterdir()) == []


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
    ["detect", "--daily-csv", "x.csv", "--k", "1", "--delta", "1", "--seed", "1"],
    ["detect", "--daily-csv", "x.csv", "--k", "1", "--delta", "1", "--stream", "1"],
    ["heatmap", "--stream", "1"],
    ["presets", "--seed", "1"],
    ["multicascade", "--stream", "1"],
    ["detect", "--k", "1", "--delta", "0.3", "--steps-per-delta", "1"],
    ["multicascade", "--steps-per-delta", "1"],
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
    assert "param.base=10000.0" in manifest  # the preset's, which the run took


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
    (["multicascade", "--k", "2.5"], 2, "k must be an integer, got 2.5"),
    (["multicascade", "--delta", "0", "--threshold", "9"], 2,
     "delta must be positive and finite, got 0"),
    (["heatmap", "--k-grid", "1,21", "--delta-grid", "0.3"], 2, "k_grid[1] must be <= 20, got 21"),
    (["heatmap", "--k-grid", "1", "--delta-grid", "0.1:0.5"], 2,
     "delta_grid[0] must be positive and finite, got '0.1:0.5'"),
    (["heatmap", "--base", "inf", "--k-grid", "1", "--delta-grid", "0.3"], 2,
     "base must be positive and finite, got inf"),
    (["heatmap", "--preset", "fig2-scaled", "--base", "inf"], 2,
     "base must be positive and finite, got inf"),
    (["simulate-poisson", "--base", "inf"], 2, "base must be positive and finite, got inf"),
    (["simulate-si", "--height", "3", "--extra-leaves", "2", "--source", "99"], 2,
     "source must be <= 16, got 99"),
    (["simulate-si", "--height", "3", "--source", "-1"], 2,
     "argument --source: source must be >= 0, got -1"),
    (["simulate-si", "--height", "3", "--extra-leaves", "-2"], 2, "extra_leaves must be >= 0"),
    (["multicascade", "--height", "3", "--extra-leaves", "2", "--source", "99"], 2,
     "source must be <= 16, got 99"),
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
    # an int beyond the float range, and a width that leaves more bins than a float counts
    pytest.param(["detect", "--k", "2", "--delta", "1" + "0" * 400, *DETECT], 2,
                 "delta must be positive and finite, got 1" + "0" * 400,
                 id="argv23-2-delta must be positive and finite, got 10**400"),
    (["simulate-poisson", "--horizon", "1", "--base", "5", "--bin-width", "1e-310"], 2,
     "bin width 1e-310 leaves too many bins on horizon 1.0"),
    # more bins than numpy can index the edges of, found before the simulation runs
    (["simulate-poisson", "--horizon", "1", "--base", "5", "--bin-width", "1e-300"], 2,
     "bin width 1e-300 leaves too many bins on horizon 1.0"),
    (["simulate-poisson", "--rate-spec", "{events}", "--rate-preset", "const-plus-exp"], 2,
     "--rate-spec does not use --rate-preset"),
    # an output's name is a file name in --out-dir
    (["simulate-si", "--height", "3", "--extra-leaves", "2", "--out", "{events}"], 2,
     "is not a file name in --out-dir"),
    (["detect", *DETECT, "--k", "2", "--delta", "0.5", "--out", ""], 2,
     "argument --out: '' is not a file name in --out-dir"),
    (["detect", *DETECT, "--k", "2", "--delta", "0.5", "--profile-out", "sub/p.csv"], 2,
     "argument --profile-out: 'sub/p.csv' is not a file name in --out-dir"),
    (["detect", *DETECT, "--k", "2", "--delta", "0.5", "--profile-out", "."], 2,
     "argument --profile-out: '.' is not a file name in --out-dir"),
    (["multicascade", "--height", "3", "--extra-leaves", "2", "--out", ".."], 2,
     "argument --out: '..' is not a file name in --out-dir"),
    # detect's two output names differ
    (["detect", *DETECT, "--k", "2", "--delta", "0.5", "--profile-out", "report.csv"], 2,
     "--profile-out report.csv would overwrite the report --out report.csv or its manifest"),
    # the integer flags are read by the library's one rule, not argparse's int
    (["simulate-si", "--height", "3", "--extra-leaves", "2.0"], 2,
     "argument --extra-leaves: extra_leaves must be an integer, got 2.0"),
    (["simulate-si", "--height", "3", "--source", "1.5"], 2,
     "argument --source: source must be an integer, got 1.5"),
])
def test_bad_flag_exit_codes(tmp_path, capsys, argv, code, message):
    events = tmp_path / "events.txt"
    events.write_text("0.5\n1.0\n1.5\n2.0\n")
    argv = [a.format(events=events) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert message in err
    assert not list(tmp_path.glob("out/*.manifest"))


def test_delta_grid_spans_lo_to_hi():
    # lo:hi:n is n evenly spaced deltas, both ends included; a comma list is
    # taken as it is
    def deltas(text):
        return build_parser().parse_args(["heatmap", "--k-grid", "1", "--delta-grid", text]
                                         ).delta_grid

    assert deltas("0.05:2:6") == tuple(np.linspace(0.05, 2.0, 6).tolist())
    assert deltas("0.05:2:6")[::5] == (0.05, 2.0)
    assert deltas("0.5:0.5:1") == (0.5,)
    assert deltas("0.1,0.3") == (0.1, 0.3)


@pytest.mark.parametrize("grid,message", [
    ("0:2:6", "delta_grid lo must be positive and finite, got 0"),
    ("0.1,0.2:2:6", "delta_grid lo must be positive and finite, got '0.1,0.2'"),
    ("0.1:inf:6", "delta_grid hi must be positive and finite, got inf"),
    ("0.1:x:6", "delta_grid hi must be positive and finite, got 'x'"),
    ("0.1:2:0", "delta_grid n must be >= 1, got 0"),
    ("0.1:2:2.5", "delta_grid n must be an integer, got 2.5"),
], ids=["lo-zero", "lo-a-list", "hi-inf", "hi-text", "n-zero", "n-fraction"])
def test_delta_grid_names_a_bad_lo_hi_or_n(tmp_path, capsys, grid, message):
    code, out, err = run(capsys, "heatmap", "--k-grid", "1", "--delta-grid", grid,
                         "--out-dir", str(tmp_path))
    assert code == 2
    assert f"argument --delta-grid: {message}\n" in err
    assert not list(tmp_path.iterdir())


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


# each flag at the value its subcommand's runs default to, given on a run that does not
# read it: given means given, not "differs from the default"
@pytest.mark.parametrize("argv, message", [
    *((["multicascade", "--trace", "{file}", flag, value], f"--trace does not use {flag}\n")
      for flag, value in [("--cascades", "3"), ("--height", "18"), ("--extra-leaves", "8000"),
                          ("--source", "0"), ("--seed", "0")]),
    (["simulate-si", "--graph", "{file}", "--height", "18"], "--graph does not use --height\n"),
    (["heatmap", "--preset", "fig5", "--base", "10000"], "preset 'fig5' does not use --base\n"),
    (["detect", "--events", "{file}", "--k", "2", "--delta", "0.5", "--mode", "daily"],
     "--events does not use --mode\n"),
    (["simulate-poisson", "--rate-spec", "{file}", "--rate-preset", "sin-plus-exp"],
     "--rate-spec does not use --rate-preset\n"),
])
def test_a_flag_at_its_default_value_is_still_rejected(tmp_path, capsys, argv, message):
    # the flag is refused before the input file, which does not exist, is read
    argv = [a.format(file=tmp_path / "missing") for a in argv]
    code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate-poisson", "--horizon", "1", "--base", "5", "--out"],
    ["simulate-si", "--height", "3", "--extra-leaves", "2", "--out"],
    ["detect", "--events", "{events}", "--k", "2", "--delta", "0.5", "--out"],
    ["detect", "--events", "{events}", "--k", "2", "--delta", "0.5", "--profile-out"],
    ["multicascade", "--height", "3", "--extra-leaves", "2", "--out"],
])
def test_an_output_name_cannot_leave_the_out_dir(tmp_path, capsys, argv):
    events = tmp_path / "events.txt"
    events.write_text("0.5\n1.0\n1.5\n2.0\n")
    argv = [a.format(events=events) for a in argv]
    code, out, err = run(capsys, *argv, "../escape.txt", "--out-dir", str(tmp_path / "d" / "in"))
    assert code == 2
    assert "'../escape.txt' is not a file name in --out-dir" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("profile_out", ["r.csv", "r.csv.manifest"])
def test_detect_profile_out_cannot_overwrite_its_own_outputs(tmp_path, capsys, profile_out):
    events = tmp_path / "events.txt"
    events.write_text("0.5\n1.0\n1.5\n2.0\n")
    code, out, err = run(capsys, "detect", "--events", str(events), "--k", "2", "--delta", "0.5",
                         "--out", "r.csv", "--profile-out", profile_out,
                         "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert f"--profile-out {profile_out} would overwrite the report --out r.csv" in err
    assert not (tmp_path / "out").exists()


def write_inputs(d):
    """One valid input file of each kind in directory ``d``."""
    (d / "ev.txt").write_text("0.5\n1.0\n1.5\n2.0\n")
    (d / "ev.txt.ratespec").write_text("A=5.0 t0=0.0 shape=constant params=\n")
    (d / "g.txt").write_text("0 1\n1 2\n1 3\n")
    (d / "b.csv").write_text("bin_start,count\n0,1\n1,3\n2,2\n3,5\n")
    write_daily_csv(d / "r.csv.manifest", [3, 4, 5, 9, 12, 11])
    for i in (1, 2):
        save_trace_csv(simulate_si(load_edge_list(d / "g.txt"), 0, SimSeed(i)), d / f"t{i}.csv")


@pytest.mark.parametrize("argv, source, output", [
    (["simulate-poisson", "--rate-spec", "{d}/ev.txt.ratespec", "--out", "ev.txt"],
     "ev.txt.ratespec", "ev.txt.ratespec"),
    (["simulate-si", "--graph", "{d}/g.txt", "--out", "g.txt"], "g.txt", "g.txt"),
    (["detect", "--events", "{d}/ev.txt", "--k", "2", "--delta", "0.5", "--out", "ev.txt"],
     "ev.txt", "ev.txt"),
    (["detect", "--binned", "{d}/b.csv", "--k", "1", "--delta", "1", "--profile-out", "b.csv"],
     "b.csv", "b.csv"),
    (["detect", "--daily-csv", "{d}/r.csv.manifest", "--k", "1", "--delta", "1",
      "--out", "r.csv"], "r.csv.manifest", "r.csv.manifest"),
    (["multicascade", "--trace", "{d}/t1.csv", "--trace", "{d}/t2.csv", "--out", "t2.csv"],
     "t2.csv", "t2.csv"),
], ids=["simulate-poisson", "simulate-si", "detect-events", "detect-binned", "detect-daily",
        "multicascade"])
def test_an_output_cannot_overwrite_an_input_of_its_run(tmp_path, capsys, argv, source, output):
    # the run is refused before any work, and every input stays as it was
    write_inputs(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [a.format(d=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert (f"the output {tmp_path / output} would overwrite the input {tmp_path / source}"
            in err)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_an_input_elsewhere_of_an_output_name_is_read(tmp_path, capsys):
    (tmp_path / "in").mkdir()
    write_inputs(tmp_path / "in")
    code, out, err = run(capsys, "detect", "--events", str(tmp_path / "in" / "ev.txt"),
                         "--k", "2", "--delta", "0.5", "--out", "ev.txt",
                         "--out-dir", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "ev.txt").read_text().startswith("t_hat,score")


def test_a_heatmap_preset_manifest_records_the_values_it_ran_with(tmp_path, capsys):
    params = PRESETS["fig2-scaled"].params
    code, out, err = run(capsys, "heatmap", "--preset", "fig2-scaled", "--trials", "2",
                         "--workers", "1", "--out-dir", str(tmp_path / "a"))
    assert code == 0, err
    manifest = (tmp_path / "a" / "heatmap.csv.manifest").read_text().splitlines()
    for name in ("scenario", "base", "jump", "horizon", "k_grid", "delta_grid"):
        assert f"param.{name}={params[name]}" in manifest
    assert {"param.trials=2", "param.height=None", "param.extra_leaves=None"} <= set(manifest)
    # without --trials, the preset's own count
    code, out, err = run(capsys, "heatmap", "--preset", "fig2-scaled", "--k-grid", "1",
                         "--delta-grid", "0.3", "--workers", "1", "--out-dir", str(tmp_path / "b"))
    assert code == 0, err
    manifest = (tmp_path / "b" / "heatmap.csv.manifest").read_text().splitlines()
    assert {f"param.trials={params['trials']}", "param.k_grid=(1,)",
            "param.delta_grid=(0.3,)"} <= set(manifest)


def test_simulate_poisson_leaves_no_output_when_binning_fails(tmp_path, capsys):
    # 1e17 bins pass the bin-count limit, but their edges are far beyond the
    # address space: numpy refuses the array at once
    code, out, err = run(capsys, "simulate-poisson", "--horizon", "1", "--base", "5",
                         "--bin-width", "1e-17", "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "runtime error in process: Unable to allocate" in err
    assert not list(tmp_path.glob("out/*"))


def test_multicascade_defaults_are_the_preset(tmp_path, capsys):
    # a default run settles every value from the preset, and its manifest records them
    code, out, err = run(capsys, "multicascade", "--out-dir", str(tmp_path))
    assert code == 0, err
    manifest = (tmp_path / "multicascade.txt.manifest").read_text().splitlines()
    params = PRESETS["multicascade-tree"].params
    assert set(params) == {"cascades", "height", "extra_leaves", "k", "delta", "window"}
    for name, value in params.items():
        assert f"param.{name}={value}" in manifest


def test_heatmap_workers_default_to_the_cpus_this_process_may_run_on(monkeypatch):
    # under `taskset -c 0` the default heatmap runs serially and forks nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert build_parser().parse_args(["heatmap"]).workers == 1


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


def test_bad_timestamp_names_process_and_line(tmp_path, capsys):
    events = tmp_path / "events.txt"
    events.write_text("1.0\nnan\n2.0\n")
    code, out, err = run(
        capsys,
        "detect", "--events", str(events), "--k", "2", "--delta", "0.3",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "runtime error in process" in err
    assert "line 2: timestamp must be finite and >= 0, got nan" in err


def test_byte_that_is_not_utf8_names_process_path_and_line(tmp_path, capsys):
    events = tmp_path / "events.txt"
    events.write_bytes("1.0\n# caf\xe9\n2.0\n".encode("latin-1"))
    code, out, err = run(
        capsys,
        "detect", "--events", str(events), "--k", "2", "--delta", "0.3",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert err.startswith(f"runtime error in process: {events}: line 2: 'utf-8' codec can't "
                          "decode byte 0xe9 in position ")


def test_runtime_error_names_ingest(tmp_path, capsys):
    csv = tmp_path / "daily.csv"
    write_daily_csv(csv, [10, 20, 30])
    code, out, err = run(
        capsys,
        "detect", "--daily-csv", str(csv), "--region", "atlantis", "--k", "2", *DAILY,
    )
    assert code == 1
    assert "runtime error in ingest" in err


def test_short_row_under_region_filter_names_ingest_and_row(tmp_path, capsys):
    csv = tmp_path / "daily.csv"
    csv.write_text("date,region,cases\n2021-01-01,A,3\n2021-01-02\n")
    code, out, err = run(
        capsys,
        "detect", "--daily-csv", str(csv), "--region", "A", "--k", "2", *DAILY,
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
                  "multicascade", "presets"]:
        assert name in out
    assert "analyze-binned" not in out


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


@pytest.mark.parametrize("argv", [["simulate-si", "--height", "40"],
                                  ["heatmap", "--scenario", "si-tree", "--height", "40", *GRIDS]])
def test_a_tree_beyond_the_int32_bound_exits_2_naming_height_and_writes_nothing(
        capsys, tmp_path, argv):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out-dir", str(out_dir))
    assert code == 2
    assert "height 40 and extra_leaves 8000: " in err
    assert not out_dir.exists()
