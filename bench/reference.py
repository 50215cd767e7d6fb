#!/usr/bin/env python3
"""Time the single calls the README quotes as reference figures.

    python3 bench/reference.py

Prints the minimum and maximum over REPEATS repeats of: one fig2-scaled trial
and its simulation, the benchmark tree build, one cascade on it, a
fig1-scale stream (base rate 1e6 over 20 time units, about 2.1e7 events),
and the packing DP on 200k candidates.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ratejump import detector, harness, poisson, si  # noqa: E402
from ratejump.seeding import SimSeed  # noqa: E402

REPEATS = 3


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main() -> int:
    preset = harness.get_preset("fig2-scaled")
    fig1 = harness.get_preset("fig1").params
    stream = poisson.preset_rate_spec("sin-plus-exp", base=fig1["base"], jump=fig1["jump"],
                                      onset=fig1["onset"])
    rng = np.random.default_rng(0)
    cand_times = np.sort(rng.uniform(0.0, 20.0, 200_000))
    cand_scores = rng.uniform(1.0, 2.0, 200_000)
    rows = {}
    graph = None
    for r in range(REPEATS):
        spec = harness.heatmap_spec_from_preset(preset, trials=1, base_seed=r)
        rows.setdefault("fig2-scaled trial", []).append(
            timed(lambda: harness.run_heatmap(spec))[0])
        rows.setdefault("  its simulation", []).append(
            timed(lambda: spec.scenario.realize(SimSeed(r, 0)))[0])
        graph = None
        dt, graph = timed(lambda: si.build_tree_with_hub(18, 8000))
        rows.setdefault("tree build (18, 8000)", []).append(dt)
        rows.setdefault("one cascade", []).append(
            timed(lambda: si.simulate_si(graph, 0, SimSeed(r)))[0])
        rows.setdefault("fig1-scale stream", []).append(
            timed(lambda: poisson.simulate(stream, fig1["horizon"], SimSeed(r)))[0])
        rows.setdefault("packing DP, 200k candidates", []).append(
            timed(lambda: detector._packing_indices(cand_times, cand_scores, 0.6))[0])
    for name, values in rows.items():
        print(f"{name:<30} {min(values):8.3f} - {max(values):8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
