"""Acceptance suite: one test per shipped guarantee, at full stated scale.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output) and enforces both the statistical tolerance and the wall
time budget.  Everything is seeded; reruns are bit-identical.
"""

import functools
import itertools
import os
import time

import numpy as np
import pytest
from scipy import stats

from ratejump.derivative import DerivativeStencil, annihilation_check
from ratejump.detector import DetectorConfig, _packing_indices
from ratejump.harness import (
    ExperimentSpec,
    SITreeScenario,
    false_alarm_study,
    get_preset,
    heatmap_spec_from_preset,
    run_heatmap,
)
from ratejump.ingest import analyze_binned
from ratejump.multicascade import CascadeBundle, estimate_high_degree
from ratejump.poisson import Constant, JumpComponent, RateSpec, simulate
from ratejump.seeding import SimSeed
from ratejump.si import Graph, build_tree_with_hub, simulate_si


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. polynomial annihilation


def test_polynomial_annihilation_tolerance():
    """Order-(l+1) stencils kill every polynomial of degree <= l."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for order in range(1, 9):
        for delta in (0.05, 0.5, 2.0):
            stencil = DerivativeStencil.of_order(order + 1, delta)
            offsets = stencil.offsets()
            for _ in range(100):
                coeffs = rng.uniform(-100.0, 100.0, size=order + 1)
                for t in rng.uniform(0.0, 10.0, size=5):
                    vals = np.polynomial.polynomial.polyval(t + offsets, coeffs)
                    summands = stencil.coefficients * vals
                    ratio = abs(float(summands.sum())) / float(np.max(np.abs(summands)))
                    worst = max(worst, ratio)
    # spot-check the public helper against the inline computation
    assert annihilation_check(3, 0.5, [1.0, -2.0, 3.0, 0.5], 4.0) == pytest.approx(0.0, abs=1e-9)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report("polynomial annihilation", ok,
           f"worst residual/max-summand = {worst:.2e} <= 1e-06, {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 2. homogeneous Poisson calibration


def test_poisson_simulator_calibration():
    start = time.monotonic()
    spec = RateSpec(components=(JumpComponent(1000.0, 0.0, Constant()),))
    counts = [len(simulate(spec, 10.0, seed=SimSeed(s))) for s in range(100)]
    mean = float(np.mean(counts))
    mean_ok = abs(mean - 10_000.0) <= 40.0  # 4 standard errors

    events = simulate(spec, 12.0, seed=SimSeed(2024))
    gaps = np.diff(events.times[:10_000], prepend=0.0)
    assert gaps.size == 10_000
    pvalue = float(stats.kstest(gaps, "expon", args=(0, 1.0 / 1000.0)).pvalue)
    ks_ok = pvalue > 0.01

    elapsed = time.monotonic() - start
    ok = mean_ok and ks_ok and elapsed < 10.0
    report("poisson calibration", ok,
           f"mean count {mean:.1f} within 40 of 10000, KS p={pvalue:.3f} > 0.01, "
           f"{elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 3. smooth-plus-jump heatmap: where the error argmin lands


def test_scaled_heatmap_argmin():
    start = time.monotonic()
    spec = heatmap_spec_from_preset(get_preset("fig2-scaled"))
    assert spec.trials == 100
    result = run_heatmap(spec, workers=1)
    k_star, delta_star, err_star = result.argmin
    err_ok = err_star <= 0.3
    k_indices = {k: i for i, k in enumerate(spec.k_grid)}
    near_ok = min(abs(k_indices[kk] - k_indices[k_star]) for kk in (3, 4)) <= 1
    elapsed = time.monotonic() - start
    ok = err_ok and near_ok and elapsed < 600.0
    report("scaled heatmap argmin", ok,
           f"argmin cell (k={k_star}, delta={delta_star:.2f}) error {err_star:.3f} <= 0.3, "
           f"within one k-step of k in {{3,4}}, {elapsed:.0f}s < 600s")


@pytest.mark.skipif(os.environ.get("RATEJUMP_FULLSCALE") != "1",
                    reason="full-scale heatmap takes hours; set RATEJUMP_FULLSCALE=1")
def test_fullscale_heatmap_argmin():
    start = time.monotonic()
    spec = heatmap_spec_from_preset(get_preset("fig2-full"))
    result = run_heatmap(spec, workers=1)
    _, _, err_star = result.argmin
    elapsed = time.monotonic() - start
    report("full-scale heatmap argmin", err_star <= 0.15,
           f"argmin error {err_star:.3f} <= 0.15, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. no false alarms on a constant-rate process


def test_no_false_alarms_on_constant_rate():
    start = time.monotonic()
    spec = RateSpec(components=(JumpComponent(1e4, 0.0, Constant()),))
    config = DetectorConfig(k=4, delta=0.24, threshold=8e3)
    rep = false_alarm_study(spec, 20.0, config, runs=100, base_seed=0)
    clean = rep.runs - rep.runs_with_alarms
    elapsed = time.monotonic() - start
    ok = clean >= 95 and elapsed < 120.0
    report("no false alarms", ok,
           f"empty detection in {clean}/100 runs >= 95, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 5. hub timing on the benchmark tree + derivative-order comparison


def test_tree_hub_timing_and_order_baselines():
    start = time.monotonic()
    # (a) estimate the hub infection time on the big benchmark tree
    scenario = SITreeScenario(height=18, extra_leaves=8000)
    spec = ExperimentSpec(scenario=scenario, k_grid=(2,), delta_grid=(0.1,),
                          trials=20, base_seed=0)
    result = run_heatmap(spec, workers=1)
    hub_err = float(result.mean_errors[0, 0])
    hub_ok = hub_err <= 0.5

    # (b) at a weaker hub, higher orders must beat the 1st/2nd derivatives
    weak = SITreeScenario(height=18, extra_leaves=2000)
    grid = tuple(float(x) for x in np.linspace(0.2, 2.0, 10))
    best = run_heatmap(ExperimentSpec(scenario=weak, k_grid=(1, 2, 3, 4, 5), delta_grid=grid,
                                      trials=5, base_seed=0), workers=1).best_per_order
    err1 = best[1][1]
    err2 = best[2][1]
    err_high = min(best[k][1] for k in (3, 4, 5))
    order_ok = err_high < err1 and err_high < err2

    elapsed = time.monotonic() - start
    ok = hub_ok and order_ok and elapsed < 900.0
    report("tree hub timing + order baselines", ok,
           f"mean |t_hat - t_hub| = {hub_err:.3f} <= 0.5; "
           f"best high-order {err_high:.2f} < order-1 {err1:.2f} and order-2 {err2:.2f}; "
           f"{elapsed:.0f}s < 900s")


# ---------------------------------------------------------------------------
# 6. multi-cascade intersection pins the hub


def test_multicascade_hub_recovery():
    start = time.monotonic()
    params = get_preset("multicascade-tree").params
    graph = build_tree_with_hub(params["height"], params["extra_leaves"])
    config = DetectorConfig(k=params["k"], delta=params["delta"])
    window = params["window"]
    cascades = params["cascades"]
    reps = 20
    hub_hits = size_ok = 0
    for rep in range(reps):
        traces = tuple(
            simulate_si(graph, 0, SimSeed(777, rep * cascades + c))
            for c in range(cascades)
        )
        outcome = estimate_high_degree(CascadeBundle(traces=traces), config,
                                       window=window)
        hub_hits += graph.hub in outcome.vertices
        size_ok += len(outcome.vertices) <= 3
    elapsed = time.monotonic() - start
    ok = hub_hits >= 18 and size_ok >= 18 and elapsed < 1200.0
    report("multicascade hub recovery", ok,
           f"hub recovered {hub_hits}/{reps} >= 18, size <= 3 in {size_ok}/{reps} >= 18, "
           f"{elapsed:.0f}s < 1200s")


# ---------------------------------------------------------------------------
# 7. SI dynamics oracles


def random_connected_graph(rng, n):
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):  # random spanning tree
        u = int(rng.integers(0, v))
        adjacency[u].append(v)
        adjacency[v].append(u)
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = rng.choice(n, size=2, replace=False)
        u, v = int(u), int(v)
        if v not in adjacency[u]:
            adjacency[u].append(v)
            adjacency[v].append(u)
    return Graph(adjacency)


def exact_order_probs(adjacency, source):
    """Enumerate P(infection order) from the next-infection law."""
    n = len(adjacency)
    out = {}

    def rec(infected, order, prob):
        if len(infected) == n:
            out[order] = out.get(order, 0.0) + prob
            return
        weights = {}
        for v in range(n):
            if v not in infected:
                c = sum(1 for u in adjacency[v] if u in infected)
                if c:
                    weights[v] = c
        cut = sum(weights.values())
        for v, c in weights.items():
            rec(infected | {v}, order + (v,), prob * c / cut)

    rec(frozenset([source]), (), 1.0)
    return out


def test_si_dynamics_oracles():
    start = time.monotonic()

    # (a) cut identity: after each infection the rate moves by exactly the
    # new vertex's jump, and hits zero when everyone is infected
    from ratejump.si import jump_at_infection, rate_at

    rng = np.random.default_rng(55)
    cut_ok = True
    for i in range(200):
        graph = random_connected_graph(rng, int(rng.integers(2, 11)))
        trace = simulate_si(graph, 0, SimSeed(55, i))
        order = np.argsort(trace.times)
        infected = {int(order[0])}
        rate = rate_at(graph, infected)
        for v in order[1:]:
            v = int(v)
            rate += jump_at_infection(graph, infected, v)
            infected.add(v)
            cut_ok = cut_ok and rate == rate_at(graph, infected)
        cut_ok = cut_ok and rate == 0

    # (b) next-infection law on two small graphs, 1e4 runs each
    def orders_pvalue(adjacency, source, base):
        graph = Graph([list(a) for a in adjacency])
        exact = exact_order_probs(adjacency, source)
        keys = sorted(exact)
        observed = dict.fromkeys(keys, 0)
        runs = 10_000
        for i in range(runs):
            trace = simulate_si(graph, source, SimSeed(base, i))
            order = tuple(int(v) for v in np.argsort(trace.times) if v != source)
            observed[order] += 1
        f_obs = np.array([observed[k] for k in keys])
        f_exp = np.array([exact[k] * runs for k in keys])
        return float(stats.chisquare(f_obs, f_exp).pvalue)

    p_triangle = orders_pvalue([[1, 2], [0, 2], [0, 1]], 0, 9001)
    p_path5 = orders_pvalue([[1], [0, 2], [1, 3], [2, 4], [3]], 2, 9002)

    # (c) two-vertex graph: infection time is Exp(1)
    pair = Graph([[1], [0]])
    mean2 = float(np.mean(
        [simulate_si(pair, 0, SimSeed(9003, i)).times[1] for i in range(10_000)]
    ))

    elapsed = time.monotonic() - start
    ok = (cut_ok and p_triangle > 0.01 and p_path5 > 0.01
          and 0.97 <= mean2 <= 1.03 and elapsed < 60.0)
    report("SI dynamics oracles", ok,
           f"cut identity exact on 200 graphs, chi-square p={p_triangle:.2f}/{p_path5:.2f} > 0.01, "
           f"two-vertex mean {mean2:.3f} in [0.97, 1.03], {elapsed:.0f}s < 60s")


# ---------------------------------------------------------------------------
# 8. packing equals the exhaustive maximum


def max_packing_size(times, min_sep):
    """Exhaustive take/skip recursion; independent of the production code."""
    n = len(times)
    nxt = [int(np.searchsorted(times, times[i] + min_sep, side="right"))
           for i in range(n)]

    @functools.lru_cache(maxsize=None)
    def best(i):
        if i >= n:
            return 0
        return max(best(i + 1), 1 + best(nxt[i]))

    return best(0)


def test_packing_matches_exhaustive_maximum():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(0, 13))
        times = np.sort(rng.uniform(0.0, 10.0, size=n))
        scores = rng.uniform(0.0, 5.0, size=n)
        min_sep = float(rng.uniform(0.2, 2.0))
        result = _packing_indices(times, scores, min_sep)
        picked = times[result].tolist()
        assert result == sorted(set(result))
        assert all(b - a > min_sep for a, b in zip(picked, picked[1:]))
        assert len(result) == max_packing_size(tuple(times.tolist()), min_sep)
        if n <= 6:  # cross-check the recursion against full enumeration
            brute = max(
                (len(sub) for r in range(n + 1)
                 for sub in itertools.combinations(times.tolist(), r)
                 if all(b - a > min_sep for a, b in zip(sub, sub[1:]))),
                default=0,
            )
            assert brute == max_packing_size(tuple(times.tolist()), min_sep)
            checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    report("packing vs exhaustive maximum", ok,
           f"500 candidate sets match, {checked} verified by full enumeration, "
           f"{elapsed:.1f}s < 5s")


# ---------------------------------------------------------------------------
# 9. binned daily series: spike day localization


def test_binned_series_spike_day():
    start = time.monotonic()
    counts = np.full(90, 100, dtype=np.int64)
    counts[40] += 400
    analysis = analyze_binned(counts, k=2, delta_days=1)
    elapsed = time.monotonic() - start
    ok = abs(analysis.argmax_day - 40) <= 1 and elapsed < 1.0
    report("binned spike day", ok,
           f"extreme day {analysis.argmax_day} within 1 of 40, {elapsed:.2f}s < 1s")
