"""Correctness checks for the benchmark, computed apart from the program.

Every check returns a list of failure messages; an empty list means the
output passed.  The references are closed-form integrals of the planted
rate functions, the law of SI gaps on a tree, the benchmark's own copies of
the daily counts it planted, and properties the estimators must have.  No
check calls into ``ratejump``.

Statistical checks use bounds whose false-failure probability per check is
below 1e-6, so a run of a few hundred checks fails by chance with
probability below 1e-3 while the faults in ``test_oracles.py`` still fail
by a wide margin.
"""

from __future__ import annotations

import math

import numpy as np

# |z| bound for a Poisson count or a sample mean: P(|Z| > 5) = 5.7e-7.
Z_BOUND = 5.0
# Kolmogorov bound on sqrt(n)*D: P(sqrt(n)*D > x) ~ 2*exp(-2x^2) = 1e-6.
KS_BOUND = math.sqrt(math.log(2.0 / 1e-6) / 2.0)


def ks_exp1(gaps: np.ndarray) -> float:
    """sqrt(n) * D of float64 ``gaps`` against Exp(1); overwrites ``gaps``.

    Works in place and in chunks: on stream-jumps ``gaps`` has 5.6e6
    entries.
    """
    u = gaps
    np.negative(u, out=u)
    np.expm1(u, out=u)
    np.negative(u, out=u)  # Exp(1) -> Uniform(0, 1)
    u.sort()
    n = u.size
    d = 0.0
    for lo in range(0, n, 1 << 20):
        chunk = u[lo:lo + (1 << 20)]
        ranks = np.arange(lo, lo + chunk.size, dtype=np.float64)
        d = max(d, float(np.max((ranks + 1.0) / n - chunk)), float(np.max(chunk - ranks / n)))
    return math.sqrt(n) * d


def count_z(count: int, mean: float) -> float:
    """z-score of a Poisson count against its mean."""
    return (count - mean) / math.sqrt(mean)


# ---------------------------------------------------------------------------
# heatmap-smooth


def smooth_jump_integral(base, jump, horizon, onset):
    """Integral over [0, horizon] of base*(1 + sin t) + jump*exp(-(t - onset))*1(t >= onset)."""
    return base * (horizon + 1.0 - math.cos(horizon)) + jump * -math.expm1(-(horizon - onset))


def check_heatmap_trial(errors, n_events, base, jump, horizon, onset_range):
    """One fig2-scaled trial: the event count and the (k, delta) error cells.

    The onset is drawn inside the program, so the count is checked against
    the integral at both ends of the onset range (it is monotone in the
    onset).
    """
    failures = []
    lo = smooth_jump_integral(base, jump, horizon, onset_range[1])
    hi = smooth_jump_integral(base, jump, horizon, onset_range[0])
    if count_z(n_events, lo) < -Z_BOUND or count_z(n_events, hi) > Z_BOUND:
        failures.append(
            f"event count {n_events} outside {Z_BOUND} sd of the integral [{lo:.0f}, {hi:.0f}]"
        )
    n_nan = int(np.count_nonzero(np.isnan(errors)))
    if n_nan:
        failures.append(f"{n_nan} NaN cells")
    return failures


def heatmap_argmin(errors: np.ndarray, k_grid, delta_grid):
    """(k, delta, mean error) of the smallest mean-error cell over trials.

    ``errors`` has shape (trials, n_k, n_delta); ties go to the smallest k,
    then the smallest delta.
    """
    mean = errors.mean(axis=0)
    i, j = np.unravel_index(int(np.argmin(mean)), mean.shape)
    return k_grid[i], delta_grid[j], float(mean[i, j])


def check_heatmap_argmin(errors, k_grid, delta_grid, max_error=0.3, orders=(3, 4)):
    """Over many trials the best cell is accurate and near the expected orders."""
    k, delta, err = heatmap_argmin(errors, k_grid, delta_grid)
    failures = []
    if not err <= max_error:
        failures.append(f"argmin error {err} at (k={k}, delta={delta}) exceeds {max_error}")
    if not min(orders) - 1 <= k <= max(orders) + 1:
        failures.append(f"argmin order {k} is not within one step of {orders}")
    return failures


# ---------------------------------------------------------------------------
# cascade-tree


def tree_parents(height: int, extra_leaves: int):
    """Parent of every vertex of the planted-hub tree rooted at vertex 0.

    The perfect binary tree is in heap order, and the extra leaves hang off
    the hub, the leftmost vertex at depth height-1.  Returns (parent, hub);
    parent[0] = -1.
    """
    n_tree = 2 ** (height + 1) - 1
    hub = 2 ** (height - 1) - 1
    parent = np.empty(n_tree + extra_leaves, dtype=np.int64)
    parent[0] = -1
    parent[1:n_tree] = (np.arange(1, n_tree) - 1) // 2
    parent[n_tree:] = hub
    return parent, hub


def check_tree_gaps(times: np.ndarray, parent: np.ndarray):
    """SI from the root of a tree: child-minus-parent gaps are i.i.d. Exp(1).

    Each vertex is infected only through its parent's edge, whose clock
    is Exp(1) and independent of every other edge, so this holds for any
    exact simulator.
    """
    if times.shape != parent.shape:
        return [f"trace has {times.size} vertices, the tree {parent.size}"]
    gaps = times[1:] - times[parent[1:]]
    failures = []
    if not np.all(gaps > 0):
        failures.append(f"{int(np.count_nonzero(gaps <= 0))} non-positive gaps")
    n = gaps.size
    z = (float(gaps.mean()) - 1.0) * math.sqrt(n)  # Exp(1) has unit variance
    if abs(z) > Z_BOUND:
        failures.append(f"mean gap {gaps.mean():.6f} is {z:.2f} sd from 1")
    ks = ks_exp1(gaps)
    if ks > KS_BOUND:
        failures.append(f"gaps fail KS against Exp(1): sqrt(n)*D = {ks:.3f} > {KS_BOUND:.3f}")
    return failures


def check_bundle(times_by_cascade, change_times, window, output, hub):
    """Intersection estimate recomputed from the traces and detected times.

    Returns (failures, hub_found, small): the output must equal the set of
    vertices infected within ``window`` of a detected time in every cascade.
    """
    expected = None
    for times, detected in zip(times_by_cascade, change_times):
        near = np.zeros(times.size, dtype=bool)
        for t in detected:
            near |= np.abs(times - t) <= window
        expected = near if expected is None else expected & near
    expected = set(np.flatnonzero(expected).tolist())
    failures = []
    if expected != set(output):
        failures.append(f"output {sorted(output)[:5]} is not the recomputed intersection "
                        f"{sorted(expected)[:5]}")
    return failures, hub in output, len(output) <= 3


def binomial_tail(successes: int, trials: int, p: float) -> float:
    """P(X <= successes) for X ~ Binomial(trials, p)."""
    return sum(math.comb(trials, i) * p**i * (1 - p) ** (trials - i)
               for i in range(successes + 1))


def check_bundle_rates(hub_hits: int, small_hits: int, bundles: int):
    """Bundle outputs: the hub is in, and at most 3 vertices are, in 90% of
    bundles.  Each fails when that rate is implausible,
    P(X <= hits | Binomial(bundles, 0.9)) <= 1e-3."""
    failures = []
    for label, hits in (("hub in output", hub_hits), ("output <= 3 vertices", small_hits)):
        if binomial_tail(hits, bundles, 0.9) <= 1e-3:
            failures.append(f"{label} in {hits}/{bundles} bundles, below 90%")
    return failures


# ---------------------------------------------------------------------------
# stream-jumps


def multi_jump_compensator(t, base, amplitude, onsets):
    """Lambda(t) = base*(t + 1 - cos t) + sum_i A*(1 - exp(-(t - t_i)))*1(t >= t_i).

    ``t`` must be sorted; the result is a new array.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.cos(t)
    np.subtract(t, out, out=out)
    out += 1.0
    out *= base
    for onset in onsets:
        start = int(np.searchsorted(t, onset, side="left"))
        tail = np.subtract(onset, t[start:])
        np.expm1(tail, out=tail)
        tail *= amplitude
        out[start:] -= tail
    return out


def check_stream(times, horizon, base, amplitude, onsets):
    """Time rescaling (Brown et al. 2002): gaps of Lambda(t_i) are i.i.d. Exp(1)."""
    failures = []
    total = float(multi_jump_compensator([horizon], base, amplitude, onsets)[0])
    z = count_z(times.size, total)
    if abs(z) > Z_BOUND:
        failures.append(f"event count {times.size} is {z:.2f} sd from {total:.0f}")
    if times.size == 0:
        return failures
    rescaled = multi_jump_compensator(times, base, amplitude, onsets)
    gaps = np.empty_like(rescaled)
    gaps[0] = rescaled[0]
    np.subtract(rescaled[1:], rescaled[:-1], out=gaps[1:])
    del rescaled
    ks = ks_exp1(gaps)
    if ks > KS_BOUND:
        failures.append(f"rescaled gaps fail KS against Exp(1): "
                        f"sqrt(n)*D = {ks:.3f} > {KS_BOUND:.3f}")
    return failures


def check_estimates(estimates, truths, delta, max_steps=1.5):
    """Exactly one estimate per jump, each within ``max_steps`` * delta of it."""
    estimates = sorted(estimates)
    if len(estimates) != len(truths):
        return [f"{len(estimates)} estimates {estimates} for {len(truths)} jumps"]
    worst = max(abs(s - t) for s, t in zip(estimates, sorted(truths)))
    if worst > max_steps * delta * (1 + 1e-9):
        return [f"d_max {worst:.4f} exceeds {max_steps} * delta = {max_steps * delta}"]
    return []


# ---------------------------------------------------------------------------
# daily-regions


def check_daily(counts, filled, clamped, planted):
    """The loaded series equals the planted one, with the same audit trail."""
    failures = []
    if not np.array_equal(counts, planted.counts):
        bad = np.flatnonzero(counts != planted.counts) if counts.shape == planted.counts.shape else []
        failures.append(f"counts differ from the planted series (first days {list(bad[:5])})")
    if tuple(filled) != planted.gaps:
        failures.append(f"filled days {tuple(filled)} != planted gaps {planted.gaps}")
    if tuple(clamped) != planted.corrections:
        failures.append(f"clamped days {tuple(clamped)} != planted corrections {planted.corrections}")
    return failures


def check_daily_profile(k, values, argmax_day, planted):
    """Order-k values are the k-th difference of N at day edges, exactly.

    N at day edge d is the planted counts' sum over days < d; the order-k
    stencil at day t spans edges t-k+1 .. t+1.  A one-day spike at day s
    makes the profile peak |C(k-1, j)| at day s + j, so the argmax lies
    within one day of s + (k-1)/2.
    """
    edges = np.concatenate(([0], np.cumsum(planted.counts)))
    expected = np.diff(edges, n=k).astype(np.float64)
    failures = []
    if not np.array_equal(values, expected):
        failures.append(f"order-{k} values differ from the k-th difference of N")
    if k >= 2 and abs(argmax_day - (planted.spike_day + (k - 1) / 2.0)) > 1.0:
        failures.append(f"order-{k} argmax day {argmax_day} not within one day of "
                        f"{planted.spike_day + (k - 1) / 2.0} (spike on day {planted.spike_day})")
    return failures
