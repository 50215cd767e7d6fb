"""Do higher orders actually beat first and second derivatives?

On an epidemic cascade the infection count grows roughly exponentially
before the hub fires, so low-order derivatives confuse the trend with
the jump.  This comparison fixes the scenario, runs one error heatmap
over orders 1-5 and a delta grid, and reads each order's best delta off
it; higher orders win whenever the background trend is strongly curved
relative to the jump.
"""

from ratejump import ExperimentSpec, run_heatmap
from ratejump.harness import SITreeScenario

scenario = SITreeScenario(height=13, extra_leaves=300)
print(f"scenario: SI cascade on a {2**14 - 1 + 300}-vertex tree with a degree-303 hub")
print("(the hub is weak here: its jump is only a few times the count noise)")

spec = ExperimentSpec(
    scenario=scenario,
    k_grid=(1, 2, 3, 4, 5),
    delta_grid=(0.2, 0.4, 0.6, 0.8, 1.0, 1.4),
    trials=10,
    base_seed=0,
)
best = run_heatmap(spec).best_per_order

print("\nbest mean error per derivative order (delta chosen per order):")
for k, (delta, err) in best.items():
    print(f"  k={k}: {err:6.3f}  at delta={delta:g}")

k = min((3, 4, 5), key=lambda k: best[k][1])
delta, err = best[k]
print(f"\nbest higher-order cell: k={k}, delta={delta:g}, mean error {err:.3f}")
low1 = best[1][1]
low2 = best[2][1]
verdict = "beats" if err < min(low1, low2) else "does NOT beat"
print(f"which {verdict} the first ({low1:.3f}) and second ({low2:.3f}) derivative minima")
