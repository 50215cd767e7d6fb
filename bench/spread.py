#!/usr/bin/env python3
"""Run workloads repeatedly and print each end-to-end metric's spread beside its bound.

    python3 bench/spread.py [--runs 10] [--first-seed 1]

Each workload of BENCHMARK.json runs ``--runs`` times, each run a fresh
``bench/run.py`` process with its own seed (first-seed, first-seed+1, ...)
and the ``run_seconds`` of BENCHMARK.json.  The spread of a metric is the
distance between the first and third quartiles of its values
(``statistics.quantiles(n=4)``) as a share of their median; a steady
benchmark keeps it below a third of the bound.  Counts a workload tallies
(cascade-tree's bundle hits) are pooled over the runs and checked again,
where the larger sample gives the check its power.  The exit code is 1 if
any run is not correct or has a failed op, or a pooled check fails.  The
table also goes to ``bench/out/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    report = {}
    ok = True
    for name in names:
        runs, tally = [], {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed} exited with {done.returncode}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("tally "):
                    for key, count in json.loads(line[len("tally "):]).items():
                        tally[key] = tally.get(key, 0) + count
            runs.append({"seed": seed, "wall_s": wall, **result})
            ok &= result["correct"] and result["failed"] == 0
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        rows = []
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows.append({"metric": metric["name"], "median": med, "spread": spread,
                         "bound": metric["bound"], "values": values})
            held = spread <= metric["bound"] / 3
            print(f"  {metric['name']:<12} median {med:12.6g} {metric['unit']:<4} "
                  f"spread {spread:7.2%}  bound {metric['bound']:.0%}"
                  f"{'' if held else '  <-- above a third of the bound'}", flush=True)
        fail_shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(fail_shares)}; "
              f"mean wall {statistics.mean(r['wall_s'] for r in runs):.1f} s", flush=True)
        pooled = []
        if "bundles" in tally:
            pooled = oracles.check_bundle_rates(
                tally["hub_in_output"], tally["at_most_3"], tally["bundles"])
            print(f"  pooled over the runs: {tally}" + "".join(
                f"\n  pooled check failed: {msg}" for msg in pooled), flush=True)
            ok &= not pooled
        report[name] = {"runs": runs, "metrics": rows, "tally": tally, "pooled_failures": pooled}
    (BENCH / "out").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (BENCH / "out" / f"spread-{stamp}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
