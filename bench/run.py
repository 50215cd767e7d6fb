#!/usr/bin/env python3
"""Run one benchmark workload; the last line of stdout is the result as JSON.

    python3 bench/run.py --workload heatmap-smooth --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: ratejump is imported from
``src/`` beside this directory, never from an installed copy.  The run
does, in one fresh process:

1. write the workload's input files (untimed);
2. time ``import ratejump`` in ``IMPORT_PROBES`` child processes;
3. set up the workload ``setup_repeats`` times, each with one warm-up op;
4. run the fixed op list, timing each op alone, with ``gc.collect()`` and
   the correctness checks outside the timing.  Objects from the imports are
   frozen out of the collector first; objects from set-up are not.

Timings are reported at a reference machine speed.  On a shared machine
the same op ran up to 1.6 times slower in some stretches of seconds to
minutes than in others.  A fixed kernel of Python and numpy work that
does not touch ratejump (``reference_seconds``) is timed around the ops
and set-up, and each timing t is reported as t * REF_S / k, k the mean
of the kernel samples just before and after it.  REF_S only sets the
scale: 0.020 s is about the kernel's time in the slower stretches of the
machine in README.md.
Wall-clock values are printed on their own lines.

Each op's checks run in a forked child.  Their large temporaries would
otherwise change the measured process: glibc raises its mmap threshold
after they are freed, and the next ``simulate`` then took 0.95 s with 14k
page faults instead of the 1.5 s and 153k faults it takes in a process
that runs only the program.  The child also keeps the checks out of
``peak_rss_mb``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around calls into each layer (see ``tracing.py``).
The op count depends only on ``--seconds`` and the workload, so every
commit runs the same ops.  Results and span files go to ``bench/out/``.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads: six imports of ratejump
# took 0.52-0.64 s with free pools and 0.45-0.53 s with pinned ones.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import heapq
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_PROBES = 5
REF_S = 0.020
REF_EVERY_S = 1.0  # take a kernel sample after about this much op time
REF_REPEATS = 3  # a sample is the median of this many kernel timings

_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
          "import ratejump; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """``import ratejump`` in a child process, timed inside it."""
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def reference_seconds() -> float:
    """Time a fixed kernel (heap and dict work, numpy sort and searchsorted)
    ``REF_REPEATS`` times and return the median, which a single preemption
    does not move.

    It follows the machine's speed: in 45- to 90-second loops, the same mix
    at four times this size tracked the ops' time with correlation 0.66-0.91.
    Called through ``in_child`` so that its allocations leave the measured
    process alone.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    values, keys = rng.random(50_000), np.sort(rng.random(50_000))
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        heap = []
        for i in range(5_000):
            heapq.heappush(heap, ((i * 7919) % 5_003, i))
        while heap:
            heapq.heappop(heap)
        table = {str(i): i for i in range(5_000)}
        np.sort(values)
        np.searchsorted(keys, values)
        del table
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_sample() -> float:
    ok, value = in_child(reference_seconds)
    if not ok:
        raise RuntimeError(value)
    return value


def scaled_timings(calls, first_ref=None):
    """Call each of ``calls`` in turn; each returns a duration, which is
    scaled to the reference speed by the kernel samples taken just before
    and after it.  ``first_ref`` is a sample just taken, if there is one.

    Returns (scaled, wall, kernel samples).
    """
    refs, wall = [reference_sample() if first_ref is None else first_ref], []
    for timed in calls:
        wall.append(timed())
        refs.append(reference_sample())
    scaled = [t * REF_S * 2 / (a + b) for t, a, b in zip(wall, refs, refs[1:])]
    return scaled, wall, refs


def in_child(fn, *args):
    """``fn(*args)`` computed in a forked child, as (True, result) or
    (False, traceback); the child's answer comes back pickled.

    Forking is safe here: with the BLAS pools pinned to one thread, the
    process has no other thread.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report, then leave without running any exit handlers
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn(*args)))
            except Exception:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    os.waitpid(pid, 0)
    return pickle.loads(payload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ratejump" / "__init__.py").is_file():
        print(f"error: no ratejump sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import ratejump
    if Path(ratejump.__file__).resolve().parent != SRC / "ratejump":
        print(f"error: imported ratejump from {ratejump.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    n_ops = workload.n_ops(args.seconds)
    OUT.mkdir(exist_ok=True)
    workload.prepare(OUT)
    try:
        return run(args, workload, n_ops, tracing)
    finally:
        workload.cleanup()


def run(args, workload, n_ops, tracing) -> int:
    # Objects made by the imports live for the whole process; freezing them
    # keeps each gc.collect() between ops from re-scanning all of them, and
    # a forked child's collector from copying their pages: before the
    # freeze, kernel samples took twice as long.
    gc.collect()
    gc.freeze()
    imports, import_wall, import_refs = scaled_timings([import_seconds] * IMPORT_PROBES)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    state = None

    def set_up():
        nonlocal state
        state = None  # free the previous repeat's state before building anew
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        return time.perf_counter() - t0

    def warm_up(r):
        t0 = time.perf_counter()
        workload.call(state, n_ops + r * workload.round_ops)()
        return time.perf_counter() - t0

    # each repeat's set-up and warm-up op are scaled apart, by the kernel
    # samples around each, since a machine phase can end within a repeat
    setups, setup_wall, setup_refs = [], [], [import_refs[-1]]
    for r in range(workload.setup_repeats):
        scaled, wall, refs = scaled_timings(
            [set_up, functools.partial(warm_up, r)], setup_refs[-1])
        setups.append(sum(scaled))
        setup_wall.append(sum(wall))
        setup_refs += refs[1:]

    # op i is scaled by the mean of the kernel samples before and after its block
    every = max(1, round(REF_EVERY_S / workload.op_s))
    op_times, refs, notes, failed = {}, [setup_refs[-1]], [], 0
    for i in range(n_ops):
        if i and i % every == 0:
            refs.append(reference_sample())
        fn = workload.call(state, i)
        gc.collect()
        if tracer:
            tracer.op = i
        try:
            t0 = time.perf_counter()
            out = fn()
            op_times[i] = time.perf_counter() - t0
        except Exception:  # a crashing op counts as failed; the run goes on
            traceback.print_exc()
            failed += 1
            continue
        finally:
            if tracer:
                tracer.op = None
        ok, checked = in_child(workload.check, state, i, out)
        del out
        if ok:
            failures, note = checked
            notes.append(note)
        else:
            failures = [f"check raised:\n{checked}"]
        if failures:
            failed += 1
            print(f"op {i} failed: " + "; ".join(failures), file=sys.stderr)
    refs.append(reference_sample())
    run_failures = workload.finish(notes) if notes else ["every op failed"]
    tally = workload.tally(notes)
    for msg in run_failures:
        print(f"run check failed: {msg}", file=sys.stderr)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scaled = [t * REF_S * 2 / (refs[i // every] + refs[i // every + 1])
              for i, t in op_times.items()]
    wall = list(op_times.values())
    p50 = statistics.median(scaled) if scaled else 0.0
    setup_s = statistics.median(imports) + statistics.median(setups)
    lines = [f"workload {workload.name}: seed {args.seed}, {n_ops} ops, {failed} failed",
             f"op_s.p50 {p50:.6f} s over {len(scaled)} ops at the reference speed",
             f"wall clock: op_s.p50 {statistics.median(wall) if wall else 0.0:.6f} s, "
             f"ops_per_s {len(wall) / sum(wall) if wall else 0.0:.4f}, "
             f"setup_s {statistics.median(import_wall) + statistics.median(setup_wall):.4f} s",
             "reference kernel s: " + " ".join(f"{x:.4f}" for x in import_refs + setup_refs + refs),
             "import s (wall): " + " ".join(f"{x:.4f}" for x in import_wall),
             "setup + warm-up op s (wall): " + " ".join(f"{x:.4f}" for x in setup_wall)]
    if tally:
        lines.append("tally " + json.dumps(tally))
    if len(scaled) >= 100:
        lines.append(f"op_s.p90 {statistics.quantiles(scaled, n=10)[-1]:.6f} s at the reference speed")
    if tracer:
        tracer.uninstall()
        tracer.write(OUT / f"spans-{tag}.jsonl")
        by_layer = tracing.layer_self_times(tracer.spans, n_ops)
        top = max(by_layer, key=by_layer.get)
        lines.append("self s/op by layer: " + ", ".join(
            f"{k} {v:.6f}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
        lines.append(f"largest self time: {top}")
        values = tracing.per_layer_metrics(tracer.spans, n_ops, workload.n_bundles(n_ops),
                                           workload.rows_by_path())
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        values = {
            "ops_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
            "op_s.p50": p50,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    result = {
        "correct": not run_failures and failed == 0,
        "attempted": n_ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
