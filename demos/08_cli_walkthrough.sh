#!/usr/bin/env bash
# The same pipeline as the Python demos, driven entirely from the shell.
# Every command writes a .manifest next to its primary output recording
# the resolved parameters (the seed, where the command draws random
# numbers), inputs/outputs, and wall time.
set -euo pipefail

out=$(mktemp -d)
echo "writing to $out"
echo

echo "== available presets =="
ratejump presets --out-dir "$out" | head -15
echo

echo "== simulate a jump process and detect the change =="
ratejump simulate-poisson --rate-preset const-plus-exp \
    --base 5000 --jump 4000 --onset 6 --horizon 12 \
    --seed 1 --out-dir "$out"
ratejump detect --events "$out/events.txt" \
    --k 3 --delta 0.3 --threshold 4000 --out-dir "$out"
echo "-- without --threshold, detect reports the single best-scoring time;"
echo "   here on a coarser grid, 5 steps per delta --"
ratejump detect --events "$out/events.txt" \
    --k 3 --delta 0.3 --steps-per-delta 5 --out argmax.csv --out-dir "$out"
echo

echo "== one epidemic cascade, then hub recovery from three cascades =="
ratejump simulate-si --height 10 --extra-leaves 400 --seed 7 --out-dir "$out"
ratejump multicascade --height 11 --extra-leaves 800 --cascades 3 \
    --k 2 --delta 0.12 --window 0.05 --seed 5 --out-dir "$out"
echo

echo "== a small error heatmap, with each order's best delta =="
ratejump heatmap --scenario smooth-jump --base 2000 --jump 1600 \
    --k-grid 1,2,3 --delta-grid 0.1:0.5:5 --trials 10 --workers 1 \
    --out-dir "$out"
echo

echo "== the manifest trail =="
ls "$out"/*.manifest
sed -e 's/^/    /' "$out/report.csv.manifest"
