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
echo "-- the rate spec saved beside the events, run on the same seed, draws the same events --"
ratejump simulate-poisson --rate-spec "$out/events.txt.ratespec" --horizon 12 \
    --seed 1 --out spec_events.txt --out-dir "$out"
cmp "$out/events.txt" "$out/spec_events.txt"
ratejump detect --events "$out/events.txt" \
    --k 3 --delta 0.3 --threshold 4000 --out-dir "$out"
echo "-- the events file with a byte-order mark in front reads the same --"
{ printf '\xef\xbb\xbf'; cat "$out/events.txt"; } > "$out/events_bom.txt"
ratejump detect --events "$out/events_bom.txt" \
    --k 3 --delta 0.3 --threshold 4000 --out bom_report.csv --out-dir "$out"
cmp "$out/report.csv" "$out/bom_report.csv"
echo "-- an output's name is a file name in --out-dir: one that leaves it exits 2 --"
code=0
ratejump detect --events "$out/events.txt" --k 3 --delta 0.3 \
    --out ../escape.csv --out-dir "$out" || code=$?
test "$code" -eq 2
test ! -e "$out/../escape.csv"
echo "-- a bad value exits 1, naming the file, its line and the field --"
printf '%s\n' 1.0 nan 2.0 > "$out/bad_events.txt"
code=0
ratejump detect --events "$out/bad_events.txt" --k 3 --delta 0.3 \
    --out bad_report.csv --out-dir "$out" 2> "$out/bad_events.err" || code=$?
cat "$out/bad_events.err"
test "$code" -eq 1
grep -q "bad_events.txt: line 2: timestamp must be finite and >= 0, got nan" "$out/bad_events.err"
echo "-- without --threshold, detect reports the single best-scoring time --"
ratejump detect --events "$out/events.txt" \
    --k 3 --delta 0.3 --out argmax.csv --out-dir "$out"
echo "-- a jump may start the record: --onset 0 is saved as t0=0.0 --"
ratejump simulate-poisson --rate-preset const-plus-exp --onset 0 --horizon 2 \
    --seed 1 --out onset0_events.txt --out-dir "$out"
grep "shape=expdecay" "$out/onset0_events.txt.ratespec" | grep -q " t0=0.0 "
echo

echo "== the same change seen through bins of 0.5, on the bins' own grid =="
ratejump simulate-poisson --rate-preset const-plus-exp \
    --base 5000 --jump 4000 --onset 6 --horizon 12 --bin-width 0.5 \
    --seed 2 --out binned_events.txt --out-dir "$out"
echo "-- binned counts tell N at the bin edges only, so delta is a whole"
echo "   number of bins and the profile reads every bin edge --"
ratejump detect --binned "$out/binned_events.txt.binned.csv" \
    --k 3 --delta 1 --threshold 4000 --out binned_report.csv --out-dir "$out"
echo

echo "== one epidemic cascade, then hub recovery from three cascades =="
ratejump simulate-si --height 10 --extra-leaves 400 --seed 7 --out-dir "$out"
echo "-- a tree too large for int32 indices (height 40, 8 TiB of arrays) exits 2"
echo "   at once, naming its height, before any array is made or file written --"
code=0
ratejump simulate-si --height 40 --out huge_trace.csv --out-dir "$out" \
    2> "$out/huge_tree.err" || code=$?
cat "$out/huge_tree.err"
test "$code" -eq 2
grep -q "height 40" "$out/huge_tree.err"
test ! -e "$out/huge_trace.csv"
test ! -e "$out/huge_trace.csv.manifest"
ratejump multicascade --height 11 --extra-leaves 800 --cascades 3 \
    --k 2 --delta 0.12 --window 0.05 --seed 5 --out-dir "$out"
echo "-- the same three cascades, one stream each, read back as traces, give the same report --"
for stream in 0 1 2; do
    ratejump simulate-si --height 11 --extra-leaves 800 --seed 5 --stream "$stream" \
        --out "cascade_$stream.csv" --out-dir "$out"
done
ratejump multicascade --trace "$out/cascade_0.csv" --trace "$out/cascade_1.csv" \
    --trace "$out/cascade_2.csv" --k 2 --delta 0.12 --window 0.05 \
    --out traces_multicascade.txt --out-dir "$out"
cmp "$out/multicascade.txt" "$out/traces_multicascade.txt"
echo "-- a trace whose vertex is not a number exits 1, naming the file, its row and the field --"
printf '%s\n' vertex,time 0,0.0 x,0.5 > "$out/bad_trace.csv"
code=0
ratejump multicascade --trace "$out/bad_trace.csv" --k 2 --delta 0.12 --window 0.05 \
    --out bad_multicascade.txt --out-dir "$out" 2> "$out/bad_trace.err" || code=$?
cat "$out/bad_trace.err"
test "$code" -eq 1
grep -q "bad_trace.csv: row 3: vertex must be an integer, got 'x'" "$out/bad_trace.err"
echo "-- an infinite candidate window admits every vertex --"
ratejump multicascade --height 6 --extra-leaves 20 --cascades 2 --window inf \
    --seed 5 --out window_inf.txt --out-dir "$out"
echo

echo "== a cascade on a graph read from an edge-list file =="
{
    echo "# a 5-cycle 0-1-2-3-4 with the chord 1-3; each edge once, either way round"
    printf '%s\n' "0 1" "2 1" "2 3" "4 3" "0 4" "3 1"
} > "$out/graph.txt"
ratejump simulate-si --graph "$out/graph.txt" --seed 3 --stream 1 \
    --out graph_trace.csv --out-dir "$out"
cat "$out/graph_trace.csv"
echo

echo "== a small error heatmap, with each order's best delta =="
ratejump heatmap --scenario smooth-jump --base 2000 --jump 1600 \
    --k-grid 1,2,3 --delta-grid 0.1:0.5:5 --trials 10 --workers 1 \
    --out-dir "$out"
echo

echo "== a daily case series with a one-day reporting spike =="
{
    echo "date,cases"
    for ((day = 1; day <= 28; day++)); do
        printf '2021-02-%02d,%d\n' "$day" $((day == 15 ? 500 : 100))
    done
} > "$out/cases.csv"
echo "-- daily counts tell N at the day edges only: delta is whole days, the"
echo "   profile reads every day edge, and times are days from the first date --"
ratejump detect --daily-csv "$out/cases.csv" --k 2 --delta 1 \
    --profile-out profile.csv --out daily_report.csv --out-dir "$out"
echo "-- the same series as region east of a two-region file, each day's"
echo "   west row beside it; --region reads east's rows alone --"
{
    echo "date,region,cases"
    tail -n +2 "$out/cases.csv" | while IFS=, read -r date cases; do
        echo "$date,west,$((cases * 3 + 7))"
        echo "$date,east,$cases"
    done
} > "$out/regions.csv"
ratejump detect --daily-csv "$out/regions.csv" --region east --k 2 --delta 1 \
    --profile-out region_profile.csv --out region_report.csv --out-dir "$out"
cmp "$out/profile.csv" "$out/region_profile.csv"
echo "-- the two-region file with CRLF line ends reads the same --"
awk '{ printf "%s\r\n", $0 }' "$out/regions.csv" > "$out/regions_crlf.csv"
ratejump detect --daily-csv "$out/regions_crlf.csv" --region east --k 2 --delta 1 \
    --profile-out crlf_profile.csv --out crlf_report.csv --out-dir "$out"
cmp "$out/region_profile.csv" "$out/crlf_profile.csv"
echo "-- and with bare CR line ends, which --region reads line by line --"
tr '\n' '\r' < "$out/regions.csv" > "$out/regions_cr.csv"
ratejump detect --daily-csv "$out/regions_cr.csv" --region east --k 2 --delta 1 \
    --profile-out cr_profile.csv --out cr_report.csv --out-dir "$out"
cmp "$out/region_profile.csv" "$out/cr_profile.csv"
echo "-- the same series as cumulative totals; --mode cumulative differences them --"
{
    echo "date,cases"
    total=0
    tail -n +2 "$out/cases.csv" | while IFS=, read -r date cases; do
        total=$((total + cases))
        echo "$date,$total"
    done
} > "$out/cumulative.csv"
ratejump detect --daily-csv "$out/cumulative.csv" --mode cumulative --k 2 --delta 1 \
    --profile-out cumulative_profile.csv --out cumulative_report.csv --out-dir "$out"
cmp "$out/profile.csv" "$out/cumulative_profile.csv"
echo

echo "== the manifest trail (detect's lists the grid step, size, candidates and window) =="
ls "$out"/*.manifest
sed -e 's/^/    /' "$out/report.csv.manifest"
