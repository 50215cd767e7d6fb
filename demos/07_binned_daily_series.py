"""Find the anomalous day in a daily-binned count series.

Real event data often arrives as daily totals, not timestamps.  Daily
counts tell N only at the day edges, so delta is a whole number of days,
the profile is read at every day edge, the stencil needs only the daily
counts, and its output stays exactly integer.  We fabricate 120 days of counts with a slow
seasonal trend plus one reporting spike, then localize the spike.
"""

import datetime

import numpy as np

from ratejump import BinnedSeries, DetectorConfig, detect, from_binned
from ratejump.ingest import RegionSeries

rng = np.random.default_rng(3)
days = 120
trend = 200 + 80 * np.sin(np.arange(days) / 19.0)  # slow seasonal wave
counts = rng.poisson(trend)
spike_day = 77
counts[spike_day] += 900

series = RegionSeries(
    region="demo-county",
    counts=counts.astype(np.int64),
    start_date=datetime.date(2021, 1, 1),
)
# day d of the series is the bin [d, d + 1): N counts from the first date's start
N = from_binned(BinnedSeries(bin_width=1.0, counts=series.counts))

for k in (1, 2, 3):
    report = detect(N, DetectorConfig(k=k, delta=1.0))
    (e,) = report.estimates
    day = int(e.time)
    print(f"k={k}: largest |order-{k} derivative| at day {day} ({series.date_of(day)}): "
          f"{e.raw:+.0f}")

report = detect(N, DetectorConfig(k=2, delta=1.0))
print(f"\ntrue spike day: {spike_day} "
      f"({series.date_of(spike_day)}), daily count {counts[spike_day]}")
print("profile around the spike (exact integers):")
for day, value in report.profile.pairs():
    if abs(day - spike_day) <= 3:
        print(f"  day {int(day):3d} ({series.date_of(int(day))}): {int(value):+6d}")
