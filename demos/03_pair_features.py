"""Build the labeled pair dataset and inspect its 18-value feature vectors.

Each sample pairs two device points at a drawn trial and computes six
features per access point: mean difference (md), mean and minimum absolute
strength over the combined unique values (savg, smin), the fractions at or
below -50 dBm and -70 dBm (high, avg), and the DTW distance (dtw).
Adjacent pairs (same room) are labeled 1, distant pairs 0.
"""

import numpy as np

from roomsense import PairingConfig, SimConfig, build_pairs, generate
from roomsense.features import FEATURE_NAMES, write_feature_matrix

points = generate(SimConfig(seed=42))
dataset = build_pairs(points, PairingConfig(), seed=42)

X, y = dataset.X, dataset.y
counts = int(y.sum()), int((y == 0).sum())
print(f"samples: {len(dataset.samples)}  counts (pos, neg): {counts}")
print()

for k in (0, -1):  # the first adjacent and the last distant sample
    i, j, _, _ = dataset.samples[k]
    kind = "adjacent" if y[k] == 1 else "distant"
    print(f"{kind}: {dataset.points[i].point} vs {dataset.points[j].point}")
    for name, value in zip(FEATURE_NAMES, X[k]):
        print(f"  {name:7s} = {value:8.3f}")
    print()

print("feature means by class (distant row, adjacent row):")
header = " ".join(f"{n:>7s}" for n in FEATURE_NAMES[:6])
print(f"  AP1 block:    {header}")
for cls in (0, 1):
    row = " ".join(f"{v:7.2f}" for v in X[y == cls][:, :6].mean(axis=0))
    print(f"  class {cls}:      {row}")

write_feature_matrix(X, y, "features.csv", comments={"seed": 42})
print("\nwrote features.csv (label + 18 features per row)")
