"""Which features carry the signal, and how separated are their densities?

The random forest's impurity importance (mean decrease of impurity) ranks
the 18 features; the access point placed inside the right room dominates,
because only its signal encodes room membership strongly.  Class-conditional
Gaussian-kernel densities make the separation visible: a low overlap
coefficient means the two classes rarely share feature values.
"""

import numpy as np

from roomsense import PairingConfig, SimConfig, TrainConfig, build_pairs, evaluate, generate
from roomsense.evaluation import overlap_coefficient, plan, write_kde_csv
from roomsense.features import FEATURE_NAMES

points = generate(SimConfig(seed=42))
dataset = build_pairs(points, PairingConfig(), seed=42)
X, y = dataset.X, dataset.y

cfg = TrainConfig(algorithm="rf", seed=42)
report = evaluate(X, y, cfg, plan(y, cfg)[:1])
importance = np.array(report.importance)

print("feature importance (mean decrease of impurity), descending:")
for idx in np.argsort(importance)[::-1]:
    bar = "#" * int(round(60 * importance[idx]))
    print(f"  {FEATURE_NAMES[idx]:7s} {importance[idx]:6.3f} {bar}")

print()
print("class overlap of each DTW feature (lower = more separable):")
for name in ("dtw_1", "dtw_2", "dtw_3"):
    idx = FEATURE_NAMES.index(name)
    overlap = overlap_coefficient(X[y == 0, idx], X[y == 1, idx])
    print(f"  {name}: {overlap:.3f}")

write_kde_csv(X, y, ("dtw_1", "dtw_2", "dtw_3", "high_3"), "kde.csv", comments={"seed": 42})
print("\nwrote kde.csv (feature,class,x,density) for plotting")
