"""Train and score all five classifiers on the default simulated benchmark.

Pipeline per classifier: stratified 75/25 split, standardize on the training
side, train, score the held-out side, and run 10-fold cross-validation
inside the training portion.  Tree ensembles dominate; logistic regression
trails on the positive (adjacent) class.
"""

import numpy as np

from roomsense import PairingConfig, SimConfig, TrainConfig, build_pairs, evaluate, generate
from roomsense.evaluation import plan

points = generate(SimConfig(seed=42))
dataset = build_pairs(points, PairingConfig(), seed=42)
X, y = dataset.X, dataset.y

print(f"{'algorithm':<10s} {'accuracy':>8s} {'f1 (0)':>8s} {'f1 (1)':>8s} {'cv mean':>8s}")
reports = {}
for algorithm in ("lr", "knn", "rf", "svm", "dt"):
    cfg = TrainConfig(algorithm=algorithm, seed=42)
    report = reports[algorithm] = evaluate(X, y, cfg, plan(y, cfg))
    cv_mean = float(np.mean(report.cv_accuracies))
    print(
        f"{algorithm:<10s} {report.accuracy:8.3f} {report.f1_class0:8.3f} "
        f"{report.f1_class1:8.3f} {cv_mean:8.3f}"
    )

print()
print("confusion matrix of the random forest (tp fp / fn tn):")
cm = reports["rf"].confusion
print(f"  {cm.tp:3d} {cm.fp:3d}")
print(f"  {cm.fn:3d} {cm.tn:3d}")
