#!/usr/bin/env python3
"""The exploration parameter lambda: schedule shape and sampling sharpness.

First prints the exponential ramp from lambda_min to lambda_max over the
horizon (slow start, steep finish), then shows how the same score vector
turns into increasingly peaked sampling distributions as lambda grows.
"""

import numpy as np

from dora.lambda_control import LambdaSchedule, lambda_exp
from dora.scoring import lambda_probabilities

schedule = LambdaSchedule(lambda_min=0.0, lambda_max=40.0, k=5.0, horizon=200)

print("exponential lambda schedule (k=5, T=200, range [0, 40]):")
for t in (0, 25, 50, 75, 100, 125, 150, 175, 200):
    lam = lambda_exp(schedule, t)
    bar = "#" * int(round(lam))
    print(f"  t={t:>3}  lambda={lam:>7.3f}  {bar}")

scores = np.array([0.80, 0.17, -0.20, 0.45])
print(f"\nscores: {scores.tolist()}")
print("sampling distribution as lambda sharpens:")
for lam in (0.0, 1.0, 5.0, 20.0, 40.0):
    dist = lambda_probabilities(scores, lam)
    cells = "  ".join(f"{p:.3f}" for p in dist.probs)
    print(f"  lambda={lam:>5.1f}  probs: {cells}")

print("\nlambda=0 ignores the scores entirely (uniform exploration);")
print("large lambda concentrates on the argmax (greedy exploitation).")
