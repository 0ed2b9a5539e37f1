#!/usr/bin/env python3
"""Classical bandit baselines on the hard instance.

Runs UCB, Thompson sampling, greedy, and epsilon-greedy over a batch of
seeded runs on the 5-armed Bernoulli instance (one arm at 0.6, the rest at
0.4, horizon 200) and prints the four summary metrics for each strategy.
Increase RUNS to 1000 to reproduce the reference numbers closely; 200 keeps
the demo quick.
"""

import statistics

from dora.bandit import (
    EpsilonGreedyPolicy, GreedyPolicy, ThompsonPolicy, UcbPolicy, compute_metrics,
    make_hard_instance, run_bandit,
)

RUNS = 200
MASTER_SEED = 0

policies = {
    "UCB": UcbPolicy,
    "Thompson": ThompsonPolicy,
    "Greedy": GreedyPolicy,
    "eps-Greedy": EpsilonGreedyPolicy,
}

print(f"hard instance: K=5, gap=0.2, T=200, {RUNS} runs per strategy\n")
print(f"{'strategy':<12} {'avg reward':>10} {'suffix fail':>11} {'best-arm frac':>13} {'regret':>8}")

for name, make_policy in policies.items():
    rows = []
    for i in range(RUNS):
        seed = MASTER_SEED + i
        instance = make_hard_instance(5, 0.2, 200, seed)
        run = run_bandit(make_policy(), instance, seed)
        rows.append(compute_metrics(run, instance))
    print(
        f"{name:<12} "
        f"{statistics.fmean(m.mean_avg_reward for m in rows):>10.3f} "
        f"{statistics.fmean(m.suffix_failure for m in rows):>11.3f} "
        f"{statistics.fmean(m.best_arm_fraction for m in rows):>13.3f} "
        f"{statistics.fmean(m.cumulative_regret for m in rows):>8.2f}"
    )

print("\nlower regret and lower suffix-failure frequency are better;")
print("greedy locks onto early luck, epsilon-greedy pays for its random pulls.")
