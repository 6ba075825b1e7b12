"""User-level privacy via user-id blocks (§4.4).

Event-level privacy protects individual records; user-level privacy
protects everything one user ever contributes.  Block composition supports
it by splitting the stream on user id instead of time: all of a user's
records land in one block, so retiring that block bounds the total leakage
about that user.

This example partitions a taxi batch into user buckets, trains DP models on
adaptively chosen bucket subsets, and shows the per-bucket accounting --
including the paper's caveat that user-blocks only renew when *new users*
arrive, so sustained workloads need a growing user base.

Run:  python examples/user_level_privacy.py   (~15 seconds)
"""

import numpy as np

from repro.core import BlockAccountant, loss_dashboard
from repro.data import TaxiGenerator, UserPartitioner
from repro.data.stream import StreamBatch
from repro.dp import PrivacyBudget
from repro.errors import BudgetExceededError
from repro.ml import AdaSSPRegressor, mse

X_BOUND = np.sqrt(8.0)


def main():
    rng = np.random.default_rng(3)
    generator = TaxiGenerator(points_per_hour=4_000)
    batch = generator.generate(40_000, rng)

    # One block per user bucket: every user's rides live in exactly one.
    blocks = UserPartitioner(num_buckets=16).partition(batch)
    accountant = BlockAccountant(epsilon_global=1.0, delta_global=1e-6)
    accountant.register_blocks([b.key for b in blocks])
    by_key = {b.key: b for b in blocks}
    print(f"{len(blocks)} user blocks, sizes "
          f"{min(len(b) for b in blocks)}..{max(len(b) for b in blocks)}")

    # Model 1: train on the first half of the user population.
    first_half = [b.key for b in blocks[:8]]
    accountant.charge(first_half, PrivacyBudget(0.6, 5e-7), label="model-1")
    train = StreamBatch.concatenate([by_key[k].batch for k in first_half])
    model1 = AdaSSPRegressor(PrivacyBudget(0.6, 5e-7), x_bound=X_BOUND).fit(
        train.X, train.y, rng
    )

    # Model 2: an overlapping, adaptively chosen subset -- fine, as long as
    # every touched block still has budget.
    overlap = [b.key for b in blocks[4:12]]
    accountant.charge(overlap, PrivacyBudget(0.4, 5e-7), label="model-2")
    train2 = StreamBatch.concatenate([by_key[k].batch for k in overlap])
    model2 = AdaSSPRegressor(PrivacyBudget(0.4, 5e-7), x_bound=X_BOUND).fit(
        train2.X, train2.y, rng
    )

    heldout = generator.generate(20_000, np.random.default_rng(77))
    print(f"model-1 held-out MSE: {mse(heldout.y, model1.predict(heldout.X)):.5f}")
    print(f"model-2 held-out MSE: {mse(heldout.y, model2.predict(heldout.X)):.5f}")

    # Users in buckets 4..7 were used by both models: their blocks are
    # exhausted (0.6 + 0.4 = eps_g) and now refuse further training.
    print("\nper-bucket privacy loss:")
    spent = loss_dashboard(accountant)
    retired = set(accountant.retired_blocks())
    for block in blocks:
        marker = " <- retired" if block.key in retired else ""
        print(f"  bucket {block.key[1]:>2}: eps spent "
              f"{spent[block.key].epsilon:.2f}{marker}")

    try:
        accountant.charge([blocks[5].key], PrivacyBudget(0.05, 0.0))
    except BudgetExceededError as exc:
        print(f"\nfurther use of bucket 5 denied: {exc}")

    print("\nNote (§4.4): unlike time blocks, user blocks only renew when new")
    print("users join -- the workload rate a deployment can sustain is bounded")
    print("by its user growth, which is why the paper focuses on event-level.")


if __name__ == "__main__":
    main()
