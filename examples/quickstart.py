"""Quickstart: one DP pipeline through the whole Sage platform.

Builds a Sage deployment over a (synthetic) NYC-taxi stream, submits a
differentially private linear-regression training pipeline with an MSE
target, and lets privacy-adaptive training escalate data and budget until
the SLAed validator ACCEPTs.  Everything released respects the stream's
global (epsilon_g, delta_g) = (1.0, 1e-6) guarantee -- forever.

Under the hood each simulated hour runs the two-phase propose/settle
protocol: sessions propose charges, the platform stages them, and the whole
hour commits through one batched ``request_many`` call.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace-out quickstart-trace.json
      python examples/quickstart.py --profile-out quickstart-profile.json \
          --flame-out quickstart.folded
"""

import argparse

import numpy as np

from repro.core import AdaptiveConfig, DPLossValidator, Sage, TrainingPipeline
from repro.data import TaxiGenerator
from repro.dp import PrivacyBudget
from repro.ml import AdaSSPRegressor, mse

X_BOUND = np.sqrt(8.0)  # taxi rows are 8 concatenated one-hot groups


def dp_trainer(X, y, budget: PrivacyBudget, rng):
    """The pipeline's DP training stage: AdaSSP linear regression."""
    model = AdaSSPRegressor(budget, rho=0.1, x_bound=X_BOUND, y_bound=1.0)
    return model.fit(X, y, rng)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace of the drive (adds nothing when omitted)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="wall-clock profile the drive and write its Chrome trace JSON",
    )
    parser.add_argument(
        "--flame-out",
        metavar="PATH",
        default=None,
        help="write the profile as collapsed stacks (flamegraph.pl input)",
    )
    args = parser.parse_args(argv)

    telemetry = None
    if args.trace_out or args.profile_out or args.flame_out:
        from repro.obs import Telemetry

        telemetry = Telemetry()

    source = TaxiGenerator(points_per_hour=8_000)
    sage = Sage(
        source,
        epsilon_global=1.0,
        delta_global=1e-6,
        block_hours=1.0,
        seed=7,
        telemetry=telemetry,
    )

    # loss_bound is the developer-declared clip B of Listing 2: per-example
    # squared errors are clipped into [0, B] before the DP sum.  Declaring
    # B = 0.1 (instead of the worst-case 1.0) makes the noise corrections
    # 10x tighter, so the SLA resolves with far less data.
    pipeline = TrainingPipeline(
        name="taxi-duration-lr",
        trainer_fn=dp_trainer,
        validator=DPLossValidator(target=0.006, loss_bound=0.1, confidence=0.95),
        metric="mse",
    )
    entry = sage.submit(pipeline, AdaptiveConfig(epsilon_start=1 / 16, epsilon_cap=1.0))

    print("streaming data and training adaptively ...")
    sage.run_until_quiet(max_hours=100)

    if telemetry is not None:
        from repro.obs import write_chrome_trace
        from repro.obs.analyze import wall_view, write_collapsed

        if args.trace_out:
            write_chrome_trace(telemetry.tracer, args.trace_out)
            print(f"trace written to {args.trace_out}")
        if args.profile_out:
            write_chrome_trace(wall_view(telemetry.tracer), args.profile_out)
            print(f"profile written to {args.profile_out}")
        if args.flame_out:
            write_collapsed(wall_view(telemetry.tracer), args.flame_out)
            print(f"collapsed stacks written to {args.flame_out}")

    print(f"\npipeline status : {entry.status}")
    for attempt in entry.session.attempts:
        print(
            f"  attempt {attempt.attempt}: eps={attempt.budget.epsilon:.4f} "
            f"blocks={len(attempt.window)} samples={attempt.train_size} "
            f"-> {attempt.outcome.value}"
        )

    bundle = entry.bundle
    if bundle is None:
        print("no release within the horizon (try more hours)")
        return
    print(f"\nreleased version {bundle.version} at hour {bundle.release_time_hours:.0f}")
    print(f"budget consumed by the search: {entry.session.total_spent}")
    print(f"charges committed through hourly propose/settle batches: "
          f"{len(sage.access.accountant.charges)}")

    heldout = source.generate(30_000, np.random.default_rng(123))
    print(f"held-out MSE: {mse(heldout.y, bundle.model.predict(heldout.X)):.5f} "
          f"(target 0.006, naive 0.0069)")
    print(f"stream-wide privacy loss bound: {sage.access.stream_loss_bound()}")
    print(f"retired blocks so far: {len(sage.access.retired_blocks())} "
          f"of {len(sage.database)}")


if __name__ == "__main__":
    main()
