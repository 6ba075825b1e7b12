"""The metrics registry: instruments, snapshots, platform observers."""

import pytest

from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.core.sharding import sharded_accountant_factory
from repro.obs import BUCKET_BOUNDS, MetricsRegistry, Telemetry
from repro.workload.oracle import CountStreamSource, OraclePipeline


def drive_demo(hours=4, pipelines=3, **sage_kwargs):
    sage = Sage(CountStreamSource(4000, scale=1000), seed=5, **sage_kwargs)
    for i in range(pipelines):
        sage.submit(
            OraclePipeline(name=f"p{i}", n_at_eps1=3_000.0 * (2.0 ** i)),
            AdaptiveConfig(max_attempts=16),
        )
    for _ in range(hours):
        sage.advance(1.0)
    return sage


class TestInstruments:
    def test_counters_accumulate_and_default_to_zero(self):
        registry = MetricsRegistry()
        registry.inc("sage_charges_granted_total")
        registry.inc("sage_charges_granted_total", 2)
        assert registry.counter_value("sage_charges_granted_total") == 3
        assert registry.counter_value("sage_charges_denied_total") == 0

    def test_labels_split_series(self):
        registry = MetricsRegistry()
        registry.inc("sage_fault_trips_total", point="wal.after_append")
        registry.inc("sage_fault_trips_total", point="hour.after_commit")
        registry.inc("sage_fault_trips_total", point="wal.after_append")
        assert (
            registry.counter_value("sage_fault_trips_total", point="wal.after_append")
            == 2
        )
        assert (
            registry.counter_value("sage_fault_trips_total", point="hour.after_commit")
            == 1
        )

    def test_gauges_keep_the_latest_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("sage_privacy_epsilon_spent", 0.25)
        registry.set_gauge("sage_privacy_epsilon_spent", 0.75)
        assert registry.gauge_value("sage_privacy_epsilon_spent") == 0.75
        assert registry.gauge_value("nope", default=-1.0) == -1.0

    def test_histogram_tracks_count_sum_min_max(self):
        registry = MetricsRegistry()
        for value in (2.0, 17.0, 2.0):
            registry.observe("sage_staged_batch_requests", value)
        hist = registry.histogram_value("sage_staged_batch_requests")
        assert hist["count"] == 3
        assert hist["sum"] == 21.0
        assert (hist["min"], hist["max"]) == (2.0, 17.0)

    def test_bucket_bounds_are_powers_of_four(self):
        assert BUCKET_BOUNDS[:4] == (1.0, 4.0, 16.0, 64.0)
        assert len(BUCKET_BOUNDS) == 11


class TestSnapshot:
    def test_histogram_buckets_are_cumulative_le_counts(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 100.0):
            registry.observe("sage_wal_append_bytes", value)
        buckets = registry.snapshot()["histograms"]["sage_wal_append_bytes"][
            "buckets"
        ]
        assert buckets["1"] == 1       # just the 1.0 sample
        assert buckets["4"] == 2       # + the 3.0 sample
        assert buckets["64"] == 2      # nothing between 4 and 64
        assert buckets["256"] == 3     # + the 100.0 sample
        assert buckets["+Inf"] == 3

    def test_snapshot_keys_are_sorted_and_rendered(self):
        registry = MetricsRegistry()
        registry.set_gauge("sage_block_epsilon", 0.5, block="b")
        registry.set_gauge("sage_block_epsilon", 0.25, block="a")
        gauges = registry.snapshot()["gauges"]
        assert list(gauges) == [
            'sage_block_epsilon{block="a"}',
            'sage_block_epsilon{block="b"}',
        ]

    def test_snapshot_of_empty_registry(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestPlatformCounters:
    def test_drive_counters_and_last_hour_compat(self):
        telemetry = Telemetry()
        sage = drive_demo(hours=4, telemetry=telemetry)
        metrics = telemetry.metrics
        assert metrics is sage.metrics
        assert metrics.counter_value("sage_hours_advanced_total") == 4
        assert metrics.counter_value("sage_sessions_driven_total") > 0
        assert metrics.counter_value("sage_charges_granted_total") > 0
        # The compat properties are per-hour deltas over the registry.
        assert sage.last_hour_charges == metrics.gauge_value("sage_hour_charges")
        sage.close()

    def test_counters_work_without_telemetry(self):
        # The registry is always present; only the tracer is optional.
        sage = drive_demo(hours=2)
        assert sage.telemetry is None
        assert sage.metrics.counter_value("sage_hours_advanced_total") == 2
        assert sage.last_hour_charges >= 0
        sage.close()

    def test_staged_batch_histogram_fills(self):
        sage = drive_demo(hours=3)
        hist = sage.metrics.histogram_value("sage_staged_batch_requests")
        assert hist is not None and hist["count"] == 3
        sage.close()


class TestObservers:
    def test_observe_privacy_gauges(self):
        sage = drive_demo(hours=4)
        registry = sage.metrics
        registry.observe_privacy(sage.access.accountant)
        spent = registry.gauge_value("sage_privacy_epsilon_spent")
        headroom = registry.gauge_value("sage_privacy_epsilon_headroom")
        assert spent > 0.0
        assert spent + headroom == pytest.approx(1.0)
        total = registry.gauge_value("sage_privacy_blocks_total")
        assert total == len(sage.access.accountant.block_keys)
        assert registry.gauge_value(
            "sage_privacy_blocks_live"
        ) + registry.gauge_value("sage_privacy_blocks_retired") == total
        # The default accountant runs the basic filter: no order grid, so
        # the saturation gauges stay unset.
        assert registry.gauge_value("sage_privacy_renyi_orders", default=-1.0) == -1.0
        sage.close()

    def test_observe_privacy_renyi_order_saturation(self):
        from repro.core.filters import RenyiCompositionFilter

        sage = drive_demo(hours=4, filter_factory=RenyiCompositionFilter)
        registry = sage.metrics
        registry.observe_privacy(sage.access.accountant)
        assert registry.gauge_value("sage_privacy_renyi_orders") > 0
        saturation = registry.gauge_value(
            "sage_privacy_renyi_order_saturation", default=-1.0
        )
        assert 0.0 <= saturation <= 1.0
        sage.close()

    def test_observe_privacy_shard_bounds(self):
        sage = drive_demo(hours=3, accountant_factory=sharded_accountant_factory(4))
        registry = sage.metrics
        registry.observe_privacy(sage.access.accountant)
        bounds = [
            registry.gauge_value("sage_shard_epsilon_bound", default=-1.0, shard=s)
            for s in range(4)
        ]
        assert all(bound >= 0.0 for bound in bounds)
        sage.close()

    def test_observe_dashboard_matches_loss_dashboard(self):
        from repro.core.odometer import loss_dashboard

        sage = drive_demo(hours=4)
        registry = sage.metrics
        observed = registry.observe_dashboard(sage.access.accountant)
        dashboard = loss_dashboard(sage.access.accountant)
        assert observed == len(dashboard)
        for key, loss in dashboard.items():
            assert registry.gauge_value(
                "sage_block_epsilon", block=key
            ) == pytest.approx(loss.epsilon)
            assert registry.gauge_value(
                "sage_block_delta", block=key
            ) == pytest.approx(loss.delta)
        sage.close()

    def test_observe_dashboard_sharded_single_pass(self):
        from repro.core.odometer import loss_dashboard

        sage = drive_demo(hours=4, accountant_factory=sharded_accountant_factory(4))
        registry = sage.metrics
        registry.observe_dashboard(sage.access.accountant)
        for key, loss in loss_dashboard(sage.access.accountant).items():
            assert registry.gauge_value(
                "sage_block_epsilon", block=key
            ) == pytest.approx(loss.epsilon)
        sage.close()

    def test_observe_recovery_gauges(self):
        from repro.core.durability import RecoveryReport

        registry = MetricsRegistry()
        registry.observe_recovery(
            RecoveryReport(
                snapshot_hour=2,
                snapshots_skipped=0,
                replayed_hours=3,
                hours_committed=5,
                clock_hours=5.0,
                wal_records=3,
                truncated_tail=False,
                fresh_pipelines=1,
                digests_verified=3,
            )
        )
        assert registry.gauge_value("sage_recovery_snapshot_hour") == 2
        assert registry.gauge_value("sage_recovery_replayed_hours") == 3
        assert registry.gauge_value("sage_recovery_hours_committed") == 5
        assert registry.gauge_value("sage_recovery_digests_verified") == 3
        assert registry.gauge_value("sage_recovery_fresh_pipelines") == 1
