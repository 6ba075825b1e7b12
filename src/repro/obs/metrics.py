"""Metrics registry: counters, gauges, and histograms for the platform.

Keys are ``(name, sorted label items)``; values are plain Python numbers
updated in place, so an increment is one dict operation and a snapshot is
a deterministic walk in sorted-key order.  The registry holds no locks:
every writer in the platform sits on the serial drive path (the same
discipline the tracer documents), and readers snapshot between hours.

Histograms use fixed power-of-four bucket bounds (:data:`BUCKET_BOUNDS`)
plus ``+Inf`` and track count/sum/min/max -- enough for the Prometheus
text exposition without per-sample storage.

The higher-level ``observe_*`` helpers translate platform state into
gauge families using only documented pure reads (``store.totals``,
``stream_loss_bound``, ``retired_blocks``, which reads the live mask the
commit keeps exact).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["BUCKET_BOUNDS", "MetricsRegistry"]

#: Histogram bucket upper bounds (inclusive), ``+Inf`` implied.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(float(4 ** k) for k in range(11))

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class MetricsRegistry:
    """Insertion-cheap, deterministically exportable metric store."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, dict] = {}

    # ------------------------------------------------------------------
    # Primitive instruments
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to a monotonic counter (created at zero)."""
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to its latest value."""
        self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Fold one sample into a histogram."""
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = {
                "buckets": [0] * (len(BUCKET_BOUNDS) + 1),
                "count": 0,
                "sum": 0.0,
                "min": value,
                "max": value,
            }
            self._histograms[key] = hist
        hist["count"] += 1
        hist["sum"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)
        for index, bound in enumerate(BUCKET_BOUNDS):
            if value <= bound:
                hist["buckets"][index] += 1
                return
        hist["buckets"][-1] += 1

    # ------------------------------------------------------------------
    # Read-back (tests, compatibility properties)
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        return self._counters.get(_key(name, labels), 0)

    def gauge_value(
        self, name: str, default: float = 0.0, **labels: object
    ) -> float:
        return self._gauges.get(_key(name, labels), default)

    def histogram_value(self, name: str, **labels: object) -> Optional[dict]:
        hist = self._histograms.get(_key(name, labels))
        return dict(hist) if hist is not None else None

    # ------------------------------------------------------------------
    # Platform observers (privacy / throughput / durability families)
    # ------------------------------------------------------------------
    def observe_dashboard(self, accountant, strong: bool = False) -> int:
        """Per-block loss gauges in one pass -- the metrics export path of
        :func:`repro.core.odometer.loss_dashboard`.

        Fills ``sage_block_epsilon{block=...}`` / ``sage_block_delta``
        for every registered block with the same vectorized single pass
        over the struct-of-arrays totals the dashboard helper uses, so
        per-block loss lands in the JSON/Prometheus snapshots without a
        second scan.  ``strong=True`` routes through the per-block strong
        odometer instead (one odometer load per block).  Returns the
        number of blocks observed.
        """
        from repro.core.odometer import loss_dashboard

        import numpy as np

        keys = accountant.block_keys
        if strong:
            for key, loss in loss_dashboard(accountant, strong=True).items():
                self.set_gauge("sage_block_epsilon", loss.epsilon, block=key)
                self.set_gauge("sage_block_delta", loss.delta, block=key)
            return len(keys)
        from repro.core.accountant import TOT_DELTA, TOT_EPS

        totals = accountant.store.totals
        eps = totals[:, TOT_EPS]
        delta = np.minimum(1.0, totals[:, TOT_DELTA])
        for key, e, d in zip(keys, eps, delta):
            self.set_gauge("sage_block_epsilon", float(e), block=key)
            self.set_gauge("sage_block_delta", float(d), block=key)
        return len(keys)

    def observe_privacy(self, accountant) -> None:
        """Stream-level privacy gauges: loss bound vs the global budget,
        block lifecycle counts, and Renyi order saturation."""
        loss = accountant.stream_loss_bound()
        self.set_gauge("sage_privacy_epsilon_spent", loss.epsilon)
        self.set_gauge("sage_privacy_delta_spent", loss.delta)
        self.set_gauge(
            "sage_privacy_epsilon_headroom", accountant.epsilon_global - loss.epsilon
        )
        self.set_gauge(
            "sage_privacy_delta_headroom", accountant.delta_global - loss.delta
        )
        n_blocks = len(accountant.block_keys)
        n_retired = len(accountant.retired_blocks())
        self.set_gauge("sage_privacy_blocks_total", n_blocks)
        self.set_gauge("sage_privacy_blocks_retired", n_retired)
        self.set_gauge("sage_privacy_blocks_live", n_blocks - n_retired)
        self._observe_order_saturation(accountant)

    def _observe_order_saturation(self, accountant) -> None:
        """Fraction of spending blocks whose optimal Renyi order sits on
        the grid boundary (either end) -- when it climbs, the configured
        order grid is limiting the accounting, not the data."""
        import numpy as np

        from repro.core.accountant import TOT_EPS, TOTALS_BASE

        filt = getattr(accountant, "batch_filter", None)
        orders = getattr(filt, "orders", None)
        penalty = getattr(filt, "_penalty", None)
        if not orders or penalty is None:
            return
        self.set_gauge("sage_privacy_renyi_orders", len(orders))
        totals = accountant.store.totals
        spending = totals[:, TOT_EPS] > 0.0
        if not spending.any():
            self.set_gauge("sage_privacy_renyi_order_saturation", 0.0)
            return
        rdp = totals[np.flatnonzero(spending), TOTALS_BASE:]
        best = np.argmin(rdp + np.asarray(penalty), axis=1)
        saturated = (best == 0) | (best == len(orders) - 1)
        self.set_gauge(
            "sage_privacy_renyi_order_saturation", float(saturated.mean())
        )

    def observe_recovery(self, report) -> None:
        """Durability gauges from a :class:`~repro.core.durability.
        RecoveryReport` (replay depth, snapshot used, digest checks)."""
        self.set_gauge("sage_recovery_replayed_hours", report.replayed_hours)
        self.set_gauge("sage_recovery_hours_committed", report.hours_committed)
        self.set_gauge(
            "sage_recovery_snapshot_hour",
            -1 if report.snapshot_hour is None else report.snapshot_hour,
        )
        self.set_gauge(
            "sage_recovery_digests_verified", report.digests_verified
        )
        self.set_gauge("sage_recovery_fresh_pipelines", report.fresh_pipelines)

    # ------------------------------------------------------------------
    # Deterministic snapshot (the exporters' single source)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All metrics as a plain dict with deterministic key order."""

        def render(table: Dict[MetricKey, object]) -> dict:
            return {
                _render_key(key): value for key, value in sorted(table.items())
            }

        histograms = {}
        for key, hist in sorted(self._histograms.items()):
            buckets = {}
            cumulative = 0
            # Cumulative ``le`` counts, the Prometheus histogram contract.
            for bound, count in zip(BUCKET_BOUNDS, hist["buckets"]):
                cumulative += count
                buckets[_format_bound(bound)] = cumulative
            buckets["+Inf"] = hist["count"]
            histograms[_render_key(key)] = {
                "count": hist["count"],
                "sum": hist["sum"],
                "min": hist["min"],
                "max": hist["max"],
                "buckets": buckets,
            }
        return {
            "counters": render(self._counters),
            "gauges": render(self._gauges),
            "histograms": histograms,
        }


def _format_bound(bound: float) -> str:
    return str(int(bound)) if float(bound).is_integer() else repr(bound)


def _render_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{label}="{value}"' for label, value in labels)
    return f"{name}{{{inner}}}"
