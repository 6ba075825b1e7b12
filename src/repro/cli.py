"""Command-line interface: regenerate any table or figure directly.

Usage::

    python -m repro fig5 taxi-lr              # one Fig. 5 panel
    python -m repro fig6 criteo-lg            # samples-to-ACCEPT panel
    python -m repro table2 taxi-lr            # violation-rate rows
    python -m repro fig7                      # block vs query composition
    python -m repro fig8 --rates 0.1 0.5      # workload sweep
    python -m repro inventory                 # Table 1 configurations
    python -m repro wal-demo --wal-dir state  # durable workload + charge log
    python -m repro recover --wal-dir state   # rebuild from WAL + snapshots
    python -m repro obs-report                # drive + privacy/throughput metrics
    python -m repro trace --out drive.json    # Chrome trace of a full drive
    python -m repro profile                   # wall-clock phase breakdown
    python -m repro perf-diff a.json b.json   # two profiles side by side
    python -m repro perf-report --check       # perf trajectory + regression gate

The CLI is a thin veneer over ``repro.experiments``; it exists so a
downstream user can reproduce a single artifact without writing a script.
Schedules default to quick versions; pass ``--full`` for longer sweeps.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

_QUICK_SCHEDULE = (4_000, 16_000, 64_000, 128_000)
_FULL_SCHEDULE = (4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of the Sage paper (SOSP 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fig5", "DP impact on model quality vs sample size"),
        ("fig6", "samples required to ACCEPT per target and regime"),
        ("table2", "violation rates of accepted models"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "config",
            choices=["taxi-lr", "taxi-nn", "criteo-lg", "criteo-nn"],
            help="Table 1 pipeline configuration",
        )
        p.add_argument("--full", action="store_true", help="longer sample schedule")
        p.add_argument("--seeds", type=int, default=1, help="number of seeds")

    p7 = sub.add_parser("fig7", help="block vs query composition (Taxi LR)")
    p7.add_argument("--full", action="store_true")

    p8 = sub.add_parser("fig8", help="release time under load")
    p8.add_argument("--rates", type=float, nargs="+", default=[0.1, 0.3, 0.7])
    p8.add_argument("--horizon", type=float, default=300.0)

    sub.add_parser("inventory", help="print the Table 1 configurations")

    pw = sub.add_parser(
        "wal-demo",
        help="run a durable oracle workload, optionally dying at a crash point",
    )
    pw.add_argument("--wal-dir", required=True, help="charge log + snapshot directory")
    pw.add_argument("--hours", type=int, default=6, help="hours of stream time")
    pw.add_argument("--pipelines", type=int, default=3, help="oracle pipelines")
    pw.add_argument("--seed", type=int, default=5)
    pw.add_argument(
        "--snapshot-every", type=int, default=0, help="snapshot cadence (0 = never)"
    )
    pw.add_argument(
        "--crash-at",
        default=None,
        metavar="POINT",
        help="simulate a process death at this named crash point "
        "(see repro.core.faults.CRASH_POINTS)",
    )
    pw.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="trace the drive and write Chrome trace-event JSON here",
    )
    pw.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="wall-clock profile the drive and write its Chrome trace JSON here",
    )

    pr = sub.add_parser(
        "recover", help="rebuild a wal-demo platform from its log and snapshots"
    )
    pr.add_argument("--wal-dir", required=True, help="directory wal-demo wrote")
    pr.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="trace the recovery replay and write Chrome trace-event JSON here",
    )
    pr.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="wall-clock profile the replay and write its Chrome trace JSON here",
    )

    po = sub.add_parser(
        "obs-report",
        help="drive a demo workload with telemetry and print its metrics",
    )
    po.add_argument("--hours", type=int, default=6, help="hours of stream time")
    po.add_argument("--pipelines", type=int, default=3, help="oracle pipelines")
    po.add_argument("--seed", type=int, default=5)
    po.add_argument(
        "--format",
        choices=["json", "prometheus"],
        default="json",
        help="metrics output format",
    )

    pt = sub.add_parser(
        "trace",
        help="drive a durable demo hour-by-hour and write a Chrome "
        "trace (load the file in Perfetto / chrome://tracing)",
    )
    pt.add_argument("--out", required=True, metavar="PATH", help="trace file to write")
    pt.add_argument("--hours", type=int, default=6, help="hours of stream time")
    pt.add_argument("--pipelines", type=int, default=3, help="oracle pipelines")
    pt.add_argument("--seed", type=int, default=5)
    pt.add_argument(
        "--snapshot-every", type=int, default=2, help="snapshot cadence (0 = never)"
    )

    pp = sub.add_parser(
        "profile",
        help="drive a durable demo, traced, and print the wall-clock "
        "per-phase breakdown and per-hour critical paths",
    )
    pp.add_argument("--hours", type=int, default=6, help="hours of stream time")
    pp.add_argument("--pipelines", type=int, default=3, help="oracle pipelines")
    pp.add_argument("--seed", type=int, default=5)
    pp.add_argument(
        "--snapshot-every", type=int, default=2, help="snapshot cadence (0 = never)"
    )
    pp.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the profile as Chrome trace-event JSON",
    )
    pp.add_argument(
        "--flame-out",
        default=None,
        metavar="PATH",
        help="also write collapsed stacks (flamegraph.pl / speedscope input)",
    )

    pd = sub.add_parser(
        "perf-diff",
        help="diff two exported traces/profiles (Chrome trace JSON) per phase",
    )
    pd.add_argument("before", help="baseline trace/profile JSON")
    pd.add_argument("after", help="comparison trace/profile JSON")

    pf = sub.add_parser(
        "perf-report",
        help="render the bench perf trajectory from results/perf_history.jsonl",
    )
    pf.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="history file (default: results/perf_history.jsonl)",
    )
    pf.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any case's latest run fell out of its tolerance band",
    )
    pf.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="fraction of the baseline median a latest speedup may drop to "
        "(default 0.35)",
    )
    return parser


def _run_table(args) -> object:
    from repro.experiments import MODEL_CONFIGS, collect_training_runs

    config = MODEL_CONFIGS[args.config]
    schedule = _FULL_SCHEDULE if args.full else _QUICK_SCHEDULE
    return collect_training_runs(
        config,
        schedule=schedule,
        seeds=tuple(range(args.seeds)),
        eval_size=25_000,
    )


def _cmd_fig5(args) -> str:
    from repro.experiments import fig5_series, format_fig5

    table = _run_table(args)
    metric = table.config.metric
    return format_fig5(f"Fig 5 ({args.config})", fig5_series(table), metric)


def _cmd_fig6(args) -> str:
    from repro.experiments import fig6_required_samples, format_fig6

    table = _run_table(args)
    targets = table.config.targets
    required = fig6_required_samples(table, targets)
    return format_fig6(f"Fig 6 ({args.config})", required)


def _cmd_table2(args) -> str:
    from repro.experiments import format_table2, table2_violation_rates

    table = _run_table(args)
    targets = table.config.targets[-3:]  # the reachable end of the range
    rates = {
        eta: table2_violation_rates(table, targets=targets, eta=eta)
        for eta in (0.01, 0.05)
    }
    return format_table2(f"Table 2 ({args.config})", rates)


def _cmd_fig7(args) -> str:
    from repro.experiments import format_fig7
    from repro.experiments.runners import run_fig7_lr

    sizes = _FULL_SCHEDULE if args.full else _QUICK_SCHEDULE
    curves = run_fig7_lr(sample_sizes=sizes, block_sizes=(4_000, 20_000), seeds=(0,))
    return format_fig7("Fig 7a (Taxi LR)", curves)


def _cmd_fig8(args) -> str:
    from repro.experiments import format_fig8, run_fig8

    reports = run_fig8(rates=tuple(args.rates), horizon_hours=args.horizon)
    return format_fig8("Fig 8 (Taxi-scale workload)", reports)


def _cmd_inventory(args) -> str:
    from repro.experiments import MODEL_CONFIGS

    lines = ["Table 1: experimental training pipelines", "-" * 64]
    for name, config in MODEL_CONFIGS.items():
        lines.append(
            f"{name:>10}: {config.algorithm}, metric={config.metric}, "
            f"eps in {{{config.epsilon_large}, {config.epsilon_small}}}, "
            f"targets {config.targets[0]}..{config.targets[-1]}"
        )
    lines.append(f"{'stats':>10}: Avg.Speed x3 (taxi), Counts x26 (criteo)")
    return "\n".join(lines)


def _write_json_atomic(path, payload) -> None:
    """Land the JSON in one ``os.replace`` so a crash mid-write leaves
    either the old manifest or the new one, never a torn file."""
    import json
    import os

    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _demo_platform(manifest, wal_dir, telemetry=None):
    # Manifests written before the single accountant may carry a "shards"
    # key; sharding never changed the trajectory, so it is ignored.
    from repro.core.platform import Sage
    from repro.workload.oracle import CountStreamSource

    return Sage(
        CountStreamSource(4000, scale=1000),
        seed=manifest["seed"],
        wal_dir=wal_dir,
        snapshot_every=manifest["snapshot_every"],
        telemetry=telemetry,
    )


def _demo_pipelines(manifest):
    from repro.core.adaptive import AdaptiveConfig
    from repro.workload.oracle import OraclePipeline

    return [
        (
            OraclePipeline(name=f"demo-{i}", n_at_eps1=target),
            AdaptiveConfig(max_attempts=16),
        )
        for i, target in enumerate(manifest["targets"])
    ]


def _maybe_telemetry(trace_out, profile_out=None):
    """A fresh :class:`~repro.obs.Telemetry` when a trace or wall-clock
    profile was requested (both are read off the same tracer)."""
    if not trace_out and not profile_out:
        return None
    from repro.obs import Telemetry

    return Telemetry()


def _maybe_write_trace(telemetry, trace_out, lines) -> None:
    if telemetry is None or not trace_out:
        return
    from repro.obs import write_chrome_trace

    path = write_chrome_trace(telemetry.tracer, trace_out)
    lines.append(f"trace written to {path} (open in Perfetto / chrome://tracing)")


def _maybe_write_profile(telemetry, profile_out, lines) -> None:
    if telemetry is None or not profile_out:
        return
    from repro.obs import write_chrome_trace
    from repro.obs.analyze import wall_view

    path = write_chrome_trace(wall_view(telemetry.tracer), profile_out)
    lines.append(f"profile written to {path} (wall-clock microseconds)")


def _cmd_wal_demo(args) -> str:
    from pathlib import Path

    from repro.core import durability, faults

    wal_dir = Path(args.wal_dir)
    wal_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "seed": args.seed,
        "snapshot_every": args.snapshot_every,
        # Spread targets so early pipelines terminate inside the demo
        # window while later ones are still mid-session at any crash.
        "targets": [3_000.0 * (2.0 ** i) for i in range(args.pipelines)],
    }
    _write_json_atomic(wal_dir / "manifest.json", manifest)
    telemetry = _maybe_telemetry(args.trace_out, args.profile_out)
    sage = _demo_platform(manifest, wal_dir, telemetry=telemetry)
    for pipeline, config in _demo_pipelines(manifest):
        sage.submit(pipeline, config)
    lines = []
    try:
        if args.crash_at:
            with faults.armed_crash(args.crash_at):
                for _ in range(args.hours):
                    sage.advance(1.0)
        else:
            for _ in range(args.hours):
                sage.advance(1.0)
    except faults.InjectedCrash as crash:
        # Simulated process death: abandon the in-memory state exactly as
        # a kill -9 would, leaving only what the WAL already holds.
        # close() releases this process's file handles without touching
        # the log -- every crash point fires on an fsynced boundary, so
        # the on-disk bytes are already what a real kill would leave.
        sage.close()
        lines.append(f"crashed at {crash.point} (in-memory state abandoned)")
        scan = durability.read_wal(durability.wal_path(wal_dir))
        durable = len(durability.pair_hour_records(scan.records))
        lines.append(f"charge log holds {durable} hour(s); run `recover` to rebuild")
        # The trace survives the simulated death: it shows every span up
        # to (and including) the armed fault.trip event.
        _maybe_write_trace(telemetry, args.trace_out, lines)
        _maybe_write_profile(telemetry, args.profile_out, lines)
        return "\n".join(lines)
    lines.append(
        f"ran {args.hours} hour(s), {sage.hours_committed} committed to "
        f"{durability.wal_path(wal_dir)}"
    )
    lines.append(f"state digest: {durability.state_digest(sage):#010x}")
    sage.close()
    _maybe_write_trace(telemetry, args.trace_out, lines)
    _maybe_write_profile(telemetry, args.profile_out, lines)
    return "\n".join(lines)


def _cmd_recover(args) -> str:
    import json
    from pathlib import Path

    from repro.core import durability
    from repro.errors import RecoveryError

    wal_dir = Path(args.wal_dir)
    manifest_path = wal_dir / "manifest.json"
    if not manifest_path.exists():
        raise RecoveryError(f"no manifest.json in {wal_dir} (not a wal-demo directory?)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    telemetry = _maybe_telemetry(args.trace_out, args.profile_out)
    sage = _demo_platform(manifest, wal_dir, telemetry=telemetry)
    report = sage.recover(_demo_pipelines(manifest))
    lines = [
        report.describe(telemetry),
        f"state digest: {durability.state_digest(sage):#010x}",
    ]
    sage.close()
    _maybe_write_trace(telemetry, args.trace_out, lines)
    _maybe_write_profile(telemetry, args.profile_out, lines)
    return "\n".join(lines)


def _cmd_obs_report(args) -> str:
    from repro.obs import Telemetry, render_json, render_prometheus

    telemetry = Telemetry()
    manifest = {
        "seed": args.seed,
        "snapshot_every": 0,
        "targets": [3_000.0 * (2.0 ** i) for i in range(args.pipelines)],
    }
    sage = _demo_platform(manifest, wal_dir=None, telemetry=telemetry)
    for pipeline, config in _demo_pipelines(manifest):
        sage.submit(pipeline, config)
    for _ in range(args.hours):
        sage.advance(1.0)
    # Fold the end-of-drive privacy state into the registry: loss bound vs
    # budget, block lifecycle, per-block dashboard.
    telemetry.metrics.observe_privacy(sage.access.accountant)
    telemetry.metrics.observe_dashboard(sage.access.accountant)
    sage.close()
    render = render_prometheus if args.format == "prometheus" else render_json
    return render(telemetry.metrics).rstrip("\n")


def _cmd_trace(args) -> str:
    import tempfile

    from repro.obs import Telemetry, write_chrome_trace

    telemetry = Telemetry()
    manifest = {
        "seed": args.seed,
        "snapshot_every": args.snapshot_every,
        "targets": [3_000.0 * (2.0 ** i) for i in range(args.pipelines)],
    }
    # Durable on a throwaway WAL directory, so the trace shows the full
    # span taxonomy: charge batches, WAL append/fsync, snapshot writes,
    # and compaction -- not just the volatile drive.
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as wal_dir:
        sage = _demo_platform(manifest, wal_dir, telemetry=telemetry)
        for pipeline, config in _demo_pipelines(manifest):
            sage.submit(pipeline, config)
        for _ in range(args.hours):
            sage.advance(1.0)
        sage.close()
    path = write_chrome_trace(telemetry.tracer, args.out)
    tracer = telemetry.tracer
    return "\n".join(
        [
            f"drove {args.hours} hour(s)",
            f"{len(tracer.spans)} span(s), {len(tracer.events)} event(s)",
            f"trace written to {path} (open in Perfetto / chrome://tracing)",
        ]
    )


def _cmd_profile(args) -> str:
    import tempfile

    from repro.obs import Telemetry, write_chrome_trace
    from repro.obs.analyze import (
        render_breakdown,
        render_critical_path,
        wall_view,
        write_collapsed,
    )

    telemetry = Telemetry()
    manifest = {
        "seed": args.seed,
        "snapshot_every": args.snapshot_every,
        "targets": [3_000.0 * (2.0 ** i) for i in range(args.pipelines)],
    }
    # Same durable demo the trace command drives, so the profile
    # decomposes the full taxonomy -- including the fsync path.
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as wal_dir:
        sage = _demo_platform(manifest, wal_dir, telemetry=telemetry)
        for pipeline, config in _demo_pipelines(manifest):
            sage.submit(pipeline, config)
        for _ in range(args.hours):
            sage.advance(1.0)
        sage.close()
    profile = wall_view(telemetry.tracer)
    lines = [
        f"profiled {args.hours} hour(s)",
        "",
        render_breakdown(profile),
        "",
        render_critical_path(profile),
    ]
    if args.out:
        path = write_chrome_trace(profile, args.out)
        lines.append(f"profile written to {path} (wall-clock microseconds)")
    if args.flame_out:
        path = write_collapsed(profile, args.flame_out)
        lines.append(f"collapsed stacks written to {path}")
    return "\n".join(lines)


def _cmd_perf_diff(args) -> str:
    from pathlib import Path

    from repro.obs.analyze import load_chrome_trace, render_diff

    before = load_chrome_trace(Path(args.before))
    after = load_chrome_trace(Path(args.after))
    return "\n".join(
        [
            f"perf diff: {args.before} -> {args.after}",
            render_diff(before, after),
        ]
    )


def _cmd_perf_report(args):
    from pathlib import Path

    from repro.obs import perfdb

    path = Path(args.history) if args.history else perfdb.HISTORY_PATH
    history = perfdb.load_history(path)
    tolerance = (
        args.tolerance if args.tolerance is not None else perfdb.DEFAULT_TOLERANCE
    )
    report = perfdb.render_report(history, tolerance=tolerance)
    if not args.check:
        return report
    regressions = perfdb.check_regressions(history, tolerance=tolerance)
    return report, (1 if regressions else 0)


_COMMANDS = {
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "table2": _cmd_table2,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "inventory": _cmd_inventory,
    "wal-demo": _cmd_wal_demo,
    "recover": _cmd_recover,
    "obs-report": _cmd_obs_report,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "perf-diff": _cmd_perf_diff,
    "perf-report": _cmd_perf_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.core.faults import FaultConfigError
    from repro.errors import DurabilityError

    try:
        output = _COMMANDS[args.command](args)
    except (DurabilityError, FaultConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # perf-report --check returns (text, exit_code): the report always
    # prints, the code carries the regression verdict to CI.
    code = 0
    if isinstance(output, tuple):
        output, code = output
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
