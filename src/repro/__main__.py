"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart``      — local vs GBooster for one game (default G1/Nexus 5)
* ``fig5``            — the acceleration matrix
* ``fig6``            — the energy matrix
* ``fig7``            — the multi-device sweep
* ``fig1``            — the thermal trace
* ``prediction``      — ARMA vs ARMAX rates + AIC selection
* ``multiuser``       — §VIII FCFS vs priority sharing
* ``adaptive``        — discovery + cloud-fallback demo
* ``chaos``           — fault-injection sweep (loss bursts, outages, crashes)
* ``fleet``           — fleet-scaling sweep (sessions over a device pool)
* ``profile``         — pipeline-stage percentiles + hot-path wall-clock
                        benches; writes BENCH_PIPELINE.json and a Chrome
                        trace (BENCH_TRACE.json)
* ``fuzz``            — seeded property fuzzing over codecs, caches,
                        transports, chaos sessions and fleet arrivals;
                        shrinks failures to minimal reproductions
* ``slo``             — telemetry-armed scenarios (clean session, loss
                        burst, fleet overload) with burn-rate SLO
                        evaluation; writes BENCH_SLO.json and diffs it
                        against the committed baseline
* ``replay``          — record-once / replay-many bench: a cold session
                        records intervals into the fleet store, a warm
                        session is delta-served from it; writes
                        BENCH_REPLAY.json and diffs it against the
                        committed baseline
* ``capacity``        — capacity-planning sweep: fleet sizes × arrival
                        curves × genre mixes reduced to SLO-attainment
                        frontier curves; writes BENCH_CAPACITY.json and
                        diffs it against the committed baseline
* ``planner``         — auto-boost planner bench: genre-mix matrix where
                        every static policy loses to probe-and-commit,
                        measured fusion byte reduction, and a drift-
                        triggered replan drill; writes BENCH_PLANNER.json
                        and diffs it against the committed baseline

Each prints the same rows the corresponding benchmark asserts on.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_quickstart(args: argparse.Namespace) -> None:
    from repro import run_local_session, run_offload_session
    from repro.apps.games import GAMES
    from repro.devices.profiles import USER_DEVICES

    app = GAMES[args.game]
    device = USER_DEVICES[args.device]
    local = run_local_session(app, device, duration_ms=args.duration * 1000.0)
    boosted = run_offload_session(app, device,
                                  duration_ms=args.duration * 1000.0)
    print(f"{app.name} on {device.name} ({args.duration:.0f}s)")
    print(f"  local   : {local.fps}")
    print(f"  gbooster: {boosted.fps}")
    print(f"  energy  : {boosted.energy.mean_power_w:.2f} W vs "
          f"{local.energy.mean_power_w:.2f} W "
          f"({boosted.energy.mean_power_w / local.energy.mean_power_w:.0%})")


def _cmd_fig5(args: argparse.Namespace) -> None:
    from repro.experiments.acceleration import format_rows, run_figure5

    rows = run_figure5(duration_ms=args.duration * 1000.0)
    print(format_rows(rows))


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.devices.profiles import LG_NEXUS_5
    from repro.experiments.energy import format_rows, run_figure6

    rows = run_figure6(duration_ms=args.duration * 1000.0,
                       devices=[LG_NEXUS_5])
    print(format_rows(rows))


def _cmd_fig7(args: argparse.Namespace) -> None:
    from repro.experiments.multidevice import format_points, run_figure7

    points = run_figure7(duration_ms=args.duration * 1000.0)
    print(format_points(points))


def _cmd_fig1(args: argparse.Namespace) -> None:
    from repro.experiments.thermal import run_figure1

    result = run_figure1()
    for t, freq, temp in result.samples[::120]:
        print(f"t={t/60.0:5.1f} min  freq={freq:6.0f} MHz  temp={temp:5.1f} C")
    print(f"throttled at {result.throttle_time_s / 60.0:.1f} min "
          "(paper: ~10 min)")


def _cmd_prediction(args: argparse.Namespace) -> None:
    from repro.experiments.prediction import (
        ATTRIBUTE_NAMES,
        collect_traffic_trace,
        compare_arma_armax,
        format_comparison,
        run_aic_selection,
    )

    trace = collect_traffic_trace(duration_ms=args.duration * 1000.0)
    print(format_comparison(compare_arma_armax(trace)))
    ranking = run_aic_selection(trace)
    best = ranking[0][0]
    print("AIC winner:", [ATTRIBUTE_NAMES[i] for i in best])


def _cmd_multiuser(args: argparse.Namespace) -> None:
    from repro.apps.games import CANDY_CRUSH, MODERN_COMBAT
    from repro.core.multiuser import run_multiuser_experiment

    results = run_multiuser_experiment(
        MODERN_COMBAT, CANDY_CRUSH, duration_ms=args.duration * 1000.0
    )
    for policy, result in results.items():
        for user in result.users:
            print(f"{policy:9} {user.app.short_name} "
                  f"{user.fps.median_fps:5.1f} FPS "
                  f"{user.mean_response_ms:6.1f} ms")


def _cmd_adaptive(args: argparse.Namespace) -> None:
    from repro.apps.games import GTA_SAN_ANDREAS
    from repro.core.adaptive import run_adaptive_session
    from repro.devices.profiles import NVIDIA_SHIELD

    for label, ambient, internet in (
        ("devices nearby", [NVIDIA_SHIELD], True),
        ("empty LAN, Internet up", [], True),
        ("fully offline", [], False),
    ):
        outcome = run_adaptive_session(
            GTA_SAN_ANDREAS, ambient_devices=ambient,
            internet_available=internet,
            duration_ms=args.duration * 1000.0,
        )
        print(f"{label:24} -> {outcome.mode:9} "
              f"{outcome.median_fps:5.1f} FPS  "
              f"{outcome.response_time_ms:6.1f} ms")


def _cmd_chaos(args: argparse.Namespace) -> None:
    from repro.experiments.chaos import format_points, run_chaos_sweep

    points = run_chaos_sweep(
        loss_levels=args.loss,
        outage_levels_ms=[s * 1000.0 for s in args.outage],
        crash=not args.no_crash,
        duration_ms=args.duration * 1000.0,
    )
    print(format_points(points))
    if any(not p.survived for p in points):
        raise SystemExit("chaos sweep lost frames — robustness regression")


def _cmd_fleet(args: argparse.Namespace) -> None:
    from repro.experiments.fleet import (
        format_points,
        run_fleet_point,
        run_fleet_sweep,
    )

    if args.workers is not None:
        _cmd_fleet_sharded(args)
        return
    if args.smoke:
        # CI gate: one 64-session point on 8 devices, run twice.  Asserts
        # the subsystem's headline invariants rather than printing a table.
        point, _report = run_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, crash=not args.no_crash,
        )
        again, _ = run_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, crash=not args.no_crash,
        )
        print(format_points([point]))
        if point.digest != again.digest:
            raise SystemExit("fleet smoke: same seed, different report")
        if point.peak_concurrency < 64:
            raise SystemExit(
                f"fleet smoke: only {point.peak_concurrency} concurrent "
                "sessions (need 64)"
            )
        if not point.zero_loss:
            raise SystemExit(
                f"fleet smoke: {point.frames_lost} frames lost"
            )
        if not args.no_crash and point.crash_migrations < 1:
            raise SystemExit("fleet smoke: crash caused no migrations")
        action = point.tier_response_ms.get("action", 0.0)
        tolerant = point.tier_response_ms.get("tolerant", 0.0)
        if action >= tolerant:
            raise SystemExit(
                f"fleet smoke: action tier ({action:.1f} ms) not faster "
                f"than tolerant tier ({tolerant:.1f} ms)"
            )
        print("fleet smoke: ok")
        return
    points = run_fleet_sweep(
        session_counts=args.sessions,
        n_devices=args.devices,
        duration_ms=args.duration * 1000.0,
        seed=args.seed,
        crash=not args.no_crash,
    )
    print(format_points(points))
    if any(not p.zero_loss for p in points):
        raise SystemExit("fleet sweep lost frames — migration regression")


def _cmd_fleet_sharded(args: argparse.Namespace) -> None:
    """``fleet --workers N``: the sharded kernel path.

    The determinism contract asserted here is the one ``repro.sim.shard``
    guarantees: at fixed ``(seed, shards)``, the merged report digest is
    byte-identical for every worker count — parallelism is transport, not
    semantics.
    """
    from repro.experiments.fleet_shard import (
        format_sharded_points,
        run_sharded_fleet_point,
        run_sharded_fleet_sweep,
    )

    if args.smoke:
        # CI gate (fleet-parallel-smoke): one 64-session point at the
        # requested worker count, diffed byte-for-byte against the same
        # point pushed through a single worker.
        point, report = run_sharded_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, shards=args.shards, workers=args.workers,
            crash=not args.no_crash, window_ms=args.window * 1000.0,
        )
        serial, serial_report = run_sharded_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, shards=args.shards, workers=1,
            crash=not args.no_crash, window_ms=args.window * 1000.0,
        )
        print(format_sharded_points([point]))
        if point.digest != serial.digest:
            raise SystemExit(
                f"fleet parallel smoke: workers={args.workers} digest "
                f"{point.digest[:16]} != workers=1 digest "
                f"{serial.digest[:16]}"
            )
        if report["session_digests"] != serial_report["session_digests"]:
            raise SystemExit(
                "fleet parallel smoke: per-session frame digests differ "
                "across worker counts"
            )
        if point.finished < 64:
            raise SystemExit(
                f"fleet parallel smoke: only {point.finished} sessions "
                "finished (need 64)"
            )
        if not point.zero_loss:
            raise SystemExit(
                f"fleet parallel smoke: {point.frames_lost} frames lost"
            )
        if not args.no_crash and point.crash_migrations < 1:
            raise SystemExit(
                "fleet parallel smoke: crash caused no migrations"
            )
        print(
            f"fleet parallel smoke: ok "
            f"(shards={args.shards}, workers={args.workers}, "
            f"digest {point.digest[:16]})"
        )
        return
    points = run_sharded_fleet_sweep(
        session_counts=args.sessions,
        n_devices=args.devices,
        duration_ms=args.duration * 1000.0,
        seed=args.seed,
        shards=args.shards,
        workers=args.workers,
        crash=not args.no_crash,
        window_ms=args.window * 1000.0,
    )
    print(format_sharded_points(points))
    if any(not p.zero_loss for p in points):
        raise SystemExit("fleet sweep lost frames — migration regression")
    if any(p.invariant_violations for p in points):
        raise SystemExit("fleet sweep tripped runtime invariants")


def _cmd_profile(args: argparse.Namespace) -> None:
    from repro.experiments.profiling import (
        format_bench,
        run_profile,
        validate_bench,
        write_bench,
    )

    bench = run_profile(
        seed=args.seed, smoke=args.smoke, trace_path=args.trace_out,
    )
    problems = validate_bench(bench)
    write_bench(args.out, bench)
    print(format_bench(bench))
    print(f"wrote {args.out} and {args.trace_out}")
    if problems:
        raise SystemExit(
            "profile: benchmark schema drift:\n  " + "\n  ".join(problems)
        )
    if args.smoke:
        # CI gate: same seed must reproduce the simulated-time section.
        again = run_profile(
            seed=args.seed, smoke=True, trace_path=args.trace_out,
        )
        if (
            again["deterministic"]["digest"]
            != bench["deterministic"]["digest"]
        ):
            raise SystemExit("profile smoke: same seed, different digest")
        print("profile smoke: ok")


def _cmd_fuzz(args: argparse.Namespace) -> None:
    from repro.check.fuzz import format_summary, run_fuzz

    summary = run_fuzz(
        smoke=args.smoke, seed=args.seed, rounds=args.rounds,
        corpus_dir=args.corpus,
    )
    print(format_summary(summary))
    if summary["total_failures"]:
        raise SystemExit(
            f"fuzz: {summary['total_failures']} properties falsified"
        )
    if args.smoke:
        # CI gate: the whole suite must be deterministic under the seed.
        again = run_fuzz(smoke=True, seed=args.seed, rounds=args.rounds)
        if again["digest"] != summary["digest"]:
            raise SystemExit("fuzz smoke: same seed, different digest")
        print("fuzz smoke: ok")


def _cmd_slo(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.experiments.slo import (
        diff_against_baseline,
        format_bench,
        load_bench,
        run_slo_bench,
        validate_bench,
        write_bench,
    )

    bench = run_slo_bench(
        seed=args.seed, smoke=args.smoke, workers=args.workers
    )
    problems = validate_bench(bench)
    write_bench(args.out, bench)
    print(format_bench(bench))
    print(f"wrote {args.out}")
    if problems:
        raise SystemExit(
            "slo: benchmark schema drift:\n  " + "\n  ".join(problems)
        )
    if args.smoke:
        # CI gate 1: the artifact must be a pure function of the seed —
        # not just the digest, the whole serialized file.  The rerun is
        # always serial, so with --workers > 1 this doubles as the
        # parallel-equals-serial byte-identity check.
        again = run_slo_bench(seed=args.seed, smoke=True, workers=1)
        if json.dumps(again, sort_keys=True) != json.dumps(
            bench, sort_keys=True
        ):
            raise SystemExit("slo smoke: same seed, different artifact")
    if args.baseline and os.path.exists(args.baseline):
        regressions, skip = diff_against_baseline(
            bench, load_bench(args.baseline)
        )
        if skip is not None:
            print(f"baseline diff skipped: {skip}")
        elif regressions:
            raise SystemExit(
                "slo: performance regression vs "
                f"{args.baseline}:\n  " + "\n  ".join(regressions)
            )
        else:
            print(f"baseline diff vs {args.baseline}: ok")
    elif args.baseline:
        print(f"no baseline at {args.baseline} — diff skipped")
    if args.smoke:
        print("slo smoke: ok")


def _cmd_replay(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.experiments.replay import (
        diff_against_baseline,
        format_bench,
        load_bench,
        run_replay_bench,
        validate_bench,
        write_bench,
    )

    bench = run_replay_bench(seed=args.seed, smoke=args.smoke)
    problems = validate_bench(bench)
    write_bench(args.out, bench)
    print(format_bench(bench))
    print(f"wrote {args.out}")
    if problems:
        raise SystemExit(
            "replay: acceptance gate failed:\n  " + "\n  ".join(problems)
        )
    if args.smoke:
        # CI gate 1: the artifact must be a pure function of the seed —
        # the whole serialized file, not just the digest.
        again = run_replay_bench(seed=args.seed, smoke=True)
        if json.dumps(again, sort_keys=True) != json.dumps(
            bench, sort_keys=True
        ):
            raise SystemExit("replay smoke: same seed, different artifact")
    if args.baseline and os.path.exists(args.baseline):
        regressions, skip = diff_against_baseline(
            bench, load_bench(args.baseline)
        )
        if skip is not None:
            print(f"baseline diff skipped: {skip}")
        elif regressions:
            raise SystemExit(
                "replay: performance regression vs "
                f"{args.baseline}:\n  " + "\n  ".join(regressions)
            )
        else:
            print(f"baseline diff vs {args.baseline}: ok")
    elif args.baseline:
        print(f"no baseline at {args.baseline} — diff skipped")
    if args.smoke:
        print("replay smoke: ok")


def _cmd_capacity(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.experiments.capacity import (
        diff_against_baseline,
        format_bench,
        load_bench,
        run_capacity_bench,
        validate_bench,
        write_bench,
    )

    bench = run_capacity_bench(
        seed=args.seed, smoke=args.smoke, workers=args.workers
    )
    problems = validate_bench(bench)
    write_bench(args.out, bench)
    print(format_bench(bench))
    print(f"wrote {args.out}")
    if problems:
        raise SystemExit(
            "capacity: acceptance gate failed:\n  " + "\n  ".join(problems)
        )
    if args.smoke:
        # CI gate 1: the artifact must be a pure function of the seed —
        # the whole serialized file, not just the digest.  The rerun is
        # always serial, so with --workers > 1 this doubles as the
        # parallel-equals-serial byte-identity check.
        again = run_capacity_bench(seed=args.seed, smoke=True, workers=1)
        if json.dumps(again, sort_keys=True) != json.dumps(
            bench, sort_keys=True
        ):
            raise SystemExit("capacity smoke: same seed, different artifact")
    if args.baseline and os.path.exists(args.baseline):
        regressions, skip = diff_against_baseline(
            bench, load_bench(args.baseline)
        )
        if skip is not None:
            print(f"baseline diff skipped: {skip}")
        elif regressions:
            raise SystemExit(
                "capacity: regression vs "
                f"{args.baseline}:\n  " + "\n  ".join(regressions)
            )
        else:
            print(f"baseline diff vs {args.baseline}: ok")
    elif args.baseline:
        print(f"no baseline at {args.baseline} — diff skipped")
    if args.smoke:
        print("capacity smoke: ok")


def _cmd_planner(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.experiments.planner import (
        diff_against_baseline,
        format_bench,
        load_bench,
        run_planner_bench,
        validate_bench,
        write_bench,
    )

    bench = run_planner_bench(
        seed=args.seed, smoke=args.smoke, workers=args.workers
    )
    problems = validate_bench(bench)
    write_bench(args.out, bench)
    print(format_bench(bench))
    print(f"wrote {args.out}")
    if problems:
        raise SystemExit(
            "planner: acceptance gate failed:\n  " + "\n  ".join(problems)
        )
    if args.smoke:
        # CI gate 1: the artifact must be a pure function of the seed —
        # the whole serialized file, not just the digest.  The rerun is
        # always serial, so with --workers > 1 this doubles as the
        # parallel-equals-serial byte-identity check.
        again = run_planner_bench(seed=args.seed, smoke=True, workers=1)
        if json.dumps(again, sort_keys=True) != json.dumps(
            bench, sort_keys=True
        ):
            raise SystemExit("planner smoke: same seed, different artifact")
    if args.baseline and os.path.exists(args.baseline):
        regressions, skip = diff_against_baseline(
            bench, load_bench(args.baseline)
        )
        if skip is not None:
            print(f"baseline diff skipped: {skip}")
        elif regressions:
            raise SystemExit(
                "planner: regression vs "
                f"{args.baseline}:\n  " + "\n  ".join(regressions)
            )
        else:
            print(f"baseline diff vs {args.baseline}: ok")
    elif args.baseline:
        print(f"no baseline at {args.baseline} — diff skipped")
    if args.smoke:
        print("planner smoke: ok")


def _cmd_postmortem(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.experiments.postmortem import (
        diff_against_baseline,
        format_bench,
        load_bench,
        run_postmortem_bench,
        validate_bench,
        write_bench,
        write_bundle,
        write_chrome,
    )

    bench = run_postmortem_bench(
        seed=args.seed, smoke=args.smoke, workers=args.workers
    )
    problems = validate_bench(bench)
    write_bench(args.out, bench)
    write_bundle(args.bundle_out, bench)
    write_chrome(args.trace_out, bench)
    print(format_bench(bench))
    print(f"wrote {args.out}, {args.bundle_out}, {args.trace_out}")
    if problems:
        raise SystemExit(
            "postmortem: acceptance gate failed:\n  " + "\n  ".join(problems)
        )
    if args.smoke:
        # CI gate 1: the artifact must be a pure function of the seed —
        # the whole serialized file, not just the digest.  The rerun is
        # always serial, so with --workers > 1 this doubles as the
        # parallel-equals-serial byte-identity check (the frozen flight
        # bundle rides inside the digest, so bundle bytes are gated too).
        again = run_postmortem_bench(seed=args.seed, smoke=True, workers=1)
        if json.dumps(again, sort_keys=True) != json.dumps(
            bench, sort_keys=True
        ):
            raise SystemExit("postmortem smoke: same seed, different artifact")
    if args.baseline and os.path.exists(args.baseline):
        regressions, skip = diff_against_baseline(
            bench, load_bench(args.baseline)
        )
        if skip is not None:
            print(f"baseline diff skipped: {skip}")
        elif regressions:
            raise SystemExit(
                "postmortem: regression vs "
                f"{args.baseline}:\n  " + "\n  ".join(regressions)
            )
        else:
            print(f"baseline diff vs {args.baseline}: ok")
    elif args.baseline:
        print(f"no baseline at {args.baseline} — diff skipped")
    if args.smoke:
        print("postmortem smoke: ok")


def _positive_seconds(text: str) -> float:
    """argparse type for ``--duration``: a finite number of seconds > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number of seconds: {text!r}"
        ) from None
    if not (0.0 < value < float("inf")):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of seconds, got {text!r}"
        )
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GBooster reproduction experiment runner",
    )
    parser.add_argument(
        "--duration", type=_positive_seconds, default=60.0,
        help="simulated session length in seconds (default 60)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "quickstart": _cmd_quickstart,
        "fig5": _cmd_fig5,
        "fig6": _cmd_fig6,
        "fig7": _cmd_fig7,
        "fig1": _cmd_fig1,
        "prediction": _cmd_prediction,
        "multiuser": _cmd_multiuser,
        "adaptive": _cmd_adaptive,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
        "profile": _cmd_profile,
        "fuzz": _cmd_fuzz,
        "slo": _cmd_slo,
        "replay": _cmd_replay,
        "capacity": _cmd_capacity,
        "planner": _cmd_planner,
        "postmortem": _cmd_postmortem,
    }
    for name in commands:
        p = sub.add_parser(name)
        if name == "quickstart":
            p.add_argument("--game", default="G1",
                           choices=["G1", "G2", "G3", "G4", "G5", "G6"])
            p.add_argument("--device", default="LG Nexus 5")
        if name == "chaos":
            p.add_argument("--loss", type=float, nargs="+",
                           default=[0.0, 0.3],
                           help="loss-burst probabilities to sweep")
            p.add_argument("--outage", type=float, nargs="+",
                           default=[0.0, 2.0],
                           help="hard-outage durations (seconds) to sweep")
            p.add_argument("--no-crash", action="store_true",
                           help="skip the mid-session node crash")
        if name == "fleet":
            p.add_argument("--sessions", type=int, nargs="+",
                           default=[16, 32, 64, 96],
                           help="session counts to sweep")
            p.add_argument("--devices", type=int, default=8,
                           help="service devices in the pool")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--no-crash", action="store_true",
                           help="skip the mid-run device crash")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: assert fleet invariants on one "
                                "64-session point")
            p.add_argument("--workers", type=int, default=None,
                           help="fan shards across N worker processes "
                                "(enables the sharded kernel; digests are "
                                "byte-identical for any N at fixed "
                                "--shards)")
            p.add_argument("--shards", type=int, default=4,
                           help="kernel shards for --workers runs "
                                "(default 4; 1 reproduces the legacy "
                                "single-kernel digest)")
            p.add_argument("--window", type=float, default=1.0,
                           help="barrier window in simulated seconds for "
                                "--workers runs (default 1.0)")
        if name == "profile":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", default="BENCH_PIPELINE.json",
                           help="benchmark artifact path")
            p.add_argument("--trace-out", default="BENCH_TRACE.json",
                           help="Chrome trace-event export path")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: short run + schema validation "
                                "+ same-seed digest check")
        if name == "slo":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", default="BENCH_SLO.json",
                           help="SLO benchmark artifact path")
            p.add_argument("--baseline",
                           default="benchmarks/baselines/BENCH_SLO.json",
                           help="committed baseline to diff against "
                                "(empty string disables the gate)")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: short run + schema validation + "
                                "same-seed byte-identity + baseline diff")
            p.add_argument("--workers", type=int, default=1,
                           help="fan the independent scenarios across N "
                                "processes (artifact stays byte-identical "
                                "for any N)")
        if name == "replay":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", default="BENCH_REPLAY.json",
                           help="replay benchmark artifact path")
            p.add_argument("--baseline",
                           default="benchmarks/baselines/BENCH_REPLAY.json",
                           help="committed baseline to diff against "
                                "(empty string disables the gate)")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: short run + acceptance gates + "
                                "same-seed byte-identity + baseline diff")
        if name == "capacity":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", default="BENCH_CAPACITY.json",
                           help="capacity benchmark artifact path")
            p.add_argument("--baseline",
                           default="benchmarks/baselines/"
                                   "BENCH_CAPACITY.json",
                           help="committed baseline to diff against "
                                "(empty string disables the gate)")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: reduced grid + acceptance gates "
                                "+ same-seed byte-identity + baseline diff")
            p.add_argument("--workers", type=int, default=1,
                           help="fan grid points across N processes "
                                "(artifact stays byte-identical for any N)")
        if name == "planner":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", default="BENCH_PLANNER.json",
                           help="planner benchmark artifact path")
            p.add_argument("--baseline",
                           default="benchmarks/baselines/"
                                   "BENCH_PLANNER.json",
                           help="committed baseline to diff against "
                                "(empty string disables the gate)")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: short probes + acceptance gates "
                                "+ same-seed byte-identity + baseline diff")
            p.add_argument("--workers", type=int, default=1,
                           help="fan matrix cells across N processes "
                                "(artifact stays byte-identical for any N)")
        if name == "postmortem":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", default="BENCH_POSTMORTEM.json",
                           help="postmortem benchmark artifact path")
            p.add_argument("--bundle-out", default="POSTMORTEM_BUNDLE.json",
                           help="frozen flight-bundle artifact path")
            p.add_argument("--trace-out", default="POSTMORTEM_TRACE.json",
                           help="merged Chrome trace (flow events) path")
            p.add_argument("--baseline",
                           default="benchmarks/baselines/"
                                   "BENCH_POSTMORTEM.json",
                           help="committed baseline to diff against "
                                "(empty string disables the gate)")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: short run + acceptance gates "
                                "+ same-seed byte-identity + baseline diff")
            p.add_argument("--workers", type=int, default=1,
                           help="fan the scenarios across N processes "
                                "(artifact stays byte-identical for any N)")
        if name == "fuzz":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--rounds", type=int, default=1,
                           help="case-budget multiplier per property")
            p.add_argument("--corpus", default=None,
                           help="directory to write shrunk failing cases "
                                "into (regression fixtures)")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: reduced case budget + same-seed "
                                "digest check")
    args = parser.parse_args(argv)
    commands[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
