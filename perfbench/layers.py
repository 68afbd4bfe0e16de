"""Per-layer metrics of the traced run.

``<layer>.self_ms`` is the layer's self time in host ms per simulated
second and ``<layer>.share`` its fraction of the traced repeat's wall
time; together with ``trace.unattributed_share`` (time outside every
span: the benchmark's own glue) the shares sum to 1.  The other counters
are exact: call counts of named functions, sizes seen by the observers
below, and figures read off the repeat's result.

``COUNTED`` names every function a counter reads.  The self-test checks
that each one is wrapped, so a rename in the program fails the test
instead of silently reporting 0.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from layertrace import LayerTrace

#: every ``src/repro/<layer>`` directory, in report order
LAYERS = (
    "sim", "fleet", "apps", "gles", "codec", "core", "net", "switching",
    "predict", "plan", "replay", "obs", "check",
    "analysis", "baselines", "devices", "dispatch", "experiments",
    "faults", "gpu", "linker", "metrics",
)

SPAWN = ("sim", "kernel.Simulator.spawn")
SPAWN_AT = ("sim", "kernel.Simulator.spawn_at")
PLACE = ("fleet", "placement.SessionPlacer.place")
FRAME_COMMANDS = ("apps", "base.CommandBatchBuilder.frame_commands")
SETUP_COMMANDS = ("apps", "base.CommandBatchBuilder.setup_commands")
SERIALIZE = ("gles", "serialization.serialize_command")
KEY = ("gles", "commands.GLCommand.key")
EXECUTE = ("gles", "context.GLContext.execute")
PROCESS_FRAME = ("codec", "pipeline.CommandPipeline.process_frame")
LZ77 = ("codec", "lz77.compress")
TRANSPORT_SEND = ("net", "transport.Transport.send")
MULTICAST_SEND = ("net", "multicast.MulticastGroup.send")
#: where the transports deliver messages (bound at session build time)
DELIVERIES = (
    ("core", "client.GBoosterClient.on_frame_delivered"),
    ("core", "server.ServiceNode.on_frame_message"),
    ("core", "server.ServiceNode.on_state_message"),
)
DECIDE = (
    ("switching", "policies.PredictivePolicy.decide"),
    ("switching", "policies.ReactivePolicy.decide"),
    ("switching", "policies.PlannerPolicy.decide"),
    ("switching", "policies.AlwaysWifiPolicy.decide"),
    ("switching", "policies.AlwaysBluetoothPolicy.decide"),
)
PROBE = ("plan", "probe.ProbeRunner.probe")
COMMIT = ("plan", "planner.SessionPlanner.probe_and_commit")
CLASSIFY = ("replay", "session.ReplaySession.classify")
SPAN_ADD = ("obs", "spans.SpanRecorder.add")
OBSERVE = ("obs", "telemetry.TelemetryHub.observe")
CAUSAL_EVENT = ("obs", "causal.CausalLog.event")
CHECK_SWEEP = ("check", "invariants.InvariantMonitor.check_now")
DIGEST_RECORDS = (
    ("check", "digest.DigestLog.record_issue"),
    ("check", "digest.DigestLog.record_execution"),
)

COUNTED = (
    SPAWN, SPAWN_AT, PLACE, FRAME_COMMANDS, SETUP_COMMANDS, SERIALIZE, KEY,
    EXECUTE, PROCESS_FRAME, LZ77, TRANSPORT_SEND, MULTICAST_SEND,
    *DELIVERIES, *DECIDE, PROBE, COMMIT, CLASSIFY, SPAN_ADD, OBSERVE,
    CAUSAL_EVENT, CHECK_SWEEP, *DIGEST_RECORDS,
)

#: ``(name, unit)`` of every per-layer metric, in report order
COUNTERS = (
    ("sim.events", "count"),
    ("sim.spawns", "count"),
    ("sim.us_per_event", "us"),
    ("fleet.frames", "count"),
    ("fleet.placements", "count"),
    ("fleet.migrations", "count"),
    ("apps.commands_built", "count"),
    ("gles.commands_serialized", "count"),
    ("gles.serialized_mb", "MB"),
    ("gles.serialize_mb_per_s", "MB/s"),
    ("gles.key_calls", "count"),
    ("gles.key_calls_per_command", "ratio"),
    ("gles.commands_executed", "count"),
    ("codec.frames", "count"),
    ("codec.cache_hit_ratio", "ratio"),
    ("codec.wire_ratio", "ratio"),
    ("codec.lz77_calls", "count"),
    ("codec.lz77_in_mb", "MB"),
    ("codec.lz77_ms", "ms"),
    ("codec.lz77_mb_per_s", "MB/s"),
    ("core.frames_submitted", "count"),
    ("core.frames_delivered", "count"),
    ("net.sends", "count"),
    ("net.deliveries_per_send", "ratio"),
    ("switching.decisions", "count"),
    ("plan.probes", "count"),
    ("plan.probe_ms", "ms"),
    ("plan.commits", "count"),
    ("replay.classifications", "count"),
    ("replay.hit_ratio", "ratio"),
    ("replay.records", "count"),
    ("obs.spans", "count"),
    ("obs.spans_dropped", "count"),
    ("obs.telemetry_observations", "count"),
    ("obs.causal_events", "count"),
    ("check.sweeps", "count"),
    ("check.digests", "count"),
    ("trace.wall_ms_per_sim_s", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def metric_units() -> List[tuple]:
    """Every per-layer metric ``(name, unit)`` the traced run prints."""
    units = []
    for layer in LAYERS:
        units.append((f"{layer}.self_ms", "ms"))
        units.append((f"{layer}.share", "ratio"))
    units.extend(COUNTERS)
    return units


class Sizes:
    """Byte and item totals the observers collect during a traced repeat."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.commands_built = 0
        self.serialized_bytes = 0
        self.lz77_in_bytes = 0
        self.frame_commands = 0
        self.frame_cache_hits = 0
        self.frame_raw_bytes = 0
        self.frame_wire_bytes = 0

    def attach(self, trace: LayerTrace) -> None:
        def built(args, kwargs, result):
            self.commands_built += len(result)

        def serialized(args, kwargs, result):
            self.serialized_bytes += len(result)

        def compressed(args, kwargs, result):
            self.lz77_in_bytes += len(args[0])

        def egress(args, kwargs, result):
            if result.kind == "full":
                self.frame_commands += result.commands
                self.frame_cache_hits += result.cache_hits
                self.frame_raw_bytes += result.raw_bytes
                self.frame_wire_bytes += result.wire_bytes

        trace.observe(*FRAME_COMMANDS, built)
        trace.observe(*SETUP_COMMANDS, built)
        trace.observe(*SERIALIZE, serialized)
        trace.observe(*LZ77, compressed)
        trace.observe(*PROCESS_FRAME, egress)


def traced_pass(
    trace: LayerTrace,
    sizes: Sizes,
    modules: List[Any],
    variants: int,
    run_variant: Callable[[int], Tuple[float, Any]],
) -> Tuple[float, Dict[str, float]]:
    """Run every variant once with the wrappers installed.

    ``run_variant(v)`` returns ``(wall seconds, outcome or None)``.
    Returns the pass's wall time and its result counters summed over the
    variants; the spans and call counts stay on ``trace``.
    """
    trace.install(modules)
    trace.reset()
    sizes.reset()
    wall = 0.0
    counters: Dict[str, float] = {}
    try:
        for variant in range(variants):
            seconds, outcome = run_variant(variant)
            wall += seconds
            if outcome is not None:
                for name, value in outcome.counters.items():
                    counters[name] = counters.get(name, 0) + value
    finally:
        trace.uninstall()
    return wall, counters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    trace: LayerTrace,
    sizes: Sizes,
    counters: Dict[str, float],
    sim_seconds: float,
    traced_wall_s: float,
) -> Dict[str, float]:
    """All per-layer metrics of one traced pass.

    ``counters`` are the figures read off the pass's results;
    ``trace.overhead_ratio`` needs the untraced passes and is left 0
    for the caller to fill in.
    """
    count = trace.count
    per_sim_s = 1000.0 / sim_seconds
    self_s = trace.layer_self_s()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        seconds = self_s.get(layer, 0.0)
        out[f"{layer}.self_ms"] = seconds * per_sim_s
        out[f"{layer}.share"] = _ratio(seconds, traced_wall_s)
    events = trace.process_resumes()
    serialized = count(*SERIALIZE)
    serialized_mb = sizes.serialized_bytes / 1e6
    lz77_mb = sizes.lz77_in_bytes / 1e6
    lz77_s = trace.inclusive_s(*LZ77)
    sends = count(*TRANSPORT_SEND) + count(*MULTICAST_SEND)
    classifications = count(*CLASSIFY)
    out.update({
        "sim.events": events,
        "sim.spawns": count(*SPAWN) + count(*SPAWN_AT),
        "sim.us_per_event": _ratio(self_s.get("sim", 0.0) * 1e6, events),
        "fleet.frames": counters.get("fleet.frames", 0),
        "fleet.placements": count(*PLACE),
        "fleet.migrations": counters.get("fleet.migrations", 0),
        "apps.commands_built": sizes.commands_built,
        "gles.commands_serialized": serialized,
        "gles.serialized_mb": serialized_mb,
        "gles.serialize_mb_per_s": _ratio(
            serialized_mb, trace.inclusive_s(*SERIALIZE)
        ),
        "gles.key_calls": count(*KEY),
        "gles.key_calls_per_command": _ratio(count(*KEY), serialized),
        "gles.commands_executed": count(*EXECUTE),
        "codec.frames": count(*PROCESS_FRAME),
        "codec.cache_hit_ratio": _ratio(
            sizes.frame_cache_hits, sizes.frame_commands
        ),
        "codec.wire_ratio": _ratio(
            sizes.frame_wire_bytes, sizes.frame_raw_bytes
        ),
        "codec.lz77_calls": count(*LZ77),
        "codec.lz77_in_mb": lz77_mb,
        "codec.lz77_ms": lz77_s * 1000.0,
        "codec.lz77_mb_per_s": _ratio(lz77_mb, lz77_s),
        "core.frames_submitted": counters.get("core.frames_submitted", 0),
        "core.frames_delivered": counters.get("core.frames_delivered", 0),
        "net.sends": sends,
        "net.deliveries_per_send": _ratio(
            sum(count(*key) for key in DELIVERIES), sends
        ),
        "switching.decisions": sum(count(*key) for key in DECIDE),
        "plan.probes": count(*PROBE),
        "plan.probe_ms": trace.inclusive_s(*PROBE) * 1000.0,
        "plan.commits": count(*COMMIT),
        "replay.classifications": classifications,
        "replay.hit_ratio": _ratio(
            counters.get("replay.hits", 0), classifications
        ),
        "replay.records": counters.get("replay.records", 0),
        "obs.spans": count(*SPAN_ADD),
        "obs.spans_dropped": counters.get("obs.spans_dropped", 0),
        "obs.telemetry_observations": count(*OBSERVE),
        "obs.causal_events": count(*CAUSAL_EVENT),
        "check.sweeps": count(*CHECK_SWEEP),
        "check.digests": sum(count(*key) for key in DIGEST_RECORDS),
        "trace.wall_ms_per_sim_s": traced_wall_s * per_sim_s,
        "trace.overhead_ratio": 0.0,
        "trace.unattributed_share": _ratio(
            traced_wall_s - trace.top_level_s, traced_wall_s
        ),
    })
    return out
