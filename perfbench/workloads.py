"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
timed repeat of one input variant in ``repeat``.  Variant ``i`` of seed
``s`` simulates with seed ``variants * s + i``.  Host cost and simulated
response move from one simulation seed to the next (a 10 s paper session's
response by about 9%, interquartile), so a workload with several variants
reports figures that move less with the benchmark seed.  A repeat returns
an :class:`Outcome`: a
digest of everything the simulation produced (the output check compares
it across repeats, against the traced run and against a recorded
reference) plus the simulated figures and the work counters read off the
result.  Why each workload exists is recorded in ``WHY`` and in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.apps.games import GAMES
from repro.core import session as core_session
from repro.core.config import GBoosterConfig
from repro.devices.profiles import LG_G5, NVIDIA_SHIELD
from repro.experiments import fleet as fleet_experiment
from repro.replay import ReplayHub
from repro.sim.kernel import Simulator

#: simulated session length of one repeat of a session workload
SESSION_MS = 10_000.0

#: the warm-up session set-up runs before the first timed repeat
WARMUP_MS = 1_000.0

FLEET_SESSIONS = 256
FLEET_DEVICES = 32
FLEET_SESSION_MS = 10_000.0

#: warm sessions ``settle`` may run before the replay store stops changing
MAX_SETTLE_SESSIONS = 6

WHY = {
    "paper_session": (
        "the paper's G3 / LG G5 -> Nvidia Shield session, default config; "
        "gles-heavy, and the control where LZ77 barely runs"
    ),
    "planner_session": (
        "G2 under the planner, committing to WiFi on every seed, with "
        "telemetry, causal tracing and flight recorder; real LZ77 probes; "
        "the only plan and obs load"
    ),
    "fleet_crash": (
        "256 sessions on 32 devices with a crash and rejoin; kernel and "
        "fleet heavy, never touches gles, codec or net"
    ),
    "replay_warm": (
        "G5 replay warm sessions (R4 config): the replay store's read side "
        "and the check layer; the cold recording lands in set-up"
    ),
}


@dataclass
class Outcome:
    """What one repeat produced."""

    digest: str
    frames_offered: int
    frames_failed: int
    sim_fps_median: float
    sim_response_ms: float
    #: exact work counters read off the result (``<layer>.<name>``)
    counters: Dict[str, float] = field(default_factory=dict)


def digest_of(summary: Dict[str, Any]) -> str:
    blob = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def session_summary(result) -> Dict[str, Any]:
    """Every simulated output of one offload session that the check pins."""
    stats = result.client_stats
    engine = result.engine
    summary: Dict[str, Any] = {
        "frames": len(engine.frames),
        "presented": sum(1 for f in engine.frames if f.presented_at is not None),
        "fps": result.fps.median_fps,
        "fps_series": list(result.fps.fps_series),
        "fps_stability": result.fps.stability,
        "mean_response_ms": result.fps.mean_response_ms,
        "response_ms": result.response_time_ms,
        "t_p_ms": result.t_p_ms,
        "energy_j": result.energy.total_j,
        "uplink_bytes": stats.uplink_bytes,
        "downlink_bytes": stats.downlink_bytes,
        "frames_submitted": stats.frames_submitted,
        "frames_presented": stats.frames_presented,
        "switching": vars(result.switching),
        "traffic_mbps": result.traffic_samples_mbps,
    }
    if result.replay is not None:
        summary["replay"] = result.replay.stats.as_dict()
    if result.check is not None:
        summary["digest_stream"] = result.check.digests.stream()
        summary["violations"] = len(result.check.violations)
    if result.causal is not None:
        summary["causal"] = result.causal.summary()
    if result.telemetry is not None:
        summary["alerts"] = result.telemetry.alert_count()
    return summary


def session_outcome(result) -> Outcome:
    summary = session_summary(result)
    stats = result.client_stats
    replay = result.replay.stats if result.replay is not None else None
    counters = {
        "core.frames_submitted": stats.frames_submitted,
        "core.frames_delivered": stats.frames_presented,
        "obs.spans_dropped": result.engine.sim.spans.dropped,
        "replay.hits": replay.hits if replay is not None else 0,
        "replay.records": replay.records if replay is not None else 0,
    }
    return Outcome(
        digest=digest_of(summary),
        frames_offered=summary["frames"],
        frames_failed=summary["frames"] - summary["presented"],
        sim_fps_median=result.fps.median_fps,
        sim_response_ms=result.response_time_ms,
        counters=counters,
    )


class Workload:
    """One named input set: ``setup(seed)`` once, ``repeat()`` many times."""

    name = ""
    #: input variants; repeat ``i`` runs variant ``i % variants``
    variants = 1
    #: simulated seconds one repeat covers (the wall-time denominator)
    sim_seconds = 0.0

    def __init__(self) -> None:
        #: digest a variant's every repeat must reproduce, where set-up
        #: already knows it
        self.expected_digests: Dict[int, str] = {}
        #: simulation seed of each variant, set by ``setup``
        self.seeds = [0] * self.variants

    def variant_seeds(self, seed: int) -> List[int]:
        return [seed * self.variants + i for i in range(self.variants)]

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def settle(self) -> None:
        """Untimed preparation after set-up; most workloads need none."""

    def repeat(self, variant: int) -> Outcome:
        raise NotImplementedError


class SessionWorkload(Workload):
    """A single offload session of one title on LG G5 -> Nvidia Shield."""

    game = ""
    variants = 4

    def __init__(self) -> None:
        super().__init__()
        self.sim_seconds = SESSION_MS / 1000.0

    def config(self) -> GBoosterConfig:
        return GBoosterConfig()

    def session(self, seed: int, duration_ms: float):
        # Called through its module, so the traced run's wrapper is seen.
        return core_session.run_offload_session(
            GAMES[self.game], LG_G5, [NVIDIA_SHIELD],
            config=self.config(), duration_ms=duration_ms, seed=seed,
        )

    def setup(self, seed: int) -> None:
        self.seeds = self.variant_seeds(seed)
        self.session(self.seeds[0], WARMUP_MS)

    def repeat(self, variant: int) -> Outcome:
        return session_outcome(
            self.session(self.seeds[variant], SESSION_MS)
        )


class PaperSession(SessionWorkload):
    name = "paper_session"
    game = "G3"


class PlannerSession(SessionWorkload):
    """The planner's probe-and-commit path on an offloading session.

    G2 rather than G1: G1's local and WiFi probe scores lie within
    0.03-0.6 of each other, so its commit flips with the seed, and a
    "local" commit parks the session on Bluetooth (68-197 ms responses
    against 32 ms).  Host cost and every simulated figure then depend on which
    way the tie broke.  G2 commits to WiFi by a 1.5-1.9 margin on every
    seed tried.
    """

    name = "planner_session"
    game = "G2"
    #: the probe phase makes a 10 s session's simulated response move
    #: about 13% from seed to seed, so more variants than paper_session
    variants = 6

    def config(self) -> GBoosterConfig:
        return GBoosterConfig(
            switching_policy="planner",
            telemetry=True,
            causal_tracing=True,
            flight_recorder=True,
        )


class ReplayWarm(SessionWorkload):
    """Steady-state warm sessions against a store recorded in set-up."""

    name = "replay_warm"
    game = "G5"
    #: one title store per run; warm sessions barely vary with the seed
    variants = 1

    def __init__(self) -> None:
        super().__init__()
        self.hub: Optional[ReplayHub] = None
        self.sessions = 0

    def config(self) -> GBoosterConfig:
        return GBoosterConfig(
            replay=True, check=True, deterministic_content=True
        )

    def session(self, seed: int, duration_ms: float):
        # Fresh session ids: a recorder never replays its own intervals.
        session_id = "cold" if self.sessions == 0 else f"warm{self.sessions}"
        self.sessions += 1
        return core_session.run_offload_session(
            GAMES[self.game], LG_G5, [NVIDIA_SHIELD],
            config=self.config(), duration_ms=duration_ms, seed=seed,
            replay_hub=self.hub, replay_session_id=session_id,
        )

    def setup(self, seed: int) -> None:
        """Record cold, then run the first, verifying warm session.

        This is the replay store's write side, and the same work on every
        seed: two sessions.
        """
        self.seeds = self.variant_seeds(seed)
        self.hub = ReplayHub(
            capacity_bytes_per_title=self.config().replay_store_bytes
        )
        self.sessions = 0
        self.session(self.seeds[0], SESSION_MS)
        self.session(self.seeds[0], SESSION_MS)

    def settle(self) -> None:
        """Run warm sessions until the store stops changing.

        A warm session may still verify and promote entries; one that
        records, verifies and promotes nothing leaves the store unchanged,
        so every later repeat must reproduce it.  How many sessions that
        takes (one or two after set-up) depends on the seed, so this is
        kept out of ``setup_s``.
        """
        for _ in range(MAX_SETTLE_SESSIONS):
            result = self.session(self.seeds[0], SESSION_MS)
            stats = result.replay.stats
            if stats.records == stats.verifies == stats.promotions == 0:
                self.expected_digests[0] = session_outcome(result).digest
                return
        raise RuntimeError(
            f"replay store still changing after {MAX_SETTLE_SESSIONS} "
            "warm sessions"
        )


@contextlib.contextmanager
def capture_fleet_controller() -> Iterator[List[Any]]:
    """Collect the controller ``run_fleet_point`` builds.

    The fleet point reports per-tier totals only; the per-session frame
    counts behind ``sim_fps_median`` live on the controller's sessions.
    """
    captured: List[Any] = []
    base = fleet_experiment.FleetController

    class Capturing(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured.append(self)

    fleet_experiment.FleetController = Capturing
    try:
        yield captured
    finally:
        fleet_experiment.FleetController = base


class FleetCrash(Workload):
    name = "fleet_crash"
    variants = 4

    def __init__(self) -> None:
        super().__init__()
        #: session-seconds: every session runs the full duration
        self.sim_seconds = FLEET_SESSIONS * FLEET_SESSION_MS / 1000.0

    def run(self, seed: int, n_sessions: int, duration_ms: float) -> Outcome:
        sim = Simulator(seed=seed)
        with capture_fleet_controller() as captured:
            point, report = fleet_experiment.run_fleet_point(
                n_sessions=n_sessions, n_devices=FLEET_DEVICES,
                duration_ms=duration_ms, seed=seed, crash=True, sim=sim,
            )
        controller = captured[0]
        sessions = controller.finished + list(controller.active.values())
        seconds = duration_ms / 1000.0
        fps = [len(s.response_times_ms) / seconds for s in sessions]
        tiers = report["tiers"].values()
        frames = sum(t["frames"] for t in tiers)
        response = (
            sum(t["frames"] * t["mean_response_ms"] for t in tiers) / frames
            if frames else 0.0
        )
        return Outcome(
            digest=point.digest,
            frames_offered=point.frames + point.frames_lost,
            frames_failed=point.frames_lost,
            sim_fps_median=statistics.median(fps) if fps else 0.0,
            sim_response_ms=response,
            counters={
                "fleet.frames": point.frames,
                "fleet.migrations": point.migrations,
                "obs.spans_dropped": sim.spans.dropped,
            },
        )

    def setup(self, seed: int) -> None:
        self.seeds = self.variant_seeds(seed)
        self.run(self.seeds[0], FLEET_SESSIONS // 8, WARMUP_MS)

    def repeat(self, variant: int) -> Outcome:
        return self.run(self.seeds[variant], FLEET_SESSIONS, FLEET_SESSION_MS)


WORKLOADS = {
    cls.name: cls
    for cls in (PaperSession, PlannerSession, FleetCrash, ReplayWarm)
}
