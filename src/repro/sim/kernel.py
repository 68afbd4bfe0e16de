"""Event loop, processes and synchronization primitives.

The kernel is a conventional coroutine-based discrete-event simulator in the
style of SimPy, kept intentionally small and fully deterministic:

* :class:`Simulator` owns the event queue and the clock (milliseconds).
* :class:`Process` wraps a generator; the generator yields *waitables*
  (events, delays, or other processes) and is resumed when they fire.
* :class:`Callback` is one-shot deferred work: a cancellable callable run
  after a delay (``call_later``/``call_at``) or when an event triggers
  (``on_trigger``).  Timeouts and ``any_of``/``all_of`` are built on it.
* Ties in the event queue are broken by insertion order, never by object
  identity, so two runs with the same seed replay identically.

Ordering contract: a callback is armed like a spawned process's first
step.  Creating one queues an entry at ``now``; its dispatch queues the
real entry at ``now + delay`` (or joins the event's waiter list).  Pushed
at once, the entry would take an earlier insertion number than same-time
wake-ups queued in between, reordering ties against processes and moving
every committed digest.  So callbacks and processes delayed alike fire in
creation order, and an event's waiters of both kinds in registration order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.random import RandomStream
from repro.sim.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double triggers, time travel, ...)."""


def _check_delay(delay: float, site: str, owner: str = "") -> float:
    """Reject a negative or NaN delay where it is made, not in the queue."""
    if not delay >= 0:
        who = f"{site} {owner!r}" if owner else site
        raise SimulationError(f"{who}: negative or NaN delay {delay!r}")
    return float(delay)


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once with an optional value.  Processes
    waiting on it are resumed at the trigger time, in the order they started
    waiting.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        #: processes and callbacks, in the order they started waiting
        self._waiters: List[Any] = []

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event, waking all waiters at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        for proc in self._waiters:
            self.sim._schedule_resume(proc, value)
        self._waiters.clear()
        return self

    def add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def remove_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class TimerEvent(Event):
    """The event :meth:`Simulator.timeout` returns, fired by its ``timer``.

    Any trigger cancels the timer, so a satisfied timeout never keeps
    :meth:`Simulator.run` alive for the rest of its delay; ``cancel``
    abandons it without triggering (how ``any_of`` reaps losing timeouts).
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        super().__init__(sim, name=name)
        #: the callback that fires this event
        self.timer: Optional["Callback"] = None

    def trigger(self, value: Any = None) -> "Event":
        super().trigger(value)
        if self.timer is not None:
            self.timer.cancel()  # no-op when the timer itself fired
        return self

    def cancel(self) -> None:
        """Abandon the pending timer without ever triggering the event."""
        if not self.triggered and self.timer is not None:
            self.timer.cancel()


class CompositeEvent(Event):
    """An event combined from other events (``any_of`` / ``all_of``).

    Each source gets an event callback running ``on_source(index, value)``.
    :meth:`abandon` cancels them (on a source that never fires they would
    pin an ``all_of``'s partial values forever) and reaps orphaned pending
    timeouts, as ``any_of`` does to its losers; :meth:`Simulator.teardown`
    abandons every composite still pending.
    """

    def __init__(
        self,
        sim: "Simulator",
        events: Iterable[Event],
        name: str,
        on_source: Callable[[int, Any], None],
    ):
        super().__init__(sim, name=name)
        self._sources = list(events)
        self._callbacks = [
            Callback(sim, functools.partial(on_source, idx), event=evt)
            for idx, evt in enumerate(self._sources)
        ]
        sim._composites[self] = None

    def trigger(self, value: Any = None) -> "Event":
        super().trigger(value)
        self.sim._composites.pop(self, None)
        return self

    def abandon(self) -> None:
        """Detach the callbacks; the composite will never be waited on."""
        self._reap()
        self.sim._composites.pop(self, None)

    def _reap(self, keep: int = -1) -> None:
        # Cancel every callback but the winner's first, so a timeout that
        # only this composite waited on has an empty waiter list below.
        for j, callback in enumerate(self._callbacks):
            if j != keep:
                callback.cancel()
        for j, evt in enumerate(self._sources):
            if (
                j != keep
                and isinstance(evt, TimerEvent)
                and not evt._waiters
            ):
                evt.cancel()


class Callback:
    """A cancellable deferred call: ``fn()`` after a delay, or
    ``fn(value)`` when an event triggers.  The run loop drives it like a
    :class:`Process`; its first step only arms it (see the module
    docstring), and it never re-arms, so ``alive`` alone marks it dead.
    """

    __slots__ = ("sim", "fn", "alive", "_delay", "_event", "_armed")

    _gen = 0

    def __init__(
        self,
        sim: "Simulator",
        fn: Callable[..., None],
        delay: float = 0.0,
        event: Optional[Event] = None,
    ):
        self.sim = sim
        self.fn = fn
        self.alive = True
        self._delay = delay
        self._event = event
        self._armed = False
        sim._schedule_resume(self, None)

    def cancel(self) -> None:
        """Never run ``fn``; idempotent, and a no-op once it has run."""
        if self.alive:
            self.alive = False
            if self._event is not None:
                self._event.remove_waiter(self)

    def _step(self, value: Any) -> None:
        if not self._armed:
            self._armed = True
            if self._event is None:
                self.sim._schedule_resume(self, None, delay=self._delay)
            else:
                self._event.add_waiter(self)
            return
        self.alive = False
        if self._event is None:
            self.fn()
        else:
            self.fn(value)


class Process:
    """A running coroutine on the simulator.

    The wrapped generator may yield:

    * a ``float``/``int`` — sleep for that many milliseconds;
    * an :class:`Event` — wait until it is triggered (resumes with its value);
    * another :class:`Process` — wait for it to finish (resumes with its
      return value);
    * ``None`` — yield control and resume immediately (same timestamp).

    When the generator returns, the process's completion event fires with the
    returned value.
    """

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(sim, name=f"{self.name}.done")
        self.alive = True
        self._waiting_on: Optional[Event] = None
        self._pending_interrupt: Optional[Interrupt] = None
        #: resume generation.  Every queue entry is stamped with the
        #: generation current when it was scheduled; interrupting or
        #: killing the process bumps it, so a resumption that was already
        #: sitting in the queue (a delay sleep has no ``_waiting_on`` to
        #: detach from) is recognized as stale and discarded instead of
        #: waking the process a second time with a spurious ``None``.
        self._gen = 0

    @property
    def result(self) -> Any:
        if not self.done.triggered:
            raise SimulationError(f"process {self.name!r} has not finished")
        return self.done.value

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.alive:
            return
        self._detach()
        # Invalidate whatever resumption is already queued (a plain delay
        # sleep keeps one there); only the interrupt resume below is live.
        self._gen += 1
        self._pending_interrupt = Interrupt(cause)
        self.sim._schedule_resume(self, None)

    def kill(self) -> None:
        """Tear the process down immediately, without running it again.

        Unlike :meth:`interrupt`, no resumption is scheduled: the process is
        detached from whatever it was waiting on, its generator is closed,
        and any stale entry it still has in the event queue is skipped by
        the run loop *without advancing the clock*.
        """
        if not self.alive:
            return
        self._detach()
        self.alive = False
        self._gen += 1
        self._pending_interrupt = None
        self.gen.close()
        if not self.done.triggered:
            self.done.trigger(None)

    def _detach(self) -> None:
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None

    def _step(self, value: Any) -> None:
        """Advance the generator by one yield."""
        self._waiting_on = None
        try:
            if self._pending_interrupt is not None:
                exc = self._pending_interrupt
                self._pending_interrupt = None
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.done.trigger(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as a clean cancel.
            self.alive = False
            self.done.trigger(None)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        sim = self.sim
        if target is None:
            sim._schedule_resume(self, None)
        elif isinstance(target, (int, float)):
            delay = _check_delay(target, "process", self.name)
            sim._schedule_resume(self, None, delay=delay)
        elif isinstance(target, Event):
            self._waiting_on = target
            target.add_waiter(self)
        elif isinstance(target, Process):
            self._waiting_on = target.done
            target.done.add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop: a clock plus a priority queue of resumptions."""

    def __init__(
        self,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        shard_id: int = 0,
    ):
        # Deferred import: repro.obs sits above repro.sim in the layer
        # diagram; importing it at module scope would be circular.
        from repro.obs.registry import MetricsRegistry
        from repro.obs.ring import RingTracer
        from repro.obs.spans import SpanRecorder

        if shard_id < 0:
            raise SimulationError(f"negative shard_id {shard_id}")
        self.seed = seed
        #: which shard of a partitioned fleet this kernel simulates; random
        #: streams are namespaced by it so sibling shards never share draws
        #: (shard 0 keeps the legacy single-kernel derivation exactly)
        self.shard_id = shard_id
        self.now = 0.0
        self.tracer = tracer or RingTracer()
        #: frame/stage span recorder; substrates emit hierarchical spans here
        self.spans = SpanRecorder(clock=lambda: self.now)
        #: counters / gauges / histograms registry
        self.metrics = MetricsRegistry()
        #: optional repro.check.DigestLog; substrates record per-frame
        #: command digests here when differential replay is armed
        self.digests: Optional[Any] = None
        #: optional repro.check.InvariantMonitor; notified of new timers
        self.monitor: Optional[Any] = None
        #: optional repro.obs.telemetry.TelemetryHub; substrates stream
        #: labeled time-series observations here when armed
        self.telemetry: Optional[Any] = None
        #: optional repro.obs.causal.CausalLog; components on a frame's
        #: path record wire-propagated causal events here when armed
        self.causal: Optional[Any] = None
        #: optional repro.obs.flight.FlightRecorder; alert/violation/
        #: replan triggers freeze postmortem bundles here when armed
        self.flight: Optional[Any] = None
        #: ``(when, order, owner, generation, value)``; owners duck-type
        #: :class:`Process` (``alive``, ``_gen``, ``_step``)
        self._queue: List[Tuple[float, int, Any, int, Any]] = []
        self._counter = itertools.count()
        self._message_seq = itertools.count(1)
        self._streams: dict = {}
        self._processes: List[Process] = []
        #: composites not yet triggered or abandoned, in creation order
        self._composites: dict[CompositeEvent, None] = {}

    def next_message_id(self) -> int:
        """The next sim-scoped network message id.

        Message ids land in trace records (link drops) and so in frozen
        flight bundles; drawing them from the sim instead of the
        process-global fallback counter keeps those artifacts a pure
        function of the seed no matter how many sims one process ran.
        """
        return next(self._message_seq)

    # -- randomness ---------------------------------------------------------

    def stream(self, name: str) -> RandomStream:
        """Return the named random stream, creating it deterministically.

        The stream is a pure function of ``(seed, shard_id, name)`` —
        never of creation order — so two runs that create their streams in
        different orders draw identical sequences per name, and sibling
        shards of a partitioned fleet draw from disjoint namespaces.
        """
        if name not in self._streams:
            self._streams[name] = RandomStream(
                self.seed, name, shard_id=self.shard_id
            )
        return self._streams[name]

    # -- process / event management ----------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process; it first runs at the current time."""
        proc = self._register(Process(self, gen, name=name))
        self._schedule_resume(proc, None)
        return proc

    def spawn_at(self, when: float, gen: Generator, name: str = "") -> Process:
        """Start a new process at absolute time ``when``, exactly.

        Unlike ``spawn`` + an initial delay yield, the first step is
        queued at the literal float ``when`` — no ``now + (when - now)``
        round trip — so processes anchored to a shared epoch wake at
        bit-identical times regardless of the current clock value.
        """
        _check_delay(when - self.now, "spawn_at", name)
        proc = self._register(Process(self, gen, name=name))
        self._schedule_resume(proc, None, at=when)
        return proc

    def _register(self, proc: Process) -> Process:
        self._processes.append(proc)
        # Keep the registry of long sessions from growing without bound.
        if len(self._processes) > 8192:
            self._processes = [p for p in self._processes if p.alive]
        return proc

    def call_later(
        self, delay: float, fn: Callable[[], None], name: str = ""
    ) -> Callback:
        """Run ``fn()`` in ``delay`` ms unless the handle is cancelled."""
        return Callback(self, fn, _check_delay(delay, "call_later", name))

    def call_at(
        self, when: float, fn: Callable[[], None], name: str = ""
    ) -> Callback:
        """Run ``fn()`` at ``now + (when - now)`` (``spawn_at`` is exact)."""
        return Callback(self, fn, _check_delay(when - self.now, "call_at", name))

    def on_trigger(self, event: Event, fn: Callable[[Any], None]) -> Callback:
        """Run ``fn(value)`` when ``event`` triggers (at once if it has)."""
        return Callback(self, fn, event=event)

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> "TimerEvent":
        """A cancellable :class:`TimerEvent` firing ``delay`` ms from now."""
        delay = _check_delay(delay, "timeout", name)
        evt = TimerEvent(self, name=name or f"timeout@{self.now + delay:.3f}")
        evt.timer = Callback(self, lambda: evt.trigger(value), delay=delay)
        if self.monitor is not None:
            self.monitor.note_timer(evt)
        return evt

    def any_of(self, events: Iterable[Event], name: str = "any") -> Event:
        """An event that fires when the first of ``events`` fires.

        The value is ``(index, value)`` of the winner.  The winner cancels
        the losers' callbacks and any losing timeout nobody else awaits:
        a race against a 10-second timeout must not keep :meth:`run`
        alive for 10 seconds after the data arrived.
        """

        def _won(idx: int, value: Any) -> None:
            if not combined.triggered:
                combined.trigger((idx, value))
                combined._reap(keep=idx)

        combined = CompositeEvent(self, events, name, _won)
        return combined

    def all_of(self, events: Iterable[Event], name: str = "all") -> Event:
        """An event that fires when every one of ``events`` has fired.

        The value is the list of the sources' values.  ``abandon()`` (or
        :meth:`teardown`) detaches the callbacks if a source never fires.
        """
        events = list(events)
        remaining = [len(events)]
        values: List[Any] = [None] * len(events)

        def _fired(idx: int, value: Any) -> None:
            values[idx] = value
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.trigger(list(values))

        combined = CompositeEvent(self, events, name, _fired)
        if not events:
            combined.trigger([])
        return combined

    def teardown(self) -> None:
        """Dispose of the simulation: abandon pending composites, kill live
        processes, cancel queued callbacks and clear the queue.  No live
        coroutine is left, so a shard worker can discard thousands of
        finished kernels without leaking suspended generator frames.
        """
        for composite in list(self._composites):
            composite.abandon()
        for proc in list(self._processes):
            if proc.alive:
                proc.kill()
        self._processes = []
        for _when, _order, owner, _gen, _value in self._queue:
            if isinstance(owner, Callback):
                owner.cancel()
        self._queue.clear()

    # -- scheduling internals ------------------------------------------------

    def _schedule_resume(
        self,
        proc: Any,
        value: Any,
        delay: float = 0.0,
        at: Optional[float] = None,
    ) -> None:
        when = self.now + delay if at is None else at
        heapq.heappush(
            self._queue,
            (when, next(self._counter), proc, proc._gen, value),
        )

    # -- running --------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or the clock passes ``until``.

        Returns the final simulation time.
        """
        self._dispatch(math.inf if until is None else until, Event(self))
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_until_event(self, event: Event, limit: float = 1e12) -> Any:
        """Run until ``event`` triggers (or the clock passes ``limit``).

        Stops *at* the trigger, so gauges and energy integrals are not
        diluted by background processes (thermal loops, samplers) that
        would otherwise keep the queue alive forever.
        """
        self._dispatch(limit, event)
        return event.value if event.triggered else None

    def _dispatch(self, limit: float, stop: Event) -> None:
        queue = self._queue
        while queue and not stop.triggered:
            when, _order, owner, gen, value = queue[0]
            if not owner.alive or gen != owner._gen:
                # Stale entry of a killed process, a cancelled callback or
                # an interrupted delay sleep: discard without touching the
                # clock.
                heapq.heappop(queue)
                continue
            if when > limit:
                self.now = max(self.now, limit)
                return
            heapq.heappop(queue)
            if when < self.now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            owner._step(value)

    def run_until_process(self, proc: Process, limit: float = 1e12) -> Any:
        """Run until ``proc`` completes; returns its result."""
        self.run_until_event(proc.done, limit=limit)
        if not proc.done.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={limit}"
            )
        return proc.result
