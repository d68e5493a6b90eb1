"""A generator-based discrete-event simulation kernel.

Simulation processes are Python generators that ``yield`` *waitables*:

* :class:`Timeout` — resume after a model-time delay;
* :class:`Spin` — a zero-delay timeout declaring a pure livelock, which
  a :class:`Watchdog` may fast-forward to its verdict;
* :class:`Event` — resume when the event is succeeded, receiving its value;
* :class:`Process` — resume when another process terminates (join);
* :class:`AnyOf` — resume when the first of several events fires.

The kernel is deliberately small and deterministic: simultaneous events
fire in the order they were scheduled.  It also counts every process
resumption in :attr:`Simulator.activations`, which is the *computational
cost* metric used by experiment E3 to quantify the paper's claim that
pin-level co-simulation "is most accurate ... but is computationally
expensive" while message-level modeling "is very efficient
computationally".
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro import _domain

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.cosim.trace import Tracer

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (bad yields, double-success, etc.)."""


class HangDetected(SimulationError):
    """Raised by a :class:`Watchdog` when the simulation stops making
    progress: model time is stuck while processes keep resuming (a
    zero-delay spin / livelock), or the run exceeds its wall-clock
    budget.  Fault-injection campaigns map this to the *hang* outcome
    class instead of looping forever."""


class Watchdog:
    """Hang-detection policy for :meth:`Simulator.run`.

    ``max_stalled_activations`` bounds how many process resumptions may
    occur *without model time advancing* before the run is declared
    hung — the deterministic detector for zero-delay spin loops, which
    would otherwise run forever.  ``wall_clock_s`` optionally bounds the
    host-time budget of the whole run, checked every ``check_every``
    steps so the hot loop stays cheap.  A process stuck inside a single
    ``step()`` (never yielding at all) is not detectable from within
    the kernel; the watchdog covers everything the event loop can see.
    ``max_stalled_activations`` and ``check_every`` are ints >= 1 and
    ``wall_clock_s`` is None or finite and positive; anything else
    raises ValueError naming the field.

    A stall made only of declared :class:`Spin` wakeups, with nothing
    else due at the stuck time and no tracer attached, is fast-forwarded:
    the run raises the same :class:`HangDetected`, after the same
    activation count, without resuming the spinners again.  Skipped
    activations take no host time, so a wall-clock budget cannot run
    out during them; the run ends with the verdict the slow loop
    reaches on any host fast enough to finish the stall in budget.
    """

    __slots__ = ("max_stalled_activations", "wall_clock_s", "check_every")

    def __init__(
        self,
        max_stalled_activations: int = 100_000,
        wall_clock_s: Optional[float] = None,
        check_every: int = 1024,
    ) -> None:
        self.max_stalled_activations = _domain.count(
            "max_stalled_activations", max_stalled_activations, 1)
        self.wall_clock_s = _domain.real(
            "wall_clock_s", wall_clock_s, above=0, optional=True)
        self.check_every = _domain.count("check_every", check_every, 1)

    def __repr__(self) -> str:
        return (
            f"Watchdog(max_stalled_activations="
            f"{self.max_stalled_activations}, "
            f"wall_clock_s={self.wall_clock_s})"
        )


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    Models asynchronous preemption (a hardware interrupt hitting polling
    software, a reset).  The interrupted process may catch it and
    continue; the waitable it was blocked on is abandoned.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence carrying an optional value.

    Processes wait on an event by yielding it.  ``succeed(value)`` wakes
    every waiter at the current simulation time.  An event fires at most
    once; reusable notifications re-arm a fresh event (see
    :class:`repro.cosim.signals.Signal`).
    """

    __slots__ = ("sim", "name", "triggered", "value", "_waiters",
                 "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Tuple["Process", int]] = []
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, delivering ``value`` to every waiter."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        if self.sim.tracer is not None:
            self.sim.tracer.on_event(self, len(self._waiters))
        for proc, token in self._waiters:
            self.sim._schedule(0.0, proc, value, token)
        self._waiters.clear()
        for cb in self._callbacks:
            cb(self)
        self._callbacks.clear()
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Call ``fn(event)`` when the event fires (immediately if it
        already has).  Used by :class:`AnyOf` and monitors."""
        if self.triggered:
            fn(self)
        else:
            self._callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Deregister a pending callback (no-op if absent or already
        fired).  Lets :class:`AnyOf` prune losing branches so abandoned
        events don't accumulate dead closures."""
        try:
            self._callbacks.remove(fn)
        except ValueError:
            pass

    def _add_waiter(self, proc: "Process", token: int) -> None:
        if self.triggered:
            self.sim._schedule(0.0, proc, self.value, token)
        else:
            self._waiters.append((proc, token))

    def __repr__(self) -> str:
        state = "fired" if self.triggered else "pending"
        return f"Event({self.name!r}, {state})"


class Timeout:
    """Delay for a fixed, finite, non-negative amount of model time,
    optionally with a value.  ``delay`` is an int or float, not a bool;
    anything else raises :class:`SimulationError`."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        # one inline test on the kernel's hot path (it also rejects
        # NaN); repro._domain decides only what it does not pass, such
        # as a float subclass, and words the error
        if (type(delay) is not float and type(delay) is not int) \
                or not 0.0 <= delay < _INF:
            _domain.real("delay", delay, least=0, error=SimulationError)
        self.delay = delay
        self.value = value


#: The value a resumed :class:`Spin` delivers: an opaque mark only the
#: kernel hands out, by which the run loop tells a declared spin wakeup
#: from every other ready entry.
_SPUN = object()


class Spin(Timeout):
    """A zero-delay timeout that declares a zero-time livelock.

    A process that yields a ``Spin`` promises the kernel that whenever
    it is resumed it does nothing but yield a ``Spin`` again — the
    shape of a saboteur that stops yielding time.  Scheduling is
    exactly that of ``Timeout(0.0)`` (the yield evaluates to an opaque
    marker); the promise only lets a :class:`Watchdog` skip a stall
    whose outcome is already fixed (see :meth:`Simulator._skip_spins`).
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(0.0, _SPUN)


class _Leap:
    """A jump over a process's own timeouts: resume at absolute model
    time ``when``, crediting ``skipped`` activations as if each had run.

    Two processes yield it, each only when it is the last process
    scheduled in a :meth:`Simulator.run` with a horizon and nothing can
    observe the activations it skips (DESIGN §8): a
    :class:`repro.cosim.signals.Clock` whose edges nobody watches, and a
    :class:`repro.cosim.backplane.Backplane` whose CPU polls a quiescent
    system.  The kernel adds ``skipped`` to ``activations``, ``_seq``
    and the process's wait token and schedules the wakeup at ``when``
    itself: ``now + (when - now)`` can miss it by an ulp.
    """

    __slots__ = ("when", "skipped")

    def __init__(self, when: float, skipped: int) -> None:
        self.when = when
        self.skipped = skipped


class AnyOf:
    """Wait for the first of several events; the process receives the
    pair ``(event, value)`` of whichever fired first."""

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")


class Process:
    """A running simulation process wrapping a generator.

    Yield a :class:`Process` from another process to join it; the joiner
    receives the process's return value (``return x`` inside the
    generator).

    Every yield increments an internal *wait token*; scheduled wakeups
    carry the token they were issued under and are dropped if the process
    has since been resumed by something else (e.g. an interrupt).  This
    makes interrupts safe in the presence of pending timeouts.
    """

    __slots__ = ("sim", "gen", "name", "done", "result", "_alive",
                 "_token", "_pending_interrupt")

    def __init__(self, sim: "Simulator", gen: Generator, name: str) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = Event(sim, f"{name}.done")
        self.result: Any = None
        self._alive = True
        self._token = 0
        self._pending_interrupt: Optional[Interrupt] = None

    @property
    def alive(self) -> bool:
        """Whether the process has not yet terminated."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self._alive:
            return
        self._pending_interrupt = Interrupt(cause)
        self.sim._schedule(0.0, self, None, self._token)

    def _dispatch(self, command: Any) -> None:
        """Wait on whatever the process yielded.  The run loop handles
        plain :class:`Timeout` inline and sends everything else here."""
        self._token += 1
        token = self._token
        if isinstance(command, Timeout):
            self.sim._schedule(command.delay, self, command.value, token)
        elif isinstance(command, Event):
            command._add_waiter(self, token)
        elif isinstance(command, Process):
            command.done._add_waiter(self, token)
        elif isinstance(command, AnyOf):
            self._wait_any(command, token)
        elif isinstance(command, _Leap):
            sim = self.sim
            skipped = command.skipped
            token = self._token = token + skipped
            sim.activations += skipped
            sim._seq += skipped + 1
            heapq.heappush(sim._queue,
                           (command.when, sim._seq, self, None, token))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {command!r}"
            )

    def _wait_any(self, anyof: AnyOf, token: int) -> None:
        fired = {"done": False}

        def on_fire(event: Event) -> None:
            if fired["done"]:
                return
            fired["done"] = True
            self.sim._schedule(0.0, self, (event, event.value), token)
            # prune the losing branches: abandoned events must not keep
            # this closure (and everything it captures) alive for the
            # rest of the run
            for other in anyof.events:
                if other is not event:
                    other.remove_callback(on_fire)

        for event in anyof.events:
            event.add_callback(on_fire)
            if fired["done"]:
                break  # an already-triggered event won the race

    def _finish(self, result: Any) -> None:
        self._alive = False
        self._token += 1  # invalidate any remaining wakeups
        self.result = result
        if self.sim.tracer is not None:
            self.sim.tracer.on_finish(self)
        self.done.succeed(result)

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"Process({self.name!r}, {state})"


class Resource:
    """A FIFO mutual-exclusion resource (bus grant, processor, ...).

    Usage from a process::

        yield from resource.acquire()
        ...critical section...
        resource.release()
    """

    def __init__(self, sim: "Simulator", name: str = "resource") -> None:
        self.sim = sim
        self.name = name
        self._busy = False
        self._waiters: List[Event] = []
        self.acquisitions = 0
        self.total_wait = 0.0

    @property
    def busy(self) -> bool:
        """Whether the resource is currently held."""
        return self._busy

    def acquire(self) -> Generator:
        """Generator: block until the resource is granted to the caller.

        Interrupt-safe: a waiter interrupted while queued deregisters its
        grant gate (or, if ownership was already handed to it, passes the
        grant on to the next live waiter) before re-raising, so an
        abandoned wait can never leave the resource permanently busy.
        """
        start = self.sim.now
        if self._busy:
            gate = Event(self.sim, f"{self.name}.grant")
            self._waiters.append(gate)
            if self.sim.tracer is not None:
                self.sim.tracer.on_resource_wait(self, len(self._waiters))
            try:
                yield gate
            except Interrupt:
                if gate in self._waiters:
                    # still queued: just give up our place in line
                    self._waiters.remove(gate)
                elif gate.triggered:
                    # release() already handed ownership to us; we are
                    # abandoning it, so pass the grant along (or free)
                    self.release()
                raise
        self._busy = True
        self.acquisitions += 1
        waited = self.sim.now - start
        self.total_wait += waited
        if self.sim.tracer is not None:
            self.sim.tracer.on_resource_grant(self, waited)
        return self

    def release(self) -> None:
        """Release the resource, granting it to the oldest *live* waiter.

        Ownership is handed off directly (the resource never appears free
        in between), so late arrivals cannot barge past queued waiters.
        Gates whose waiting process has died or moved on (a stale wait
        token) are skipped — defense in depth alongside the deregistration
        in :meth:`acquire`.
        """
        if not self._busy:
            raise SimulationError(f"release of idle resource {self.name!r}")
        while self._waiters:
            gate = self._waiters.pop(0)
            if any(
                proc._alive and token == proc._token
                for proc, token in gate._waiters
            ):
                gate.succeed()
                if self.sim.tracer is not None:
                    self.sim.tracer.on_resource_release(self, True)
                return
        self._busy = False
        if self.sim.tracer is not None:
            self.sim.tracer.on_resource_release(self, False)


class Simulator:
    """The discrete-event scheduler.

    * :attr:`now` — current model time (float; the framework's convention
      is nanoseconds).
    * :attr:`activations` — total process resumptions so far; the
      simulation-cost metric of experiment E3.
    * :attr:`tracer` — optional :class:`repro.cosim.trace.Tracer`
      recording structured execution traces and metrics.  ``None`` (the
      default) keeps every hot-path hook behind a single ``if``.
    """

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        self.now = 0.0
        self.activations = 0
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self)
        self._queue: List[Tuple[float, int, Process, Any, int]] = []
        # same-time FIFO fast lane: zero-delay schedules (the dominant
        # case at pin level) append here instead of paying heapq churn.
        # Invariant: every entry's time equals `now` — the lane is fully
        # drained (fired or skipped as stale) before time can advance,
        # and the run loop interleaves the two lanes in global (time,
        # seq) order so determinism is bit-identical to a single heap.
        self._ready: "deque[Tuple[float, int, Process, Any, int]]" = deque()
        self._seq = 0
        self._procs: List[Process] = []
        #: the horizon of the run() in progress (``inf`` for none), or
        #: None while step() runs: how far a lone clock may leap
        self._horizon: Optional[float] = None
        #: run() and step() calls so far: a backplane trusts what it saw
        #: of a poll loop only within one call, as code between calls
        #: may change any model state
        self._calls = 0

    def attach_tracer(self, tracer: "Tracer") -> "Tracer":
        """Attach (and bind) a tracer after construction; returns it.

        The run loop reads the tracer once per :meth:`run` or
        :meth:`step` call, so attach between runs, not from inside a
        running process."""
        self.tracer = tracer
        tracer.bind(self)
        return tracer

    # ------------------------------------------------------------------
    # construction API
    # ------------------------------------------------------------------
    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process, starting at the current time."""
        if not name:
            name = f"proc{len(self._procs)}"
        proc = Process(self, gen, name)
        self._procs.append(proc)
        if self.tracer is not None:
            self.tracer.on_spawn(proc)
        self._schedule(0.0, proc, None, proc._token)
        return proc

    def event(self, name: str = "") -> Event:
        """Create a fresh (unfired) event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout waitable (sugar for ``Timeout(delay, value)``)."""
        return Timeout(delay, value)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _schedule(
        self, delay: float, proc: Process, value: Any, token: int
    ) -> None:
        self._seq += 1
        if delay == 0.0:
            self._ready.append((self.now, self._seq, proc, value, token))
        else:
            heapq.heappush(
                self._queue, (self.now + delay, self._seq, proc, value, token)
            )

    def step(self) -> bool:
        """Run one scheduled resumption.  Returns False when idle.

        The single-step face of :meth:`run`: the same loop, stopped
        after one activation (stale wakeups are skipped on the way).
        """
        return self._loop(_INF, None, True)

    def run(
        self,
        until: Optional[float] = None,
        watchdog: Optional[Watchdog] = None,
    ) -> float:
        """Run until the queue drains or model time reaches ``until``.

        Returns the final model time.  ``until`` earlier than ``now`` is
        a no-op: time never moves backwards.  ``until`` is None, +inf
        (no horizon either) or finite; anything else raises
        ``ValueError``.  An attached ``watchdog`` raises
        :class:`HangDetected` when the run stalls (model time stuck
        while processes keep spinning) or overruns its wall-clock
        budget; ``None`` (the default) leaves its accounting out of the
        loop behind one local test.
        """
        if until is None or until == _INF:
            until = _INF
        else:
            _domain.real("until", until)
        self._loop(until, watchdog, False)
        return self.now

    def _loop(self, horizon: float, watchdog: Optional[Watchdog],
              once: bool) -> bool:
        """The one scheduler loop behind :meth:`run` and :meth:`step`.

        Each pass pops the globally next ``(time, seq)`` entry, skips it
        if stale, and resumes its process, with the resume, the
        ``Timeout`` dispatch and its scheduling inlined over bound
        locals.  The watchdog's accounting and the tracer hooks sit
        behind local ``None`` tests.  Returns whether an activation ran
        (``once`` stops after the first one).
        """
        ready = self._ready
        queue = self._queue
        popleft = ready.popleft
        append = ready.append
        heappush = heapq.heappush
        heappop = heapq.heappop
        tracer = self.tracer
        now = self.now
        if now > horizon:
            return False  # an `until` in the past never rewinds
        self._horizon = None if once else horizon
        self._calls += 1
        budget = None
        stalled = steps = 0
        deadline = None
        if watchdog is not None:
            budget = watchdog.max_stalled_activations
            if watchdog.wall_clock_s is not None:
                deadline = time.perf_counter() + watchdog.wall_clock_s
                check_every = watchdog.check_every
        while True:
            if ready:
                # the lane-order rule: the smaller (time, seq) head
                # fires first; ready entries all sit at `now`, so a heap
                # entry wins only if due now and scheduled earlier
                if queue and queue[0] < ready[0]:
                    entry = heappop(queue)
                else:
                    entry = popleft()
            elif queue:
                if queue[0][0] > horizon:
                    if horizon > now:  # advance to the horizon
                        self.now = horizon
                    return False
                entry = heappop(queue)
            else:
                return False
            when, _seq, proc, value, token = entry
            if token != proc._token or not proc._alive:
                continue  # stale wakeup from an abandoned waitable
            if when != now:
                if when < now:
                    raise SimulationError("time went backwards")
                self.now = now = when
                stalled = -1  # progress: the count below restarts at 0
            self.activations += 1
            if tracer is not None:
                tracer.on_resume(proc)
            try:
                exc = proc._pending_interrupt
                if exc is None:
                    command = proc.gen.send(value)
                else:
                    proc._pending_interrupt = None
                    if tracer is not None:
                        tracer.on_interrupt(proc, exc.cause)
                    command = proc.gen.throw(exc)
            except StopIteration as stop:
                proc._finish(stop.value)
            except Interrupt:
                # the process chose not to handle its interruption: it dies
                proc._finish(None)
            else:
                if type(command) is Timeout:
                    token = proc._token = proc._token + 1
                    seq = self._seq = self._seq + 1
                    delay = command.delay
                    if delay == 0.0:
                        append((now, seq, proc, command.value, token))
                    else:
                        heappush(queue, (now + delay, seq, proc,
                                         command.value, token))
                else:
                    proc._dispatch(command)
            if once:
                return True
            if budget is not None:
                stalled += 1
                if stalled >= budget or (
                    ready and ready[0][3] is _SPUN and tracer is None
                    and self._skip_spins(budget - stalled)
                ):
                    raise HangDetected(
                        f"no model-time progress after {budget} "
                        f"activations at t={now:g}; "
                        f"suspects: {self._stalled_suspects()}"
                    )
                if deadline is not None:
                    steps += 1
                    if (steps % check_every == 0
                            and time.perf_counter() > deadline):
                        raise HangDetected(
                            f"wall-clock budget {watchdog.wall_clock_s:g}s "
                            f"exhausted at t={now:g} "
                            f"({steps} steps, {stalled} stalled)"
                        )

    def _skip_spins(self, skipped: int) -> bool:
        """Fast-forward a zero-time livelock by ``skipped`` activations.

        Applies only when every ready wakeup is a live :class:`Spin`
        with no interrupt pending and nothing else is due at ``now``
        (the heap is empty or its head is strictly later).  From there
        the run is fixed: each activation resumes the ready lane's head,
        whose process yields a ``Spin`` again, so nothing but the
        activation count, the sequence counter, the spinners' wait
        tokens and the lane's rotation changes until the watchdog
        fires.  This applies exactly that change in O(spinners) and
        returns True; otherwise it changes nothing and returns False.
        """
        queue, ready = self._queue, self._ready
        if queue and queue[0][0] <= self.now:
            return False
        for _when, _seq, proc, value, token in ready:
            if (value is not _SPUN or token != proc._token
                    or not proc._alive
                    or proc._pending_interrupt is not None):
                return False
        entries = list(ready)
        n = len(entries)
        rounds, extra = divmod(skipped, n)
        for i, entry in enumerate(entries):
            entry[2]._token += rounds + (i < extra)
        # pop j (0-based) re-pushes entries[j % n] as seq + j + 1; the
        # lane ends as the unpopped entries, then the last n re-pushes
        now, seq = self.now, self._seq
        ready.clear()
        ready.extend(entries[skipped:])
        for j in range(max(0, skipped - n), skipped):
            _when, _seq, proc, value, _token = entries[j % n]
            ready.append((now, seq + j + 1, proc, value, proc._token))
        self._seq = seq + skipped
        self.activations += skipped
        return True

    def _stalled_suspects(self) -> List[str]:
        """Names of live processes scheduled at the stuck time (the
        most useful attribution the queue can give a hang report)."""
        pending = list(self._ready) + self._queue
        return sorted({
            proc.name
            for when, _seq, proc, _value, token in pending
            if when <= self.now and proc.alive and token == proc._token
        })[:8]

    @property
    def processes(self) -> List[Process]:
        """All processes ever registered."""
        return list(self._procs)

    def __repr__(self) -> str:
        pending = len(self._queue) + len(self._ready)
        return (
            f"Simulator(now={self.now}, pending={pending}, "
            f"activations={self.activations})"
        )
