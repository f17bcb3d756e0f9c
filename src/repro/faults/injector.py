"""The process-wide fault injector.

Subsystems ask the injector — at *named injection points* — whether a
fault is active right now; the armed :class:`~repro.faults.plan.FaultPlan`
answers purely as a function of virtual time.  Two delivery styles:

**pull** (window faults)
    Call sites query :meth:`FaultInjector.active` with their point name
    (``"registry.pull"``, ``"fs.mds"``, ``"fs.fuse"``,
    ``"engine.hooks"``) and perturb themselves: raise a transient error,
    multiply a cost, stall until recovery.  The query is keyed on the
    current virtual time, so an analytic retry loop that accounts time
    forward (``now + cost_so_far``) naturally escapes the window once
    its backoff has "slept" past it.

**push** (state transitions)
    Node crashes must *do* something to standing components.  Interested
    parties (the WLM controller, kubelets) register a handler for the
    ``"wlm.node"`` point while the injector is armed; a driver process
    walks the plan and invokes handlers at each event's begin
    (``"crash"``) and end (``"restore"``) edges.

Like :mod:`repro.obs`, the injector is **off by default and one
predicate check cheap when disabled**: every call site guards with
``if injector.enabled:`` before touching anything else, so a normal
(non-chaos) run pays a single attribute load per potential injection.

Every injection emits ``faults.injected{kind=...}`` on the metrics
registry and a ``fault.injected`` trace instant (when those layers are
enabled), plus an always-on private count used by chaos reports.
"""

from __future__ import annotations

import typing as _t

from repro.faults.plan import PUSH_KINDS as _PUSH_KINDS
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

#: handler(event, phase) with phase in {"crash", "restore"}
PushHandler = _t.Callable[[FaultEvent, str], None]


class FaultInjector:
    """Holds the armed plan and serves injection-point queries."""

    def __init__(self) -> None:
        self.enabled = False
        self._plan: FaultPlan | None = None
        self._env: "Environment | None" = None
        #: point name -> window events, precomputed at arm time
        self._windows: dict[str, list[FaultEvent]] = {}
        #: point name -> push handlers (registered by live components)
        self._handlers: dict[str, list[PushHandler]] = {}
        #: kind.value -> times a fault actually perturbed an operation
        self.injected_counts: dict[str, int] = {}
        #: kind.value -> virtual time of the *first* injection (what SLO
        #: detection latency is measured against)
        self.injected_at: dict[str, float] = {}
        #: subsystem -> retry attempts recorded while armed
        self.retry_counts: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------
    def arm(self, plan: FaultPlan, env: "Environment") -> None:
        """Activate ``plan`` against ``env``'s virtual clock.

        Push events get a driver process in ``env``; pull events are
        indexed by point for O(few) lookup.  Arming resets all counts.
        """
        self.disarm()
        self.enabled = True
        self._plan = plan
        self._env = env
        for event in plan:
            if event.kind not in _PUSH_KINDS:
                self._windows.setdefault(event.point, []).append(event)
        push = plan.push_events()
        if push:
            env.process(self._drive(push), name="fault-driver")

    def disarm(self) -> None:
        self.enabled = False
        self._plan = None
        self._env = None
        self._windows.clear()
        self._handlers.clear()
        self.injected_counts = {}
        self.injected_at = {}
        self.retry_counts = {}

    # -- pull side ---------------------------------------------------------
    def active(
        self, point: str, at: float | None = None, target: str | None = None
    ) -> FaultEvent | None:
        """The fault active at ``point`` for virtual time ``at`` (default:
        the armed environment's current time), or ``None``.

        A non-None return *is* an injection: the caller is expected to
        act on it, so the counters/metrics/trace marks are emitted here.
        """
        if not self.enabled:
            return None
        events = self._windows.get(point)
        if not events:
            return None
        if at is None:
            at = self._env.now if self._env is not None else 0.0
        for event in events:
            if event.active_at(at) and event.matches(target):
                self._record(event, at)
                return event
        return None

    def note_retry(self, subsystem: str) -> None:
        """Count one retry attempt for chaos reports (armed runs only)."""
        if self.enabled:
            self.retry_counts[subsystem] = self.retry_counts.get(subsystem, 0) + 1

    # -- push side ---------------------------------------------------------
    def record_push(self, event: FaultEvent, at: float) -> None:
        """Record one push-fault injection delivered *outside* the driver
        process.

        Engines that batch time (the fleet pump) cannot ride the driver:
        it would wake at exact fault times and perturb their event
        schedule, breaking their equivalence with one-event-per-edge
        delivery (the fleet oracle in ``tests/oracles``).  They consume the
        plan's push events as an edge stream of their own and call this
        at each crash edge, so ``injected_counts`` / ``injected_at`` (and
        the metrics/trace marks) stay identical to driver delivery."""
        if self.enabled:
            self._record(event, at)

    def register(self, point: str, handler: PushHandler) -> None:
        """Subscribe a live component to push faults at ``point`` (no-op
        unless armed — call sites guard on :attr:`enabled` anyway)."""
        if self.enabled:
            self._handlers.setdefault(point, []).append(handler)

    def unregister(self, point: str, handler: PushHandler) -> None:
        handlers = self._handlers.get(point)
        if handlers is not None and handler in handlers:
            handlers.remove(handler)

    def _drive(self, events: list[FaultEvent]):
        """Driver process: deliver begin/end edges in virtual-time order."""
        edges: list[tuple[float, int, FaultEvent, str]] = []
        for i, event in enumerate(events):
            edges.append((event.at, i, event, "crash"))
            if event.duration > 0:
                edges.append((event.until, i, event, "restore"))
        edges.sort(key=lambda e: (e[0], e[1]))
        env = self._env
        assert env is not None
        for when, _i, event, phase in edges:
            if when > env.now:
                yield env.timeout_until(when)
            if not self.enabled:
                return
            if phase == "crash":
                self._record(event, env.now)
            elif _trace.tracer.enabled:
                _trace.tracer.instant(
                    "fault.cleared", kind=event.kind.value, target=event.target
                )
            for handler in list(self._handlers.get(event.point, ())):
                handler(event, phase)

    # -- accounting --------------------------------------------------------
    def _record(self, event: FaultEvent, at: float | None = None) -> None:
        kind = event.kind.value
        self.injected_counts[kind] = self.injected_counts.get(kind, 0) + 1
        if kind not in self.injected_at:
            if at is None:
                at = self._env.now if self._env is not None else event.at
            self.injected_at[kind] = at
        if _metrics.registry.enabled:
            _metrics.inc("faults.injected", kind=kind)
        if _trace.tracer.enabled:
            _trace.tracer.instant("fault.injected", kind=kind, target=event.target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "armed" if self.enabled else "off"
        n = len(self._plan) if self._plan is not None else 0
        return f"<FaultInjector {state} events={n}>"


#: The process-wide injector every injection point consults.
injector = FaultInjector()
