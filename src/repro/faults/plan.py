"""Fault plans: seeded, virtual-time schedules of injected events.

A :class:`FaultPlan` is the *only* source of nondeterminism-looking
behaviour in a chaos run — and it is not nondeterministic at all: plans
are either loaded from JSON or generated from an explicit seed with
:class:`~repro.sim.rng.DeterministicRNG`, so the same seed always
produces the same schedule and therefore (because injection is purely a
function of virtual time and the plan) byte-identical traces.

Each :class:`FaultEvent` opens at virtual time ``at`` and — for
window-style faults — stays active for ``duration`` seconds.  The
injection-point name each kind maps to is fixed (see
:data:`KIND_POINTS`); subsystems query the armed injector by point name
and never need to know the full kind taxonomy.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import typing as _t

from repro.sim.rng import DeterministicRNG


class FaultKind(enum.Enum):
    """The fault taxonomy §3.2's resilience requirements imply."""

    #: a compute node dies (power/kernel panic) and reboots ``duration``
    #: seconds later; ``target`` is the node name
    NODE_CRASH = "node_crash"
    #: registry answers 429 Too Many Requests for the window
    REGISTRY_429 = "registry_429"
    #: registry requests hang and time out for the window
    REGISTRY_TIMEOUT = "registry_timeout"
    #: registry blob streaming slowed by ``factor`` for the window
    REGISTRY_SLOW_BLOB = "registry_slow_blob"
    #: shared-FS metadata server degraded: metadata RPCs cost ``factor``×
    MDS_DEGRADED = "mds_degraded"
    #: shared-FS metadata server down: metadata RPCs stall until recovery
    MDS_OUTAGE = "mds_outage"
    #: FUSE daemon dies: userspace mounts fail for the window
    FUSE_DEATH = "fuse_death"
    #: OCI lifecycle hooks fail for the window (bad GPU driver, broken
    #: site plugin)
    HOOK_FAILURE = "hook_failure"


#: fault kind -> injection-point name subsystems query
KIND_POINTS: dict[FaultKind, str] = {
    FaultKind.NODE_CRASH: "wlm.node",
    FaultKind.REGISTRY_429: "registry.pull",
    FaultKind.REGISTRY_TIMEOUT: "registry.pull",
    FaultKind.REGISTRY_SLOW_BLOB: "registry.pull",
    FaultKind.MDS_DEGRADED: "fs.mds",
    FaultKind.MDS_OUTAGE: "fs.mds",
    FaultKind.FUSE_DEATH: "fs.fuse",
    FaultKind.HOOK_FAILURE: "engine.hooks",
}

#: kinds delivered by the injector's driver process (state transitions
#: pushed into registered handlers) rather than polled at call sites
PUSH_KINDS = frozenset({FaultKind.NODE_CRASH})


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at``/``duration`` are virtual seconds; ``target`` narrows the blast
    radius (a node name for :attr:`FaultKind.NODE_CRASH`, a registry or
    backend name otherwise — ``None`` matches everything); ``factor`` is
    the slowdown multiplier for degradation kinds.
    """

    kind: FaultKind
    at: float
    duration: float = 0.0
    target: str | None = None
    factor: float = 1.0

    @property
    def until(self) -> float:
        return self.at + self.duration

    @property
    def point(self) -> str:
        return KIND_POINTS[self.kind]

    def active_at(self, now: float) -> bool:
        """Window check: instantaneous events are active only at ``at``."""
        if self.duration <= 0.0:
            return now == self.at
        return self.at <= now < self.until

    def matches(self, target: str | None) -> bool:
        return self.target is None or target is None or self.target == target

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind.value, "at": self.at}
        if self.duration:
            out["duration"] = self.duration
        if self.target is not None:
            out["target"] = self.target
        if self.factor != 1.0:
            out["factor"] = self.factor
        return out

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FaultEvent":
        """Parse one plan entry.  A missing or unknown ``kind``, a missing
        ``at``, a non-numeric ``at``/``duration``/``factor``, a NaN,
        infinite or negative ``at`` or ``duration``, a non-finite or
        non-positive ``factor``, a non-string ``target``, or a
        ``node_crash`` with no ``target`` is a :class:`ValueError` naming
        the field."""
        try:
            kind = FaultKind(data.get("kind"))
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            raise ValueError(
                f"fault event 'kind' must be one of {valid}; got {data.get('kind')!r}"
            ) from None
        at = _number(data, "at")
        duration = _number(data, "duration", 0.0)
        factor = _number(data, "factor", 1.0)
        if not (math.isfinite(at) and at >= 0.0):
            raise ValueError(f"fault event 'at' must be a finite time >= 0, got {at}")
        if not (math.isfinite(duration) and duration >= 0.0):
            raise ValueError(
                f"fault event 'duration' must be a finite time >= 0, got {duration}"
            )
        if not (math.isfinite(factor) and factor > 0.0):
            raise ValueError(f"fault event 'factor' must be finite and > 0, got {factor}")
        target = data.get("target")
        if target is not None and not isinstance(target, str):
            raise ValueError(f"fault event 'target' must be a string, got {target!r}")
        if kind is FaultKind.NODE_CRASH and target is None:
            raise ValueError("fault event 'target' is missing: a node_crash needs a node")
        return cls(kind=kind, at=at, duration=duration, target=target, factor=factor)


def _number(data: dict[str, object], field: str, default: float | None = None) -> float:
    """``data[field]`` as a float, or a :class:`ValueError` naming the
    field when it is missing (and required) or not a number."""
    value = data.get(field, default)
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        problem = f"must be a number, got {value!r}" if field in data else "is missing"
        raise ValueError(f"fault event '{field}' {problem}") from None


class FaultPlan:
    """An ordered schedule of :class:`FaultEvent`\\ s."""

    def __init__(self, events: _t.Iterable[FaultEvent] = (), seed: int | None = None):
        self.events: list[FaultEvent] = sorted(
            events, key=lambda e: (e.at, e.kind.value, e.target or "")
        )
        self.seed = seed

    # -- queries -----------------------------------------------------------
    def for_point(self, point: str) -> list[FaultEvent]:
        return [e for e in self.events if e.point == point]

    def push_events(self) -> list[FaultEvent]:
        return [e for e in self.events if e.kind in PUSH_KINDS]

    def check_node_targets(self, node_names: _t.Iterable[str]) -> None:
        """Raise a :class:`ValueError` naming the first ``node_crash``
        event (by index) whose ``target`` is not one of ``node_names``."""
        names = set(node_names)
        for index, event in enumerate(self.events):
            if (event.kind is FaultKind.NODE_CRASH and event.target is not None
                    and event.target not in names):
                raise ValueError(
                    f"fault event {index}: node_crash 'target' {event.target!r} "
                    f"names no node of this run"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> _t.Iterator[FaultEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {e.kind.value for e in self.events}
        return f"<FaultPlan events={len(self.events)} kinds={sorted(kinds)}>"

    # -- serialization -----------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        doc: dict[str, object] = {"events": [e.to_dict() for e in self.events]}
        if self.seed is not None:
            doc["seed"] = self.seed
        return json.dumps(doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        if isinstance(doc, list):  # bare event list is accepted too
            doc = {"events": doc}
        entries = doc.get("events", []) if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError(
                "a fault plan is a JSON list of event objects, or an object "
                "whose 'events' is one"
            )
        return cls([FaultEvent.from_dict(e) for e in entries], seed=doc.get("seed"))

    def to_file(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- generation --------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: float = 600.0,
        node_names: _t.Sequence[str] = (),
        kinds: _t.Sequence[FaultKind] | None = None,
        targets: _t.Mapping[FaultKind, _t.Sequence[str]] | None = None,
    ) -> "FaultPlan":
        """A deterministic default plan for chaos runs.

        Draws every schedule parameter from a named sub-stream of
        :class:`DeterministicRNG`, so the plan depends only on the
        arguments — two invocations with the same seed agree event for
        event.  One event per requested kind.

        ``targets`` is the per-kind victim pool: when a kind has a pool,
        the event's ``target`` is drawn from it uniformly.  This is how
        non-scenario node namespaces (the fleet engine's synthetic
        ``fleet-node-NNNNN`` ids, a specific registry name) get targeted
        plans without forking the taxonomy.  ``node_names`` is the
        historical spelling of ``targets[NODE_CRASH]`` and is kept as a
        convenience; an explicit ``targets`` entry wins.  Kinds that
        need a victim but have an empty pool are skipped.
        """
        rng = DeterministicRNG(seed).stream("faultplan")
        pools: dict[FaultKind, _t.Sequence[str]] = {}
        if node_names:
            pools[FaultKind.NODE_CRASH] = node_names
        if targets:
            pools.update(targets)
        if kinds is None:
            kinds = [
                FaultKind.REGISTRY_429,
                FaultKind.MDS_DEGRADED,
                FaultKind.HOOK_FAILURE,
            ]
            if pools.get(FaultKind.NODE_CRASH):
                kinds = [FaultKind.NODE_CRASH, *kinds]
        events: list[FaultEvent] = []
        for kind in kinds:
            at = round(float(rng.uniform(0.05, 0.65)) * horizon, 3)
            duration = round(float(rng.uniform(0.02, 0.12)) * horizon, 3)
            target: str | None = None
            factor = 1.0
            pool = pools.get(kind)
            if pool:
                target = pool[int(rng.integers(0, len(pool)))]
            elif kind is FaultKind.NODE_CRASH:
                continue  # a crash needs a victim; nothing to draw from
            if kind in (FaultKind.MDS_DEGRADED, FaultKind.REGISTRY_SLOW_BLOB):
                factor = round(float(rng.uniform(3.0, 12.0)), 2)
            events.append(
                FaultEvent(kind=kind, at=at, duration=duration, target=target, factor=factor)
            )
        return cls(events, seed=seed)
