"""The Kubernetes API server: typed object store with watch streams."""

from __future__ import annotations

import enum
import itertools
import typing as _t

from repro.k8s.objects import K8sNode, ObjectMeta, Pod
from repro.run import run
from repro.sim.signal import Signal


class WatchEventType(enum.Enum):
    ADDED = "ADDED"
    MODIFIED = "MODIFIED"
    DELETED = "DELETED"


class WatchEvent(_t.NamedTuple):
    type: WatchEventType
    kind: str
    obj: object


WatchCallback = _t.Callable[[WatchEvent], None]

#: builds a WatchEvent from its field tuple, skipping the named tuple's
#: Python-level ``__new__`` (one event per notify)
_new_event = tuple.__new__


class _KindWatchers:
    """Watch registrations for one kind, split by routing key.

    ``unkeyed`` watchers see every event (the classic fan-out);
    ``keyed`` watchers see only events whose object's ``node_name``
    equals their key — the simulation's informer-cache shortcut, so a
    thousand kubelets cost one dict probe per event instead of a
    thousand predicate calls.  Registration order is preserved across
    both groups by a per-kind sequence number, so the effectual
    callback order is identical to the unkeyed fan-out.

    The seq-ordered callback tuple each routing key reaches is cached
    (``fanout`` for keys no keyed watcher holds, ``routes`` per held
    key) and rebuilt by :meth:`rebuild` on every watch/unwatch, so a
    notify reads one tuple instead of merging and sorting lists.
    """

    __slots__ = ("unkeyed", "keyed", "seq", "fanout", "routes")

    def __init__(self) -> None:
        self.unkeyed: list[tuple[int, WatchCallback]] = []
        self.keyed: dict[str, list[tuple[int, WatchCallback]]] = {}
        self.seq = 0
        self.fanout: tuple[WatchCallback, ...] = ()
        self.routes: dict[str, tuple[WatchCallback, ...]] = {}

    def rebuild(self, key: str | None) -> None:
        """Re-derive the cached tuples after a watch or unwatch under
        ``key``: an unkeyed change reaches every route, a keyed one
        only its own."""
        keys: _t.Iterable[str] = (key,)
        if key is None:
            self.fanout = tuple(cb for _seq, cb in self.unkeyed)
            keys = list(self.keyed)
        for k in keys:
            entries = self.keyed.get(k)
            if entries:
                merged = sorted([*self.unkeyed, *entries])
                self.routes[k] = tuple(cb for _seq, cb in merged)
            else:
                self.routes.pop(k, None)


class APIServer:
    """etcd + apiserver in one object.

    Objects are stored per kind; watches are synchronous callbacks (the
    simulation's stand-in for watch streams).  An optional per-request
    latency models the control-plane RPC cost.
    """

    #: request latency billed to callers who account time themselves
    request_latency = 1.5e-3

    def __init__(self) -> None:
        self._store: dict[str, dict[tuple[str, str], object]] = {}
        self._watchers: dict[str, _KindWatchers] = {}
        self._resource_version = itertools.count(1)

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _meta(obj: object) -> ObjectMeta:
        meta = getattr(obj, "metadata", None)
        if not isinstance(meta, ObjectMeta):
            raise TypeError(f"object {obj!r} has no ObjectMeta")
        return meta

    def _notify(self, type_: WatchEventType, kind: str, obj: object) -> None:
        watchers = self._watchers.get(kind)
        if watchers is None:
            return
        if watchers.routes:
            # Keyed fast path: one dict probe routes the event to the
            # watcher(s) registered for the object's node, skipping the
            # fan-out over every other keyed watcher entirely.
            if run.counters.enabled:
                run.counters.watch_batched_notifies += 1
            targets = watchers.routes.get(
                getattr(obj, "node_name", None), watchers.fanout
            )
        else:
            targets = watchers.fanout
        if targets:
            # The tuple is a snapshot: a callback that watches or
            # unwatches replaces the cached tuples, not this one.
            event = _new_event(WatchEvent, (type_, kind, obj))
            for callback in targets:
                callback(event)

    # -- CRUD ---------------------------------------------------------------------
    def create(self, kind: str, obj: object) -> object:
        meta = self._meta(obj)
        bucket = self._store.setdefault(kind, {})
        if meta.key in bucket:
            raise KeyError(f"{kind} {meta.namespace}/{meta.name} already exists")
        meta.resource_version = next(self._resource_version)
        bucket[meta.key] = obj
        self._notify(WatchEventType.ADDED, kind, obj)
        return obj

    def get(self, kind: str, name: str, namespace: str = "default") -> object | None:
        return self._store.get(kind, {}).get((namespace, name))

    def list(self, kind: str, namespace: str | None = None) -> list[object]:
        objs = list(self._store.get(kind, {}).values())
        if namespace is None:
            return objs
        return [o for o in objs if self._meta(o).namespace == namespace]

    def update(self, kind: str, obj: object) -> object:
        meta = getattr(obj, "metadata", None)
        if meta.__class__ is not ObjectMeta:
            meta = self._meta(obj)
        key = (meta.namespace, meta.name)
        bucket = self._store.get(kind)
        if bucket is None or key not in bucket:
            raise KeyError(f"{kind} {meta.namespace}/{meta.name} not found")
        meta.resource_version = next(self._resource_version)
        bucket[key] = obj
        self._notify(WatchEventType.MODIFIED, kind, obj)
        return obj

    def delete(self, kind: str, name: str, namespace: str = "default") -> object | None:
        bucket = self._store.get(kind, {})
        obj = bucket.pop((namespace, name), None)
        if obj is not None:
            self._notify(WatchEventType.DELETED, kind, obj)
        return obj

    # -- watch ---------------------------------------------------------------------
    def watch(
        self,
        kind: str,
        callback: WatchCallback,
        replay_existing: bool = True,
        key: str | None = None,
    ) -> None:
        """Register a watch callback.

        With ``key`` set the callback is *keyed*: it only receives
        events whose object's ``node_name`` equals the key (events with
        no matching key reach no keyed watcher).  Replay ignores the
        key — callers replaying existing objects filter themselves, as
        they already must for the unkeyed path.
        """
        watchers = self._watchers.setdefault(kind, _KindWatchers())
        entry = (watchers.seq, callback)
        watchers.seq += 1
        if key is None:
            watchers.unkeyed.append(entry)
        else:
            watchers.keyed.setdefault(key, []).append(entry)
        watchers.rebuild(key)
        if replay_existing:
            for obj in self._store.get(kind, {}).values():
                callback(WatchEvent(WatchEventType.ADDED, kind, obj))

    def unwatch(self, kind: str, callback: WatchCallback) -> None:
        watchers = self._watchers.get(kind)
        if watchers is None:
            return
        for i, (_seq, cb) in enumerate(watchers.unkeyed):
            if cb is callback:
                del watchers.unkeyed[i]
                watchers.rebuild(None)
                return
        for key, entries in watchers.keyed.items():
            for i, (_seq, cb) in enumerate(entries):
                if cb is callback:
                    del entries[i]
                    if not entries:
                        del watchers.keyed[key]
                    watchers.rebuild(key)
                    return

    def watch_signal(
        self,
        kind: str,
        signal: Signal,
        predicate: _t.Callable[[WatchEvent], bool] | None = None,
        replay_existing: bool = False,
        key: str | None = None,
    ) -> WatchCallback:
        """Fire ``signal`` on every matching watch event.

        The bridge between the watch fan-out and tickless control loops:
        instead of a bespoke callback juggling bell events, a loop parks
        on a :class:`~repro.sim.signal.Signal` and producers reach it
        through the ordinary watch path.  Returns the registered callback
        so callers can :meth:`unwatch` it.
        """

        def callback(event: WatchEvent) -> None:
            if predicate is None or predicate(event):
                signal.fire()

        self.watch(kind, callback, replay_existing=replay_existing, key=key)
        return callback

    # -- typed conveniences ------------------------------------------------------------
    def peek(self, kind: str) -> list[object]:
        """List objects as a read of an informer cache, not a request.

        Simulation-internal: tickless loops use this to decide whether to
        park, a check the real system gets for free from its informer
        caches.
        """
        return list(self._store.get(kind, {}).values())

    def pods(self, namespace: str | None = None) -> list[Pod]:
        return [p for p in self.list("Pod", namespace) if isinstance(p, Pod)]

    def nodes(self) -> list[K8sNode]:
        return [n for n in self.list("Node") if isinstance(n, K8sNode)]
