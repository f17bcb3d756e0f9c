"""OCI runtime hooks.

The OCI runtime spec defines entry points "to inject code to be run at
various phases of the container lifetime" (§3.1).  HPC engines use hooks
for GPU/accelerator enablement, host-library bind-mounting, and WLM
integration (§4.1.3, §4.1.6) instead of patching the runtime.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.run import run



class HookPoint(enum.Enum):
    """Lifecycle points of the OCI runtime specification."""

    PRESTART = "prestart"              # deprecated but widely used
    CREATE_RUNTIME = "createRuntime"
    CREATE_CONTAINER = "createContainer"
    START_CONTAINER = "startContainer"
    POSTSTART = "poststart"
    POSTSTOP = "poststop"


class HookError(RuntimeError):
    """A hook failed; per spec this aborts the container lifecycle."""


@dataclasses.dataclass
class Hook:
    """A named hook registered at one lifecycle point.

    The callable receives the hook context (a mapping the runtime
    populates with the container, bundle, and engine state) and may
    mutate the container's rootfs/spec or raise :class:`HookError`.
    """

    name: str
    point: HookPoint
    fn: _t.Callable[[dict], None]
    #: hooks ordered by ascending priority within a point
    priority: int = 50

    def run(self, context: dict) -> None:
        try:
            self.fn(context)
        except HookError:
            raise
        except Exception as exc:  # noqa: BLE001 - spec: any failure aborts
            raise HookError(f"hook {self.name!r} failed: {exc}") from exc


class HookRegistry:
    """Ordered hooks per lifecycle point.

    Every container start builds one, and most have no hooks at all, so
    a point's bucket exists only once a hook is registered there.
    """

    __slots__ = ("_hooks", "executed")

    def __init__(self) -> None:
        self._hooks: dict[HookPoint, list[Hook]] = {}
        self.executed: list[tuple[HookPoint, str]] = []

    def register(self, hook: Hook) -> None:
        bucket = self._hooks.setdefault(hook.point, [])
        bucket.append(hook)
        bucket.sort(key=lambda h: h.priority)

    def add(
        self,
        point: HookPoint,
        fn: _t.Callable[[dict], None],
        name: str | None = None,
        priority: int = 50,
    ) -> Hook:
        hook = Hook(name=name or fn.__name__, point=point, fn=fn, priority=priority)
        self.register(hook)
        return hook

    def hooks_at(self, point: HookPoint) -> list[Hook]:
        return list(self._hooks.get(point, ()))

    def run(self, point: HookPoint, context: dict) -> None:
        """Run the hooks registered at ``point`` in priority order.

        Injection point ``"engine.hooks"``: an active HOOK_FAILURE fault
        makes the first hook at this point raise :class:`HookError`,
        aborting the lifecycle exactly as a real misbehaving hook would.
        POSTSTOP is exempt — the spec runs poststop best-effort, and the
        engines' cleanup guarantee relies on teardown never raising.
        """
        for hook in self._hooks.get(point, ()):
            if run.faults.enabled and point is not HookPoint.POSTSTOP:
                fault = run.faults.active("engine.hooks", target=hook.name)
                if fault is not None:
                    raise HookError(
                        f"hook {hook.name!r} failed: injected fault"
                        f" (until t={fault.until:.1f})"
                    )
            hook.run(context)
            self.executed.append((point, hook.name))

    def merged_with(self, other: "HookRegistry") -> "HookRegistry":
        """This registry's hooks then ``other``'s, re-sorted by priority
        per point.  With no hooks on either side there is nothing to
        merge, and the (empty) receiver is returned as is."""
        if not self._hooks and not other._hooks:
            return self
        combined = HookRegistry()
        for point in HookPoint:
            for hook in (*self._hooks.get(point, ()), *other._hooks.get(point, ())):
                combined.register(hook)
        return combined

    def __len__(self) -> int:
        return sum(len(v) for v in self._hooks.values())
