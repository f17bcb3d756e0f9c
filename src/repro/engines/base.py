"""Common engine machinery: capability descriptors, pull/cache plumbing,
and the run template shared by all nine engines."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.node import HostNode
from repro.engines.monitor import ConmonMonitor
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.fs.drivers import MountedView
from repro.kernel.process import SimProcess
from repro.oci.bundle import Bundle, NamespaceRequest, RuntimeSpec
from repro.oci.hooks import HookRegistry
from repro.oci.image import OCIImage
from repro.oci.layer import Layer
from repro.oci.runtime import (
    Container,
    ContainerState,
    CrunRuntime,
    OCIRuntime,
    RuncRuntime,
)
from repro.oci.sif import SIFImage
from repro.registry.distribution import OCIDistributionRegistry
from repro.run import run


class EngineError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class EngineInfo:
    """Literature metadata from Tables 1 and 3 (facts about the real
    projects as surveyed in mid-2023; not derived from behaviour)."""

    name: str
    version: str
    champion: str
    affiliation: str
    default_runtime: str            # "runc", "crun", or a custom name
    implementation_language: str
    contributors: int
    docs_user: str                  # "+", "++", "+++", "N/A"
    docs_admin: str
    docs_source: str
    module_integration: str         # "shpc", "(shpc)", "shpc-announced", "no"


@dataclasses.dataclass(frozen=True)
class EngineCapabilities:
    """Behavioural feature flags (Tables 1–3).  Each flag is exercised by
    the engine implementation and its tests — nothing is declared that
    the code does not do."""

    rootless: tuple[str, ...]                 # "UserNS", "fakeroot"
    rootless_fs: tuple[str, ...]              # "suid", "fuse-overlayfs", "SquashFUSE", "Dir", "fakeroot"
    monitor: str | None                       # "per-machine (dockerd)", "per-container (conmon)", None
    oci_hooks: str                            # "yes", "no", "manual", "custom"
    oci_container: str                        # "yes", "partial"
    transparent_conversion: bool
    native_caching: bool
    native_sharing: bool
    namespacing: str                          # "full", "user+mount", "full/user+mount"
    signature_verification: tuple[str, ...]   # "notary", "gpg", "sigstore"
    encryption: bool
    gpu: str                                  # "yes", "no", "hooks", "manual", "nvidia-only"
    accelerators: str                         # "hooks", "no", "manual", "custom-hooks", "hooks-or-patch"
    library_hookup: str                       # "hooks", "yes", "mpich", "manual"
    wlm_integration: str                      # "no", "spank", "partial-hooks"
    build_tool: bool
    daemonless: bool
    requires_setuid: bool


@dataclasses.dataclass
class PulledImage:
    """A locally available image plus how it got here."""

    source_ref: str
    image: OCIImage | SIFImage
    pull_cost: float = 0.0
    from_cache: bool = False


@dataclasses.dataclass
class RunResult:
    container: Container
    engine_name: str
    timings: dict[str, float] = dataclasses.field(default_factory=dict)
    warnings: list[str] = dataclasses.field(default_factory=list)

    @property
    def startup_seconds(self) -> float:
        return sum(self.timings.values())

    def warn(self, message: str) -> None:
        self.warnings.append(message)


_RUNTIMES: dict[str, type[OCIRuntime]] = {"runc": RuncRuntime, "crun": CrunRuntime}


class _CustomRuntime(OCIRuntime):
    """Stand-in for engines with their own embedded runtime (Shifter,
    Charliecloud, enroot)."""

    implementation_language = "C"
    startup_overhead = 0.012

    def __init__(self, kernel, name: str):
        super().__init__(kernel)
        self.name = name


class ContainerEngine:
    """Template-method base: subclasses supply ``_prepare_rootfs`` and
    their capability/metadata records."""

    info: EngineInfo
    capabilities: EngineCapabilities
    #: engine CLI/daemon dispatch overhead per invocation (seconds)
    invocation_overhead = 0.010
    #: deterministic backoff for transient registry failures during pull
    #: (jitter-free: the same failure sequence always costs the same)
    pull_retry = RetryPolicy(
        max_attempts=5, base_delay=0.5, multiplier=2.0, max_delay=30.0, deadline=300.0
    )

    def __init__(self, node: HostNode):
        self.node = node
        self.kernel = node.kernel
        runtime_name = self.info.default_runtime
        runtime_cls = _RUNTIMES.get(runtime_name)
        self.runtime: OCIRuntime = (
            runtime_cls(self.kernel)
            if runtime_cls
            else _CustomRuntime(self.kernel, runtime_name)
        )
        #: OCI layer cache (content-addressed, local graph storage)
        self.layer_cache: dict[str, Layer] = {}
        #: native-format cache: image digest -> (converted object, owner uid)
        self._native_cache: dict[str, tuple[object, int]] = {}
        #: site-admin-installed hooks (GPU, MPI, WLM devices)
        self.site_hooks = HookRegistry()
        #: single-flight table: (repository, tag) -> (start, end, result)
        #: of the most recent pull, so a pull requested while one is
        #: still in flight joins it instead of re-downloading
        self._inflight_pulls: dict[
            tuple[str, str], tuple[float, float, PulledImage]
        ] = {}
        self.stats = {
            "pulls": 0,
            "coalesced_pulls": 0,
            "cache_hits": 0,
            "conversions": 0,
            "runs": 0,
        }

    # ------------------------------------------------------------------- pull
    def pull(
        self,
        repository: str,
        tag: str,
        registry: OCIDistributionRegistry,
        token: str | None = None,
        now: float = 0.0,
        ip: str = "10.0.0.1",
    ) -> PulledImage:
        """Pull an OCI image, skipping layers already in the local cache.

        Transient failures (:class:`~repro.registry.RegistryUnavailable`
        — 429s and timeouts — and :class:`~repro.registry.StorageError`,
        e.g. a full pull-through-proxy store) are retried under
        :attr:`pull_retry`: deterministic exponential backoff, each
        attempt's wasted cost and backoff delay folded into the returned
        ``pull_cost`` and into the effective ``now`` of the next attempt
        (so a fault window that ends mid-backoff is escaped).  When the
        policy gives up, a single aggregated
        :class:`~repro.faults.RetryExhausted` surfaces the attempt
        count, the elapsed virtual time, and the last cause — never the
        bare final exception.  Permanent errors (unknown image, auth)
        raise :class:`~repro.registry.RegistryError` immediately.

        Pulls are *single-flight* per node: if the same ``repository:tag``
        is requested while a strictly earlier pull of it is still in
        flight (``now`` falls inside the open interval of the earlier
        pull's window), the caller joins that download — its cost is
        exactly the remaining time of the in-flight pull, and no
        registry traffic is issued.
        """
        from repro.registry.distribution import RegistryUnavailable
        from repro.registry.storage import StorageError

        self.stats["pulls"] += 1
        ref = (repository, tag)
        inflight = self._inflight_pulls.get(ref)
        if inflight is not None and inflight[0] < now < inflight[1]:
            _start, end, result = inflight
            remaining = end - now
            self.stats["coalesced_pulls"] += 1
            if run.tracer.enabled:
                run.tracer.complete(
                    "engine.pull",
                    remaining,
                    engine=self.info.name,
                    ref=f"{repository}:{tag}",
                    coalesced=True,
                )
            if run.metrics.enabled:
                run.metrics.inc("engine.pulls_coalesced", engine=self.info.name)
                run.metrics.observe(
                    "engine.pull_seconds", remaining, engine=self.info.name
                )
            return dataclasses.replace(result, pull_cost=remaining)
        policy = self.pull_retry
        cost = 0.0
        attempts = 0
        while True:
            attempts += 1
            try:
                image, attempt_cost = registry.pull_image(
                    repository,
                    tag,
                    token=token,
                    ip=ip,
                    now=now + cost,
                    have_digests=set(self.layer_cache),
                )
                cost += attempt_cost
                break
            except (RegistryUnavailable, StorageError) as exc:
                cost += getattr(exc, "cost", 0.0)
                if policy.gives_up(attempts, cost):
                    raise RetryExhausted("registry", attempts, cost, exc) from exc
                delay = policy.delay(attempts - 1)
                cost += delay
                run.faults.note_retry("registry")
                if run.metrics.enabled:
                    run.metrics.inc(
                        "retry.attempts", subsystem="registry", engine=self.info.name
                    )
                if run.tracer.enabled:
                    run.tracer.instant(
                        "engine.pull_retry",
                        engine=self.info.name,
                        attempt=attempts,
                        backoff=delay,
                    )
        for layer in image.layers:
            self.layer_cache[layer.digest] = layer
        if run.tracer.enabled:
            run.tracer.complete(
                "engine.pull", cost, engine=self.info.name, ref=f"{repository}:{tag}"
            )
        if run.metrics.enabled:
            run.metrics.inc("engine.pulls", engine=self.info.name)
            run.metrics.observe("engine.pull_seconds", cost, engine=self.info.name)
        pulled = PulledImage(
            source_ref=f"{repository}:{tag}", image=image, pull_cost=cost
        )
        self._inflight_pulls[ref] = (now, now + cost, pulled)
        return pulled

    # ------------------------------------------------------------------- cache
    def _cache_lookup(self, digest: str, user_uid: int) -> object | None:
        """Native-format cache lookup honouring the sharing capability:
        without native sharing, a conversion cached by one user is
        invisible to another."""
        if not self.capabilities.native_caching:
            return None
        hit = self._native_cache.get(digest)
        if hit is None:
            return None
        converted, owner_uid = hit
        if owner_uid != user_uid and not self.capabilities.native_sharing and owner_uid != 0:
            return None
        self.stats["cache_hits"] += 1
        if run.metrics.enabled:
            run.metrics.inc("engine.cache_hits", engine=self.info.name)
        return converted

    def _cache_store(self, digest: str, converted: object, owner_uid: int) -> None:
        if self.capabilities.native_caching:
            self._native_cache[digest] = (converted, owner_uid)

    # ------------------------------------------------------------------- run
    def run(
        self,
        pulled: PulledImage | OCIImage | SIFImage,
        user: SimProcess,
        command: tuple[str, ...] | None = None,
        devices: tuple[str, ...] = (),
        extra_hooks: HookRegistry | None = None,
        cgroup_path: str | None = None,
    ) -> RunResult:
        """Create and start a container (the engine's ``run`` verb)."""
        if not isinstance(pulled, PulledImage):
            pulled = PulledImage(source_ref="local", image=pulled)
        tracer = run.tracer
        if not tracer.enabled and not run.metrics.enabled:
            return self._run(pulled, user, command, devices, extra_hooks, cgroup_path)
        with tracer.span("engine.run", engine=self.info.name, ref=pulled.source_ref):
            start = tracer.now()
            result = self._run(pulled, user, command, devices, extra_hooks, cgroup_path)
            if tracer.enabled:
                # Phase breakdown: the analytic timing dict replayed as
                # sequential slices from the span start (pull → convert →
                # mount → monitor → runtime), so Perfetto shows where the
                # startup's virtual time goes.
                at = start
                for phase, cost in result.timings.items():
                    if cost:
                        tracer.complete_at(
                            f"engine.phase.{phase}", at, cost, engine=self.info.name
                        )
                        at += cost
        if run.metrics.enabled:
            run.metrics.inc("engine.runs", engine=self.info.name)
            run.metrics.observe(
                "engine.startup_seconds", result.startup_seconds, engine=self.info.name
            )
            for phase, cost in result.timings.items():
                run.metrics.inc(
                    "engine.phase_seconds", cost, engine=self.info.name, phase=phase
                )
        return result

    def _run(
        self,
        pulled: PulledImage,
        user: SimProcess,
        command: tuple[str, ...] | None = None,
        devices: tuple[str, ...] = (),
        extra_hooks: HookRegistry | None = None,
        cgroup_path: str | None = None,
    ) -> RunResult:
        self.stats["runs"] += 1
        result = RunResult(container=None, engine_name=self.info.name)  # type: ignore[arg-type]
        result.timings["pull"] = pulled.pull_cost
        result.timings["engine"] = self.invocation_overhead

        self._pre_run_checks(pulled, user, result)

        rootfs = self._prepare_rootfs(pulled, user, result)
        spec = self._make_spec(pulled, command, user)
        spec.devices = tuple(set(spec.devices) | set(devices))
        spec.cgroup_path = cgroup_path
        bundle = Bundle(rootfs=rootfs, spec=spec, origin=self.info.name)

        hooks = self.site_hooks
        if extra_hooks is not None:
            hooks = hooks.merged_with(extra_hooks)
        if len(hooks) and self.capabilities.oci_hooks == "no":
            raise EngineError(
                f"{self.info.name} has no hook framework; extend via its "
                "scripted components instead (§4.1.3)"
            )

        monitor = self._spawn_monitor(user)
        result.timings["monitor"] = (
            self._monitor_overhead(user) if monitor is None else monitor.spawn_cost
        )
        result.timings["runtime"] = self.runtime.startup_cost()

        # Cleanup guarantee (§3.2 "no lingering processes"): a fault
        # anywhere between create and start must leave no container
        # record, no running process, and no mounts behind — the engine
        # kills and deletes the half-started container before the error
        # propagates.
        owner = self._container_owner(user)
        container = None
        try:
            container = self.runtime.create(bundle, owner=owner, extra_hooks=hooks)
            container.monitor = monitor
            self.runtime.start(container)
        except BaseException:
            if container is not None:
                self._abort_container(container)
            elif monitor is not None:
                self._stop_monitor(monitor)
            raise
        result.container = container
        return result

    # -- teardown: stop → remove (record, processes, monitor) -------------------
    def stop(self, container: Container, exit_code: int = 0) -> None:
        """The ``stop`` verb: a running container's process exits with
        ``exit_code``; a container that is not running is left as is."""
        if container.state is ContainerState.RUNNING:
            self.runtime.finish(container, exit_code)

    def remove(self, container: Container) -> None:
        """The ``rm`` verb on a stopped container: the runtime deletes its
        record and reaps its process (:meth:`OCIRuntime.delete`), then its
        monitor is stopped and reaped.  Nothing of the container stays
        on the node; removing twice is a no-op."""
        try:
            if container.state is not ContainerState.DELETED:
                self.runtime.delete(container)
        finally:
            monitor = container.monitor
            if monitor is not None:
                container.monitor = None
                self._stop_monitor(monitor)

    def _abort_container(self, container: Container) -> None:
        """Best-effort teardown of a container whose start failed."""
        try:
            if container.state is ContainerState.RUNNING:
                self.runtime.kill(container)
            self.remove(container)
        except Exception:
            # poststop hooks may be as broken as whatever aborted the
            # start; delete drops the record and reaps regardless
            pass
        if run.metrics.enabled:
            run.metrics.inc("engine.aborted_containers", engine=self.info.name)

    def abort_all(self) -> int:
        """Force-stop every non-terminal container (node-crash cleanup).

        Returns how many containers were aborted.  Used by the kubelet's
        crash path so a dead node leaves no lingering containers or
        mounts behind (§3.2).
        """
        n = 0
        for container in list(self.runtime.containers.values()):
            if container.state not in (ContainerState.STOPPED, ContainerState.DELETED):
                self._abort_container(container)
                n += 1
        return n

    # -- template pieces subclasses override ------------------------------------
    def _pre_run_checks(self, pulled: PulledImage, user: SimProcess, result: RunResult) -> None:
        """Daemon present? signature policy? — engine-specific."""

    def _prepare_rootfs(
        self, pulled: PulledImage, user: SimProcess, result: RunResult
    ) -> MountedView:
        raise NotImplementedError

    def _namespace_request(self) -> NamespaceRequest:
        if self.capabilities.namespacing == "full":
            return NamespaceRequest.full()
        return NamespaceRequest.hpc_minimal()

    def _make_spec(
        self,
        pulled: PulledImage,
        command: tuple[str, ...] | None,
        user: SimProcess,
    ) -> RuntimeSpec:
        config = pulled.image.config
        spec = RuntimeSpec.from_image_config(config, namespaces=self._namespace_request())
        if command is not None:
            spec.args = command
        # HPC engines map the single invoking uid (§3.2); the container
        # user is therefore the job user, not whatever the image says.
        if self.capabilities.namespacing != "full":
            spec.user = str(user.creds.uid)
        return spec

    def _monitor_overhead(self, user: SimProcess) -> float:
        return 0.0

    def _spawn_monitor(self, user: SimProcess) -> ConmonMonitor | None:
        """Start the per-container monitor, if the engine runs one; its
        spawn cost then replaces :meth:`_monitor_overhead`."""
        return None

    def _stop_monitor(self, monitor: ConmonMonitor) -> None:
        monitor.stop()

    def _container_owner(self, user: SimProcess) -> SimProcess:
        """Which process creates the container (user vs root daemon)."""
        return user

    # -------------------------------------------------------- squash mounting
    def _install_suid_helper(self):
        """The engine's setuid-root mount helper on the node (installed
        by the site admin at deployment time)."""
        path = f"/usr/libexec/{self.info.name}-mount"
        tree = self.node.local_disk.tree
        if not tree.exists(path):
            tree.create_file(path, size=60_000, uid=0, gid=0, mode=0o4755)
        return tree.get(path)

    def _squash_rootfs(
        self,
        squash,
        user: SimProcess,
        result: RunResult,
        prefer_kernel_driver: bool,
        strict_provenance: bool = True,
    ) -> MountedView:
        """Mount a squash image as an unprivileged user.

        Kernel-driver path: a setuid-root helper mounts it (fast IOPS) —
        refused for user-manipulable images when ``strict_provenance``
        (§4.1.2), and unavailable where site policy bans setuid.
        Fallback: SquashFUSE (userspace parser, slower but safe).
        """
        import dataclasses as _dc

        from repro.fs.drivers import BindDriver, mount_squash

        kernel_ok = (
            prefer_kernel_driver
            and self.kernel.config.allow_setuid_binaries
        )
        if kernel_ok and strict_provenance and squash.is_user_manipulable(user.creds.uid):
            raise EngineError(
                "refusing to feed a user-manipulable image to the in-kernel "
                "SquashFS driver (§4.1.2); rebuild via the system cache"
            )
        if kernel_ok:
            if squash.is_user_manipulable(user.creds.uid):
                result.warn(
                    "user-supplied image mounted via the in-kernel driver: "
                    "kernel exposed to crafted filesystem data (§4.1.2)"
                )
            helper_bin = self._install_suid_helper()
            helper = self.kernel.exec_setuid(user, helper_bin, argv=(f"{self.info.name}-mount",))
            staged = mount_squash(squash, fuse=False)
            self.kernel.mount(helper, staged, f"/var/{self.info.name}/mnt/{squash.image_id}")
            result.timings.setdefault("mount", 0.0)
            result.timings["mount"] += 0.002
            # Hand the runtime a bind view of the staged mount: binding is
            # permitted inside the user namespace, remounting squash is not.
            return MountedView(
                BindDriver, [squash.tree], staged.cost_model, writable=False
            )
        # FUSE fallback (or FUSE-first engines).
        result.timings.setdefault("mount", 0.0)
        result.timings["mount"] += 0.004
        return mount_squash(squash, fuse=True)

    # ----------------------------------------------------------- interactive
    def exec_into(
        self,
        container: Container,
        user: SimProcess,
        argv: tuple[str, ...] = ("sh",),
    ) -> SimProcess:
        """`engine exec`: join a running container's namespaces (§4.1.6
        interactive access).  Only works when the kernel grants the caller
        capabilities over the container's user namespace — i.e. for the
        user who owns the (rootless) container, or root."""
        from repro.kernel.namespaces import NamespaceKind

        if container.state is not ContainerState.RUNNING:
            raise EngineError(f"container is not running ({container.state.value})")
        assert container.proc is not None
        target = container.proc
        proc = self.kernel.spawn(parent=user, argv=argv)
        self.kernel.setns(proc, target.userns)
        for kind, ns in target.namespaces.items():
            if kind is not NamespaceKind.USER and ns is not self.kernel.initial_namespaces.get(kind):
                self.kernel.setns(proc, ns)
        proc.mount_table = target.mount_table
        proc.root = target.root
        container.log(f"exec: pid {proc.pid} joined as uid {proc.creds.uid}")
        return proc

    # ------------------------------------------------------------------- misc
    def oci_compat_gaps(self, image: OCIImage) -> list[str]:
        """Why a vanilla cloud container may misbehave here (§4.1.3)."""
        gaps: list[str] = []
        if self.capabilities.namespacing != "full":
            if image.config.exposed_ports:
                gaps.append(
                    "image exposes service ports but no isolated network "
                    "namespace is created"
                )
            if image.config.required_uids:
                gaps.append(
                    "image expects multiple uids but only the invoking uid is mapped"
                )
        return gaps

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.node.name}>"
