"""Container monitors: per-machine daemons vs per-container monitors.

§3.2: "Spinning up a daemon on each compute node to control what is most
often a single container process is wasteful and may introduce extra
jitter, and increases the attack surface"; "a monitoring process ... must
run as the same user starting the process."
"""

from __future__ import annotations

from repro.kernel.process import SimProcess
from repro.kernel.syscalls import Kernel
from repro.run import run


class DockerDaemon:
    """A per-machine root daemon (dockerd).

    Runs as root in the initial namespaces; every container request is an
    RPC to it, and containers are its children — which is exactly why WLM
    accounting and per-user attribution break (§4.1.6), and why HPC sites
    reject the model.
    """

    #: RPC round trip from CLI to daemon
    rpc_latency = 4e-3
    #: resident memory per daemon — wasted on every compute node
    resident_memory = 150 * 2**20
    #: OS jitter the daemon introduces (fraction of a core consumed)
    background_cpu_fraction = 0.002

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.proc: SimProcess | None = None

    def start(self) -> SimProcess:
        if self.proc is None:
            # dockerd must be root: it manages storage drivers and netns.
            self.proc = self.kernel.spawn(parent=self.kernel.init, argv=("dockerd",))
            if run.metrics.enabled:
                # §3.2's jitter claim, made checkable: a per-machine root
                # daemon consumes a nonzero core fraction at steady state.
                run.metrics.set_gauge(
                    "monitor.background_cpu_fraction",
                    self.background_cpu_fraction,
                    monitor="dockerd",
                )
                run.metrics.set_gauge(
                    "monitor.resident_memory_bytes",
                    self.resident_memory,
                    monitor="dockerd",
                )
        return self.proc

    @property
    def running(self) -> bool:
        return self.proc is not None

    @property
    def runs_as_root(self) -> bool:
        return self.proc is not None and self.proc.creds.is_root


class ConmonMonitor:
    """A per-container monitor (conmon), spawned by the engine as the
    *same user* that starts the container — the HPC-acceptable model."""

    #: one-off spawn cost per container
    spawn_cost = 1.5e-3
    resident_memory = 2 * 2**20
    #: a per-container monitor sleeps between container exits: no
    #: steady-state OS jitter, unlike the per-machine daemon (§3.2)
    background_cpu_fraction = 0.0

    def __init__(self, kernel: Kernel, user: SimProcess):
        self.kernel = kernel
        self.proc = kernel.spawn(parent=user, argv=("conmon",))
        assert self.proc.creds.uid == user.creds.uid
        if run.metrics.enabled:
            run.metrics.set_gauge(
                "monitor.background_cpu_fraction",
                self.background_cpu_fraction,
                monitor="conmon",
            )
            run.metrics.set_gauge(
                "monitor.resident_memory_bytes",
                self.resident_memory,
                monitor="conmon",
            )

    def stop(self) -> None:
        """The monitored container is gone: conmon exits and is reaped."""
        self.kernel.exit(self.proc, 0)
        self.kernel.reap(self.proc)

    @property
    def runs_as_user(self) -> bool:
        return not self.proc.creds.is_root
