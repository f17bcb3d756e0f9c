"""Property test: ``K8sScheduler`` on ``repro.sim.Bell`` equals the
scheduler on the loop it replaced, except for the passes it skips.

The reference (:class:`tests.oracles.k8s.ReferenceBell`) is a process
waiting on a latching signal that runs every pass.  Pods arrive, nodes
are rewritten and pods finish on a random schedule: before the scheduler
exists (watch replay rings before the boot record), in the same instant,
during the pass sleep and on the pass grid itself; every bind rings
during its pass.  Both runs must bind the same pods to the same nodes at
the same times and make the same non-empty passes at the same virtual
times under the same queue keys.  The production bell may skip a pass
only if it would have bound nothing and counted nothing: every record it
queues is the reference's record under the same key, and the only
records it lacks are those skipped passes' sleep records, reserved under
the keys the reference queued them with.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.k8s import APIServer, K8sScheduler, PodPhase
from repro.k8s.apiserver import WatchEventType

from tests.k8s.test_scheduler_index import make_node, make_pod
from tests.oracles.k8s import ReferenceBell
from tests.sim.test_signal import _LoggedEnvironment, assert_skips_only_empty_passes


class _PassLog(K8sScheduler):
    """Logs each pass as (time, sequence number of its record, binds,
    unschedulable counts)."""

    def __init__(self, env, api):
        self.passes = []
        super().__init__(env, api)

    def _schedule_pass(self) -> None:
        stats = dict(self.stats)
        super()._schedule_pass()
        self.passes.append((
            self.env.now,
            self.env._seq_now,
            self.stats["scheduled"] - stats["scheduled"],
            self.stats["unschedulable_events"] - stats["unschedulable_events"],
        ))


def run_schedule(reference, nodes_data, early_pods, script):
    env = _LoggedEnvironment()
    api = APIServer()
    binds = []

    def on_pod(event):
        pod = event.obj
        if event.type is WatchEventType.MODIFIED and pod.bound and pod.phase is PodPhase.PENDING:
            binds.append((env.now, pod.metadata.name, pod.node_name))

    api.watch("Pod", on_pod)
    nodes = [
        make_node(f"n{i:02}", cpu, 0, True, "a") for i, cpu in enumerate(nodes_data)
    ]
    for node in nodes:
        api.create("Node", node)
    pods = []

    def add_pod(cpu):
        pod = make_pod(f"p{len(pods):03}", cpu)
        pods.append(pod)
        api.create("Pod", pod)

    for cpu in early_pods:  # replayed into the scheduler's watch
        add_pod(cpu)
    sched = None

    def driver(env):
        for dt, action, arg in script:
            if dt:
                yield env.timeout(dt)
            if action == "pod":
                add_pod(arg)
            elif action == "node":
                api.update("Node", nodes[arg % len(nodes)])  # a heartbeat
            else:  # finish the arg-th bound, running pod
                running = [p for p in pods if p.bound and p.phase is PodPhase.PENDING]
                if running:
                    pod = running[arg % len(running)]
                    pod.phase = PodPhase.SUCCEEDED
                    sched.release_pod(pod)
                    api.update("Pod", pod)

    env.process(driver(env))  # its boot record runs before the bell's
    if reference:
        with mock.patch("repro.k8s.scheduler.Bell", ReferenceBell):
            sched = _PassLog(env, api)
    else:
        sched = _PassLog(env, api)
    env.run(until=60.0)
    return (
        sched.passes,
        binds,
        dict(sched.stats),
        {n.metadata.name: n.allocated.cpu for n in nodes},
        env.pushes,
        env.steps,
        env.reserves,
    )


@settings(max_examples=60, deadline=None)
@given(
    nodes_data=st.lists(st.sampled_from((2, 4, 8)), min_size=1, max_size=4),
    early_pods=st.lists(st.sampled_from((1, 2, 4)), max_size=3),
    script=st.lists(
        st.tuples(
            # 0.02 is the pass latency: same-instant arrivals, arrivals
            # during the sleep and on the pass grid
            st.sampled_from((0.0, 0.0, 0.01, 0.02, 0.04, 0.5)),
            st.sampled_from(("pod", "pod", "node", "finish")),
            st.integers(min_value=0, max_value=7),
        ),
        max_size=30,
    ),
)
def test_bell_scheduler_matches_latching_signal_loop(nodes_data, early_pods, script):
    script = [(dt, action, arg if action != "pod" else 1 + arg % 4)
              for dt, action, arg in script]
    passes, binds, stats, allocated, pushes, steps, reserves = run_schedule(
        False, nodes_data, early_pods, script
    )
    want_passes, want_binds, want_stats, want_allocated, want_pushes, want_steps, _ = (
        run_schedule(True, nodes_data, early_pods, script)
    )
    assert (binds, stats, allocated) == (want_binds, want_stats, want_allocated)
    assert_skips_only_empty_passes(
        (passes, pushes, steps, reserves), (want_passes, want_pushes, want_steps, [])
    )
