"""Property test: ``Kubelet``'s idle callback chain equals the generator
idle loop it replaced (:class:`tests.oracles.kubelet.ReferenceKubelet`).

Pods arrive bound to the node or through the scheduler, and the kubelet
is stopped, crashed and restarted, on a random schedule aimed at the
idle cycle's edges: exactly on a heartbeat tick, inside and at the end
of the heartbeat RPC, and inside and at the end of the scheduler sleep
that the heartbeat's Node write rings.  Every cost is a multiple of
1/64 s, so those instants are exact.  Both kubelets must queue the same
records under the same keys, start and end every pod at the same times,
write the same heartbeats and count the same sync loops.  With a wakeup
that never fires, pods wait in the inbox for the tick, where the chain
hands them to ``_main``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.k8s import APIServer, K8sScheduler, Kubelet, PodPhase
from repro.run import ObsConfig, observing
from repro.scenarios import KubeletInAllocationScenario
from repro.sim import Environment, Signal, next_tick
from repro.world import WorldState

from tests.k8s.conftest import make_cri, make_registry
from tests.k8s.test_kubelet_and_bridges import make_pod
from tests.oracles.kubelet import ReferenceKubelet
from tests.oracles.signal import event_at
from tests.sim.test_signal import _LoggedEnvironment

#: heartbeat RPC and scheduler pass latencies, exact in binary
RPC = 1 / 16
PASS = 1 / 32
END = 70.0


class _Scheduler(K8sScheduler):
    pass_latency = PASS


def _targets(last_write):
    """Instants on the idle cycle that follows the heartbeat Node write
    at ``last_write``: its tick (sequential grid additions, as the
    kubelet computes it), inside and at the end of the heartbeat RPC,
    and inside and at the end of the scheduler sleep the write rang."""
    tick = last_write + Kubelet.sync_interval
    while tick - last_write < Kubelet.heartbeat_interval:
        tick += Kubelet.sync_interval
    return {
        "tick": tick,
        "rpc": tick + RPC / 2,
        "rpc_end": tick + RPC,
        "sleep": last_write + PASS / 2,
        "sleep_end": last_write + PASS,
    }


class _DeafSignal(Signal):
    """A wakeup whose fires are lost: pods routed to the inbox wait for
    the next tick, so the idle chain meets them there."""

    def fire(self):
        return 0


def run_kubelet(kubelet_cls, script, deaf=False):
    WorldState.pristine().install()
    env = _LoggedEnvironment()
    api = APIServer()
    api.request_latency = RPC
    _Scheduler(env, api)
    cri, _host = make_cri(make_registry())
    kubelet = kubelet_cls(env, api, "knode", cri)
    if deaf:
        kubelet._wakeup = _DeafSignal(env)
    nodes = []  # (now, last_heartbeat, ready) per Node event
    #: when each new last_heartbeat value was first written, from the
    #: registration on
    writes = [Kubelet.startup_cost + RPC]

    def on_node(event):
        cond = event.obj.condition
        if nodes and nodes[-1][1] != cond.last_heartbeat:
            writes.append(env.now)
        nodes.append((env.now, cond.last_heartbeat, cond.ready))

    api.watch("Node", on_node)
    pods = []
    started = [0.0]

    def driver(env):
        for anchor, action, duration in script:
            if anchor == "free":
                when = env.now + duration / 4
            else:
                when = _targets(writes[-1])[anchor]
            if when > env.now:
                yield event_at(env, when)
            if action in ("bound", "pod"):
                pod = make_pod(f"p{len(pods):02}", duration=duration, cpu=1.0)
                if action == "bound":
                    pod.node_name = "knode"
                pods.append(pod)
                api.create("Pod", pod)
            elif action == "start":
                if not kubelet._running:
                    kubelet.start()
                    started.append(env.now)
            elif env.now > started[-1] + Kubelet.startup_cost + RPC:
                # (an agent stopped before it registers fails its process)
                if action == "stop":
                    kubelet.stop()
                else:
                    kubelet.crash()

    kubelet.start()
    env.process(driver(env))
    env.run(until=END)
    return {
        "pushes": env.pushes,
        "reserves": env.reserves,
        "steps": env.steps,
        "pods": [(p.metadata.name, p.node_name, p.phase, p.start_time, p.end_time)
                 for p in pods],
        "nodes": nodes,
        "stats": dict(kubelet.stats),
        "running": kubelet._running,
    }, kubelet


@settings(max_examples=150, deadline=None)
@given(
    deaf=st.booleans(),
    script=st.lists(
        st.tuples(
            st.sampled_from(("tick", "tick", "rpc", "rpc_end", "sleep", "sleep_end", "free")),
            st.sampled_from(("bound", "bound", "pod", "pod", "stop", "crash", "start")),
            st.sampled_from((1.0, 2.5, 12.0)),
        ),
        max_size=10,
    ),
)
def test_idle_chain_matches_generator_idle_loop(deaf, script):
    got, kubelet = run_kubelet(Kubelet, script, deaf)
    want, _ = run_kubelet(ReferenceKubelet, script, deaf)
    assert got == want
    if not kubelet._running:
        assert kubelet._wakeup.waiting == 0


def test_idle_chain_runs_heartbeats_on_the_reference_keys():
    """No pods: a kubelet's whole life is the idle cycle."""
    got, kubelet = run_kubelet(Kubelet, [])
    want, _ = run_kubelet(ReferenceKubelet, [])
    assert got == want
    heartbeats = {last for _now, last, _ready in got["nodes"]}
    assert len(heartbeats) == 7  # registration + six 10 s heartbeats
    assert kubelet._wakeup.waiting == 1  # the chain's park


def _provisioned_pair():
    env = Environment()
    scenario = KubeletInAllocationScenario(env, n_nodes=2)
    env.run(until=scenario.provision())
    env.run(until=env.now + 25.0)  # past the first idle heartbeats
    return env, scenario.kubelets


def test_stop_and_crash_leave_no_park_registration():
    env, (stopped, crashed) = _provisioned_pair()
    assert stopped._wakeup.waiting == crashed._wakeup.waiting == 1
    stopped.stop()
    crashed.crash()
    env.run(until=env.now + 15.0)
    for kubelet in (stopped, crashed):
        assert not kubelet._proc.is_alive
        assert kubelet._wakeup.waiting == 0
        assert kubelet.api.get("Node", kubelet.node_name).condition.ready is False


def test_fire_after_stop_wakes_nothing():
    env, (kubelet, _other) = _provisioned_pair()
    kubelet.stop()
    pod = make_pod("late")
    pod.node_name = kubelet.node_name
    kubelet.api.create("Pod", pod)  # the dropped watch no longer routes it
    env.run(until=env.now + 15.0)
    assert kubelet._wakeup.waiting == 0
    assert pod.phase is PodPhase.PENDING


def _race_a_pod_against_the_interrupt(kubelet_cls, halt):
    """Two kubelets, ``a`` started at 0 and ``b`` at 1.  In the middle
    of ``b``'s first heartbeat RPC, ``a`` is parked for its next tick.
    There both are halted (``stop`` or ``crash``) and a pod bound to
    each lands, before either Interrupt is delivered."""
    WorldState.pristine().install()
    with observing(ObsConfig()) as run:
        env = Environment()
        api = APIServer()
        api.request_latency = RPC
        kubelets = [
            kubelet_cls(env, api, name, make_cri(make_registry(), name)[0])
            for name in ("a", "b")
        ]
        # b registers at 1 + startup + RPC; its first heartbeat tick
        # comes 10 s later, and a is parked from a's tick + RPC
        race = _targets(1.0 + Kubelet.startup_cost + RPC)["rpc"]
        pods = []

        def race_them(env):
            kubelets[0].start()
            yield env.timeout(1.0)
            kubelets[1].start()
            yield event_at(env, race)
            parked = [kubelet._wakeup.waiting for kubelet in kubelets]
            for kubelet in kubelets:
                getattr(kubelet, halt)()
            for kubelet in kubelets:
                pod = make_pod(f"late-{kubelet.node_name}")
                pod.node_name = kubelet.node_name
                pods.append(pod)
                api.create("Pod", pod)  # the watch still routes it here
            return parked

        parked = env.run(until=env.process(race_them(env)))
        env.run(until=END)
        counters = run.counters.snapshot()
    return {
        "parked": parked,
        "counters": {
            name: counters[name]
            for name in ("wakeups_fired", "direct_resumes", "events_processed")
        },
        "waiting": [kubelet._wakeup.waiting for kubelet in kubelets],
        "alive": [kubelet._proc.is_alive for kubelet in kubelets],
        "pods": [pod.phase for pod in pods],
    }


@pytest.mark.parametrize("halt", ["stop", "crash"])
def test_pod_landing_between_halt_and_interrupt_wakes_nothing(halt):
    got = _race_a_pod_against_the_interrupt(Kubelet, halt)
    want = _race_a_pod_against_the_interrupt(ReferenceKubelet, halt)
    assert got == want
    assert got["parked"] == [1, 0]  # a parked, b's heartbeat RPC in flight
    assert got["counters"]["wakeups_fired"] == 0
    assert got["waiting"] == [0, 0]
    assert got["alive"] == [False, False]
    assert got["pods"] == [PodPhase.PENDING, PodPhase.PENDING]


def test_park_sums_its_ticks_across_a_power_of_two():
    """The tick a park waits for is summed one interval at a time, as
    the polling loop's wake times were.  Just below 4096 the sum of 20
    half-second intervals lands short of ``epoch + 10``, so a heartbeat
    due 10 s after ``epoch`` waits for the 21st tick; the closed form
    ``epoch + 20*interval`` names the 20th, which is not yet due."""
    epoch = 4091.822505609353
    env = Environment(initial_time=epoch)
    kubelet = Kubelet(env, APIServer(), "knode", cri=None)
    kubelet.start()  # the chain parks against its _main process
    kubelet._last_heartbeat = epoch
    kubelet._park(epoch)
    ((when, _priority, _seq, record),) = env._queue
    assert record is kubelet._idle_record
    assert (when, kubelet._idle_skipped) == (4102.322505609352, 20)
    closed_form = epoch + 20 * Kubelet.sync_interval
    assert closed_form == 4101.822505609352
    assert closed_form - epoch < Kubelet.heartbeat_interval
    assert next_tick(epoch, Kubelet.sync_interval, closed_form) == (4102.322505609352, 20)


@settings(max_examples=300, deadline=None)
@given(
    epoch=st.one_of(
        st.floats(min_value=1.0, max_value=2.0**40),
        st.integers(1, 40).map(lambda e: 2.0**e - 5.0),
        st.integers(1, 40).map(lambda e: 2.0**e - 10.0),
    ),
    since=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
    sync_interval=st.sampled_from([0.5, 0.1, 0.3, 5.0]),
    heartbeat_interval=st.sampled_from([10.0, 1.0, 3.3, 0.5]),
)
def test_park_tick_is_the_polling_loops(epoch, since, sync_interval, heartbeat_interval):
    """Whatever the intervals and however long ago the last heartbeat
    was, the park waits for the tick (and counts the skipped ticks) the
    polling loop's sequential sums reach first."""
    env = Environment(initial_time=epoch)
    kubelet = Kubelet(env, APIServer(), "knode", cri=None)
    kubelet.sync_interval = sync_interval
    kubelet.heartbeat_interval = heartbeat_interval
    kubelet.start()
    last = max(0.0, epoch - since)
    kubelet._last_heartbeat = last
    kubelet._park(epoch)
    tick = epoch + sync_interval
    skipped = 0
    while tick - last < heartbeat_interval:
        tick += sync_interval
        skipped += 1
    ((when, _priority, _seq, _record),) = env._queue
    assert (when, kubelet._idle_skipped) == (tick, skipped)


def test_idle_heartbeat_ring_holds_the_pass_a_new_pod_binds_at():
    """A heartbeat's Node write changes nothing the scheduler reads, yet
    its ring matters: the empty pass it starts reserves the key
    ``h + pass_latency``, and a pod created inside that sleep binds
    there, not at its own creation plus ``pass_latency``."""
    WorldState.pristine().install()
    env = Environment()
    api = APIServer()
    api.request_latency = RPC
    _Scheduler(env, api)
    cri, _host = make_cri(make_registry())
    Kubelet(env, api, "knode", cri).start()
    writes = []
    api.watch("Node", lambda event: writes.append(env.now), replay_existing=False)
    while len(writes) < 2:  # the registration, then the first heartbeat
        env.step()
    heartbeat = env.now
    assert writes == [Kubelet.startup_cost + RPC, heartbeat]
    env.run(until=heartbeat + PASS / 2)
    binds = []
    api.watch(
        "Pod",
        lambda event: event.obj.node_name and not binds and binds.append(env.now),
        replay_existing=False,
    )
    api.create("Pod", make_pod("p", duration=1.0, cpu=1.0))
    env.run(until=heartbeat + 4 * PASS)
    assert binds == [heartbeat + PASS]
