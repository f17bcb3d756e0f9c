"""Property test: the indexed scheduler equals the linear-scan oracle.

The production pass (pending queue + lazy-deletion node heap) is a pure
perf rewrite of the linear pass in :mod:`tests.oracles.k8s`; for any
node fleet and pod stream the two must produce identical bindings,
stats and node allocations at identical virtual times.
"""

from hypothesis import given, settings, strategies as st

from repro.k8s import (
    APIServer,
    ContainerSpec,
    K8sNode,
    K8sScheduler,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
    ResourceRequests,
)
from repro.k8s.objects import NodeCondition
from repro.sim import Environment

from tests.oracles.k8s import LinearK8sScheduler

ZONES = ("a", "b")


def make_pod(name, cpu, gpu=0, selector=None):
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(
            containers=[
                ContainerSpec(
                    name="main",
                    image="registry.site.local/pipelines/step:v1",
                    resources=ResourceRequests(cpu=cpu, gpu=gpu),
                )
            ],
            node_selector=selector or {},
        ),
    )


def make_node(name, cpu, gpu, ready, zone):
    return K8sNode(
        metadata=ObjectMeta(name=name, labels={"zone": zone}),
        capacity=ResourceRequests(cpu=cpu, memory=64 * 2**30, gpu=gpu),
        condition=NodeCondition(ready=ready),
    )


node_strategy = st.lists(
    st.tuples(
        st.sampled_from((4, 8, 16)),        # cpu capacity
        st.integers(min_value=0, max_value=1),  # gpus
        st.booleans(),                      # ready
        st.sampled_from(ZONES),             # zone label
    ),
    min_size=1,
    max_size=10,
)

pod_strategy = st.lists(
    st.tuples(
        st.sampled_from((1, 2, 4, 8)),          # cpu request
        st.integers(min_value=0, max_value=1),  # gpu request
        st.sampled_from((None,) + ZONES),       # node selector
    ),
    min_size=1,
    max_size=30,
)


def run_mode(scheduler_cls, nodes_data, pods_data):
    env = Environment()
    api = APIServer()
    for i, (cpu, gpu, ready, zone) in enumerate(nodes_data):
        api.create("Node", make_node(f"n{i:02}", cpu, gpu, ready, zone))
    sched = scheduler_cls(env, api)

    def driver(env):
        pods = []
        # pods arrive in bursts of five, one second apart, so several
        # scheduling passes run against a half-filled fleet
        for i, (cpu, gpu, zone) in enumerate(pods_data):
            selector = {"zone": zone} if zone else {}
            pod = make_pod(f"p{i:03}", cpu, gpu, selector)
            pods.append(pod)
            api.create("Pod", pod)
            if i % 5 == 4:
                yield env.timeout(1.0)
        yield env.timeout(5.0)
        # finish every other bound pod — released capacity must let the
        # same stragglers through on both paths
        for pod in pods[::2]:
            if pod.bound:
                pod.phase = PodPhase.SUCCEEDED
                sched.release_pod(pod)
                api.update("Pod", pod)

    env.process(driver(env))
    env.run(until=60.0)
    return (
        {p.metadata.name: p.node_name for p in api.pods()},
        dict(sched.stats),
        {n.metadata.name: n.allocated.cpu for n in api.nodes()},
        env.now,
    )


@settings(max_examples=30, deadline=None)
@given(node_strategy, pod_strategy)
def test_indexed_scheduler_matches_linear_oracle(nodes_data, pods_data):
    indexed = run_mode(K8sScheduler, nodes_data, pods_data)
    linear = run_mode(LinearK8sScheduler, nodes_data, pods_data)
    assert indexed == linear


def test_unchanged_ratio_node_update_is_not_reindexed():
    """A heartbeat rewrites the Node without moving its cpu ratio: the
    index keeps its live entry instead of pushing a fresh one, and
    placement still sees the node after its own bind (0-cpu pods leave
    the ratio unchanged too)."""
    env = Environment()
    api = APIServer()
    node = make_node("n0", 8, 0, True, "a")
    api.create("Node", node)
    sched = K8sScheduler(env, api)
    heap_size = len(sched._heap)
    for _ in range(5):
        api.update("Node", node)  # heartbeat-style write
    assert len(sched._heap) == heap_size
    node.allocated = ResourceRequests(cpu=2)
    api.update("Node", node)
    assert len(sched._heap) == heap_size + 1
    pods = [make_pod(f"p{i}", cpu=0) for i in range(3)]
    for pod in pods:
        api.create("Pod", pod)
    env.run(until=1.0)
    assert all(p.node_name == "n0" for p in pods)
