"""CapacityIndex must make the exact decisions of the linear-scan oracle.

The fleet engine's byte-identity with its one-event-per-start oracle
rests on this: :class:`repro.cluster.CapacityIndex` (O(log nodes)) and
:class:`tests.oracles.capacity.LinearCapacityScan` (O(nodes) reference)
must return the *same node id* for every alloc in any interleaving of
allocations and releases — not just a node that fits.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import CapacityIndex

from tests.oracles.capacity import LinearCapacityScan

NODE_CPUS = 8

# an op script: each entry either allocates (1..cap cores) or releases
# the oldest live allocation (value == 0)
op_script = st.lists(st.integers(min_value=0, max_value=NODE_CPUS), max_size=120)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=24), op_script)
def test_index_matches_linear_oracle(n_nodes, ops):
    index = CapacityIndex(n_nodes, NODE_CPUS)
    oracle = LinearCapacityScan(n_nodes, NODE_CPUS)
    live: list[tuple[int, int]] = []  # (node, req) in allocation order

    for op in ops:
        if op == 0:
            if not live:
                continue
            node, req = live.pop(0)
            index.release(node, req)
            oracle.release(node, req)
        else:
            got = index.alloc(op)
            expected = oracle.alloc(op)
            assert got == expected, (
                f"index placed req={op} on {got}, oracle on {expected}"
            )
            if got is not None:
                live.append((got, op))
        assert index.free == oracle.free
        assert index.total_free == oracle.total_free

    # drain: every release lands both structures back in step
    for node, req in live:
        index.release(node, req)
        oracle.release(node, req)
    assert index.free == oracle.free
    assert index.total_free == n_nodes * NODE_CPUS


# crash/restore script: -1 crashes the next node round-robin, -2
# restores the oldest downed node, 0 releases, 1..cap allocates
chaos_script = st.lists(
    st.integers(min_value=-2, max_value=NODE_CPUS), max_size=120
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=24), chaos_script)
def test_index_matches_oracle_through_crash_restore(n_nodes, ops):
    """Down-node bookkeeping must be oracle-exact too: a crashed node is
    invisible to alloc, and restoring it brings back its full capacity
    in one step regardless of what was live when it died."""
    index = CapacityIndex(n_nodes, NODE_CPUS)
    oracle = LinearCapacityScan(n_nodes, NODE_CPUS)
    live: list[tuple[int, int]] = []
    downed: list[int] = []
    next_crash = 0

    for op in ops:
        if op == -1:
            node = next_crash % n_nodes
            next_crash += 1
            assert index.remove_node(node) == oracle.remove_node(node)
            if node not in downed:
                downed.append(node)
                # claims on the dead node die with it: the restore
                # resets free to full capacity, never via release
                live = [(n, r) for n, r in live if n != node]
        elif op == -2:
            if not downed:
                continue
            node = downed.pop(0)
            index.restore_node(node)
            oracle.restore_node(node)
        elif op == 0:
            if not live:
                continue
            node, req = live.pop(0)
            index.release(node, req)
            oracle.release(node, req)
        else:
            got = index.alloc(op)
            expected = oracle.alloc(op)
            assert got == expected
            if got is not None:
                assert got not in downed
                live.append((got, op))
        assert index.free == oracle.free
        assert index.down == oracle.down
        assert index.total_free == oracle.total_free

    for node in list(downed):
        index.restore_node(node)
        oracle.restore_node(node)
    assert index.free == oracle.free
    assert not index.down and not oracle.down


def test_exhaustion_returns_none_identically():
    index = CapacityIndex(2, 4)
    oracle = LinearCapacityScan(2, 4)
    for req in (4, 4, 1):
        assert index.alloc(req) == oracle.alloc(req)
    assert index.alloc(1) is None and oracle.alloc(1) is None


def test_best_fit_prefers_tightest_hole_lowest_id():
    index = CapacityIndex(3, 8)
    # carve different hole sizes: node0 -> 2 free, node1 -> 4 free, node2 -> 8
    assert index.alloc(8) == 0
    index.release(0, 2)
    assert index.alloc(8) == 1
    index.release(1, 4)
    # req=2 fits all three; tightest hole is node0's 2
    assert index.alloc(2) == 0
    # req=3 now fits node1 (4 free) and node2 (8 free): best fit is node1
    assert index.alloc(3) == 1
    # ties on the same free level prefer the lowest node id
    index2 = CapacityIndex(4, 4)
    assert index2.alloc(4) == 0
    assert index2.alloc(4) == 1
