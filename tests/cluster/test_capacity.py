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


def _scripts(kinds: str, max_size: int = 200):
    """Op scripts of ``(kind, arg)`` pairs, ``kind`` a letter of
    ``kinds`` and ``arg`` in 0..63, each pair drawn as one integer so
    long scripts stay cheap.  A letter listed n times is drawn n times
    as often: the scripts list allocs ("a") several times and are at
    least 60 ops long, so pools fill and refusals, with the free-core
    bound they lower, are common rather than a rare corner."""
    return st.lists(
        st.integers(0, 64 * len(kinds) - 1).map(lambda v: (kinds[v >> 6], v & 63)),
        min_size=60, max_size=max_size,
    )


def _req(arg: int) -> int:
    return 1 + arg % NODE_CPUS


# an op script: ("a", arg) allocates 1..cap cores, ("r", _) releases the
# oldest live allocation
op_script = _scripts("aaaar", max_size=160)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=24), op_script)
def test_index_matches_linear_oracle(n_nodes, ops):
    index = CapacityIndex(n_nodes, NODE_CPUS)
    oracle = LinearCapacityScan(n_nodes, NODE_CPUS)
    live: list[tuple[int, int]] = []  # (node, req) in allocation order

    for kind, arg in ops:
        if kind == "r":
            if not live:
                continue
            node, req = live.pop(0)
            index.release(node, req)
            oracle.release(node, req)
        else:
            req = _req(arg)
            got = index.alloc(req)
            expected = oracle.alloc(req)
            assert got == expected, (
                f"index placed req={req} on {got}, oracle on {expected}"
            )
            if got is not None:
                live.append((got, req))
        assert index.free == oracle.free
        assert index.total_free == oracle.total_free
        assert index.max_free >= max(index.free)

    # drain: every release lands both structures back in step
    for node, req in live:
        index.release(node, req)
        oracle.release(node, req)
    assert index.free == oracle.free
    assert index.total_free == n_nodes * NODE_CPUS


# crash/restore script: "c" crashes the next node round-robin, "u"
# restores the oldest downed node, "r" releases, "a" allocates
chaos_script = _scripts("aaaarcu", max_size=160)


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

    for kind, arg in ops:
        if kind == "c":
            node = next_crash % n_nodes
            next_crash += 1
            assert index.remove_node(node) == oracle.remove_node(node)
            if node not in downed:
                downed.append(node)
                # claims on the dead node die with it: the restore
                # resets free to full capacity, never via release
                live = [(n, r) for n, r in live if n != node]
        elif kind == "u":
            if not downed:
                continue
            node = downed.pop(0)
            index.restore_node(node)
            oracle.restore_node(node)
        elif kind == "r":
            if not live:
                continue
            node, req = live.pop(0)
            index.release(node, req)
            oracle.release(node, req)
        else:
            req = _req(arg)
            got = index.alloc(req)
            expected = oracle.alloc(req)
            assert got == expected
            if got is not None:
                assert got not in downed
                live.append((got, req))
        assert index.free == oracle.free
        assert index.down == oracle.down
        assert index.total_free == oracle.total_free
        assert index.max_free >= max(index.free)

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


# mixed script: ("a", arg) allocates, ("r", k) releases the k-th oldest
# live claim, ("c", node) crashes a node, ("u", k) restores the k-th
# oldest downed node
mixed_script = _scripts("aaaarcu")


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), mixed_script)
def test_max_free_bound_stays_sound_and_oracle_exact(n_nodes, ops):
    """The max-free bound only ever short-circuits allocs the oracle
    also refuses: through any alloc/release/crash/restore sequence it
    stays >= every node's free capacity, and every decision (including
    the O(1) refusals) matches the linear scan."""
    index = CapacityIndex(n_nodes, NODE_CPUS)
    oracle = LinearCapacityScan(n_nodes, NODE_CPUS)
    live: list[tuple[int, int]] = []
    downed: list[int] = []

    for kind, arg in ops:
        if kind == "a":
            req = _req(arg)
            got = index.alloc(req)
            assert got == oracle.alloc(req)
            if got is not None:
                live.append((got, req))
        elif kind == "r" and live:
            node, req = live.pop(arg % len(live))
            index.release(node, req)
            oracle.release(node, req)
        elif kind == "c":
            node = arg % n_nodes
            assert index.remove_node(node) == oracle.remove_node(node)
            if node not in downed:
                downed.append(node)
                live = [(n, r) for n, r in live if n != node]
        elif kind == "u" and downed:
            node = downed.pop(arg % len(downed))
            index.restore_node(node)
            oracle.restore_node(node)
        assert index.free == oracle.free
        assert index.down == oracle.down
        assert index.max_free >= max(index.free)


def test_refusal_above_the_bound_touches_no_bucket():
    index = CapacityIndex(3, 8)
    for _ in range(3):
        assert index.alloc(6) is not None  # every node left with 2 free
    assert index.alloc(3) is None  # full scan: bound drops to 2
    buckets = [list(b) for b in index._buckets]
    assert index.alloc(5) is None and index.alloc(3) is None
    assert [list(b) for b in index._buckets] == buckets
    assert index.alloc(2) == 0  # at the bound: still placed
    index.release(0, 6)  # node 0 back to 6 free: the bound rises
    assert index.alloc(5) == 0
    index.remove_node(1)
    index.restore_node(1)  # a rebooted node is fully free
    assert index.alloc(8) == 1


# head script: allocs, releases, crashes and restores as in the mixed
# script, plus ("h", arg), which releases the (arg % 8)-th oldest live
# claim carrying a queue head larger than every other node's free
# capacity (the pump's precondition), ``arg // 8`` picking among those
# sizes (0..3: one core above the largest other hole).
head_script = _scripts("aaaarcuhh")


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), head_script)
def test_release_with_a_head_equals_release_then_alloc(n_nodes, ops):
    """While no other up node has ``head`` free cores, a release that
    carries the queue head decides what a release followed by a linear
    best-fit ``alloc(head)`` decides: the same node or the same
    refusal, with the same free vector and down set after.  Every later
    decision stays oracle-exact and the free-core bound stays sound."""
    index = CapacityIndex(n_nodes, NODE_CPUS)
    oracle = LinearCapacityScan(n_nodes, NODE_CPUS)
    live: list[tuple[int, int]] = []
    downed: list[int] = []

    for kind, arg in ops:
        if kind == "a":
            req = _req(arg)
            got = index.alloc(req)
            assert got == oracle.alloc(req)
            if got is not None:
                live.append((got, req))
        elif kind in "rh" and live:
            k, extra = (arg, 0) if kind == "r" else (arg % 8, max(0, arg // 8 - 3))
            node, req = live.pop(k % len(live))
            others = max((f for n, f in enumerate(oracle.free) if n != node), default=0)
            if kind == "r" or others == NODE_CPUS:
                index.release(node, req)
                oracle.release(node, req)
            else:
                head = others + 1 + extra % (NODE_CPUS - others)
                handed = index.release(node, req, head)
                oracle.release(node, req)
                expected = oracle.alloc(head)
                assert (node if handed else None) == expected
                if handed:
                    live.append((node, head))
        elif kind == "c":
            node = arg % n_nodes
            assert index.remove_node(node) == oracle.remove_node(node)
            if node not in downed:
                downed.append(node)
                live = [(n, r) for n, r in live if n != node]
        elif kind == "u" and downed:
            node = downed.pop(arg % len(downed))
            index.restore_node(node)
            oracle.restore_node(node)
        assert index.free == oracle.free
        assert index.down == oracle.down
        assert index.max_free >= max(index.free)


def test_release_hands_the_head_the_freed_cores():
    index = CapacityIndex(3, 8)
    for _ in range(3):
        assert index.alloc(6) is not None  # every node left with 2 free
    assert index.release(1, 4, 5)  # node 1 reaches 6 free: the head takes 5
    assert index.free == [2, 1, 2]
    assert index.alloc(1) == 1  # the 1 core left is indexed at its level
    assert index.max_free >= max(index.free)


def test_release_refusing_the_head_lowers_the_bound_without_a_scan():
    index = CapacityIndex(3, 8)
    for _ in range(3):
        assert index.alloc(6) is not None  # every node left with 2 free
    index.release(0, 2)  # node 0 holds the largest hole, 4 cores
    buckets = [list(b) for b in index._buckets]
    assert not index.release(1, 1, 5)  # node 1 reaches 3 free: the head waits
    assert index.free == [4, 3, 2]
    assert index.max_free == 4  # what a failed alloc(5) would have learned
    assert [list(b) for b in index._buckets] == [*buckets[:3], [1], *buckets[4:]]
    assert index.alloc(5) is None and index.alloc(4) == 0
