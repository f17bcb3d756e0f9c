"""Reference implementations the production paths are held equal to.

Each subsystem in ``src/repro`` ships one production path.  The modules
here are the plain, slow versions of those paths — linear scans and one
simulator event per occurrence — kept only so the equivalence tests can
compare every decision, timing and report byte against them:

- :mod:`tests.oracles.capacity` — ``LinearCapacityScan``, the O(nodes)
  best-fit scan behind ``repro.cluster.CapacityIndex``;
- :mod:`tests.oracles.k8s` — ``LinearK8sScheduler``, a pass that scans
  every pod and node instead of the pending queue + node heap, and
  ``ReferenceBell``, the scheduler loop (a process waiting on a latching
  signal) that ``repro.sim.Bell`` runs as a callback chain;
- :mod:`tests.oracles.wlm` — ``LinearBackfillScheduler`` and
  ``LinearSlurmController``: whole-node-list feasibility scans and a
  shadow time sorted from the running jobs;
- :mod:`tests.oracles.kubelet` — ``StoreScanKubelet``, which finds its
  pods by scanning the apiserver store on every sync, and
  ``ReferenceKubelet``, whose idle loop (park, tick, heartbeat RPC, Node
  write) runs in the ``_main`` generator instead of a callback chain;
- :mod:`tests.oracles.fleet` — ``OracleFleetShardEngine``, one simulator
  event per arrival, completion and fault edge, on the linear scan;
- :mod:`tests.oracles.signal` — ``ReferenceSignal``, the token-event
  park behind ``repro.sim.Signal``'s park records, and ``event_at``,
  the absolute-time event ``Environment.sleep_until`` stands in for;
- :mod:`tests.oracles.resources` — ``ReferenceResource``, whose grants
  are ``Request`` events where ``repro.sim.Resource`` queues records;
- :mod:`tests.oracles.control_plane` — swaps the k8s, WLM and kubelet
  oracles into the §6.5 kubelet-in-allocation scenario at once.

Tests swap an oracle in by constructing it directly or with pytest's
``monkeypatch``; ``src/`` never imports this package.
"""
