"""Swap all three control-plane oracles into the §6.5 scenario."""

from __future__ import annotations

from repro.k8s import k3s as _k3s
from repro.k8s import scheduler as _k8s_scheduler
from repro.scenarios import kubelet_in_allocation as _kia
from repro.wlm import slurm as _slurm

from tests.oracles.k8s import LinearK8sScheduler, ReferenceBell
from tests.oracles.kubelet import StoreScanKubelet
from tests.oracles.wlm import LinearSlurmController


def use_control_plane_oracles(monkeypatch) -> None:
    """Every K3s server, Slurm controller and kubelet the
    kubelet-in-allocation scenario builds from now on runs its linear
    reference: the k8s linear pass, linear backfill and store-scan sync,
    with both schedulers' passes driven by the generator loop."""
    monkeypatch.setattr(_k3s, "K8sScheduler", LinearK8sScheduler)
    monkeypatch.setattr(_k8s_scheduler, "Bell", ReferenceBell)
    monkeypatch.setattr(_slurm, "Bell", ReferenceBell)
    monkeypatch.setattr(_kia, "SlurmController", LinearSlurmController)
    monkeypatch.setattr(_kia, "Kubelet", StoreScanKubelet)
