"""Swap all three control-plane oracles into the §6.5 scenario."""

from __future__ import annotations

from repro.k8s import k3s as _k3s
from repro.scenarios import kubelet_in_allocation as _kia

from tests.oracles.k8s import LinearK8sScheduler
from tests.oracles.kubelet import StoreScanKubelet
from tests.oracles.wlm import LinearSlurmController


def use_control_plane_oracles(monkeypatch) -> None:
    """Every K3s server, Slurm controller and kubelet the
    kubelet-in-allocation scenario builds from now on runs its linear
    reference: the k8s linear pass, linear backfill and store-scan sync."""
    monkeypatch.setattr(_k3s, "K8sScheduler", LinearK8sScheduler)
    monkeypatch.setattr(_kia, "SlurmController", LinearSlurmController)
    monkeypatch.setattr(_kia, "Kubelet", StoreScanKubelet)
