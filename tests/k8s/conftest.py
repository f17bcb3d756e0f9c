"""Fixtures for Kubernetes tests."""

import pytest

from repro.cluster import HostNode
from repro.engines import PodmanEngine
from repro.k8s import CRIRuntime
from repro.oci import Builder
from repro.oci.catalog import BaseImageCatalog
from repro.registry import OCIDistributionRegistry
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry():
    return make_registry()


def make_registry():
    reg = OCIDistributionRegistry(name="site")
    builder = Builder(BaseImageCatalog())
    img = builder.build_dockerfile("FROM alpine:3.18\nRUN write /srv/app 1000000")
    reg.push_image("pipelines/step", "v1", img)
    return reg


def make_cri(registry, name="knode"):
    host = HostNode(name=name)
    engine = PodmanEngine(host)
    return CRIRuntime(engine, registry), host
