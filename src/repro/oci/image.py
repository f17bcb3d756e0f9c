"""OCI images: config, manifest, and the assembled image object."""

from __future__ import annotations

import dataclasses
import functools
import json
import typing as _t

from repro.fs.tree import FileTree
from repro.oci.digest import digest_str
from repro.oci.layer import Layer
from repro.run import run


@dataclasses.dataclass
class ImageConfig:
    """The OCI image config (docker-compatible subset)."""

    entrypoint: tuple[str, ...] = ()
    cmd: tuple[str, ...] = ("sh",)
    env: dict[str, str] = dataclasses.field(default_factory=dict)
    user: str = "root"
    workdir: str = "/"
    labels: dict[str, str] = dataclasses.field(default_factory=dict)
    architecture: str = "amd64"
    os: str = "linux"
    #: microarchitecture the content was optimized for (HPC extension used
    #: by the adaptive-containerization optimizer, paper §7 outlook)
    target_microarch: str = "x86-64-v2"
    #: exposed service ports — relevant because HPC engines break the
    #: isolated network namespace such services expect (§4.1.3)
    exposed_ports: tuple[int, ...] = ()
    #: additional uids the containerized software expects to exist
    required_uids: tuple[int, ...] = ()

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @property
    def digest(self) -> str:
        return digest_str(self.to_json())

    def argv(self) -> tuple[str, ...]:
        return tuple(self.entrypoint) + tuple(self.cmd)


@dataclasses.dataclass(frozen=True)
class Manifest:
    """The OCI manifest: config digest plus ordered layer digests."""

    config_digest: str
    layer_digests: tuple[str, ...]
    annotations: tuple[tuple[str, str], ...] = ()

    # cached: every field is immutable, and registries look manifests up
    # by digest on every push/pull — recomputing the JSON + hash per
    # access is measurable at fleet scale.  (cached_property writes
    # straight into __dict__, which the frozen dataclass permits.)
    @functools.cached_property
    def digest(self) -> str:
        payload = json.dumps(
            {
                "config": self.config_digest,
                "layers": list(self.layer_digests),
                "annotations": sorted(self.annotations),
            },
            sort_keys=True,
        )
        return digest_str(payload)


class OCIImage:
    """A fully materialized OCI image."""

    def __init__(self, config: ImageConfig, layers: _t.Sequence[Layer]):
        if not layers:
            raise ValueError("an image needs at least one layer")
        self.config = config
        self.layers = list(layers)
        self.manifest = Manifest(
            config_digest=config.digest,
            layer_digests=tuple(layer.digest for layer in self.layers),
        )
        self._flat: FileTree | None = None

    @property
    def digest(self) -> str:
        return self.manifest.digest

    @property
    def compressed_size(self) -> int:
        return sum(layer.compressed_size for layer in self.layers)

    @property
    def uncompressed_size(self) -> int:
        return sum(layer.uncompressed_size for layer in self.layers)

    @property
    def num_files(self) -> int:
        return self.flatten().num_files()

    def flatten(self) -> FileTree:
        """Apply all layers bottom-up into a single root filesystem.

        The first call materializes a master tree and memoizes it; every
        call returns an O(1) copy-on-write clone, so callers may mutate
        their copy freely while repeated flattens of the same image stay
        free.  (Clones are distinct trees: diffing one against another
        keeps the historical "bulk files always differ" semantics of
        :func:`repro.oci.layer.diff_trees`.)
        """
        if self._flat is None:
            tree = FileTree()
            for layer in self.layers:
                layer.apply_to(tree)
            self._flat = tree
        else:
            counters = run.counters
            if counters.enabled:
                counters.flatten_cache_hits += 1
        return self._flat.clone()

    def __repr__(self) -> str:
        return f"<OCIImage {self.digest[:19]} layers={len(self.layers)}>"


@dataclasses.dataclass(frozen=True)
class ImageReference:
    """Parsed form of ``registry.example.com/project/name:tag``."""

    registry: str
    repository: str
    tag: str = "latest"

    @classmethod
    def parse(cls, ref: str, default_registry: str = "docker.io") -> "ImageReference":
        registry = default_registry
        rest = ref
        if "/" in ref:
            head, tail = ref.split("/", 1)
            # A registry component contains a dot, a colon, or is localhost.
            if "." in head or ":" in head or head == "localhost":
                registry, rest = head, tail
        if ":" in rest:
            repository, tag = rest.rsplit(":", 1)
        else:
            repository, tag = rest, "latest"
        if not repository:
            raise ValueError(f"invalid image reference: {ref!r}")
        return cls(registry=registry, repository=repository, tag=tag)

    def __str__(self) -> str:
        return f"{self.registry}/{self.repository}:{self.tag}"
