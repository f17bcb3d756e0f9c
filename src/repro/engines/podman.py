"""Podman and Podman-HPC.

Podman: daemonless, per-container conmon monitor, rootless via user
namespaces with fuse-overlayfs, GPG/sigstore verification, encrypted
container support, SIF execution support (§4.1.4).

Podman-HPC (NERSC): a thin wrapper adding the HPC tricks — transparent
squash conversion with caching, SquashFUSE+fuse-overlayfs rootfs, GPU
enablement, and MPI library hookup (Tables 1–3).
"""

from __future__ import annotations

from repro.cluster.node import HostNode
from repro.engines.base import (
    ContainerEngine,
    EngineCapabilities,
    EngineError,
    EngineInfo,
    PulledImage,
    RunResult,
)
from repro.engines.hookup import make_gpu_hook, make_mpi_hook
from repro.engines.monitor import ConmonMonitor
from repro.fs.drivers import MountedView, mount_overlay, mount_squash
from repro.fs.tree import FileTree
from repro.kernel.process import SimProcess
from repro.oci.builder import Builder
from repro.oci.image import OCIImage
from repro.oci.sif import SIFImage
from repro.oci.squash import oci_to_squash
from repro.signing.gpg import GPGKeyring
from repro.signing.keys import KeyPair, SignatureError


class PodmanEngine(ContainerEngine):
    info = EngineInfo(
        name="podman",
        version="v4.6.1",
        champion="RedHat/IBM",
        affiliation="Kubernetes",
        default_runtime="crun",
        implementation_language="Go",
        contributors=461,
        docs_user="+",
        docs_admin="N/A",
        docs_source="++",
        module_integration="shpc",
    )
    capabilities = EngineCapabilities(
        rootless=("UserNS",),
        rootless_fs=("fuse-overlayfs",),
        monitor="per-container (conmon)",
        oci_hooks="yes",
        oci_container="yes",
        transparent_conversion=False,
        native_caching=False,
        native_sharing=False,
        namespacing="full",
        signature_verification=("gpg", "sigstore"),
        encryption=True,
        gpu="hooks",
        accelerators="hooks",
        library_hookup="hooks",
        wlm_integration="no",
        build_tool=True,
        daemonless=True,
        requires_setuid=False,
    )

    def __init__(self, node: HostNode, keyring: GPGKeyring | None = None):
        super().__init__(node)
        self.keyring = keyring
        self.builder = Builder()
        #: monitors of the containers not yet removed, in spawn order
        self.monitors: list[ConmonMonitor] = []

    def _spawn_monitor(self, user: SimProcess) -> ConmonMonitor:
        monitor = ConmonMonitor(self.kernel, user)
        self.monitors.append(monitor)
        return monitor

    def _stop_monitor(self, monitor: ConmonMonitor) -> None:
        monitor.stop()
        self.monitors.remove(monitor)

    def _prepare_rootfs(self, pulled: PulledImage, user: SimProcess, result: RunResult) -> MountedView:
        image = pulled.image
        if isinstance(image, SIFImage):
            # Podman runs SIF directly (§4.1.4), rootless via SquashFUSE.
            tree = image.readable_tree()  # raises if still encrypted
            result.timings["mount"] = 0.003
            return mount_squash(image.squash, fuse=True)
        assert isinstance(image, OCIImage)
        layers = [layer.tree for layer in image.layers]
        result.timings["mount"] = 0.003
        # Rootless default data path: fuse-overlayfs (Table 1).
        return mount_overlay(layers, self.node.local_disk.cost_model, fuse=True, writable=True)

    # -- encryption (ocicrypt / SIF) -----------------------------------------------
    def run(self, pulled, user, decryption_key: KeyPair | None = None, **kwargs):
        from repro.oci.encryption import EncryptedOCIImage

        image = pulled.image if isinstance(pulled, PulledImage) else pulled
        if isinstance(image, SIFImage) and image.encrypted:
            if decryption_key is None:
                raise EngineError("image is encrypted; supply decryption_key")
            image.decrypt(decryption_key)
        elif isinstance(image, EncryptedOCIImage):
            # ocicrypt: decrypt layers at run time (Table 2: encryption yes)
            if decryption_key is None:
                raise EngineError("image is ocicrypt-encrypted; supply decryption_key")
            plain = image.decrypt(decryption_key)
            if isinstance(pulled, PulledImage):
                pulled = PulledImage(source_ref=pulled.source_ref, image=plain,
                                     pull_cost=pulled.pull_cost)
            else:
                pulled = plain
        return super().run(pulled, user, **kwargs)

    # -- signing -----------------------------------------------------------------------
    def verify_image(self, image: OCIImage, signature) -> str:
        if self.keyring is None:
            raise EngineError("no keyring configured (podman image trust)")
        return self.keyring.verify_detached(image.digest.encode(), signature)

    def build(self, dockerfile: str, context=None) -> OCIImage:
        return self.builder.build_dockerfile(dockerfile, context=context)


class PodmanHPCEngine(PodmanEngine):
    info = EngineInfo(
        name="podman-hpc",
        version="v1.0.2",
        champion="NERSC",
        affiliation="-",
        default_runtime="crun",
        implementation_language="Python, C",
        contributors=3,
        docs_user="N/A",
        docs_admin="N/A",
        docs_source="(+)",
        module_integration="(shpc)",
    )
    capabilities = EngineCapabilities(
        rootless=("UserNS",),
        rootless_fs=("SquashFUSE", "fuse-overlayfs"),
        monitor="per-container (conmon)",
        oci_hooks="yes",
        oci_container="yes",
        transparent_conversion=True,
        native_caching=True,
        native_sharing=False,
        namespacing="full/user+mount",
        signature_verification=("gpg", "sigstore"),
        encryption=True,
        gpu="yes",
        accelerators="hooks-or-patch",
        library_hookup="yes",
        wlm_integration="no",
        build_tool=True,
        daemonless=True,
        requires_setuid=False,
    )

    def _namespace_request(self):
        from repro.oci.bundle import NamespaceRequest

        # "full/user and mount NS": HPC-minimal by default on compute nodes.
        return NamespaceRequest.hpc_minimal()

    def _prepare_rootfs(self, pulled: PulledImage, user: SimProcess, result: RunResult) -> MountedView:
        image = pulled.image
        if isinstance(image, SIFImage):
            return super()._prepare_rootfs(pulled, user, result)
        assert isinstance(image, OCIImage)
        # Transparent conversion to a single squash file, cached per user
        # (intercepting layer unpacking, §4.1.9).
        squash = self._cache_lookup(image.digest, user.creds.uid)
        if squash is None:
            squash, cost = oci_to_squash(image, built_by_uid=user.creds.uid)
            self._cache_store(image.digest, squash, user.creds.uid)
            self.stats["conversions"] += 1
            result.timings["convert"] = cost
        result.timings["mount"] = 0.004
        # SquashFUSE base + fuse-overlay writable upper (Table 1).
        base = mount_squash(squash, fuse=True)
        return mount_overlay(
            [base.layers[0]], base.cost_model, fuse=True, writable=True
        )

    # -- built-in HPC enablement (no external hooks needed) ---------------------------
    def enable_gpu(self) -> None:
        if not self.node.has_gpus:
            raise EngineError(f"node {self.node.name} has no GPUs")
        self.site_hooks.register(make_gpu_hook(self.node, strict_abi=False))

    def enable_mpi(self) -> None:
        self.site_hooks.register(make_mpi_hook(self.node))
