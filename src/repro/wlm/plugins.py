"""Concrete SPANK container plugins: Shifter's and ENROOT's pyxis.

Table 3's "WLM Integration: yes / SPANK plugin" rows, as working code:
``srun --shifter-image=repo:tag app`` and ``srun --container-image=...``
start the task inside a container transparently.  A step's end stops
and removes its container through the engine (stop → remove), so a
finished step leaves no runtime record, process or monitor behind.
"""

from __future__ import annotations

import typing as _t

from repro.engines.enroot import EnrootEngine
from repro.engines.shifter import ShifterEngine
from repro.registry.distribution import OCIDistributionRegistry
from repro.wlm.spank import SpankContext, SpankError, SpankPlugin


class _EngineSpankPlugin(SpankPlugin):
    """A plugin that runs each task in a container of its node's engine."""

    def __init__(self, engines: dict, registry: OCIDistributionRegistry):
        #: node name -> engine instance on that node
        self.engines = engines
        self.registry = registry

    def task_exit(self, ctx: SpankContext) -> None:
        result = ctx.run_result
        if result is not None:
            engine = self.engines[ctx.node.name]
            engine.stop(result.container)
            engine.remove(result.container)


class ShifterSpankPlugin(_EngineSpankPlugin):
    """--image=<repo:tag>: run the step inside a Shifter container."""

    name = "shifter"
    option_key = "shifter_image"
    engines: dict[str, ShifterEngine]

    def task_init(self, ctx: SpankContext) -> None:
        image_ref = ctx.options.get(self.option_key)
        if image_ref is None:
            return  # plain (non-container) step
        engine = self.engines.get(ctx.node.name)
        if engine is None:
            raise SpankError(f"shifter not deployed on node {ctx.node.name}")
        repo, _, tag = image_ref.partition(":")
        pulled = engine.pull(repo, tag or "latest", self.registry)
        ctx.run_result = engine.run(pulled, ctx.user_proc)


class PyxisSpankPlugin(_EngineSpankPlugin):
    """NVIDIA pyxis: --container-image for ENROOT."""

    name = "pyxis"
    option_key = "container_image"
    engines: dict[str, EnrootEngine]

    def task_init(self, ctx: SpankContext) -> None:
        image_ref = ctx.options.get(self.option_key)
        if image_ref is None:
            return
        engine = self.engines.get(ctx.node.name)
        if engine is None:
            raise SpankError(f"enroot not deployed on node {ctx.node.name}")
        repo, _, tag = image_ref.partition(":")
        pulled = engine.pull(repo, tag or "latest", self.registry)
        from repro.oci.image import OCIImage

        assert isinstance(pulled.image, OCIImage)
        engine.import_image(image_ref, pulled.image)  # pyxis imports on the fly
        ctx.run_result = engine.run(pulled, ctx.user_proc)
