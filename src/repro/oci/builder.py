"""Image builders: Dockerfile and Singularity definition files.

Reproduces the §4.1.4 contrast: Dockerfiles place commands in *layers*
("manually grouping commands into layers poses an important concept to
allow incremental container builds"), with a content-addressed build
cache; Singularity definitions put everything into one ``%post`` section
and produce a flat SIF with no layering (and therefore no incremental
rebuild).
"""

from __future__ import annotations

import dataclasses
import shlex
import typing as _t

from repro.fs.tree import FileTree
from repro.oci.catalog import BaseImageCatalog
from repro.oci.digest import digest_str
from repro.oci.image import ImageConfig, OCIImage
from repro.oci.layer import Layer, diff_trees
from repro.oci.shell import run_commands
from repro.oci.sif import SIFImage
from repro.run import run
from repro.world import replay_prefix


class BuildError(ValueError):
    """Malformed build file or failing build step."""


@dataclasses.dataclass
class Instruction:
    keyword: str
    argument: str
    line_no: int


class DockerfileParser:
    """Parses the Dockerfile subset used by the simulation."""

    KEYWORDS = {
        "FROM", "RUN", "COPY", "ENV", "WORKDIR", "ENTRYPOINT", "CMD",
        "LABEL", "USER", "EXPOSE",
    }

    @classmethod
    def parse(cls, text: str) -> list[Instruction]:
        instructions: list[Instruction] = []
        continued = ""
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.endswith("\\"):
                continued += line[:-1] + " "
                continue
            line = continued + line
            continued = ""
            parts = line.split(None, 1)
            keyword = parts[0].upper()
            if keyword not in cls.KEYWORDS:
                raise BuildError(f"line {line_no}: unknown instruction {parts[0]!r}")
            argument = parts[1] if len(parts) > 1 else ""
            instructions.append(Instruction(keyword, argument, line_no))
        if not instructions or instructions[0].keyword != "FROM":
            raise BuildError("Dockerfile must start with FROM")
        return instructions


class BuildCache:
    """Content-addressed layer cache: (parent chain, instruction) -> Layer."""

    def __init__(self) -> None:
        self._layers: dict[str, Layer] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(chain_digest: str, instruction: str, context_digest: str = "") -> str:
        return digest_str(f"{chain_digest}|{instruction}|{context_digest}")

    def get(self, key: str) -> Layer | None:
        layer = self._layers.get(key)
        if layer is not None:
            self.hits += 1
        return layer

    def put(self, key: str, layer: Layer) -> None:
        self.misses += 1
        self._layers[key] = layer

    def __len__(self) -> int:
        return len(self._layers)


#: synthetic cost of executing one RUN step, seconds per byte written
RUN_COST_PER_BYTE = 1 / 200e6
RUN_BASE_COST = 0.5


class Builder:
    """Builds OCI images from Dockerfiles and SIFs from definition files."""

    def __init__(self, catalog: BaseImageCatalog | None = None, cache: BuildCache | None = None):
        self.catalog = catalog or BaseImageCatalog()
        self.cache = cache or BuildCache()
        #: build statistics for the layer-cache ablation bench
        self.last_build_stats: dict[str, float] = {}

    # -- Dockerfile --------------------------------------------------------------
    def build_dockerfile(
        self,
        text: str,
        context: FileTree | None = None,
        build_uid: int = 0,
    ) -> OCIImage:
        """Build an OCI image, replaying identical prefix builds.

        Context-free builds go through the world's prefix-replay cache
        (:func:`repro.world.replay_prefix`): keyed by the dockerfile *and*
        the exact positions of the world's id counters, so a hit only
        ever occurs when the world matches the recorded build bit-for-bit
        (a warm-snapshot fork).  Everything else — including every build
        in a normally advancing process — takes the cold path below.
        """
        if context is not None:
            return self._build_dockerfile_cold(text, context, build_uid)
        (image, stats), replayed = replay_prefix(
            "build_dockerfile",
            f"{build_uid}\n{text}",
            lambda: (
                self._build_dockerfile_cold(text, None, build_uid),
                dict(self.last_build_stats),
            ),
        )
        counters = run.counters
        if replayed and counters.enabled:
            counters.warm_replays += 1
        self.last_build_stats = dict(stats)
        return image

    def _build_dockerfile_cold(
        self,
        text: str,
        context: FileTree | None,
        build_uid: int,
    ) -> OCIImage:
        instructions = DockerfileParser.parse(text)
        context = context or FileTree()
        context_digest = self._context_digest(context)

        base = self.catalog.get(instructions[0].argument.strip())
        layers: list[Layer] = list(base.layers)
        config = dataclasses.replace(base.config)
        config.env = dict(base.config.env)
        config.labels = dict(base.config.labels)
        tree = base.flatten()
        chain = digest_str("|".join(l.digest for l in layers))

        executed = 0
        cached = 0
        cost = 0.0
        for ins in instructions[1:]:
            if ins.keyword in ("RUN", "COPY"):
                key = BuildCache.key(
                    chain, f"{ins.keyword} {ins.argument}",
                    context_digest if ins.keyword == "COPY" else "",
                )
                layer = self.cache.get(key)
                if layer is None:
                    new_tree = tree.clone()
                    if ins.keyword == "RUN":
                        run_commands(new_tree, ins.argument, uid=build_uid)
                    else:
                        self._copy(context, new_tree, ins.argument, build_uid)
                    layer = diff_trees(tree, new_tree, created_by=f"{ins.keyword} {ins.argument}")
                    self.cache.put(key, layer)
                    executed += 1
                    cost += RUN_BASE_COST + layer.uncompressed_size * RUN_COST_PER_BYTE
                else:
                    cached += 1
                layer.apply_to(tree)
                layers.append(layer)
                chain = digest_str(chain + "|" + layer.digest)
            else:
                self._apply_metadata(config, ins)
                chain = digest_str(chain + "|" + f"{ins.keyword} {ins.argument}")

        self.last_build_stats = {
            "executed_steps": executed,
            "cached_steps": cached,
            "build_cost_s": cost,
        }
        return OCIImage(config, layers)

    @staticmethod
    def _context_digest(context: FileTree) -> str:
        """Layer digest of the build context, memoized in its scan cache.

        Rebuilds with an unchanged context used to re-walk and re-hash it
        every time; the memo lives with the tree content (invalidated by
        any mutation, shared once the context is frozen), so only the
        first build of a given context pays the hash.
        """
        cache = context.scan_cache("/")
        digest = cache.get("context_layer_digest")
        if digest is None:
            digest = Layer(context.clone(), created_by="context").digest
            cache["context_layer_digest"] = digest
        return digest

    @staticmethod
    def _copy(context: FileTree, tree: FileTree, argument: str, uid: int) -> None:
        parts = shlex.split(argument)
        if len(parts) != 2:
            raise BuildError(f"COPY expects SRC DST, got {argument!r}")
        src, dst = parts
        node = context.lookup(src)
        if node is None:
            raise BuildError(f"COPY source not in build context: {src}")
        from repro.fs.inode import DirNode, FileNode

        if isinstance(node, FileNode):
            target = dst.rstrip("/") + "/" + src.rsplit("/", 1)[-1] if dst.endswith("/") else dst
            tree.create_file(
                target, data=node.data, size=None if node.data is not None else node.size, uid=uid
            )
        elif isinstance(node, DirNode):
            sub = FileTree(root=node.clone())
            tree.merge_from(sub, at=dst)
        else:
            raise BuildError(f"COPY cannot handle {src}")

    @staticmethod
    def _apply_metadata(config: ImageConfig, ins: Instruction) -> None:
        if ins.keyword == "ENV":
            if "=" not in ins.argument:
                raise BuildError(f"ENV expects KEY=VALUE, got {ins.argument!r}")
            key, value = ins.argument.split("=", 1)
            config.env[key.strip()] = value.strip()
        elif ins.keyword == "WORKDIR":
            config.workdir = ins.argument.strip()
        elif ins.keyword == "ENTRYPOINT":
            config.entrypoint = tuple(shlex.split(ins.argument))
        elif ins.keyword == "CMD":
            config.cmd = tuple(shlex.split(ins.argument))
        elif ins.keyword == "LABEL":
            if "=" not in ins.argument:
                raise BuildError(f"LABEL expects KEY=VALUE, got {ins.argument!r}")
            key, value = ins.argument.split("=", 1)
            config.labels[key.strip()] = value.strip().strip('"')
        elif ins.keyword == "USER":
            config.user = ins.argument.strip()
        elif ins.keyword == "EXPOSE":
            config.exposed_ports = config.exposed_ports + (int(ins.argument.strip()),)

    # -- Singularity definition files ---------------------------------------------
    def build_definition(self, text: str, build_uid: int = 0) -> SIFImage:
        sections = SingularityDefParser.parse(text)
        bootstrap = sections.get("bootstrap", "docker")
        if bootstrap not in ("docker", "library", "localimage"):
            raise BuildError(f"unsupported bootstrap agent: {bootstrap!r}")
        base_name = sections.get("from", "")
        if not base_name:
            raise BuildError("definition file needs a From: line")
        base = self.catalog.get(base_name)
        tree = base.flatten()
        config = dataclasses.replace(base.config)
        config.env = dict(base.config.env)
        config.labels = dict(base.config.labels)

        # All %post commands land in ONE flat image: no layering (§4.1.4).
        if "post" in sections:
            run_commands(tree, sections["post"], uid=build_uid)
        if "files" in sections:
            for line in sections["files"].splitlines():
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise BuildError(f"%files expects SRC DST per line, got {line!r}")
                tree.create_file(parts[1], size=1000, uid=build_uid)
        if "environment" in sections:
            for line in sections["environment"].splitlines():
                line = line.strip().removeprefix("export ").strip()
                if line and "=" in line:
                    key, value = line.split("=", 1)
                    config.env[key.strip()] = value.strip()
        if "labels" in sections:
            for line in sections["labels"].splitlines():
                parts = line.strip().split(None, 1)
                if len(parts) == 2:
                    config.labels[parts[0]] = parts[1]
        if "runscript" in sections:
            config.entrypoint = tuple(shlex.split(sections["runscript"].strip().splitlines()[0]))
            config.cmd = ()

        return SIFImage(tree, config, definition=text, built_by_uid=build_uid)


class SingularityDefParser:
    """Parses Singularity/Apptainer definition files."""

    SECTIONS = {"post", "files", "environment", "runscript", "labels", "help", "test"}

    @classmethod
    def parse(cls, text: str) -> dict[str, str]:
        sections: dict[str, str] = {}
        current: str | None = None
        body: list[str] = []
        for raw in text.splitlines():
            line = raw.rstrip()
            stripped = line.strip()
            if stripped.startswith("%"):
                if current is not None:
                    sections[current] = "\n".join(body)
                name = stripped[1:].split()[0].lower()
                if name not in cls.SECTIONS:
                    raise BuildError(f"unknown section %{name}")
                current, body = name, []
            elif current is not None:
                body.append(line)
            elif ":" in stripped:
                key, value = stripped.split(":", 1)
                sections[key.strip().lower()] = value.strip()
        if current is not None:
            sections[current] = "\n".join(body)
        return sections
