"""The benchmark's workloads: CLI operations over generated documents.

Each workload is a fixed list of :class:`Op`, built from the seed.  An op
is one CLI command line exactly as a user would type it, with its
closed-form expectation.  Edge ops are inputs the engine is expected to
refuse under the default budgets; they are run in every pass, counted in
the failure ratio, and kept out of every timing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import instances as gen

# CLI command of an op -> the end-to-end metric that sums its time.
COMMAND_METRIC = {
    "reflect-elim": "reflect_elim_s",
    "reflect-kelly": "reflect_kelly_s",
    "compare": "compare_s",
    "universal": "universal_s",
}

WORKLOADS = ("product", "sheaf")


@dataclass
class Op:
    name: str
    command: str  # a key of COMMAND_METRIC
    argv: list[str]
    out: Path
    presentation: Path
    family: str
    edge: bool = False
    expect_core: dict[str, int] | None = None  # reflect: closed-form core sizes
    expect_space: int | None = None  # universal: uniqueness search space
    repeat: int = 1  # runs per pass; short ops repeat to gather more samples


class _Builder:
    """Writes documents into the work directory and collects the ops."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.ops: list[Op] = []
        self.digest = hashlib.sha256()
        self.written: dict[str, Path] = {}

    def doc(self, name: str, doc: dict) -> Path:
        if name in self.written:
            return self.written[name]
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        self.digest.update(name.encode() + b"\0" + text.encode())
        path = self.workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        self.written[name] = path
        return path

    def _out(self, name: str) -> Path:
        return self.workdir / f"{name}.out.json"

    def reflect(
        self, label: str, doc: dict, engines=("elim", "kelly"), edge=False, repeat=1
    ) -> None:
        path = self.doc(label, doc)
        for engine in engines:
            name = f"reflect-{engine}/{label}"
            out = self._out(name.replace("/", "."))
            argv = [
                "reflect", "--sketch", doc["category"], "--presentation", str(path),
                "--engine", engine, "--out", str(out),
            ]
            self.ops.append(
                Op(name, f"reflect-{engine}", argv, out, path, doc["category"], edge,
                   expect_core=gen.expected_core(doc), repeat=repeat)
            )

    def compare(self, label: str, doc: dict, repeat=1) -> None:
        path = self.doc(label, doc)
        out = self._out(f"compare.{label}")
        argv = [
            "compare", "--sketch", doc["category"], "--presentation", str(path),
            "--out", str(out),
        ]
        self.ops.append(
            Op(f"compare/{label}", "compare", argv, out, path, doc["category"], repeat=repeat)
        )

    def universal(
        self, label: str, triple: tuple[dict, dict, dict], edge=False, repeat=1
    ) -> None:
        x, model, f = triple
        paths = [self.doc(f"{label}.{part}", d) for part, d in zip(("x", "m", "f"), triple)]
        out = self._out(f"universal.{label}")
        argv = [
            "universal", "--sketch", x["category"], "--presentation", str(paths[0]),
            "--model", str(paths[1]), "--map", str(paths[2]), "--out", str(out),
        ]
        self.ops.append(
            Op(f"universal/{label}", "universal", argv, out, paths[0], x["category"], edge,
               expect_space=gen.search_space(x, model), repeat=repeat)
        )


# Sizes of the seeded random presentations; fixed per index so the work per
# pass is about the same for every seed.
PRODUCT_RANDOM_SIZES = (6, 7, 8, 9, 10, 6, 7, 8, 9, 10)
SHEAF_RANDOM_SIZES = (12, 16, 20, 24, 12, 16, 20, 24)

# Short ops run this many times per pass, so that their mean times rest on
# more samples than one per pass.
SHORT_REPEAT = 5


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], str]:
    """Write the workload's documents and return its ops and their digest."""
    b = _Builder(workdir)

    def rng(label: str):
        return gen.rng_for(seed, f"{workload}:{label}")

    if workload == "product":
        for n in (8, 12, 16, 20):
            b.reflect(f"product-n{n}", gen.product_family(n))
        for i, n in enumerate(PRODUCT_RANDOM_SIZES):
            label = f"product-rand{i}"
            b.reflect(label, gen.product_random(rng(label), n, n * n // 2))
        b.compare("product-n1", gen.product_family(1), repeat=SHORT_REPEAT)
        b.compare("product-n2", gen.product_family(2))
        b.universal(
            "product-n2-sq2", gen.product_universal(rng("universal"), 2, 2), repeat=SHORT_REPEAT
        )
        b.universal("product-n2-sq3", gen.product_universal(rng("product"), 2, 3))
        b.reflect("product-n24", gen.product_family(24), engines=("elim",), edge=True)
        b.universal("product-n3-sq3", gen.product_universal(rng("edge"), 3, 3), edge=True)
    elif workload == "sheaf":
        for n in (16, 32, 48):
            b.reflect(f"sheaf-n{n}", gen.sheaf_family(n))
        for i, n in enumerate(SHEAF_RANDOM_SIZES):
            label = f"sheaf-rand{i}"
            b.reflect(label, gen.sheaf_random(rng(label), n, n // 3))
        for n in (4, 8):
            b.compare(f"sheaf-n{n}", gen.sheaf_family(n), repeat=SHORT_REPEAT)
        b.compare("sheaf-n16", gen.sheaf_family(16))
        for n in (16, 32):
            b.compare(f"equalizer-n{n}", gen.equalizer_family(n), repeat=SHORT_REPEAT)
        b.universal("sheaf-model", gen.sheaf_universal(rng("universal")), repeat=SHORT_REPEAT)
        b.universal(
            "equalizer-model", gen.equalizer_universal(rng("equalizer")), repeat=SHORT_REPEAT
        )
        b.reflect("sheaf-n64", gen.sheaf_family(64), engines=("elim",), edge=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.ops, b.digest.hexdigest()
