"""The names the benchmark's span tracer wraps and reads still exist and still count.

``bench/spans.py`` patches engine functions by name and reads counts off
their arguments and results; a rename or a changed record shape would
only show as a missing or zero per-layer metric.  This test installs the
tracer on the package, runs the four traced commands on ``binary_product``
documents and checks that the counts the benchmark reports are there, and
that uninstalling puts every binding back.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from limsketch import cli
from limsketch.errors import BudgetExceeded
from limsketch.setops import presentation_to_json_dict

from tests.fixtures import binary_fixture, binary_model, binary_sketch

BENCH = Path(__file__).resolve().parents[1] / "bench"

REQUIRED_METRICS = (
    "elim.e_step.free_added",
    "elim.e_step.kept",
    "elim.e_step.limit_tuples",
    "elim.relation_one.pairs",
    "elim.relation_two.pairs",
    "kelly.kelly_P.sum_elements",
    "setops.functorial_quotient.pairs_in",
    "setops.limit_of_diagram.emitted",
)


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded ``limsketch`` module and of the classes it defines."""
    out: dict[tuple[str, str], object] = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "limsketch":
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[name, f"{key}.{attr}"] = member
    return out


def _documents(tmp_path: Path) -> dict[str, str]:
    sketch = binary_sketch()
    docs = {
        "x": presentation_to_json_dict(binary_fixture(sketch), "binary_product"),
        "model": presentation_to_json_dict(binary_model(sketch), "binary_product"),
        "map": {"components": {"a": {"u": "u", "v": "v"}, "p": {}}},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    return paths


def test_tracer_reads_every_counted_layer_and_restores_the_bindings(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import Tracer

    paths = _documents(tmp_path)
    common = ["--sketch", "binary_product", "--presentation", paths["x"]]
    ops = [
        ["reflect", *common, "--engine", "elim", "--out", str(tmp_path / "elim.json")],
        ["reflect", *common, "--engine", "kelly", "--out", str(tmp_path / "kelly.json")],
        ["compare", *common, "--budget", "2", "--out", str(tmp_path / "compare.json")],
        [
            "universal", *common, "--model", paths["model"], "--map", paths["map"],
            "--out", str(tmp_path / "universal.json"),
        ],
    ]
    before = _bindings()
    tracer = Tracer(BudgetExceeded)
    tracer.op = 0
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in ops]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(ops)
    metrics = tracer.layer_metrics({0})
    missing = [name for name in REQUIRED_METRICS if name not in metrics]
    assert not missing, sorted(metrics)
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed
