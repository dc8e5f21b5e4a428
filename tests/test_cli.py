from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from limsketch.fincat import CatFunctor, FinCategory, category_to_json_dict
from limsketch.setops import presentation_dumps
from limsketch.sketchlib import (
    Cone,
    LimitSketch,
    build_sketch,
    builder_names,
    sketch_binary_product,
    sketch_dumps,
    sketch_iso_forcing,
    sketch_to_json_dict,
)

from tests.fixtures import binary_fixture, binary_model, iso_fixture, iso_model
from tests.test_golden import COMMANDS, FAMILIES, case_argv
from tests.test_golden import run_cli as run_in_process


def run_cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "limsketch", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def workspace(tmp_path: Path) -> dict[str, Path]:
    iso = sketch_iso_forcing()
    binary = sketch_binary_product()
    files = {
        "iso_sketch": tmp_path / "iso.json",
        "binary_sketch": tmp_path / "binary.json",
        "iso_pres": tmp_path / "X.json",
        "iso_model": tmp_path / "M.json",
        "binary_pres": tmp_path / "Xb.json",
        "binary_model": tmp_path / "Mb.json",
        "iso_map": tmp_path / "f.json",
        "binary_map": tmp_path / "fb.json",
        "terminal": tmp_path / "terminal.json",
        "empty_peak": tmp_path / "empty_peak.json",
        "bad": tmp_path / "bad.json",
    }
    files["iso_sketch"].write_text(sketch_dumps(iso))
    files["binary_sketch"].write_text(sketch_dumps(binary))
    files["iso_pres"].write_text(presentation_dumps(iso_fixture(iso)))
    files["iso_model"].write_text(presentation_dumps(iso_model(iso)))
    files["binary_pres"].write_text(presentation_dumps(binary_fixture(binary)))
    files["binary_model"].write_text(presentation_dumps(binary_model(binary)))
    files["iso_map"].write_text(
        json.dumps({"components": {"a": {"x1": "m", "x2": "m"}, "b": {"y": "n"}}})
    )
    files["binary_map"].write_text(
        json.dumps({"components": {"a": {"u": "u", "v": "v"}, "p": {}}})
    )
    files["terminal"].write_text(
        json.dumps(
            {
                "category": "iso_forcing",
                "carrier": {"a": ["*"], "b": ["*"]},
                "action": {"t": {"*": "*"}},
            }
        )
    )
    files["empty_peak"].write_text(
        json.dumps(
            {
                "category": "binary_product",
                "carrier": {"a": ["u"], "p": []},
                "action": {"pi1": {}, "pi2": {}},
            }
        )
    )
    files["bad"].write_text("{broken json")
    return files


def test_builders_list(tmp_path):
    proc = run_cli("builders", "list")
    assert proc.returncode == 0
    names = proc.stdout.split()
    assert "iso_forcing" in names and "two_cover_sheaf" in names
    out = tmp_path / "names.txt"
    written = run_cli("builders", "list", "--out", str(out))
    assert (written.returncode, written.stdout, written.stderr) == (0, "", "")
    assert out.read_text(encoding="utf-8") == proc.stdout


def test_builders_emit_round_trips(tmp_path):
    out = tmp_path / "emitted.json"
    proc = run_cli("builders", "emit", "binary_product", "--out", str(out))
    assert proc.returncode == 0
    from limsketch.sketchlib import sketch_loads

    sketch = sketch_loads(out.read_text())
    assert sketch.base.hom("p", "a") == ("pi1", "pi2")


def test_check_accepts_terminal_presentation(workspace):
    proc = run_cli(
        "check", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["terminal"]),
    )
    assert proc.returncode == 0


def test_check_rejects_with_witness(workspace):
    proc = run_cli(
        "check", "--sketch", str(workspace["binary_sketch"]),
        "--presentation", str(workspace["empty_peak"]), "--format", "text",
    )
    assert proc.returncode == 1
    assert "unhit tuple" in proc.stdout
    assert "('u', 'u')" in proc.stdout



def _empty_shape_check(tmp_path: Path, fmt: str) -> subprocess.CompletedProcess:
    """``check`` of an empty presentation against one cone over the empty shape: a terminal a."""
    base = FinCategory.build("point", ["a"], [], {})
    shape = FinCategory.build("nothing", [], [], {})
    cone = Cone("c0", base, "a", shape, CatFunctor(shape, base, {}, {}), {})
    sketch, pres = tmp_path / "terminal.json", tmp_path / "empty.json"
    sketch.write_text(sketch_dumps(LimitSketch(base, (cone,), name="terminal")))
    doc = {"category": category_to_json_dict(base), "carrier": {"a": []}, "action": {}}
    pres.write_text(json.dumps(doc))
    return run_cli("check", "--sketch", str(sketch), "--presentation", str(pres), "--format", fmt)


def test_check_names_the_empty_unhit_tuple_in_json(tmp_path):
    # the limit of the empty diagram is the one empty tuple, and an empty peak misses it
    proc = _empty_shape_check(tmp_path, "json")
    assert proc.returncode == 1
    (cone,) = json.loads(proc.stdout)["cones"]
    assert (cone["surjective"], cone["unhit_tuple"]) == (False, [])


def test_check_names_the_empty_unhit_tuple_in_text(tmp_path):
    proc = _empty_shape_check(tmp_path, "text")
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "cone c0: FAIL (injective=true surjective=false)",
        "  unhit tuple: ()",
        "model: false",
    ]

def test_check_malformed_json_exits_two(workspace):
    proc = run_cli(
        "check", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["bad"]),
    )
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


@pytest.mark.parametrize("document", ["presentation", "sketch"])
def test_repeated_json_key_exits_two(workspace, tmp_path, document):
    """A repeated key is refused, where ``json.loads`` alone would keep its last value."""
    path = tmp_path / f"repeated_{document}.json"
    sketch, pres = workspace["binary_sketch"], workspace["binary_pres"]
    if document == "presentation":
        key, pres = "a", path
        path.write_text(
            '{"category": "binary_product", "carrier": {"a": ["u", "v"], "a": ["w"], "p": []},'
            ' "action": {"pi1": {}, "pi2": {}}}'
        )
    else:
        path.write_text(sketch.read_text().replace("{", '{"cones": [], ', 1))
        key, sketch = "cones", path
    proc = run_cli("check", "--sketch", str(sketch), "--presentation", str(pres))
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {path}: duplicate key {key!r} in a JSON object\n"


def test_reflect_elim_pruned_converges(workspace, tmp_path):
    out = tmp_path / "trace.json"
    proc = run_cli(
        "reflect", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["iso_pres"]),
        "--engine", "elim", "--mode", "pruned", "--out", str(out),
    )
    assert proc.returncode == 0
    assert "converged" in proc.stdout
    assert "a=1 b=1" in proc.stdout
    trace = json.loads(out.read_text())
    assert trace["engine"] == "elim" and trace["verdict"] == "converged"


def test_reflect_kelly_converges_at_one(workspace):
    proc = run_cli(
        "reflect", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["iso_pres"]), "--engine", "kelly",
    )
    assert proc.returncode == 0
    assert "converged at stage 1" in proc.stdout


def test_reflect_budget_zero_exits_three(workspace, tmp_path):
    out = tmp_path / "trace0.json"
    proc = run_cli(
        "reflect", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["iso_pres"]),
        "--budget", "0", "--out", str(out),
    )
    assert proc.returncode == 3
    trace = json.loads(out.read_text())
    assert trace["verdict"] == "budget-exhausted"
    assert len(trace["stages"]) == 1


def test_compare_passes_on_iso_fixture(workspace, tmp_path):
    out = tmp_path / "cmp.json"
    proc = run_cli(
        "compare", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["iso_pres"]), "--out", str(out),
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["alpha"]["squares_ok"] is True
    assert report["reflector_iso"]["isomorphic"] is True


def test_universal_unique_on_binary_fixture(workspace, tmp_path):
    out = tmp_path / "uni.json"
    proc = run_cli(
        "universal", "--sketch", str(workspace["binary_sketch"]),
        "--presentation", str(workspace["binary_pres"]),
        "--model", str(workspace["binary_model"]),
        "--map", str(workspace["binary_map"]), "--out", str(out),
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report == {
        "commutes": True,
        "exists": True,
        "search_space": 1024,
        "uniqueness": "unique",
    }


def test_universal_with_non_model_exits_four(workspace, tmp_path):
    ident = tmp_path / "fid.json"
    ident.write_text(
        json.dumps({"components": {"a": {"x1": "x1", "x2": "x2"}, "b": {"y": "y"}}})
    )
    proc = run_cli(
        "universal", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["iso_pres"]),
        "--model", str(workspace["iso_pres"]), "--map", str(ident),
    )
    assert proc.returncode == 4
    assert "not a model" in proc.stderr


def test_universal_checks_the_model_once(workspace, tmp_path, monkeypatch):
    from limsketch import cli, elim, kelly, sketchlib, universal

    model = binary_model(sketch_binary_product())
    real, on_model = sketchlib.is_model, []

    def counted(pres, sketch, **kwargs):
        on_model.append(pres.carrier == model.carrier)
        return real(pres, sketch, **kwargs)

    for module in (cli, elim, kelly, sketchlib, universal):
        monkeypatch.setattr(module, "is_model", counted)
    code = cli.main([
        "universal", "--sketch", str(workspace["binary_sketch"]),
        "--presentation", str(workspace["binary_pres"]),
        "--model", str(workspace["binary_model"]),
        "--map", str(workspace["binary_map"]), "--out", str(tmp_path / "uni.json"),
    ])
    assert code == 0
    assert on_model.count(True) == 1


@pytest.mark.parametrize("argv", [["reflect"], ["compare", "--budget", "2"]])
def test_reports_escape_element_names_as_json_does(tmp_path, monkeypatch, argv):
    from limsketch import cli
    from limsketch.setops import make_presentation

    sketch = sketch_binary_product()
    names = ['x"q', "y\\z", "\u00e9", "t\u0001"]
    pres = make_presentation(sketch.base, {"a": names, "p": []}, {"pi1": {}, "pi2": {}})
    doc = tmp_path / "X.json"
    doc.write_text(presentation_dumps(pres))
    payloads, real = [], cli.write_report

    def recorded(payload, sink):
        payloads.append(payload)
        real(payload, sink)

    monkeypatch.setattr(cli, "write_report", recorded)
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--sketch", "binary_product", "--presentation", str(doc), "--out", str(out)])
    assert code == 0 and len(payloads) == 1
    # a report lists alpha's components as sorted maps: json encodes the dict each one lists
    as_dict = lambda m: dict(zip(m.keys, m.values))  # noqa: E731
    want = json.JSONEncoder(sort_keys=True, indent=2, default=as_dict).encode(payloads[0]) + "\n"
    assert out.read_text(encoding="utf-8") == want
    assert all(json.dumps(n) in want for n in names)


def test_presentation_over_wrong_category_exits_two(workspace):
    proc = run_cli(
        "check", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["empty_peak"]),  # binary_product document
    )
    assert proc.returncode == 2
    assert "differs" in proc.stderr or "unknown" in proc.stderr


NO_PROJECTIONS = {"pi1": {}, "pi2": {}}  # binary_product's arrows, each on an empty carrier


@pytest.mark.parametrize(
    "category, carrier, action, message",
    [
        ("binary_product", {"zz": []}, NO_PROJECTIONS, "carrier names unknown object 'zz'"),
        ("binary_product", {}, {**NO_PROJECTIONS, "nope": {}}, "action names unknown arrow 'nope'"),
        ("nosuch", {}, {}, "unknown category name 'nosuch'"),
        ("iso_forcing", {}, {}, "presentation category differs from the sketch category"),
        ("binary_product", {}, {"pi2": {}}, "no action given for arrow 'pi1'"),
    ],
    ids=["unknown-object", "unknown-arrow", "unknown-category", "other-category", "missing-action"],
)
def test_presentation_loader_refusals_exit_two(tmp_path, capsys, category, carrier, action, message):
    from limsketch import cli

    doc, out = tmp_path / "X.json", tmp_path / "report.json"
    doc.write_text(json.dumps({"category": category, "carrier": carrier, "action": action}))
    argv = ["reflect", "--sketch", "binary_product", "--presentation", str(doc), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"input error: {doc}: {message}\n")
    assert not out.exists()


def test_reflect_kelly_budget_zero_exits_three(workspace):
    proc = run_cli(
        "reflect", "--sketch", str(workspace["iso_sketch"]),
        "--presentation", str(workspace["iso_pres"]),
        "--engine", "kelly", "--budget", "0",
    )
    assert proc.returncode == 3


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["compare", "--budget", "0"], "budget exhausted before both constructions converged"),
        (["compare", "--budget", "1"], "budget exhausted before both constructions converged"),
        (
            ["universal", "--budget", "0", "--model", "{binary_model}", "--map", "{binary_map}"],
            "budget exhausted before convergence",
        ),
    ],
    ids=["compare-0", "compare-1", "universal-0"],
)
def test_budget_exits_three_with_no_report(workspace, tmp_path, capsys, argv, message):
    from limsketch import cli

    out = tmp_path / "report.json"
    inputs = ["--sketch", "binary_product", "--presentation", str(workspace["binary_pres"])]
    args = [a.format(**workspace) for a in argv]
    assert cli.main([*args, *inputs, "--out", str(out)]) == 3
    assert capsys.readouterr() == (message + "\n", "")
    assert not out.exists()


@pytest.mark.parametrize(
    ("flag", "command"),
    [
        ("--budget", ["reflect", "--engine", "elim"]),
        ("--budget", ["reflect", "--engine", "kelly"]),
        ("--budget", ["compare"]),
        ("--max-tuples", ["check"]),
        ("--max-tuples", ["reflect", "--engine", "kelly"]),
        ("--max-elements", ["reflect", "--engine", "elim"]),
    ],
)
def test_negative_count_flag_exits_two(workspace, flag, command):
    args = [
        *command, "--sketch", str(workspace["binary_sketch"]),
        "--presentation", str(workspace["binary_pres"]), flag, "-1",
    ]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {flag} must be >= 0, got -1\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("flag", ["--budget", "--max-elements"])
def test_check_takes_no_stage_caps(workspace, flag):
    """``check`` builds no stages, so it has no stage budget and no element cap to read."""
    proc = run_cli(
        "check", "--sketch", str(workspace["binary_sketch"]),
        "--presentation", str(workspace["binary_pres"]), flag, "1",
    )
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"error: unrecognized arguments: {flag} 1\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("flag", ["--enum-cap 5", "--mode pruned"], ids=["enum-cap", "mode"])
def test_universal_takes_no_enum_cap_or_mode(workspace, flag):
    """The certificate decides uniqueness without a search, and ``universal`` reflects pruned."""
    proc = run_cli(
        "universal", "--sketch", str(workspace["binary_sketch"]),
        "--presentation", str(workspace["binary_pres"]),
        "--model", str(workspace["binary_model"]), "--map", str(workspace["binary_map"]),
        *flag.split(),
    )
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"error: unrecognized arguments: {flag}\n")
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command",
    [
        ["reflect"],
        ["compare"],
        ["universal", "--model", "{model}", "--map", "{map}"],
    ],
    ids=["reflect", "compare", "universal"],
)
def test_only_check_takes_format(workspace, command):
    """Only ``check`` has a text report; the JSON-only commands refuse ``--format``."""
    paths = {"model": workspace["binary_model"], "map": workspace["binary_map"]}
    proc = run_cli(
        *[a.format(**paths) for a in command], "--sketch", str(workspace["binary_sketch"]),
        "--presentation", str(workspace["binary_pres"]), "--format", "text",
    )
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: unrecognized arguments: --format text\n")
    assert proc.stdout == ""


def _points_document(n: int) -> dict:
    points = [f"x{i}" for i in range(n)]
    return {
        "category": "binary_product",
        "carrier": {"a": points, "p": []},
        "action": {"pi1": {}, "pi2": {}},
    }


def _square_document(n: int) -> dict:
    """The square of an n-point set with its projections: a ``binary_product`` model."""
    m = [f"m{i}" for i in range(n)]
    pairs = {f"{x}.{y}": (x, y) for x in m for y in m}
    return {
        "category": "binary_product",
        "carrier": {"a": m, "p": sorted(pairs)},
        "action": {
            "pi1": {q: xy[0] for q, xy in pairs.items()},
            "pi2": {q: xy[1] for q, xy in pairs.items()},
        },
    }


def test_reflect_kelly_honours_max_elements(tmp_path):
    pres = tmp_path / "X3.json"
    pres.write_text(json.dumps(_points_document(3)))
    proc = run_cli(
        "reflect", "--sketch", "binary_product", "--presentation", str(pres),
        "--engine", "kelly", "--max-elements", "5",
    )
    assert proc.returncode == 3
    # a: 3 points + 9 pairs times the two projections
    assert proc.stderr == (
        "budget error: stage 1: completion sum object 'a' has 21 elements (cap 5)\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command",
    [["reflect", "--engine", "elim"], ["reflect", "--engine", "kelly"], ["compare"]],
    ids=["elim", "kelly", "compare"],
)
def test_stage_zero_model_check_names_its_stage(tmp_path, command):
    """The model check of X itself is stage 0: 3 points give 9 pairs, over a budget of 0."""
    pres = tmp_path / "X3.json"
    pres.write_text(json.dumps(_points_document(3)))
    proc = run_cli(
        *command, "--sketch", "binary_product", "--presentation", str(pres), "--max-tuples", "0"
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "budget error: stage 0: limit tuple budget exceeded at cone c0: product exceeds 0\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize(
    ("engine", "stage"),
    [("kelly", 1), ("elim", 2)],
)
def test_a_stage_whose_limit_outgrows_the_budget_names_its_stage(tmp_path, capsys, engine, stage):
    """X has the one pair (b0, c0), within a budget of 1; the witness over it adds its s-image
    at b, so stage 1 has two pairs.  ``kelly`` finds them in its model check of stage 1, and
    pruned ``elim`` in its limit of the stage-2 base."""
    base = FinCategory.build(
        "stray", ["a", "b", "c"], [("t", "a", "b"), ("s", "a", "b"), ("r", "a", "c")], {}
    )
    shape = FinCategory.build("pair_shape", ["zb", "zc"], [], {})
    diagram = CatFunctor(shape, base, {"zb": "b", "zc": "c"}, {"id_zb": "id_b", "id_zc": "id_c"})
    sketch = LimitSketch(base, (Cone("c0", base, "a", shape, diagram, {"zb": "t", "zc": "r"}),))
    sketch_path, pres, out = tmp_path / "stray.json", tmp_path / "X.json", tmp_path / "r.json"
    sketch_path.write_text(sketch_dumps(sketch))
    carrier, action = {"a": [], "b": ["b0"], "c": ["c0"]}, {"t": {}, "s": {}, "r": {}}
    pres.write_text(json.dumps({"carrier": carrier, "action": action}))
    from limsketch import cli

    argv = ["reflect", "--engine", engine, "--sketch", str(sketch_path), "--presentation", str(pres)]
    assert cli.main([*argv, "--max-tuples", "1", "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "",
        f"budget error: stage {stage}: limit tuple budget exceeded at cone c0: product exceeds 1\n",
    )
    assert not out.exists()


def test_universal_max_tuples_bounds_the_model_check(tmp_path):
    """The model check of M honours ``--max-tuples``: 40 points give 1,600 pairs."""
    pres, model, f = (tmp_path / n for n in ("X2.json", "M40.json", "f2.json"))
    pres.write_text(json.dumps(_points_document(2)))
    model.write_text(json.dumps(_square_document(40)))
    f.write_text(json.dumps({"components": {"a": {"x0": "m0", "x1": "m1"}, "p": {}}}))
    proc = run_cli(
        "universal", "--sketch", "binary_product", "--presentation", str(pres),
        "--model", str(model), "--map", str(f), "--max-tuples", "100",
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "budget error: limit tuple budget exceeded at cone c0: product exceeds 100\n"
    )
    assert proc.stdout == ""


def test_universal_certifies_a_ten_billion_candidate_space(tmp_path):
    """Three points into the square of a 3-set: 3^3 * 9^9 candidates, decided without a search."""
    pres, model, f, out = (tmp_path / n for n in ("X3.json", "M3.json", "f3.json", "u.json"))
    pres.write_text(json.dumps(_points_document(3)))
    model.write_text(json.dumps(_square_document(3)))
    f.write_text(json.dumps({"components": {"a": {"x0": "m1", "x1": "m1", "x2": "m0"}, "p": {}}}))
    proc = run_cli(
        "universal", "--sketch", "binary_product", "--presentation", str(pres),
        "--model", str(model), "--map", str(f), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "uniqueness: unique (search space 10460353203)"
    assert json.loads(out.read_text()) == {
        "commutes": True,
        "exists": True,
        "search_space": 10460353203,
        "uniqueness": "unique",
    }


@pytest.mark.parametrize(
    "command",
    [
        ["check", "--sketch", "{sketch}", "--presentation", "{pres}"],
        ["reflect", "--sketch", "{sketch}", "--presentation", "{pres}"],
        ["compare", "--sketch", "{sketch}", "--presentation", "{pres}"],
        [
            "universal", "--sketch", "{sketch}", "--presentation", "{pres}",
            "--model", "{model}", "--map", "{map}",
        ],
        ["builders", "emit", "binary_product"],
        ["builders", "list"],
    ],
    ids=["check", "reflect", "compare", "universal", "builders-emit", "builders-list"],
)
def test_unwritable_out_exits_two(workspace, tmp_path, command):
    out = tmp_path / "missing" / "report.json"
    paths = {
        "sketch": workspace["binary_sketch"],
        "pres": workspace["binary_pres"],
        "model": workspace["binary_model"],
        "map": workspace["binary_map"],
    }
    proc = run_cli(*[a.format(**paths) for a in command], "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"input error: cannot write {out}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


def test_builders_emit_unknown_name_exits_two():
    proc = run_cli("builders", "emit", "monoid_budgeted")
    assert proc.returncode == 2
    assert proc.stderr == "input error: unknown builder 'monoid_budgeted'\n"


def test_builders_list_refuses_a_name(tmp_path):
    out = tmp_path / "names.txt"
    proc = run_cli("builders", "list", "nosuchname", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: builders list takes no builder name, got 'nosuchname'\n"
    assert not out.exists()


def test_serialized_documents_reparse_to_equal_values(workspace):
    from limsketch.setops import presentation_loads
    from limsketch.sketchlib import sketch_loads

    sketch_text = workspace["iso_sketch"].read_text()
    sketch = sketch_loads(sketch_text)
    assert sketch_dumps(sketch) == sketch_text
    pres_text = workspace["iso_pres"].read_text()
    pres = presentation_loads(pres_text)
    assert presentation_dumps(pres) == pres_text


@pytest.mark.parametrize("field", ["peak", "shape", "diagram", "legs"])
def test_cone_without_required_field_exits_two(workspace, tmp_path, field):
    doc = json.loads(workspace["iso_sketch"].read_text())
    del doc["cones"][0][field]
    sketch = tmp_path / "cone_missing.json"
    sketch.write_text(json.dumps(doc))
    proc = run_cli(
        "check", "--sketch", str(sketch), "--presentation", str(workspace["terminal"])
    )
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {sketch}: $.cones[0]: missing fields ['{field}']\n"


def _set_legs(doc):
    doc["cones"][0]["legs"] = ["t"]


def _set_diagram_objects(doc):
    doc["cones"][0]["diagram"]["objects"] = ["b"]


def _set_diagram_arrows(doc):
    doc["cones"][0]["diagram"]["arrows"] = ["id_b"]


def _set_cones(doc):
    doc["cones"] = "x"


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (_set_legs, "$.cones[0].legs must be an object"),
        (_set_diagram_objects, "$.cones[0].diagram.objects must be an object"),
        (_set_diagram_arrows, "$.cones[0].diagram.arrows must be an object"),
        (_set_cones, "$.cones must be a list"),
    ],
    ids=["list-legs", "list-diagram-objects", "list-diagram-arrows", "string-cones"],
)
def test_malformed_sketch_exits_two(workspace, tmp_path, edit, message):
    doc = json.loads(workspace["iso_sketch"].read_text())
    edit(doc)
    sketch = tmp_path / "malformed_sketch.json"
    sketch.write_text(json.dumps(doc))
    proc = run_cli(
        "reflect", "--sketch", str(sketch), "--presentation", str(workspace["terminal"])
    )
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {sketch}: {message}\n"
    assert "Traceback" not in proc.stderr


ISO_MAP = {"a": {"x1": "m", "x2": "m"}, "b": {"y": "n"}}
ISO_PRES = {
    "category": "iso_forcing",
    "carrier": {"a": ["x1", "x2"], "b": ["y"]},
    "action": {"t": {"x1": "y", "x2": "y"}},
}


@pytest.mark.parametrize(
    ("document", "bad", "message"),
    [
        ("map", {"components": {**ISO_MAP, "zz": {"q": "m"}}}, "unknown object 'zz'"),
        (
            "map",
            {"components": {**ISO_MAP, "a": {"x1": "m", "x2": "m", "ghost": "m"}}},
            "defined on foreign 'ghost'",
        ),
        ("map", {"components": {**ISO_MAP, "a": ["m", "m"]}}, "$.components.a must be an object"),
        ("map", {"components": ["a"]}, "$.components must be an object"),
        (
            "presentation",
            {**ISO_PRES, "carrier": {"a": "xy", "b": ["y"]}},
            "$.carrier.a must be a list",
        ),
        (
            "presentation",
            {**ISO_PRES, "carrier": {"a": [1], "b": ["y"]}, "action": {"t": {"1": "y"}}},
            "$.carrier.a[0] must be a string",
        ),
        (
            "presentation",
            {**ISO_PRES, "action": {"t": ["y", "y"]}},
            "$.action.t must be an object",
        ),
        ("model", {**ISO_PRES, "carrier": {"a": "m", "b": ["n"]}}, "$.carrier.a must be a list"),
    ],
    ids=[
        "unknown-object-key",
        "foreign-element-key",
        "list-component",
        "list-components",
        "string-carrier",
        "integer-element",
        "list-action",
        "string-model-carrier",
    ],
)
def test_malformed_map_or_presentation_exits_two(workspace, tmp_path, document, bad, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(bad))
    pres = path if document == "presentation" else workspace["iso_pres"]
    model = path if document == "model" else workspace["iso_model"]
    fmap = path if document == "map" else workspace["iso_map"]
    proc = run_cli(
        "universal", "--sketch", "iso_forcing", "--presentation", str(pres),
        "--model", str(model), "--map", str(fmap),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"input error: {path}: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def _iso_category(edit) -> dict:
    category = category_to_json_dict(sketch_iso_forcing().base)
    edit(category)
    return category


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda c: c["objects"].append(["z"]), "$.category.objects[2] must be a string"),
        (lambda c: c["arrows"][0].update(id=7), "$.category.arrows[0].id must be a string"),
        (lambda c: c["arrows"][0].update(dom=["a"]), "$.category.arrows[0].dom must be a string"),
        (lambda c: c["arrows"][0].update(cod=None), "$.category.arrows[0].cod must be a string"),
        (lambda c: c["identities"].update(a=1), "$.category.identities.a must be a string"),
        (
            lambda c: c["compose"][0].update(gf={"t": "t"}),
            "$.category.compose[0].gf must be a string",
        ),
        (lambda c: c["arrows"].append("t"), "$.category.arrows[3] must be an object"),
        (
            lambda c: c["compose"].append(["t", "id_a", "t"]),
            "$.category.compose[4] must be an object",
        ),
    ],
    ids=[
        "object",
        "arrow-id",
        "arrow-dom",
        "arrow-cod",
        "identity",
        "compose-entry",
        "arrow-record",
        "compose-record",
    ],
)
def test_malformed_category_exits_two(tmp_path, edit, message):
    path = tmp_path / "category.json"
    path.write_text(json.dumps({**ISO_PRES, "category": _iso_category(edit)}))
    proc = run_cli("check", "--sketch", "iso_forcing", "--presentation", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"input error: {path}: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


@pytest.fixture()
def fresh_parser():
    """``cli.main``'s parser is built afresh in the test and dropped after it."""
    from limsketch import cli

    cached = cli._parser
    cached.cache_clear()
    yield cli
    cached.cache_clear()


def _run_in_process(cli, argv: list[str], out: Path) -> tuple:
    """Exit code, stdout, stderr and ``--out`` bytes of one ``cli.main`` call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
    report = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, stdout.getvalue(), stderr.getvalue(), report


def _interleaved(workspace) -> list[list[str]]:
    inputs = ["--sketch", str(workspace["iso_sketch"]), "--presentation", str(workspace["iso_pres"])]
    return [
        ["compare", *inputs],
        ["reflect", *inputs],
        ["reflect", "--mode", "nope", *inputs],
        ["reflect", "--help"],
        ["reflect", *inputs],
    ]


def test_main_builds_the_parser_once(workspace, tmp_path, monkeypatch, fresh_parser):
    cli, built = fresh_parser, []
    real = cli.make_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "make_parser", counted)
    codes = [_run_in_process(cli, argv, tmp_path / "r.json")[0] for argv in _interleaved(workspace)]
    assert codes == [0, 0, 2, 0, 0]
    assert len(built) == 1
    assert cli.make_parser() is not cli.make_parser()


def test_reused_parser_matches_a_fresh_one(workspace, tmp_path, monkeypatch, fresh_parser):
    cli = fresh_parser
    calls = _interleaved(workspace)
    reused = [_run_in_process(cli, argv, tmp_path / "r.json") for argv in calls]
    assert cli._parser.cache_info().currsize == 1
    inputs = calls[0][1:]
    assert cli._parser().parse_args(["compare", *inputs]).budget == 3
    assert cli._parser().parse_args(["reflect", *inputs]).budget == 8
    monkeypatch.setattr(cli, "_parser", cli.make_parser)
    fresh = [_run_in_process(cli, argv, tmp_path / "r.json") for argv in calls]
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0]
    assert "invalid choice: 'nope'" in reused[2][2] and reused[3][1].startswith("usage: limsketch reflect")


def test_import_builds_no_parser(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    spec = importlib.util.find_spec("limsketch.cli")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert built == [] and module._parser.cache_info().currsize == 0
    module._parser()
    assert built[0] == "limsketch"


# -- one built-in sketch per process -----------------------------------------

# (family, command) of every golden case: reflect on both engines, compare, universal
CASES = [(family, command) for family in sorted(FAMILIES) for command in sorted(COMMANDS)]


def test_build_sketch_returns_a_new_sketch_each_call():
    from limsketch import cli

    for name in builder_names():
        first, second = build_sketch(name), build_sketch(name)
        assert first is not second and first == second
        assert first is not cli._builtin(name) and first == cli._builtin(name)


def test_commands_leave_the_shared_sketches_unchanged(tmp_path):
    from limsketch import cli

    shared = {name: cli._builtin(name) for name in builder_names()}
    before = copy.deepcopy({name: sketch_to_json_dict(s) for name, s in shared.items()})
    for family, command in CASES:
        tmp = tmp_path / f"{family}-{command}"
        tmp.mkdir()
        run_in_process(case_argv(family, command, tmp), tmp)
    assert all(cli._builtin(name) is sketch for name, sketch in shared.items())
    assert {name: sketch_to_json_dict(s) for name, s in shared.items()} == before


def test_fresh_processes_match_in_process_runs(tmp_path):
    """Each golden case gives the same exit code, stdout and report bytes in a new process."""
    for family, command in CASES:
        tmp = tmp_path / f"{family}-{command}"
        tmp.mkdir()
        argv = case_argv(family, command, tmp)
        code, report, out_digest, _ = run_in_process(argv, tmp)
        fresh_out = tmp / "fresh.json"
        proc = run_cli(*argv, "--out", str(fresh_out))
        fresh_report = "no report"
        if fresh_out.exists():
            fresh_report = hashlib.sha256(fresh_out.read_bytes()).hexdigest()
        fresh = (proc.returncode, fresh_report, hashlib.sha256(proc.stdout.encode()).hexdigest())
        assert fresh == (code, report, out_digest), (family, command, proc.stderr)
