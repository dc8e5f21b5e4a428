"""Golden report digests: the CLI's bytes on the three fixture families.

Each case runs one command through ``cli.main`` with ``--out`` and checks
the exit code, the sha256 of the report file and the sha256 of stdout
against values recorded before the provenance replay was unified.  A
refactor that is meant to keep outputs must keep every digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from limsketch import cli
from limsketch.setops import presentation_dumps

from tests.fixtures import (
    binary_fixture,
    binary_model,
    binary_sketch,
    iso_fixture,
    iso_model,
    iso_sketch,
    sheaf_fixture,
    sheaf_model,
    sheaf_sketch,
)

FAMILIES = {
    "iso": (
        "iso_forcing",
        iso_sketch,
        iso_fixture,
        iso_model,
        {"a": {"x1": "m", "x2": "m"}, "b": {"y": "n"}},
    ),
    "binary": (
        "binary_product",
        binary_sketch,
        binary_fixture,
        binary_model,
        {"a": {"u": "u", "v": "v"}, "p": {}},
    ),
    "sheaf": (
        "two_cover_sheaf",
        sheaf_sketch,
        sheaf_fixture,
        sheaf_model,
        {"T": {}, "U": {"0": "0", "1": "1"}, "V": {"0": "0", "1": "1"}, "W": {"0": "0", "1": "1"}},
    ),
}

COMMANDS = {
    "reflect-elim-pruned": ["reflect", "--engine", "elim", "--mode", "pruned"],
    "reflect-elim-faithful": ["reflect", "--engine", "elim", "--mode", "faithful"],
    "reflect-kelly": ["reflect", "--engine", "kelly"],
    "compare": ["compare"],
    "universal": ["universal", "--model", "{model}", "--map", "{map}"],
}

# (exit code, report sha256 or "no report", stdout sha256)
GOLDEN: dict[str, tuple[int, str, str]] = {
    "binary/compare": (0, "92f2618332ba81d40b4206c7afdc902373a066d14c9e06f0af8eaa158189e885", "10b3f9683972cb74ca258d6c435e0beecaa4662e3ec06846d7b1e48f8c53f446"),
    "binary/reflect-elim-faithful": (3, "no report", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "binary/reflect-elim-pruned": (0, "2873e98197b9725879c6f597f4957c9a9ddaec80d6c0ffd14d0388e94fe254ba", "89aa8ffa5003e5c1198e900bd8b87728021b7ae4d014b8729bc2eb59c939622b"),
    "binary/reflect-kelly": (0, "57a6a1df65a589790416f4ae55e40467865651754c8dafd860fff1277846e0c7", "be0148e90a714df7cfd068b477d5e98228d61b6f1f30c7099ce7ad5e54dced54"),
    "binary/universal": (0, "05de1ee0b26da5b76372e6cc2de250e31d72d1b9b7dce443ae128d500c5aa8bd", "8ae0b0b5c49b24494462af91d9c5b938eb792d646684bfac20a7de8f586bdff4"),
    "iso/compare": (0, "fea1dffd5bbec153dd22116c2337110c4d09151ed4074eef7b2d786cf6c05a25", "10b3f9683972cb74ca258d6c435e0beecaa4662e3ec06846d7b1e48f8c53f446"),
    "iso/reflect-elim-faithful": (0, "14c84f249a721907ea98cdc5514d77764de5447574641701cfe1db48fecdfbc1", "3a7edcf0514ec04c928fbe330b41efaaafcf83e8b0406b3623c10411de98a4a9"),
    "iso/reflect-elim-pruned": (0, "dd0e0aeaa3ac6c495652c4df6c79be8032eac920fd64151c6e854e91ad37057b", "e4584491ff09d21612d9251fd5c9b5a10ea37e77694d4b6ee9f49822cfa45d3b"),
    "iso/reflect-kelly": (0, "84ddb3b3935e117593a13121d714fc3ea11f52ebedf8cfdf9ad27f3c8a1eb45c", "e4584491ff09d21612d9251fd5c9b5a10ea37e77694d4b6ee9f49822cfa45d3b"),
    "iso/universal": (0, "ae3983f9771344296db51258882be791d66d4fa6d5ba66fb15861b272a221490", "43c4641cb225db873977648b5a87b479d9f876888c8743e133ac4f2d76db10d0"),
    "sheaf/compare": (0, "705f5e8e9b36c901a7dffffd879c8d06a9640434fe8a4b47b2968311ee31e663", "10b3f9683972cb74ca258d6c435e0beecaa4662e3ec06846d7b1e48f8c53f446"),
    "sheaf/reflect-elim-faithful": (0, "258b474ee01222dc5a003ed9d21b42b833d898051babff8c106e17a1f49aed74", "cc1dc986f682f923cce59beb4a999ef8c5d45ca2dec78bf19414cbefb5c48186"),
    "sheaf/reflect-elim-pruned": (0, "235049cdeea9e40f8bb4daf1f77e72773a0ac4d81efbdc795178335c2da140c2", "320f8c21f2a919072181323d650a4ad207089ae8483155068652d59fc15da63a"),
    "sheaf/reflect-kelly": (0, "e03e8e126155d868ed18a7a90fe3026a9e61c845c82b67960588fd789f823fe2", "5a39a01e1af9bfc7808c1781d111809bf62cb653e583f6f0c9069e1b143f7160"),
    "sheaf/universal": (0, "9c4b5d8c74e1c1f26d198237c6d6b466b93956102d8c317bd7a0c2b0910485a4", "2c81be330091de7d6c9ca04c72c0474a932a3ef5d5070ae0da0c5c34cb00c8fe"),
}


def run_case(family: str, command: str, tmp: Path) -> tuple[int, str, str, str]:
    """Run one golden case; return exit code, report and stdout digests, stdout."""
    builder, make_sketch, make_pres, make_model, components = FAMILIES[family]
    sketch = make_sketch()
    paths = {"pres": tmp / "X.json", "model": tmp / "M.json", "map": tmp / "f.json"}
    paths["pres"].write_text(presentation_dumps(make_pres(sketch)))
    paths["model"].write_text(presentation_dumps(make_model(sketch)))
    paths["map"].write_text(json.dumps({"components": components}))
    out = tmp / "report.json"
    argv = [a.format(model=paths["model"], map=paths["map"]) for a in COMMANDS[command]]
    argv += ["--sketch", builder, "--presentation", str(paths["pres"]), "--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    report = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "no report"
    text = stdout.getvalue()
    return code, report, hashlib.sha256(text.encode()).hexdigest(), text


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_report_digest(family: str, command: str, tmp_path: Path) -> None:
    code, report, out_digest, text = run_case(family, command, tmp_path)
    assert (code, report, out_digest) == GOLDEN[f"{family}/{command}"], text
