"""Golden report digests: the CLI's bytes on the three fixture families.

Each case runs one command through ``cli.main`` with ``--out`` and checks
the exit code, the sha256 of the report file and the sha256 of stdout
against recorded values.  The ``reflect`` and ``compare`` digests were
recorded when witness ids came to name their limit tuple by position;
the exit codes, stdout digests and ``universal`` digests are older.  A
refactor that is meant to keep outputs must keep every digest.  The CLI
streams its reports, so each one is also checked against the library's
string for the same objects, and the largest, ``compare`` on
``binary_product`` at |a| = 2 (6.7 MB), against a recording sink.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from limsketch import cli, compare, elim, kelly, universal
from limsketch.fincat import write_report
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
    "binary/compare": (0, "6e63d975675f6e6c4c3a14dad8b8cf94c8c5d009ea902c3f1539e13f25e756f4", "10b3f9683972cb74ca258d6c435e0beecaa4662e3ec06846d7b1e48f8c53f446"),
    "binary/reflect-elim-faithful": (3, "no report", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "binary/reflect-elim-pruned": (0, "40432334fef0c4a7a30d2debfd5c620d9a49598389582c8ae0693dc341be8f61", "89aa8ffa5003e5c1198e900bd8b87728021b7ae4d014b8729bc2eb59c939622b"),
    "binary/reflect-kelly": (0, "1c162780a2210f1ada9f28860a7fee0dbdde14b9dd5e25f6454008d585acfb2e", "be0148e90a714df7cfd068b477d5e98228d61b6f1f30c7099ce7ad5e54dced54"),
    "binary/universal": (0, "05de1ee0b26da5b76372e6cc2de250e31d72d1b9b7dce443ae128d500c5aa8bd", "8ae0b0b5c49b24494462af91d9c5b938eb792d646684bfac20a7de8f586bdff4"),
    "iso/compare": (0, "ed4d7e380f0385f1a326a7ade64a63503731735d53a0f5ad880f135a90798bb5", "10b3f9683972cb74ca258d6c435e0beecaa4662e3ec06846d7b1e48f8c53f446"),
    "iso/reflect-elim-faithful": (0, "4e53f1d38d90b6878c2ebf07fe9f0641d5624e7a58e7395aa996c28bb11e4d75", "3a7edcf0514ec04c928fbe330b41efaaafcf83e8b0406b3623c10411de98a4a9"),
    "iso/reflect-elim-pruned": (0, "a71f76ba0af0b21369e15af272911105c53cf04abb86fdf5cce2ce850360cdf8", "e4584491ff09d21612d9251fd5c9b5a10ea37e77694d4b6ee9f49822cfa45d3b"),
    "iso/reflect-kelly": (0, "5bcc933dc3ef341313b80fc1ba9649d53b8ef0d4c38424f5fb85b5f7727cc576", "e4584491ff09d21612d9251fd5c9b5a10ea37e77694d4b6ee9f49822cfa45d3b"),
    "iso/universal": (0, "ae3983f9771344296db51258882be791d66d4fa6d5ba66fb15861b272a221490", "43c4641cb225db873977648b5a87b479d9f876888c8743e133ac4f2d76db10d0"),
    "sheaf/compare": (0, "22d24e2ea915df5f30d5377f7f858b68b77ae9e8c665e1cac9803ddf563da236", "10b3f9683972cb74ca258d6c435e0beecaa4662e3ec06846d7b1e48f8c53f446"),
    "sheaf/reflect-elim-faithful": (0, "5bfb1aa9dc22ff0191978172e7702b0ba23ac3c27ac8b36f25e9b0e21522f80f", "cc1dc986f682f923cce59beb4a999ef8c5d45ca2dec78bf19414cbefb5c48186"),
    "sheaf/reflect-elim-pruned": (0, "1f32997c05657437131f34d47a1550b28cb3e4b7c7747865460712c0e36e3b2c", "320f8c21f2a919072181323d650a4ad207089ae8483155068652d59fc15da63a"),
    "sheaf/reflect-kelly": (0, "8aecc85269116117d9a92ed0214025dc1c6883598f79c4ecbbd0d6c937cf11ab", "5a39a01e1af9bfc7808c1781d111809bf62cb653e583f6f0c9069e1b143f7160"),
    "sheaf/universal": (0, "9c4b5d8c74e1c1f26d198237c6d6b466b93956102d8c317bd7a0c2b0910485a4", "2c81be330091de7d6c9ca04c72c0474a932a3ef5d5070ae0da0c5c34cb00c8fe"),
}


def case_argv(family: str, command: str, tmp: Path) -> list[str]:
    """Write one golden case's documents under ``tmp``; return its command line."""
    builder, make_sketch, make_pres, make_model, components = FAMILIES[family]
    sketch = make_sketch()
    paths = {"pres": tmp / "X.json", "model": tmp / "M.json", "map": tmp / "f.json"}
    paths["pres"].write_text(presentation_dumps(make_pres(sketch)))
    paths["model"].write_text(presentation_dumps(make_model(sketch)))
    paths["map"].write_text(json.dumps({"components": components}))
    argv = [a.format(model=paths["model"], map=paths["map"]) for a in COMMANDS[command]]
    return argv + ["--sketch", builder, "--presentation", str(paths["pres"])]


def run_case(family: str, command: str, tmp: Path) -> tuple[int, str, str, str]:
    """Run one golden case; return exit code, report and stdout digests, stdout."""
    return run_cli(case_argv(family, command, tmp), tmp)


def run_cli(argv: list[str], tmp: Path) -> tuple[int, str, str, str]:
    """Run ``argv`` with ``--out`` under ``tmp``; return exit code, digests, stdout."""
    out = tmp / "report.json"
    argv = [*argv, "--out", str(out)]
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


def record_calls(monkeypatch, module, name: str, calls: list) -> None:
    """Wrap ``module.name`` so that each call appends its arguments and result to ``calls``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


def library_string(command: str, calls: dict[str, list]) -> str:
    """The library's report string for the objects the CLI's run of ``command`` built."""
    if command == "compare":
        args, _, _ = calls["comparison_to_json_dict"][-1]
        return compare.comparison_report(*args)
    if command == "universal":
        args, _, _ = calls["universal_to_json_dict"][-1]
        return universal.universal_report(*args)
    engine = "reflect_kelly" if command == "reflect-kelly" else "reflect_elim"
    _, _, trace = calls[engine][-1]
    return trace.dumps()


RECORDED = (
    (elim, "reflect_elim"),
    (kelly, "reflect_kelly"),
    (compare, "comparison_to_json_dict"),
    (universal, "universal_to_json_dict"),
)


@pytest.mark.parametrize("case", sorted(k for k, v in GOLDEN.items() if v[0] == 0))
def test_streamed_report_is_the_library_string(case: str, tmp_path: Path, monkeypatch) -> None:
    calls: dict[str, list] = {name: [] for _, name in RECORDED}
    for module, name in RECORDED:
        record_calls(monkeypatch, module, name, calls[name])
    family, command = case.split("/")
    assert run_case(family, command, tmp_path)[0] == 0
    report = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert report == library_string(command, calls)


# ``compare --sketch binary_product`` at |a| = 2, default flags: 122,518
# elements over the faithful stages, listed in a 6.7 MB report
PRODUCT_N2 = {
    "category": "binary_product",
    "carrier": {"a": ["x0", "x1"], "p": []},
    "action": {"pi1": {}, "pi2": {}},
}
PRODUCT_N2_GOLDEN = (
    0,
    "4db0c012480a9de32b71657e2e456c5ad232899a38e1fd275cb880b676df5c66",
    "10b3f9683972cb74ca258d6c435e0beecaa4662e3ec06846d7b1e48f8c53f446",
)


@pytest.fixture(scope="module")
def product_compare(tmp_path_factory):
    """The CLI's ``compare`` on PRODUCT_N2: exit code, digests, stdout, and (alpha, iso)."""
    tmp = tmp_path_factory.mktemp("product")
    pres = tmp / "X.json"
    pres.write_text(json.dumps(PRODUCT_N2))
    calls: list = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        record_calls(monkeypatch, compare, "comparison_to_json_dict", calls)
        argv = ["compare", "--sketch", "binary_product", "--presentation", str(pres)]
        result = run_cli(argv, tmp)
    (tmp / "report.json").unlink()
    return result, calls[-1][0]


def test_product_compare_report_digest(product_compare) -> None:
    (code, report, out_digest, text), _ = product_compare
    assert (code, report, out_digest) == PRODUCT_N2_GOLDEN, text


# ``reflect --engine elim --mode faithful --budget 3`` on PRODUCT_N2: the
# budget runs out (exit 3) after stage 3, and the 10.1 MB report lists the
# base, free and total carriers, the limits table and the projection p of
# every stage
PRODUCT_N2_FAITHFUL_GOLDEN = (
    3,
    "473266eb157a29541c797c6d06480e111010264dc42743796f06187a0ca93ade",
    "6fbe36053f119700250912e3e7b1e671653fd99e7686f135579c5df81236f7e4",
)


def test_product_faithful_stages_report_digest(tmp_path: Path) -> None:
    pres = tmp_path / "X.json"
    pres.write_text(json.dumps(PRODUCT_N2))
    argv = [
        "reflect", "--sketch", "binary_product", "--presentation", str(pres),
        "--engine", "elim", "--mode", "faithful", "--budget", "3",
    ]
    code, report, out_digest, text = run_cli(argv, tmp_path)
    assert (code, report, out_digest) == PRODUCT_N2_FAITHFUL_GOLDEN, text


class RecordingSink:
    """A text sink that keeps the size of each write and the digest of them all."""

    def __init__(self) -> None:
        self.sizes: list[int] = []
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        self.digest.update(text.encode("utf-8"))
        return len(text)


def test_writer_streams_the_product_report_in_batches(product_compare) -> None:
    _, (alpha, iso) = product_compare
    sink = RecordingSink()
    write_report(compare.comparison_to_json_dict(alpha, iso), sink)
    total = sum(sink.sizes)
    # ids name their limit tuple by position: nested ids made this report 38.6 MB
    assert total < 8_000_000
    assert len(sink.sizes) > 1 and max(sink.sizes) < total
    assert max(sink.sizes) <= 2_000_000
    assert sink.digest.hexdigest() == PRODUCT_N2_GOLDEN[1]
    library = compare.comparison_report(alpha, iso)
    assert hashlib.sha256(library.encode("utf-8")).hexdigest() == PRODUCT_N2_GOLDEN[1]
