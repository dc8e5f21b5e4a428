"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every expected value is either frozen from an independent oracle
in this file or asserted exactly.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from limsketch.compare import build_alpha, reflector_iso_check
from limsketch.elim import FAITHFUL, PRUNED, reflect_elim, tag_base
from limsketch.kelly import kelly_P, reflect_kelly
from limsketch.setops import (
    compose_nat,
    functorial_quotient,
    limit_of_diagram,
    make_presentation,
    presentation_dumps,
    terminal_presentation,
)
from limsketch.sketchlib import (
    BUILDERS,
    build_sketch,
    gap_map,
    is_model,
    sketch_dumps,
)
from limsketch.universal import check_uniqueness, generated, solve_factorisation

from tests.fixtures import (
    binary_collapsed_fixture,
    binary_fixture,
    binary_model,
    binary_singleton_model,
    binary_sketch,
    iso_fixture,
    iso_model,
    iso_sketch,
    nat,
    sheaf_fixture,
    sheaf_model,
    sheaf_sketch,
)
from tests.oracles import (
    brute_limit,
    commutation_breaks,
    dsu_partition,
    fibres,
    free_witnesses,
    naive_quotient_partition,
    random_functorial_base,
    random_pairs,
    random_presentation,
    random_valid_presentation,
    shape_pool,
)
from tests.test_multicone import double_iso_sketch


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


def test_criterion_01_setops_oracle_equivalence():
    with criterion(1, "limits and quotients agree with brute-force oracles (200 runs)"):
        start = time.monotonic()
        rng = random.Random(1729)
        shapes = shape_pool()
        for _ in range(100):
            shape = rng.choice(shapes)
            diag = random_presentation(rng, shape, max_size=20)
            got = limit_of_diagram(shape, diag, max_tuples=10**7)
            assert set(got) == brute_limit(shape, diag)
            assert len(set(got)) == len(got)
        for _ in range(100):
            base = random_functorial_base(rng)
            pres = random_presentation(rng, base, max_size=20)
            pairs = random_pairs(rng, pres, count=4)
            got_q = functorial_quotient(pres, pairs)
            want = naive_quotient_partition(pres, {o: list(p) for o, p in pairs.items()})
            for obj in base.objects:
                assert {frozenset(m) for m in fibres(got_q.projection[obj]).values()} == want[obj]
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_model_checker():
    with criterion(2, "model checker verdicts and witnesses"):
        start = time.monotonic()
        for name in sorted(BUILDERS):
            sketch = build_sketch(name)
            assert is_model(terminal_presentation(sketch.base), sketch).is_model, name
        sketch = binary_sketch()
        assert is_model(binary_model(sketch), sketch).is_model
        rejected = make_presentation(
            sketch.base, {"a": ["u"], "p": []}, {"pi1": {}, "pi2": {}}
        )
        report = is_model(rejected, sketch)
        assert not report.is_model
        assert report.checks[0].unhit_tuple == ("u", "u")
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_03_elimination_fixtures():
    with criterion(3, "staged reflection fixtures converge to the stated cores"):
        checks = []

        t0 = time.monotonic()
        sketch = iso_sketch()
        trace = reflect_elim(iso_fixture(sketch), sketch, budget=8, mode=PRUNED)
        assert trace.converged and trace.converged_at <= 2
        assert trace.core.size() == {"a": 1, "b": 1}
        checks.append(time.monotonic() - t0)

        t0 = time.monotonic()
        sketch = binary_sketch()
        trace = reflect_elim(binary_fixture(sketch), sketch, budget=8, mode=PRUNED)
        assert trace.converged and trace.converged_at <= 2
        assert trace.core.size() == {"a": 2, "p": 4}
        gm = gap_map(trace.core, sketch.cones[0])
        assert len(set(gm.values())) == len(trace.core.carrier["p"]) == 4
        checks.append(time.monotonic() - t0)

        t0 = time.monotonic()
        sketch = sheaf_sketch()
        fixture = sheaf_fixture(sketch)
        trace = reflect_elim(fixture, sketch, budget=8, mode=PRUNED)
        assert trace.converged
        # independent oracle: matching pairs of the input sections
        matching = [
            (u, v)
            for u in fixture.carrier["U"]
            for v in fixture.carrier["V"]
            if fixture.action["uw"][u] == fixture.action["vw"][v]
        ]
        assert len(matching) == 2
        assert len(trace.core.carrier["T"]) == len(matching) == 2
        checks.append(time.monotonic() - t0)

        assert all(t < 1.0 for t in checks), checks


def test_criterion_04_stage_structure_invariants():
    with criterion(4, "every faithful stage is a tagged sum with surjective projection"):
        fixtures = [
            (iso_sketch(), iso_fixture()),
            (binary_sketch(), binary_fixture()),
            (sheaf_sketch(), sheaf_fixture()),
        ]
        for sketch, pres in fixtures:
            trace = reflect_elim(
                pres, sketch, budget=3, mode=FAITHFUL, max_tuples=10**6
            )
            assert len(trace.stages) >= 2
            for stage in trace.stages:
                assert stage.index <= 3
                for obj in sketch.base.objects:
                    tagged = set(stage.total.carrier[obj])
                    base_part = {tag_base(x) for x in stage.quotient.target.carrier[obj]}
                    free_part = {fid for fid, _ in free_witnesses(stage, obj)}
                    assert tagged == base_part | free_part
                    assert not (base_part & free_part)
                if stage.index >= 1:
                    for obj in sketch.base.objects:
                        assert set(stage.quotient.projection[obj].values()) == set(
                            stage.quotient.target.carrier[obj]
                        )


def test_criterion_05_kelly_cross_check():
    with criterion(5, "classical completion converges and matches the pair-list oracle"):
        start = time.monotonic()
        sketch = iso_sketch()
        trace = reflect_kelly(iso_fixture(sketch), sketch, budget=4)
        assert trace.converged and trace.converged_at == 1
        assert trace.core.size() == {"a": 1, "b": 1}

        sketch = binary_sketch()
        trace = reflect_kelly(binary_fixture(sketch), sketch, budget=4)
        assert trace.converged and trace.converged_at <= 2
        assert trace.core.size() == {"a": 2, "p": 4}

        for sk, pres in (
            (iso_sketch(), iso_fixture()),
            (binary_sketch(), binary_fixture()),
        ):
            step = kelly_P(pres, sk)
            for obj in sk.base.objects:
                literal = list(step.r0.get(obj, ())) + list(step.r1.get(obj, ()))
                want = dsu_partition(list(step.quotient.source.carrier[obj]), literal)
                have = {frozenset(m) for m in fibres(step.quotient.projection[obj]).values()}
                assert have == want
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_06_alpha_comparison():
    with criterion(6, "stage comparison squares pass on faithful stages 0-2"):
        sketch = iso_sketch()
        pres = iso_fixture(sketch)
        faithful = reflect_elim(pres, sketch, budget=3, mode=FAITHFUL)
        depth = len(faithful.stages) - 1
        assert depth == 2
        stages = reflect_kelly(pres, sketch, budget=depth, stop_on_convergence=False)
        alpha = build_alpha(faithful, stages, sketch)
        assert [s.index for s in alpha.stages] == [0, 1, 2]
        identity = alpha.stages[0].components
        for obj in sketch.base.objects:
            assert identity[obj] == {tag_base(x): x for x in pres.carrier[obj]}
        assert all(s.naturality_ok for s in alpha.stages)
        assert commutation_breaks(faithful, stages, alpha) == []


def test_criterion_07_reflector_isomorphism():
    with criterion(7, "staged and classical cores are isomorphic on every fixture"):
        cases = [
            (iso_sketch(), iso_fixture()),
            (binary_sketch(), binary_fixture()),
            (sheaf_sketch(), sheaf_fixture()),
            (iso_sketch(), iso_model()),
        ]
        for sketch, pres in cases:
            elim_trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
            kelly_trace = reflect_kelly(pres, sketch, budget=8)
            assert elim_trace.converged and kelly_trace.converged
            verdict = reflector_iso_check(elim_trace, kelly_trace, sketch)
            assert verdict.ok, verdict.detail


def _universal_triples():
    iso = iso_sketch()
    iso_x = iso_fixture(iso)
    iso_m = iso_model(iso)
    iso_big = make_presentation(
        iso.base, {"a": ["m1", "m2"], "b": ["n1", "n2"]},
        {"t": {"m1": "n1", "m2": "n2"}},
    )
    binary = binary_sketch()
    bin_x = binary_fixture(binary)
    bin_m = binary_model(binary)
    collapsed = binary_collapsed_fixture(binary)
    single = binary_singleton_model(binary)
    sheaf = sheaf_sketch()
    sh_x = sheaf_fixture(sheaf)
    sh_m = sheaf_model(sheaf)
    ident = {"U": {"0": "0", "1": "1"}, "V": {"0": "0", "1": "1"}, "W": {"0": "0", "1": "1"}}
    swap = {"U": {"0": "1", "1": "0"}, "V": {"0": "1", "1": "0"}, "W": {"0": "1", "1": "0"}}
    return [
        (iso, iso_x, iso_m, {"a": {"x1": "m", "x2": "m"}, "b": {"y": "n"}}),
        (iso, iso_x, terminal_presentation(iso.base),
         {"a": {"x1": "*", "x2": "*"}, "b": {"y": "*"}}),
        (iso, iso_m, iso_big, {"a": {"m": "m2"}, "b": {"n": "n2"}}),
        (binary, bin_x, bin_m, {"a": {"u": "u", "v": "v"}, "p": {}}),
        (binary, bin_x, terminal_presentation(binary.base),
         {"a": {"u": "*", "v": "*"}, "p": {}}),
        (binary, collapsed, single, {"a": {"u": "u"}, "p": {"q0": "q", "q1": "q"}}),
        (sheaf, sh_x, sh_m, ident),
        (sheaf, sh_x, sh_m, swap),
        (sheaf, sh_x, terminal_presentation(sheaf.base),
         {"U": {"0": "*", "1": "*"}, "V": {"0": "*", "1": "*"}, "W": {"0": "*", "1": "*"}}),
    ]


def test_criterion_08_universal_property():
    with criterion(8, "factorisation exists, commutes, and is conclusively unique"):
        start = time.monotonic()
        for sketch, pres, model, f_components in _universal_triples():
            trace = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
            assert trace.converged
            f = nat(pres, model, f_components)
            g = solve_factorisation(trace.rho, f, model, sketch)
            assert compose_nat(g, trace.rho).components == f.components
            assert check_uniqueness(g) <= 10**6
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_09_mode_soundness():
    with criterion(9, "faithful and pruned cores agree on all three fixture families"):
        cases = [
            (iso_sketch(), iso_fixture()),
            (binary_sketch(), binary_collapsed_fixture()),
            (sheaf_sketch(), sheaf_fixture()),
        ]
        for sketch, pres in cases:
            faithful = reflect_elim(pres, sketch, budget=8, mode=FAITHFUL)
            pruned = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
            assert faithful.converged and pruned.converged
            verdict = reflector_iso_check(faithful, pruned, sketch)
            assert verdict.ok, verdict.detail


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "limsketch", *args], capture_output=True, text=True
    )


def test_criterion_10_determinism(tmp_path: Path):
    with criterion(10, "repeated runs emit byte-identical reports"):
        iso = iso_sketch()
        binary = binary_sketch()
        sketch_file = tmp_path / "iso.json"
        sketch_file.write_text(sketch_dumps(iso))
        pres_file = tmp_path / "X.json"
        pres_file.write_text(presentation_dumps(iso_fixture(iso)))
        bsketch_file = tmp_path / "binary.json"
        bsketch_file.write_text(sketch_dumps(binary))
        bpres_file = tmp_path / "Xb.json"
        bpres_file.write_text(presentation_dumps(binary_fixture(binary)))
        bmodel_file = tmp_path / "Mb.json"
        bmodel_file.write_text(presentation_dumps(binary_model(binary)))
        bmap_file = tmp_path / "fb.json"
        bmap_file.write_text(
            json.dumps({"components": {"a": {"u": "u", "v": "v"}, "p": {}}})
        )
        commands = {
            "reflect": [
                "reflect", "--sketch", str(sketch_file),
                "--presentation", str(pres_file), "--mode", "pruned",
            ],
            "compare": [
                "compare", "--sketch", str(sketch_file),
                "--presentation", str(pres_file),
            ],
            "universal": [
                "universal", "--sketch", str(bsketch_file),
                "--presentation", str(bpres_file),
                "--model", str(bmodel_file), "--map", str(bmap_file),
            ],
        }
        for label, argv in commands.items():
            outputs = []
            for run in range(2):
                out = tmp_path / f"{label}_{run}.json"
                proc = _run_cli(*argv, "--out", str(out))
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{label} reports differ"


def test_criterion_11_unit_generates_the_core():
    with criterion(11, "rho generates every converged core of both engines (410 traces)"):
        sketches = [build_sketch(name) for name in sorted(BUILDERS)] + [double_iso_sketch()]
        checked = 0
        for sketch in sketches:
            for seed in range(32):
                rng = random.Random(f"generated:{sketch.name}:{seed}")
                pres = random_valid_presentation(rng, sketch.base, max_size=3)
                pruned = reflect_elim(pres, sketch, budget=8, mode=PRUNED)
                classical = reflect_kelly(pres, sketch, budget=8)
                assert pruned.converged and classical.converged, (sketch.name, seed)
                # faithful binary_product stages grow without converging (|a| = 2: a = 10, 202,
                # 81,610), and stage 4 outgrows the tuple budget, so faithful runs stop at stage 2
                faithful = reflect_elim(pres, sketch, budget=2, mode=FAITHFUL)
                for trace in (pruned, classical, faithful):
                    if trace.converged:
                        closure = generated(trace.core, trace.rho, sketch)
                        assert closure == {d: set(c) for d, c in trace.core.carrier.items()}
                        checked += 1
        assert checked == 410
