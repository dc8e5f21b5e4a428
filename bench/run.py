"""End-to-end and per-layer benchmark of the limsketch batch CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload product --seed 1 --seconds 45 --trace 0

Each operation is a CLI command line run in process through
``limsketch.cli.main(argv)``, with ``--out`` pointing into a scratch
directory under ``.bench_work/``.  One process and one thread run the
operations in a closed loop: each starts when the previous one returns.
A pass runs every operation of the workload once (operations of a few
milliseconds several times); after one warm-up pass, passes repeat until
``--seconds`` have gone by.  Each timing is the sum, over its operations,
of the operation's mean time; the table above the result also gives the
median and the highest supported percentile of the per-pass totals.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under span wrappers around the engine's public
functions (see ``spans.py``) and prints the per-layer metrics, including
the tracing overhead as traced over untraced wall time.

Every operation goes through a correctness gate: exit code, closed-form
core sizes or search space, identical report bytes across passes, and an
untimed verification pass through the library (model check on the cores,
``reflector_iso_check`` of elim against kelly, report bytes equal to the
library's).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads  # a sibling module: bench/ is sys.path[0] when run as a script

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 9
FAMILIES = ("binary_product", "two_cover_sheaf", "equalizer")
TIMINGS = ("wall_s",) + tuple(workloads.COMMAND_METRIC.values())

# Per-layer metrics printed with --trace 1: (name, unit).
PER_LAYER = (
    ("setops.limit_of_diagram.calls", "count"),
    ("setops.limit_of_diagram.self_s", "s"),
    ("setops.limit_of_diagram.scanned", "count"),
    ("setops.limit_of_diagram.emitted", "count"),
    ("setops.limit_of_diagram.yield", "ratio"),
    ("setops.limit_of_diagram.refused", "count"),
    ("elim.e_step.calls", "count"),
    ("elim.e_step.self_s", "s"),
    ("elim.e_step.limit_tuples", "count"),
    ("elim.e_step.free_added", "count"),
    ("elim.e_step.kept_ratio", "ratio"),
    ("elim.relation_one.self_s", "s"),
    ("elim.relation_one.pairs", "count"),
    ("elim.relation_two.self_s", "s"),
    ("elim.relation_two.pairs", "count"),
    ("elim.elim_stage.self_s", "s"),
    ("elim.stages", "count"),
    ("setops.functorial_quotient.calls", "count"),
    ("setops.functorial_quotient.self_s", "s"),
    ("setops.functorial_quotient.pairs_in", "count"),
    ("setops.functorial_quotient.merged", "count"),
    ("setops.disjoint_sum.self_s", "s"),
    ("sketchlib.is_model.calls", "count"),
    ("sketchlib.is_model.self_s", "s"),
    ("sketchlib.gap_map.calls", "count"),
    ("sketchlib.cone_limit.self_s", "s"),
    ("fincat.hom.calls", "count"),
    ("fincat.compose.calls", "count"),
    ("kelly.kelly_P.calls", "count"),
    ("kelly.kelly_P.self_s", "s"),
    ("kelly.kelly_P.sum_elements", "count"),
    ("kelly.kelly_P.merged", "count"),
    ("compare.build_alpha.self_s", "s"),
    ("compare.reflector_iso_check.self_s", "s"),
    ("universal.solve_factorisation.self_s", "s"),
    ("universal.enumerate_nat_trans.self_s", "s"),
    ("universal.enumerate_nat_trans.search_space", "count"),
    ("universal.enumerate_nat_trans.found", "count"),
    ("universal.check_uniqueness.self_s", "s"),
    ("cli.report.self_s", "s"),
    ("cli.report.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
)

# Layer whose absence on a workload explains a zero per-layer metric.
LAYER_OF = {name: name.rsplit(".", 1)[0] for name, _ in PER_LAYER}
LAYER_OF["elim.stages"] = "elim.elim_stage"

CORE_LINE = re.compile(r"converged at stage \d+; core sizes: (.*)$")
SPACE_LINE = re.compile(r"uniqueness: (\w+) \(search space (\d+)\)$")


# -- the program under test ---------------------------------------------------


def import_program():
    """Import the checkout's ``limsketch`` afresh; fail if it is not there."""
    for name in [m for m in sys.modules if m.split(".")[0] == "limsketch"]:
        del sys.modules[name]
    cli = importlib.import_module("limsketch.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"limsketch imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Imports, sketch builders and instance generation, as one timed unit."""
    start = time.perf_counter()
    cli = import_program()
    sketches = {name: cli.build_sketch(name) for name in FAMILIES}
    ops, digest = workloads.build(workload, seed, workdir)
    return time.perf_counter() - start, cli, sketches, ops, digest


# -- one pass -----------------------------------------------------------------


class Outcome:
    OK, REFUSED, WRONG = "ok", "refused", "wrong"


def run_op(cli_main, op, tracer=None, op_id=0):
    """Run one CLI command line; return (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    # Start each command from a collected heap, as a fresh CLI process would,
    # so that when the cyclic collector runs does not depend on earlier ops.
    gc.collect()
    span = None
    if tracer is not None:
        tracer.op = op_id
        span = tracer.open("cli.main")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(op.argv)
        except (Exception, SystemExit):  # an escaped error is a failed operation
            code = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return code, seconds, out.getvalue(), err.getvalue()


def gate(op, code, stdout: str) -> tuple[str, str]:
    """Classify an operation's result from its exit code and printed verdicts."""
    lines = stdout.splitlines()
    if code == 3:
        if op.command == "universal":
            match = SPACE_LINE.match(lines[-1]) if lines else None
            if not match or match.group(1) != "inconclusive" or int(match.group(2)) != op.expect_space:
                return Outcome.WRONG, f"budget exit without the expected verdict: {lines[-1:]}"
        return Outcome.REFUSED, "budget"
    if code != 0:
        return Outcome.WRONG, f"exit code {code}"
    if op.command.startswith("reflect"):
        match = CORE_LINE.match(lines[-1]) if lines else None
        if not match:
            return Outcome.WRONG, f"no core line in {lines[-1:]}"
        sizes = dict(item.split("=") for item in match.group(1).split())
        got = {obj: int(n) for obj, n in sizes.items()}
        if got != op.expect_core:
            return Outcome.WRONG, f"core sizes {got}, closed form {op.expect_core}"
    elif op.command == "compare":
        if lines[-2:] != ["alpha squares: pass", "reflector isomorphism: verified"]:
            return Outcome.WRONG, f"compare verdicts {lines[-2:]}"
    elif op.command == "universal":
        match = SPACE_LINE.match(lines[-1]) if lines else None
        if lines[-2:-1] != ["factorisation exists and commutes: true"] or not match:
            return Outcome.WRONG, f"universal verdicts {lines[-2:]}"
        if match.group(1) != "unique" or int(match.group(2)) != op.expect_space:
            return Outcome.WRONG, f"universal verdict {lines[-1]}, space {op.expect_space}"
    return Outcome.OK, ""


class Run:
    """Accumulates passes, outcomes and report digests for one workload run."""

    def __init__(self, cli, ops) -> None:
        self.cli = cli
        self.ops = ops
        self.passes: list[dict[str, list[float]]] = []
        self.layers: list[dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.digests: dict[str, str | None] = {}
        self.executed: list[tuple[int, object]] = []  # (pass, op) per op id
        self.first: dict[str, tuple[int | None, str, str]] = {}

    def one_pass(self, tracer=None) -> dict[str, list[float]]:
        """Run every op ``op.repeat`` times; with a tracer, also fold its spans."""
        times: dict[str, list[float]] = {}
        first_id = len(self.executed)
        for op in [op for op in self.ops for _ in range(op.repeat)]:
            op_id = len(self.executed)
            self.executed.append((len(self.passes), op))
            code, seconds, stdout, stderr = run_op(self.cli.main, op, tracer, op_id)
            outcome, detail = gate(op, code, stdout)
            report = op.out.read_bytes() if code == 0 else b""
            digest = hashlib.sha256(report).hexdigest() if code == 0 else None
            if op.name not in self.first:
                self.first[op.name] = (code, stdout, stderr)
                self.digests[op.name] = digest
                if outcome == Outcome.OK:
                    problem = check_report(op, report.decode("utf-8"))
                    if problem:
                        outcome, detail = Outcome.WRONG, problem
            elif digest != self.digests[op.name]:
                outcome, detail = Outcome.WRONG, "report bytes differ from the first pass"
            self.attempted += 1
            if outcome != Outcome.OK:
                self.failed += 1
            if outcome == Outcome.WRONG:
                self.wrong.append(f"{op.name}: {detail} {stderr.strip()[-300:]}")
            if not op.edge:
                times.setdefault(op.name, []).append(seconds)
            if op.out.exists():
                op.out.unlink()
        self.passes.append(times)
        if tracer is not None:
            self.layers.append(layer_pass_metrics(tracer, self.executed, first_id))
        return times

    def passes_for(self, seconds: float) -> list[dict[str, list[float]]]:
        """Untraced passes until ``seconds`` have gone by, at least one."""
        start = time.perf_counter()
        done: list[dict[str, list[float]]] = []
        while not done or time.perf_counter() - start < seconds:
            done.append(self.one_pass())
        return done


# -- untimed verification through the library ----------------------------------


def verify(run: Run, sketches) -> list[str]:
    """Check the first pass's reflect reports against the library, input by input."""
    problems: list[str] = []
    reflect_groups: dict[Path, list] = {}
    for op in run.ops:
        if op.command.startswith("reflect"):
            reflect_groups.setdefault(op.presentation, []).append(op)
    for path, ops in reflect_groups.items():
        try:
            problems.extend(verify_reflections(run, sketches, path, ops))
        except Exception as exc:  # an engine error here is a failed check
            problems.append(f"{path.name}: verification raised {exc!r}")
    return problems


def verify_reflections(run: Run, sketches, path: Path, ops) -> list[str]:
    """Library elim and kelly on one input: model cores, closed form, iso, bytes."""
    from limsketch import compare, elim, kelly, setops, sketchlib

    problems: list[str] = []
    sketch = sketches[ops[0].family]
    resolve = lambda name: sketches[name].base if name in sketches else None  # noqa: E731
    doc = json.loads(path.read_text(encoding="utf-8"))
    pres = setops.presentation_from_json_dict(doc, base=sketch.base, resolve_category=resolve)
    traces = {"kelly": kelly.reflect_kelly(pres, sketch, budget=8)}
    if any(op.command == "reflect-elim" and run.first[op.name][0] == 0 for op in ops):
        traces["elim"] = elim.reflect_elim(pres, sketch, budget=8, mode=elim.PRUNED)
    for engine, trace in traces.items():
        if not trace.converged:
            problems.append(f"{path.name}: library {engine} did not converge")
            continue
        if not sketchlib.is_model(trace.core, sketch).is_model:
            problems.append(f"{path.name}: {engine} core is not a model")
        if trace.core.size() != ops[0].expect_core:
            problems.append(f"{path.name}: {engine} core {trace.core.size()}")
    for op in ops:
        engine = op.command.split("-")[1]
        if engine in traces and run.first[op.name][0] == 0:
            library = hashlib.sha256(traces[engine].dumps().encode()).hexdigest()
            if library != run.digests[op.name]:
                problems.append(f"{op.name}: CLI report differs from the library's")
    if len(traces) == 2 and all(t.converged for t in traces.values()):
        if not compare.reflector_iso_check(traces["elim"], traces["kelly"], sketch).ok:
            problems.append(f"{path.name}: elim and kelly reflections not isomorphic")
    return problems


def check_report(op, text: str) -> str | None:
    """Content checks on a compare or universal report of the first pass."""
    if op.command == "compare":
        if '"squares_ok": true' not in text or '"isomorphic": true' not in text:
            return f"{op.name}: report lacks squares_ok/isomorphic"
        if '"naturality_ok": false' in text or '"commutation_ok": false' in text:
            return f"{op.name}: report has a failed square"
    elif op.command == "universal":
        report = json.loads(text)
        want = {"exists": True, "commutes": True, "uniqueness": "unique",
                "search_space": op.expect_space}
        if report != want:
            return f"{op.name}: report {report}"
    return None


# -- reporting ------------------------------------------------------------------


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            return f"p{q}={cut:.6f}"
    return "no tail percentile (needs >= 20 samples)"


def metric_of(op) -> str:
    return workloads.COMMAND_METRIC[op.command]


def timing_metrics(passes: list[dict[str, list[float]]], ops) -> dict[str, float]:
    """Each timing as the sum, over its ops, of the op's mean run time.

    The mean is taken over every run of the op in ``passes``, so ``wall_s``
    is the mean time of one pass over the timed ops.  On a shared host whose
    speed switches between a fast and a slow state, a median over a dozen
    passes jumps between the two states from run to run; the mean moves
    with the share of time spent in each and was about twice as steady
    across seeds.
    """
    out = dict.fromkeys(TIMINGS, 0.0)
    for op in ops:
        if not op.edge:
            mean = statistics.fmean(t for p in passes for t in p[op.name])
            out[metric_of(op)] += mean
            out["wall_s"] += mean
    return out


def pass_totals(passes: list[dict[str, list[float]]], ops, name: str) -> list[float]:
    """Per-pass sums of one timing (repeated ops by their mean), for the table."""
    return [
        sum(
            statistics.fmean(p[op.name])
            for op in ops
            if not op.edge and name in ("wall_s", metric_of(op))
        )
        for p in passes
    ]


def layer_pass_metrics(tracer, executed, first_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass: the op ids from ``first_id`` on.

    Edge ops are left out, except from the refusal count, which they are
    there to produce.
    """
    ids = range(first_id, len(executed))
    m = tracer.layer_metrics({i for i in ids if not executed[i][1].edge})
    refused = tracer.layer_metrics(set(ids)).get("setops.limit_of_diagram.refused", 0.0)
    m["setops.limit_of_diagram.refused"] = refused
    scanned = m.get("setops.limit_of_diagram.scanned", 0.0)
    limit_tuples = m.get("elim.e_step.limit_tuples", 0.0)
    m["setops.limit_of_diagram.yield"] = (
        m.get("setops.limit_of_diagram.emitted", 0.0) / scanned if scanned else 0.0
    )
    m["elim.e_step.kept_ratio"] = m.get("elim.e_step.kept", 0.0) / limit_tuples if limit_tuples else 0.0
    m["elim.stages"] = m.get("elim.elim_stage.calls", 0.0)
    return m


def command_shares(tracer, executed) -> list[str]:
    """Where each command's traced time went, from the last traced pass."""
    last = executed[-1][0]
    lines = []
    for command, metric in workloads.COMMAND_METRIC.items():
        ids = {
            i for i, (n, op) in enumerate(executed)
            if n == last and op.command == command and not op.edge
        }
        total = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main" and s.op in ids)
        if not total:
            continue
        selfs = tracer.layer_metrics(ids)
        top = sorted(
            ((v, k[: -len(".self_s")]) for k, v in selfs.items() if k.endswith(".self_s")),
            reverse=True,
        )[:4]
        shares = ", ".join(f"{name} {v / total:.0%}" for v, name in top)
        lines.append(f"{metric}: {len(ids)} runs took {total:.4f} s in the last traced pass; {shares}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "limsketch" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'limsketch'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def measure(args, workdir: Path) -> int:
    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        seconds, cli, sketches, ops, digest = setup(args.workload, args.seed, workdir)
        setup_times.append(seconds)
        digests.add(digest)
    run = Run(cli, ops)
    if len(digests) != 1:
        run.wrong.append("instance generation is not deterministic for this seed")

    # A warm-up pass: it is gated and counted like any other, and records the
    # reference report digests, but its times are not used.
    run.one_pass()
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        timed = run.passes_for(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for name, value in timing_metrics(timed, ops).items():
            metrics[name] = (value, "s")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        from spans import Tracer

        # Untraced and traced passes alternate, so that a drift in the host's
        # speed falls on both halves of the overhead ratio alike.
        tracer = Tracer(importlib.import_module("limsketch.errors").BudgetExceeded)
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run.one_pass())
            tracer.install()
            try:
                traced.append(run.one_pass(tracer))
            finally:
                tracer.uninstall()
        timed = untraced
        overhead = timing_metrics(traced, ops)["wall_s"] / timing_metrics(untraced, ops)["wall_s"]
        keys = set().union(*run.layers)
        layer_medians = {k: statistics.median(m.get(k, 0.0) for m in run.layers) for k in keys}
        for name, unit in PER_LAYER:
            metrics[name] = (layer_medians.get(name, 0.0), unit)
        metrics["trace.overhead"] = (overhead, "ratio")

    # Untimed verification of the first pass's reports, after the peak RSS
    # of the timed passes has been read.
    problems = verify(run, sketches)
    run.wrong.extend(problems)
    run.failed += len(problems)
    if args.trace == 0:
        metrics["fail_ratio"] = (run.failed / run.attempted, "ratio")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "timed_passes": len(timed),
        "passes": len(run.passes),
        "ops_per_pass": len(ops),
    }
    print("run " + json.dumps(record, sort_keys=True))
    for op in ops:
        if op.edge:
            code, stdout, stderr = run.first[op.name]
            message = (stderr.strip() or stdout.strip()).splitlines()[-1:] or [""]
            print(f"edge {op.name}: exit {code}: {message[0]}")
    for problem in run.wrong:
        print(f"WRONG {problem}")
    label = "untraced" if args.trace else "timed"
    for name, value in timing_metrics(timed, ops).items():
        values = pass_totals(timed, ops, name)
        print(
            f"{name:<16} mean {value:.6f} s; per-pass totals over {len(values)} {label} passes: "
            f"median {statistics.median(values):.6f}, min {min(values):.6f}, "
            f"max {max(values):.6f}; {tail_note(values)}"
        )
    if args.trace == 1:
        for name, _ in PER_LAYER:
            layer = LAYER_OF[name]
            if name != "trace.overhead" and not layer_medians.get(f"{layer}.calls"):
                print(f"absent on {args.workload}: {name} (no timed operation calls {layer})")
        top = sorted(
            ((v, k[: -len(".self_s")]) for k, v in layer_medians.items() if k.endswith(".self_s")),
            reverse=True,
        )[:5]
        print("largest self time: " + ", ".join(f"{k} {v:.4f} s" for v, k in top))
        for line in command_shares(tracer, run.executed):
            print(line)
        spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path, [
            {"pass": n, "operation": op.name, "edge": op.edge} for n, op in run.executed
        ])
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
