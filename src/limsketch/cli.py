"""Batch front end: check models, run reflections, compare, verify universality.

Exit codes are a stable contract: 0 success, 1 negative verdict, 2 input
error, 3 budget exhausted or exceeded, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

from . import compare as compare_mod
from . import elim, kelly, universal
from .errors import EngineError, InputError
from .fincat import check_document, read_json, write_report
from .setops import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_STAGE_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    NatTransSpec,
    SetPresentation,
    presentation_from_json_dict,
)
from .sketchlib import (
    BUILDERS,
    LimitSketch,
    build_sketch,
    builder_names,
    is_model,
    sketch_from_json_dict,
    sketch_to_json_dict,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 3


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return read_json(text, path)


def _load(path: str, loader, **kwargs):
    """``loader`` applied to the JSON document at ``path``; its faults name the file."""
    data = _read_json(path)
    try:
        return loader(data, **kwargs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


@functools.cache
def _builtin(name: str) -> LimitSketch:
    """The built-in sketch ``name``, built on first use and shared by later commands.

    No engine changes a sketch.  ``build_sketch`` still returns a fresh one.
    """
    return build_sketch(name)


def _load_sketch(source: str) -> LimitSketch:
    """A sketch argument is either a builder name or a JSON file path."""
    if source in BUILDERS:
        return _builtin(source)
    return _load(source, sketch_from_json_dict, name=source)


def _resolve_category(name: str):
    if name in BUILDERS:
        return _builtin(name).base
    return None


def _load_presentation(path: str, sketch: LimitSketch) -> SetPresentation:
    return _load(
        path, presentation_from_json_dict, base=sketch.base, resolve_category=_resolve_category
    )


TRANSFORMATION_SCHEMA = {"components": {"*": {"*": str}}}


def _nat_trans_from_json_dict(
    data: dict, source: SetPresentation, target: SetPresentation
) -> NatTransSpec:
    check_document(data, TRANSFORMATION_SCHEMA)
    nat = NatTransSpec(source, target, {o: dict(m) for o, m in data["components"].items()})
    for obj in source.base.objects:
        nat.components.setdefault(obj, {})
    report = nat.validate()
    if not report.ok:
        raise InputError(f"invalid transformation: {report.violations[0]}")
    return nat


# numeric flags that bound stages or work; each must be >= 0
_COUNT_FLAGS = ("budget", "max_tuples", "max_elements")


def _check_counts(args: argparse.Namespace) -> None:
    for dest in _COUNT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise InputError(f"--{dest.replace('_', '-')} must be >= 0, got {value}")


def _caps(args: argparse.Namespace) -> dict[str, int]:
    """The keyword caps of a staged command's engine calls: its ``_COUNT_FLAGS`` values."""
    return {dest: getattr(args, dest) for dest in _COUNT_FLAGS}


def _size_line(size: dict[str, int]) -> str:
    return " ".join(f"{o}={n}" for o, n in size.items())


def _sink(out: str | None):
    """The report's destination: the file ``out``, or stdout."""
    try:
        return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _emit(payload: object, out: str | None) -> None:
    """Write the JSON report of ``payload`` to ``out`` as it is encoded."""
    with _sink(out) as sink:
        write_report(payload, sink)


def cmd_check(args: argparse.Namespace) -> int:
    sketch = _load_sketch(args.sketch)
    pres = _load_presentation(args.presentation, sketch)
    report = is_model(pres, sketch, max_tuples=args.max_tuples)
    if args.format == "json":
        _emit(report.to_json_dict(), args.out)
    else:
        lines = []
        for check in report.checks:
            status = "ok" if check.ok else "FAIL"
            lines.append(
                f"cone {check.cone}: {status} "
                f"(injective={str(check.injective).lower()} "
                f"surjective={str(check.surjective).lower()})"
            )
            if check.injectivity_witness:
                lines.append(f"  merged pair: {check.injectivity_witness}")
            if check.unhit_tuple is not None:
                lines.append(f"  unhit tuple: {check.unhit_tuple}")
        lines.append(f"model: {str(report.is_model).lower()}")
        with _sink(args.out) as sink:
            sink.write("\n".join(lines) + "\n")
    return EXIT_OK if report.is_model else EXIT_NEGATIVE


def cmd_reflect(args: argparse.Namespace) -> int:
    sketch = _load_sketch(args.sketch)
    pres = _load_presentation(args.presentation, sketch)
    if args.engine == "elim":
        trace = elim.reflect_elim(pres, sketch, mode=args.mode, **_caps(args))
        sizes = [st.total.size() for st in trace.stages]
    else:
        trace = kelly.reflect_kelly(pres, sketch, **_caps(args))
        sizes = [step.obj.size() for step in trace.stages]
    _emit(trace.to_json_dict(), args.out)
    for index, size in enumerate(sizes):
        print(f"stage {index}: {_size_line(size)}")
    if trace.converged:
        core_sizes = _size_line(trace.core.size())
        print(f"converged at stage {trace.converged_at}; core sizes: {core_sizes}")
        return EXIT_OK
    print("budget exhausted before convergence")
    return EXIT_BUDGET


def cmd_compare(args: argparse.Namespace) -> int:
    sketch = _load_sketch(args.sketch)
    pres = _load_presentation(args.presentation, sketch)
    caps = _caps(args)
    faithful = elim.reflect_elim(pres, sketch, mode=elim.FAITHFUL, **caps)
    # the completion stages run past convergence to line up with the faithful ones
    kelly_trace = kelly.reflect_kelly(pres, sketch, stop_on_convergence=False, **caps)
    alpha = compare_mod.build_alpha(faithful, kelly_trace, sketch)
    elim_conv = faithful
    if not faithful.converged:
        elim_conv = elim.reflect_elim(pres, sketch, mode=elim.PRUNED, **caps)
    if not elim_conv.converged or not kelly_trace.converged:
        print("budget exhausted before both constructions converged")
        return EXIT_BUDGET
    iso = compare_mod.reflector_iso_check(elim_conv, kelly_trace, sketch)
    # the report lists only alpha's maps; let the traces go before writing it
    del faithful, kelly_trace, elim_conv
    _emit(compare_mod.comparison_to_json_dict(alpha, iso), args.out)
    print(f"alpha squares: {'pass' if alpha.ok else 'FAIL'}")
    print(f"reflector isomorphism: {'verified' if iso.ok else 'FAIL'}")
    return EXIT_OK if alpha.ok and iso.ok else EXIT_NEGATIVE


def cmd_universal(args: argparse.Namespace) -> int:
    sketch = _load_sketch(args.sketch)
    pres = _load_presentation(args.presentation, sketch)
    model = _load_presentation(args.model, sketch)
    f = _load(args.map, _nat_trans_from_json_dict, source=pres, target=model)
    trace = elim.reflect_elim(pres, sketch, mode=elim.PRUNED, **_caps(args))
    if not trace.converged:
        print("budget exhausted before convergence")
        return EXIT_BUDGET
    g = universal.solve_factorisation(trace.rho, f, model, sketch, max_tuples=args.max_tuples)
    space = universal.check_uniqueness(g)
    _emit(universal.universal_to_json_dict(space), args.out)
    print("factorisation exists and commutes: true")
    print(f"uniqueness: unique (search space {space})")
    return EXIT_OK


def cmd_builders(args: argparse.Namespace) -> int:
    if args.action == "list":
        if args.name is not None:
            raise InputError(f"builders list takes no builder name, got {args.name!r}")
        with _sink(args.out) as sink:
            sink.write("".join(f"{name}\n" for name in builder_names()))
        return EXIT_OK
    if not args.name:
        raise InputError("builders emit needs a builder name")
    sketch = _builtin(args.name)
    _emit(sketch_to_json_dict(sketch), args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, staged: bool = True) -> None:
    """The flags of a command on a sketch and a presentation; ``staged`` adds the stage caps."""
    parser.add_argument("--sketch", required=True, help="sketch JSON file or builder name")
    parser.add_argument("--presentation", required=True, help="presentation JSON file")
    if staged:
        parser.add_argument("--budget", type=int, default=DEFAULT_STAGE_BUDGET, help="stage budget")
        parser.add_argument(
            "--max-elements", type=int, default=DEFAULT_ELEMENT_CAP, dest="max_elements"
        )
    parser.add_argument(
        "--max-tuples", type=int, default=DEFAULT_TUPLE_BUDGET, dest="max_tuples"
    )
    parser.add_argument("--out", default=None, help="write the report to this path")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limsketch",
        description="Reflect set-valued presentations into models of a limit sketch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags match in full only: an abbreviation would take a removed flag for another
    # (``universal --mode`` for ``--model``)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)
    p_check = add_parser("check", help="is the presentation a model?")
    _add_common(p_check, staged=False)
    p_check.add_argument("--format", choices=["json", "text"], default="json")
    p_check.set_defaults(func=cmd_check)

    p_reflect = add_parser("reflect", help="run a reflection to convergence")
    _add_common(p_reflect)
    p_reflect.add_argument("--engine", choices=["elim", "kelly"], default="elim")
    p_reflect.add_argument(
        "--mode", choices=[elim.FAITHFUL, elim.PRUNED], default=elim.PRUNED
    )
    p_reflect.set_defaults(func=cmd_reflect)

    p_compare = add_parser("compare", help="stage comparison and reflector isomorphism")
    _add_common(p_compare)
    p_compare.set_defaults(func=cmd_compare, budget=3)

    p_universal = add_parser("universal", help="factorisation and uniqueness check")
    _add_common(p_universal)
    p_universal.add_argument("--model", required=True, help="model presentation JSON file")
    p_universal.add_argument("--map", required=True, help="transformation JSON file")
    p_universal.set_defaults(func=cmd_universal)

    p_builders = add_parser("builders", help="list or emit built-in sketches")
    p_builders.add_argument("action", choices=["list", "emit"])
    p_builders.add_argument("name", nargs="?", default=None)
    p_builders.add_argument("--out", default=None)
    p_builders.set_defaults(func=cmd_builders)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``: built by ``make_parser`` on the first call, then reused.

    argparse reads ``sys.stdout``, ``sys.stderr`` and the terminal width when
    it prints, not when it is built, so reuse changes no output. Each
    subcommand's ``func`` default binds its ``cmd_*`` function at that first
    build: a patch of ``cli.cmd_*`` reaches ``main`` only after
    ``_parser.cache_clear()`` (no test or bench wrapper patches them).
    """
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except EngineError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
