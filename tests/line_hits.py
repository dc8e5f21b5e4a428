"""Run the suite in process under a line tracer and list the ``src/limsketch`` lines it never runs.

From the repository root::

    PYTHONPATH=src python -m tests.line_hits SUMMARY.md

The tracer is installed before pytest is imported, so module-level lines
run at import count too.  It traces only frames whose code lies in
``src/limsketch``.  A module's executable lines are the line numbers
that ``co_lines()`` names in its compiled code objects, recursively.  A
markdown table of the lines never run, per module, is appended to
SUMMARY.md, and the exit status is pytest's.  A CLI test that runs the
program in a subprocess is not traced, so a line only it reaches counts
as not run.  Any other argument list, or an argument that starts with
``-`` (such as ``--help``), prints the usage line to stderr and exits 2
without running the suite or writing a file.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parents[1] / "src" / "limsketch"

hits: dict[str, set[int]] = {}
_traced: dict[str, bool] = {}


def _line(frame, event, arg):
    """The local tracer: records each line a traced frame runs."""
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    """The global tracer: traces a frame whose code lies in ``SRC``, from the line it starts at."""
    name = frame.f_code.co_filename
    if name not in _traced:
        _traced[name] = Path(name).resolve().parent == SRC
    if not _traced[name]:
        return None
    hits.setdefault(name, set()).add(frame.f_lineno)
    return _line


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, ``120-122`` for three in a row."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def table() -> str:
    """The markdown table of each module's executable lines that no traced frame ran."""
    ran: dict[Path, set[int]] = {}
    for name, lines in hits.items():
        ran.setdefault(Path(name).resolve(), set()).update(lines)
    rows = [
        "### `src/limsketch` lines that no test runs in process",
        "",
        "Lines reached only in CLI subprocesses count as not run.",
        "",
        "| module | not run | lines |",
        "|---|---:|---|",
    ]
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(executable_lines(code) - ran.get(path, set()))
        rows.append(f"| {path.name} | {len(missed)} | {spans(missed)} |")
    return "\n".join(rows) + "\n"


USAGE = "usage: python -m tests.line_hits SUMMARY.md"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    (summary,) = argv
    sys.settrace(_call)
    try:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    with open(summary, "a", encoding="utf-8") as out:
        out.write(table())
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
