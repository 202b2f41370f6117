"""Line trace: the executable lines of src/paircert that tier-1 never runs.

Run from anywhere, with the interpreter that runs the tests:

    python tools/linetrace.py [--out FILE] [--against tools/unrun.json] [-- PYTEST_ARGS...]

It runs the tier-1 suite (tests/, or PYTEST_ARGS) in this process under
sys.settrace and writes JSON {module: [executable lines never run]} for
every module of src/paircert to FILE. A line is executable when some code
object compiled from the file starts a line there. The
package must not be imported before the trace starts, or its module-level
lines count as unrun; this script imports it only through the tests.
Tracing every line makes the suite several times slower, so this is a tool
to run by hand, not a part of tier-1 (stdlib only, plus pytest).

With --against, the unrun lines are compared with a list of the lines
known to stay unrun, {module: [{"text": stripped line, "reason": why}]},
and the exit status is 1 when some line is newly unrun; each such line is
named on stderr. Lines match on their module and stripped text, counted,
so an edit above a listed line does not move it off the list.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import types
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path: Path) -> set[int]:
    """The lines at which some code object compiled from path starts one."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(run: Callable[[], object], files: Iterable[Path]) -> dict[Path, set[int]]:
    """Runs run() under a line trace; returns the lines it executed in each
    of files (keyed as given), in every thread that the run starts. The
    trace functions in place before are put back afterwards, so a trace can
    run inside another; the outer one misses only the inner run's lines."""
    executed = {Path(os.path.realpath(f)): set() for f in files}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its set, or None

    def lines_of(code) -> set[int] | None:
        name = code.co_filename
        try:
            return by_name[name]
        except KeyError:
            by_name[name] = executed.get(Path(os.path.realpath(name)))
            return by_name[name]

    def on_line(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code).add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if lines_of(frame.f_code) is not None else None

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return {f: executed[Path(os.path.realpath(f))] for f in files}


def modules(package: Path) -> dict[str, Path]:
    """{module: its file} for each module of the package directory, named
    as imported from its parent."""
    out = {}
    for f in sorted(package.rglob("*.py")):
        parts = f.relative_to(package.parent).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = f
    return out


def unrun_lines(run: Callable[[], object], package: Path) -> dict[str, list[int]]:
    """{module: executable lines that run() never executes} for each module
    of the package directory (see modules)."""
    files = modules(package)
    executed = run_traced(run, files.values())
    return {module: sorted(executable_lines(f) - executed[f]) for module, f in files.items()}


def newly_unrun(report: dict[str, list[int]], package: Path, known: dict[str, list[dict]]) -> list[str]:
    """"module:line: text" for each unrun line of report (as unrun_lines
    gives it for package) past the count of its (module, stripped text) in
    known."""
    budget = Counter((module, entry["text"]) for module, entries in known.items() for entry in entries)
    files = modules(package)
    out = []
    for module, lines in report.items():
        texts = files[module].read_text().splitlines()
        for line in lines:
            text = texts[line - 1].strip()
            if budget[module, text] > 0:
                budget[module, text] -= 1
            else:
                out.append(f"{module}:{line}: {text}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here")
    parser.add_argument("--against", help="fail on a line not listed in this JSON (tools/unrun.json)")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest (default: tier-1)")
    args = parser.parse_args(argv)

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    pytest_args = args.pytest_args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status = []
    package = ROOT / "src" / "paircert"
    report = unrun_lines(lambda: status.append(pytest.main(pytest_args)), package)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    total = sum(map(len, report.values()))
    print(
        f"linetrace: {total} unrun lines in {len(report)} modules; pytest exit {status[0]}",
        file=sys.stderr,
    )
    if args.against:
        new = newly_unrun(report, package, json.loads(Path(args.against).read_text()))
        for entry in new:
            print(f"linetrace: newly unrun {entry}", file=sys.stderr)
        if new:
            return 1
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
