"""tools/linetrace.py's core on a small module: the lines a run leaves
unexecuted, and nothing else, are reported."""

import importlib
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "linetrace", Path(__file__).resolve().parent.parent / "tools" / "linetrace.py"
)
linetrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linetrace)

SAMPLE = '''\
import os


def pick(x):
    if x > 0:
        return "positive"
    return "other"


class Box:
    size = 1

    def items(self):
        return [
            i
            for i in range(2)
        ]
'''


def test_unrun_lines_of_a_package(tmp_path, monkeypatch):
    package = tmp_path / "tracedpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "sample.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))

    def run():
        sample = importlib.import_module("tracedpkg.sample")
        sample.pick(1)
        sample.Box().items()

    lines = {1, 4, 5, 6, 7, 10, 11, 13, 14, 15, 16}
    assert linetrace.executable_lines(package / "sample.py") == lines
    assert linetrace.unrun_lines(run, package) == {"tracedpkg": [], "tracedpkg.sample": [7]}


def test_a_trace_inside_another_puts_the_outer_one_back(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("x = 1\n")
    code = compile(module.read_text(), str(module), "exec")
    inner = []

    def run():
        inner.append(linetrace.run_traced(lambda: exec(code, {}), [module]))
        exec(code, {})  # seen by the outer trace only once the inner one is gone

    assert linetrace.run_traced(run, [module]) == {module: {1}}
    assert inner == [{module: {1}}]


def test_newly_unrun_lines_match_on_module_and_text(tmp_path):
    package = tmp_path / "tracedpkg"
    package.mkdir()
    (package / "__init__.py").write_text("x = 1\n")
    (package / "sample.py").write_text(SAMPLE)
    known = {"tracedpkg.sample": [{"text": 'return "other"', "reason": "pick(x) is run with x > 0 only"}]}
    report = {"tracedpkg": [], "tracedpkg.sample": [7]}
    assert linetrace.newly_unrun(report, package, known) == []

    # lines added above move the listed line; it still matches on its text
    (package / "sample.py").write_text("# a comment\n\n" + SAMPLE)
    assert linetrace.newly_unrun({"tracedpkg.sample": [9]}, package, known) == []

    # a second unrun copy of a listed text, and a line not listed at all
    report = {"tracedpkg": [1], "tracedpkg.sample": [8, 9]}
    assert linetrace.newly_unrun(report, package, known) == [
        "tracedpkg:1: x = 1",
        'tracedpkg.sample:8: return "positive"',
    ]
    assert linetrace.newly_unrun({"tracedpkg.sample": [9, 9]}, package, known) == [
        'tracedpkg.sample:9: return "other"'
    ]
