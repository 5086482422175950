"""Reachability gate: every executable line of src/isoedf must run under the suites.

Runs the `tests` and `perfbench` suites in this process under the stdlib
`trace` module, with `threading.settrace` set to the tracer's
`globaltrace` so that run_mc's worker threads count too, then subtracts
the lines hit from each module's executable lines (line 0, a module's own
entry, is dropped).  Two constructs are left out, matched in the syntax
tree rather than by line number: the body of `cli.main`'s
`except BrokenPipeError` handler, which only a reader that closes the pipe
reaches (a subprocess test covers it), and the body of the
`if __name__ == "__main__"` guard.  Every other unreached line is printed
as path:line, and the exit status is 1 if there is one, or if the suites
fail.  pytest does not collect this file; run it from anywhere with

    python tests/reachability.py [extra pytest arguments]

It takes about a minute and a half on two CPUs.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isoedf"


def excused(path: Path) -> set[int]:
    """Lines of the BrokenPipeError handler in cli.main and of the __main__ guard's body."""
    tree = ast.parse(path.read_text())
    bodies = [
        node.body
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    if path.name == "cli.py":
        main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        bodies += [
            node.body
            for node in ast.walk(main)
            if isinstance(node, ast.ExceptHandler)
            and isinstance(node.type, ast.Name)
            and node.type.id == "BrokenPipeError"
        ]
    return {line for body in bodies for s in body for line in range(s.lineno, s.end_lineno + 1)}


def unreached(counts: dict) -> list[str]:
    """path:line of every executable, unexcused line of the package that no count holds."""
    hit = {(Path(f).resolve(), line) for f, line in counts}
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = set(trace._find_executable_linenos(str(path))) - {0} - excused(path)
        name = path.relative_to(ROOT)
        missed += [f"{name}:{line}" for line in sorted(lines) if (path, line) not in hit]
    return missed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    # the package under src/, for this process and the suites' subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # no ignoredirs: trace caches that choice per module base name, so a
    # site-packages __init__.py would hide the package's own
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)
    try:
        args = ["-q", "-p", "no:cacheprovider", "tests", "perfbench", *argv]
        status = tracer.runfunc(pytest.main, args)
    finally:
        threading.settrace(None)
    imported = Path(sys.modules["isoedf"].__file__).resolve().parent
    if imported != PACKAGE:
        print(f"the suites imported isoedf from {imported}, not {PACKAGE}")
        return 1
    missed = unreached(tracer.results().counts)
    print(f"{len(missed)} executable lines of src/isoedf unreached", *missed, sep="\n")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
