#!/usr/bin/env python
"""Which functions under ``src/repro`` no run enters.

Arms a ``sys.setprofile`` tracer before ``import repro``, then drives
everything a user can run, all in this one process:

* every registered scenario at its first seed, single-process and
  ``run_scenario_sharded(shards=2, mode="inline")``;
* the CLI: ``list``, ``analysis``, ``table2``, ``scaling``,
  ``streamchain``, ``sweep <scenario> --seeds 2 --jobs 1``, ``run
  <scenario> --mode inline --shards 2`` and ``run <scenario>``, then
  ``figure`` for every figure id;
* every script in ``examples/`` (a ``SweepRunner`` there runs with
  ``jobs=1``);
* ``scripts/perf_gate.py``.

No worker process is started, so code that only a worker runs reads as
never entered. Every ``def`` under ``src/repro`` is counted, keyed by its
first line (its first decorator's, which is what a code object's
``co_firstlineno`` names); a never-entered function nested in another
never-entered one is counted, and its lines, only once, inside its
parent. Prints the never-entered functions by file, then ``functions /
never entered / lines``. Takes several minutes.

``scripts/never_entered.txt`` is the committed listing, one ``file:
function`` per line without line numbers; CI reruns this script and
diffs its listing against that file, so a change that leaves a function
unentered (or enters one) updates the file in the same commit.

Usage::

    python scripts/never_entered.py
    python scripts/never_entered.py \
        | awk '/^  / { print file ": " $2; next } !/^functions/ { file = $1 }' \
        | diff scripts/never_entered.txt -
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import threading
from typing import Dict, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

_entered: Set[object] = set()


def _profile(frame, event, arg) -> None:
    if event == "call":
        _entered.add(frame.f_code)


def _quietly(run, *args) -> None:
    """``run(*args)`` with its output swallowed; a SystemExit is a return."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            run(*args)
        except SystemExit as stop:
            if stop.code not in (None, 0):
                raise RuntimeError(f"{run.__name__}{args} exited with {stop.code}") from None


def _run_script(path: str) -> None:
    argv = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv


def drive() -> None:
    """Run everything the module docstring lists."""
    from repro.experiments import cli
    from repro.experiments.figures import FIGURE_CONFIGS
    from repro.scenarios import run_scenario, run_scenario_sharded, scenario_names
    from repro.scenarios import sweep

    names = scenario_names()
    for name in names:
        run_scenario(name).snapshot()
        run_scenario_sharded(name, shards=2, mode="inline").snapshot()
        print(f"scenario {name}", file=sys.stderr, flush=True)
    scenario = names[0]
    commands: List[List[str]] = [
        ["list"],
        ["analysis"],
        ["table2"],
        ["scaling"],
        ["streamchain"],
        ["sweep", scenario, "--seeds", "2", "--jobs", "1"],
        ["run", scenario, "--mode", "inline", "--shards", "2"],
        ["run", scenario],
    ]
    commands += [["figure", figure_id] for figure_id in FIGURE_CONFIGS]
    for argv in commands:
        _quietly(cli.main, argv)
        print(f"cli {' '.join(argv)}", file=sys.stderr, flush=True)

    init = sweep.SweepRunner.__init__

    def one_job(self, *args, **kwargs):
        init(self, *args, **{**kwargs, "jobs": 1})

    sweep.SweepRunner.__init__ = one_job
    try:
        examples = os.path.join(REPO_ROOT, "examples")
        for script in sorted(os.listdir(examples)):
            if script.endswith(".py"):
                _quietly(_run_script, os.path.join(examples, script))
                print(f"example {script}", file=sys.stderr, flush=True)
    finally:
        sweep.SweepRunner.__init__ = init
    _quietly(_run_script, os.path.join(REPO_ROOT, "scripts", "perf_gate.py"))
    print("perf_gate.py", file=sys.stderr, flush=True)


def never_entered(entered: Set[Tuple[str, int]]) -> Tuple[int, Dict[str, List[Tuple[int, str, int]]]]:
    """``(functions, {file: [(first line, name, lines)]})`` over every
    ``def`` under ``src/repro``, the outermost never-entered ones listed."""
    functions = 0
    found: Dict[str, List[Tuple[int, str, int]]] = {}
    for folder, _, files in os.walk(PACKAGE):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            rows: List[Tuple[int, str, int]] = []

            def visit(node, qualname: str, inside_missed: bool) -> None:
                nonlocal functions
                for child in ast.iter_child_nodes(node):
                    name = qualname
                    missed = inside_missed
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        functions += 1
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        name = f"{qualname}{child.name}"
                        if (path, first) not in entered and not inside_missed:
                            rows.append((first, name, child.end_lineno - first + 1))
                            missed = True
                        name += "."
                    elif isinstance(child, ast.ClassDef):
                        name = f"{qualname}{child.name}."
                    visit(child, name, missed)

            visit(tree, "", False)
            if rows:
                found[os.path.relpath(path, REPO_ROOT)] = rows
    return functions, found


def main() -> int:
    sys.path.insert(0, SRC)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    try:
        import repro  # noqa: F401 - traced from its first line

        drive()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = {(code.co_filename, code.co_firstlineno) for code in _entered}
    functions, found = never_entered(entered)
    missed = lines = 0
    for path in sorted(found):
        print(path)
        for first, name, length in found[path]:
            print(f"  {first:5d}  {name}  ({length} lines)")
            missed += 1
            lines += length
    print(f"functions / never entered / lines: {functions} / {missed} / {lines}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
