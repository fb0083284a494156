"""What ``import repro`` imports.

Every import in a package ``__init__.py`` is used or re-exported. This is
pyflakes' F401 rule restricted to the package modules, which ``ruff.toml``
no longer exempts: a re-exported name must be listed in ``__all__`` (which
counts as a use), and any other import must be read by the module itself.
It keeps the rule checked where ruff is not installed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_init_modules_import_only_what_they_use_or_export():
    inits = sorted(SRC.glob("repro/**/__init__.py"))
    assert SRC / "repro" / "simulation" / "_core" / "__init__.py" in inits
    unused = []
    for path in inits:
        tree = ast.parse(path.read_text(), filename=str(path))
        kept = _exported(tree) | _read_names(tree)
        unused += [
            f"{path.relative_to(SRC)}: {name}" for name in _bound_names(tree) if name not in kept
        ]
    assert unused == []


def test_importing_repro_loads_no_multiprocessing():
    """``multiprocessing`` is imported where a process starts (the sharded
    runner's processes mode, a sweep's pool), so a single-process run does
    not load it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import repro, sys; print('multiprocessing' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
