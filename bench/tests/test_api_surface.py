"""The benchmark pins only the package-level names README.md lists.

A later refactor may move or rename anything else without touching the
benchmark; this test says exactly which names it may not.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def pinned_names() -> dict:
    text = (BENCH / "README.md").read_text()
    section = text.split("<!-- pinned-api:start -->")[1].split("<!-- pinned-api:end -->")[0]
    pinned = {}
    for line in section.splitlines():
        match = re.match(r"- `(repro[\w.]*)`: (.*)", line)
        if match:
            pinned[match.group(1)] = set(re.findall(r"`(\w+)`", match.group(2)))
    return pinned


def repro_imports():
    """(file, module, name) of every import of simulator code under bench/."""
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path.name, alias.name, None


def test_pinned_names_resolve():
    pinned = pinned_names()
    assert pinned, "README.md lists no pinned names"
    for package, names in pinned.items():
        assert package.count(".") <= 1, f"{package} is not a package-level module"
        module = importlib.import_module(package)
        for name in names:
            assert hasattr(module, name), f"{package}.{name}"


def test_benchmark_imports_only_pinned_names():
    pinned = pinned_names()
    used = {}
    for filename, module, name in repro_imports():
        assert module.count(".") <= 1, f"{filename} imports submodule {module}"
        if name is None:
            assert module == "repro", f"{filename}: import {module}"
            continue
        assert name in pinned.get(module, ()), f"{filename}: {module}.{name} is not pinned"
        used.setdefault(module, set()).add(name)
    assert used == pinned, "README.md pins names the benchmark does not import"
