"""The engine core is one module per layer, and the benchmark books each
class to the module it sits in.

``bench.tracing`` maps the classes under ``simulation/_core`` to their
layer by name (``SIMULATION_CLASS_LAYERS``) and books every module-level
function there to ``simulation.kernels``. These tests keep that map and the
files in step, so the map can become a map of files without moving a
class.
"""

import ast
from pathlib import Path

import repro
from bench.tracing import SIMULATION_CLASS_LAYERS

SRC = Path(repro.__file__).resolve().parent
CORE = SRC / "simulation" / "_core"
LAYER_MODULES = {
    "simulation.engine": "engine.py",
    "simulation.wheel": "wheel.py",
    "simulation.monitor": "monitor.py",
    "simulation.kernels": "kernels.py",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _classes():
    """``(class name, file name)`` of every class defined under ``_core``."""
    return sorted(
        (node.name, path.name)
        for path in CORE.glob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
    )


def test_every_core_class_sits_in_the_module_of_its_layer():
    placed = _classes()
    assert placed
    booked = [
        (name, LAYER_MODULES[SIMULATION_CLASS_LAYERS.get(name, "simulation.kernels")])
        for name, _ in placed
    ]
    assert placed == booked


def test_the_kernels_module_defines_no_class():
    assert [name for name, module in _classes() if module == "kernels.py"] == []


def test_the_core_package_holds_its_docstring_only():
    body = _tree(CORE / "__init__.py").body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant)
    assert "Determinism contract" in body[0].value.value
