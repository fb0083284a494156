"""Classic setuptools metadata, plus the opt-in mypyc engine build.

The offline reproduction environment has no `wheel` package, so PEP 517
editable installs fail; keeping everything in ``setup.py`` lets
``pip install -e .`` use the classic setuptools develop path and is the
single dependency manifest CI keys its pip cache on.

Compiled engine core
--------------------

``src/repro/simulation/_core/_pure.py`` is the single source of truth for
the engine inner loop. When ``REPRO_BUILD_EXT=1`` is set (and mypyc is
importable — ``pip install -e .[compiled]`` pulls it in), this script:

1. generates ``_compiled.py`` next to ``_pure.py`` — a mechanical copy
   with the ``__slots__`` declarations stripped (mypyc native classes
   neither need nor accept them), headed by a DO-NOT-EDIT banner;
2. compiles the copy with mypyc at ``-O3``.

Both twins stay importable side by side, which is what the parity suite
in ``tests/property/test_core_parity.py`` exercises. Without the env var
(or without mypyc) the build is pure-Python and nothing changes — the
pure fallback is a first-class configuration, not a degraded one. Build
by-products (``*.so``, the generated ``_compiled.py``, mypyc build dirs)
never enter sdists: see ``MANIFEST.in``.
"""

import os
import sys

from setuptools import find_packages, setup

_CORE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "src", "repro", "simulation", "_core")

_GENERATED_BANNER = (
    "# DO NOT EDIT: generated from _pure.py by setup.py (REPRO_BUILD_EXT=1)\n"
    "# for the mypyc build. Edit _pure.py instead; both twins share its text.\n"
)


def _strip_slots(source: str) -> str:
    """Drop ``__slots__ = (...)`` statements (single- or multi-line).

    mypyc native classes manage their own attribute storage; a
    ``__slots__`` declaration is at best redundant and at worst rejected,
    so the generated compiled twin goes without. Parenthesis balancing
    handles declarations wrapped over several lines.
    """
    out = []
    depth = 0
    for line in source.splitlines(keepends=True):
        if depth > 0:
            depth += line.count("(") - line.count(")")
            continue
        if line.lstrip().startswith("__slots__"):
            depth = line.count("(") - line.count(")")
            continue
        out.append(line)
    return "".join(out)


def _build_ext_modules():
    """Return the mypyc ext_modules list, or [] for a pure build."""
    if os.environ.get("REPRO_BUILD_EXT", "0") != "1":
        return []
    try:
        from mypyc.build import mypycify
    except ImportError:
        sys.stderr.write(
            "warning: REPRO_BUILD_EXT=1 but mypyc is not importable; "
            "building pure-Python (pip install -e .[compiled] to get mypyc)\n"
        )
        return []
    pure_path = os.path.join(_CORE_DIR, "_pure.py")
    compiled_path = os.path.join(_CORE_DIR, "_compiled.py")
    with open(pure_path, encoding="utf-8") as handle:
        source = handle.read()
    generated = _GENERATED_BANNER + _strip_slots(source)
    # Only rewrite on change so repeated builds stay incremental.
    previous = None
    if os.path.exists(compiled_path):
        with open(compiled_path, encoding="utf-8") as handle:
            previous = handle.read()
    if generated != previous:
        with open(compiled_path, "w", encoding="utf-8") as handle:
            handle.write(generated)
    return mypycify(["--ignore-missing-imports", compiled_path], opt_level="3")


setup(
    name="repro-fabric-gossip",
    version="1.0.0",  # keep in lockstep with repro.__version__
    description=(
        "Reproduction of 'Fair and Efficient Gossip in Hyperledger Fabric' "
        "(ICDCS 2020): deterministic simulator, scenario subsystem, "
        "experiment harness"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={
        "repro.perf": ["golden_metrics.json"],
        "repro.net": ["data/*.json"],
    },
    python_requires=">=3.9",
    extras_require={"compiled": ["mypy>=1.8"]},
    ext_modules=_build_ext_modules(),
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.cli:main",
        ],
    },
)
