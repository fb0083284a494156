"""Classic setuptools metadata.

The offline reproduction environment has no `wheel` package, so PEP 517
editable installs fail; keeping everything in ``setup.py`` lets
``pip install -e .`` use the classic setuptools develop path and is the
single dependency manifest CI keys its pip cache on.
"""

from setuptools import find_packages, setup

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
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.cli:main",
        ],
    },
)
