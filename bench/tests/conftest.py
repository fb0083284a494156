"""Shared fixtures of the benchmark's own tests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
