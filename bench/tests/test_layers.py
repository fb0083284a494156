"""The layer map covers the simulator and the traced pass adds up."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest
import repro

from bench import tracing
from bench.tests.tiny import tiny_rep
from bench.tracing import LAYERS, Sampler, layer_of, outermost_names

SOURCE_ROOT = Path(repro.__file__).resolve().parent


# Every directory under src/repro when the benchmark was written. A package
# added later lands in ``other`` by design, so this test never blocks one.
DIRECTORY_LAYER = {
    "analysis": "other", "crypto": "crypto", "experiments": "experiments",
    "fabric": "fabric", "faults": "faults", "gossip": "gossip", "ledger": "ledger",
    "metrics": "metrics", "net": "net", "perf": "other", "scenarios": "scenarios",
}


def test_every_directory_maps_to_its_layer():
    present = {entry.name for entry in os.scandir(SOURCE_ROOT) if entry.is_dir()}
    assert present & set(DIRECTORY_LAYER), "src/repro has none of the known packages"
    for name in present & set(DIRECTORY_LAYER):
        assert layer_of(f"{name}/module.py", "f") == DIRECTORY_LAYER[name]
    assert set(DIRECTORY_LAYER.values()) <= set(LAYERS)


def test_simulation_is_split_by_file_and_core_by_class():
    core = "simulation/_core/_pure.py"
    assert layer_of(core, "Simulator") == "simulation.engine"
    assert layer_of(core, "EventHandle") == "simulation.engine"
    assert layer_of(core, "TimerWheel") == "simulation.wheel"
    assert layer_of(core, "TrafficMonitor") == "simulation.monitor"
    assert layer_of(core, "make_lan_sampler") == "simulation.kernels"
    assert layer_of(core, "link_enqueue") == "simulation.kernels"
    assert layer_of("simulation/random.py", "RandomStreams") == "simulation.random"
    assert layer_of("simulation/sharded.py", "WindowedCoordinator") == "simulation.sharded"
    assert layer_of("simulation/timers.py", "PeriodicTimer") == "simulation.wheel"
    assert layer_of("net/network.py", "Network") == "net"
    assert layer_of("simulation/brand_new.py", "f") == "simulation.engine"
    assert layer_of("brand_new_package/module.py", "f") == "other"
    assert layer_of("__init__.py", "<module>") == "other"


def code_objects(code):
    yield code
    for constant in code.co_consts:
        if hasattr(constant, "co_firstlineno"):
            yield from code_objects(constant)


def test_source_names_agree_with_qualified_names():
    """Before Python 3.11 the sampler reads a code object's enclosing class
    from the source; that must be what ``co_qualname`` says where it exists."""
    for path in (SOURCE_ROOT / "simulation" / "_core").glob("*.py"):
        source = path.read_text()
        names = outermost_names(source)
        codes = list(code_objects(compile(source, str(path), "exec")))
        found = {names.get(code.co_firstlineno, code.co_name) for code in codes}
        if path.name == "_pure.py":
            assert {"Simulator", "TimerWheel", "TrafficMonitor", "link_enqueue"} <= found
        if tracing.HAS_QUALNAME:
            for code in codes:
                expected = code.co_qualname.split(".", 1)[0]
                assert names.get(code.co_firstlineno, code.co_name) == expected, code


def assert_adds_up(rep, cpu_seconds):
    layers = rep["layers"]
    spans = [layers[f"experiments.{phase}_s"] for phase in ("import", "build", "start", "loop")]
    assert sum(spans) + layers["metrics.report_s"] == pytest.approx(rep["wall_s"], rel=0.02)
    assert sum(spans[:3]) == pytest.approx(rep["setup_s"], rel=0.02)
    setup_self = sum(layers[f"{layer}.setup_self_s"] for layer in LAYERS)
    loop_self = sum(layers[f"{layer}.loop_self_s"] for layer in LAYERS)
    assert loop_self == pytest.approx(spans[3], rel=0.01)
    assert setup_self == pytest.approx(sum(spans[:3]), rel=0.01)
    # One sample per INTERVAL of CPU time, however fast the host is; a few
    # land in the benchmark's own frames whatever the run's length.
    samples = layers["trace.samples"]
    assert samples >= 0.5 * cpu_seconds / Sampler.INTERVAL
    assert layers["trace.unmapped_frac"] * samples <= max(3, 0.02 * samples)
    assert layers["simulation.engine.loop_self_s"] > 0
    assert layers["simulation.monitor.loop_self_s"] > 0
    assert layers["simulation.kernels.loop_self_s"] > 0


def test_traced_pass_adds_up():
    began = time.process_time()
    rep = tiny_rep("small-wan", trace=True)
    assert_adds_up(rep, time.process_time() - began)
    layers = rep["layers"]
    # Counting wrappers saw the traffic the monitor recorded.
    copies = (layers["net.send.calls"] + layers["net.multicast.copies"]
              + layers["net.aggregate.copies"])
    assert copies >= layers["simulation.monitor.messages"] > 0
    assert 0 < layers["gossip.payload_efficiency"] <= 1


def test_traced_pass_adds_up_without_qualified_names(monkeypatch):
    """The path Python 3.9 and 3.10 take, on any Python."""
    monkeypatch.setattr(tracing, "HAS_QUALNAME", False)
    began = time.process_time()
    rep = tiny_rep("small-wan", trace=True)
    assert_adds_up(rep, time.process_time() - began)
