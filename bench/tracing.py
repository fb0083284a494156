"""Measuring layers from outside: phase marks, a sampling profiler and
counting wrappers on the public send paths.

Nothing here edits the simulator. Every hook is a class-level wrapper on a
public class (``Network``, ``FabricNetwork``, ``Simulator``) installed for
one run and removed afterwards:

* ``PhaseClock`` splits a run into import / build / start / loop / report
  at the first ``Network()`` construction, the first
  ``FabricNetwork.start()`` and the first ``Simulator.run()`` /
  ``run_window()``. Only the last mark is armed when tracing is off (it
  defines ``setup_s``); ``run`` is entered once per simulated second or
  window, never per event, so the wrapper costs nothing measurable.
* ``Sampler`` is an ``ITIMER_PROF`` signal handler that walks the stack to
  the innermost frame under ``src/repro``, maps it to a layer and counts it
  under the current phase. cProfile was rejected: 2.85x overhead, biased
  toward call-heavy layers.
* ``SendCounters`` counts calls, copies, block-carrying copies and
  inclusive time on ``Network.send`` / ``multicast`` / ``send_aggregate``.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import signal
import time
from pathlib import Path
from typing import Dict, List, Optional

PHASES = ("import", "build", "start", "loop", "report")
IMPORT, BUILD, START, LOOP, REPORT = range(5)
SETUP_PHASES = (IMPORT, BUILD, START)

# Layers are the packages under src/repro; ``simulation`` is split by file
# and, inside ``_core`` where the hot code shares one file, by class. ``other`` is simulator code in a
# directory without a layer of its own (analysis, perf, the package root, and
# any package added after this benchmark was written).
DIRECTORY_LAYERS = (
    "net", "gossip", "fabric", "ledger", "crypto", "faults", "metrics",
    "scenarios", "experiments",
)
SIMULATION_CLASS_LAYERS = {
    "Simulator": "simulation.engine",
    "EventHandle": "simulation.engine",
    "SimulationError": "simulation.engine",
    "TimerWheel": "simulation.wheel",
    "WheelTimer": "simulation.wheel",
    "TrafficMonitor": "simulation.monitor",
    "TrafficTotals": "simulation.monitor",
}
SIMULATION_FILE_LAYERS = {
    "random.py": "simulation.random",
    "process.py": "simulation.process",
    "sharded.py": "simulation.sharded",
    "timers.py": "simulation.wheel",
    "timerwheel.py": "simulation.wheel",
}
LAYERS = (
    "simulation.engine", "simulation.wheel", "simulation.monitor",
    "simulation.kernels", "simulation.random", "simulation.process",
    "simulation.sharded",
) + DIRECTORY_LAYERS + ("other",)

# Message kinds that carry a full block (orderer -> leader, push, pull and
# recovery transfers): the denominator of gossip.payload_efficiency.
BLOCK_KINDS = ("OrdererBlock", "BlockPush", "PullBlockResponse", "RecoveryResponse")


# Code objects carry their qualified name since Python 3.11; before that the
# sampler reads the enclosing class of ``_core`` code from the source.
HAS_QUALNAME = hasattr(compile("", "<probe>", "exec"), "co_qualname")
_SCOPES = (
    ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def layer_of(relative_path: str, outermost: str) -> str:
    """Layer of code at ``relative_path`` (relative to ``src/repro``, '/'
    separated) that sits inside the module-level class or function named
    ``outermost`` (the first component of its qualified name)."""
    parts = relative_path.split("/")
    top = parts[0]
    if top == "simulation":
        if parts[1] == "_core":
            # Classes by name; the rest is module-level code of the engine
            # core: latency samplers and link_enqueue (and the import-time
            # selection of the twin).
            return SIMULATION_CLASS_LAYERS.get(outermost, "simulation.kernels")
        return SIMULATION_FILE_LAYERS.get(parts[1], "simulation.engine")
    return top if top in DIRECTORY_LAYERS else "other"


def outermost_names(source: str) -> Dict[int, str]:
    """{first line of a code object: name of the module-level class or
    function around it} for ``source``: what ``co_qualname`` starts with."""
    names: Dict[int, str] = {}
    for top in ast.parse(source).body:
        if isinstance(top, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                if isinstance(node, _SCOPES):
                    # A decorated definition's code starts at its first decorator.
                    for decorator in getattr(node, "decorator_list", []):
                        names.setdefault(decorator.lineno, top.name)
                    names.setdefault(node.lineno, top.name)
    return names


class Patches:
    """Class-level method replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._originals: List[tuple] = []

    def replace(self, cls, name: str, wrap) -> None:
        """Set ``cls.name`` to ``wrap(original)``."""
        original = getattr(cls, name)
        self._originals.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def undo(self) -> None:
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)


class PhaseClock:
    """Wall-clock phase boundaries of one run, marked by class-level hooks.

    ``origin`` is the parent's ``time.perf_counter()`` just before it
    spawned this process (CLOCK_MONOTONIC is system-wide on Linux), so the
    import phase includes interpreter start-up.
    """

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.phase = IMPORT
        self.started: List[Optional[float]] = [origin, None, None, None, None]
        self.prepared: Optional[float] = None
        self.ended: Optional[float] = None

    def enter(self, phase: int) -> None:
        """Move forward to ``phase`` (never backwards, never twice)."""
        if phase > self.phase:
            self.started[phase] = time.perf_counter()
            self.phase = phase

    def mark_prepared(self) -> None:
        """The workload is imported and about to be handed to its runner."""
        self.prepared = time.perf_counter()

    def finish(self) -> None:
        self.ended = time.perf_counter()

    def spans(self, seconds) -> Dict[str, float]:
        """``seconds(start, end)`` per phase, contiguous from ``origin`` to
        ``finish()``; a phase that was never entered is 0."""
        edges = self.started + [self.ended]
        for index in range(len(edges) - 2, -1, -1):
            if edges[index] is None:
                edges[index] = edges[index + 1]
        return {
            name: seconds(edges[index], edges[index + 1])
            for index, name in enumerate(PHASES)
        }

    def setup_seconds(self) -> float:
        """Child start -> first event-loop entry in this process. A process
        that never runs a simulator itself (the sharded parent: its workers
        build and run) has only import and spec construction to report."""
        loop_start = self.started[LOOP]
        return (self.prepared if loop_start is None else loop_start) - self.origin

    def mark(self, patches: Patches, cls, name: str, phase: int) -> None:
        """Enter ``phase`` when ``cls.name`` is first called. The wrapper
        stays for the run: these methods are called a few hundred times at
        most, never per event."""
        enter = self.enter

        def wrap(original):
            def marked(*args, **kwargs):
                enter(phase)
                return original(*args, **kwargs)

            return marked

        patches.replace(cls, name, wrap)


class Sampler:
    """CPU-time stack sampler; counts[phase][layer] are sample counts."""

    INTERVAL = 0.004

    def __init__(self, clock: PhaseClock) -> None:
        self.clock = clock
        # Where ``repro`` will be imported from, found without importing it:
        # the sampler is already running when the import happens.
        package = importlib.util.find_spec("repro").submodule_search_locations[0]
        self.root = os.path.join(os.path.abspath(package), "")
        self.counts: List[Dict[Optional[str], int]] = [{} for _ in PHASES]
        self._layer_of_code: Dict[object, Optional[str]] = {}
        self._previous = None
        # Parsed here, not in the signal handler, and only where the class
        # matters (a few ms of the import span, on Python < 3.11 only).
        self._outermost: Dict[str, Dict[int, str]] = {}
        if not HAS_QUALNAME:
            for path in Path(self.root, "simulation", "_core").glob("*.py"):
                relative = path.relative_to(self.root).as_posix()
                self._outermost[relative] = outermost_names(path.read_text())

    def _classify(self, code) -> Optional[str]:
        """Layer of a code object; None when it is not simulator code."""
        filename = code.co_filename
        if not filename.startswith(self.root):
            return None
        relative = filename[len(self.root):].replace(os.sep, "/")
        if HAS_QUALNAME:
            outermost = code.co_qualname.split(".", 1)[0]
        else:
            lines = self._outermost.get(relative, {})
            outermost = lines.get(code.co_firstlineno, code.co_name)
        return layer_of(relative, outermost)

    def _on_sample(self, signum, frame) -> None:
        """Count the innermost simulator frame's layer; a stack without one
        (the benchmark's own code, the interpreter) counts as None."""
        cache = self._layer_of_code
        layer: Optional[str] = None
        while frame is not None and layer is None:
            code = frame.f_code
            if code not in cache:
                cache[code] = self._classify(code)
            layer = cache[code]
            frame = frame.f_back
        bucket = self.counts[self.clock.phase]
        bucket[layer] = bucket.get(layer, 0) + 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def self_seconds(self, phases, span: float) -> Dict[str, float]:
        """Per-layer self time over ``phases``, scaled so the layers sum to
        ``span`` (samples tick on CPU time; spans are wall time)."""
        merged: Dict[str, int] = {layer: 0 for layer in LAYERS}
        for phase in phases:
            for layer, count in self.counts[phase].items():
                if layer is not None:
                    merged[layer] += count
        mapped = sum(merged.values())
        scale = span / mapped if mapped else 0.0
        return {layer: count * scale for layer, count in merged.items()}

    def totals(self) -> "tuple[int, int]":
        """(samples, unmapped samples) over the setup and loop phases."""
        samples = unmapped = 0
        for phase in SETUP_PHASES + (LOOP,):
            for layer, count in self.counts[phase].items():
                samples += count
                if layer is None:
                    unmapped += count
        return samples, unmapped


class SendCounters:
    """Calls, copies and inclusive seconds per public send path.

    A nested call (``multicast`` of width 1 routes through ``send``, and
    every copy does in sharded mode) is counted once, under the path the
    caller used. ``networks`` collects every ``Network`` built while
    installed, for the counters they own.
    """

    PATHS = (("send", "send"), ("multicast", "multicast"), ("aggregate", "send_aggregate"))

    def __init__(self) -> None:
        self.calls = {path: 0 for path, _ in self.PATHS}
        self.copies = {path: 0 for path, _ in self.PATHS}
        self.seconds = {path: 0.0 for path, _ in self.PATHS}
        self.block_copies = 0
        self.networks: list = []
        self._depth = 0

    def _counting(self, path: str):
        counters = self
        unicast = path == "send"
        clock = time.perf_counter

        def wrap(original):
            def counted(network, src, dsts, message):
                if counters._depth:
                    return original(network, src, dsts, message)
                counters._depth = 1
                began = clock()
                try:
                    return original(network, src, dsts, message)
                finally:
                    counters.seconds[path] += clock() - began
                    counters._depth = 0
                    width = 1 if unicast else len(dsts)
                    counters.calls[path] += 1
                    counters.copies[path] += width
                    if message.kind in BLOCK_KINDS:
                        counters.block_copies += width

            return counted

        return wrap

    def install(self, patches: Patches, network_cls) -> None:
        for path, name in self.PATHS:
            patches.replace(network_cls, name, self._counting(path))
        networks = self.networks

        def wrap(construct):
            def remembered(network, *args, **kwargs):
                networks.append(network)
                construct(network, *args, **kwargs)

            return remembered

        patches.replace(network_cls, "__init__", wrap)
