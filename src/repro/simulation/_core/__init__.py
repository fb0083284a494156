"""The engine core, one module per layer: ``engine`` (the
:class:`Simulator` event heap), ``wheel`` (the :class:`TimerWheel`, one
ring of tick slots), ``monitor`` (the :class:`TrafficMonitor` counters)
and ``kernels`` (the latency, link-admission and fan-out kernels of the
network's send paths). This package binds no name: each has one
definition and one import path, its layer's module.

Determinism contract
--------------------

Reproducibility is bit-for-bit: with a fixed seed, two runs execute the
exact same events in the exact same order at the exact same times, and all
derived metrics (latency samples, byte counts) are equal as floats. Ties on
the event time are broken by the scheduling sequence number. Any refactor
of these modules must preserve (a) the ``(time, seq)`` ordering, (b) the
assignment of sequence numbers in scheduling order, (c) the relative order
of callback execution and clock advancement, and (d) the RNG consumption
order of the latency kernels. The checker in :mod:`repro.perf.regression`
asserts this contract against committed golden metrics, single-process
and sharded.
"""
