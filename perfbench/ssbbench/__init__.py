"""SSB serving benchmark: seeded traffic through ``QueryService``.

``workloads`` defines the three workloads and runs one of them, ``spans``
records per-layer wall time by wrapping each layer's public entry points
from outside the program, ``layers`` names those entry points and the
per-layer metrics, and ``report`` turns a run into the printed metrics.
"""
