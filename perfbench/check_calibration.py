"""Checks that speed calibration keeps a program-side slowdown.

Usage (from the repository root)::

    python3 perfbench/check_calibration.py --seeds 301 302 303 304

Runs ``ssb-serve`` with 12 timed passes per seed and injects a known
slowdown inside ``QueryService.execute`` on every odd pass: a pure-Python
loop (``cpu``) or three passes over a resident 64 MB array (``mem``), which
also evicts the caches the probe that follows uses.  Adjacent passes run at
the same host speed, so the ratio of their raw walls is the injected
slowdown; the same ratio over calibrated walls shows how much of it the
calibration keeps.  Prints the mean ratios over every pair of every seed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.service import service  # noqa: E402
from ssbbench import workloads  # noqa: E402

PASSES = 12
CPU_LOOP = 250_000
MEM_WORDS = 8_000_000


def injected_ratios(variant: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and calibrated wall ratios of each (injected, plain) pass pair."""
    state = {"on": False, "units": 0}
    array = np.zeros(MEM_WORDS) if variant == "mem" else None
    execute, unit = service.QueryService.execute, workloads.Client.unit

    def slow_execute(self, *args, **kwargs):
        if state["on"] and array is not None:
            array[:] += 1.0
            array[:] *= 0.5
            array[:] += 1.0
        elif state["on"]:
            total = 0
            for value in range(CPU_LOOP):
                total += value
        return execute(self, *args, **kwargs)

    def alternating_unit(client):
        state["on"] = state["units"] % 2 == 1
        state["units"] += 1
        try:
            unit(client)
        finally:
            state["on"] = False

    service.QueryService.execute = slow_execute
    workloads.Client.unit = alternating_unit
    try:
        result = workloads.run(
            replace(workloads.WORKLOADS["ssb-serve"], min_units=PASSES),
            seed, seconds=0, trace=False,
        )
    finally:
        service.QueryService.execute, workloads.Client.unit = execute, unit
    if result.failed:
        raise SystemExit("\n".join(result.errors))
    queries = result.timed("query")
    per_pass = len(queries) // PASSES
    passes = [queries[i * per_pass:(i + 1) * per_pass] for i in range(PASSES)]
    raw = [sum(op.raw_wall_s for op in p) for p in passes]
    calibrated = [sum(op.wall_s for op in p) for p in passes]
    pairs = range(0, PASSES, 2)
    return ([raw[i + 1] / raw[i] for i in pairs],
            [calibrated[i + 1] / calibrated[i] for i in pairs])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[301, 302])
    args = parser.parse_args(argv)
    for variant in ("cpu", "mem"):
        raw, calibrated = [], []
        for seed in args.seeds:
            seed_raw, seed_calibrated = injected_ratios(variant, seed)
            raw += seed_raw
            calibrated += seed_calibrated
        print(f"{variant}: {len(raw)} pass pairs, injected/plain wall "
              f"raw {statistics.mean(raw):.3f} "
              f"(sd {statistics.stdev(raw):.3f}), "
              f"calibrated {statistics.mean(calibrated):.3f} "
              f"(sd {statistics.stdev(calibrated):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
