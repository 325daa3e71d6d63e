"""Engine wall-clock — batched group-by kernels vs the dispatch oracle.

As a pytest benchmark this replays the 13 SSB queries warm under both
execution strategies (per-operation dispatch and batched) with forced
all-PIM GROUP-BY plans, gates bit-exact result rows and bit-identical
:meth:`PimStats.totals` across the strategies, and gates a >=2x wall-clock
speedup for the batched strategy over the per-subgroup dispatch loop on the
GROUP-BY subset.  The thread-pooled
4-shard replay is always measured and recorded; its >1x gate applies only
on multi-core hosts (``os.cpu_count() > 1``) — a single core serialises
the pool by construction.  Writes the ``BENCH_engine.json`` trajectory
artifact at the repository root.  It is also runnable as a plain script
for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_engine_wallclock.py
"""

import os
import pathlib
import sys

from repro.experiments import engine_wallclock

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"

MIN_GROUP_BY_SPEEDUP = 2.0
MIN_SCATTER_SPEEDUP = 1.0


def test_engine_wallclock(benchmark, publish):
    results = benchmark.pedantic(
        lambda: engine_wallclock.run_engine_wallclock(), rounds=1, iterations=1
    )
    publish("engine_wallclock", engine_wallclock.render(results))
    engine_wallclock.write_artifact(results, ARTIFACT_PATH)
    assert results.bit_exact
    assert results.totals_identical
    # Acceptance gate on the GROUP-BY subset — the Amdahl residual the
    # batched strategy exists for.  Since the packed bank caches field
    # decodes, the dispatch loop is fast enough that this gate fails at the
    # CI scale factor (about 0.8x); the gate stays where it is until the
    # batched path is replaced — do not bump it down.
    assert results.group_by_speedup >= MIN_GROUP_BY_SPEEDUP
    # The pooled sharded replay must beat the sequential scatter outright on
    # multi-core hosts (batched kernels run inside NumPy with the GIL
    # released).  On a single core the measurement is still recorded in the
    # artifact — never silently skipped — but the gate cannot apply.
    assert results.scatter is not None
    assert results.scatter.rows_match
    if results.scatter.gateable:
        assert results.scatter.speedup > MIN_SCATTER_SPEEDUP


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale-factor", type=float, default=None,
        help="generated SSB scale factor (default: REPRO_SSB_SF or 0.01)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed warm replay rounds per strategy (default 3)",
    )
    parser.add_argument(
        "--min-group-by-speedup", type=float, default=MIN_GROUP_BY_SPEEDUP,
        help="fail unless the batched strategy beats the per-subgroup "
             "dispatch loop on the GROUP-BY subset by this factor "
             "(0 disables)",
    )
    parser.add_argument(
        "--min-scatter-speedup", type=float, default=MIN_SCATTER_SPEEDUP,
        help="fail unless the pooled sharded replay beats the sequential one "
             "by strictly more than this factor (0 disables; only applied "
             "when os.cpu_count() > 1)",
    )
    parser.add_argument(
        "--no-scatter", action="store_true",
        help="skip the thread-pooled sharded-replay comparison",
    )
    parser.add_argument(
        "--artifact", default=str(ARTIFACT_PATH),
        help="path of the BENCH_engine.json trajectory artifact",
    )
    args = parser.parse_args(argv)

    results = engine_wallclock.run_engine_wallclock(
        scale_factor=args.scale_factor,
        repeats=args.repeats,
        with_scatter=not args.no_scatter,
    )
    print(engine_wallclock.render(results))
    engine_wallclock.write_artifact(results, args.artifact)
    print(f"wrote {args.artifact}")
    if not results.bit_exact:
        print("FAIL: execution strategies returned different result rows")
        return 1
    if not results.totals_identical:
        print("FAIL: execution strategies charged different modelled totals")
        return 1
    if (
        args.min_group_by_speedup
        and results.group_by_speedup < args.min_group_by_speedup
    ):
        print(
            f"FAIL: group-by batched speedup {results.group_by_speedup:.2f}x "
            f"below {args.min_group_by_speedup}x"
        )
        return 1
    if args.min_scatter_speedup and results.scatter is not None:
        if not results.scatter.rows_match:
            print("FAIL: pooled sharded replay returned different rows")
            return 1
        if (
            results.scatter.gateable
            and results.scatter.speedup <= args.min_scatter_speedup
        ):
            print(
                f"FAIL: scatter speedup {results.scatter.speedup:.2f}x "
                f"not above {args.min_scatter_speedup}x "
                f"({os.cpu_count()} cores)"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
