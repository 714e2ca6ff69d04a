"""One benchmark round in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py WORKLOAD SEED PART TRACED CHECK

Set-up is timed first, before this script imports anything but the clock,
so it matches what a one-shot ``surfcoh`` command pays after interpreter start:
``import surfcoh.cli`` plus building the workload's surfaces. Then come the
seeded inputs, the timed passes and the peak RSS reading. With CHECK=1 the
outputs are then checked, outside the timed region; every round of a run
of a part computes the same outputs, so ``run.py`` checks one round per
part and compares the others' digests with it.

Every time is read from one ``hostclock.HostClock`` and reported at
reference host speed (see ``hostclock.py``).
"""

import os
import sys
import time

from hostclock import REFERENCE_S, HostClock

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _build_surfaces(workload: str) -> list:
    catalog = sys.modules["surfcoh.catalog"]
    if workload == "dp-sample":
        return [catalog.make_del_pezzo(k) for k in range(4, 9)]
    if workload == "toric-scan":
        sys.modules["surfcoh.toric"].toric_model("dp3")  # the fan scan pairs with dp3
        return [catalog.catalog_surface("dp3")]
    if workload == "general-deep":
        return [catalog.catalog_surface("gdp2")]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, seed, part = argv[0], int(argv[1]), int(argv[2])
    traced, check = argv[3] == "1", argv[4] == "1"
    sys.path.insert(0, os.path.join(_ROOT, "src"))

    clock = HostClock()
    clock.calibrate()
    setup_start = clock.now()
    import surfcoh.cli  # noqa: F401  (the entry point a one-shot command loads)

    trace = None
    if traced:
        from tracer import LayerTrace

        trace = LayerTrace(clock)
        api = trace.install()
    surfaces = _build_surfaces(workload)
    setup_end = clock.now()
    clock.calibrate()

    import json
    import resource

    import workloads

    if not traced:
        api = workloads.plain_api()
    parts = workloads.make_inputs(workload, surfaces, seed)
    inputs = parts[part]
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    passes = workloads.run_passes(workload, api, inputs, clock)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace is not None:
        trace.uninstall()

    report = {
        "parts": len(parts),
        "classes": workloads.classes_of(workload, inputs),
        "failed": workloads.count_failures(workload, inputs, passes) if check else None,
        "errors": [e for p in passes for e in p["errors"]][:1],
        "digest": workloads.digest(passes),
        "setup_s": clock.scaled(setup_start, setup_end),
        "segments_s": [p["segments"] for p in passes],
        "latencies_s": passes[0]["latencies"],
        # Reference over measured time of the passes, for the traced layer times.
        "scale": sum(sum(p["segments"]) for p in passes) / sum(p["wall"] for p in passes),
        "slowdowns": [c / REFERENCE_S for c in clock.calibrations],
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss_mb,
        "trace": trace.summary() if trace is not None else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
