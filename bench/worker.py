"""One timed CLI command in a fresh process.

    python3 bench/worker.py ROOT WORKLOAD SEED REP_DIR SPAWNED [--trace] [--time-table]

SPAWNED is the parent's time.monotonic() just before it started this
process, so set-up covers interpreter start, `import mslevy` from
ROOT/src and config generation. The command runs through
`mslevy.cli.run` with its artifacts in REP_DIR/out; timings, the exit
code and (with --trace) the per-layer metrics go to REP_DIR/result.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def reference_s(steps: int = 4000) -> float:
    """Seconds for a fixed NumPy loop shaped like one frozen-chain kernel
    step at width 1024. It does not touch mslevy, so its time tracks only
    how fast this machine runs at the moment."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(2024))
    y = np.zeros(1024)
    dt = 2.0**-8
    t0 = time.perf_counter()
    for _ in range(steps):
        d = 0.5 - y - y * y * y * y * y
        y = y + d * (dt / (1.0 + dt * np.abs(d))) + gen.standard_normal(1024) * dt**0.5
    return time.perf_counter() - t0


def main(argv):
    root, workload, seed, rep_dir = Path(argv[0]), argv[1], int(argv[2]), Path(argv[3])
    spawned = float(argv[4])
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mslevy.cli
    if not Path(mslevy.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mslevy imported from {mslevy.cli.__file__}, not {src}")
    import workloads

    cfg = workloads.make_config(workload, seed)
    cfg_path = rep_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    setup_s = time.monotonic() - spawned
    reference_s(500)
    reference = [reference_s()]

    run = mslevy.cli.run
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer
        tracer = Tracer()
        run = tracer.install()
    table_s = []
    if "--time-table" in argv:
        build = mslevy.ergodic.build_averaged_table

        def timed_build(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return build(*args, **kwargs)
            finally:
                table_s.append(time.perf_counter() - t0)

        mslevy.ergodic.build_averaged_table = timed_build

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = run(workloads.command(workload), cfg_path, out_dir=rep_dir / "out")
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    reference.append(reference_s())
    result = {
        "code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "table_build_s": sum(table_s),
        "reference_s": reference,
        "trace": tracer.metrics(wall_s) if tracer else None,
        "kernel_runs": tracer.kernel_runs() if tracer else None,
    }
    (rep_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
