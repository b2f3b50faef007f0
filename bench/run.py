"""mslevy benchmark: one CLI workload, timed in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; mslevy is imported from ./src. The seed
generates the workload's config (see workloads.py). The command then
runs closed-loop, one fresh single-threaded process after another, until
S seconds have passed and at least three times. Every run must exit 0,
pass the command's own science check and leave sha256-identical
artifacts; a run that does not counts as failed.

With --trace 0 the last stdout line carries the end-to-end metrics,
medians over the runs. With --trace 1 one more run is traced (see
tracer.py); it must leave the same artifacts as the untraced runs, and
the last line carries its per-layer metrics. The line before it holds
machine info, artifact digests and the per-run values; a copy is kept
under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

MIN_RUNS = 3
# End-to-end times are reported at the machine speed at which
# worker.reference_s() takes REFERENCE_S: each run's times are scaled by
# REFERENCE_S over the reference loop's mean time just before and after
# its command, so drift in a shared host's speed cancels out (README).
REFERENCE_S = 0.1
# the whole invocation must end within 180 s: no run starts after
# LAST_START, and none may outlive HARD_STOP
LAST_START_S = 110.0
HARD_STOP_S = 165.0
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "path_steps_per_s": "1/s"}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "integrate.self_s": "s", "rng.self_s": "s",
    "model.self_s": "s", "expressions.self_s": "s", "observers.self_s": "s",
    "ergodic.self_s": "s", "estimate.self_s": "s",
    "integrate.steps": "count", "integrate.advances": "count",
    "integrate.advances_per_step": "ratio",
    "integrate.mean_advance_width": "rows",
    "integrate.us_per_advance": "us", "integrate.ns_per_path_step": "ns",
    "integrate.fixed_us_per_advance": "us",
    "integrate.ns_per_path_advance": "ns",
    "rng.normals": "count", "rng.events": "count", "rng.ns_per_draw": "ns",
    "model.calls": "count", "expressions.calls": "count",
    "observers.calls": "count",
    "ergodic.table_lookup_s": "s", "ergodic.table_lookups": "count",
    "ergodic.invariant_post_s": "s", "ergodic.sample_bytes": "bytes",
    "estimate.bootstrap_s": "s", "estimate.bootstrap_resamples": "count",
    "cli.artifact_bytes": "bytes", "cli.cache_hits": "count",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class Run:
    """One worker process: its result file, artifacts and verdict."""

    def __init__(self, rep_dir: Path, result: dict | None, error: str | None):
        self.dir = rep_dir
        self.result = result
        self.error = error
        self.digest = None
        self.artifact_bytes = 0


def tree_digest(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        total += len(data)
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def spawn(root: Path, workload: str, seed: int, rep_dir: Path, flags,
          deadline: float) -> Run:
    rep_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **{k: "1" for k in THREAD_CAPS})
    timeout = max(1.0, deadline - time.monotonic())
    with open(rep_dir / "stdout.txt", "wb") as out, \
            open(rep_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(root), workload,
               str(seed), str(rep_dir), repr(spawned), *flags]
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=env,
                                  timeout=timeout, cwd=rep_dir)
        except subprocess.TimeoutExpired:
            return Run(rep_dir, None, f"timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-400:]
        return Run(rep_dir, None, f"worker exit {proc.returncode}: {tail}")
    return Run(rep_dir, json.loads((rep_dir / "result.json").read_text()), None)


def timed_run(root, workload, seed, cfg, rep_dir, flags, deadline, cache):
    """Spawn one run (from a copy of the table cache, if any) and judge it."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    if cache is not None:
        shutil.copytree(cache, out / "cache")
    _, before = tree_digest(out)
    run = spawn(root, workload, seed, rep_dir, flags, deadline)
    if run.result is not None:
        if run.result["code"] != 0:
            run.error = f"exit code {run.result['code']}"
        else:
            run.error = workloads.science_check(workload, cfg, out)
    run.digest, after = tree_digest(out)
    run.artifact_bytes = after - before
    return run


def speed(run: Run) -> float:
    return REFERENCE_S / statistics.mean(run.result["reference_s"])


def advance_cost_fit(kernel_runs) -> tuple[float, float]:
    """Least squares of kernel-run seconds on (1, advances, advance rows):
    the seconds per advance and per advanced path row."""
    import numpy as np

    data = np.asarray(kernel_runs, dtype=float).reshape(-1, 3)
    design = np.column_stack([np.ones(len(data)), data[:, 1], data[:, 2]])
    coef = np.linalg.lstsq(design, data[:, 0], rcond=None)[0]
    return float(coef[1]), float(coef[2])


def machine_info(root: Path) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((root / "src" / "mslevy").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), **versions,
            "mslevy_commit": commit, "mslevy_src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    # on SIGTERM unwind normally: subprocess.run kills and reaps the running
    # worker, and the finally below removes the scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "mslevy" / "cli.py").is_file():
        print(f"no mslevy sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        summary = measure(root, work, args, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if summary is None:
        return 1
    info, line = summary
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**info, "result": line}, indent=2) + "\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(line))
    return 0


def measure(root: Path, work: Path, args, started: float):
    cfg = workloads.make_config(args.workload, args.seed)
    hard_stop = started + HARD_STOP_S

    # set-up: strong-sweep builds its averaged table once, through the CLI
    table_build_s = 0.0
    prime = cache = None
    if args.workload == "strong-sweep":
        flags = ["--time-table"] + (["--trace"] if args.trace else [])
        prime = spawn(root, args.workload, args.seed, work / "prime", flags,
                      hard_stop)
        cache = work / "prime" / "out" / "cache"
        if prime.result is None or not any(cache.glob("*.csv")):
            print(f"table build failed: {prime.error}", file=sys.stderr)
            return None
        table_build_s = prime.result["table_build_s"]

    runs = []
    t0 = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - t0 < args.seconds:
        if time.monotonic() - started > LAST_START_S:
            break
        runs.append(timed_run(root, args.workload, args.seed, cfg,
                              work / f"run{len(runs)}", [], hard_stop, cache))
    done = [r for r in runs if r.result is not None]
    if not done:
        print(f"no run completed: {runs[0].error}", file=sys.stderr)
        return None

    digests = [r.digest for r in done]
    majority = max(set(digests), key=digests.count)
    for r in done:
        if r.error is None and r.digest != majority:
            r.error = "artifacts differ from the other runs of this set"
    traced = None
    if args.trace:
        traced = timed_run(root, args.workload, args.seed, cfg, work / "traced",
                           ["--trace"], hard_stop, cache)
        if traced.error is None and traced.digest != majority:
            traced.error = "traced artifacts differ from the untraced runs"
        runs.append(traced)
        # one workload rarely varies the batch width enough to split an
        # advance's cost into fixed and per-path parts, so the split is
        # fitted over the kernel runs of all three workloads, each run cold
        kernel_runs = []
        for name in sorted(workloads.WORKLOADS):
            if name == args.workload:
                source = prime or traced
            else:
                source = timed_run(root, name, args.seed,
                                   workloads.make_config(name, args.seed),
                                   work / f"fit-{name}", ["--trace"], hard_stop, None)
                runs.append(source)
            if source.result is not None:
                kernel_runs += source.result["kernel_runs"]
        fit = advance_cost_fit(kernel_runs)
    failed = [r for r in runs if r.error is not None]

    def med(key, scaled=False):
        return statistics.median(r.result[key] * (speed(r) if scaled else 1.0)
                                 for r in done)

    wall = med("wall_s")
    nominal = workloads.nominal_path_steps(args.workload, cfg)
    set_up = done + ([prime] if prime else [])
    setup = statistics.median(r.result["setup_s"] for r in set_up)
    setup_scaled = statistics.median(r.result["setup_s"] * speed(r) for r in set_up)
    if prime is not None:
        setup += table_build_s
        setup_scaled += table_build_s * speed(prime)
    if traced is None:
        values = {
            "wall_s": med("wall_s", True),
            "cpu_s": med("cpu_s", True),
            "setup_s": setup_scaled,
            "peak_rss_mb": med("peak_rss_mb"),
            "path_steps_per_s": nominal / med("wall_s", True),
        }
        units = END_TO_END_UNITS
    elif traced.result is None:
        print(f"traced run failed: {traced.error}", file=sys.stderr)
        return None
    else:
        values = dict(traced.result["trace"])
        values["integrate.fixed_us_per_advance"] = 1e6 * fit[0]
        values["integrate.ns_per_path_advance"] = 1e9 * fit[1]
        values["cli.artifact_bytes"] = traced.artifact_bytes
        values["trace.overhead_frac"] = (traced.result["wall_s"] * speed(traced)
                                         / med("wall_s", True) - 1.0)
        units = PER_LAYER_UNITS
    line = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "command": workloads.command(args.workload),
        "config": cfg,
        "nominal_path_steps": nominal,
        "failed_frac": len(failed) / len(runs),
        "failures": [f"{r.dir.name}: {r.error}" for r in failed],
        "artifact_sha256": majority,
        "table_build_s": table_build_s,
        "unscaled": {"wall_s": wall, "cpu_s": med("cpu_s"), "setup_s": setup},
        "runs": [{k: r.result[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                                           "reference_s")}
                 for r in done],
        "machine": machine_info(root),
    }
    return info, line


if __name__ == "__main__":
    sys.exit(main())
