"""lactdiff benchmark: one workload, one seed, one JSON line.

  python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one operation at a time, pinned to one core.  With --trace 0 it sets
the workload up several times in fresh processes, then runs operations
until the next one would end after S seconds, and reports the end-to-end
metrics, with wall times scaled by a speed probe (see workloads.SpeedProbe).  With
--trace 1 it runs one operation of each kind twice, untraced and traced,
and reports the per-layer metrics from the traced ones plus the tracing
overhead.  Every operation's output is checked; the last line of stdout is
one JSON object.  `--workload all` runs every workload in turn.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# One operation runs at a time, on one core; BLAS threads would only spin on
# the second one, which is left to the rest of the machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("classical_128", "sample_64", "gauss_4x4")


def median_by_kind(results, attr="scaled"):
    kinds = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(getattr(r, attr))
    return {kind: statistics.median(times) for kind, times in kinds.items()}


def _median_value(results, key):
    values = [r.values[key] for r in results if key in r.values]
    return statistics.median(values) if values else float("nan")


def workload_lines(wl, results):
    """Per-workload figures behind the end-to-end metrics, for people reading the run."""
    by_kind = median_by_kind(results)
    counts = {k: sum(r.kind == k for r in results) for k in by_kind}
    lines = []
    for kind, value in by_kind.items():
        if kind == "draw":
            steps = results[0].values["steps"]
            lines.append(("chain_steps_per_s", steps / value, "1/s", counts[kind]))
        else:
            lines.append((f"{kind}_s", value, "s", counts[kind]))
        ok = [r for r in results if r.kind == kind and r.error is None]
        if any("psnr_db" in r.values for r in ok):
            lines.append((f"{kind}_psnr_db", _median_value(ok, "psnr_db"), "dB", len(ok)))
        if any("residual" in r.values for r in ok):
            lines.append((f"{kind}_residual", _median_value(ok, "residual"), "1", len(ok)))
    return lines


def measure(wl, seed, seconds, workdir, workloads):
    probe = workloads.SpeedProbe()
    probes = [probe.measure()]
    setup = []
    for _ in range(SETUP_REPEATS):
        rc, wall, _ = workloads.run_child(
            [str(HERE / "child.py"), "setup", wl.name, str(seed), str(workdir)], workdir
        )
        if rc != 0:
            raise RuntimeError(f"set-up of {wl.name} exited with {rc}; see {workdir}/stderr.txt")
        probes.append(probe.measure())
        setup.append(wall * probe.scale(probes[-2], probes[-1]))
    state = wl.prepare(seed, workdir)
    results = []
    costs = {kind: [] for kind in wl.kinds}  # each operation's time in this loop
    deadline = perf_counter() + seconds
    index = 0
    try:
        while True:
            kind = wl.kinds[index % len(wl.kinds)]
            # stop before an operation (and its probe) that would end after
            # the deadline, once every kind has run
            ends = perf_counter() + (statistics.median(costs[kind]) if costs[kind] else 0.0)
            if index >= len(wl.kinds) and ends > deadline:
                break
            started = perf_counter()
            result = wl.run_op(kind, state, index)
            probes.append(probe.measure())
            costs[kind].append(perf_counter() - started)
            result.scaled = result.wall * probe.scale(probes[-2], probes[-1])
            results.append(result)
            index += 1
    finally:
        pooled_error = wl.finish(state, results)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": sum(median_by_kind(results).values()),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
    }
    lines = [
        ("setup_s", metrics["setup_s"], "s", len(setup)),
        ("op_s", metrics["op_s"], "s", len(results)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", len(results)),
    ] + workload_lines(wl, results)
    lines += [
        ("op_wall_s", sum(median_by_kind(results, "wall").values()), "s", len(results)),
        ("probe_s", statistics.median(probes), "s", len(probes)),
    ]
    return results, pooled_error, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, lines


def trace(wl, seed, workdir, workloads, tracing):
    """One operation of each kind, once untraced and once traced, same seeds.

    Every operation runs in a fresh process; set-up is traced in this one.
    """
    tracer = tracing.Tracer()
    plain, traced, op_records, import_s = [], [], [], []
    tracer.install()
    try:
        wl.setup(seed, workdir)
    finally:
        tracer.uninstall()
    setup_record = tracer.take()
    # separate states, so the untraced outputs are not pooled with the traced
    plain_state, state = wl.prepare(seed, workdir), wl.prepare(seed, workdir)
    try:
        for index, kind in enumerate(wl.kinds):
            plain.append(wl.run_op(kind, plain_state, index))
            path = workdir / f"spans_{index}.json"
            traced.append(wl.run_op(kind, state, index, spans_path=path))
            if path.exists():
                op_records.append(json.loads(path.read_text()))
                if "import_s" in op_records[-1]:  # only CLI commands import lactdiff.cli
                    import_s.append(op_records[-1]["import_s"])
    finally:
        plain_error = wl.finish(plain_state, plain)
        pooled_error = wl.finish(state, traced) or plain_error
    untraced_s = sum(r.wall for r in plain)
    overhead_s = sum(r.wall for r in traced) - untraced_s
    sizes = workloads.plan_sizes(wl.geometry())
    computed = {
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "tomography.plan_nnz": sizes["tomography.plan_nnz"],
        "tomography.product_bytes": sizes["tomography.product_bytes"],
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": overhead_s / untraced_s,
    }
    values = tracing.layer_metrics(op_records, [setup_record], computed)
    metrics = {k: (v, tracing.LAYERS[k][0]) for k, v in values.items()}
    lines = [(k, v, u, None) for k, (v, u) in metrics.items()]
    return plain + traced, pooled_error, metrics, lines


def run_workload(name, seed, seconds, traced):
    # imported here: workloads imports lactdiff, whose sources main() checks first
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{'trace' if traced else 'run'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if traced:
            results, pooled_error, metrics, lines = trace(wl, seed, workdir, workloads, tracing)
        else:
            results, pooled_error, metrics, lines = measure(wl, seed, seconds, workdir, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [f"{r.kind}: {r.error}" for r in results if r.error]
    failed = len(errors)
    if pooled_error:
        errors.append(f"pooled check: {pooled_error}")
        failed = len(results)
    for message in errors:
        print(f"{name}: FAILED {message}", file=sys.stderr)
    lines.append(("failed_ratio", failed / len(results), "1", len(results)))
    for metric, value, unit, n in lines:
        count = "" if n is None else f"  (n={n})"
        print(f"{name:14s} {metric:32s} {value:.6g} {unit}{count}")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "lactdiff" / "__init__.py").is_file():
        print(f"error: no lactdiff sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    # the operations, their child processes and the speed probe share one
    # core, so the probe reads the speed of the core the operations ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import lactdiff

    if Path(lactdiff.__file__).resolve().parent != SRC / "lactdiff":
        print(f"error: lactdiff imported from {lactdiff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
