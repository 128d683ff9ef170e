"""Self-test of the benchmark's correctness checks.

  python3 benchmarks/selftest.py

Runs one real operation of each kind and shows that its check accepts the
output, then corrupts the output (zeroed image, truncated file, wrong raster
kind, missing noise, non-finite residual, shifted or widened chains, nonzero
exit code) and shows that the check rejects it.  Also checks that the metric
names in BENCHMARK.json are the ones run.py reports.  Exits 1 if any
expectation fails.
"""

import json
import math
import shutil
import sys

import numpy as np

import run
import tracing
import workloads
from workloads import ROOT, WORKLOADS, check_exit, check_posterior, core, read_checked

SEED = 12345
outcomes = []


def expect(label, error, rejected):
    ok = (error is not None) == rejected
    verdict = "rejected" if error is not None else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}{f' ({error})' if error else ''}")
    outcomes.append(ok)


def zero_image(path):
    image = core.read_raster(path)
    core.write_raster(path, core.Image(image.rows, image.cols, np.zeros(image.shape)))


def classical(workdir):
    wl = WORKLOADS["classical_128"]
    wl.setup(SEED, workdir)
    state = wl.prepare(SEED, workdir)
    for index, kind in enumerate(wl.kinds):
        expect(f"classical_128 {kind}: real output", wl.run_op(kind, state, index).error, False)
    expect("nonzero exit code", check_exit(2), True)
    fbp = workdir / "out_fbp.ctr"
    truncated = workdir / "truncated.ctr"
    truncated.write_bytes(fbp.read_bytes()[:100])
    expect("truncated raster", read_checked(truncated, core.Image, (128, 128))[1], True)
    expect("sinogram where an image is expected",
           read_checked(workdir / "out_project.ctr", core.Image, (128, 128))[1], True)
    shutil.copy(workdir / "clean.ctr", workdir / "out_project.ctr")
    expect("project: output without noise",
           wl.check_output("project", workdir / "out_project.ctr", state, {}), True)
    shutil.copy(fbp, workdir / "out_rls.ctr")
    expect("rls: FBP-quality image", wl.check_output("rls", workdir / "out_rls.ctr", state, {}), True)
    for kind in ("fbp", "rls", "tv"):
        path = workdir / f"out_{kind}.ctr"
        zero_image(path)
        expect(f"{kind}: zeroed image", wl.check_output(kind, path, state, {}), True)


def sample(workdir):
    wl = WORKLOADS["sample_64"]
    wl.setup(SEED, workdir)
    state = wl.prepare(SEED, workdir)
    expect("sample_64: real output", wl.run_op("sample", state, 0).error, False)
    out = workdir / "out_sample"
    manifest = out / "manifest.txt"
    text = manifest.read_text(encoding="ascii")
    residual = workloads.read_residual(manifest)
    for label, value in (("non-finite", "nan"), ("above the ceiling", f"{residual * 2:.9g}")):
        lines = [
            f"mean_final_residual: {value}" if line.startswith("mean_final_residual: ") else line
            for line in text.splitlines()
        ]
        manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
        expect(f"sample: {label} residual", wl.check_output(out, state, {}), True)
    manifest.write_text(text, encoding="ascii")
    zero_image(out / "average.ctr")
    expect("sample: zeroed average.ctr", wl.check_output(out, state, {}), True)
    (out / "sample_001.ctr").unlink()
    expect("sample: missing sample file", wl.check_output(out, state, {}), True)


def gauss(workdir):
    wl = WORKLOADS["gauss_4x4"]
    state = wl.prepare(SEED, workdir)
    results = [wl.run_op("draw", state, i) for i in (0, 1, 2, 3, wl.POOL_OPS)]
    expect("gauss_4x4: real chains, each call", next((r.error for r in results if r.error), None), False)
    expect(f"gauss_4x4: operation {wl.POOL_OPS} checked but not pooled",
           None if len(state["pool"]) == 4 else f"{len(state['pool'])} pooled", False)
    pool = np.concatenate(state["pool"])
    mean, cov = state["mean"], state["cov"]
    sd = np.sqrt(np.diag(cov))
    expect(f"gauss_4x4: {len(pool)} real chains pooled", wl.finish(state, results), False)
    expect("gauss_4x4: the draw process's peak RSS reaches every result",
           None if all(r.rss_kb for r in results) else "missing", False)
    shifted = pool.copy()
    shifted[:, 3] += 0.5 * sd[3]
    expect("gauss_4x4: one coordinate's mean shifted by 0.5 sd",
           check_posterior(shifted, mean, cov, wl.mean_se, wl.var_se), True)
    widened = mean + 1.5 * (pool - mean)
    expect("gauss_4x4: chains widened 1.5x",
           check_posterior(widened, mean, cov, wl.mean_se, wl.var_se), True)
    broken = pool.copy()
    broken[0, 0] = math.nan
    expect("gauss_4x4: a non-finite chain", check_posterior(broken, mean, cov, wl.mean_se, wl.var_se), True)


def benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("BENCHMARK.json end_to_end names and units match run.py",
           None if e2e == run.E2E_UNITS else f"{e2e} != {run.E2E_UNITS}", False)
    reported = {k: unit for k, (unit, _) in tracing.LAYERS.items()}
    expect("BENCHMARK.json per_layer names and units match tracing.py",
           None if layers == reported else f"differ: {set(layers) ^ set(reported)}", False)


def main():
    workdir = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for part, fn in (("classical", classical), ("sample", sample), ("gauss", gauss)):
            (workdir / part).mkdir(parents=True)
            fn(workdir / part)
        benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(outcomes)}/{len(outcomes)} expectations held")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
