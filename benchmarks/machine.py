"""Print the machine block recorded in baseline.json, as JSON.

  python3 benchmarks/machine.py

Reads CPU count, library versions, the BLAS thread variables run.py sets,
and cache sizes from /sys (read only), and puts each workload's computed
stencil-plan size beside the cache sizes.
"""

import json
import os
import platform
from pathlib import Path

from run import BLAS_THREADS

os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.machine()


def cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def blas_library():
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main():
    plans = {}
    for name, wl in workloads.WORKLOADS.items():
        sizes = workloads.plan_sizes(wl.geometry())
        plans[name] = {"plan_nnz": sizes["tomography.plan_nnz"], "plan_bytes": sizes["plan_bytes"],
                       "product_bytes": sizes["tomography.product_bytes"]}
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREADS},
        "caches": cache_sizes(),
        "computed_plan_sizes": plans,
    }, indent=2))


if __name__ == "__main__":
    main()
