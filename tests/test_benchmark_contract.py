"""The names and plan sizes the benchmark harness relies on.

benchmarks/tracing.py wraps lactdiff functions and methods that it finds by
name, benchmarks/workloads.py and benchmarks/child.py call lactdiff through
module attributes, and workloads.py reads the size of the plan that
`tomography._stencil_plan` returns.  A rename or a deletion here would only
show when the benchmark runs, so these tests load the tracer by path and
check that it installs and uninstalls cleanly, and read the workloads'
source for every lactdiff attribute it names.
"""

import ast
import functools
import importlib.util
import sys
from pathlib import Path

import pytest

import lactdiff
# every module the tracer patches and the workloads read; the package loads
# them only on use, and one loaded mid-test would add names to compare
from lactdiff import cli, core, denoiser, diffusion, evaluation, sampler, solvers  # noqa: F401
from lactdiff import tomography
from lactdiff.tomography import default_detectors, make_limited_geometry

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("lactdiff_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lactdiff_bindings():
    """Every attribute of every loaded lactdiff module, by (module, name)."""
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "lactdiff" or name.startswith("lactdiff."))
        for key, value in vars(module).items()
    }


def test_tracer_installs_and_restores_every_name(tracing):
    before = lactdiff_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        originals = {(owner, attr): original for owner, attr, original in tracer._patches}
        # every target is found, and each is replaced where the package holds it
        assert len(patched) == len(tracer._patches) >= len(tracing.TARGETS) + len(
            tracing.COUNTED
        )
        for owner, attr in patched:
            assert getattr(owner, attr) is not originals[owner, attr]
    finally:
        tracer.uninstall()
    after = lactdiff_bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    for owner, attr in patched:
        if isinstance(owner, type):
            assert owner.__dict__[attr] is originals[owner, attr], (owner, attr)


@pytest.mark.parametrize(
    "size, views, nnz, stored_views",
    [(128, 240, 5338286, 181), (64, 120, 670806, 91)],
    ids=["classical_128", "sample_64"],
)
def test_stencil_plan_sizes(size, views, nnz, stored_views):
    # the arrays hold the entries of the stored views, the views outside the
    # mirror runs; the shape is the whole operator's, x and y included
    geom = make_limited_geometry(size, default_detectors(size), views, 60.0)
    plan = tomography._stencil_plan(geom)
    assert plan.format == "csr"
    assert plan.nnz == nnz
    assert plan.shape == (views * geom.detectors, size * size)
    assert plan.indptr[-1] == plan.data.size == plan.indices.size == nnz
    assert plan.indptr.size == stored_views * geom.detectors + 1


def lactdiff_reads(path):
    """Every dotted lactdiff name the file at path imports or reads, such as
    "lactdiff.sampler.draw_samples" for `sampler.draw_samples` after
    `from lactdiff import sampler`."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> the dotted lactdiff name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "lactdiff":
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lactdiff":
                    local = alias.asname or "lactdiff"
                    bound[local] = alias.name if alias.asname else "lactdiff"
    reads = set(bound.values())
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id], *reversed(attrs)]))
    return reads


WORKLOAD_READS = sorted(
    lactdiff_reads(BENCHMARKS / "workloads.py") | lactdiff_reads(BENCHMARKS / "child.py")
)


def test_workload_reads_are_found():
    # the scan sees attribute chains, class attributes and private names
    for dotted in (
        "lactdiff.cli.main",
        "lactdiff.tomography._stencil_plan",
        "lactdiff.evaluation.gaussian_posterior_oracle",
        "lactdiff.sampler.draw_samples",
        "lactdiff.denoiser.ConditionInput.none",
    ):
        assert dotted in WORKLOAD_READS


@pytest.mark.parametrize("dotted", WORKLOAD_READS)
def test_every_workload_read_resolves(dotted):
    root, *attrs = dotted.split(".")
    assert root == "lactdiff"
    functools.reduce(getattr, attrs, lactdiff)
