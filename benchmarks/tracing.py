"""Spans and counters recorded from outside lactdiff, around its public calls.

A `Tracer` replaces public functions and methods of the package with thin
wrappers that record one span (name, start, end, parent) per call.  Modules
import each other's names directly (`sampler` does `from .solvers import
prox_consistency`), so a function wrapper is installed under every module
attribute that holds the original object, not only where it is defined.
Methods are wrapped on their class.

Several public names can enter one layer (`forward_project`, `project_array`
and `TomoOperator.forward` are all a forward product).  They share a span
name, and a call nested directly in a span of the same name is not recorded
again, so each product counts once however the package routes it.

`layer_metrics` turns the spans into the per-layer metrics listed in
BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# span record layout: [name, start, end, parent index or -1, extra dict or None]
NAME, START, END, PARENT, EXTRA = range(5)


def _geometry_key(geom):
    """Identity of a geometry's stencil plan without calling Geometry.digest."""
    angles = geom.angles_deg
    return (
        geom.image_rows, geom.image_cols, geom.detectors, len(angles),
        float(angles[0]), float(angles[-1]), geom.pixel_size, geom.detector_spacing,
    )


def _geometry_arg(args, kwargs):
    if "geom" in kwargs:
        return kwargs["geom"]
    first = args[0]
    geom = getattr(first, "geom", None)  # TomoOperator method: self.geom
    return geom if geom is not None else args[1]


def _cg_extra(args, kwargs, result):
    report = result[1]
    return {"iters": int(report.iterations), "converged": bool(report.converged)}


def _draws_extra(args, kwargs, result):
    return {"draws": int(np.size(getattr(result, "data", result)))}


def _bytes_extra(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


# (module, attribute or "Class.method", span name, extra)
# An extra of "product" marks a projector product; others are callables.
TARGETS = (
    ("lactdiff.cli", "main", "cli.main", None),
    ("lactdiff.tomography", "forward_project", "tomography.forward", "product"),
    ("lactdiff.tomography", "project_array", "tomography.forward", "product"),
    ("lactdiff.tomography", "TomoOperator.forward", "tomography.forward", "product"),
    ("lactdiff.tomography", "back_project", "tomography.adjoint", "product"),
    ("lactdiff.tomography", "backproject_array", "tomography.adjoint", "product"),
    ("lactdiff.tomography", "TomoOperator.adjoint", "tomography.adjoint", "product"),
    ("lactdiff.tomography", "fbp_reconstruct", "tomography.fbp", None),
    ("lactdiff.tomography", "ramp_filter", "tomography.ramp_filter", None),
    ("lactdiff.solvers", "conjugate_gradient", "solvers.cg", _cg_extra),
    ("lactdiff.solvers", "prox_consistency", "solvers.prox", None),
    ("lactdiff.solvers", "data_consistency_prox", "solvers.prox", None),
    ("lactdiff.solvers", "operator_norm_sq", "solvers.norm_estimate", None),
    ("lactdiff.solvers", "tv_prox", "solvers.tv_prox", None),
    ("lactdiff.solvers", "rls_reconstruct", "solvers.rls", None),
    ("lactdiff.solvers", "tv_reconstruct", "solvers.tv", None),
    ("lactdiff.diffusion", "reverse_step", "diffusion.reverse_step", None),
    ("lactdiff.diffusion", "respace", "diffusion.respace", None),
    ("lactdiff.denoiser", "denoise", "denoiser.denoise", None),
    ("lactdiff.denoiser", "GmmDenoiser.denoise", "denoiser.denoise", None),
    ("lactdiff.denoiser", "ConditionalGmmDenoiser.denoise", "denoiser.denoise", None),
    ("lactdiff.denoiser", "gmm_denoiser", "denoiser.build", None),
    ("lactdiff.denoiser", "conditional_gmm_denoiser", "denoiser.build", None),
    ("lactdiff.denoiser", "GmmDenoiser.__init__", "denoiser.build", None),
    ("lactdiff.denoiser", "ConditionalGmmDenoiser.__init__", "denoiser.build", None),
    ("lactdiff.sampler", "sample_posterior", "sampler.chain", None),
    ("lactdiff.sampler", "sample_posterior_ct", "sampler.chain", None),
    ("lactdiff.sampler", "build_condition", "sampler.build_condition", None),
    ("lactdiff.core", "SeededRng.uniform", "core.rng", _draws_extra),
    ("lactdiff.core", "SeededRng.standard_normal", "core.rng", _draws_extra),
    ("lactdiff.core", "SeededRng.normal_image", "core.rng", _draws_extra),
    ("lactdiff.core", "read_raster", "core.read_raster", None),
    ("lactdiff.core", "write_raster", "core.write_raster", _bytes_extra),
    ("lactdiff.evaluation", "make_phantom", "evaluation.phantom", None),
)

# per-layer metric: (unit, better); BENCHMARK.json lists the same names
LAYERS = {
    "cli.import_s": ("s", "lower"),
    "tomography.plan_build_s": ("s", "lower"),
    "tomography.forward.calls": ("count", "lower"),
    "tomography.forward.s_per_call": ("s", "lower"),
    "tomography.adjoint.calls": ("count", "lower"),
    "tomography.adjoint.s_per_call": ("s", "lower"),
    "tomography.digest.calls": ("count", "lower"),
    "tomography.digest.per_cg_iter": ("ratio", "lower"),
    "tomography.fbp.s": ("s", "lower"),
    "tomography.ramp_filter.s": ("s", "lower"),
    "tomography.plan_nnz": ("count", "lower"),
    "tomography.product_bytes": ("B", "lower"),
    "solvers.cg.calls": ("count", "lower"),
    "solvers.cg.iters": ("count", "lower"),
    "solvers.cg.s_per_iter": ("s", "lower"),
    "solvers.cg.converged_ratio": ("ratio", "higher"),
    "solvers.prox.calls": ("count", "lower"),
    "solvers.prox.s": ("s", "lower"),
    "solvers.prox.converged_ratio": ("ratio", "higher"),
    "solvers.prox.chain_share": ("ratio", "lower"),
    "solvers.norm_estimate.calls": ("count", "lower"),
    "solvers.norm_estimate.s": ("s", "lower"),
    "solvers.rls.s": ("s", "lower"),
    "solvers.tv.s": ("s", "lower"),
    "solvers.tv_prox.calls": ("count", "lower"),
    "solvers.tv_prox.s": ("s", "lower"),
    "diffusion.reverse_step.calls": ("count", "lower"),
    "diffusion.reverse_step.s": ("s", "lower"),
    "diffusion.respace.calls": ("count", "lower"),
    "denoiser.denoise.calls": ("count", "lower"),
    "denoiser.denoise.s_per_call": ("s", "lower"),
    "denoiser.build.s": ("s", "lower"),
    "sampler.chain.calls": ("count", "lower"),
    "sampler.chain.s": ("s", "lower"),
    "sampler.step_self_s": ("s", "lower"),
    "sampler.build_condition.s": ("s", "lower"),
    "core.rng.draws": ("count", "lower"),
    "core.rng.s": ("s", "lower"),
    "core.read_raster.s": ("s", "lower"),
    "core.write_raster.s": ("s", "lower"),
    "core.bytes_written": ("B", "lower"),
    "evaluation.phantom.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# counted, not timed: one span per call would cost more than the call
COUNTED = (("lactdiff.tomography", "Geometry.digest", "tomography.digest"),)


class Tracer:
    """In-memory span recorder; install() patches lactdiff, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._seen_geometries = set()
        self._patches = []  # (owner, attribute, original)

    def _span_wrapper(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if extra == "product":
                key = _geometry_key(_geometry_arg(args, kwargs))
                if key not in self._seen_geometries:
                    self._seen_geometries.add(key)
                    rec[EXTRA] = {"first": True}
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if callable(extra):
                rec[EXTRA] = extra(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._patches.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "lactdiff" or name.startswith("lactdiff.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for module_name, attr, name, extra in TARGETS:
            self._patch(module_name, attr, lambda f, n=name, e=extra: self._span_wrapper(f, n, e))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, lambda f, n=name: self._count_wrapper(f, n))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Spans and counts recorded so far, as one process record; resets both."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        record = {"spans": list(self.spans), "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        return record

    def dump(self, path, **fields):
        record = self.take()
        record.update(fields)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(record, fh)


def _dur(span):
    return span[END] - span[START]


def _self_times(spans, name):
    """Per span called `name`: its duration minus that of its direct children."""
    child_time = Counter()
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += _dur(span)
    return [
        _dur(span) - child_time[i] for i, span in enumerate(spans) if span[NAME] == name
    ]


def layer_metrics(op_records, setup_records, computed):
    """Per-layer metrics from traced processes.

    op_records and setup_records are lists of `Tracer.take()` records, one
    per process or phase; set-up spans feed only evaluation.phantom.s and
    denoiser.build.s.  `computed` holds the values taken outside the spans:
    tomography.plan_nnz and tomography.product_bytes (read from the plan),
    cli.import_s and the tracing overhead.
    """
    calls, secs = Counter(), defaultdict(float)
    counts = Counter()
    cg_iters = cg_converged = prox_cg = prox_cg_converged = draws = bytes_written = 0
    plan_builds, fbp_self, chain_self = [], [], []
    for record in op_records:
        spans = record["spans"]
        counts.update(record["counts"])
        warm = {"tomography.forward": [], "tomography.adjoint": []}
        first = []
        for span in spans:
            name, extra = span[NAME], span[EXTRA] or {}
            calls[name] += 1
            secs[name] += _dur(span)
            cg_iters += extra.get("iters", 0)
            cg_converged += extra.get("converged", False)
            draws += extra.get("draws", 0)
            bytes_written += extra.get("bytes", 0)
            if name == "solvers.cg" and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "solvers.prox":
                prox_cg += 1
                prox_cg_converged += extra["converged"]
            if name in warm:
                (first if extra.get("first") else warm[name]).append(span)
        for span in first:
            if warm[span[NAME]]:
                plan_builds.append(_dur(span) - statistics.median(map(_dur, warm[span[NAME]])))
        fbp_self += _self_times(spans, "tomography.fbp")
        chain_self += _self_times(spans, "sampler.chain")
    setup_secs = defaultdict(float)
    for record in setup_records:
        for span in record["spans"]:
            setup_secs[span[NAME]] += _dur(span)

    def per(total, n):
        return total / n if n else 0.0

    return {
        "cli.import_s": computed["cli.import_s"],
        "tomography.plan_build_s": statistics.median(plan_builds) if plan_builds else 0.0,
        "tomography.forward.calls": calls["tomography.forward"],
        "tomography.forward.s_per_call": per(secs["tomography.forward"], calls["tomography.forward"]),
        "tomography.adjoint.calls": calls["tomography.adjoint"],
        "tomography.adjoint.s_per_call": per(secs["tomography.adjoint"], calls["tomography.adjoint"]),
        "tomography.digest.calls": counts["tomography.digest"],
        "tomography.digest.per_cg_iter": per(counts["tomography.digest"], cg_iters),
        "tomography.fbp.s": secs["tomography.fbp"],
        # fbp_reconstruct filters with a private helper, so the filter's time
        # is read as FBP's self time: the FBP span minus its back-projection
        "tomography.ramp_filter.s": secs["tomography.ramp_filter"] + sum(fbp_self),
        "tomography.plan_nnz": computed["tomography.plan_nnz"],
        "tomography.product_bytes": computed["tomography.product_bytes"],
        "solvers.cg.calls": calls["solvers.cg"],
        "solvers.cg.iters": cg_iters,
        "solvers.cg.s_per_iter": per(secs["solvers.cg"], cg_iters),
        "solvers.cg.converged_ratio": per(cg_converged, calls["solvers.cg"]),
        "solvers.prox.calls": calls["solvers.prox"],
        "solvers.prox.s": secs["solvers.prox"],
        "solvers.prox.converged_ratio": per(prox_cg_converged, prox_cg),
        "solvers.prox.chain_share": per(secs["solvers.prox"], secs["sampler.chain"]),
        "solvers.norm_estimate.calls": calls["solvers.norm_estimate"],
        "solvers.norm_estimate.s": secs["solvers.norm_estimate"],
        "solvers.rls.s": secs["solvers.rls"],
        "solvers.tv.s": secs["solvers.tv"],
        "solvers.tv_prox.calls": calls["solvers.tv_prox"],
        "solvers.tv_prox.s": secs["solvers.tv_prox"],
        "diffusion.reverse_step.calls": calls["diffusion.reverse_step"],
        "diffusion.reverse_step.s": secs["diffusion.reverse_step"],
        "diffusion.respace.calls": calls["diffusion.respace"],
        "denoiser.denoise.calls": calls["denoiser.denoise"],
        "denoiser.denoise.s_per_call": per(secs["denoiser.denoise"], calls["denoiser.denoise"]),
        "denoiser.build.s": secs["denoiser.build"] + setup_secs["denoiser.build"],
        "sampler.chain.calls": calls["sampler.chain"],
        "sampler.chain.s": secs["sampler.chain"],
        "sampler.step_self_s": per(sum(chain_self), calls["diffusion.reverse_step"]),
        "sampler.build_condition.s": secs["sampler.build_condition"],
        "core.rng.draws": draws,
        "core.rng.s": secs["core.rng"],
        "core.read_raster.s": secs["core.read_raster"],
        "core.write_raster.s": secs["core.write_raster"],
        "core.bytes_written": bytes_written,
        "evaluation.phantom.s": secs["evaluation.phantom"] + setup_secs["evaluation.phantom"],
        "trace.overhead_s": computed["trace.overhead_s"],
        "trace.overhead_ratio": computed["trace.overhead_ratio"],
    }
