"""Command-line pipeline: phantom, project, reconstruct, sample, metrics.

Every command but `metrics` writes a plain-text manifest with the resolved
parameters, seeds, geometry digest, and (for sampling runs) the per-step
measurement residual trace, so any output can be reproduced bit-for-bit;
`--manifest-in` replays a stored manifest.  Each command returns its record
and `main` writes it, ending the run's fields with `duration_s`, the
command's wall time from dispatch.

Exit codes: 0 success, 2 usage error, 3 io/format error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .core import (
    F32_MAX,
    DataError,
    DimensionError,
    FormatError,
    Image,
    NumericalError,
    ParameterError,
    PhantomKind,
    SeededRng,
    Sinogram,
    read_raster,
    write_pgm,
    write_raster,
)
from .solvers import (
    ProxConfig,
    default_rls_tau,
    rls_reconstruct,
    tv_reconstruct,
)
from .tomography import (
    FilterKind,
    TomoOperator,
    default_detectors,
    fbp_reconstruct,
    forward_project,
    make_limited_geometry,
    square_geometry,
)

if TYPE_CHECKING:
    from .denoiser import GmmPrior

# The sampling stack (sampler, denoiser, diffusion) and evaluation are
# imported inside the commands that use them, so that `project` and
# `reconstruct` load only core, tomography and solvers.

USAGE_ERROR = 2
IO_ERROR = 3
NUMERICAL_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lactdiff",
        description="Limited-angle CT simulation, reconstruction, and posterior sampling.",
    )
    parser.add_argument(
        "--manifest-in", help="replay the command recorded in a run manifest"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phantom", help="write a synthetic test object")
    p.add_argument("--kind", required=True, choices=[kind.value for kind in PhantomKind])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also write an 8-bit preview")

    p = sub.add_parser("project", help="forward-project an image to a sinogram")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--views", type=int, required=True)
    p.add_argument("--theta-max", type=float, default=180.0)
    p.add_argument("--detectors", type=int, default=0, help="0 = cover the diagonal")
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="classical reconstruction of a sinogram")
    p.add_argument("--method", required=True, choices=["fbp", "rls", "tv"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--size", type=int, required=True, help="output image side length")
    p.add_argument("--filter", choices=[kind.value for kind in FilterKind], default="ramlak")
    p.add_argument("--tau", type=float, default=None, help="rls: Tikhonov weight")
    p.add_argument("--lam", type=float, default=0.5, help="tv: regularization weight")
    p.add_argument("--iters", type=int, default=100, help="rls/tv iteration budget")
    p.add_argument("--out", required=True)
    p.add_argument("--pgm")

    p = sub.add_parser("sample", help="posterior sampling with refinement chains")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--condition", choices=["fbp", "rls"], default="rls")
    p.add_argument(
        "--prior",
        default="builtin",
        help="'builtin' (Gaussian centered at the condition) or a mixture file",
    )
    p.add_argument("--prior-std", type=float, default=0.5)
    p.add_argument(
        "--uncond-prior",
        default=None,
        help="'builtin' (zero-mean Gaussian) or a mixture file; needed when lambda != 1",
    )
    p.add_argument("--T", type=int, default=1000, help="training-length schedule")
    p.add_argument("--schedule", choices=["linear", "cosine"], default="linear")
    p.add_argument("--K", type=int, default=50, help="shortened chain length")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--no-prox", action="store_true")
    p.add_argument("--prox-skip", type=int, default=0)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pgm", action="store_true", help="write previews next to rasters")

    p = sub.add_parser("metrics", help="print psnr_db,ssim for a reconstruction")
    p.add_argument("--recon", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--phantom-id", default=None, help="emit a full CSV row with header")
    p.add_argument("--method", default="")
    p.add_argument("--theta-max", type=float, default=0.0)
    p.add_argument("--views", type=int, default=0)
    return parser


def _write_manifest(path: Path, argv, fields: dict, traces) -> None:
    lines = [
        "run_manifest v2",
        f"argv: {shlex.join(argv)}",
        f"version.lactdiff: {__version__}",
        f"version.numpy: {np.__version__}",
    ]
    # scipy is recorded when the run loaded it (every projection does, for
    # its sparse kernels), and is not imported just to be recorded
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        lines.append(f"version.scipy: {scipy.__version__}")
    for key, value in fields.items():
        lines.append(f"{key}: {value}")
    for i, trace in enumerate(traces):
        residuals = " ".join(f"{r:.9g}" for r in trace.residuals)
        lines.append(f"residuals.sample{i}: {residuals}")
    # prox steps whose CG stopped at cg_max_iter short of cg_tol
    for i, trace in enumerate(traces):
        capped = sum(not report.converged for report in trace.prox_reports)
        lines.append(f"prox_capped.sample{i}: {capped}/{len(trace.prox_reports)}")
    # the seed each chain's SeededRng was given, for sample_posterior to rerun it
    for i, trace in enumerate(traces):
        lines.append(f"chain_seed.sample{i}: {trace.seed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_manifest(path: str):
    """A stored manifest's argv, and the versions it recorded by package."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        argv = next(
            (shlex.split(line[len("argv: ") :]) for line in lines if line.startswith("argv: ")),
            None,
        )
    except ValueError as exc:  # text that is not UTF-8, or an unclosed quote
        raise FormatError(f"manifest {path} is unreadable: {exc}") from exc
    if argv is None:
        raise FormatError(f"manifest {path} has no argv line")
    versions = dict(
        line.removeprefix("version.").partition(": ")[::2]
        for line in lines
        if line.startswith("version.")
    )
    return argv, versions


def _note_version_change(recorded: dict) -> None:
    """One line on stderr when the replay runs other versions than recorded.

    Outputs are bit-for-bit only under the recorded versions (sample's
    follow the last bits of numpy's einsum loop), but the replay runs on.
    scipy is compared when recorded: that run loaded it, so the replay will.
    """
    running = {"lactdiff": __version__, "numpy": np.__version__}
    if "scipy" in recorded:
        import scipy

        running["scipy"] = scipy.__version__
    changed = [
        f"{package} {recorded[package]} -> {version}"
        for package, version in running.items()
        if recorded.get(package, version) != version
    ]
    if changed:
        print(
            f"note: the manifest ran with other versions ({', '.join(changed)}); "
            "outputs may differ from the recorded ones in their last bits",
            file=sys.stderr,
        )


def _read_expected(path, kind):
    """read_raster, refusing a raster that is not of type kind."""
    raster = read_raster(path)
    if not isinstance(raster, kind):
        raise ParameterError(
            f"{path} holds {type(raster).__name__} data, expected {kind.__name__} data"
        )
    return raster


def _write_output(path, raster, preview) -> None:
    """Write raster to path and, when a preview path is given, its 8-bit PGM."""
    write_raster(path, raster)
    if preview:
        write_pgm(preview, raster)


def _cmd_phantom(args):
    from .evaluation import PhantomSpec, make_phantom

    spec = PhantomSpec(PhantomKind(args.kind), args.size, args.seed)
    _write_output(args.out, make_phantom(spec), args.pgm)
    fields = {
        "command": "phantom",
        "param.kind": args.kind,
        "param.size": args.size,
        "seed": args.seed,
        "out": args.out,
    }
    return Path(args.out).with_suffix(".manifest.txt"), fields, ()


def _cmd_project(args):
    image = _read_expected(args.input, Image)
    if image.rows != image.cols:
        raise ParameterError("projection expects a square image")
    if not (args.noise_std >= 0.0 and math.isfinite(args.noise_std)):
        raise ParameterError(f"noise std must be finite and >= 0, got {args.noise_std}")
    if args.detectors < 0:
        raise ParameterError(f"detector count must be >= 0, got {args.detectors}")
    # checks the seed range whether or not any noise is drawn
    rng = SeededRng(args.seed)
    detectors = args.detectors if args.detectors > 0 else default_detectors(image.rows)
    geom = make_limited_geometry(image.rows, detectors, args.views, args.theta_max)
    sino = forward_project(image, geom)
    if args.noise_std > 0.0:
        noise = rng.standard_normal(sino.views * sino.detectors).reshape(sino.shape)
        # the sinogram is a float32 raster; a std near the float64 limit
        # overflows to inf here, which the range check rejects too
        with np.errstate(over="ignore"):
            noisy = sino.as_f64() + args.noise_std * noise
        if not np.abs(noisy).max() <= F32_MAX:
            raise ParameterError(
                f"--noise-std {args.noise_std:g} puts the sinogram outside the float32 range"
            )
        sino = Sinogram(sino.views, sino.detectors, sino.angles_deg, noisy)
    write_raster(args.out, sino)
    fields = {
        "command": "project",
        "param.views": args.views,
        "param.theta_max": args.theta_max,
        "param.detectors": detectors,
        "param.noise_std": args.noise_std,
        "seed": args.seed,
        "geometry.digest": geom.digest(),
        "out": args.out,
    }
    return Path(args.out).with_suffix(".manifest.txt"), fields, ()


def _cmd_reconstruct(args):
    sino = _read_expected(args.input, Sinogram)
    geom = square_geometry(args.size, sino.detectors, sino.angles_deg)
    if args.method == "fbp":
        recon = fbp_reconstruct(sino, geom, FilterKind(args.filter))
    elif args.method == "rls":
        recon, report = rls_reconstruct(sino, geom, tau=args.tau, max_iter=args.iters)
    else:
        recon, report = tv_reconstruct(sino, geom, lam=args.lam, outer_iters=args.iters)
    _write_output(args.out, recon, args.pgm)
    fields = {
        "command": "reconstruct",
        "param.method": args.method,
        "param.filter": args.filter,
        "param.tau": args.tau,
        "param.lam": args.lam,
        "param.iters": args.iters,
        "geometry.digest": geom.digest(),
    }
    if args.method != "fbp":
        # the geometry kept the solver's estimate, so these reads run no product
        used_norm = args.method == "tv" or args.tau is None
        fields["operator.norm_sq"] = geom.norm_sq if used_norm else "n/a"
    if args.method == "rls":
        fields["resolved.tau"] = default_rls_tau(geom) if args.tau is None else args.tau
        fields.update(_cg_fields("rls.", report))
    if args.method == "tv":
        # candidates the monotone safeguard rejected, and the inner TV prox steps
        fields["tv.rejected"] = f"{report.rejected}/{args.iters}"
        fields["tv.prox_iters"] = report.prox_iterations
    fields["out"] = args.out
    return Path(args.out).with_suffix(".manifest.txt"), fields, ()


def _cg_fields(prefix: str, report) -> dict:
    """Manifest fields of a CG solve's report, or none without one; converged is
    false when CG stopped at its iteration budget short of its tolerance."""
    if report is None:
        return {}
    return {
        f"{prefix}cg_iterations": report.iterations,
        f"{prefix}converged": str(report.converged).lower(),
    }


def _builtin_prior(dim: int, center: np.ndarray, std: float) -> GmmPrior:
    from .denoiser import GmmPrior

    return GmmPrior(dim, [1.0], center.reshape(1, dim), [std**2])


def _load_prior_file(spec: str, dim: int) -> GmmPrior | None:
    """The mixture in prior file `spec`, or None for "builtin"."""
    if spec == "builtin":
        return None
    from .denoiser import load_gmm_prior

    prior = load_gmm_prior(spec)
    if prior.dim != dim:
        raise ParameterError(f"prior file dim {prior.dim} does not match image dim {dim}")
    return prior


def _cmd_sample(args):
    from .denoiser import GmmDenoiser, GuidedDenoiser
    from .diffusion import cosine_schedule, default_linear_schedule
    from .sampler import (
        SamplerConfig,
        build_condition,
        draw_samples,
        sample_average,
        uncertainty_map,
    )

    sino = _read_expected(args.input, Sinogram)
    geom = square_geometry(args.size, sino.detectors, sino.angles_deg)
    sched = (
        default_linear_schedule(args.T)
        if args.schedule == "linear"
        else cosine_schedule(args.T)
    )
    if args.lam != 1.0 and args.uncond_prior is None:
        raise ParameterError("lambda != 1 requires --uncond-prior")
    if args.K > sched.T:
        raise ParameterError(f"--K {args.K} exceeds the schedule length --T {sched.T}")
    if not (math.isfinite(args.prior_std) and args.prior_std > 0.0):
        raise ParameterError(f"--prior-std must be positive and finite, got {args.prior_std}")
    if not math.isfinite(args.lam):
        raise ParameterError(f"--lambda must be finite, got {args.lam}")
    # both configs check their arguments, before the condition's solve
    prox = None if args.no_prox else ProxConfig(gamma=args.gamma)
    cfg = SamplerConfig(
        steps=args.K,
        prox=prox,
        prox_skip=args.prox_skip,
        seed=args.seed,
        n_samples=args.samples,
    )
    dim = args.size * args.size
    # prior files are read before the condition's solve too
    prior = _load_prior_file(args.prior, dim)
    if args.uncond_prior is not None:
        uncond_prior = _load_prior_file(args.uncond_prior, dim)
        if uncond_prior is None:
            uncond_prior = _builtin_prior(dim, np.zeros(dim), max(args.prior_std, 1.0))
    # an unusable --out-dir fails here, before the condition's solve and the chains
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cond, condition_report = build_condition(sino, geom, args.condition)
    if prior is None:
        prior = _builtin_prior(dim, cond.image.as_f64().ravel(), args.prior_std)
    model = GmmDenoiser(prior, sched)
    if args.lam != 1.0:
        model = GuidedDenoiser(model, GmmDenoiser(uncond_prior, sched), args.lam)

    sample_set = draw_samples(
        model,
        sino.as_f64().ravel(),
        TomoOperator(geom),
        (args.size, args.size),
        cond,
        sched,
        cfg,
    )

    rasters = {f"sample_{i:03d}": sample for i, sample in enumerate(sample_set.samples)}
    rasters["average"] = sample_average(sample_set)
    if len(sample_set.samples) >= 2:
        rasters["uncertainty"] = uncertainty_map(sample_set)
    for name, raster in rasters.items():
        preview = out_dir / f"{name}.pgm" if args.pgm else None
        _write_output(out_dir / f"{name}.ctr", raster, preview)

    final_residuals = [trace.residuals[-1] for trace in sample_set.traces]
    fields = {
        "command": "sample",
        "param.condition": args.condition,
        "param.prior": args.prior,
        "param.prior_std": args.prior_std,
        "param.uncond_prior": args.uncond_prior,
        "param.schedule": args.schedule,
        "param.T": args.T,
        "param.K": args.K,
        "param.lambda": args.lam,
        "param.gamma": args.gamma,
        "param.prox": "off" if args.no_prox else "on",
        "param.prox_skip": args.prox_skip,
        "param.samples": args.samples,
        "seed": args.seed,
        "geometry.digest": geom.digest(),
        **_cg_fields("condition.rls_", condition_report),
        "mean_final_residual": f"{float(np.mean(final_residuals)):.9g}",
        "out_dir": str(out_dir),
    }
    return out_dir / "manifest.txt", fields, sample_set.traces


def _cmd_metrics(args) -> None:
    from .evaluation import METRICS_CSV_HEADER, metrics_csv_row, psnr, psnr_text, ssim

    recon = read_raster(args.recon)
    reference = read_raster(args.reference)
    if type(recon) is not type(reference):
        raise ParameterError("metrics need two rasters of the same kind")
    if isinstance(recon, Sinogram):
        recon = Image(recon.views, recon.detectors, recon.data)
        reference = Image(reference.views, reference.detectors, reference.data)
    psnr_db = psnr(recon, reference)
    ssim_val = ssim(recon, reference)
    if args.phantom_id is not None:
        print(METRICS_CSV_HEADER)
        print(
            metrics_csv_row(
                args.phantom_id, args.method, args.theta_max, args.views, psnr_db, ssim_val
            )
        )
    else:
        ssim_txt = f"{ssim_val:.6g}"
        if ssim_txt.lstrip("-").isdigit():
            ssim_txt += ".0"
        print(f"{psnr_text(psnr_db)},{ssim_txt}")


_COMMANDS = {
    "phantom": _cmd_phantom,
    "project": _cmd_project,
    "reconstruct": _cmd_reconstruct,
    "sample": _cmd_sample,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.manifest_in:
            if args.command is not None:
                raise ParameterError(
                    f"--manifest-in replays the recorded command; drop {args.command!r}"
                )
            replay, versions = _read_manifest(args.manifest_in)
            if "--manifest-in" in replay:
                raise ParameterError("manifest replay cannot nest --manifest-in")
            _note_version_change(versions)
            return main(replay)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
        started = time.perf_counter()
        record = _COMMANDS[args.command](args)
        if record is not None:  # metrics writes no manifest
            path, fields, traces = record
            fields["duration_s"] = f"{time.perf_counter() - started:.3f}"
            _write_manifest(path, argv, fields, traces)
        return 0
    except (ParameterError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
