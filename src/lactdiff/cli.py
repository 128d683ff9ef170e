"""Command-line pipeline: phantom, project, reconstruct, sample, metrics.

Every run writes a plain-text manifest with the resolved parameters, seeds,
geometry digest, and (for sampling runs) the per-step measurement residual
trace, so any output can be reproduced bit-for-bit; `--manifest-in` replays
a stored manifest.

Exit codes: 0 success, 2 usage error, 3 io/format error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DataError,
    DimensionError,
    FormatError,
    Image,
    NumericalError,
    ParameterError,
    SeededRng,
    Sinogram,
    read_raster,
    write_pgm,
    write_raster,
)
from .denoiser import GmmPrior, gmm_denoiser, load_gmm_prior
from .diffusion import cosine_schedule, default_linear_schedule
from .evaluation import (
    METRICS_CSV_HEADER,
    PhantomKind,
    PhantomSpec,
    make_phantom,
    metrics_csv_row,
    psnr,
    ssim,
)
from .sampler import (
    ChainTrace,
    SamplerConfig,
    build_condition,
    chain_seeds,
    draw_samples,
    sample_average,
    uncertainty_map,
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
    p.add_argument("--kind", required=True, choices=[k.value for k in PhantomKind])
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
    p.add_argument("--filter", choices=["ramlak", "hann"], default="ramlak")
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


def _write_manifest(path: Path, argv, fields: dict, traces=None, seeds=()) -> None:
    lines = [
        "run_manifest v2",
        f"argv: {shlex.join(argv)}",
        f"version.lactdiff: {__version__}",
        f"version.numpy: {np.__version__}",
    ]
    # scipy is recorded when the run loaded it (every stencil plan build does,
    # and a one-off projection builds none), and is not imported just to be
    # recorded
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        lines.append(f"version.scipy: {scipy.__version__}")
    for key, value in fields.items():
        lines.append(f"{key}: {value}")
    if traces:
        for i, trace in enumerate(traces):
            residuals = " ".join(f"{r:.9g}" for r in trace.residuals)
            lines.append(f"residuals.sample{i}: {residuals}")
        # prox steps whose CG stopped at cg_max_iter short of cg_tol
        for i, trace in enumerate(traces):
            capped = sum(not report.converged for report in trace.prox_reports)
            lines.append(f"prox_capped.sample{i}: {capped}/{len(trace.prox_reports)}")
    # the seed each chain's SeededRng was given, for sample_posterior to rerun it
    for i, seed in enumerate(seeds):
        lines.append(f"chain_seed.sample{i}: {seed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_manifest_argv(path: str):
    try:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.startswith("argv: "):
                return shlex.split(line[len("argv: ") :])
    except ValueError as exc:  # text that is not UTF-8, or an unclosed quote
        raise FormatError(f"manifest {path} is unreadable: {exc}") from exc
    raise FormatError(f"manifest {path} has no argv line")


def _read_expected(path, kind):
    """read_raster, refusing a raster that is not of type kind."""
    raster = read_raster(path)
    if not isinstance(raster, kind):
        raise ParameterError(
            f"{path} holds {type(raster).__name__} data, expected {kind.__name__} data"
        )
    return raster


def _cmd_phantom(args, argv) -> int:
    spec = PhantomSpec(PhantomKind(args.kind), args.size, args.seed)
    image = make_phantom(spec)
    write_raster(args.out, image)
    if args.pgm:
        write_pgm(args.pgm, image)
    _write_manifest(
        Path(args.out).with_suffix(".manifest.txt"),
        argv,
        {
            "command": "phantom",
            "param.kind": args.kind,
            "param.size": args.size,
            "seed": args.seed,
            "out": args.out,
        },
    )
    return 0


def _cmd_project(args, argv) -> int:
    started = time.perf_counter()
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
        if not np.abs(noisy).max() <= np.finfo(np.float32).max:
            raise ParameterError(
                f"--noise-std {args.noise_std:g} puts the sinogram outside the float32 range"
            )
        sino = Sinogram(sino.views, sino.detectors, sino.angles_deg, noisy)
    write_raster(args.out, sino)
    _write_manifest(
        Path(args.out).with_suffix(".manifest.txt"),
        argv,
        {
            "command": "project",
            "param.views": args.views,
            "param.theta_max": args.theta_max,
            "param.detectors": detectors,
            "param.noise_std": args.noise_std,
            "seed": args.seed,
            "geometry.digest": geom.digest(),
            "out": args.out,
            "duration_s": f"{time.perf_counter() - started:.3f}",
        },
    )
    return 0


def _cmd_reconstruct(args, argv) -> int:
    started = time.perf_counter()
    sino = _read_expected(args.input, Sinogram)
    geom = square_geometry(args.size, sino.detectors, sino.angles_deg)
    if args.method == "fbp":
        kind = FilterKind.RAM_LAK if args.filter == "ramlak" else FilterKind.HANN
        recon = fbp_reconstruct(sino, geom, kind)
    elif args.method == "rls":
        recon = rls_reconstruct(sino, geom, tau=args.tau, max_iter=args.iters)
    else:
        recon = tv_reconstruct(sino, geom, lam=args.lam, outer_iters=args.iters)
    write_raster(args.out, recon)
    if args.pgm:
        write_pgm(args.pgm, recon)
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
    fields["out"] = args.out
    fields["duration_s"] = f"{time.perf_counter() - started:.3f}"
    _write_manifest(Path(args.out).with_suffix(".manifest.txt"), argv, fields)
    return 0


def _builtin_prior(dim: int, center: np.ndarray, std: float) -> GmmPrior:
    return GmmPrior(dim, [1.0], center.reshape(1, dim), [std**2])


def _load_prior_file(spec: str, dim: int) -> GmmPrior | None:
    """The mixture in prior file `spec`, or None for "builtin"."""
    if spec == "builtin":
        return None
    prior = load_gmm_prior(spec)
    if prior.dim != dim:
        raise ParameterError(f"prior file dim {prior.dim} does not match image dim {dim}")
    return prior


def _cmd_sample(args, argv) -> int:
    started = time.perf_counter()
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
    # both configs check their arguments, before the condition's solve
    prox = None if args.no_prox else ProxConfig(gamma=args.gamma)
    cfg = SamplerConfig(
        steps=args.K,
        guidance=args.lam,
        prox=prox,
        prox_skip=args.prox_skip,
        seed=args.seed,
        n_samples=args.samples,
    )
    dim = args.size * args.size
    # prior files are read before the condition's solve too
    prior = _load_prior_file(args.prior, dim)
    uncond_model = None
    if args.uncond_prior is not None:
        uncond_prior = _load_prior_file(args.uncond_prior, dim)
        if uncond_prior is None:
            uncond_prior = _builtin_prior(dim, np.zeros(dim), max(args.prior_std, 1.0))
        uncond_model = gmm_denoiser(uncond_prior, sched)
    cond = build_condition(sino, geom, args.condition)
    if prior is None:
        prior = _builtin_prior(dim, cond.image.as_f64().ravel(), args.prior_std)
    model = gmm_denoiser(prior, sched)

    traces: list[ChainTrace] = []
    sample_set = draw_samples(
        model,
        sino.as_f64().ravel(),
        TomoOperator(geom),
        (args.size, args.size),
        cond,
        sched,
        cfg,
        uncond_model=uncond_model,
        traces=traces,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(sample_set.samples):
        write_raster(out_dir / f"sample_{i:03d}.ctr", sample)
        if args.pgm:
            write_pgm(out_dir / f"sample_{i:03d}.pgm", sample)
    average = sample_average(sample_set)
    write_raster(out_dir / "average.ctr", average)
    if args.pgm:
        write_pgm(out_dir / "average.pgm", average)
    if len(sample_set.samples) >= 2:
        spread = uncertainty_map(sample_set)
        write_raster(out_dir / "uncertainty.ctr", spread)
        if args.pgm:
            write_pgm(out_dir / "uncertainty.pgm", spread)

    final_residuals = [t.residuals[-1] for t in traces if t.residuals]
    _write_manifest(
        out_dir / "manifest.txt",
        argv,
        {
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
            "mean_final_residual": (
                f"{float(np.mean(final_residuals)):.9g}" if final_residuals else "n/a"
            ),
            "out_dir": str(out_dir),
            "duration_s": f"{time.perf_counter() - started:.3f}",
        },
        traces=traces,
        seeds=chain_seeds(cfg.seed, cfg.n_samples),
    )
    return 0


def _cmd_metrics(args, argv) -> int:
    recon = read_raster(args.recon)
    reference = read_raster(args.reference)
    if type(recon) is not type(reference):
        raise ParameterError("metrics need two rasters of the same kind")
    if recon.shape != reference.shape:
        raise DimensionError(
            f"shapes {recon.shape} and {reference.shape} differ"
        )
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
        psnr_txt = "inf" if math.isinf(psnr_db) else f"{psnr_db:.4f}"
        ssim_txt = f"{ssim_val:.6g}"
        if "." not in ssim_txt and "e" not in ssim_txt:
            ssim_txt += ".0"
        print(f"{psnr_txt},{ssim_txt}")
    return 0


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
            replay = _read_manifest_argv(args.manifest_in)
            if "--manifest-in" in replay:
                raise ParameterError("manifest replay cannot nest --manifest-in")
            return main(replay)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
        return _COMMANDS[args.command](args, argv)
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
