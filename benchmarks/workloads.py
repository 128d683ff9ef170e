"""The benchmark's three workloads: inputs from a seed, operations, checks.

classical_128  four CLI commands on a 128x128 phantom seen over 60 degrees;
               each command runs in a fresh `lactdiff` process
sample_64      `lactdiff sample` on a 64x64 phantom, one fresh process per run
gauss_4x4      `draw_samples` on the closed-form 4x4 posterior of the
               acceptance suite's criterion 5, in one fresh process per run

Every check returns None when the output is correct and an error string when
it is not; `selftest.py` shows each one rejecting a corrupted output.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from lactdiff import core, denoiser, diffusion, evaluation, sampler, tomography  # noqa: E402

CHILD_TIMEOUT_S = 150.0
NOISE_RMS_TOL = 0.1  # relative tolerance on the projected sinogram's noise RMS


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# The speed probe's kernel.  NOMINAL_S is calibrated on this size, so
# changing the size rescales every scaled time.
NOMINAL_S = 0.12
PROBE_ROWS, PROBE_COLS, PROBE_PER_ROW = 8000, 4096, 100


class SpeedProbe:
    """A fixed kernel timed between operations, to read the machine's speed.

    The machine is shared, and its speed drifts by a fifth or more within a
    minute, alike for sparse products and interpreted code.  A run's median
    of raw times then mostly says when the run happened.  Timing this kernel
    just before and just after each operation, on the core the operation
    ran on, reads that drift, and `scale` turns the operation's wall time
    into seconds at the speed where the kernel takes NOMINAL_S.  The kernel
    does not use lactdiff, so a change to lactdiff cannot move it.
    """

    def __init__(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        nnz = PROBE_ROWS * PROBE_PER_ROW
        self._matrix = sp.csr_matrix(
            (
                rng.standard_normal(nnz),
                rng.integers(0, PROBE_COLS, nnz),
                np.arange(0, nnz + 1, PROBE_PER_ROW),
            ),
            shape=(PROBE_ROWS, PROBE_COLS),
        )
        self._x = rng.standard_normal(PROBE_COLS)

    def measure(self):
        started = perf_counter()
        for _ in range(50):
            self._matrix.T @ (self._matrix @ self._x)
        total = 0.0
        for i in range(400_000):
            total += i * 0.5
        return perf_counter() - started

    @staticmethod
    def scale(before, after):
        return NOMINAL_S / (0.5 * (before + after))


def run_child(args, workdir):
    """Run `python3 ARGS` in workdir; returns (exit code, wall s, peak RSS KiB).

    The wall time runs from process start to reaping, so it includes the
    interpreter start and imports a user pays on every command.
    """
    started = perf_counter()
    proc = start_child(args, workdir)
    rc, rss = reap(proc)
    return rc, perf_counter() - started, rss


def start_child(args, workdir, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL):
    """Start `python3 ARGS` in workdir, its stderr appended to stderr.txt there."""
    with open(Path(workdir) / "stderr.txt", "ab") as err:
        return subprocess.Popen(
            [sys.executable, *args], cwd=workdir, env=_child_env(),
            stdin=stdin, stdout=stdout, stderr=err,
        )


def reap(proc):
    """Wait for proc, killed after CHILD_TIMEOUT_S; returns (exit code, peak RSS KiB)."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_lactdiff(argv, workdir, spans_path=None):
    """One `lactdiff ARGV` command in a fresh process, traced when spans_path is set."""
    if spans_path is None:
        return run_child(["-m", "lactdiff.cli", *argv], workdir)
    return run_child([str(HERE / "child.py"), "trace", str(spans_path), "--", *argv], workdir)


# ---------------------------------------------------------------- checks


def check_exit(rc):
    return None if rc == 0 else f"exit code {rc}"


def read_checked(path, kind, shape):
    """(raster, None) when path parses as a `kind` raster of `shape`, else (None, error)."""
    try:
        raster = core.read_raster(path)
    except (OSError, ValueError) as exc:
        return None, f"{Path(path).name}: {type(exc).__name__}: {exc}"
    if not isinstance(raster, kind) or raster.shape != shape:
        return None, f"{Path(path).name}: {type(raster).__name__} {raster.shape}, expected {kind.__name__} {shape}"
    return raster, None


def check_noise_level(sino, clean, noise_std):
    """The projected sinogram minus the noiseless one has RMS noise_std (±NOISE_RMS_TOL)."""
    rms = float(np.sqrt(np.mean((sino.as_f64() - clean.as_f64()) ** 2)))
    if abs(rms - noise_std) <= NOISE_RMS_TOL * noise_std:
        return None
    return f"sinogram noise RMS {rms:.6g}, expected {noise_std} +- {NOISE_RMS_TOL:.0%}"


def check_psnr(image, phantom, floor_db):
    value = evaluation.psnr(image, phantom)
    if value >= floor_db:
        return None
    return f"PSNR {value:.3f} dB below the floor {floor_db} dB"


def read_residual(manifest_path):
    """mean_final_residual from a sample manifest; nan when absent or unparsable."""
    try:
        text = Path(manifest_path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError):
        return math.nan
    for line in text.splitlines():
        if line.startswith("mean_final_residual: "):
            try:
                return float(line.split(": ", 1)[1])
            except ValueError:
                return math.nan
    return math.nan


def check_residual(residual, ceiling):
    if math.isfinite(residual) and residual <= ceiling:
        return None
    return f"mean final residual {residual} is not finite or above {ceiling}"


def check_posterior(samples, oracle_mean, oracle_cov, mean_se, var_se):
    """Pooled chains against the closed-form posterior, as in criterion 5:
    every coordinate's mean within mean_se standard errors and its variance
    within var_se standard errors of the oracle's."""
    n = samples.shape[0]
    var = np.diag(oracle_cov)
    if n < 2 or not np.all(np.isfinite(samples)):
        return f"{n} pooled chains, or non-finite values"
    z_mean = np.abs(samples.mean(axis=0) - oracle_mean) / np.sqrt(var / n)
    z_var = np.abs(samples.var(axis=0, ddof=1) - var) / (var * np.sqrt(2.0 / (n - 1)))
    if z_mean.max() <= mean_se and z_var.max() <= var_se:
        return None
    return (
        f"{n} chains: worst mean error {z_mean.max():.2f} SE (limit {mean_se}), "
        f"worst variance error {z_var.max():.2f} SE (limit {var_se})"
    )


# ---------------------------------------------------------------- workloads


class OpResult:
    """One operation: its kind, wall time, peak RSS (KiB) and check error.

    `scaled` is the wall time at the speed probe's nominal machine speed; the
    runner sets it when it measures the probe around the operation.  gauss_4x4
    sets rss_kb in `finish`, when its draw process exits.
    """

    def __init__(self, kind, wall, rss_kb, error, **values):
        self.kind, self.wall, self.rss_kb, self.error = kind, wall, rss_kb, error
        self.scaled = wall
        self.values = values


def plan_sizes(geom):
    """Sizes of the stencil plan lactdiff builds for geom, and of one product.

    Read from the plan the package builds (its CSR arrays), not timed: a
    product reads the plan once, reads x and writes y.
    """
    if geom is None:
        return {"tomography.plan_nnz": 0, "plan_bytes": 0, "tomography.product_bytes": 0}
    plan = tomography._stencil_plan(geom)
    plan_bytes = plan.data.nbytes + plan.indices.nbytes + plan.indptr.nbytes
    m, n = plan.shape
    return {
        "tomography.plan_nnz": int(plan.nnz),
        "plan_bytes": int(plan_bytes),
        "tomography.product_bytes": int(plan_bytes + 8 * (m + n)),
    }


class CtWorkload:
    """Shepp-Logan phantom, projected with noise in set-up; CLI operations."""

    phantom_kind = evaluation.PhantomKind.SHEPP_LOGAN
    noise_std = 0.01
    theta_max = 60.0

    def geometry(self):
        return tomography.make_limited_geometry(
            self.size, tomography.default_detectors(self.size), self.views, self.theta_max
        )

    def setup(self, seed, workdir):
        workdir = Path(workdir)
        phantom = evaluation.make_phantom(evaluation.PhantomSpec(self.phantom_kind, self.size))
        clean = tomography.forward_project(phantom, self.geometry())
        noise = core.SeededRng(seed).standard_normal(clean.views * clean.detectors)
        noisy = core.Sinogram(
            clean.views, clean.detectors, clean.angles_deg,
            clean.as_f64() + self.noise_std * noise.reshape(clean.shape),
        )
        core.write_raster(workdir / "phantom.ctr", phantom)
        core.write_raster(workdir / "clean.ctr", clean)
        core.write_raster(workdir / "sino.ctr", noisy)

    def prepare(self, seed, workdir):
        return {
            "seed": seed,
            "workdir": Path(workdir),
            "phantom": core.read_raster(Path(workdir) / "phantom.ctr"),
            "clean": core.read_raster(Path(workdir) / "clean.ctr"),
        }

    def finish(self, state, results):
        return None


class Classical128(CtWorkload):
    name = "classical_128"
    why = ("tomography and solvers do nearly all the work, each command on a cold plan "
           "in a fresh process; the sampler is bypassed")
    size, views = 128, 240
    kinds = ("project", "fbp", "rls", "tv")
    psnr_floor_db = {"fbp": 8.8, "rls": 14.45, "tv": 16.4}

    def argv(self, kind, state, index):
        if kind == "project":
            return ["project", "--in", "phantom.ctr", "--views", str(self.views),
                    "--theta-max", f"{self.theta_max:g}", "--noise-std", f"{self.noise_std:g}",
                    "--seed", str(state["seed"]), "--out", "out_project.ctr"]
        extra = {"fbp": [], "rls": ["--iters", "60"], "tv": ["--iters", "40", "--lam", "1.0"]}
        return ["reconstruct", "--method", kind, "--in", "sino.ctr", "--size", str(self.size),
                *extra[kind], "--out", f"out_{kind}.ctr"]

    def run_op(self, kind, state, index, spans_path=None):
        out = state["workdir"] / f"out_{kind}.ctr"
        out.unlink(missing_ok=True)
        rc, wall, rss = run_lactdiff(self.argv(kind, state, index), state["workdir"], spans_path)
        values = {}
        error = check_exit(rc) or self.check_output(kind, out, state, values)
        return OpResult(kind, wall, rss, error, **values)

    def check_output(self, kind, path, state, values):
        if kind == "project":
            sino, error = read_checked(path, core.Sinogram, state["clean"].shape)
            return error or check_noise_level(sino, state["clean"], self.noise_std)
        image, error = read_checked(path, core.Image, (self.size, self.size))
        if error:
            return error
        values["psnr_db"] = evaluation.psnr(image, state["phantom"])
        return check_psnr(image, state["phantom"], self.psnr_floor_db[kind])


class Sample64(CtWorkload):
    name = "sample_64"
    why = ("the paper's pipeline: thousands of A and A^T products on one warm plan inside "
           "capped prox CG; prox, operator and CG changes show here")
    size, views = 64, 120
    kinds = ("sample",)
    n_samples = 2
    psnr_floor_db = 18.4
    residual_ceiling = 3.7

    def argv(self, kind, state, index):
        return ["sample", "--in", "sino.ctr", "--size", str(self.size), "--condition", "rls",
                "--prior", "builtin", "--K", "20", "--gamma", "1.0",
                "--samples", str(self.n_samples), "--seed", str(self.op_seed(state, index)),
                "--out-dir", "out_sample"]

    @staticmethod
    def op_seed(state, index):
        return (state["seed"] * 10_000 + index) % (1 << 32)

    def run_op(self, kind, state, index, spans_path=None):
        out = state["workdir"] / "out_sample"
        shutil.rmtree(out, ignore_errors=True)
        rc, wall, rss = run_lactdiff(self.argv(kind, state, index), state["workdir"], spans_path)
        values = {}
        error = check_exit(rc) or self.check_output(out, state, values)
        return OpResult(kind, wall, rss, error, **values)

    def check_output(self, out, state, values):
        shape = (self.size, self.size)
        for i in range(self.n_samples):
            _, error = read_checked(out / f"sample_{i:03d}.ctr", core.Image, shape)
            if error:
                return error
        average, error = read_checked(out / "average.ctr", core.Image, shape)
        if error:
            return error
        values["psnr_db"] = evaluation.psnr(average, state["phantom"])
        values["residual"] = read_residual(out / "manifest.txt")
        return (check_residual(values["residual"], self.residual_ceiling)
                or check_psnr(average, state["phantom"], self.psnr_floor_db))


class Gauss4x4:
    """Criterion 5's posterior, with the map, truth and noise drawn from the seed.

    The operations run in one fresh process per run (`child.py draw`), which
    builds the denoiser once and then draws when asked on its stdin.  Its
    peak RSS, from wait4 when it exits, is that of the chains alone, not of
    this driver, the oracle or the speed probe.
    """

    name = "gauss_4x4"
    why = ("per-step overhead of sampler, denoiser, diffusion and core on a closed-form "
           "posterior; tomography and solvers are bypassed")
    kinds = ("draw",)
    dim, rows, noise_var = 16, 8, 0.05
    T, steps, chains = 2000, 200, 50
    # the posterior check pools the chains of the first POOL_OPS operations
    # only (500 chains, as in criterion 5), so its strictness does not grow
    # with the number of operations a faster sampler fits into a run
    POOL_OPS = 10
    # criterion 5 allows 3 SE on the mean of one fixed seed; over arbitrary
    # seeds and 16 coordinates that flags a correct sampler in about 4% of
    # runs, so the familywise limit is set to about 1e-4 per run instead
    mean_se, var_se = 4.5, 5.0

    def problem(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((self.rows, self.dim)) * np.geomspace(0.25, 2.0, self.dim)
        x_true = rng.standard_normal(self.dim)
        y = matrix @ x_true + math.sqrt(self.noise_var) * rng.standard_normal(self.rows)
        prior = denoiser.GmmPrior(self.dim, [1.0], np.zeros((1, self.dim)), [1.0])
        return prior, matrix, y

    def build(self, seed):
        """The conditional denoiser and schedule the operations sample with."""
        prior, matrix, y = self.problem(seed)
        sched = diffusion.default_linear_schedule(self.T)
        return denoiser.ConditionalGmmDenoiser(prior, matrix, y, self.noise_var, sched), sched

    def draw(self, model, sched, seed, index):
        """Operation `index`: 50 chains as a (50, 16) array."""
        cfg = sampler.SamplerConfig(
            steps=self.steps, seed=seed * 100_000 + self.chains * index, n_samples=self.chains,
        )
        result = sampler.draw_samples(
            model, None, None, (4, 4), denoiser.ConditionInput.none(4, 4), sched, cfg
        )
        return np.stack([s.as_f64().ravel() for s in result.samples])

    def setup(self, seed, workdir=None):
        self.build(seed)
        self.prepare(seed, workdir)

    def prepare(self, seed, workdir):
        prior, matrix, y = self.problem(seed)
        mean, cov = evaluation.gaussian_posterior_oracle(prior, matrix, y, self.noise_var)
        return {"seed": seed, "workdir": Path(workdir), "mean": mean, "cov": cov, "pool": []}

    def run_op(self, kind, state, index, spans_path=None):
        proc = state.get("proc")
        if proc is None:
            args = [str(HERE / "child.py"), "draw", str(state["seed"])]
            proc = state["proc"] = start_child(
                args + ([str(spans_path)] if spans_path else []), state["workdir"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
        started = perf_counter()
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            proc.stdin.write(f"{index}\n".encode())
            proc.stdin.flush()
            reply = proc.stdout.readline()
        except BrokenPipeError:
            reply = b""
        finally:
            watchdog.cancel()
        if not reply:
            return OpResult(kind, perf_counter() - started, None, "the draw process ended early")
        reply = json.loads(reply)
        chains, error = np.array(reply["chains"]), None
        if chains.shape != (self.chains, self.dim) or not np.all(np.isfinite(chains)):
            error = f"draw_samples returned {chains.shape} or non-finite values"
        elif index < self.POOL_OPS:
            state["pool"].append(chains)
        return OpResult(kind, reply["wall"], None, error, steps=self.chains * self.steps)

    def finish(self, state, results):
        """Stop the draw process, give every result its peak RSS, check the pool."""
        proc = state.pop("proc", None)
        if proc is not None:
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            rc, rss = reap(proc)
            proc.stdout.close()
            for result in results:
                result.rss_kb = rss
            if rc != 0:
                return f"the draw process exited with {rc}"
        pool = np.concatenate(state["pool"]) if state["pool"] else np.empty((0, self.dim))
        return check_posterior(pool, state["mean"], state["cov"], self.mean_se, self.var_se)

    def geometry(self):
        return None


WORKLOADS = {w.name: w for w in (Classical128(), Sample64(), Gauss4x4())}
