"""Command-line pipeline: exit codes, determinism, manifests."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lactdiff
from lactdiff import solvers, tomography
from lactdiff.cli import main
from lactdiff.core import Image, Sinogram, read_raster, write_raster
from lactdiff.denoiser import GmmPrior, gmm_denoiser
from lactdiff.diffusion import default_linear_schedule
from lactdiff.sampler import SamplerConfig, build_condition, sample_posterior
from lactdiff.solvers import ProxConfig
from lactdiff.tomography import (
    TomoOperator,
    back_project,
    forward_project,
    make_limited_geometry,
    square_geometry,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_projections(monkeypatch):
    """Fail any projection from here on, streamed or through a plan.

    Both paths compute the stencil of each view with _view_stencil.
    """

    def refuse(geom, theta_deg, work):
        raise AssertionError("a projection ran")

    monkeypatch.setattr(tomography, "_view_stencil", refuse)


def count_builds_and_estimates(monkeypatch):
    """Lists that collect the geometry of every plan build and ||A^T A|| estimate."""
    builds, estimates = [], []
    build, estimate = tomography._build_stencil_matrix, solvers.operator_norm_sq

    def counted_build(geom):
        builds.append(geom)
        return build(geom)

    def counted_estimate(op, *args, **kwargs):
        estimates.append(op.geom)
        return estimate(op, *args, **kwargs)

    monkeypatch.setattr(tomography, "_build_stencil_matrix", counted_build)
    monkeypatch.setattr(solvers, "operator_norm_sq", counted_estimate)
    return builds, estimates


def run_fresh(code):
    """stdout of `python -c code` in a fresh interpreter importing this lactdiff."""
    env = dict(os.environ, PYTHONPATH=str(Path(lactdiff.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=60,
        capture_output=True, text=True,
    ).stdout


def loaded_by_cli_import(name):
    """Whether `import lactdiff.cli` (and so `import lactdiff`) loads module `name`."""
    return run_fresh(f"import sys, lactdiff.cli; print({name!r} in sys.modules)") == "True\n"


def test_cli_import_leaves_out_scipy_sparse():
    # scipy.sparse loads at a geometry's first plan build, which only TomoOperator products make
    assert not loaded_by_cli_import("scipy.sparse")


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal loads only when ssim runs
    assert not loaded_by_cli_import("scipy.signal")


def test_cli_import_leaves_out_scipy_special():
    # normals and log-sum-exp come from numpy
    assert not loaded_by_cli_import("scipy.special")


def test_phantom_command_leaves_out_scipy_sparse(tmp_path):
    out = tmp_path / "p.ctr"
    code = (
        "import sys; from lactdiff.cli import main; "
        f"main(['phantom', '--kind', 'disks', '--size', '16', '--out', {str(out)!r}]); "
        "print('scipy.sparse' in sys.modules)"
    )
    assert run_fresh(code) == "False\n"
    assert read_raster(out).shape == (16, 16)
    assert "version.scipy" not in (tmp_path / "p.manifest.txt").read_text()


def test_first_plan_build_loads_scipy_sparse():
    # in a fresh process, one-off projections stream the stencil without
    # scipy; the first TomoOperator product builds the plan and imports
    # scipy.sparse.  The products are the bytes this process computes.
    code = (
        "import sys; import numpy as np; from lactdiff.core import Image; "
        "from lactdiff.tomography import TomoOperator, back_project, forward_project, "
        "make_limited_geometry; "
        "geom = make_limited_geometry(16, 24, 12, 60.0); "
        "sino = forward_project(Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0), geom); "
        "back = back_project(sino, geom); "
        "streamed = 'scipy.sparse' in sys.modules; "
        "TomoOperator(geom).forward(np.ones(256)); "
        "print(streamed, 'scipy.sparse' in sys.modules, "
        "sino.data.tobytes().hex(), back.data.tobytes().hex())"
    )
    streamed, after, sino_hex, back_hex = run_fresh(code).split()
    assert (streamed, after) == ("False", "True")
    geom = make_limited_geometry(16, 24, 12, 60.0)
    sino = forward_project(Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0), geom)
    assert sino_hex == sino.data.tobytes().hex()
    assert back_hex == back_project(sino, geom).data.tobytes().hex()


def test_project_and_fbp_commands_leave_out_scipy_sparse(tmp_path):
    # each makes one product, which streams; neither builds a plan
    phantom, sino, recon = tmp_path / "p.ctr", tmp_path / "s.ctr", tmp_path / "r.ctr"
    write_raster(phantom, Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0))
    commands = [
        ["project", "--in", str(phantom), "--views", "12", "--noise-std", "0.01",
         "--out", str(sino)],
        ["reconstruct", "--method", "fbp", "--in", str(sino), "--size", "16",
         "--out", str(recon)],
    ]
    for argv in commands:
        code = (
            "import sys; from lactdiff.cli import main; "
            f"code = main({argv!r}); print(code, 'scipy.sparse' in sys.modules)"
        )
        assert run_fresh(code) == "0 False\n"
    for out in (sino, recon):
        assert "version.scipy" not in out.with_suffix(".manifest.txt").read_text()


def test_manifests_record_versions(tmp_path, capsys):
    phantom, sino = tmp_path / "p.ctr", tmp_path / "s.ctr"
    commands = {
        "p.manifest.txt": ["phantom", "--kind", "disks", "--size", "16", "--out", str(phantom)],
        "s.manifest.txt": ["project", "--in", str(phantom), "--views", "8",
                           "--noise-std", "0.01", "--out", str(sino)],
        "r.manifest.txt": ["reconstruct", "--method", "fbp", "--in", str(sino),
                           "--size", "16", "--out", str(tmp_path / "r.ctr")],
        "run/manifest.txt": ["sample", "--in", str(sino), "--size", "16", "--K", "3",
                             "--T", "60", "--samples", "1", "--out-dir", str(tmp_path / "run")],
    }
    for manifest, argv in commands.items():
        assert run(capsys, *argv)[0] == 0
        lines = (tmp_path / manifest).read_text().splitlines()
        versions = dict(line.split(": ", 1) for line in lines if line.startswith("version."))
        want = {"version.lactdiff": lactdiff.__version__, "version.numpy": np.__version__}
        # scipy is recorded when loaded: a plan build loads it, and this
        # process may have loaded it before
        if "scipy" in sys.modules:
            want["version.scipy"] = sys.modules["scipy"].__version__
        assert versions == want


def test_one_acquisition_has_one_geometry_digest(tmp_path, capsys):
    # 45 views over 60 degrees: steps of 4/3 degree, which float32 rounds
    phantom, sino = tmp_path / "p.ctr", tmp_path / "s.ctr"
    commands = {
        "s.manifest.txt": ["project", "--in", str(phantom), "--views", "45",
                           "--theta-max", "60", "--out", str(sino)],
        "r.manifest.txt": ["reconstruct", "--method", "fbp", "--in", str(sino),
                           "--size", "32", "--out", str(tmp_path / "r.ctr")],
        "run/manifest.txt": ["sample", "--in", str(sino), "--size", "32", "--K", "3",
                             "--T", "60", "--samples", "1", "--out-dir", str(tmp_path / "run")],
    }
    assert run(capsys, "phantom", "--kind", "shepp_logan", "--size", "32",
               "--out", str(phantom))[0] == 0
    digests = []
    for manifest, argv in commands.items():
        assert run(capsys, *argv)[0] == 0
        lines = (tmp_path / manifest).read_text().splitlines()
        digests += [line for line in lines if line.startswith("geometry.digest: ")]
    assert len(digests) == 3 and len(set(digests)) == 1


class TestPhantomCommand:
    def test_writes_valid_raster(self, tmp_path, capsys):
        out = tmp_path / "p.ctr"
        code, _, _ = run(capsys, "phantom", "--kind", "shepp_logan", "--size", "32",
                         "--out", str(out))
        assert code == 0
        img = read_raster(out)
        assert img.shape == (32, 32)

    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.ctr"
        b = tmp_path / "b.ctr"
        for out in (a, b):
            code, _, _ = run(capsys, "phantom", "--kind", "disks", "--size", "32",
                             "--seed", "5", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_below_minimum_size_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "phantom", "--kind", "disks", "--size", "4",
                           "--out", str(tmp_path / "p.ctr"))
        assert code == 2

    @pytest.mark.parametrize("kind", ["shepp_logan", "disks", "ellipses"])
    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys, kind, seed):
        # the seed is checked whether or not the kind draws from it
        out = tmp_path / "p.ctr"
        code, _, err = run(capsys, "phantom", "--kind", kind, "--size", "16",
                           "--seed", seed, "--out", str(out))
        assert code == 2
        assert "seed" in err
        assert not out.exists()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--kind", "cube", "--size", "32",
                  "--out", str(tmp_path / "p.ctr")])
        assert exc.value.code == 2


class TestProjectCommand:
    @pytest.fixture()
    def phantom_file(self, tmp_path, capsys):
        out = tmp_path / "p.ctr"
        assert run(capsys, "phantom", "--kind", "shepp_logan", "--size", "32",
                   "--out", str(out))[0] == 0
        return out

    def test_noiseless_is_deterministic(self, phantom_file, tmp_path, capsys):
        a, b = tmp_path / "a.ctr", tmp_path / "b.ctr"
        for out in (a, b):
            code, _, _ = run(capsys, "project", "--in", str(phantom_file),
                             "--views", "12", "--noise-std", "0", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_angle_block_spacing(self, phantom_file, tmp_path, capsys):
        out = tmp_path / "s.ctr"
        code, _, _ = run(capsys, "project", "--in", str(phantom_file),
                         "--views", "240", "--theta-max", "60", "--out", str(out))
        assert code == 0
        sino = read_raster(out)
        assert sino.views == 240
        assert np.allclose(np.diff(sino.angles_deg.astype(np.float64)), 0.25, atol=1e-5)
        assert sino.angles_deg[-1] < 60.0

    def test_theta_out_of_range_is_usage_error(self, phantom_file, tmp_path, capsys):
        code, _, _ = run(capsys, "project", "--in", str(phantom_file),
                         "--views", "12", "--theta-max", "200",
                         "--out", str(tmp_path / "s.ctr"))
        assert code == 2

    def test_negative_noise_fails_before_the_plan(
        self, phantom_file, tmp_path, capsys, monkeypatch
    ):
        refuse_projections(monkeypatch)
        code, _, err = run(capsys, "project", "--in", str(phantom_file),
                           "--views", "12", "--noise-std", "-0.1",
                           "--out", str(tmp_path / "s.ctr"))
        assert code == 2
        assert "noise std" in err

    @pytest.mark.parametrize("std", ["nan", "inf"])
    def test_non_finite_noise_is_usage_error(
        self, phantom_file, tmp_path, capsys, monkeypatch, std
    ):
        refuse_projections(monkeypatch)
        out = tmp_path / "s.ctr"
        code, _, err = run(capsys, "project", "--in", str(phantom_file),
                           "--views", "12", "--noise-std", std, "--out", str(out))
        assert code == 2
        assert "noise std" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("std", ["1e39", "1e308"])
    def test_noise_beyond_float32_is_usage_error(self, phantom_file, tmp_path, capsys, std):
        # 1e39 overflows only the float32 cast, 1e308 already the float64 sum
        out = tmp_path / "s.ctr"
        code, _, err = run(capsys, "project", "--in", str(phantom_file),
                           "--views", "12", "--noise-std", std, "--out", str(out))
        assert code == 2
        assert "--noise-std" in err
        assert not out.exists()

    def test_negative_detector_count_is_usage_error(
        self, phantom_file, tmp_path, capsys, monkeypatch
    ):
        # 0 asks for the default; a negative count is a mistake, not the default
        refuse_projections(monkeypatch)
        out = tmp_path / "s.ctr"
        code, _, err = run(capsys, "project", "--in", str(phantom_file),
                           "--views", "12", "--detectors", "-5", "--out", str(out))
        assert code == 2
        assert "detector count" in err
        assert not out.exists()

    @pytest.mark.parametrize("std", ["0", "0.01"])
    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_is_usage_error(
        self, phantom_file, tmp_path, capsys, monkeypatch, std, seed
    ):
        # the seed is checked whether or not noise is drawn, before projecting
        refuse_projections(monkeypatch)
        out = tmp_path / "s.ctr"
        code, _, err = run(capsys, "project", "--in", str(phantom_file), "--views", "12",
                           "--noise-std", std, "--seed", seed, "--out", str(out))
        assert code == 2
        assert "seed" in err
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "project", "--in", str(tmp_path / "nope.ctr"),
                         "--views", "12", "--out", str(tmp_path / "s.ctr"))
        assert code == 3

    def test_corrupt_input_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ctr"
        bad.write_bytes(b"XXXX" + bytes(32))
        code, _, _ = run(capsys, "project", "--in", str(bad),
                         "--views", "12", "--out", str(tmp_path / "s.ctr"))
        assert code == 3

    def test_seeded_noise_is_reproducible(self, phantom_file, tmp_path, capsys):
        a, b = tmp_path / "a.ctr", tmp_path / "b.ctr"
        for out in (a, b):
            code, _, _ = run(capsys, "project", "--in", str(phantom_file),
                             "--views", "12", "--noise-std", "0.05", "--seed", "11",
                             "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestReconstructAndMetrics:
    @pytest.fixture()
    def pipeline(self, tmp_path, capsys):
        phantom = tmp_path / "p.ctr"
        sino = tmp_path / "s.ctr"
        assert run(capsys, "phantom", "--kind", "disks", "--size", "32", "--seed", "1",
                   "--out", str(phantom))[0] == 0
        assert run(capsys, "project", "--in", str(phantom), "--views", "24",
                   "--theta-max", "60", "--out", str(sino))[0] == 0
        return phantom, sino

    def test_rls_beats_fbp_on_limited_angles(self, pipeline, tmp_path, capsys):
        phantom, sino = pipeline
        scores = {}
        for method in ("fbp", "rls"):
            out = tmp_path / f"{method}.ctr"
            code, _, _ = run(capsys, "reconstruct", "--method", method, "--in",
                             str(sino), "--size", "32", "--iters", "40",
                             "--out", str(out))
            assert code == 0
            code, text, _ = run(capsys, "metrics", "--recon", str(out),
                                "--reference", str(phantom))
            assert code == 0
            scores[method] = float(text.strip().split(",")[0])
        assert scores["rls"] >= scores["fbp"]

    def test_narrow_detector_array_round_trips(self, tmp_path, capsys):
        # a bin count below the diagonal widens the spacing on both sides
        phantom = tmp_path / "p.ctr"
        sino = tmp_path / "s.ctr"
        assert run(capsys, "phantom", "--kind", "disks", "--size", "32", "--seed", "3",
                   "--out", str(phantom))[0] == 0
        assert run(capsys, "project", "--in", str(phantom), "--views", "20",
                   "--detectors", "32", "--out", str(sino))[0] == 0
        code, _, _ = run(capsys, "reconstruct", "--method", "fbp", "--in", str(sino),
                         "--size", "32", "--out", str(tmp_path / "r.ctr"))
        assert code == 0

    def test_tv_runs(self, pipeline, tmp_path, capsys):
        _, sino = pipeline
        out = tmp_path / "tv.ctr"
        code, _, _ = run(capsys, "reconstruct", "--method", "tv", "--in", str(sino),
                         "--size", "32", "--iters", "15", "--lam", "1.0",
                         "--out", str(out))
        assert code == 0

    @pytest.mark.parametrize("method", ["rls", "tv"])
    def test_single_pixel_image(self, method, tmp_path, capsys):
        # a 1x1 image has no pixel differences, so TV contributes nothing
        sino = tmp_path / "s.ctr"
        write_raster(sino, Sinogram(3, 3, [0.0, 30.0, 60.0], np.ones((3, 3))))
        code, _, err = run(capsys, "reconstruct", "--method", method, "--in", str(sino),
                           "--size", "1", "--iters", "5", "--out", str(tmp_path / "r.ctr"))
        assert code == 0, err
        assert read_raster(tmp_path / "r.ctr").shape == (1, 1)

    def test_manifest_records_norm_and_tau(self, pipeline, tmp_path, capsys, monkeypatch):
        _, sino = pipeline
        raster = read_raster(sino)
        geom = square_geometry(32, raster.detectors, raster.angles_deg)
        norm_sq = solvers.operator_norm_sq(tomography.TomoOperator(geom))
        estimates = []
        original = solvers.operator_norm_sq

        def counted(op):
            estimates.append(op)
            return original(op)

        monkeypatch.setattr(solvers, "operator_norm_sq", counted)
        cases = {
            "rls": (["--method", "rls"], norm_sq, 0.05 * norm_sq),
            "rls-tau": (["--method", "rls", "--tau", "2.5"], "n/a", 2.5),
            "tv": (["--method", "tv", "--lam", "1.0"], norm_sq, None),
            "fbp": (["--method", "fbp"], None, None),
        }
        for name, (extra, want_norm, want_tau) in cases.items():
            estimates.clear()
            out = tmp_path / f"{name}.ctr"
            assert run(capsys, "reconstruct", "--in", str(sino), "--size", "32",
                       "--iters", "5", "--out", str(out), *extra)[0] == 0
            lines = (tmp_path / f"{name}.manifest.txt").read_text().splitlines()
            fields = dict(line.split(": ", 1) for line in lines[1:])
            # at most one estimate per command: the manifest reads the geometry's value
            assert len(estimates) == (0 if want_norm in (None, "n/a") else 1)
            if want_norm is None:
                assert "operator.norm_sq" not in fields
            else:
                assert fields["operator.norm_sq"] == str(want_norm)
            if want_tau is None:
                assert "resolved.tau" not in fields
            else:
                assert float(fields["resolved.tau"]) == want_tau
        assert "param.tau: None" in (tmp_path / "rls.manifest.txt").read_text()
        original_bytes = (tmp_path / "rls.ctr").read_bytes()
        (tmp_path / "rls.ctr").unlink()
        assert run(capsys, "--manifest-in", str(tmp_path / "rls.manifest.txt"))[0] == 0
        assert (tmp_path / "rls.ctr").read_bytes() == original_bytes

    @pytest.mark.parametrize("method", ["rls", "tv"])
    def test_one_build_and_one_estimate(self, method, pipeline, tmp_path, capsys, monkeypatch):
        _, sino = pipeline
        builds, estimates = count_builds_and_estimates(monkeypatch)
        assert run(capsys, "reconstruct", "--method", method, "--in", str(sino),
                   "--size", "32", "--iters", "5", "--out", str(tmp_path / "r.ctr"))[0] == 0
        assert len(builds) == 1
        assert estimates == builds

    def test_unknown_method_is_usage_error(self, pipeline, tmp_path):
        _, sino = pipeline
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--method", "magic", "--in", str(sino),
                  "--size", "32", "--out", str(tmp_path / "x.ctr")])
        assert exc.value.code == 2

    def test_rls_zero_iterations_is_usage_error(self, pipeline, tmp_path, capsys, monkeypatch):
        # as --method tv --iters 0 is
        _, sino = pipeline
        refuse_projections(monkeypatch)
        out = tmp_path / "r.ctr"
        code, _, _ = run(capsys, "reconstruct", "--method", "rls", "--in", str(sino),
                         "--size", "32", "--iters", "0", "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_metrics_identical_files(self, pipeline, capsys):
        phantom, _ = pipeline
        code, text, _ = run(capsys, "metrics", "--recon", str(phantom),
                            "--reference", str(phantom))
        assert code == 0
        assert text.strip() == "inf,1.0"

    def test_metrics_offset_pair(self, tmp_path, capsys):
        ref = Image(16, 16, np.linspace(0.0, 1.0, 256).reshape(16, 16))
        shifted = Image(16, 16, ref.as_f64() + 0.1)
        ra, rb = tmp_path / "ref.ctr", tmp_path / "x.ctr"
        write_raster(ra, ref)
        write_raster(rb, shifted)
        code, text, _ = run(capsys, "metrics", "--recon", str(rb), "--reference", str(ra))
        assert code == 0
        assert float(text.strip().split(",")[0]) == pytest.approx(20.0, abs=1e-3)

    def test_metrics_shape_mismatch_is_usage_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.ctr", tmp_path / "b.ctr"
        write_raster(a, Image(16, 16, np.zeros((16, 16))))
        write_raster(b, Image(16, 12, np.zeros((16, 12))))
        code, _, _ = run(capsys, "metrics", "--recon", str(a), "--reference", str(b))
        assert code == 2

    def test_full_view_fbp_reaches_30db(self, tmp_path, capsys):
        phantom = tmp_path / "p.ctr"
        sino = tmp_path / "s.ctr"
        recon = tmp_path / "fbp.ctr"
        assert run(capsys, "phantom", "--kind", "shepp_logan", "--size", "128",
                   "--out", str(phantom))[0] == 0
        assert run(capsys, "project", "--in", str(phantom), "--views", "180",
                   "--theta-max", "180", "--out", str(sino))[0] == 0
        assert run(capsys, "reconstruct", "--method", "fbp", "--in", str(sino),
                   "--size", "128", "--out", str(recon))[0] == 0
        code, text, _ = run(capsys, "metrics", "--recon", str(recon),
                            "--reference", str(phantom))
        assert code == 0
        assert float(text.strip().split(",")[0]) >= 30.0

    def test_metrics_full_csv_row(self, pipeline, tmp_path, capsys):
        phantom, _ = pipeline
        code, text, _ = run(capsys, "metrics", "--recon", str(phantom),
                            "--reference", str(phantom), "--phantom-id", "p1",
                            "--method", "fbp", "--theta-max", "60", "--views", "24")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "phantom_id,method,theta_max,views,psnr_db,ssim"
        assert lines[1].startswith("p1,fbp,60,24,inf,")


class TestSampleCommand:
    @pytest.fixture()
    def sino64(self, tmp_path, capsys):
        phantom = tmp_path / "p.ctr"
        sino = tmp_path / "s.ctr"
        assert run(capsys, "phantom", "--kind", "disks", "--size", "24", "--seed", "2",
                   "--out", str(phantom))[0] == 0
        assert run(capsys, "project", "--in", str(phantom), "--views", "18",
                   "--theta-max", "90", "--out", str(sino))[0] == 0
        return sino

    def test_deterministic_outputs(self, sino64, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            code, _, _ = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                             "--K", "8", "--T", "60", "--samples", "1", "--seed", "3",
                             "--out-dir", str(out_dir))
            assert code == 0
            outs.append((out_dir / "sample_000.ctr").read_bytes())
        assert outs[0] == outs[1]

    def test_prox_improves_final_residual(self, sino64, tmp_path, capsys):
        def residual_of(out_dir, *extra):
            code, _, _ = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                             "--K", "10", "--T", "60", "--samples", "2", "--seed", "4",
                             "--gamma", "2.0", "--out-dir", str(out_dir), *extra)
            assert code == 0
            text = (out_dir / "manifest.txt").read_text()
            for line in text.splitlines():
                if line.startswith("mean_final_residual:"):
                    return float(line.split(":")[1])
            raise AssertionError("manifest lacks residual field")

        with_prox = residual_of(tmp_path / "on")
        without = residual_of(tmp_path / "off", "--no-prox")
        assert with_prox <= without

    def test_one_build_and_one_estimate(self, sino64, tmp_path, capsys, monkeypatch):
        builds, estimates = count_builds_and_estimates(monkeypatch)
        assert run(capsys, "sample", "--in", str(sino64), "--size", "24", "--K", "4",
                   "--T", "60", "--samples", "2", "--out-dir", str(tmp_path / "run"))[0] == 0
        assert len(builds) == 1
        assert estimates == builds

    def test_chain_longer_than_schedule_is_usage_error(self, sino64, tmp_path, capsys):
        code, _, _ = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                         "--K", "80", "--T", "60", "--samples", "1",
                         "--out-dir", str(tmp_path / "bad"))
        assert code == 2

    @pytest.mark.parametrize("steps, samples", [("0", "1"), ("5", "0"), ("80", "1")])
    def test_bad_config_fails_before_the_condition(
        self, sino64, tmp_path, capsys, monkeypatch, steps, samples
    ):
        refuse_projections(monkeypatch)
        code, _, _ = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                         "--T", "60", "--K", steps, "--samples", samples,
                         "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("bad_line", [b"1 abc 0.5", b"1 0.5\xe9 0.5"],
                             ids=["word", "non_ascii"])
    def test_non_numeric_prior_file_is_usage_error(self, sino64, tmp_path, capsys, bad_line):
        prior = tmp_path / "prior.txt"
        prior.write_bytes(b"# weight, 576 means, variance\n" + bad_line + b"\n")
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--T", "60", "--K", "4", "--samples", "1",
                           "--prior", str(prior), "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert f"{prior} line 2" in err

    @pytest.mark.parametrize("std", ["-0.5", "0", "nan"])
    def test_bad_prior_std_fails_before_the_condition(
        self, sino64, tmp_path, capsys, monkeypatch, std
    ):
        refuse_projections(monkeypatch)
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--T", "60", "--K", "4", "--samples", "1", "--prior-std", std,
                           "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert "--prior-std" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("flag", ["--prior", "--uncond-prior"])
    def test_missing_prior_file_fails_before_the_condition(
        self, sino64, tmp_path, capsys, monkeypatch, flag
    ):
        refuse_projections(monkeypatch)
        missing = tmp_path / "missing.txt"
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--T", "60", "--K", "4", "--samples", "1", flag, str(missing),
                           "--out-dir", str(tmp_path / "bad"))
        assert code == 3
        assert "missing.txt" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_is_usage_error(
        self, sino64, tmp_path, capsys, monkeypatch, seed
    ):
        refuse_projections(monkeypatch)
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--T", "60", "--K", "4", "--samples", "2", "--seed", seed,
                           "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert "seed" in err
        assert not (tmp_path / "bad").exists()

    def test_recorded_chain_seeds_rerun_each_sample(self, sino64, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run(capsys, "sample", "--in", str(sino64), "--size", "24", "--K", "6",
                   "--T", "60", "--samples", "2", "--seed", "3",
                   "--out-dir", str(out_dir))[0] == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        seeds = [int(line.split(": ")[1]) for line in manifest
                 if line.startswith("chain_seed.sample")]
        assert len(seeds) == 2 and seeds[0] != seeds[1]
        # the builtin prior is a Gaussian at the condition with --prior-std 0.5
        sino = read_raster(sino64)
        geom = square_geometry(24, sino.detectors, sino.angles_deg)
        sched = default_linear_schedule(60)
        cond = build_condition(sino, geom, "rls")
        model = gmm_denoiser(GmmPrior(24 * 24, [1.0], cond.image.as_f64().reshape(1, -1),
                                      [0.25]), sched)
        cfg = SamplerConfig(steps=6, prox=ProxConfig(gamma=1.0))
        for i, seed in enumerate(seeds):
            lone = sample_posterior(model, sino.as_f64().ravel(), TomoOperator(geom), (24, 24),
                                    cond, sched, cfg, seed=seed)
            assert read_raster(out_dir / f"sample_{i:03d}.ctr") == lone

    def test_too_short_linear_schedule_names_T(self, sino64, tmp_path, capsys):
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--K", "5", "--T", "20", "--samples", "1",
                           "--out-dir", str(tmp_path / "short"))
        assert code == 2
        assert "T >= 21, got T = 20" in err
        assert "beta_start" not in err
        assert not (tmp_path / "short").exists()

    def test_guidance_needs_unconditional_prior(self, sino64, tmp_path, capsys):
        code, _, _ = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                         "--K", "5", "--T", "60", "--samples", "1",
                         "--lambda", "1.5", "--out-dir", str(tmp_path / "g"))
        assert code == 2
        code, _, _ = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                         "--K", "5", "--T", "60", "--samples", "1",
                         "--lambda", "1.5", "--uncond-prior", "builtin",
                         "--out-dir", str(tmp_path / "g2"))
        assert code == 0

    def test_outputs_include_average_and_uncertainty(self, sino64, tmp_path, capsys):
        out_dir = tmp_path / "full"
        code, _, _ = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                         "--K", "6", "--T", "60", "--samples", "3", "--seed", "0",
                         "--out-dir", str(out_dir))
        assert code == 0
        for name in ("sample_000.ctr", "sample_002.ctr", "average.ctr",
                      "uncertainty.ctr", "manifest.txt"):
            assert (out_dir / name).exists()
        manifest = (out_dir / "manifest.txt").read_text()
        for i in range(3):
            line = next(
                l for l in manifest.splitlines()
                if l.startswith(f"residuals.sample{i}:")
            )
            assert len(line.split(":", 1)[1].split()) == 6  # one entry per step
            capped, steps = manifest.split(f"prox_capped.sample{i}: ")[1].split()[0].split("/")
            assert 0 <= int(capped) <= int(steps) == 6
        assert manifest.startswith("run_manifest v2\n")

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_blowup_exits_with_code_4(self, sino64, tmp_path, capsys):
        # an absurd guidance weight amplifies the branch difference until the
        # float32 chain state overflows; the abort names the failing step
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--K", "5", "--T", "60", "--samples", "1",
                           "--lambda", "1e35", "--uncond-prior", "builtin",
                           "--no-prox", "--out-dir", str(tmp_path / "boom"))
        assert code == 4
        assert "step" in err


class TestManifestReplay:
    def test_replay_reproduces_output(self, tmp_path, capsys):
        out = tmp_path / "p.ctr"
        code, _, _ = run(capsys, "phantom", "--kind", "ellipses", "--size", "32",
                         "--seed", "8", "--out", str(out))
        assert code == 0
        original = out.read_bytes()
        out.unlink()
        manifest = tmp_path / "p.manifest.txt"
        code, _, _ = run(capsys, "--manifest-in", str(manifest))
        assert code == 0
        assert out.read_bytes() == original

    def test_v1_manifest_still_replays(self, tmp_path, capsys):
        # replay reads only the argv line, whose format v2 left unchanged
        out = tmp_path / "p.ctr"
        manifest = tmp_path / "old.manifest.txt"
        argv = shlex.join(["phantom", "--kind", "disks", "--size", "16", "--out", str(out)])
        manifest.write_text(f"run_manifest v1\nargv: {argv}\ncommand: phantom\n")
        assert run(capsys, "--manifest-in", str(manifest))[0] == 0
        assert out.exists()

    def test_non_ascii_path_replays(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "phantom", "--kind", "disks", "--size", "16",
                           "--out", "./phantöm.ctr")
        assert code == 0, err
        out = tmp_path / "phantöm.ctr"
        original = out.read_bytes()
        out.unlink()
        code, _, err = run(capsys, "--manifest-in", "phantöm.manifest.txt")
        assert code == 0, err
        assert out.read_bytes() == original

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "--manifest-in", str(tmp_path / "none.txt"))
        assert code == 3

    def test_command_next_to_replay_is_usage_error(self, tmp_path, capsys):
        first, second = tmp_path / "a.ctr", tmp_path / "b.ctr"
        assert run(capsys, "phantom", "--kind", "shepp_logan", "--size", "16",
                   "--out", str(first))[0] == 0
        original = first.read_bytes()
        first.unlink()
        code, _, err = run(capsys, "--manifest-in", str(tmp_path / "a.manifest.txt"),
                           "phantom", "--kind", "shepp_logan", "--size", "32",
                           "--out", str(second))
        assert code == 2, err
        assert "--manifest-in" in err
        assert not first.exists() and not second.exists()
        assert run(capsys, "--manifest-in", str(tmp_path / "a.manifest.txt"))[0] == 0
        assert first.read_bytes() == original

    @pytest.mark.parametrize(
        "content",
        [b"run_manifest v2\nargv: phantom --kind \xff\xfe\n",
         b"run_manifest v2\nargv: phantom --out 'unclosed\n"],
        ids=["not-utf8", "unclosed-quote"],
    )
    def test_unreadable_manifest_is_format_error(self, tmp_path, capsys, content):
        manifest = tmp_path / "bad.manifest.txt"
        manifest.write_bytes(content)
        code, _, err = run(capsys, "--manifest-in", str(manifest))
        assert code == 3, err
        assert "error:" in err

    def test_project_and_sample_replay(self, tmp_path, capsys):
        phantom = tmp_path / "p.ctr"
        sino = tmp_path / "s.ctr"
        out_dir = tmp_path / "run"
        assert run(capsys, "phantom", "--kind", "disks", "--size", "24", "--seed", "1",
                   "--out", str(phantom))[0] == 0
        assert run(capsys, "project", "--in", str(phantom), "--views", "16",
                   "--theta-max", "120", "--noise-std", "0.02", "--seed", "5",
                   "--out", str(sino))[0] == 0
        assert run(capsys, "sample", "--in", str(sino), "--size", "24", "--K", "6",
                   "--T", "60", "--samples", "2", "--seed", "9",
                   "--out-dir", str(out_dir))[0] == 0
        sino_bytes = sino.read_bytes()
        avg_bytes = (out_dir / "average.ctr").read_bytes()
        seed_lines = [line for line in (out_dir / "manifest.txt").read_text().splitlines()
                      if line.startswith("chain_seed.")]
        sino.unlink()
        (out_dir / "average.ctr").unlink()
        assert run(capsys, "--manifest-in", str(tmp_path / "s.manifest.txt"))[0] == 0
        assert run(capsys, "--manifest-in", str(out_dir / "manifest.txt"))[0] == 0
        assert sino.read_bytes() == sino_bytes
        assert (out_dir / "average.ctr").read_bytes() == avg_bytes
        assert len(seed_lines) == 2 and seed_lines == [
            line for line in (out_dir / "manifest.txt").read_text().splitlines()
            if line.startswith("chain_seed.")
        ]
