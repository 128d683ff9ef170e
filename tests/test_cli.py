"""Command-line pipeline: exit codes, determinism, manifests."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lactdiff
from lactdiff import sampler, solvers, tomography
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
    # plan products load scipy's sparse kernels on their own, without scipy.sparse
    assert not loaded_by_cli_import("scipy.sparse")


def test_cli_import_leaves_out_scipy_signal():
    # ssim smooths with numpy, so no command loads scipy.signal
    assert not loaded_by_cli_import("scipy.signal")


SAMPLING_STACK = ("lactdiff.sampler", "lactdiff.denoiser", "lactdiff.diffusion",
                  "lactdiff.evaluation")


def test_cli_import_leaves_out_the_sampling_stack():
    code = "import sys, lactdiff.cli; print(sorted(m for m in sys.modules if m.startswith('lactdiff')))"
    assert run_fresh(code) == (
        "['lactdiff', 'lactdiff.cli', 'lactdiff.core', 'lactdiff.solvers', "
        "'lactdiff.tomography']\n"
    )


@pytest.mark.parametrize("method", ["project", "fbp", "rls", "tv"])
def test_classical_commands_leave_out_the_sampling_stack(tmp_path, method):
    phantom, sino = tmp_path / "p.ctr", tmp_path / "s.ctr"
    write_raster(phantom, Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0))
    if method == "project":
        argv = ["project", "--in", str(phantom), "--views", "12", "--noise-std", "0.01",
                "--out", str(sino)]
    else:
        assert main(["project", "--in", str(phantom), "--views", "12", "--out", str(sino)]) == 0
        argv = ["reconstruct", "--method", method, "--in", str(sino), "--size", "16",
                "--iters", "5", "--out", str(tmp_path / "r.ctr")]
    code = (
        "import sys; from lactdiff.cli import main; "
        f"code = main({argv!r}); print(code, [m for m in {SAMPLING_STACK!r} if m in sys.modules])"
    )
    assert run_fresh(code) == "0 []\n"


def test_metrics_command_leaves_out_scipy_signal(tmp_path):
    # nor OpenSSL, which scipy.signal loaded through numpy.random
    phantom = tmp_path / "p.ctr"
    write_raster(phantom, Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0))
    argv = ["metrics", "--recon", str(phantom), "--reference", str(phantom)]
    code = (
        "import sys; from lactdiff.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'scipy.signal' in sys.modules, '_hashlib' in sys.modules)"
    )
    assert run_fresh(code) == "inf,1.0\n0 False False\n"


@pytest.mark.parametrize("command", ["phantom", "metrics"])
def test_phantom_and_metrics_leave_out_the_sampling_stack(tmp_path, command):
    # both load evaluation, which needs GmmPrior only as an annotation
    phantom = tmp_path / "p.ctr"
    if command == "phantom":
        argv = ["phantom", "--kind", "disks", "--size", "16", "--out", str(phantom)]
    else:
        write_raster(phantom, Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0))
        argv = ["metrics", "--recon", str(phantom), "--reference", str(phantom)]
    code = (
        "import sys; from lactdiff.cli import main; "
        f"code = main({argv!r}); "
        f"print(code, [m for m in {SAMPLING_STACK!r} if m in sys.modules])"
    )
    assert run_fresh(code).splitlines()[-1] == "0 ['lactdiff.evaluation']"


def test_bare_package_import_loads_no_submodule():
    # the package holds only __version__; `from` imports load the submodules
    code = (
        "import sys, lactdiff; "
        "bare = sorted(m for m in sys.modules if m.startswith('lactdiff.')); "
        "from lactdiff import sampler, tomography; "
        "print(bare, sampler.__name__, tomography.__name__, hasattr(lactdiff, 'Geometry'))"
    )
    assert run_fresh(code) == "[] lactdiff.sampler lactdiff.tomography False\n"


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


def test_first_plan_build_leaves_out_scipy_sparse():
    # in a fresh process, one-off projections stream the stencil through
    # scipy's sparse kernels without a plan; the first TomoOperator product
    # builds the plan.  Neither loads scipy.sparse.  The products are the
    # bytes this process computes.
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
    assert (streamed, after) == ("False", "False")
    geom = make_limited_geometry(16, 24, 12, 60.0)
    sino = forward_project(Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0), geom)
    assert sino_hex == sino.data.tobytes().hex()
    assert back_hex == back_project(sino, geom).data.tobytes().hex()


def test_scipy_sparse_imported_after_a_plan_product_shares_its_kernels():
    # the kernels a plan product loaded are the ones scipy.sparse then uses,
    # and scipy's own csr_matrix products have the operator's bits
    code = (
        "import sys; import numpy as np; from lactdiff import tomography; "
        "geom = tomography.make_limited_geometry(16, 24, 12, 60.0); "
        "op = tomography.TomoOperator(geom); rng = np.random.default_rng(5); "
        "x, y = rng.standard_normal(256), rng.standard_normal(12 * 24); "
        "ax, aty = op.forward(x), op.adjoint(y); kernels = tomography._sparse_kernels(); "
        "import scipy.sparse as sp; from scipy.sparse import _sparsetools; "
        "plan = geom.plan; "
        "m = sp.csr_matrix((plan.data, plan.indices, plan.indptr), shape=plan.shape); "
        "print(_sparsetools is kernels, sys.modules['scipy.sparse._sparsetools'] is kernels, "
        "(m @ x).tobytes() == ax.tobytes(), (m.T @ y).tobytes() == aty.tobytes())"
    )
    assert run_fresh(code) == "True True True True\n"


@pytest.mark.parametrize("method", ["rls", "tv", "sample"])
def test_plan_commands_leave_out_scipy_sparse(tmp_path, method):
    # their plan products load scipy and its sparse kernels, not
    # scipy.sparse, and the manifest records scipy's version
    import scipy

    phantom, sino = tmp_path / "p.ctr", tmp_path / "s.ctr"
    write_raster(phantom, Image(16, 16, np.arange(256.0).reshape(16, 16) / 256.0))
    assert main(["project", "--in", str(phantom), "--views", "12", "--out", str(sino)]) == 0
    if method == "sample":
        argv = ["sample", "--in", str(sino), "--size", "16", "--K", "3", "--T", "60",
                "--samples", "1", "--out-dir", str(tmp_path / "run")]
        manifest = tmp_path / "run" / "manifest.txt"
    else:
        argv = ["reconstruct", "--method", method, "--in", str(sino), "--size", "16",
                "--iters", "5", "--out", str(tmp_path / "r.ctr")]
        manifest = tmp_path / "r.manifest.txt"
    code = (
        "import sys; from lactdiff.cli import main; "
        f"code = main({argv!r}); print(code, 'scipy.sparse' in sys.modules)"
    )
    assert run_fresh(code) == "0 False\n"
    assert f"version.scipy: {scipy.__version__}" in manifest.read_text().splitlines()


def test_project_and_fbp_commands_leave_out_scipy_sparse(tmp_path):
    # each makes one product, which streams through scipy's sparse kernels;
    # neither builds a plan nor loads scipy.sparse, and the manifest records
    # scipy's version, as the plan commands' do
    import scipy

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
        manifest = out.with_suffix(".manifest.txt").read_text().splitlines()
        assert f"version.scipy: {scipy.__version__}" in manifest


@pytest.mark.parametrize("method", ["fbp", "rls", "tv"])
def test_reconstruct_commands_leave_out_openssl(tmp_path, method):
    # these commands draw no random numbers, so nothing loads numpy.random,
    # whose secrets -> hmac import brings in OpenSSL; Geometry.digest uses
    # the interpreter's own SHA-256
    geom = make_limited_geometry(16, 23, 12, 60.0)
    sino, recon = tmp_path / "s.ctr", tmp_path / "r.ctr"
    write_raster(sino, forward_project(Image(16, 16, np.full((16, 16), 0.5)), geom))
    argv = ["reconstruct", "--method", method, "--in", str(sino), "--size", "16",
            "--iters", "3", "--out", str(recon)]
    code = (
        "import sys; from lactdiff.cli import main; "
        f"code = main({argv!r}); print(code, '_hashlib' in sys.modules)"
    )
    assert run_fresh(code) == "0 False\n"
    manifest = recon.with_suffix(".manifest.txt").read_text().splitlines()
    assert f"geometry.digest: {geom.digest()}" in manifest


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
        # scipy is recorded when loaded: every product loads it, and this
        # process may have loaded it before
        if "scipy" in sys.modules:
            want["version.scipy"] = sys.modules["scipy"].__version__
        assert versions == want


def test_every_manifest_ends_its_fields_with_duration(tmp_path, capsys):
    # one rule for every command that writes a manifest; metrics writes none
    phantom, sino = tmp_path / "p.ctr", tmp_path / "s.ctr"
    commands = {
        "p.manifest.txt": ["phantom", "--kind", "disks", "--size", "16", "--out", str(phantom)],
        "s.manifest.txt": ["project", "--in", str(phantom), "--views", "8",
                           "--out", str(sino)],
        "r.manifest.txt": ["reconstruct", "--method", "rls", "--in", str(sino),
                           "--size", "16", "--iters", "5", "--out", str(tmp_path / "r.ctr")],
        "run/manifest.txt": ["sample", "--in", str(sino), "--size", "16", "--K", "3",
                             "--T", "60", "--samples", "2", "--out-dir", str(tmp_path / "run")],
    }
    for manifest, argv in commands.items():
        assert run(capsys, *argv)[0] == 0
        keys = [line.split(": ", 1)[0]
                for line in (tmp_path / manifest).read_text().splitlines()[1:]]
        per_chain = [key for key in keys if key.startswith(
            ("residuals.", "prox_capped.", "chain_seed."))]
        assert keys.count("duration_s") == 1
        assert keys[len(keys) - len(per_chain) - 1] == "duration_s"
        assert len(per_chain) == (6 if argv[0] == "sample" else 0)
    before = sorted(tmp_path.rglob("*manifest.txt"))
    assert run(capsys, "metrics", "--recon", str(tmp_path / "r.ctr"),
               "--reference", str(phantom))[0] == 0
    assert sorted(tmp_path.rglob("*manifest.txt")) == before


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

    def test_manifest_records_what_tv_did(self, pipeline, tmp_path, capsys):
        _, sino = pipeline
        out = tmp_path / "tv.ctr"
        code, _, _ = run(capsys, "reconstruct", "--method", "tv", "--in", str(sino),
                         "--size", "32", "--iters", "15", "--lam", "1.0",
                         "--out", str(out))
        assert code == 0
        lines = out.with_suffix(".manifest.txt").read_text().splitlines()
        fields = dict(line.split(": ", 1) for line in lines if line.startswith("tv."))
        rejected, outer = fields["tv.rejected"].split("/")
        assert outer == "15" and 0 <= int(rejected) <= 15
        # each of the 15 proxes runs 1 to 20 steps
        assert 15 <= int(fields["tv.prox_iters"]) <= 300
        sino_raster = read_raster(sino)
        _, report = solvers.tv_reconstruct(sino_raster, square_geometry(
            32, sino_raster.detectors, sino_raster.angles_deg), 1.0, 15)
        assert fields == {"tv.rejected": f"{report.rejected}/15",
                          "tv.prox_iters": str(report.prox_iterations)}

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

    def test_manifest_records_whether_rls_converged(self, pipeline, tmp_path, capsys):
        _, sino = pipeline
        raster = read_raster(sino)
        geom = square_geometry(32, raster.detectors, raster.angles_deg)
        # the CLI's default budget is --iters 100
        _, report = solvers.rls_reconstruct(raster, geom, max_iter=100)
        assert report.converged and report.iterations > 5
        cases = {
            "capped": (["--iters", "5"], "5", "false"),
            "default": ([], str(report.iterations), "true"),
        }
        for name, (extra, want_iters, want_converged) in cases.items():
            out = tmp_path / f"{name}.ctr"
            assert run(capsys, "reconstruct", "--method", "rls", "--in", str(sino),
                       "--size", "32", "--out", str(out), *extra)[0] == 0
            lines = (tmp_path / f"{name}.manifest.txt").read_text().splitlines()
            fields = dict(line.split(": ", 1) for line in lines[1:])
            assert fields["rls.cg_iterations"] == want_iters
            assert fields["rls.converged"] == want_converged
        for method in ("fbp", "tv"):
            out = tmp_path / f"{method}.ctr"
            assert run(capsys, "reconstruct", "--method", method, "--in", str(sino),
                       "--size", "32", "--iters", "5", "--out", str(out))[0] == 0
            assert "rls." not in (tmp_path / f"{method}.manifest.txt").read_text()

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

    def test_metrics_identical_constant_files(self, tmp_path, capsys):
        # a constant reference zeroes ssim's stabilizers, so psnr's rule applies
        z = tmp_path / "z.ctr"
        write_raster(z, Image(16, 16, np.full((16, 16), 0.5)))
        code, text, err = run(capsys, "metrics", "--recon", str(z), "--reference", str(z))
        assert (code, text.strip(), err) == (0, "inf,1.0", "")

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
        code, out, err = run(capsys, "metrics", "--recon", str(a), "--reference", str(b))
        assert code == 2
        # psnr refuses the pair before anything is printed
        assert out == ""
        assert "shapes (16, 16) and (16, 12) differ" in err

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

    def test_prox_skip_over_every_step_is_usage_error(
        self, sino64, tmp_path, capsys, monkeypatch
    ):
        # with no consistency step left, the run would claim a prox it never ran
        refuse_projections(monkeypatch)
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--T", "60", "--K", "5", "--prox-skip", "5", "--samples", "1",
                           "--out-dir", str(tmp_path / "bad"))
        assert code == 2
        assert "prox_skip" in err
        assert not (tmp_path / "bad").exists()

    def test_unusable_out_dir_fails_before_the_condition(
        self, sino64, tmp_path, capsys, monkeypatch
    ):
        # an --out-dir that is an existing file fails before any solve or chain runs
        def refuse(*args, **kwargs):
            raise AssertionError("the condition was built")

        monkeypatch.setattr(sampler, "build_condition", refuse)
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--T", "60", "--K", "4", "--samples", "1",
                           "--out-dir", str(taken))
        assert code == 3
        assert "taken" in err
        assert taken.read_bytes() == b""

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
        cond, _ = build_condition(sino, geom, "rls")
        model = gmm_denoiser(GmmPrior(24 * 24, [1.0], cond.image.as_f64().reshape(1, -1),
                                      [0.25]), sched)
        cfg = SamplerConfig(steps=6, prox=ProxConfig(gamma=1.0))
        for i, seed in enumerate(seeds):
            lone, trace = sample_posterior(model, sino.as_f64().ravel(), TomoOperator(geom),
                                           (24, 24), cond, sched, cfg, seed=seed)
            assert read_raster(out_dir / f"sample_{i:03d}.ctr") == lone
            assert trace.seed == seed

    def test_manifest_orders_the_per_chain_lines(self, sino64, tmp_path, capsys):
        # the run's fields come first, then each per-chain record for every chain
        out_dir = tmp_path / "run"
        assert run(capsys, "sample", "--in", str(sino64), "--size", "24", "--K", "4",
                   "--T", "60", "--samples", "2", "--out-dir", str(out_dir))[0] == 0
        lines = (out_dir / "manifest.txt").read_text().splitlines()
        keys = [line.split(": ", 1)[0] for line in lines[1:]]
        assert keys[-7:] == [
            "duration_s",
            "residuals.sample0", "residuals.sample1",
            "prox_capped.sample0", "prox_capped.sample1",
            "chain_seed.sample0", "chain_seed.sample1",
        ]
        per_chain = ("residuals.", "prox_capped.", "chain_seed.")
        assert not any(key.startswith(per_chain) for key in keys[:-6])

    def test_manifest_records_the_condition_solve(self, sino64, tmp_path, capsys):
        sino = read_raster(sino64)
        geom = square_geometry(24, sino.detectors, sino.angles_deg)
        assert build_condition(sino, geom, "fbp")[1] is None
        _, report = build_condition(sino, geom, "rls")
        # the condition's report is the one of rls_reconstruct on the same inputs
        _, direct = solvers.rls_reconstruct(sino, geom)
        assert (report.iterations, report.converged, report.final_residual_norm) == (
            direct.iterations, direct.converged, direct.final_residual_norm)
        out_dir = tmp_path / "run"
        argv = ["sample", "--in", str(sino64), "--size", "24", "--K", "4", "--T", "60",
                "--samples", "1", "--out-dir", str(out_dir)]
        assert run(capsys, *argv)[0] == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        fields = dict(line.split(": ", 1) for line in manifest[1:])
        assert fields["condition.rls_cg_iterations"] == str(report.iterations)
        assert fields["condition.rls_converged"] == str(report.converged).lower()
        # a replay writes the same sample and the same condition lines
        sample = (out_dir / "sample_000.ctr").read_bytes()
        (out_dir / "sample_000.ctr").unlink()
        assert run(capsys, "--manifest-in", str(out_dir / "manifest.txt"))[0] == 0
        assert (out_dir / "sample_000.ctr").read_bytes() == sample
        replayed = (out_dir / "manifest.txt").read_text().splitlines()
        condition = [line for line in manifest if line.startswith("condition.")]
        assert len(condition) == 2
        assert condition == [line for line in replayed if line.startswith("condition.")]
        # an FBP condition runs no CG
        fbp_dir = tmp_path / "fbp"
        argv[-1] = str(fbp_dir)
        assert run(capsys, *argv, "--condition", "fbp")[0] == 0
        assert "condition." not in (fbp_dir / "manifest.txt").read_text()

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

    def test_non_finite_guidance_fails_before_the_condition(
        self, sino64, tmp_path, capsys, monkeypatch
    ):
        # a NaN guidance weight is a usage error, found before --out-dir is made
        def refuse(*args, **kwargs):
            raise AssertionError("the condition was built")

        monkeypatch.setattr(sampler, "build_condition", refuse)
        out_dir = tmp_path / "nan"
        code, _, err = run(capsys, "sample", "--in", str(sino64), "--size", "24",
                           "--K", "5", "--T", "60", "--samples", "1",
                           "--lambda", "nan", "--uncond-prior", "builtin",
                           "--out-dir", str(out_dir))
        assert code == 2
        assert "finite" in err
        assert not out_dir.exists()

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

    def test_rls_output_does_not_depend_on_blas_threads(self, tmp_path, capsys):
        # a BLAS dot product sums in an order set by its thread count once
        # the vectors are long enough: at 128^2 (16384 pixels) one and two
        # OpenBLAS threads gave other bits, at 64^2 the same
        self.check_blas_thread_independence(
            tmp_path, capsys, self.reconstruct("rls"), ("r.ctr",), ("operator.norm_sq: ",)
        )

    def test_tv_output_does_not_depend_on_blas_threads(self, tmp_path, capsys):
        # the inner TV prox stops on norms, which must not follow BLAS either
        self.check_blas_thread_independence(
            tmp_path, capsys, self.reconstruct("tv"), ("r.ctr",),
            ("tv.rejected: ", "tv.prox_iters: "),
        )

    def test_sample_output_does_not_depend_on_blas_threads(self, tmp_path, capsys):
        # the prox CG of every chain, and the condition's RLS solve, sum
        # dot products of 16384 pixels
        self.check_blas_thread_independence(
            tmp_path, capsys,
            ["sample", "--K", "2", "--prox-skip", "1", "--samples", "2", "--seed", "3",
             "--out-dir", "{out}"],
            ("sample_000.ctr", "sample_001.ctr", "average.ctr", "uncertainty.ctr"),
        )

    @staticmethod
    def reconstruct(method):
        return ["reconstruct", "--method", method, "--iters", "40", "--out", "{out}/r.ctr"]

    @staticmethod
    def check_blas_thread_independence(tmp_path, capsys, command, rasters, recorded=()):
        # command: the argv but for the input sinogram and its size, with
        # "{out}" for the run's output directory; rasters: the files it must
        # write there; recorded: manifest line prefixes that must appear once each
        phantom, sino = tmp_path / "p.ctr", tmp_path / "s.ctr"
        assert run(capsys, "phantom", "--kind", "shepp_logan", "--size", "128",
                   "--out", str(phantom))[0] == 0
        assert run(capsys, "project", "--in", str(phantom), "--views", "60",
                   "--theta-max", "60", "--noise-std", "0.01", "--seed", "7",
                   "--out", str(sino))[0] == 0
        outputs, manifests = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(lactdiff.__file__).parents[1]))
            argv = [arg.replace("{out}", str(out)) for arg in command]
            subprocess.run(
                [sys.executable, "-m", "lactdiff.cli", *argv, "--in", str(sino), "--size", "128"],
                env=env, check=True, timeout=120, capture_output=True,
            )
            outputs.append({name: (out / name).read_bytes() for name in rasters})
            assert sorted(p.name for p in out.glob("*.ctr")) == sorted(rasters)
            (manifest,) = out.glob("*manifest.txt")
            # paths name the run's own directory, and the time is the run's own
            manifests.append([line.replace(str(out), "{out}")
                              for line in manifest.read_text().splitlines()
                              if not line.startswith("duration_s: ")])
        recorded_lines = [line for line in manifests[0] if line.startswith(recorded)]
        assert [line.split(": ")[0] + ": " for line in recorded_lines] == list(recorded)
        assert manifests[0] == manifests[1]
        assert outputs[0] == outputs[1]

    def test_replay_notes_other_versions(self, tmp_path, capsys):
        out = tmp_path / "p.ctr"
        assert run(capsys, "phantom", "--kind", "disks", "--size", "16",
                   "--out", str(out))[0] == 0
        original = out.read_bytes()
        manifest = tmp_path / "p.manifest.txt"
        text = manifest.read_text()
        # the versions this process runs: no note
        code, _, err = run(capsys, "--manifest-in", str(manifest))
        assert (code, err) == (0, "")
        import scipy

        lines = [line for line in text.splitlines() if not line.startswith("version.")]
        versions = ["version.lactdiff: 0.1", "version.numpy: 0.2", "version.scipy: 0.3"]
        manifest.write_text("\n".join(lines[:2] + versions + lines[2:]) + "\n")
        out.unlink()
        code, _, err = run(capsys, "--manifest-in", str(manifest))
        # one line on stderr, and the replay runs as before
        assert code == 0
        assert err.count("\n") == 1 and err.startswith("note: ")
        for package, version in [("lactdiff", lactdiff.__version__),
                                 ("numpy", np.__version__), ("scipy", scipy.__version__)]:
            assert f"{package} 0." in err and f"-> {version}" in err
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
