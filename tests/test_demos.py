"""Every demo runs to completion as a script and prints its pinned output, as numpy is set up
and under its baseline kernels (no dispatched SIMD, so no fused multiply-adds)."""

import hashlib
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import BASELINE_KERNELS

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: every demo is deterministic
DIGESTS = {
    "01_biquaternion_algebra.py": "3ab6ac1a8ad96b7507f04a4a5c3ea3224e356c3905ca110172f09783cebd6cc3",
    "02_chart_tour.py": "50b90b35fe2438ce5cff64eb83555df74ecf8ef5ddf61fca9e720fd57e00edc2",
    "03_plane_wave_residuals.py": "f7bc253889989a7d6c60c45b3297599dc225ae52ecd7db9d4b5e11c30b8eeb6a",
    "04_tachyon_transformation.py": "86b728801bec34ce2acd71cb41f82d9dcde053c04701ec9c0b01ad142f9131b1",
    "05_fine_structure_spectrum.py": "c6dbe7e79c0d0ec3d5a36fca1642e0709a7e353f355605a10f4fdb364b99dcd6",
    "06_charge_density.py": "fcd29744fec98634adb0766acdddfb3efb00e9e3362f61d53ad4ad7ab9b0c1b4",
}


def _run(demo, extra_env=None):
    env = dict(os.environ)
    env.pop("CIRCLEDIRAC_FAULT", None)
    env.update(extra_env or {})
    return subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT,
                          timeout=120)


def _run_all(extra_env=None):
    """Each demo, two at a time: start-up (mostly importing numpy) dominates."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(DEMOS, pool.map(lambda demo: _run(demo, extra_env), DEMOS)))


@pytest.fixture(scope="module")
def demo_runs():
    return _run_all()


@pytest.fixture(scope="module")
def baseline_runs():
    return _run_all(BASELINE_KERNELS)


def test_demos_found():
    assert [demo.name for demo in DEMOS] == list(DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, demo_runs):
    proc = demo_runs[demo]
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo.name]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_digest_under_baseline_kernels(demo, baseline_runs):
    proc = baseline_runs[demo]
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo.name]
