"""Every demo in demos/ runs under `-W error` and exits 0.

Each runs from `tmp_path`: demos 01, 03 and 05 write traces.csv,
features.csv and kde.csv into their working directory.  Demos 01-03 use no
BLAS and print pinned text, so their SHA-256 digests hold on any CPU; demo
02 prints unique-value sequences and DTW paths, so a change to deduplication
or warping shows up here.  Demos 04 and 05 print LR, SVM and KDE numbers
that go through BLAS and `exp`, so only their exit status is checked.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_simulate_traces.py": "1a74394cbd7831cdd3159d2051dd5ff171dcfcffbcd79b05a3f5fdb6b3abf172",
    "02_warping_alignment.py": "8c629956df48fe5bb8fcea8fa3a5d9040e2d8a37591c6d3c0da2ac378f6bd75e",
    "03_pair_features.py": "3d7c6aed1a0d1f601bcb33fb62477718c389a9ace5d4a4f961f22c4feafb30ad",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_prints_pinned_text(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    )
    if demo in DEMO_STDOUT_SHA256:
        assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
