"""The demos' standard output, pinned by sha256, and the README quickstart's
annotated output.

Each demo runs in its own interpreter with ``src`` on the path.  A change
that alters a demo's output on purpose updates its hash here and says why.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_series_arithmetic.py": "e6581bd53e96c7329a1a5f9d35f410b08445f48e36f019c2af8130def90be660",
    "02_qpochhammer_and_theta.py": "ea8a24559e1dbadd8ecf5f3ff7871dbbcb4c69c4cc2decb18797e8f36a855938",
    "03_named_sums.py": "8f2de0724096ebd619f2b0ba4015034b1e5b4bd7deda6c7b5a7d89f326a9e598",
    "04_elimination.py": "47336144801543575bb8082f604a9c21fcdda3a460f17850e6887de1c4da06ad",
    "05_identity_verification.py": "b31cc16b18bf97323654569dcde6b8a37473c9de546b3455e1a895b57cc98157",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_pinned(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]


def test_readme_quickstart_prints_its_annotations():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md quickstart", "exec"), {})
    assert out.getvalue().splitlines() == [
        "1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + q^22 + q^26 + O(q^27)",
        "-1 + 4*q - 8*q^3 + 16*q^6 - 32*q^10 + O(q^12)",
        "-2",
        "True 25",
        "{'total': 48, 'passed': 48, 'failed': 0}",
    ]
