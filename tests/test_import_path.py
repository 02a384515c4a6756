"""The suite tests the fedzsl that Python finds, not always the checkout's src/."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKER = "stub fedzsl imported from PYTHONPATH"


def test_pythonpath_names_the_package_under_test(tmp_path):
    # A stub package on PYTHONPATH whose import fails loudly: the suite must
    # import it (and so report the marker), not fall back to this checkout.
    stub = tmp_path / "stub" / "fedzsl"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(f"raise RuntimeError({MARKER!r})\n")
    done = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "--collect-only",
            str(ROOT / "tests" / "test_partition.py"),
        ],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(stub.parent)),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode != 0, done.stdout
    assert MARKER in done.stdout, done.stdout
