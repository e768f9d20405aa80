"""The package build ships the stored fixture documents.

`fixture <name>` reads `excol/data/<name>.json` beside the installed
package, so a build that left those files out would break it.  The build
runs in a temporary copy of `pyproject.toml` and `src/`, and writes
nothing into the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from excol import FIXTURE_NAMES

ROOT = Path(__file__).resolve().parents[1]


def test_build_py_ships_exactly_the_fixture_documents(tmp_path):
    tree, out = tmp_path / "tree", tmp_path / "build"
    tree.mkdir()
    shutil.copy(ROOT / "pyproject.toml", tree)
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "-d", str(out)],
        cwd=tree, capture_output=True, check=True,
    )
    shipped = sorted(os.listdir(out / "excol" / "data"))
    assert shipped == sorted(f"{name}.json" for name in FIXTURE_NAMES)
