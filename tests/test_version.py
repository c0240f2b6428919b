"""``repro.__version__`` is the version ``pyproject.toml`` packages.

Read with a regex: Python 3.10 has no ``tomllib``.
"""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_packaging():
    project = PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert version is not None
    assert repro.__version__ == version.group(1)
