"""Locate the package source tree of the checkout the benchmark lives in.

The benchmark runs the package from <checkout>/src, never from an
installed copy, so it measures the code of the checkout it sits in.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceTreeMissing(RuntimeError):
    pass


def use_source_tree() -> None:
    """Put <checkout>/src first on sys.path, or raise if it holds no package."""
    if not (SRC / "laurentfft" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no laurentfft package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
