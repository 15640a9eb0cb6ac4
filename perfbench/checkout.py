"""Locate the checkout the benchmark runs in and import ``dischar`` from its ``src/``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def use_src() -> None:
    """Put this checkout's ``src/`` first on the path, or exit with code 1."""
    if not (SRC / "dischar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dischar package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dischar

    if Path(dischar.__file__).resolve().parent != SRC / "dischar":
        sys.exit(f"perfbench: dischar was imported from {dischar.__file__}, not {SRC}")


def subprocess_env() -> dict[str, str]:
    """Environment for child interpreters that import ``dischar`` from ``src/``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def src_nonblank_lines() -> int:
    return sum(
        1
        for path in SRC.rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
