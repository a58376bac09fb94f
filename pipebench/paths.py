"""Locate the checkout's ``src/`` tree and put it on ``sys.path``.

The benchmark runs from the root of a checkout and builds nothing: it
imports the library from ``src/`` beside this directory.  Without that
tree (a directory holding only the benchmark) it exits with status 2
before printing any result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.stderr.write(
        f"pipebench: no library sources at {SRC}; run from the root of "
        "a full checkout\n"
    )
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
