"""Make the repository root importable when these tests run on their own:
``python3 -m pytest perfbench/tests`` from the repository root."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
