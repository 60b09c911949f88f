"""``pytest ledger/tests`` from the repository root, outside tier-1.

Puts the repository root (for ``ledger``) and ``src`` (for ``repro``)
on the path, so the suite runs with or without ``PYTHONPATH=src``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
