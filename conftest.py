"""Repository-level pytest configuration.

Makes the ``repro`` package importable directly from the source tree so that
``pytest tests/`` works even when an editable install is not possible (e.g.
fully offline environments where pip cannot build PEP 660 editable wheels).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
