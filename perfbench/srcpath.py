"""Put the checkout's ``src/`` first on ``sys.path``.

Every benchmark module imports this before ``repro``, so the benchmark
always measures the source tree it sits next to, never an installed copy.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def source_present() -> bool:
    """True when the checkout holds the simulator's source package."""
    return (SRC / "repro" / "__init__.py").is_file()
