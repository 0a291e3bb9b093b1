"""Put the benchmark's modules and the ``repro`` sources on the path."""

import sys
from pathlib import Path

_PERF = Path(__file__).resolve().parent.parent
for _path in (_PERF, _PERF.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
