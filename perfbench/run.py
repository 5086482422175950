"""Benchmark of the isoedf pipeline: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload model_sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics with tracing off.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics from the spans of the last
traced pass.  Both modes run the output checks after the timed passes.  The
last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def bootstrap():
    """Import isoedf from this checkout's ``src``; exit 2 when it is not there."""
    if not (SRC / "isoedf" / "__init__.py").is_file():
        _fail(f"no isoedf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import isoedf

    if not Path(isoedf.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported isoedf from {isoedf.__file__}, not from {SRC}")
    return isoedf


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    bootstrap()
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
