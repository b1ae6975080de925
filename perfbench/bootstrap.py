"""Process set-up shared by the benchmark's entry points.

Pins the BLAS/OpenMP thread count before numpy is first imported and puts the
checkout's ``src`` directory first on ``sys.path``, so the benchmark always
measures the source tree it sits in and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: on a 2-core host two were no faster and spread wider
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Pin threads and expose ``src``; exit 2 when the source tree is missing."""
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "gdmtopics" / "__init__.py").is_file():
        print(f"perfbench: no gdmtopics sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gdmtopics

    if Path(gdmtopics.__file__).resolve().parent != SRC / "gdmtopics":
        print(f"perfbench: imported gdmtopics from {gdmtopics.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
