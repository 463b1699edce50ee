"""One workload set-up in a fresh interpreter (timed by the parent).

Usage: ``python3 perfbench/setup_child.py <workload> <shape>`` with the
program's sources on ``PYTHONPATH``; the workload module must define
``setup(shape)`` (fig5-trace and fuzz-campaign; the plan workloads time
their server starts instead).
"""

from __future__ import annotations

import importlib
import sys

from run import WORKLOADS

if __name__ == "__main__":
    workload, shape = sys.argv[1], sys.argv[2]
    importlib.import_module(WORKLOADS[workload]).setup(shape)
