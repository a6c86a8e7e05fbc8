"""The machine a result was measured on, read-only from /proc and /sys."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

NOTE = (
    "shared machine: other tenants may load the CPUs and memory bandwidth; "
    "nothing was pinned, no cache was dropped and no setting was re-tuned"
)

# cgroup v2 names first, then the v1 ones
_CGROUP_FILES = {
    "memory.max": "/sys/fs/cgroup/memory.max",
    "cpu.max": "/sys/fs/cgroup/cpu.max",
    "memory.limit_in_bytes": "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    "cpu.cfs_quota_us": "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
    "cpu.cfs_period_us": "/sys/fs/cgroup/cpu/cpu.cfs_period_us",
}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def capture() -> dict:
    limits = {name: _read(path) for name, path in _CGROUP_FILES.items()}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cgroup_limits": {k: v for k, v in limits.items() if v is not None},
        "note": NOTE,
    }
