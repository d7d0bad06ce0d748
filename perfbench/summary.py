"""Statistics, behaviour digests and the run record.

Pure helpers with no simulator imports, so they can be tested alone.
"""

from __future__ import annotations

import hashlib
import os
import platform
import struct
import subprocess

#: A percentile is reported only when at least this many samples lie
#: beyond it; a p99 therefore needs 1000 samples.
MIN_TAIL_SAMPLES = 10


def tail_support(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def support_problem(n: int, q: float):
    """Why ``n`` samples cannot carry a ``q``-th percentile, or None."""
    if tail_support(n, q) < MIN_TAIL_SAMPLES:
        return (f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
                f"{n} samples give {tail_support(n, q):g}")
    return None


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile, interpolated linearly as numpy does."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_hash(samples) -> str:
    """Order-sensitive hash of float samples, exact to the last bit."""
    h = hashlib.sha256()
    for value in samples:
        h.update(struct.pack("<d", float(value)))
    return h.hexdigest()[:16]


def digest(signature: str, samples, sim_ns: float) -> dict:
    """What a simulator-speed change must leave bit-identical."""
    return {"faults": signature or "-",
            "latency_sha": samples_hash(samples),
            "samples": len(samples),
            "sim_ns": repr(float(sim_ns))}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "cpu": _cpu_model()}


def commit(root: str) -> str:
    """The git commit of ``root``, or a hash of its ``src`` tree.

    Benchmark checkouts need not be git repositories; the source hash
    still tells two trees apart.
    """
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]
