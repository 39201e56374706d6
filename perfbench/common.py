"""Shared pieces of the benchmark: thread pinning, paths, statistics, records.

Import this module before numpy: it pins the BLAS/OpenMP thread count in the
environment of this process, which every child process inherits.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# Single-threaded baseline: most matrices here are small and the reference
# machine has two shared cores. Only this process's environment is changed.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

# The console script `chanfact` runs exactly this; spawning it through the
# interpreter needs no installed entry point in the checkout.
CLI_ENTRY = "import sys; from chanfact.cli import main; sys.exit(main())"


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, bad BENCHMARK.json)."""


def import_chanfact():
    """Import chanfact from ``src`` of the checkout, never an installed copy."""
    if not (SRC / "chanfact" / "__init__.py").is_file():
        raise SetupError(f"no chanfact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chanfact
    import chanfact.cli  # loads every submodule the workloads call into

    if Path(chanfact.__file__).resolve().parent != (SRC / "chanfact").resolve():
        raise SetupError(f"chanfact imported from {chanfact.__file__}, not {SRC}")
    return chanfact


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile (the 'inclusive' method) of a sample."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as the acceptance rule uses it."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def git_revision() -> str:
    """Commit of the checkout read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def append_record(record: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
