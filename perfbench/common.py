"""Helpers shared by the benchmark's parent and child processes.

Nothing here imports the program under test: the parent stays free of
``repro`` so every measured run happens in a fresh child interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import random
import re
import threading
import time

#: Workload and metric names declared in BENCHMARK.json match this.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Hash seed every child runs under: the program's output depends on it.
HASH_SEED = "0"

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: Working files inside the checkout (listed in the root .gitignore).
STATE_DIR = ROOT / ".perfbench"


def child_env() -> dict[str, str]:
    """Environment of every child: fixed hash seed, program on the path."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """``(p, value)``: the highest percentile with 10 samples beyond it.

    Nearest rank, so 200 samples give p95 and 400 give p97.5. With
    fewer than 20 samples only the median qualifies.
    """
    n = len(values)
    if n < 20:
        return 50.0, percentile(values, 50)
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); inf for no samples."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def arrival_schedule(rate: float, count: int, seed: int) -> list[float]:
    """Open-loop due times (seconds from step start) for one rate step.

    A Poisson process conditioned on ``count`` arrivals in
    ``count / rate`` seconds: sorted uniform draws. The offered rate is
    exact, the gaps are exponential-like, and the same seed gives the
    same schedule.
    """
    rng = random.Random(f"arrivals:{seed}:{rate}:{count}")
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def triples_digest(triples) -> str:
    """Order-insensitive digest of ``(product, attribute, value)`` rows."""
    rows = sorted(json.dumps(list(row), ensure_ascii=False) for row in triples)
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def response_key(status: int, payload: dict) -> list:
    """What a serve response must agree on with its oracle response."""
    triples = sorted(
        [row["attribute"], row["value"]]
        for row in payload.get("triples", [])
    )
    return [status, payload.get("code"), triples]


def tree_digest(root: pathlib.Path) -> str:
    """Digest of the Python sources under ``root`` (stands in for a git
    sha, which a checkout without ``.git`` does not have)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- memory: summed PSS over a process tree --------------------------------


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(part) for part in handle.read().split())
        except OSError:
            continue
    return kids


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mib(pid: int) -> float:
    """Summed PSS of ``pid`` and all its descendants, in MiB."""
    total = 0
    stack = [pid]
    while stack:
        current = stack.pop()
        total += _pss_kib(current)
        stack.extend(_children(current))
    return total / 1024


class PssSampler:
    """Samples a process tree's summed PSS on a thread; keeps the peak."""

    def __init__(self, pid: int, interval: float = 0.1):
        self.pid = pid
        self.interval = interval
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak_mib = max(self.peak_mib, tree_pss_mib(self.pid))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def wait_until(predicate, timeout: float, step: float = 0.01) -> bool:
    """Poll ``predicate`` until true or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()
