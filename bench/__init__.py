"""The repository benchmark: closed-loop serving workloads against
``python -m repro serve``, cold set-up and restart, and a traced
per-layer replay of the same captures.

Run it from the repository root::

    PYTHONPATH=src python -m bench             # all four workloads
    python -m bench --workload per-record --seed 3 --seconds 10 --trace 0

See ``bench/README.md`` for the workloads, the metrics and the protocol
for a performance claim.
"""

from pathlib import Path

#: The repository checkout the benchmark runs in (the parent of this
#: package); every file the benchmark writes lives under it.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for server caches, data directories and results.
WORK = ROOT / ".bench-run"
