"""The run protocol.

1. Set-up: cold starts of each workload's server, each with an empty
   ``REPRO_CACHE_DIR``; the last one stays up and is driven.
2. Inputs and batch references, untimed.
3. Warm-up, untimed.
4. ``rounds`` rounds; each drives every workload for ``round_s``, in an
   order that rotates every round.  An end-to-end number is the median
   of its per-round values.
5. Restarts on the warm cache; on the durable workload each follows a
   SIGKILL with sessions open mid-stream.
6. With tracing: the offline pipeline in a child process per scenario
   and the traced replay.

Set-up and restart report the median of their ``setups``/``restarts``
repeats.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.server.client import DebugClient

from bench import ROOT, WORK
from bench.drive import ClosedLoop, crash_restart
from bench.layers import OFFLINE_STAGES, replay_layers
from bench.report import Round, end_to_end, layer_entries, round_layers
from bench.server import BenchError, ServerProcess, child_env, host_cpu
from bench.workloads import Workload, build_pool, load_context


@dataclasses.dataclass(frozen=True)
class Plan:
    """How long and how often each phase of the protocol runs."""

    rounds: int
    round_s: float
    warmup_s: float
    setups: int
    restarts: int
    trace: bool
    #: Captures per pool; ``None`` keeps each workload's own size.
    pool_size: Optional[int] = None
    #: Sessions left mid-stream before each SIGKILL of the durable server.
    crash_sessions: int = 128


def full_plan(quick: bool) -> Plan:
    if quick:
        return Plan(rounds=1, round_s=2.0, warmup_s=0.5, setups=1,
                    restarts=1, trace=True, pool_size=32, crash_sessions=16)
    return Plan(rounds=3, round_s=10.0, warmup_s=5.0, setups=3, restarts=1,
                trace=True)


def workload_plan(seconds: float, trace: bool) -> Plan:
    """One workload measured for *seconds*, split into three rounds."""
    return Plan(rounds=3, round_s=seconds / 3, warmup_s=min(5.0, seconds / 4),
                setups=3, restarts=1, trace=trace)


class WorkloadRun:
    """Everything one workload goes through in one benchmark run."""

    def __init__(self, workload: Workload, seed: int, plan: Plan) -> None:
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.server: Optional[ServerProcess] = None
        self.loop: Optional[ClosedLoop] = None
        self.stats_client: Optional[DebugClient] = None
        self.setup_s: List[float] = []
        self.restart_s: List[float] = []
        self.rounds: List[Round] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.server_errors = 0
        self.problems: List[str] = []
        self.recoveries: List[Dict[str, float]] = []
        self.layers: Dict[str, float] = {}

    # -- phases --------------------------------------------------------
    def setup(self) -> None:
        for index in range(self.plan.setups):
            self.shutdown()
            self.server = ServerProcess(
                self.workload.serve_args(),
                cache_dir=self.dir / f"cache-{index}",
                log_path=self.dir / "server.log",
                data_dir=(
                    self.dir / f"data-{index}" if self.workload.durable else None
                ),
            )
            self.setup_s.append(self.server.start())

    def prepare(self) -> None:
        self.context = load_context(self.workload)
        self.pool = build_pool(
            self.workload, self.context, self.seed, self.plan.pool_size
        )
        self.loop = ClosedLoop(
            self.server, self.workload, self.pool, rng_seed=self.seed
        )
        self.stats_client = DebugClient(self.server.host, self.server.port)

    def probe(self) -> dict:
        return {
            "t": time.perf_counter(),
            "cpu": self.server.cpu_s(),
            "rss_mb": self.server.peak_rss_mb(),
            "stats": self.stats_client.stats(),
            "host": host_cpu(),
            "gen_cpu": time.process_time(),
            "retries": self.loop.retries,
        }

    def drive(self, seconds: float, timed: bool) -> None:
        before = self.probe()
        window = self.loop.run(seconds, at_deadline=self.probe)
        self.attempted += window.requests
        self.failures.extend(window.failures)
        if timed:
            self.rounds.append(Round(window, before, window.probe))

    def restart(self) -> None:
        counters = self.stats_client.stats()["counters"]
        self.server_errors = (
            counters.get("retry_later_total", 0)
            + counters.get("error_replies_total", 0)
            + self.loop.retries
        )
        self.loop.close()
        self.stats_client.close()
        try:
            for index in range(self.plan.restarts):
                if not self.workload.durable:
                    self.server.stop()
                    self.restart_s.append(self.server.start())
                    continue
                seconds, problems = crash_restart(
                    self.server, self.pool, str(index),
                    self.plan.crash_sessions,
                )
                self.restart_s.append(seconds)
                self.problems.extend(problems)
                self.recoveries.append(dict(self.server.recovery))
        except ReproError as exc:
            self.failures.append(f"restart {len(self.restart_s)}: {exc}")
        self.shutdown()

    def trace(self, offline: Dict[str, float], out_dir: Path) -> None:
        self.layers.update(offline)
        self.layers["setup.unaccounted_s"] = statistics.median(
            self.setup_s
        ) - sum(offline[stage] for stage in OFFLINE_STAGES)
        replayed, tracer = replay_layers(
            self.workload, self.context, self.pool, self.dir
        )
        self.layers.update(replayed)
        path = out_dir / f"trace-{self.workload.name}.json"
        path.write_text(json.dumps(tracer.chrome()))

    def shutdown(self) -> None:
        if self.server is not None:
            self.server.stop()

    # -- result --------------------------------------------------------
    @property
    def failed(self) -> int:
        return self.server_errors + len(self.failures)

    @property
    def mismatches(self) -> List[str]:
        return (self.loop.mismatches if self.loop else []) + self.problems

    def result(self) -> Dict[str, object]:
        layers = round_layers(self.rounds)
        recovered = self.recoveries or [{}]
        layers["store.recovery_replay_s"] = statistics.median(
            r.get("wall_s", 0.0) for r in recovered
        )
        layers["store.replayed_records"] = statistics.median(
            r.get("replayed_records", 0) for r in recovered
        )
        if self.restart_s:
            layers["restart_s"] = statistics.median(self.restart_s)
        layers.update(self.layers)
        return {
            "metrics": end_to_end(
                self.rounds, self.setup_s, self.attempted, self.failed
            ),
            "layers": layer_entries(layers),
            "rounds": [r.as_dict() for r in self.rounds],
            "attempted": self.attempted,
            "failed": self.failed,
            "oracle": {
                "sessions": self.loop.sessions if self.loop else 0,
                "crash_sessions": len(self.recoveries)
                * self.plan.crash_sessions,
                "mismatches": self.mismatches[:20],
            },
            "failures": self.failures[:20],
            "restarts_s": self.restart_s,
            "recovery": self.recoveries,
        }


def offline_layers(scenario: int, instances: int) -> Dict[str, float]:
    """The offline pipeline timed in a fresh child process."""
    done = subprocess.run(
        [sys.executable, "-m", "bench.layers", "offline",
         str(scenario), str(instances)],
        capture_output=True, text=True, cwd=str(ROOT),
        env=child_env(WORK / "offline-cache"), timeout=600, check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"offline pipeline failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def execute(
    workloads: Sequence[Workload], seed: int, plan: Plan, out_dir: Path
) -> Dict[str, object]:
    """Run the protocol over *workloads*; returns the result document."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = [WorkloadRun(w, seed, plan) for w in workloads]
    with contextlib.ExitStack() as stack:
        for run in runs:
            stack.callback(run.shutdown)
        for run in runs:
            run.setup()
        for run in runs:
            run.prepare()
        for run in runs:
            run.drive(plan.warmup_s, timed=False)
        for number in range(plan.rounds):
            shift = number % len(runs)
            for run in runs[shift:] + runs[:shift]:
                run.drive(plan.round_s, timed=True)
        for run in runs:
            run.restart()
        if plan.trace:
            offline: Dict[Tuple[int, int], Dict[str, float]] = {}
            for run in runs:
                key = (run.workload.scenario, run.workload.instances)
                if key not in offline:
                    offline[key] = offline_layers(*key)
                run.trace(offline[key], out_dir)
    correct = all(not run.mismatches for run in runs)
    failed = sum(run.failed for run in runs)
    return {
        "seed": seed,
        "plan": dataclasses.asdict(plan),
        "correct": correct,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "valid": correct and failed == 0,
        "workloads": {run.workload.name: run.result() for run in runs},
    }
