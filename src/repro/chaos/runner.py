"""The chaos soak harness: drive the debug service through faults.

:class:`ChaosRunner` stands up a real, durable
:class:`~repro.server.server.DebugServer`, points a fleet of replaying
clients at it **through** the :class:`~repro.chaos.network.ChaosProxy`,
installs the :class:`~repro.chaos.disk.DiskFaultInjector` under the
store, assigns deterministic session-plane roles (poison payloads,
abrupt disconnects, torn half-frames), kills and recovers the server
mid-soak, and then holds the whole run against the
:mod:`~repro.chaos.invariants` checkers.

The soak report splits in two:

* ``deterministic`` -- the config echo, every session's final numbers,
  and the invariant verdicts.  Two runs with the same seed produce
  this section **bit-identically** (its ``determinism_digest`` pins
  that down), because every fault decision is content-keyed and every
  client converges to the same final state regardless of scheduling.
* ``ops`` -- wall times, fault/retry/breaker counts, alerts: useful
  for operators, excluded from the determinism comparison because they
  measure the race, not the outcome.
"""

from __future__ import annotations

import dataclasses
import json
import hashlib
import random
import shutil
import socket
import tempfile
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.chaos.disk import DiskFaultInjector, installed
from repro.chaos.faults import PLANES, FaultDecider, FaultPlan
from repro.chaos.invariants import (
    Violation,
    batch_reference,
    check_acked_durability,
    check_localization,
    check_metrics_serveable,
    check_shard_liveness,
)
from repro.chaos.network import ChaosProxy
from repro.errors import ServerError
from repro.server import protocol
from repro.server.client import DebugClient, RetryPolicy, SessionFeed
from repro.server.loadgen import render_session_chunks
from repro.server.server import ServeContext, ServerConfig, ServerThread
from repro.server.shard import QUARANTINE_AFTER

#: Deterministic session-plane roles (assigned by session index).
ROLE_NORMAL = "normal"
ROLE_POISON = "poison"
ROLE_DISCONNECT = "disconnect"


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """One soak's knobs (everything the report's config echo records)."""

    seed: int = 0
    sessions: int = 32
    duration_s: float = 120.0
    planes: Tuple[str, ...] = PLANES
    scenario: int = 1
    instances: int = 2
    buffer_width: int = 32
    mode: str = "prefix"
    chunk_records: int = 4
    shards: int = 4
    crash: bool = True
    timeout_s: float = 0.75
    plan: Optional[FaultPlan] = None
    data_dir: Optional[str] = None

    def resolved_plan(self) -> FaultPlan:
        if self.plan is not None:
            return self.plan
        return FaultPlan.default(planes=self.planes)


@dataclasses.dataclass(frozen=True)
class SoakReport:
    """The soak's outcome: a deterministic section plus ops telemetry."""

    deterministic: Dict[str, object]
    ops: Dict[str, object]

    @property
    def ok(self) -> bool:
        invariants = self.deterministic.get("invariants", {})
        return all(not v for v in invariants.values())  # type: ignore[union-attr]

    @property
    def determinism_digest(self) -> str:
        return str(self.deterministic.get("determinism_digest", ""))

    def as_dict(self) -> Dict[str, object]:
        return {
            "deterministic": self.deterministic,
            "ops": self.ops,
            "ok": self.ok,
        }


def _session_role(index: int, planes: Tuple[str, ...]) -> str:
    if "session" not in planes:
        return ROLE_NORMAL
    if index % 8 == 3:
        return ROLE_POISON
    if index % 8 == 5:
        return ROLE_DISCONNECT
    return ROLE_NORMAL


class ChaosRunner:
    """Runs one seeded soak end to end and returns its report."""

    def __init__(
        self,
        config: Optional[ChaosConfig] = None,
        context: Optional[ServeContext] = None,
    ) -> None:
        self.config = config if config is not None else ChaosConfig()
        self._context = context
        self._lock = threading.Lock()
        self._rows: List[Dict[str, object]] = []
        self._acked: Dict[str, int] = {}
        self._retries = 0
        self._recoveries = 0
        self._breaker_opens = 0
        self._polls_ok = 0
        self._polls_failed = 0
        self._last_snapshot: Optional[Dict[str, object]] = None
        self._stop_poll = threading.Event()
        self._addr: Tuple[str, int] = ("127.0.0.1", 0)
        self._server_thread: Optional[ServerThread] = None
        self._violations: List[Violation] = []

    # -- orchestration -------------------------------------------------
    def run(self) -> SoakReport:
        config = self.config
        context = self._context
        if context is None:
            context = ServeContext.from_scenario(
                config.scenario,
                instances=config.instances,
                buffer_width=config.buffer_width,
                mode=config.mode,
            )
            self._context = context
        jobs = [
            (
                f"cx-{config.seed + i:04d}",
                render_session_chunks(
                    context,
                    config.seed + i,
                    chunk_records=config.chunk_records,
                    scenario_name="chaos",
                ),
            )
            for i in range(config.sessions)
        ]
        references = {
            sid: batch_reference(context, chunks, mode=config.mode)
            for sid, chunks in jobs
        }
        decider = FaultDecider(config.seed, config.resolved_plan())
        data_dir = config.data_dir
        own_dir = data_dir is None
        if own_dir:
            data_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        server_config = ServerConfig(
            port=0,
            shards=config.shards,
            max_sessions=config.sessions + 8,
            idle_timeout_s=600.0,
            idle_sweep_s=30.0,
            data_dir=data_dir,
            fsync="always",
            snapshot_every=64,
        )
        gate = (
            installed(DiskFaultInjector(decider))
            if "disk" in config.planes
            else nullcontext()
        )
        started = time.perf_counter()
        crash_ops: Dict[str, object] = {"enabled": config.crash}
        proxy = None
        try:
            with gate:
                self._server_thread = ServerThread(context, server_config)
                self._addr = self._server_thread.start()
                proxy = ChaosProxy(*self._addr, decider=decider)
                proxy.start()
                poller = threading.Thread(
                    target=self._poll_stats, name="chaos-stats", daemon=True
                )
                poller.start()
                if "session" in config.planes:
                    self._mangle_connections()
                drivers = []
                for index, job in enumerate(jobs):
                    thread = threading.Thread(
                        target=self._drive_one,
                        args=(index, job, proxy),
                        name=f"chaos-driver-{index}",
                        daemon=True,
                    )
                    thread.start()
                    drivers.append(thread)
                if config.crash:
                    crash_ops.update(
                        self._crash_and_recover(
                            context, server_config, proxy, jobs
                        )
                    )
                deadline = started + config.duration_s
                for thread in drivers:
                    remaining = max(0.1, deadline - time.perf_counter())
                    thread.join(timeout=remaining)
                with self._lock:
                    finished = {
                        str(row["session_id"]) for row in self._rows
                    }
                for sid, _chunks in jobs:
                    if sid not in finished:
                        self._violations.append(
                            Violation(
                                "soak-timeout",
                                sid,
                                "driver did not finish within the "
                                f"{config.duration_s}s budget",
                            )
                        )
            # gate uninstalled: the post-soak probes and the final
            # graceful shutdown run against a clean disk
            self._violations.extend(
                check_shard_liveness(
                    self._server_thread.server, *self._addr
                )
            )
            self._stop_poll.set()
            poller.join(timeout=5.0)
            self._violations.extend(
                check_metrics_serveable(
                    self._polls_ok, self._polls_failed, self._last_snapshot
                )
            )
            final_health = self._server_thread.call(
                self._server_thread.server.health
            )
            self._server_thread.stop()
        finally:
            self._stop_poll.set()
            if proxy is not None:
                proxy.stop()
            if own_dir:
                shutil.rmtree(data_dir, ignore_errors=True)
        wall_s = time.perf_counter() - started
        return self._build_report(
            jobs, references, decider, proxy, crash_ops, final_health,
            wall_s,
        )

    # -- the mid-soak crash --------------------------------------------
    def _crash_and_recover(
        self,
        context: ServeContext,
        server_config: ServerConfig,
        proxy: ChaosProxy,
        jobs: List[Tuple[str, Tuple[bytes, ...]]],
    ) -> Dict[str, object]:
        """Abort the server mid-soak, recover it from its store, and
        check the acked-durability invariant against the recovered
        cursors."""
        config = self.config
        total_chunks = sum(len(chunks) for _sid, chunks in jobs)
        crash_deadline = time.monotonic() + config.duration_s * 0.5
        while time.monotonic() < crash_deadline:
            with self._lock:
                acked_chunks = sum(self._acked.values())
                completed = len(self._rows)
            if (
                acked_chunks >= total_chunks // 2
                or completed >= config.sessions // 2
            ):
                break
            time.sleep(0.02)
        health = self._server_thread.call(self._server_thread.server.health)
        pre_degraded = list(health["degraded_shards"])  # type: ignore[arg-type]
        # degradation must never be silent: every degraded shard owes
        # the operator a structured wal-degraded alert
        for index in pre_degraded:
            if not any(
                alert.get("kind") == "wal-degraded"
                and alert.get("shard") == index
                for alert in health["alerts"]  # type: ignore[union-attr]
            ):
                self._violations.append(
                    Violation(
                        "degradation-alert",
                        f"shard-{index}",
                        "shard degraded without a structured alert",
                    )
                )
        with self._lock:
            watermarks = dict(self._acked)
        crash_started = time.perf_counter()
        self._server_thread.stop(abort=True)
        self._server_thread = ServerThread(context, server_config)
        self._addr = self._server_thread.start()
        proxy.set_upstream(*self._addr)
        restart_wall_s = time.perf_counter() - crash_started
        server = self._server_thread.server
        self._violations.extend(
            self._server_thread.call(
                lambda: check_acked_durability(
                    server, watermarks, exempt_shards=pre_degraded
                )
            )
        )
        return {
            "restart_wall_s": round(restart_wall_s, 6),
            "acked_at_crash": sum(watermarks.values()),
            "pre_crash_degraded_shards": pre_degraded,
            "recovery": self._server_thread.call(lambda: server.recovery_info),
        }

    # -- drivers -------------------------------------------------------
    def _drive_one(
        self,
        index: int,
        job: Tuple[str, Tuple[bytes, ...]],
        proxy: ChaosProxy,
    ) -> None:
        config = self.config
        sid, chunks = job
        role = _session_role(index, config.planes)
        policy = RetryPolicy(
            max_attempts=10,
            base_delay_s=0.05,
            max_delay_s=1.0,
            timeout_s=config.timeout_s,
        )
        rng = random.Random((config.seed << 16) ^ index)
        client = DebugClient(proxy.host, proxy.port, policy=policy, rng=rng)
        row: Dict[str, object] = {"session_id": sid, "role": role}
        feed: Optional[SessionFeed] = None
        try:
            feed = SessionFeed(client, session_id=sid, mode=config.mode)
            for chunk_index, chunk in enumerate(chunks):
                if role == ROLE_DISCONNECT and chunk_index % 3 == 2:
                    # abrupt mid-stream disconnect: vanish without a
                    # goodbye, then carry on over a fresh connection
                    client.close()
                reply = feed.feed(
                    chunk, eof=(chunk_index == len(chunks) - 1)
                )
                with self._lock:
                    self._acked[sid] = max(
                        self._acked.get(sid, 0), reply.next_chunk
                    )
            if role == ROLE_POISON:
                snap = feed.snapshot()
                with self._lock:
                    self._acked.pop(sid, None)
                status = self._poison(client, feed, sid, len(chunks))
                row.update(
                    status=status,
                    records=snap.observed_length,
                    consistent_paths=snap.result.consistent_paths,
                    total_paths=snap.result.total_paths,
                )
            else:
                with self._lock:
                    # forget the watermark *before* closing: a close
                    # applied server-side but lost on the wire would
                    # otherwise read as a durability violation
                    self._acked.pop(sid, None)
                reply = feed.close()
                row.update(
                    status=reply.status,
                    records=reply.records,
                    consistent_paths=reply.result.consistent_paths,
                    total_paths=reply.result.total_paths,
                )
        except Exception as exc:  # noqa: BLE001 - recorded, checked
            row.update(
                status="error", detail=f"{type(exc).__name__}: {exc}"
            )
        finally:
            with self._lock:
                self._rows.append(row)
                self._retries += client.retries
                self._breaker_opens += client.breaker.opens
                if feed is not None:
                    self._recoveries += feed.recoveries
            client.close()

    def _poison(
        self,
        client: DebugClient,
        feed: SessionFeed,
        sid: str,
        next_index: int,
    ) -> str:
        """Keep feeding a payload that crashes the apply (a feed after
        EOF hits a closed parser) until the server quarantines the
        session; the terminal reply is a structured error, never an
        infinite retry."""
        for _ in range(QUARANTINE_AFTER * 2 + 4):
            try:
                client.feed(sid, next_index, b"poison\n", eof=False)
            except ServerError as exc:
                if exc.code == "session-quarantined":
                    return "quarantined"
                if exc.code == "unknown-session":
                    # the quarantine reply was lost and the retransmit
                    # found the session already retired
                    return "quarantined"
                if exc.code == "chunk-gap":
                    # a mid-poison crash recovered the session without
                    # its acked tail: heal the real chunks, then keep
                    # poisoning
                    feed.resync(int(exc.extra.get("expected", 0)))
                    continue
                if exc.code == "poison-payload":
                    continue
                raise
        return "poison-not-quarantined"

    # -- background observers ------------------------------------------
    def _poll_stats(self) -> None:
        """Hammer STATS throughout the soak (direct, no proxy): the
        metrics plane must answer even while every shard churns through
        fault recovery."""
        while not self._stop_poll.is_set():
            host, port = self._addr
            client = DebugClient(
                host, port,
                policy=RetryPolicy(max_attempts=1, timeout_s=1.0),
            )
            try:
                snapshot = client.stats()
                self._polls_ok += 1
                self._last_snapshot = snapshot
            except Exception:  # noqa: BLE001 - counted, not fatal
                self._polls_failed += 1
            finally:
                client.close()
            self._stop_poll.wait(0.1)

    def _mangle_connections(self) -> None:
        """Session-plane wire abuse: half-frames and bad magic, sent
        straight at the server, then an abrupt close -- the listener
        must shrug all of it off."""
        host, port = self._addr
        half_frame = protocol.encode_frame(protocol.PING, 1)
        payloads = (
            half_frame[: len(half_frame) // 2],  # frame cut mid-header
            b"XX" + b"\x00" * 12,  # bad magic
        )
        for payload in payloads:
            for _ in range(2):
                try:
                    sock = socket.create_connection(
                        (host, port), timeout=1.0
                    )
                    sock.sendall(payload)
                    sock.close()
                except OSError:  # pragma: no cover - listener racing
                    pass

    # -- report assembly -----------------------------------------------
    def _build_report(
        self,
        jobs: List[Tuple[str, Tuple[bytes, ...]]],
        references: Dict[str, Dict[str, int]],
        decider: FaultDecider,
        proxy: Optional[ChaosProxy],
        crash_ops: Dict[str, object],
        final_health: Dict[str, object],
        wall_s: float,
    ) -> SoakReport:
        config = self.config
        with self._lock:
            rows = sorted(
                (dict(row) for row in self._rows),
                key=lambda row: str(row["session_id"]),
            )
        self._violations.extend(check_localization(rows, references))
        grouped: Dict[str, List[Dict[str, str]]] = {
            name: []
            for name in (
                "acked-durability",
                "localization-convergence",
                "shard-liveness",
                "metrics-serveable",
                "degradation-alert",
                "soak-timeout",
            )
        }
        for violation in self._violations:
            grouped.setdefault(violation.invariant, []).append(
                violation.as_dict()
            )
        for name in grouped:
            grouped[name].sort(key=lambda v: (v["subject"], v["detail"]))
        deterministic: Dict[str, object] = {
            "config": {
                "seed": config.seed,
                "sessions": config.sessions,
                "planes": list(config.planes),
                "scenario": config.scenario,
                "instances": config.instances,
                "mode": config.mode,
                "chunk_records": config.chunk_records,
                "shards": config.shards,
                "crash": config.crash,
                "quarantine_after": QUARANTINE_AFTER,
            },
            "sessions": rows,
            "invariants": grouped,
        }
        digest = hashlib.sha256(
            json.dumps(
                deterministic, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        ).hexdigest()[:16]
        deterministic["determinism_digest"] = digest
        ops: Dict[str, object] = {
            "wall_s": round(wall_s, 6),
            "faults": decider.stats(),
            "proxy": proxy.stats() if proxy is not None else {},
            "retries": self._retries,
            "recoveries": self._recoveries,
            "breaker_opens": self._breaker_opens,
            "stats_polls_ok": self._polls_ok,
            "stats_polls_failed": self._polls_failed,
            "crash": crash_ops,
            "final_health": final_health,
            "total_chunks": sum(len(chunks) for _sid, chunks in jobs),
        }
        return SoakReport(deterministic=deterministic, ops=ops)


def run_soak(
    config: Optional[ChaosConfig] = None,
    context: Optional[ServeContext] = None,
) -> SoakReport:
    """Convenience wrapper: one seeded soak, one report."""
    return ChaosRunner(config=config, context=context).run()


__all__ = [
    "ChaosConfig",
    "ChaosRunner",
    "ROLE_DISCONNECT",
    "ROLE_NORMAL",
    "ROLE_POISON",
    "SoakReport",
    "run_soak",
]
