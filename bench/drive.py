"""Closed-loop load and the restart phases, driven from outside the
server.

A validator's tool waits for each reply before it sends the next
readout, so the load is a closed loop: client threads (two, or one on
window-poll), one connection each, no think time.  A slower server
therefore receives less load, and ``records_per_s`` is its capacity at
that many clients.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.server.client import DebugClient, SessionFeed

from bench.server import BenchError, ServerProcess
from bench.workloads import Capture, Workload, check_close

#: A request sample: ``(kind, completed_at, seconds, records)``; kind is
#: open, feed, snapshot, close or session (open to the close reply).
Sample = Tuple[str, float, float, int]

REQUEST_KINDS = ("open", "feed", "snapshot", "close")


@dataclass
class Window:
    """One driven interval ``[start, end]`` and what completed in it."""

    start: float
    end: float
    samples: List[Sample]
    probe: object = None
    failures: List[str] = field(default_factory=list)

    def durations(self, kind: str) -> List[float]:
        return sorted(s[2] for s in self.samples if s[0] == kind)

    @property
    def records(self) -> int:
        return sum(s[3] for s in self.samples if s[0] == "feed")

    @property
    def requests(self) -> int:
        return sum(1 for s in self.samples if s[0] in REQUEST_KINDS)


class ClosedLoop:
    """Cycles *pool* through a server until a deadline.

    Every CLOSE reply is checked against the capture's batch reference;
    mismatches accumulate in :attr:`mismatches`, and :attr:`sessions`
    counts the sessions checked.
    """

    def __init__(
        self,
        server: ServerProcess,
        workload: Workload,
        pool: Sequence[Capture],
        rng_seed: int = 0,
    ) -> None:
        self.workload = workload
        self.pool = pool
        self.clients = [
            DebugClient(
                server.host, server.port, rng=random.Random(rng_seed + i)
            )
            for i in range(workload.clients)
        ]
        self.mismatches: List[str] = []
        self.sessions = 0
        self._lock = threading.Lock()
        self._next = 0

    @property
    def retries(self) -> int:
        return sum(client.retries for client in self.clients)

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def run(
        self, seconds: float, at_deadline: Optional[Callable[[], object]] = None
    ) -> Window:
        """Drive for *seconds*; *at_deadline* runs at the deadline,
        before the clients finish the sessions they are in."""
        outputs: List[List[Sample]] = [[] for _ in self.clients]
        failures: List[str] = []
        stop = threading.Event()
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(
                target=self._loop,
                args=(client, deadline, out, failures, stop),
                name=f"bench-client{i}",
                daemon=True,
            )
            for i, (client, out) in enumerate(zip(self.clients, outputs))
        ]
        for thread in threads:
            thread.start()
        time.sleep(max(0.0, deadline - time.perf_counter()))
        probe = at_deadline() if at_deadline is not None else None
        for thread in threads:
            thread.join(timeout=120.0)
        if any(thread.is_alive() for thread in threads):
            stop.set()
            raise BenchError("a client thread did not finish its session")
        samples = [s for out in outputs for s in out if s[1] <= deadline]
        return Window(start, deadline, samples, probe, failures)

    def _take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
        return index

    def _loop(
        self,
        client: DebugClient,
        deadline: float,
        out: List[Sample],
        failures: List[str],
        stop: threading.Event,
    ) -> None:
        while not stop.is_set() and time.perf_counter() < deadline:
            index = self._take()
            capture = self.pool[index % len(self.pool)]
            sid = f"{self.workload.name}-{index:06d}"
            try:
                self._session(client, sid, capture, out)
            except ReproError as exc:
                failures.append(f"{sid}: {type(exc).__name__}: {exc}")
                stop.set()

    def _session(
        self,
        client: DebugClient,
        sid: str,
        capture: Capture,
        out: List[Sample],
    ) -> None:
        clock = time.perf_counter
        opened = clock()
        feed = SessionFeed(client, session_id=sid)
        done = clock()
        out.append(("open", done, done - opened, 0))
        last = len(capture.chunks) - 1
        for index, chunk in enumerate(capture.chunks):
            began = clock()
            reply = feed.feed(chunk, eof=index == last)
            done = clock()
            out.append(("feed", done, done - began, reply.consumed))
            if self.workload.poll:
                self._snapshot(feed, out)
        if not self.workload.poll:
            self._snapshot(feed, out)
        began = clock()
        closed = feed.close()
        done = clock()
        out.append(("close", done, done - began, 0))
        out.append(("session", done, done - opened, 0))
        if feed.recoveries:
            raise ReproError(
                f"server lost the session ({feed.recoveries} recoveries)"
            )
        problem = check_close(
            capture,
            closed.status,
            closed.result.consistent_paths,
            closed.result.total_paths,
        )
        with self._lock:
            self.sessions += 1
            if problem is not None:
                self.mismatches.append(problem)

    @staticmethod
    def _snapshot(feed: SessionFeed, out: List[Sample]) -> None:
        began = time.perf_counter()
        feed.snapshot()
        done = time.perf_counter()
        out.append(("snapshot", done, done - began, 0))


def crash_restart(
    server: ServerProcess,
    pool: Sequence[Capture],
    tag: str,
    sessions: int,
) -> Tuple[float, List[str]]:
    """The durable crash phase.

    Opens *sessions* sessions and feeds each part of its capture, then
    SIGKILLs the server and restarts it on the same data directory.
    Every session must come back with ``next_chunk`` at least its acked
    chunk count, and, fed the rest, close equal to its batch result.
    Returns the restart seconds (recovery included) and the problems.
    """
    acked: List[Tuple[str, Capture, int]] = []
    with DebugClient(server.host, server.port) as client:
        for i in range(sessions):
            capture = pool[i % len(pool)]
            sid = f"crash-{tag}-{i:04d}"
            count = 1 + i % max(len(capture.chunks) - 1, 1)
            client.open_session(session_id=sid)
            for index in range(count):
                client.feed(sid, index, capture.chunks[index])
            acked.append((sid, capture, count))
    server.kill()
    seconds = server.start()
    problems: List[str] = []
    with DebugClient(server.host, server.port) as client:
        for sid, capture, count in acked:
            resumed = client.snapshot(sid).next_chunk
            if resumed is None or resumed < count:
                problems.append(
                    f"{sid}: resumed at chunk {resumed}, {count} were acked"
                )
                continue
            last = len(capture.chunks) - 1
            for index in range(resumed, last + 1):
                client.feed(
                    sid, index, capture.chunks[index], eof=index == last
                )
            closed = client.close_session(sid)
            problem = check_close(
                capture,
                closed.status,
                closed.result.consistent_paths,
                closed.result.total_paths,
            )
            if problem is not None:
                problems.append(f"{sid}: {problem}")
    return seconds, problems
