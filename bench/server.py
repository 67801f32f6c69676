"""The server under test as a subprocess, observed from outside.

Everything the benchmark knows about the server comes from its stdout
ready lines, ``/proc/<pid>`` and the ``STATS`` frame -- nothing is read
from inside the server process.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from bench import ROOT

_LISTENING = re.compile(r"listening on (?P<host>[^:\s]+):(?P<port>\d+)")
_RECOVERED = re.compile(
    r"recovered (?P<sessions>\d+) session\(s\), replayed "
    r"(?P<records>\d+) record\(s\) in (?P<wall>[0-9.eE+-]+)s"
)
_TICKS = os.sysconf("SC_CLK_TCK")

#: Longest a server may take to print its ready line.
READY_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a measured failure)."""


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for a child: the checkout's sources and a private
    artifact cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class ServerProcess:
    """One ``python -m repro serve`` subprocess.

    :meth:`start` returns the seconds from spawn to the ``listening``
    line; a durable server's recovery summary is parsed from the line
    that follows it.
    """

    def __init__(
        self,
        serve_args,
        cache_dir: Path,
        log_path: Path,
        data_dir: Optional[Path] = None,
    ) -> None:
        self.args = tuple(serve_args)
        if data_dir is not None:
            self.args += ("--data-dir", str(data_dir))
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.durable = data_dir is not None
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.recovery: Dict[str, float] = {}

    def start(self) -> float:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.log_path, "ab")
        try:
            started = time.perf_counter()
            # unbuffered, so select() sees every line not yet read
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *self.args],
                bufsize=0,
                stdout=subprocess.PIPE,
                stderr=log,
                env=child_env(self.cache_dir),
                cwd=str(ROOT),
            )
        finally:
            log.close()
        match = _LISTENING.search(self._line(started))
        elapsed = time.perf_counter() - started
        if match is None:
            raise BenchError(f"unexpected ready line from {self.args}")
        self.host, self.port = match["host"], int(match["port"])
        if self.durable:
            store = _RECOVERED.search(self._line(started))
            if store is None:
                raise BenchError("durable server printed no store line")
            self.recovery = {
                "sessions": int(store["sessions"]),
                "replayed_records": int(store["records"]),
                "wall_s": float(store["wall"]),
            }
        return elapsed

    def _line(self, started: float) -> str:
        """The next stdout line, or :class:`BenchError` when the server
        exits or stays silent past :data:`READY_TIMEOUT_S`."""
        assert self.proc is not None and self.proc.stdout is not None
        remaining = READY_TIMEOUT_S - (time.perf_counter() - started)
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.kill()
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise BenchError(
                f"server {' '.join(self.args)} did not become ready:\n{tail}"
            )
        return line.decode("utf-8", "replace")

    # -- observation ---------------------------------------------------
    def cpu_s(self) -> float:
        """User plus system CPU seconds of every server thread so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the server's peak resident set."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    # -- shutdown ------------------------------------------------------
    def stop(self) -> None:
        """Graceful SIGTERM (the server drains), then wait."""
        if self.proc is None or self.proc.poll() is not None:
            self._reap()
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        self._reap()

    def kill(self) -> None:
        """SIGKILL -- the crash phase's power cut -- then wait."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# host noise
def host_cpu() -> Dict[str, int]:
    """Aggregate ``/proc/stat`` jiffies: ``steal`` and ``total``."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already folded into user/nice)
    return {"steal": fields[7] if len(fields) > 7 else 0,
            "total": sum(fields[:8])}


def loadavg() -> float:
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])
