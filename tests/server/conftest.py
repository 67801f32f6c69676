"""Shared fixtures for the debug-service tests.

The default server context is the toy cache-coherence flow (two
interleaved instances, ReqE/GntE traced) -- cheap to build, yet it
exercises the full select->ingest->localize path end to end.  The
scenario-based parity tests build their own contexts.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.interleave import interleave_flows
from repro.server import (
    DebugClient,
    ServeContext,
    ServerConfig,
    ServerThread,
)


@pytest.fixture
def context(cc_flow) -> ServeContext:
    interleaved = interleave_flows([cc_flow], copies=2)
    traced = (
        cc_flow.message_by_name("ReqE"),
        cc_flow.message_by_name("GntE"),
    )
    return ServeContext.from_components(
        interleaved, traced, name="cc-test"
    )


@dataclass
class RunningServer:
    thread: ServerThread
    host: str
    port: int
    context: ServeContext

    @property
    def server(self):
        return self.thread.server


def start_server(
    context: ServeContext, config: ServerConfig
) -> RunningServer:
    thread = ServerThread(context, config)
    host, port = thread.start()
    return RunningServer(thread, host, port, context)


@pytest.fixture
def running(context) -> RunningServer:
    handle = start_server(context, ServerConfig(shards=2))
    yield handle
    handle.thread.stop()


@pytest.fixture
def client(running) -> DebugClient:
    with DebugClient(running.host, running.port) as c:
        yield c
