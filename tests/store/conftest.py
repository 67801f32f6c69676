"""Shared fixtures for the durable-store tests.

Reuses the debug-service test context (the toy cache-coherence flow)
and its ``start_server`` helper; the store tests add a data directory
to the server config and kill/restart servers around it.
"""

from __future__ import annotations

from typing import Tuple

import pytest

from repro.compress.encoder import encode_records
from repro.core.interleave import interleave_flows
from repro.server import ServeContext
from repro.server.loadgen import render_session_chunks
from repro.stream.service import synthetic_session_records

from tests.server.conftest import RunningServer, start_server  # noqa: F401


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


def session_chunks(
    context: ServeContext, seed: int, transport: str = "text"
) -> Tuple[bytes, ...]:
    """One seeded session's FEED chunks for *transport*.

    ``text`` is the rendered trace file cut after every fourth record
    line.  ``ctrace`` is the compressed bitstream of the same records,
    one record a frame, cut into six equal byte ranges: frames
    straddle chunks, and a checkpoint can land mid-bitstream after
    some records were fed.
    """
    if transport == "text":
        return render_session_chunks(context, seed=seed, chunk_records=4)
    records = synthetic_session_records(
        context.interleaved, context.traced, seed=seed
    )
    blob = encode_records(
        records,
        scenario="loadgen",
        seed=seed,
        traced=context.traced,
        records_per_frame=1,
    ).data
    size = len(blob)
    return tuple(
        blob[size * i // 6 : size * (i + 1) // 6] for i in range(6)
    )
