"""The durable entry a session writes keeps each session fact once.

How much a session consumed lives only in its localizer's carried DP
state (the frontier's ``length``, or the window's), so an entry holds
no ``records`` or ``feeds`` count and its localizer no
``observed_length``.  A ``ctrace`` session decodes through its frame
decoder alone, so its entry holds neither a text parser nor a UTF-8
decoder.  Mid-stream, ``export_session`` -> ``adopt`` ->
``export_session`` is the identity, and the adopted session then ends
where the exporting one does.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.stream.session import SessionManager
from tests.store.test_entry_layout import SESSIONS, legacy_chunks

PAYLOAD = Path(__file__).parent / "data" / "snapshot_with_retired_keys.json"
#: Beside ``token``, which an entry carries when its OPEN did.
COMMON_KEYS = {
    "session_id", "mode", "status", "localizer", "transport", "next_chunk",
}
ENTRY_KEYS = {
    "text": COMMON_KEYS | {"text_decoder", "parser"},
    "ctrace": COMMON_KEYS | {"ingester"},
}
LOCALIZER_KEYS = {
    "mode", "max_frontier", "overflowed", "peak_frontier", "frontier",
    "pattern",
}
#: The session of the checked-in payload that was fed each transport.
LEGACY_ID = {"text": "legacy-text", "ctrace": "legacy-ctrace"}


def manager_for(context) -> SessionManager:
    return SessionManager(
        context.interleaved, context.traced, catalog=context.catalog
    )


def exported(manager: SessionManager, sid: str) -> dict:
    """The session's entry as a snapshot stores it (JSON)."""
    return json.loads(json.dumps(manager.export_session(sid)))


def assert_entry_layout(entry: dict, transport: str) -> None:
    assert set(entry) - {"token"} == ENTRY_KEYS[transport]
    assert set(entry["localizer"]) == LOCALIZER_KEYS
    if transport == "ctrace":
        assert set(entry["ingester"]) == {"decoder"}


@pytest.mark.parametrize("mode", ("prefix", "exact", "window"))
@pytest.mark.parametrize("transport", ("text", "ctrace"))
def test_mid_stream_entry_round_trips(context, transport, mode):
    _, seed, fed = SESSIONS[LEGACY_ID[transport]]
    chunks = legacy_chunks(context, transport, seed)
    source = manager_for(context)
    sid = source.open("s", mode=mode, transport=transport, token="1234abcd")
    for index in range(fed):
        source.feed_chunk(sid, index, chunks[index])
    entry = exported(source, sid)
    assert_entry_layout(entry, transport)
    assert entry["token"] == "1234abcd"
    # mid-stream: a torn codepoint and a partial line, a partial frame
    if transport == "text":
        assert entry["text_decoder"][0] != ""
        assert entry["parser"]["buffer"] != ""
    else:
        assert entry["ingester"]["decoder"]["buffer"] != ""
    observed = source.session(sid).localizer.observed_length
    assert observed > 0
    if mode == "window":
        assert len(entry["localizer"]["pattern"]) == observed
    else:
        assert entry["localizer"]["frontier"]["length"] == observed

    target = manager_for(context)
    target.adopt(entry)
    assert exported(target, sid) == entry
    for index in range(fed, len(chunks)):
        eof = index == len(chunks) - 1
        for manager in (source, target):
            manager.feed_chunk(sid, index, chunks[index], eof)
    assert exported(target, sid) == exported(source, sid)
    assert target.close(sid) == source.close(sid)


@pytest.mark.parametrize("transport", ("text", "ctrace"))
def test_an_older_entry_is_rewritten_in_the_new_layout(context, transport):
    payload = json.loads(PAYLOAD.read_text(encoding="utf-8"))
    entries = {
        entry["session_id"]: entry
        for entry in payload["sessions"] + payload["spilled"]
    }
    old = entries[LEGACY_ID[transport]]
    # the three copies of the consumed count the older layout kept
    # always agreed
    localizer = old["localizer"]
    assert old["records"] == localizer["observed_length"]
    assert localizer["observed_length"] == localizer["frontier"]["length"]

    manager = manager_for(context)
    session = manager.adopt(old)
    assert session.localizer.observed_length == old["records"]
    if transport == "ctrace":
        assert session.parser is None and session.decoder is None
    entry = exported(manager, old["session_id"])
    assert_entry_layout(entry, transport)
    assert entry["localizer"]["frontier"] == localizer["frontier"]
    assert entry["next_chunk"] == old["next_chunk"]
