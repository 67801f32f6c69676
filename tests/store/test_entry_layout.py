"""Snapshot entries in the older, wider layout still restore.

``data/snapshot_with_retired_keys.json`` is a shard snapshot payload
(format 1) written when each entry still carried five keys nothing
reads back: ``wire_bytes``, ``raw_bits``, ``last_status``,
``observed_length`` and ``frontier_size``.  It holds two sessions of
the cc-test context, each stopped mid-stream:

* ``legacy-text`` -- text transport, spilled by the idle sweep after
  three of five pieces: two records in, its UTF-8 decoder holding the
  first byte of a torn ``"✓"`` and its parser the start of a comment
  line;
* ``legacy-ctrace`` -- compressed transport, live, four of six
  bitstream pieces in: one record in, mid-frame.

The server restores both from the checked-in payload, and the
SNAPSHOT and CLOSE replies equal the ones the older layout's own
server gave.  Those were JSON and also carried the session id and the
consistent fraction; the binary replies leave both to the client, so
the id is the one requested and the fraction is
:attr:`LocalizationResult.fraction` of the two counts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

from repro.selection.localization import LocalizationResult
from repro.server import DebugClient, ServeContext, ServerConfig, protocol
from repro.server.loadgen import render_session_chunks
from repro.store.inspect import META_FORMAT, shard_directory, write_meta
from repro.store.snapshot import write_snapshot
from tests.store.conftest import session_chunks, start_server

PAYLOAD = Path(__file__).parent / "data" / "snapshot_with_retired_keys.json"
RETIRED_KEYS = {
    "wire_bytes", "raw_bits", "last_status", "observed_length",
    "frontier_size",
}
#: Session id -> (transport, seed, pieces fed before the snapshot).
SESSIONS = {
    "legacy-text": ("text", 201, 3),
    "legacy-ctrace": ("ctrace", 202, 4),
}

#: The replies the older layout's server gave on this payload.
PINNED = {
    "legacy-text": {
        "snapshot": {
            "session_id": "legacy-text",
            "consistent_paths": 1,
            "total_paths": 6,
            "fraction": 0.16666666666666666,
            "status": "active",
            "observed_length": 2,
            "next_chunk": 3,
        },
        "close": {
            "session_id": "legacy-text",
            "status": "closed",
            "records": 4,
            "observed_length": 4,
            "consistent_paths": 1,
            "total_paths": 6,
            "fraction": 0.16666666666666666,
            "next_chunk": 5,
        },
    },
    "legacy-ctrace": {
        "snapshot": {
            "session_id": "legacy-ctrace",
            "consistent_paths": 3,
            "total_paths": 6,
            "fraction": 0.5,
            "status": "active",
            "observed_length": 1,
            "next_chunk": 4,
        },
        "close": {
            "session_id": "legacy-ctrace",
            "status": "closed",
            "records": 4,
            "observed_length": 4,
            "consistent_paths": 1,
            "total_paths": 6,
            "fraction": 0.16666666666666666,
            "next_chunk": 6,
        },
    },
}


def legacy_chunks(
    context: ServeContext, transport: str, seed: int
) -> Tuple[bytes, ...]:
    """The pieces a session was fed.  Text is the trace file with a
    ``# ✓`` comment line after the second record, cut into five byte
    ranges, the third ending inside the 3-byte ``"✓"``; ctrace is
    :func:`session_chunks`' six ranges of the bitstream."""
    if transport == "ctrace":
        return session_chunks(context, seed, "ctrace")
    lines = b"".join(
        render_session_chunks(context, seed=seed, chunk_records=4)
    ).splitlines(keepends=True)
    blob = b"".join(lines[:3] + ["# ✓ mark\n".encode("utf-8")] + lines[3:])
    tear = blob.index("✓".encode("utf-8")) + 1
    cuts = (0, tear // 3, 2 * tear // 3, tear, (tear + len(blob)) // 2,
            len(blob))
    return tuple(blob[a:b] for a, b in zip(cuts, cuts[1:]))


def as_pinned(sid: str, reply: dict) -> dict:
    """A decoded SNAPSHOT or CLOSE reply in the pinned JSON layout."""
    result = LocalizationResult(
        reply["consistent_paths"], reply["total_paths"]
    )
    return dict(reply, session_id=sid, fraction=result.fraction)


def restored_replies(
    context: ServeContext, payload: dict, data_dir: Path
) -> Dict[str, Dict[str, dict]]:
    """Write *payload* as shard 0's snapshot in a fresh *data_dir*,
    start a one-shard server on it, and for each session take the raw
    SNAPSHOT reply, feed the remaining pieces, and take the raw CLOSE
    reply, each decoded and put in the pinned layout."""
    write_meta(
        data_dir,
        {
            "format": META_FORMAT,
            "scenario": context.name,
            "mode": context.mode,
            "fingerprint": payload["fingerprint"],
            "shards": 1,
        },
    )
    write_snapshot(shard_directory(data_dir, 0), payload, payload["wal_lsn"])
    running = start_server(
        context, ServerConfig(shards=1, data_dir=str(data_dir), fsync="off")
    )
    replies: Dict[str, Dict[str, dict]] = {}
    try:
        with DebugClient(running.host, running.port) as client:
            for sid, (transport, seed, fed) in SESSIONS.items():
                # a fresh client attaches to the restored session, live
                # or spilled, for its handle
                _, attached = client.request(
                    protocol.OPEN_SESSION,
                    protocol.encode_open_payload(sid, attach=True),
                )
                request = protocol.encode_session_request(
                    attached["handle"]
                )
                _, snapshot = client.request(protocol.SNAPSHOT, request)
                chunks = legacy_chunks(context, transport, seed)
                for index in range(fed, len(chunks)):
                    client.feed(
                        sid, index, chunks[index],
                        eof=index == len(chunks) - 1,
                    )
                _, close = client.request(protocol.CLOSE_SESSION, request)
                replies[sid] = {
                    "snapshot": as_pinned(sid, snapshot),
                    "close": as_pinned(sid, close),
                }
    finally:
        running.thread.stop()
    return replies


def test_entries_in_the_older_layout_restore(context, tmp_path):
    payload = json.loads(PAYLOAD.read_text(encoding="utf-8"))
    live = {entry["session_id"]: entry for entry in payload["sessions"]}
    spilled = {entry["session_id"]: entry for entry in payload["spilled"]}
    assert set(live) == {"legacy-ctrace"}
    assert set(spilled) == {"legacy-text"}
    for sid, entry in (*live.items(), *spilled.items()):
        assert RETIRED_KEYS <= set(entry)
        assert entry["next_chunk"] == SESSIONS[sid][2]
        assert entry["records"] > 0
    # mid-stream: a torn codepoint, a partial line, a partial frame
    assert spilled["legacy-text"]["text_decoder"][0] != ""
    assert spilled["legacy-text"]["parser"]["buffer"] != ""
    assert live["legacy-ctrace"]["ingester"]["decoder"]["buffer"] != ""

    assert restored_replies(context, payload, tmp_path) == PINNED
