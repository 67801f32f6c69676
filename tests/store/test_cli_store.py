"""The ``repro store {inspect,verify,compact}`` offline tooling, driven
through the real CLI entry point over a directory a durable server
actually wrote."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.server import DebugClient
from repro.server.loadgen import render_session_chunks
from repro.store import wal
from tests.store.conftest import start_server
from tests.store.test_recovery import durable_config, feed_session


@pytest.fixture
def data_dir(context, tmp_path):
    """A data directory with two fed sessions and one snapshot."""
    root = tmp_path / "data"
    running = start_server(
        context, durable_config(root, snapshot_every=4)
    )
    try:
        with DebugClient(running.host, running.port) as client:
            feed_session(client, context, "cli-a", 11)
            feed_session(client, context, "cli-b", 12)
    finally:
        running.thread.stop()
    return root


class TestInspect:
    def test_json_report(self, data_dir, capsys):
        assert main(["store", "inspect", str(data_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meta"]["scenario"] == "cc-test"
        assert report["meta"]["shards"] == 2
        assert len(report["shards"]) == 2
        assert any(
            shard["segments"] or shard["snapshots"]
            for shard in report["shards"]
        )

    def test_human_readable(self, data_dir, capsys):
        assert main(["store", "inspect", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert "scenario: cc-test" in out
        assert "shard-00" in out and "shard-01" in out

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(
            ["store", "inspect", str(tmp_path / "nope")]
        ) == 2
        assert "store:" in capsys.readouterr().err


class TestVerify:
    def test_clean_directory_is_ok(self, data_dir, capsys):
        assert main(["store", "verify", str(data_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["problems"] == []

    def test_torn_tail_is_reported_and_fails(self, data_dir, capsys):
        clipped = False
        for shard_dir in sorted(data_dir.glob("shard-*")):
            segments = wal.list_segments(shard_dir)
            if segments and not clipped:
                path = segments[-1]
                path.write_bytes(path.read_bytes()[:-1])
                clipped = True
        assert clipped
        assert main(["store", "verify", str(data_dir)]) == 1
        captured = capsys.readouterr()
        assert "NOT OK" in captured.out
        assert "PROBLEM" in captured.err


class TestCompact:
    def test_compaction_drops_covered_segments(
        self, context, tmp_path, capsys
    ):
        # snapshot on every feed so rotated segments pile up covered
        root = tmp_path / "data"
        running = start_server(
            context, durable_config(root, snapshot_every=1)
        )
        try:
            chunks = render_session_chunks(
                context, seed=13, chunk_records=1
            )
            with DebugClient(running.host, running.port) as client:
                client.open_session("compactee")
                for index, chunk in enumerate(chunks):
                    client.feed("compactee", index, chunk)
        finally:
            running.thread.stop(abort=True)

        before = sum(
            len(wal.list_segments(p))
            for p in root.glob("shard-*")
        )
        assert main(["store", "compact", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        after = sum(
            len(wal.list_segments(p))
            for p in root.glob("shard-*")
        )
        assert after == before - report["segments_removed"]
        # compacting twice is idempotent
        assert main(["store", "compact", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["segments_removed"] == 0

    def test_compacted_directory_still_recovers(
        self, context, data_dir
    ):
        main(["store", "compact", str(data_dir)])
        running = start_server(context, durable_config(data_dir))
        try:
            assert running.thread.call(
                lambda: running.server.recovery_info
            )["sessions"] == 2
        finally:
            running.thread.stop()
