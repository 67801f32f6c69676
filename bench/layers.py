"""Per-layer numbers: the offline pipeline and a traced online replay.

The offline pipeline runs in a fresh child process per scenario
(``python -m bench.layers offline <scenario> <instances>``), so every
stage is timed cold, as a server's first start pays it.

The online replay feeds a workload's first captures single-threaded,
with the same chunks and in the server's FEED order, through the public
function of each layer the server calls.  Spans are recorded around
those calls by this file -- the program itself is not instrumented --
and written in Chrome trace-event format.  A layer's self time is its
span minus its children.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from bench.workloads import Capture, Workload

#: Replayed captures per workload (window-poll's composed DP is slow).
REPLAY_CAPTURES = 64
REPLAY_CAPTURES_POLL = 16


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(
        self, name: str, start: float, parent: Optional[int],
        request: Optional[str],
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


class Tracer:
    """Spans kept in memory until the replay ends.  A span without a
    request id inherits its parent's (``session/chunk``)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        span = Span(name, time.perf_counter(), parent, request)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's (children run
        inside their parent, one after another)."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def mean_us(self, name: str) -> float:
        durations = [s.end - s.start for s in self.spans if s.name == name]
        return statistics.fmean(durations) * 1e6 if durations else 0.0

    def total_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def chrome(self) -> Dict[str, object]:
        """The spans as Chrome trace events (``ph: X``, microseconds)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": {
                    "id": index,
                    "parent": span.parent,
                    "request": span.request,
                    "self_us": round(own * 1e6, 3),
                },
            }
            for index, (span, own) in enumerate(
                zip(self.spans, self.self_times())
            )
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Untraced(Tracer):
    """The same replay with no spans kept, timed for
    ``replay.records_per_s``."""

    def span(self, name: str, request: Optional[str] = None):
        return contextlib.nullcontext()


# ----------------------------------------------------------------------
# online replay
def replay(
    workload: Workload,
    context,
    captures: Sequence[Capture],
    store_dir: Path,
    tracer: Tracer,
) -> Dict[str, float]:
    """Replay *captures* through the server's layers in process.

    The store runs with the workload's fsync policy (``always`` on the
    durable workload, ``off`` elsewhere, where it prices what
    ``--data-dir`` would add).  Returns the replay's counts and wall
    time; the spans land in *tracer*.
    """
    from repro import perf
    from repro.selection import kernels
    from repro.selection.localization import PathLocalizer
    from repro.server import protocol
    from repro.store.store import SessionStore
    from repro.stream.ingest import IncrementalTraceParser
    from repro.stream.session import SessionLimits, SessionManager

    # fresh tables, so every pass starts from an empty step memo
    kernels.default_registry().clear()
    manager = SessionManager(
        context.interleaved,
        context.traced,
        mode=context.mode,
        limits=SessionLimits(max_frontier=context.max_frontier),
    ).warm()
    second = PathLocalizer(
        context.interleaved, context.traced, registry=kernels.TableRegistry()
    ).warm()
    fingerprint = manager.shared_localizer.fingerprint()
    store = SessionStore(
        store_dir, fsync="always" if workload.durable else "off"
    )
    store.open()
    counters = perf.PerfCounters()
    assembler = protocol.FrameAssembler()
    records = 0

    def reply(seq: int, body: Dict[str, object]) -> None:
        payload = protocol.encode_json(body)
        protocol.encode_frame(protocol.OK, seq, payload)
        protocol.decode_json(payload)

    def snapshot(sid: str, request: str) -> None:
        with tracer.span("snapshot", request):
            with tracer.span("stream.session.snapshot"):
                result = manager.snapshot(sid)
            with tracer.span("server.protocol.reply"):
                reply(0, {"session_id": sid,
                          "consistent_paths": result.consistent_paths,
                          "total_paths": result.total_paths})

    def checkpoint() -> None:
        store.write_snapshot(
            [manager.export_session(sid) for sid in manager.session_ids()],
            fingerprint=fingerprint,
            scenario=context.name,
            mode=context.mode,
            session_counter=0,
        )

    started = time.perf_counter()
    try:
        for number, capture in enumerate(captures):
            sid = f"replay-{number:04d}"
            manager.open(sid)
            store.log_open(sid, context.mode, "text")
            decoder = codecs.getincrementaldecoder("utf-8")("replace")
            parser = IncrementalTraceParser(context.catalog)
            frontier = second.initial_frontier()
            last = len(capture.chunks) - 1
            for index, chunk in enumerate(capture.chunks):
                eof = index == last
                request = f"{sid}/{index}"
                with tracer.span("feed", request):
                    with tracer.span("server.protocol.encode"):
                        frame = protocol.encode_frame(
                            protocol.FEED_CHUNK,
                            index,
                            protocol.encode_feed_payload(
                                sid, index, chunk, eof, deadline_ms=10_000
                            ),
                        )
                    with tracer.span("server.protocol.decode"):
                        (received,) = assembler.feed(frame)
                        _, _, _, data, _ = protocol.decode_feed_payload_ex(
                            received.payload
                        )
                    with tracer.span("store.log_feed"):
                        store.log_feed(sid, index, data, eof)
                    with tracer.span("stream.ingest.parse"):
                        parsed = list(
                            parser.feed(decoder.decode(data, final=eof))
                        )
                        if eof:
                            parsed.extend(parser.close())
                    with tracer.span("stream.session.feed"):
                        perf.activate(counters)
                        try:
                            outcome = manager.feed(
                                sid, parsed, drop_invisible=True
                            )
                        finally:
                            perf.deactivate(counters)
                    if store.should_snapshot():
                        with tracer.span("store.write_snapshot"):
                            checkpoint()
                    with tracer.span("server.protocol.reply"):
                        reply(index, {
                            "session_id": sid,
                            "chunk_index": index,
                            "consumed": outcome.consumed,
                            "status": outcome.status,
                            "observed_length": outcome.observed_length,
                            "frontier_size": outcome.frontier_size,
                        })
                records += outcome.consumed
                symbols = [
                    r.message for r in parsed if second.is_visible(r.message)
                ]
                with tracer.span("selection.kernels.advance", request):
                    frontier = second.advance_many(frontier, symbols).frontier
                if workload.poll:
                    snapshot(sid, request)
            if not workload.poll:
                snapshot(sid, f"{sid}/{last}")
            manager.close(sid)
            store.log_close(sid)
        # the cadence may never fire on a short replay; one checkpoint
        # prices the snapshot path on every workload
        with tracer.span("store.write_snapshot", "checkpoint"):
            checkpoint()
        wall = time.perf_counter() - started
    finally:
        store.close()
    hits = counters.get("localize_step_memo_hits")
    misses = counters.get("localize_step_memo_misses")
    return {
        "records": records,
        "wall_s": wall,
        "memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "wal_bytes": store.stats()["wal_bytes_appended"],
    }


def replay_layers(
    workload: Workload,
    context,
    pool: Sequence[Capture],
    work_dir: Path,
) -> Tuple[Dict[str, float], Tracer]:
    """Run the replay untraced, then traced; return the per-layer
    metrics and the traced pass's spans."""
    captures = pool[:REPLAY_CAPTURES_POLL if workload.poll else REPLAY_CAPTURES]
    plain = replay(
        workload, context, captures, work_dir / "replay-untraced", _Untraced()
    )
    tracer = Tracer()
    traced = replay(
        workload, context, captures, work_dir / "replay-traced", tracer
    )
    records = max(traced["records"], 1)
    layers = {
        "server.protocol.encode_us": tracer.mean_us("server.protocol.encode"),
        "server.protocol.decode_us": tracer.mean_us("server.protocol.decode"),
        "server.protocol.reply_us": tracer.mean_us("server.protocol.reply"),
        "stream.ingest.parse_us": tracer.mean_us("stream.ingest.parse"),
        "stream.session.feed_us": tracer.mean_us("stream.session.feed"),
        "selection.kernels.advance_us_per_record": (
            tracer.total_s("selection.kernels.advance") * 1e6 / records
        ),
        "selection.kernels.memo_hit_ratio": traced["memo_hit_ratio"],
        "stream.session.snapshot_us": tracer.mean_us(
            "stream.session.snapshot"
        ),
        "store.log_feed_us": tracer.mean_us("store.log_feed"),
        "store.snapshot_ms": tracer.mean_us("store.write_snapshot") / 1e3,
        "store.wal_bytes_per_record": traced["wal_bytes"] / records,
        "replay.records_per_s": plain["records"] / plain["wall_s"],
    }
    return layers, tracer


# ----------------------------------------------------------------------
# offline pipeline (child process)
def offline(scenario: int, instances: int) -> Dict[str, float]:
    """Time each offline stage once, cold, in this process."""
    from repro.experiments.common import BUFFER_WIDTH
    from repro.selection.kernels import TableRegistry
    from repro.selection.localization import PathLocalizer
    from repro.selection.selector import MessageSelector
    from repro.soc.t2.scenarios import usage_scenarios

    usage = usage_scenarios(instances=instances)[scenario]
    clock = time.perf_counter
    started = clock()
    interleaved = usage.interleaved()
    interleave_s = clock() - started
    started = clock()
    selector = MessageSelector(
        interleaved, BUFFER_WIDTH, subgroups=usage.subgroup_pool
    )
    selector_s = clock() - started
    started = clock()
    selector.select(method="exhaustive", packing=False)
    step2_s = clock() - started
    started = clock()
    packed = selector.select(method="exhaustive", packing=True)
    packing_s = clock() - started
    registry = TableRegistry()
    started = clock()
    PathLocalizer(interleaved, packed.traced, registry=registry).warm()
    compile_s = clock() - started
    tables = registry.stats()
    return {
        "core.interleave_s": interleave_s,
        "core.product_states": interleaved.num_states,
        "selection.selector_init_s": selector_s,
        "selection.step2_s": step2_s,
        "selection.packing_s": packing_s,
        "selection.kernels.compile_s": compile_s,
        "selection.kernels.table_mb": tables["bytes"] / 2**20,
        "selection.kernels.closure_entries": tables["closure_entries"],
    }


#: The offline stages a cold server start also runs.
OFFLINE_STAGES = (
    "core.interleave_s",
    "selection.selector_init_s",
    "selection.step2_s",
    "selection.packing_s",
    "selection.kernels.compile_s",
)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3 or argv[0] != "offline":
        print("usage: python -m bench.layers offline SCENARIO INSTANCES",
              file=sys.stderr)
        return 2
    print(json.dumps(offline(int(argv[1]), int(argv[2]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
