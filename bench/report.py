"""Metric definitions, per-round summaries, the result file, and
``compare``.

A percentile is emitted only when at least :data:`MIN_BEYOND` samples
lie beyond it; otherwise it is ``None`` (``null`` in JSON) and never
gated.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.server import protocol
from repro.stream.workload import percentile

from bench import ROOT
from bench.drive import Window
from bench.server import loadavg

MIN_BEYOND = 10

#: What a user of the service sees: name -> (unit, better).  The ones
#: that repeat between runs, and setup_s, are BENCHMARK.json's
#: end_to_end list; the other wall-clock ones are listed there as
#: per-layer metrics, except session_p90_ms (null on window-poll) and
#: error_rate (always 0).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "records_per_s": ("1/s", "higher"),
    "feed_p50_ms": ("ms", "lower"),
    "feed_p90_ms": ("ms", "lower"),
    "snapshot_p50_ms": ("ms", "lower"),
    "snapshot_p90_ms": ("ms", "lower"),
    "session_p50_ms": ("ms", "lower"),
    "session_p90_ms": ("ms", "lower"),
    "server_cpu_us_per_record": ("us", "lower"),
    "server_rss_mb": ("MB", "lower"),
    "wire_bytes_per_record": ("B", "lower"),
    "setup_s": ("s", "lower"),
    "error_rate": ("ratio", "lower"),
}

#: Percentile metrics: name -> (sample kind, quantile).
_PERCENTILES: Dict[str, Tuple[str, float]] = {
    f"{kind}_p{q}_ms": (kind, q / 100.0)
    for kind in ("feed", "snapshot", "session")
    for q in (50, 90)
}

#: The end-to-end metrics each measured round yields (the rest are
#: measured once per run).
_ROUND_METRICS = (
    "records_per_s", *_PERCENTILES, "server_cpu_us_per_record",
    "server_rss_mb", "wire_bytes_per_record",
)

#: Per-layer metric units.
LAYER_UNITS: Dict[str, str] = {
    "core.interleave_s": "s",
    "core.product_states": "count",
    "selection.selector_init_s": "s",
    "selection.step2_s": "s",
    "selection.packing_s": "s",
    "selection.kernels.compile_s": "s",
    "selection.kernels.table_mb": "MB",
    "selection.kernels.closure_entries": "count",
    "setup.unaccounted_s": "s",
    "server.protocol.encode_us": "us",
    "server.protocol.decode_us": "us",
    "server.protocol.reply_us": "us",
    "stream.ingest.parse_us": "us",
    "stream.session.feed_us": "us",
    "selection.kernels.advance_us_per_record": "us",
    "selection.kernels.memo_hit_ratio": "ratio",
    "stream.session.snapshot_us": "us",
    "store.log_feed_us": "us",
    "store.snapshot_ms": "ms",
    "store.wal_bytes_per_record": "B",
    "replay.records_per_s": "1/s",
    "server.feed_handle_mean_ms": "ms",
    "server.wire_mean_ms": "ms",
    "server.cpu_util": "ratio",
    "server.retry_later": "count",
    "server.error_replies": "count",
    "store.wal_append_mean_ms": "ms",
    "store.fsyncs_per_feed": "ratio",
    "store.recovery_replay_s": "s",
    "store.replayed_records": "count",
    "loadgen.cpu_util": "ratio",
    "host.steal_share": "ratio",
    "restart_s": "s",
}

#: A round is flagged (reported, never gated) above these.
STEAL_FLAG = 0.05
LOADGEN_FLAG_CORES = 0.5


def pct(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if len(sorted_values) - math.ceil(q * len(sorted_values)) < MIN_BEYOND:
        return None
    return percentile(sorted_values, q)


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Round:
    """One measured round of one workload, from the client samples and
    the probes taken at its start and at its deadline."""

    def __init__(self, window: Window, before: dict, after: dict) -> None:
        wall = window.end - window.start
        probe_wall = after["t"] - before["t"]
        self.samples = {
            kind: window.durations(kind)
            for kind in ("feed", "snapshot", "session")
        }
        counters = _delta(before["stats"]["counters"], after["stats"]["counters"])
        served = counters.get("records_fed_total", 0)
        cpu = after["cpu"] - before["cpu"]
        feed_hist = _hist_delta(before, after, "feed_latency_s")
        wal_hist = _hist_delta(before, after, "wal_append_s")
        store = _delta(_store_totals(before), _store_totals(after))
        host = _delta(before["host"], after["host"])
        loadgen = (after["gen_cpu"] - before["gen_cpu"]) / probe_wall
        steal = _ratio(host["steal"], host["total"])
        # the probes' own STATS exchange is not workload traffic: the
        # first probe's reply and the second probe's request are counted
        # inside the window
        probes = 2 * (protocol.HEADER_BYTES + protocol.TRAILER_BYTES) + len(
            protocol.encode_json(before["stats"])
        )
        wire = (
            counters.get("wire_bytes_in", 0)
            + counters.get("wire_bytes_out", 0)
            - probes
        )
        feeds = self.samples["feed"]
        self.metrics: Dict[str, Optional[float]] = {
            "records_per_s": window.records / wall,
            "server_cpu_us_per_record": (
                cpu * 1e6 / served if served else None
            ),
            "server_rss_mb": after["rss_mb"],
            "wire_bytes_per_record": wire / served if served else None,
        }
        for name, (kind, q) in _PERCENTILES.items():
            self.metrics[name] = _ms(pct(self.samples[kind], q))
        self.counts = {"records": window.records}
        self.counts.update(
            (kind, len(values)) for kind, values in self.samples.items()
        )
        handle_ms = _ratio(feed_hist[1], feed_hist[0]) * 1e3
        self.layers: Dict[str, float] = {
            "server.feed_handle_mean_ms": handle_ms,
            "server.wire_mean_ms": (
                statistics.fmean(feeds) * 1e3 - handle_ms if feeds else 0.0
            ),
            "server.cpu_util": cpu / probe_wall,
            "server.retry_later": counters.get("retry_later_total", 0),
            "server.error_replies": counters.get("error_replies_total", 0),
            "store.wal_append_mean_ms": _ratio(wal_hist[1], wal_hist[0]) * 1e3,
            "store.fsyncs_per_feed": _ratio(
                store.get("wal_fsyncs", 0), counters.get("feeds_total", 0)
            ),
            "loadgen.cpu_util": loadgen,
            "host.steal_share": steal,
        }
        self.errors = {
            "requests": window.requests,
            "retry_later": counters.get("retry_later_total", 0),
            "error_replies": counters.get("error_replies_total", 0),
            "client_retries": after["retries"] - before["retries"],
            "failed_sessions": len(window.failures),
        }
        self.failures = list(window.failures)
        self.noise = {
            "steal_share": steal,
            "loadavg": loadavg(),
            "loadgen_cores": loadgen,
            "flagged": steal > STEAL_FLAG or loadgen > LOADGEN_FLAG_CORES,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "metrics": self.metrics,
            "counts": self.counts,
            "layers": self.layers,
            "errors": self.errors,
            "noise": self.noise,
            "failures": self.failures,
        }


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _hist_delta(before: dict, after: dict, name: str) -> Tuple[int, float]:
    """``(count, sum_s)`` change of one server histogram."""
    old = before["stats"]["histograms"].get(name, {})
    new = after["stats"]["histograms"].get(name, {})
    return (
        new.get("count", 0) - old.get("count", 0),
        new.get("sum_s", 0.0) - old.get("sum_s", 0.0),
    )


def _store_totals(probe: dict) -> Dict[str, float]:
    return probe["stats"].get("store", {}).get("totals", {})


# ----------------------------------------------------------------------
def _entry(value: Optional[float], unit: str, n: int, **extra) -> Dict[str, object]:
    entry: Dict[str, object] = {"value": value, "unit": unit, "n": n}
    entry.update(extra)
    return entry


def _pooled(rounds: Sequence[Round], name: str) -> Optional[float]:
    """A percentile metric over every round's samples together (the
    fallback when some round alone is too short to support it)."""
    kind, q = _PERCENTILES[name]
    return _ms(pct(sorted(v for r in rounds for v in r.samples[kind]), q))


def end_to_end(
    rounds: Sequence[Round],
    setup_s: Sequence[float],
    attempted: int,
    failed: int,
) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric: the median of its per-round values
    (which are listed too), or of the repeated cold starts."""
    out: Dict[str, Dict[str, object]] = {}
    for name in _ROUND_METRICS:
        unit = END_TO_END[name][0]
        values = [r.metrics[name] for r in rounds]
        if name in _PERCENTILES:
            n = sum(r.counts[_PERCENTILES[name][0]] for r in rounds)
        elif name == "server_rss_mb":
            n = len(rounds)
        else:
            n = sum(r.counts["records"] for r in rounds)
        if values and all(v is not None for v in values):
            out[name] = _entry(statistics.median(values), unit, n, rounds=values)
        elif name in _PERCENTILES:
            out[name] = _entry(
                _pooled(rounds, name), unit, n, rounds=values, pooled=True
            )
        else:
            out[name] = _entry(None, unit, n, rounds=values)
    out["setup_s"] = _entry(
        statistics.median(setup_s), "s", len(setup_s), values=list(setup_s)
    )
    out["error_rate"] = _entry(
        _ratio(failed, attempted), "ratio", attempted
    )
    return out


def round_layers(rounds: Sequence[Round]) -> Dict[str, float]:
    """Median over rounds of the server-counter and ``/proc`` layers."""
    if not rounds:
        return {}
    return {
        name: statistics.median(r.layers[name] for r in rounds)
        for name in rounds[0].layers
    }


def layer_entries(layers: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    return {
        name: {"value": value, "unit": LAYER_UNITS[name]}
        for name, value in sorted(layers.items())
    }


# ----------------------------------------------------------------------
def format_metrics(name: str, metrics: Dict[str, Dict[str, object]]) -> str:
    lines = [f"== {name}"]
    for metric, entry in metrics.items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        per = entry.get("rounds", entry.get("values"))
        extra = ""
        if per is not None and len(per) > 1:
            extra = "  [" + ", ".join(
                "null" if v is None else f"{v:.4g}" for v in per
            ) + "]"
        lines.append(
            f"  {metric:<42} {shown:>12} {entry['unit']:<6} "
            f"n={entry.get('n', 1)}{extra}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare
def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, Tuple[float, str]]:
    spec = json.loads(path.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def _spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def _values(results: Sequence[dict], workload: str, metric: str) -> List[float]:
    """A metric's value in each result file; a baseline file (see
    :func:`baseline`) contributes every run it summarizes."""
    found: List[float] = []
    for result in results:
        entry = result.get("workloads", {}).get(workload, {}).get(
            "metrics", {}
        ).get(metric)
        if entry is None:
            continue
        if "runs" in entry:
            found.extend(entry["runs"])
        elif entry.get("value") is not None:
            found.append(float(entry["value"]))
    return found


def _workloads(results: Sequence[dict]) -> List[str]:
    """Every workload that some result file holds, in first-seen order
    (a ``--workload`` run's file holds one)."""
    return list(
        dict.fromkeys(w for r in results for w in r.get("workloads", {}))
    )


def baseline(results: Sequence[dict]) -> Dict[str, object]:
    """Median, quartiles and ``n`` of every metric of every workload
    over several result files (the committed ``bench/baseline.json``)."""
    summary: Dict[str, object] = {
        "seeds": sorted({r["seed"] for r in results}),
        "workloads": {},
    }
    for workload in _workloads(results):
        bodies = [r["workloads"][workload] for r in results
                  if workload in r.get("workloads", {})]
        sections: Dict[str, Dict[str, object]] = {}
        for section in ("metrics", "layers"):
            rows: Dict[str, object] = {}
            names = dict.fromkeys(n for b in bodies for n in b[section])
            for name in names:
                entries = [b[section][name] for b in bodies
                           if name in b[section]]
                runs = [e["value"] for e in entries if e["value"] is not None]
                if not runs:
                    continue
                q1, median, q3 = (
                    statistics.quantiles(runs, n=4)
                    if len(runs) > 1 else (runs[0],) * 3
                )
                rows[name] = {
                    "unit": entries[0]["unit"], "median": median, "q1": q1,
                    "q3": q3, "n": len(runs), "runs": runs,
                }
            sections[section] = rows
        summary["workloads"][workload] = sections
    return summary


def verdict(
    parent: Sequence[float], change: Sequence[float], bound: float, better: str
) -> Tuple[str, float, float]:
    """``(verdict, relative worsening of the median, spread)``.

    Regressed whenever the median is worse by more than the bound, so a
    metric that spreads more than its bound (``setup_s``) still gates.
    Otherwise unresolved when either side's spread exceeds the bound,
    unless every run on one side beats every run on the other."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    spread = max(_spread(parent), _spread(change))
    beats = (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)
    separated = all(beats(c, p) for c in change for p in parent) or all(
        beats(p, c) for c in change for p in parent
    )
    if worse > bound:
        return "regressed", worse, spread
    if spread > bound and not separated:
        return "unresolved", worse, spread
    if worse < -bound:
        return "improved", worse, spread
    return "unchanged", worse, spread


def compare(parent_paths: Sequence[Path], change_paths: Sequence[Path]) -> int:
    """Print one row per (workload, end-to-end metric); exit status 1
    when any row regressed, 2 when nothing could be compared.

    Metrics with a bound in BENCHMARK.json get a verdict; the other
    user-facing metrics are shown with their change and spread and
    marked ``-`` (not gated)."""
    bounds = load_bounds()
    parents = [json.loads(Path(p).read_text()) for p in parent_paths]
    changes = [json.loads(Path(p).read_text()) for p in change_paths]
    changed = _workloads(changes)
    workloads = [w for w in _workloads(parents) if w in changed]
    rows = 0
    regressed = False
    print(f"{'workload':<20} {'metric':<26} {'parent':>11} {'change':>11} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric, (_, better) in END_TO_END.items():
            parent = _values(parents, workload, metric)
            change = _values(changes, workload, metric)
            if not parent or not change:
                continue
            if metric in bounds:
                bound = bounds[metric][0]
                result, worse, spread = verdict(parent, change, bound, better)
                regressed |= result == "regressed"
                rows += 1
                shown = f"{bound:>6.0%}"
            else:
                result, worse, spread = verdict(
                    parent, change, math.inf, better
                )
                result, shown = "-", f"{'-':>6}"
            print(
                f"{workload:<20} {metric:<26} "
                f"{statistics.median(parent):>11.5g} "
                f"{statistics.median(change):>11.5g} {worse:>+8.1%} "
                f"{spread:>7.1%} {shown}  {result}"
            )
    if not rows:
        print("nothing to compare: no gated metric in every file")
        return 2
    return 1 if regressed else 0
