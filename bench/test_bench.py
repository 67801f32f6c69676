"""Smoke test of the benchmark: ``python -m pytest bench -q`` with
``PYTHONPATH=src``.  One ``--quick`` run (one 2 s round per workload)
feeds the checks on the result file and the trace files."""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys

import pytest

from bench import ROOT, WORK
from bench.drive import ClosedLoop
from bench.report import END_TO_END, pct, verdict
from bench.server import ServerProcess
from bench.workloads import BY_NAME, build_pool, load_context

SEED = 7
OUT = WORK / "smoke"


@pytest.fixture(scope="module")
def quick():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--seed", str(SEED),
         "--out", str(OUT)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads((OUT / f"result-seed{SEED}.json").read_text())
    return result, done.stdout


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_named_metric_is_reported(quick, spec):
    result, stdout = quick
    assert result["valid"] and result["correct"] and result["failed"] == 0
    assert [w["name"] for w in spec["workloads"]] == list(result["workloads"])
    for body in result["workloads"].values():
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            entry = body["metrics"].get(name) or body["layers"][name]
            assert entry["unit"] == metric["unit"]
            assert f"  {name} " in stdout
        for entry in body["metrics"].values():
            assert isinstance(entry["n"], int)
    assert set(END_TO_END) >= {m["name"] for m in spec["end_to_end"]}


def test_percentile_is_null_unless_ten_samples_lie_beyond(quick):
    assert pct([1.0] * 19, 0.5) is None
    assert pct([1.0] * 20, 0.5) == 1.0
    assert pct([1.0] * 99, 0.9) is None
    result, _ = quick
    for body in result["workloads"].values():
        (one_round,) = body["rounds"]
        for kind in ("feed", "snapshot", "session"):
            n = one_round["counts"][kind]
            for q in (50, 90):
                value = one_round["metrics"][f"{kind}_p{q}_ms"]
                supported = n - math.ceil(q / 100 * n) >= 10
                assert (value is not None) == supported


def test_spans_nest_and_self_time_is_not_negative(quick):
    for name in BY_NAME:
        events = json.loads((OUT / f"trace-{name}.json").read_text())[
            "traceEvents"
        ]
        assert events
        for event in events:
            args = event["args"]
            assert args["self_us"] >= -0.01
            assert args["request"]
            if args["parent"] is not None:
                parent = events[args["parent"]]
                assert parent["ts"] <= event["ts"] + 0.01
                assert (event["ts"] + event["dur"]
                        <= parent["ts"] + parent["dur"] + 0.01)
                assert parent["args"]["request"] == args["request"]


def test_oracle_rejects_a_tampered_reference(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "loadgen-cache"))
    workload = BY_NAME["per-record"]
    pool = list(build_pool(workload, load_context(workload), SEED, size=4))
    consistent, total = pool[1].reference
    pool[1] = dataclasses.replace(pool[1], reference=(consistent + 1, total))
    with ServerProcess(
        workload.serve_args(), tmp_path / "cache", tmp_path / "log"
    ) as server:
        server.start()
        loop = ClosedLoop(server, workload, pool)
        try:
            window = loop.run(0.5)
        finally:
            loop.close()
    assert not window.failures
    assert loop.sessions >= len(pool)
    assert loop.mismatches
    assert all(str(pool[1].seed) in m for m in loop.mismatches)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, steady, 0.1, "lower")[0] == "unchanged"
    slower = [v * 1.3 for v in steady]
    assert verdict(steady, slower, 0.1, "lower")[0] == "regressed"
    assert verdict(steady, slower, 0.1, "higher")[0] == "improved"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert verdict(steady, noisy, 0.1, "lower")[0] == "unresolved"
    # a median worse by more than the bound regresses however wide the
    # spread (set-up time spreads more than its bound)
    noisy_slow = [v * 1.4 for v in noisy]
    assert verdict(noisy, noisy_slow, 0.25, "lower")[0] == "regressed"
    assert verdict(noisy, noisy, 0.25, "lower")[0] == "unresolved"
