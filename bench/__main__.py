"""Command line of the benchmark.

``python -m bench [--seed N] [--quick] [--out DIR]``
    All four workloads; prints every end-to-end metric and writes the
    result JSON and one trace file per workload.

``python -m bench --workload NAME --seed N --seconds S --trace 0|1``
    One workload.  The last line of standard output is one JSON object
    with ``correct``, ``attempted``, ``failed`` and the end-to-end
    (``--trace 0``) or per-layer (``--trace 1``) metrics named in
    ``BENCHMARK.json``.

``python -m bench compare A.json [A2.json ...] -- B.json [B2.json ...]``
    One row per (workload, end-to-end metric) of parent runs A against
    change runs B: improved, unchanged, regressed or unresolved.

``python -m bench baseline RUN.json [RUN2.json ...]``
    Median, quartiles and n of every metric over the runs, as JSON
    (``bench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from bench import ROOT, WORK
from bench.workloads import BY_NAME, WORKLOADS


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and keep the
    artifact cache inside the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")


def _terminate(signum, frame) -> None:
    # unwinds through the run's cleanup, which stops every server
    raise SystemExit(128 + signum)


def _compare(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: python -m bench compare A.json [...] -- B.json [...]",
              file=sys.stderr)
        return 2
    split = list(argv).index("--")
    parents, changes = argv[:split], argv[split + 1:]
    if not parents or not changes:
        print("compare needs at least one file on each side of --",
              file=sys.stderr)
        return 2
    from bench.report import compare

    return compare([Path(p) for p in parents], [Path(p) for p in changes])


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one 2 s round per workload (smoke test)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the result and trace files")
    parser.add_argument("--workload", default=None, choices=list(BY_NAME),
                        help="run this workload alone")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds of a --workload run "
                             "(BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload run: report per-layer metrics")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _use_checkout_sources()
    signal.signal(signal.SIGTERM, _terminate)
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    if argv[:1] == ["baseline"]:
        from bench.report import baseline

        if len(argv) < 2:
            print("usage: python -m bench baseline RUN.json [...]",
                  file=sys.stderr)
            return 2
        runs = [json.loads(Path(p).read_text()) for p in argv[1:]]
        print(json.dumps(baseline(runs), indent=1))
        return 0
    args = _parser().parse_args(argv)

    from bench import run
    from bench.report import format_metrics

    out_dir = args.out if args.out is not None else WORK / "results"
    if args.workload is None:
        plan = run.full_plan(args.quick)
        chosen = WORKLOADS
        name = f"result-seed{args.seed}.json"
    else:
        plan = run.workload_plan(args.seconds, bool(args.trace))
        chosen = (BY_NAME[args.workload],)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = run.execute(chosen, args.seed, plan, out_dir)
    path = out_dir / name
    path.write_text(json.dumps(result, indent=1))
    for workload, body in result["workloads"].items():
        print(format_metrics(workload, body["metrics"]))
        if plan.trace:
            print(format_metrics(f"{workload} layers", body["layers"]))
        for problem in body["oracle"]["mismatches"] + body["failures"]:
            print(f"  ! {problem}")
    print(f"result: {path} (valid={result['valid']})")
    ok = result["valid"]
    if args.workload is not None:
        ok = _print_result_line(result, args.workload, bool(args.trace)) and ok
    return 0 if ok else 1


def _print_result_line(result: dict, workload: str, trace: bool) -> bool:
    """The one-line JSON result; ``False`` when nothing was attempted or
    a metric named in ``BENCHMARK.json`` has no value."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    body = result["workloads"][workload]
    source = {**body["metrics"], **body["layers"]}
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {
        name: {"value": source[name]["value"], "unit": source[name]["unit"]}
        for name in names
        if name in source and source[name]["value"] is not None
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return result["attempted"] >= 1 and len(metrics) == len(names)


if __name__ == "__main__":
    sys.exit(main())
