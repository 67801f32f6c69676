"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Regenerate the paper's tables/figures (all, or a named subset).
``select``
    Run message selection for a T2 usage scenario and print the result.
``debug``
    Replay one of the five debugging case studies (``--runs N`` turns
    it into a multi-seed validation campaign).
``usb``
    Run the USB baseline comparison.
``plan``
    Sweep trace-buffer widths for a scenario and print the
    coverage/width frontier.
``spec``
    Export the built-in T2 flows as a flowspec file.
``export``
    Export every experiment result as JSON.
``report``
    Build the full markdown reproduction report.
``analyze``
    Run message selection for the flows of a user-supplied flowspec
    file.
``mine``
    Mine candidate flow specifications from a simulated trace corpus
    and score them against ground truth (structural precision/recall
    plus the closed-loop selection comparison).
``compress``
    Encode a trace file into the framed compressed bitstream, decode
    one back (lossless round trip), or print bitstream statistics.
``dot``
    Dump a flow (or a scenario's interleaving) as Graphviz DOT.
``cache``
    Inspect, clear, or warm the content-addressed artifact cache.
``stream``
    Follow a trace file incrementally and watch the localization
    fraction tighten as records arrive.
``serve``
    Run the networked debug service: an asyncio TCP server speaking
    the length-prefixed binary wire protocol, with sharded sessions,
    admission control, and an optional HTTP metrics port.
``loadgen``
    Replay simulator-produced trace files against a running ``serve``
    instance from worker processes and report throughput/latency.
``store``
    Inspect, verify, or compact a ``serve --data-dir`` data directory
    (write-ahead log segments and frontier snapshots) offline.
``chaos``
    Run a deterministic fault-injection soak against an in-process
    debug service (network/disk/session fault planes, a mid-soak
    crash + recovery) and check the end-to-end invariants.
``profile``
    Run interleaving + selection for a scenario under the stage
    counters of :mod:`repro.perf` and print them (states expanded,
    bitset ORs, DP steps, wall time per stage).

``tables``/``report``/``plan``/``debug``/``mine`` accept ``--jobs N`` to fan
independent work units out over a process pool (results are identical
to a serial run); the artifact cache (``REPRO_CACHE_DIR``) makes warm
re-runs skip the expensive interleaving/selection work entirely.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.report import ARTIFACT_TITLES, render_artifacts

    names = args.which or list(ARTIFACT_TITLES)
    unknown = [n for n in names if n not in ARTIFACT_TITLES]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}; "
              f"choose from {', '.join(ARTIFACT_TITLES)}", file=sys.stderr)
        return 2
    sections = render_artifacts(
        names, instances=args.instances, jobs=args.jobs, plot=True
    )
    print(("\n\n" + "=" * 72 + "\n\n").join(sections))
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    import json

    from repro.selection.selector import MessageSelector
    from repro.sim.engine import TransactionSimulator
    from repro.sim.tracebuffer import CompressedTraceBuffer, TraceBuffer
    from repro.soc.t2.scenarios import scenario

    sc = scenario(args.scenario, instances=args.instances)
    budget = None
    if args.compress:
        from repro.compress.cost import (
            EffectiveWidthBudget,
            cost_model_for_scenario,
        )

        model = cost_model_for_scenario(
            args.scenario, instances=args.instances
        )
        budget = EffectiveWidthBudget(
            model, args.buffer, args.depth, guard_band=args.guard_band
        )
    selector = MessageSelector(
        sc.interleaved(), args.buffer, subgroups=sc.subgroup_pool,
        budget=budget,
    )
    result = selector.select(
        method=args.method, packing=not args.no_packing
    )
    # replay one golden run through the buffer geometry so utilization
    # reflects overflow, not just entry width
    records = TransactionSimulator(sc.interleaved(), sc.name).run(
        seed=0
    ).records
    if args.compress:
        buffer = CompressedTraceBuffer(
            args.buffer, args.depth, result.traced, scenario=sc.name
        )
    else:
        buffer = TraceBuffer(args.buffer, args.depth, result.traced)
    buffer.capture(records)
    stats = buffer.last_stats
    if args.json:
        payload = {
            "scenario": args.scenario,
            "name": sc.name,
            "method": result.method,
            "buffer_width": args.buffer,
            "buffer_depth": args.depth,
            "budget_mode": result.budget_mode,
            "capacity_bits": result.capacity_bits,
            "cost_bits": result.cost_bits,
            "guard_band": result.guard_band,
            "combination": list(result.combination.names()),
            "packed": [m.name for m in result.packed],
            "gain": result.gain,
            "coverage": result.coverage,
            "utilization": result.utilization,
            "capture": {
                "captured": stats.captured,
                "evicted": stats.evicted,
                "evicted_frames": stats.evicted_frames,
                "overwritten_bits": stats.overwritten_bits,
                "used_bits": stats.used_bits,
                "capacity_bits": stats.capacity_bits,
                "utilization": stats.utilization,
                "overflowed": stats.overflowed,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{sc.name}: {sc.description}")
    u = sc.interleaved()
    print(f"interleaved flow: {u.num_states} states, "
          f"{u.num_transitions} transitions, {u.count_paths()} paths")
    if budget is not None:
        print(budget.describe())
    print(result.describe())
    overflow = (
        f", {stats.evicted} entr(ies) overwritten"
        if stats.overflowed
        else ""
    )
    print(f"capture (seed 0): {stats.captured} kept, buffer "
          f"{stats.utilization:.1%} full{overflow}")
    return 0


def _cmd_debug(args: argparse.Namespace) -> int:
    from repro.debug.casestudies import case_studies
    from repro.debug.rootcause import root_cause_catalog
    from repro.debug.session import DebugSession
    from repro.selection.selector import MessageSelector
    from repro.soc.t2.scenarios import scenario

    cs = case_studies().get(args.case_study)
    if cs is None:
        print(f"unknown case study {args.case_study}; choose 1-5",
              file=sys.stderr)
        return 2
    sc = scenario(cs.scenario_number, instances=args.instances)
    selector = MessageSelector(
        sc.interleaved(), 32, subgroups=sc.subgroup_pool
    )
    selection = selector.select(method="exhaustive", packing=True)
    session = DebugSession(
        sc, selection.traced, root_cause_catalog(cs.scenario_number)
    )
    if args.runs > 1:
        from repro.debug.campaign import ValidationCampaign

        seeds = range(cs.seed, cs.seed + args.runs)
        result = ValidationCampaign(session).run(
            cs.active_bug, seeds=seeds, jobs=args.jobs
        )
        print(f"case study {cs.number} on {sc.name} "
              f"({result.runs} failing runs, jobs={args.jobs})")
        print(f"  bug: {cs.active_bug}")
        print(f"  messages investigated: "
              f"{result.total_messages_investigated}")
        print(f"  IP pairs investigated: "
              f"{len(result.pairs_investigated)}")
        print(f"  best localization: {result.best_localization:.2%}")
        print(f"  pruned after all runs: {result.pruned_fraction:.1%}")
        causes = " / ".join(
            c.description for c in result.plausible_causes
        )
        print(f"  plausible: {causes}")
        return 0
    report = session.run(cs.active_bug, seed=cs.seed)
    print(f"case study {cs.number} on {sc.name}")
    print(f"  bug: {cs.active_bug}")
    print(f"  symptom: {report.symptom_kind}")
    print(f"  localization: {report.localization}")
    print(f"  pruned {len(report.pruning.pruned)}/"
          f"{report.pruning.total} causes "
          f"({report.pruned_fraction:.1%})")
    print(f"  plausible: {report.root_cause_text}")
    print("triage:")
    for line in report.triage().splitlines():
        print(f"  {line}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.selection.planner import format_plan, plan_buffer
    from repro.soc.t2.scenarios import scenario

    sc = scenario(args.scenario, instances=args.instances)
    plan = plan_buffer(
        sc.interleaved(),
        widths=tuple(args.widths),
        subgroups=sc.subgroup_pool,
        jobs=args.jobs,
    )
    print(f"{sc.name}: trace buffer width sweep")
    print(format_plan(plan))
    if args.target is not None:
        width = plan.minimal_width_for_coverage(args.target)
        if width is None:
            print(f"no swept width reaches {args.target:.0%} coverage")
        else:
            print(f"minimal width for {args.target:.0%} coverage: {width}")
    return 0


def _cmd_usb(args: argparse.Namespace) -> int:
    from repro.experiments.table4 import format_table4

    print(format_table4())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    text = build_report(instances=args.instances, jobs=args.jobs)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(f"wrote {args.output}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import write_results

    if args.output == "-":
        write_results(sys.stdout, instances=args.instances)
    else:
        with open(args.output, "w", encoding="utf-8") as stream:
            write_results(stream, instances=args.instances)
        print(f"wrote {args.output}")
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    from repro.core.flowspec import format_flowspec
    from repro.soc.t2.flows import t2_flows
    from repro.soc.t2.messages import t2_message_catalog

    catalog = t2_message_catalog()
    flows = list(t2_flows(catalog).values())
    print(format_flowspec(flows, catalog.subgroup_list), end="")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.flowspec import parse_flowspec
    from repro.core.interleave import interleave_flows
    from repro.selection.selector import MessageSelector

    with open(args.spec, encoding="utf-8") as stream:
        spec = parse_flowspec(stream)
    if not spec.flows:
        print(f"{args.spec}: no flows defined", file=sys.stderr)
        return 2
    interleaved = interleave_flows(
        list(spec.flows.values()), copies=args.copies
    )
    print(
        f"{', '.join(spec.flows)}: interleaved flow has "
        f"{interleaved.num_states} states, "
        f"{interleaved.num_transitions} transitions, "
        f"{interleaved.count_paths()} paths"
    )
    selector = MessageSelector(
        interleaved, args.buffer, subgroups=spec.subgroups
    )
    result = selector.select(
        method=args.method, packing=not args.no_packing
    )
    print(result.describe())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.runtime.cache import default_cache

    cache = default_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached artifact(s) from "
              f"{cache.directory}")
        return 0
    if args.action == "warm":
        from repro.experiments.common import warm_cache

        start = time.perf_counter()
        bundles = warm_cache(instances=args.instances)
        elapsed = time.perf_counter() - start
        stats = cache.stats
        print(f"warmed {len(bundles)} scenario selection(s) in "
              f"{elapsed:.2f}s "
              f"(cache hits={stats.hits}, misses={stats.misses})")
        print(f"cache directory: {cache.directory}")
        return 0
    # stats
    snapshot = cache.snapshot()
    if args.json:
        print(json.dumps(snapshot.as_dict(), indent=2, sort_keys=True))
        return 0
    print(f"cache directory: {snapshot.directory}")
    print(f"  memory entries: {snapshot.memory_entries}")
    print(f"  disk entries:   {snapshot.disk_entries} "
          f"({snapshot.disk_bytes} bytes)")
    for name, value in snapshot.stats.items():
        print(f"  {name}: {value}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.errors import FrontierOverflowError
    from repro.experiments.common import scenario_selection
    from repro.selection.localization import PathLocalizer
    from repro.stream import IncrementalLocalizer, IncrementalTraceParser

    bundle = scenario_selection(
        args.scenario, instances=args.instances, buffer_width=args.buffer
    )
    sc = bundle.scenario
    traced = bundle.with_packing.traced
    localizer = IncrementalLocalizer(
        mode=args.mode,
        max_frontier=args.max_frontier,
        localizer=PathLocalizer(sc.interleaved(), traced),
    )
    parser = IncrementalTraceParser(sc.catalog)
    total = localizer.localizer.total_paths
    print(f"{sc.name}: following {args.tracefile} "
          f"(mode={args.mode}, buffer={args.buffer})")
    try:
        with open(args.tracefile, encoding="utf-8") as stream:
            while True:
                chunk = stream.read(args.chunk_bytes)
                records = (
                    parser.feed(chunk) if chunk else parser.close()
                )
                consumed = localizer.observe_records(records)
                if consumed:
                    result = localizer.snapshot()
                    print(f"  after {localizer.observed_length:4d} "
                          f"captured: {result.consistent_paths}/{total} "
                          f"paths ({result.fraction:.4%}) "
                          f"frontier={localizer.frontier_size}")
                if not chunk:
                    break
    except FrontierOverflowError:
        print(f"frontier overflowed max size {args.max_frontier}; "
              "re-run with a larger --max-frontier", file=sys.stderr)
        return 1
    result = localizer.snapshot()
    print(f"trace: scenario={parser.scenario!r} seed={parser.seed} "
          f"({parser.records_emitted} records, "
          f"{localizer.observed_length} captured)")
    for diagnostic in parser.diagnostics:
        print(f"  skipped {diagnostic}", file=sys.stderr)
    print(f"localization: {result.consistent_paths}/{total} paths "
          f"({result.fraction:.4%})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import DebugServer, ServeContext, ServerConfig

    context = ServeContext.from_scenario(
        args.scenario,
        instances=args.instances,
        buffer_width=args.buffer,
        mode=args.mode,
        max_frontier=args.max_frontier,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        max_sessions=args.max_sessions,
        idle_timeout_s=args.idle_timeout,
        idle_sweep_s=args.idle_sweep,
        metrics_port=args.metrics_port,
        data_dir=args.data_dir,
        fsync=args.fsync,
        fsync_interval_s=args.fsync_interval,
        snapshot_every=args.snapshot_every,
    )
    server = DebugServer(context, config)

    def on_ready(ready: DebugServer) -> None:
        print(
            f"{context.name}: listening on {ready.host}:{ready.port} "
            f"({config.shards} shard(s), mode={context.mode})",
            flush=True,
        )
        if config.data_dir is not None:
            recovery = server.recovery_info
            print(
                f"store: {config.data_dir} (fsync={config.fsync}, "
                f"snapshot every {config.snapshot_every} feeds); "
                f"recovered {recovery.get('sessions', 0)} session(s), "
                f"replayed {recovery.get('replayed_records', 0)} "
                f"record(s) in {recovery.get('wall_s', 0.0)}s",
                flush=True,
            )
        if ready.metrics_port is not None:
            print(
                f"metrics: http://{ready.host}:{ready.metrics_port}/metrics",
                flush=True,
            )

    asyncio.run(server.run(duration=args.duration, on_ready=on_ready))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.errors import StoreError
    from repro.store import compact_store, inspect_store, verify_store

    try:
        if args.action == "inspect":
            report = inspect_store(args.data_dir)
        elif args.action == "verify":
            report = verify_store(args.data_dir)
        else:
            report = compact_store(args.data_dir)
    except StoreError as exc:
        print(f"store: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.action == "verify":
            return 0 if report["ok"] else 1
        return 0
    print(f"data dir: {report['data_dir']}")
    if args.action == "inspect":
        meta = report["meta"] or {}
        print(f"  scenario: {meta.get('scenario', '?')} "
              f"(mode={meta.get('mode', '?')}, "
              f"shards={meta.get('shards', '?')})")
        for shard in report["shards"]:
            print(f"  {shard['shard']}:")
            for seg in shard["segments"]:
                torn = f"  TORN: {seg['torn']}" if seg["torn"] else ""
                print(f"    {seg['name']}: {seg['records']} record(s), "
                      f"lsn {seg['first_lsn']}..{seg['last_lsn']}, "
                      f"{seg['size_bytes']} byte(s){torn}")
            for snap in shard["snapshots"]:
                if snap.get("valid"):
                    print(f"    {snap['name']}: lsn {snap['wal_lsn']}, "
                          f"{snap['sessions']} session(s) + "
                          f"{snap['spilled']} spilled, "
                          f"{snap['size_bytes']} byte(s)")
                else:
                    print(f"    {snap['name']}: INVALID "
                          f"({snap.get('error')})")
        return 0
    if args.action == "verify":
        for shard in report["shards"]:
            print(f"  {shard['shard']}: snapshot lsn "
                  f"{shard['snapshot_lsn']}, "
                  f"{shard['snapshot_sessions']} session(s), "
                  f"{shard['replay_records']} record(s) to replay")
        for problem in report["problems"]:
            print(f"  PROBLEM: {problem}", file=sys.stderr)
        print("ok" if report["ok"] else "NOT OK")
        return 0 if report["ok"] else 1
    for shard in report["shards"]:
        removed = ", ".join(shard["removed_segments"]) or "nothing"
        print(f"  {shard['shard']}: removed {removed}")
    print(f"{report['segments_removed']} segment(s) removed")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.server import ServeContext
    from repro.server.loadgen import run_network_load_test

    context = ServeContext.from_scenario(
        args.scenario, instances=args.instances, buffer_width=args.buffer
    )
    report = run_network_load_test(
        args.host,
        args.port,
        context,
        sessions=args.sessions,
        processes=args.processes,
        threads=args.threads,
        chunk_records=args.chunk,
        seed=args.seed,
        mode=args.mode,
    )
    summary = report.as_dict()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 1 if report.failures else 0
    print(f"{context.name}: {report.sessions} networked session(s) "
          f"against {args.host}:{args.port} "
          f"({args.processes} process(es) x {args.threads} thread(s))")
    print(f"  records fed:      {report.total_records}")
    print(f"  wall time:        {report.wall_s:.3f}s")
    print(f"  throughput:       {report.records_per_s:.0f} records/s")
    print(f"  p50 feed latency: {report.p50_feed_latency_s * 1e3:.3f}ms")
    print(f"  p95 feed latency: {report.p95_feed_latency_s * 1e3:.3f}ms")
    print(f"  p99 feed latency: {report.p99_feed_latency_s * 1e3:.3f}ms")
    print(f"  retries:          {report.retries} "
          f"(recoveries: {report.recoveries})")
    print(f"  session statuses: {summary['statuses']}")
    for failure in report.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import ChaosConfig, ChaosRunner
    from repro.chaos.faults import PLANES, FaultPlan

    planes = tuple(p.strip() for p in args.faults.split(",") if p.strip())
    unknown = [p for p in planes if p not in PLANES]
    if unknown:
        print(f"unknown fault plane(s): {', '.join(unknown)}; "
              f"choose from {', '.join(PLANES)}", file=sys.stderr)
        return 2
    plan = FaultPlan.default(
        planes=planes,
        frame_loss=args.frame_loss,
        frame_corrupt=args.frame_corrupt,
    )
    config = ChaosConfig(
        seed=args.seed,
        sessions=args.sessions,
        duration_s=args.duration,
        planes=planes,
        scenario=args.scenario,
        instances=args.instances,
        buffer_width=args.buffer,
        mode=args.mode,
        chunk_records=args.chunk,
        shards=args.shards,
        crash=not args.no_crash,
        plan=plan,
    )
    report = ChaosRunner(config).run()
    payload = report.as_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.ok else 1
    deterministic = report.deterministic
    ops = report.ops
    statuses: dict = {}
    for row in deterministic["sessions"]:
        key = f"{row['role']}:{row['status']}"
        statuses[key] = statuses.get(key, 0) + 1
    print(f"chaos soak: seed={args.seed} sessions={args.sessions} "
          f"planes={','.join(planes)} crash={not args.no_crash}")
    print(f"  wall time:          {ops['wall_s']:.3f}s")
    print(f"  determinism digest: {report.determinism_digest}")
    print(f"  session outcomes:   {statuses}")
    print(f"  faults fired:       {ops['faults']}")
    print(f"  client retries:     {ops['retries']} "
          f"(recoveries: {ops['recoveries']}, "
          f"breaker opens: {ops['breaker_opens']})")
    if not args.no_crash:
        crash = ops["crash"]
        print(f"  crash/restart:      {crash['acked_at_crash']} chunk(s) "
              f"acked at crash, restart {crash['restart_wall_s']:.3f}s, "
              f"degraded shards {crash['pre_crash_degraded_shards']}")
    violations = [
        v
        for group in deterministic["invariants"].values()
        for v in group
    ]
    if violations:
        for violation in violations:
            print(f"  VIOLATION {violation['invariant']} "
                  f"[{violation['subject']}]: {violation['detail']}",
                  file=sys.stderr)
        return 1
    print("  invariants:         all held "
          "(acked-durability, localization-convergence, "
          "shard-liveness, metrics-serveable)")
    if args.report:
        print(f"  report:             {args.report}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    import time

    from repro import perf
    from repro.runtime.cache import default_cache
    from repro.selection import kernels
    from repro.selection.localization import PathLocalizer
    from repro.selection.selector import MessageSelector
    from repro.sim.engine import TransactionSimulator
    from repro.sim.tracebuffer import TraceBuffer
    from repro.soc.t2.scenarios import scenario

    sc = scenario(args.scenario, instances=args.instances)
    start = time.perf_counter()
    with perf.collect() as counters:
        u = sc.interleaved()
        selector = MessageSelector(
            u, args.buffer, subgroups=sc.subgroup_pool
        )
        result = selector.select(
            method=args.method, packing=not args.no_packing
        )
        # capture one golden run so ring-overwrite pressure
        # (tracebuffer_evictions / _overwritten_bits) shows up in the
        # same counter table as the selection stages
        with perf.timed("capture"):
            records = TransactionSimulator(u, sc.name).run(seed=0).records
            TraceBuffer(args.buffer, args.depth, result.traced).capture(
                records
            )
        # replay the captured run through the localization kernels so
        # the kernel stage counters (localize_kernel_*,
        # localize_table_*) land in the same table
        with perf.timed("localize"):
            localizer = PathLocalizer(u, result.traced).warm()
            observed = [
                r.message
                for r in records
                if localizer.is_visible(r.message)
            ]
            frontier = localizer.advance_many(
                localizer.initial_frontier(), observed
            ).frontier
            localizer.prefix_count(frontier)
    wall = time.perf_counter() - start
    cache_stats = default_cache().stats.as_dict()
    table_stats = kernels.default_registry().stats()
    if args.json:
        payload = counters.as_dict()
        payload["wall_time_s"] = round(wall, 6)
        payload["result"] = result.describe()
        payload["cache"] = cache_stats
        payload["localize_tables"] = table_stats
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{sc.name}: profile (method={args.method}, "
          f"buffer={args.buffer}, instances={args.instances})")
    print(f"interleaved flow: {u.num_states} states, "
          f"{u.num_transitions} transitions")
    print(result.describe())
    print(counters.format())
    print(f"{'total wall time':<24}  {wall:>13.4f}s")
    print(f"{'artifact cache':<24}  "
          f"{cache_stats['hits']:>7} hit(s) / "
          f"{cache_stats['misses']} miss(es)")
    print(f"{'localize backend':<24}  {table_stats['backend']:>14}")
    print(f"{'localize tables':<24}  "
          f"{table_stats['hits']:>7} hit(s) / "
          f"{table_stats['misses']} miss(es), "
          f"{table_stats['bytes']:,} bytes")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    import json

    from repro.core.flowspec import format_flowspec
    from repro.mining import evaluate_scenario

    ev = evaluate_scenario(
        args.scenario,
        instances=args.instances,
        runs=args.runs,
        base_seed=args.seed,
        min_support=args.support,
        buffer_width=args.buffer,
        jobs=args.jobs,
        eval_runs=args.eval_runs,
    )
    if args.emit:
        print(
            format_flowspec(
                [m.flow for m in ev.mining.flows],
                ev.mining.spec.subgroups,
            ),
            end="",
        )
        return 0
    if args.json:
        payload = {
            "scenario": ev.number,
            "corpus": {
                "runs": ev.corpus.runs,
                "records": ev.corpus.total_records,
            },
            "flows": [
                {
                    "name": m.flow.name,
                    "states": m.flow.num_states,
                    "transitions": len(m.flow.transitions),
                    "instances": m.evidence.occurrences,
                }
                for m in ev.mining.flows
            ],
            "transition_recall": ev.spec.transition_recall,
            "transition_precision": ev.spec.transition_precision,
            "state_recall": ev.spec.state_recall,
            "state_precision": ev.spec.state_precision,
            "truth_coverage": ev.loop.truth_coverage,
            "mined_coverage": ev.loop.mined_coverage,
            "coverage_delta": ev.loop.coverage_delta,
            "truth_localization": ev.loop.truth_localization,
            "mined_localization": ev.loop.mined_localization,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(ev.corpus.describe())
    print(ev.mining.describe())
    print("vs ground truth:")
    for match in ev.spec.matches:
        marker = "==" if match.language_equal else "~="
        print(f"  {match.truth_name} {marker} {match.mined_name}: "
              f"transitions {match.matched_truth_transitions}/"
              f"{match.truth_transitions} recalled, "
              f"{match.matched_mined_transitions}/"
              f"{match.mined_transitions} precise")
    for name in ev.spec.unmatched_truth:
        print(f"  {name}: NOT recovered")
    for name in ev.spec.unmatched_mined:
        print(f"  {name}: no ground-truth counterpart")
    print(f"  transition recall {ev.spec.transition_recall:.1%}, "
          f"precision {ev.spec.transition_precision:.1%}; "
          f"state recall {ev.spec.state_recall:.1%}, "
          f"precision {ev.spec.state_precision:.1%}")
    print("closed loop (selection driven by mined spec):")
    print(f"  traced (truth): {', '.join(ev.loop.truth_traced)}")
    print(f"  traced (mined): {', '.join(ev.loop.mined_traced)}")
    print(f"  Def-7 coverage: truth {ev.loop.truth_coverage:.1%}, "
          f"mined {ev.loop.mined_coverage:.1%} "
          f"(delta {ev.loop.coverage_delta:.1%})")
    print(f"  localization:   truth {ev.loop.truth_localization:.4%}, "
          f"mined {ev.loop.mined_localization:.4%}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    import json

    from repro.compress import (
        decode_stream,
        encode_records,
        uncompressed_capture_bits,
    )
    from repro.sim.tracefile import read_trace_file, write_trace_file
    from repro.soc.t2.messages import t2_message_catalog

    catalog = dict(t2_message_catalog().messages)

    if args.action == "encode":
        with open(args.input, encoding="utf-8") as stream:
            records, scenario_name, seed = read_trace_file(stream, catalog)
        encoded = encode_records(
            records,
            scenario=scenario_name,
            seed=seed,
            records_per_frame=args.records_per_frame,
        )
        output = args.output or args.input + ".ctrace"
        with open(output, "wb") as out:
            out.write(encoded.data)
        raw_bits = uncompressed_capture_bits(records)
        print(f"encoded {len(records)} records into {encoded.frame_count} "
              f"frame(s), {len(encoded.data)} bytes "
              f"({encoded.ratio_vs(raw_bits):.2f}x vs raw capture)")
        print(f"wrote {output}")
        return 0

    with open(args.input, "rb") as stream:
        data = stream.read()
    result = decode_stream(data, catalog)
    for diagnostic in result.diagnostics:
        print(f"  {diagnostic}", file=sys.stderr)

    if args.action == "decode":
        if args.output and args.output != "-":
            with open(args.output, "w", encoding="utf-8") as out:
                write_trace_file(
                    out,
                    result.records,
                    scenario=result.scenario,
                    seed=result.seed,
                )
            print(f"decoded {len(result.records)} records; "
                  f"wrote {args.output}")
        else:
            write_trace_file(
                sys.stdout,
                result.records,
                scenario=result.scenario,
                seed=result.seed,
            )
        return 0 if not result.diagnostics else 1

    # stats
    records = result.records
    raw_bits = uncompressed_capture_bits(records)
    encoded_bits = len(data) * 8
    names = sorted({r.message.message.name for r in records})
    payload = {
        "input": args.input,
        "scenario": result.scenario,
        "seed": result.seed,
        "records": len(records),
        "frames_decoded": result.frames_decoded,
        "records_dropped": result.records_dropped,
        "diagnostics": len(result.diagnostics),
        "encoded_bytes": len(data),
        "encoded_bits": encoded_bits,
        "raw_capture_bits": raw_bits,
        "ratio": (raw_bits / encoded_bits) if encoded_bits else 0.0,
        "bits_per_record": (
            encoded_bits / len(records) if records else 0.0
        ),
        "distinct_messages": names,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{args.input}: scenario={result.scenario!r} "
          f"seed={result.seed}")
    print(f"  records:        {payload['records']} "
          f"({payload['records_dropped']} dropped)")
    print(f"  frames decoded: {payload['frames_decoded']}")
    print(f"  encoded size:   {payload['encoded_bytes']} bytes "
          f"({payload['bits_per_record']:.1f} bits/record)")
    print(f"  compression:    {payload['ratio']:.2f}x vs raw capture "
          f"({raw_bits} bits)")
    print(f"  messages:       {', '.join(names)}")
    if result.diagnostics:
        print(f"  diagnostics:    {len(result.diagnostics)} "
              "(see stderr)")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.soc.t2.flows import t2_flows
    from repro.viz import flow_to_dot, interleaved_to_dot

    if args.spec:
        from repro.core.flowspec import parse_flowspec

        with open(args.spec, encoding="utf-8") as stream:
            spec = parse_flowspec(stream)
        if args.flow not in spec.flows:
            print(
                f"{args.spec} defines {sorted(spec.flows)}, "
                f"not {args.flow!r}",
                file=sys.stderr,
            )
            return 2
        print(flow_to_dot(spec.flow(args.flow)))
        return 0

    flows = t2_flows()
    if args.flow in flows:
        print(flow_to_dot(flows[args.flow]))
        return 0
    if args.flow.startswith("scenario"):
        from repro.soc.t2.scenarios import scenario

        try:
            number = int(args.flow.removeprefix("scenario"))
            sc = scenario(number)
        except (ValueError, KeyError):
            print(
                f"unknown scenario {args.flow!r}; choose "
                "scenario1, scenario2, or scenario3",
                file=sys.stderr,
            )
            return 2
        print(interleaved_to_dot(sc.interleaved()))
        return 0
    print(
        f"unknown flow {args.flow!r}; choose one of "
        f"{', '.join(flows)} or scenario1/scenario2/scenario3",
        file=sys.stderr,
    )
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Application-level hardware trace message selection "
        "(DAC 2018 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="regenerate tables/figures")
    tables.add_argument("which", nargs="*", help="artifact names "
                        "(default: all)")
    tables.add_argument("--instances", type=int, default=1)
    tables.add_argument("--jobs", type=int, default=1,
                        help="worker processes (0 = all CPUs)")
    tables.set_defaults(func=_cmd_tables)

    select = sub.add_parser("select", help="run message selection")
    select.add_argument("scenario", type=int, choices=(1, 2, 3))
    select.add_argument("--buffer", type=int, default=32)
    select.add_argument("--depth", type=int, default=64,
                        help="trace buffer depth in entries")
    select.add_argument("--instances", type=int, default=1)
    select.add_argument(
        "--method", choices=("exhaustive", "knapsack"), default="exhaustive"
    )
    select.add_argument("--no-packing", action="store_true")
    select.add_argument("--compress", action="store_true",
                        help="admit combinations by expected encoded "
                        "bits against the width x depth bit budget "
                        "instead of worst-case entry width")
    select.add_argument("--guard-band", type=float, default=0.25,
                        help="worst-case margin of the compressed "
                        "budget in [0, 1]")
    select.add_argument("--json", action="store_true",
                        help="emit the selection and capture "
                        "utilization (with overflow) as JSON")
    select.set_defaults(func=_cmd_select)

    debug = sub.add_parser("debug", help="replay a debugging case study")
    debug.add_argument("case_study", type=int)
    debug.add_argument("--instances", type=int, default=1)
    debug.add_argument("--runs", type=int, default=1,
                       help="failing runs to replay (a >1 value "
                       "aggregates a validation campaign)")
    debug.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --runs (0 = all CPUs)")
    debug.set_defaults(func=_cmd_debug)

    usb = sub.add_parser("usb", help="USB baseline comparison")
    usb.set_defaults(func=_cmd_usb)

    plan = sub.add_parser(
        "plan", help="sweep trace buffer widths for a scenario"
    )
    plan.add_argument("scenario", type=int, choices=(1, 2, 3))
    plan.add_argument(
        "--widths", type=int, nargs="+",
        default=[8, 12, 16, 20, 24, 28, 32, 40, 48, 64],
    )
    plan.add_argument("--target", type=float, default=None,
                      help="coverage target, e.g. 0.9")
    plan.add_argument("--instances", type=int, default=1)
    plan.add_argument("--jobs", type=int, default=1,
                      help="worker processes (0 = all CPUs)")
    plan.set_defaults(func=_cmd_plan)

    spec = sub.add_parser(
        "spec", help="export the T2 flows as a flowspec file"
    )
    spec.set_defaults(func=_cmd_spec)

    export = sub.add_parser(
        "export", help="export all experiment results as JSON"
    )
    export.add_argument("output", nargs="?", default="-",
                        help="output path ('-' for stdout)")
    export.add_argument("--instances", type=int, default=1)
    export.set_defaults(func=_cmd_export)

    report = sub.add_parser(
        "report", help="build the full markdown reproduction report"
    )
    report.add_argument("output", nargs="?", default="-",
                        help="output path ('-' for stdout)")
    report.add_argument("--instances", type=int, default=1)
    report.add_argument("--jobs", type=int, default=1,
                        help="worker processes (0 = all CPUs)")
    report.set_defaults(func=_cmd_report)

    analyze = sub.add_parser(
        "analyze", help="select trace messages for a flowspec file"
    )
    analyze.add_argument("spec", help="path to a .flowspec file")
    analyze.add_argument("--buffer", type=int, default=32)
    analyze.add_argument("--copies", type=int, default=1)
    analyze.add_argument(
        "--method", choices=("exhaustive", "knapsack"), default="knapsack"
    )
    analyze.add_argument("--no-packing", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)

    cache = sub.add_parser(
        "cache", help="inspect/clear/warm the artifact cache"
    )
    cache.add_argument(
        "action", choices=("stats", "clear", "warm"),
        help="stats: counters and disk usage; clear: drop all entries; "
        "warm: precompute the scenario selections",
    )
    cache.add_argument("--instances", type=int, default=1)
    cache.add_argument("--json", action="store_true",
                       help="emit stats as JSON (stats action only)")
    cache.set_defaults(func=_cmd_cache)

    stream = sub.add_parser(
        "stream",
        help="follow a trace file incrementally, printing localization",
    )
    stream.add_argument("tracefile", help="path to a repro-trace file")
    stream.add_argument("--scenario", type=int, choices=(1, 2, 3),
                        default=1)
    stream.add_argument("--mode", choices=("prefix", "exact", "window"),
                        default="prefix")
    stream.add_argument("--buffer", type=int, default=32)
    stream.add_argument("--instances", type=int, default=1)
    stream.add_argument("--chunk-bytes", type=int, default=256,
                        help="bytes ingested per read (smaller = more "
                        "frequent progress lines)")
    stream.add_argument("--max-frontier", type=int, default=None,
                        help="bound the carried DP frontier")
    stream.set_defaults(func=_cmd_stream)

    served = sub.add_parser(
        "serve",
        help="run the networked debug service (wire protocol over TCP)",
    )
    served.add_argument("--scenario", type=int, choices=(1, 2, 3),
                        default=1)
    served.add_argument("--instances", type=int, default=1)
    served.add_argument("--buffer", type=int, default=32)
    served.add_argument("--mode", choices=("prefix", "exact", "window"),
                        default="prefix")
    served.add_argument("--host", default="127.0.0.1")
    served.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed on start)")
    served.add_argument("--shards", type=int, default=2,
                        help="session shards, each a session table "
                        "and (with --data-dir) a store; sessions are "
                        "routed by consistent hash, and every shard "
                        "runs on the server's one event-loop thread")
    served.add_argument("--max-sessions", type=int, default=64,
                        help="admission control: open-session cap")
    served.add_argument("--idle-timeout", type=float, default=300.0,
                        help="seconds before an idle session is evicted")
    served.add_argument("--idle-sweep", type=float, default=10.0,
                        help="seconds between idle-eviction sweeps")
    served.add_argument("--max-frontier", type=int, default=4096)
    served.add_argument("--metrics-port", type=int, default=None,
                        help="also serve JSON metrics over HTTP on "
                        "this port (0 = ephemeral)")
    served.add_argument("--duration", type=float, default=None,
                        help="serve for N seconds then drain "
                        "(default: until SIGINT/SIGTERM)")
    served.add_argument("--data-dir", default=None,
                        help="enable durability: per-shard write-ahead "
                        "log + snapshots under this directory "
                        "(sessions survive restarts and crashes)")
    served.add_argument("--fsync", choices=("always", "interval", "off"),
                        default="interval",
                        help="WAL fsync policy (default: interval)")
    served.add_argument("--fsync-interval", type=float, default=0.05,
                        help="under --fsync interval, an append "
                        "fsyncs once this many seconds passed since "
                        "the last fsync (no timer: the last appends "
                        "before a quiet spell wait for the next "
                        "append, snapshot or shutdown)")
    served.add_argument("--snapshot-every", type=int, default=256,
                        help="feeds between frontier snapshots per "
                        "shard (0 disables cadence snapshots)")
    served.set_defaults(func=_cmd_serve)

    store = sub.add_parser(
        "store",
        help="inspect/verify/compact a server data directory",
    )
    store.add_argument(
        "action", choices=("inspect", "verify", "compact"),
        help="inspect: list segments and snapshots; verify: run "
        "recovery read-only and report problems; compact: drop WAL "
        "segments covered by the newest snapshot",
    )
    store.add_argument("data_dir", help="the server's --data-dir path")
    store.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
    store.set_defaults(func=_cmd_store)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay simulated trace files against a running server",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--scenario", type=int, choices=(1, 2, 3),
                         default=1)
    loadgen.add_argument("--instances", type=int, default=1)
    loadgen.add_argument("--buffer", type=int, default=32)
    loadgen.add_argument("--mode", choices=("prefix", "exact", "window"),
                         default="prefix")
    loadgen.add_argument("--sessions", type=int, default=8)
    loadgen.add_argument("--processes", type=int, default=2,
                         help="worker processes (0 = inline threads)")
    loadgen.add_argument("--threads", type=int, default=2,
                         help="concurrent sessions per process")
    loadgen.add_argument("--chunk", type=int, default=16,
                         help="trace records per wire chunk")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    loadgen.set_defaults(func=_cmd_loadgen)

    chaos = sub.add_parser(
        "chaos",
        help="run a deterministic fault-injection soak",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--duration", type=float, default=120.0,
                       help="wall-clock budget in seconds (the soak "
                       "finishes early once every session converges)")
    chaos.add_argument("--sessions", type=int, default=32,
                       help="concurrent client sessions")
    chaos.add_argument("--faults", default="network,disk,session",
                       help="comma-separated fault planes to enable")
    chaos.add_argument("--scenario", type=int, choices=(1, 2, 3),
                       default=1)
    chaos.add_argument("--instances", type=int, default=2)
    chaos.add_argument("--buffer", type=int, default=32)
    chaos.add_argument("--mode", choices=("prefix", "exact", "window"),
                       default="prefix")
    chaos.add_argument("--chunk", type=int, default=4,
                       help="trace records per wire chunk")
    chaos.add_argument("--shards", type=int, default=4)
    chaos.add_argument("--frame-loss", type=float, default=0.08,
                       help="per-frame drop probability")
    chaos.add_argument("--frame-corrupt", type=float, default=0.03,
                       help="per-frame bit-corruption probability")
    chaos.add_argument("--no-crash", action="store_true",
                       help="skip the mid-soak server kill + recovery")
    chaos.add_argument("--report", metavar="PATH",
                       help="write the full soak report as JSON")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report as JSON to stdout")
    chaos.set_defaults(func=_cmd_chaos)

    profile = sub.add_parser(
        "profile",
        help="profile interleaving + selection stage counters",
    )
    profile.add_argument("scenario", type=int, choices=(1, 2, 3))
    profile.add_argument("--buffer", type=int, default=32)
    profile.add_argument("--depth", type=int, default=64,
                         help="trace buffer depth for the capture stage")
    profile.add_argument("--instances", type=int, default=1)
    profile.add_argument(
        "--method", choices=("exhaustive", "knapsack"), default="exhaustive"
    )
    profile.add_argument("--no-packing", action="store_true")
    profile.add_argument("--json", action="store_true",
                         help="emit the counters as JSON")
    profile.set_defaults(func=_cmd_profile)

    mine = sub.add_parser(
        "mine",
        help="mine flow specifications from a simulated trace corpus",
    )
    mine.add_argument("scenario", type=int, choices=(1, 2, 3))
    mine.add_argument("--runs", type=int, default=50,
                      help="corpus size (golden runs to simulate)")
    mine.add_argument("--seed", type=int, default=0,
                      help="first corpus seed (seeds are seed..seed+runs-1)")
    mine.add_argument("--support", type=float, default=0.1,
                      help="minimum sequence support threshold")
    mine.add_argument("--buffer", type=int, default=32)
    mine.add_argument("--instances", type=int, default=1)
    mine.add_argument("--eval-runs", type=int, default=3,
                      help="golden runs scored for localization")
    mine.add_argument("--jobs", type=int, default=1,
                      help="worker processes for corpus generation "
                      "(0 = all CPUs)")
    mine.add_argument("--emit", action="store_true",
                      help="print the mined flowspec file and exit")
    mine.add_argument("--json", action="store_true",
                      help="emit the evaluation as JSON")
    mine.set_defaults(func=_cmd_mine)

    compress = sub.add_parser(
        "compress",
        help="encode/decode/inspect compressed trace bitstreams",
    )
    compress.add_argument(
        "action", choices=("encode", "decode", "stats"),
        help="encode: trace file -> framed bitstream; decode: bitstream "
        "-> trace file; stats: bitstream statistics",
    )
    compress.add_argument("input", help="input path (text trace for "
                          "encode, bitstream otherwise)")
    compress.add_argument("-o", "--output", default=None,
                          help="output path (encode: default "
                          "<input>.ctrace; decode: default stdout)")
    compress.add_argument("--records-per-frame", type=int, default=32,
                          help="data-frame granularity for encode")
    compress.add_argument("--json", action="store_true",
                          help="emit stats as JSON (stats action only)")
    compress.set_defaults(func=_cmd_compress)

    dot = sub.add_parser("dot", help="dump a flow as Graphviz DOT")
    dot.add_argument(
        "flow",
        help="PIOR | PIOW | NCUU | NCUD | Mon | scenario1..scenario3",
    )
    dot.add_argument(
        "--spec", help="read the flow from a flowspec file instead"
    )
    dot.set_defaults(func=_cmd_dot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
