"""Trace corpora: the raw material of flow-specification mining.

A *corpus* is a set of complete, timestamped runs of one usage
scenario -- exactly what a validation lab accumulates by re-running a
(passing) test many times.  Three sources are supported:

* **Generated**: :func:`generate_corpus` replays a built-in T2
  scenario over a seed range with the transaction simulator, fanning
  the runs out over a process pool (``jobs=``, the same orchestration
  a :class:`~repro.debug.campaign.ValidationCampaign` uses) and
  memoizing the finished corpus in the content-addressed artifact
  cache -- a warm ``REPRO_CACHE_DIR`` makes repeat mining runs skip
  simulation entirely.
* **Simulated elsewhere**: :func:`corpus_from_traces` wraps
  :class:`~repro.sim.engine.SimulationTrace` objects produced by any
  driver (e.g. the golden runs of a debug campaign).
* **On disk**: :func:`corpus_from_tracefiles` reads Figure-4 trace
  files (:mod:`repro.sim.tracefile`), so corpora round-trip through
  the same text format silicon monitors write;
  :func:`write_corpus` produces that layout.

Determinism: entries are kept in seed order, and parallel generation
chunks the seed range without affecting per-seed results, so the
corpus is byte-identical for every ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import __version__
from repro.core.message import Message
from repro.errors import MiningError
from repro.runtime.artifacts import artifact_key, message_fingerprint
from repro.runtime.cache import ArtifactCache, default_cache
from repro.runtime.orchestrator import orchestrate
from repro.runtime.parallel import resolve_jobs
from repro.sim.engine import SimulationTrace, TraceRecord, TransactionSimulator
from repro.sim.tracefile import read_trace_file, write_trace_file


@dataclass(frozen=True)
class CorpusEntry:
    """One complete run: its seed and its timestamped records."""

    seed: int
    records: Tuple[TraceRecord, ...]

    @property
    def length(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class TraceCorpus:
    """An ordered collection of runs of one usage scenario.

    Attributes
    ----------
    scenario_name:
        Label of the scenario the runs executed (from the simulator or
        the trace-file headers).
    entries:
        The runs, in seed order.
    """

    scenario_name: str
    entries: Tuple[CorpusEntry, ...]

    @property
    def runs(self) -> int:
        return len(self.entries)

    @property
    def total_records(self) -> int:
        return sum(e.length for e in self.entries)

    def message_names(self) -> Tuple[str, ...]:
        """Every distinct message name observed, sorted."""
        names = {
            r.message.message.name for e in self.entries for r in e.records
        }
        return tuple(sorted(names))

    def instance_indices(self) -> Tuple[int, ...]:
        """Every distinct flow-instance index observed, sorted."""
        indices = {r.message.index for e in self.entries for r in e.records}
        return tuple(sorted(indices))

    def describe(self) -> str:
        return (
            f"{self.scenario_name}: {self.runs} runs, "
            f"{self.total_records} records, "
            f"{len(self.message_names())} distinct messages, "
            f"{len(self.instance_indices())} flow instances"
        )


# ----------------------------------------------------------------------
# generation (simulator-backed, cached, parallel)
# ----------------------------------------------------------------------
def corpus_key(
    number: int, instances: int, runs: int, base_seed: int, pool: Sequence[Message]
) -> str:
    """Content-addressed cache key for a generated corpus.

    Carries every input simulation depends on: scenario number,
    instance count, seed range, library version, and a structural
    fingerprint of the scenario's message pool (a catalog edit
    invalidates stale corpora by never looking them up again).
    """
    return artifact_key(
        "trace-corpus",
        scenario=number,
        instances=instances,
        runs=runs,
        base_seed=base_seed,
        version=__version__,
        pool=message_fingerprint(tuple(pool)),
    )


def _simulate_chunk(
    args: Tuple[int, int, Tuple[int, ...]]
) -> Tuple[CorpusEntry, ...]:
    """Simulate one chunk of seeds (module-level: pool workers pickle
    the scenario number, not the product automaton)."""
    from repro.soc.t2.scenarios import scenario

    number, instances, seeds = args
    sc = scenario(number, instances=instances)
    simulator = TransactionSimulator(sc.interleaved(), sc.name)
    return tuple(
        CorpusEntry(seed=seed, records=simulator.run(seed=seed).records)
        for seed in seeds
    )


def generate_corpus(
    number: int,
    instances: int = 1,
    runs: int = 50,
    base_seed: int = 0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    use_cache: bool = True,
) -> TraceCorpus:
    """Simulate *runs* golden runs of T2 scenario *number*.

    Seeds are ``base_seed .. base_seed + runs - 1``.  ``jobs > 1``
    splits the seed range into per-worker chunks; each seed's run is
    independent, so the flattened, seed-ordered corpus is identical
    for every ``jobs`` value.  The finished corpus is stored in the
    artifact cache (*cache* or the process default) unless
    ``use_cache=False``.
    """
    if runs < 1:
        raise MiningError(f"a corpus needs at least one run, got {runs}")
    from repro.soc.t2.scenarios import scenario

    sc = scenario(number, instances=instances)

    def compute() -> TraceCorpus:
        seeds = list(range(base_seed, base_seed + runs))
        workers = resolve_jobs(jobs)
        chunk = max(1, -(-len(seeds) // max(1, workers * 4)))
        tasks = [
            (number, instances, tuple(seeds[i : i + chunk]))
            for i in range(0, len(seeds), chunk)
        ]
        chunks = orchestrate(_simulate_chunk, tasks, jobs=jobs)
        entries = tuple(entry for part in chunks for entry in part)
        return TraceCorpus(scenario_name=sc.name, entries=entries)

    if not use_cache:
        return compute()
    store = cache if cache is not None else default_cache()
    key = corpus_key(number, instances, runs, base_seed, sc.message_pool)
    return store.get_or_compute(key, compute)


# ----------------------------------------------------------------------
# other sources
# ----------------------------------------------------------------------
def corpus_from_traces(traces: Iterable[SimulationTrace]) -> TraceCorpus:
    """Wrap already-simulated runs (e.g. a campaign's golden runs)."""
    materialized = tuple(traces)
    if not materialized:
        raise MiningError("cannot build a corpus from zero traces")
    names = {t.scenario_name for t in materialized}
    if len(names) > 1:
        raise MiningError(
            f"corpus mixes scenarios {sorted(names)}; mine them separately"
        )
    entries = tuple(
        CorpusEntry(seed=t.seed, records=t.records)
        for t in sorted(materialized, key=lambda t: t.seed)
    )
    return TraceCorpus(scenario_name=names.pop(), entries=entries)


def corpus_from_tracefiles(
    paths: Iterable[Path], catalog: Mapping[str, Message]
) -> TraceCorpus:
    """Read a corpus from Figure-4 trace files.

    All files must carry the same scenario label; entries are ordered
    by the seed recorded in each header.
    """
    entries: List[Tuple[int, CorpusEntry]] = []
    names = set()
    for path in sorted(Path(p) for p in paths):
        with open(path, encoding="utf-8") as stream:
            records, scenario_name, seed = read_trace_file(stream, catalog)
        names.add(scenario_name)
        entries.append((seed, CorpusEntry(seed=seed, records=records)))
    if not entries:
        raise MiningError("cannot build a corpus from zero trace files")
    if len(names) > 1:
        raise MiningError(
            f"trace files mix scenarios {sorted(names)}; "
            "mine them separately"
        )
    entries.sort(key=lambda pair: pair[0])
    return TraceCorpus(
        scenario_name=names.pop(),
        entries=tuple(entry for _, entry in entries),
    )


def write_corpus(corpus: TraceCorpus, directory: Path) -> Tuple[Path, ...]:
    """Write one ``run-<seed>.trace`` file per entry under *directory*.

    The layout round-trips through :func:`corpus_from_tracefiles`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for entry in corpus.entries:
        path = directory / f"run-{entry.seed:08d}.trace"
        with open(path, "w", encoding="utf-8") as stream:
            write_trace_file(
                stream,
                entry.records,
                scenario=corpus.scenario_name,
                seed=entry.seed,
            )
        paths.append(path)
    return tuple(paths)
